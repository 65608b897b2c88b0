"""Reference implementations that the tests compare the package against,
and the helpers that only tests use.

Series algebra: the package's series have no arithmetic, so the sums
and products that the tests form are here, as functions of series (an
offset and a coefficient array): add, by the package's one alignment
rule (series._aligned), neg, sub, and mul, np.convolve's full product
truncated at the shorter operand, or a series times a number.  residue
reads z^-1 of a formed series, and product_residue reads it from the
pairs of two operands without forming their product, bitwise the
formed product's, the summation order flux.flux_triple keeps.  These
are the second residue route, which only the tests run.

Series: eval_at sums by Horner's rule at arbitrary angles, on the
continuous branch z^lambda = rho^lambda e^(i lambda tau) (tau taken from
0 up, never reduced mod 2 pi) with the branch factor e^(i lambda tau)
kept, so it is the reference for the FFT evaluator series.eval_branch,
whose rows lack that factor, and for points off the roots of unity.
normalized moves leading zero coefficients into the offset; series_div
and series_isclose are the quotient and the comparison up to an integer
offset shift; series_sum adds two series by index arithmetic, the
reference for add.

Frames: one_forms forms the three single-valued one-forms in full, the
reference for flux.flux_triple, which reads their residues without
forming them; matrix_of_forms forms the entries of -(dF) F^-1 and takes
their residues, the paper's flux matrix that flux.FluxMatrix derives
from the triple; identity_windows forms the residual windows of the
frame identities one product at a time, the bitwise reference for
bryant._identity_terms; derived_forms adds the Gauss map and the Hopf
differential.
immersion_samples evaluates the immersion (zeta, w) by Horner's rule,
and immersion_derivatives adds its radial and angular derivatives.
placed_by_entries moves a frame by an isometry entry by entry, each new
entry the series_sum of two scaled entries at their own offsets, the
reference for transform_frame on aligned columns.

Ends: frobenius_mp runs the Frobenius recurrence of a catenoidal or
horospherical first column with mpmath at 50 digits, the reference for
both paths of ends.frobenius_solve; ode_residual is the residual of a
candidate solution in an entry ODE given by its exponents;
classify_end reads the end type from the Weierstrass exponents.

Killing fields: the vector Y and potential Z of each field in closed
form, written per field kind and endpoint case rather than through the
field's quadratic V.  For a geodesic with two finite endpoints (C, D)
the substitution zeta0 = C - D, zeta1 = D is used; an infinite ``start``
endpoint is handled by reversing the geodesic and negating (the field of
the reversed geodesic is the opposite).  Z is fixed here in a specific
gauge; any shift by the gradient dual of a smooth function leaves fluxes
over closed loops unchanged, and verify_potential checks d(beta) =
i_Y(alpha) by finite differences.

Geometry: half-space points and tangent vectors, the action of SL(2, C)
on points through Hermitian matrices, the product of two isometries, the
metric and the distance.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

import mpmath
import numpy as np

from bryantflux.bryant import BryantFrame, _check_radius, _zeta_w
from bryantflux.ends import _LEAD_TOL, _MU_ONE_TOL, FrobeniusProblem
from bryantflux.errors import ConsistencyError, DomainError
from bryantflux.geometry import Geodesic, IsometrySL2, is_inf
from bryantflux.killing import TRANSLATION, KillingField
from bryantflux.series import (_OFFSET_TOL, GeneralizedSeries, QuadratureGrid,
                               _aligned, _residue_index, differentiate,
                               eval_branch)


# -- series -----------------------------------------------------------------

def add(x: GeneralizedSeries, y: GeneralizedSeries) -> GeneralizedSeries:
    """x + y by the rule of series addition (series._aligned); 0.0 +
    turns a -0.0 sum into +0.0, as a sum into zeros does."""
    offset, (a, b) = _aligned(x.offset, x.coeffs, y.offset, y.coeffs,
                              "series addition")
    return GeneralizedSeries(offset, 0.0 + a + b)


def neg(x: GeneralizedSeries) -> GeneralizedSeries:
    return GeneralizedSeries(x.offset, -x.coeffs)


def sub(x: GeneralizedSeries, y: GeneralizedSeries) -> GeneralizedSeries:
    return add(x, neg(y))


def mul(x: GeneralizedSeries, y) -> GeneralizedSeries:
    """x times a number, or the product of two series truncated at the
    shorter operand's order: the leading coefficients of np.convolve's
    full product, so that residue(mul(a, b)) is bitwise
    product_residue(a, b)."""
    if isinstance(y, (int, float, complex)):
        return GeneralizedSeries(x.offset, x.coeffs * y)
    n = min(len(x.coeffs), len(y.coeffs))
    return GeneralizedSeries(x.offset + y.offset,
                             np.convolve(x.coeffs, y.coeffs)[:n])


def _residue_at(offset: float, *lengths: int) -> int:
    """The index of z^-1 at an integer ``offset`` (series._residue_index),
    negative below the leading power; DomainError when it lies past the
    retained coefficients of an operand of one of the ``lengths``."""
    idx = _residue_index(offset)
    if idx >= min(lengths):
        raise DomainError("the series is truncated before its residue: z^-1 "
                          "is at index %d of %s coefficients"
                          % (idx, " and ".join(map(str, lengths))))
    return idx


def residue(a: GeneralizedSeries) -> complex:
    """Coefficient of z^-1, the residue of a formed series: 0 when z^-1
    lies below the leading power, refused past the retained
    coefficients (_residue_at)."""
    idx = _residue_at(a.offset, len(a.coeffs))
    return complex(a.coeffs[idx]) if idx >= 0 else 0j


def product_residue(a: GeneralizedSeries, b: GeneralizedSeries) -> complex:
    """residue(mul(a, b)) from the idx + 1 coefficient pairs that reach
    z^-1, without forming the product: one np.dot in np.convolve's order,
    the longer operand ascending (a on a tie, sorted being stable), where
    + 0j clears a negative zero as the product's zero-started sums do, so
    the value is bitwise the formed product's residue, its refusals
    included."""
    idx = _residue_at(a.offset + b.offset, len(a.coeffs), len(b.coeffs))
    x, y = sorted((a.coeffs, b.coeffs), key=len, reverse=True)
    return complex(np.dot(x[:idx + 1], y[idx::-1]) + 0j) if idx >= 0 else 0j


def eval_at(a: GeneralizedSeries, rho: float, taus: np.ndarray) -> np.ndarray:
    """Evaluate on |z| = rho at angles tau, continuous branch from tau=0."""
    taus = np.asarray(taus, dtype=float)
    z = rho * np.exp(1j * taus)
    poly = np.zeros_like(z)
    for c in a.coeffs[::-1]:
        poly = poly * z + c
    return (rho ** a.offset) * np.exp(1j * a.offset * taus) * poly


def stacked(series):
    """(offsets, rows) of a sequence of series, as series.eval_branch reads
    them: the series' offsets, and their coefficients as the rows of one
    array, each padded with zeros to the longest."""
    rows = np.zeros((len(series), max(len(a.coeffs) for a in series)),
                    dtype=complex)
    for row, a in zip(rows, series):
        row[:len(a.coeffs)] = a.coeffs
    return [a.offset for a in series], rows


def series_sum(x: GeneralizedSeries, y: GeneralizedSeries):
    """x + y by index arithmetic, the reference for series addition: the
    sum starts as zeros at the lower offset, as long as the lower absolute
    top allows, and the lower operand is added in first, then the other
    from its shift d on.  The offsets must differ by an integer."""
    d = round(y.offset - x.offset)
    lower, upper = (x, y) if d >= 0 else (y, x)
    d, a, b = abs(d), lower.coeffs, upper.coeffs
    n = min(len(a), d + len(b))
    out = np.zeros(n, dtype=complex)
    out += a[:n]
    out[d:] += b[:max(n - d, 0)]
    return GeneralizedSeries(lower.offset, out)


def radius_estimate(a: GeneralizedSeries) -> float:
    """Advisory Cauchy root-test estimate of the convergence radius."""
    mags = np.abs(a.coeffs[1:])
    k = np.arange(1, len(a.coeffs))
    mask = mags > 0
    if not np.any(mask):
        return np.inf
    return float(1.0 / np.max(mags[mask] ** (1.0 / k[mask])))


def trapezoid_residue(a: GeneralizedSeries, grid: QuadratureGrid) -> complex:
    """Residue via the periodic trapezoid rule; cross-oracle for residue().
    eval_branch drops the branch factor, which is put back here."""
    vals = eval_branch(*stacked([a]), grid.rho, grid.samples)[0] \
        * np.exp(1j * a.offset * grid.taus)
    z = grid.rho * np.exp(1j * grid.taus)
    return complex(np.sum(vals * 1j * z) * (2.0 * np.pi / grid.samples) / (2j * np.pi))


def normalized(a: GeneralizedSeries) -> GeneralizedSeries:
    """``a`` with its offset shifted so the leading coefficient is
    significant (above _LEAD_TOL)."""
    nz = np.nonzero(np.abs(a.coeffs) > _LEAD_TOL)[0]
    if len(nz) == 0 or nz[0] == 0:
        return a
    k = int(nz[0])
    return GeneralizedSeries(a.offset + k, a.coeffs[k:].copy())


def _is_zero(a: GeneralizedSeries, tol: float = 0.0) -> bool:
    return bool(np.all(np.abs(a.coeffs) <= tol))


def series_div(a: GeneralizedSeries, b: GeneralizedSeries) -> GeneralizedSeries:
    """a / b, truncated at the shorter order; b's leading zeros are moved
    into its offset first."""
    b = normalized(b)
    if abs(b.coeffs[0]) <= _LEAD_TOL:
        raise DomainError("division by an (effectively) zero series")
    if _is_zero(a):
        return GeneralizedSeries(a.offset - b.offset, np.zeros(1, dtype=complex))
    n = min(a.order, b.order)
    q = np.zeros(n + 1, dtype=complex)
    bc = b.coeffs
    for k in range(n + 1):
        q[k] = (a.coeffs[k] - np.dot(q[:k], bc[k:0:-1])) / bc[0]
    return GeneralizedSeries(a.offset - b.offset, q)


def series_isclose(a: GeneralizedSeries, b: GeneralizedSeries,
                   tol: float = 1e-12) -> bool:
    """Equality up to an integer offset shift and coefficient tolerance."""
    a, b = normalized(a), normalized(b)
    if _is_zero(a, tol) and _is_zero(b, tol):
        return True
    d = b.offset - a.offset
    if abs(d - round(d)) > _OFFSET_TOL:
        return False
    d = round(d)
    if d < 0:
        a, b, d = b, a, -d
    n = min(a.order - d, b.order)
    if n < 0:
        return False
    if np.any(np.abs(a.coeffs[:d]) > tol):
        return False
    return bool(np.all(np.abs(a.coeffs[d:d + n + 1] - b.coeffs[:n + 1]) <= tol))


# -- frames -----------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassData:
    """Holomorphic end data g = z^mu f(z), omega = z^nu h(z) dz."""

    mu: float
    nu: float
    h: GeneralizedSeries
    f: Optional[GeneralizedSeries] = None

    def __post_init__(self):
        if not self.mu > 0:
            raise DomainError("admissibility requires mu > 0")
        if self.nu > -1:
            raise DomainError("admissibility requires nu <= -1")
        s = self.mu + self.nu
        if abs(s - round(s)) > 1e-9:
            raise DomainError("admissibility requires mu + nu integral")
        if round(s) < -1:
            raise DomainError("admissibility requires mu + nu >= -1")
        if self.h.offset != 0.0 or abs(self.h.coeffs[0]) == 0.0:
            raise DomainError("h must be holomorphic with h(0) != 0")
        if self.f is not None:
            if self.f.offset != 0.0 or abs(self.f.coeffs[0]) == 0.0:
                raise DomainError("f must be holomorphic with f(0) != 0")

    @property
    def degree_sum(self) -> int:
        return round(self.mu + self.nu)


def immersion_samples(frame: BryantFrame, rho: float, taus: np.ndarray):
    """(zeta, w) arrays on |z| = rho via branch-tracked evaluation."""
    _check_radius(frame, rho)
    return _zeta_w(*(eval_at(e, rho, taus) for e in frame.entries()))


def immersion_derivatives(frame: BryantFrame, grid: QuadratureGrid):
    """[zeta, w, d_rho zeta, d_rho w, d_tau zeta, d_tau w] on the grid from
    Horner values that keep the branch factor: each entry E moves by
    e^(i tau) E' along rho and by i z E' along tau, and the chain rule
    carries the moves through zeta and w."""
    rho, taus = grid.rho, grid.taus
    A, B, C, D = (eval_at(e, rho, taus) for e in frame.entries())
    zeta, w = _zeta_w(A, B, C, D)
    out = [zeta, w]
    for move in (np.exp(1j * taus), 1j * rho * np.exp(1j * taus)):
        dA, dB, dC, dD = (move * eval_at(differentiate(e), rho, taus)
                          for e in frame.entries())
        dsum = 2.0 * np.real(np.conj(A) * dA + np.conj(B) * dB)
        dnum = (np.conj(dA) * C + np.conj(A) * dC + np.conj(dB) * D
                + np.conj(B) * dD)
        out += [w * (dnum - zeta * dsum), -w * w * dsum]
    return out


def immersion(frame: BryantFrame, grid: QuadratureGrid):
    """The immersed loop as half-space points (closed up to truncation)."""
    zeta, w = immersion_samples(frame, grid.rho, grid.taus)
    return [HPoint(z, wv) for z, wv in zip(zeta, w)]


def placed_by_entries(p: IsometrySL2, A, B, C, D):
    """The entries of P F, F = (A, B; C, D), each s x + t y formed by
    series_sum of the two scaled entries at their own offsets: the
    placement by entries, the reference for bryant.transform_frame, which
    combines the aligned columns coefficient by coefficient."""
    def combine(s, x, t, y):
        return series_sum(GeneralizedSeries(x.offset, x.coeffs * s),
                          GeneralizedSeries(y.offset, y.coeffs * t))

    return (combine(p.alpha, A, p.beta, C), combine(p.alpha, B, p.beta, D),
            combine(p.gamma, A, p.delta, C), combine(p.gamma, B, p.delta, D))


def one_forms(frame: BryantFrame):
    """dz-coefficients of B dA - A dB, C dB - D dA, D dC - C dD, formed
    in full."""
    A, B, C, D = frame.entries()
    dA, dB, dC, dD = map(differentiate, frame.entries())

    def form(x, dy, y, dx):
        return sub(mul(x, dy), mul(y, dx))

    return form(B, dA, A, dB), form(C, dB, D, dA), form(D, dC, C, dD)


def matrix_of_forms(frame: BryantFrame):
    """[m11, m12, m21, m22] of Res(-(dF) F^-1), each entry the residue of
    a formed series, with F^-1 = (D, -B; -C, A) since det F = 1: the
    Rossman-Umehara-Yamada flux matrix, computed without the triple."""
    A, B, C, D = frame.entries()
    dA, dB, dC, dD = map(differentiate, frame.entries())
    return [residue(neg(sub(mul(x, y), mul(u, v)))) for x, y, u, v in
            ((dA, D, dB, C), (dB, A, dA, B), (dC, D, dD, C), (dD, A, dC, B))]


def identity_windows(columns, omega: Optional[GeneralizedSeries] = None,
                     scale: bool = False) -> list:
    """The residual windows of AD - BC = 1, dA dD - dB dC = 0 and, when
    ``omega`` is given, A dC - C dA = omega on a frame's ``columns``,
    formed one product at a time, each window its own array: the
    reference for bryant._identity_terms, which lays them end to end in
    one array.

    Each identity x y - u v = t is read on its window, the m - 1 leading
    coefficients of its products (m the shorter operand's length; one
    when m = 1), widened down to t's leading power when t starts lower.
    Each product's p leading coefficients are np.convolve, in "valid"
    mode, of p - 1 zeros and x's p leading coefficients with y's, and the
    derivatives are those of series.differentiate, so the operands are
    the identity pass's and the windows equal its windows bitwise.  t (1,
    0 or omega, each a series from its own offset, 1 and 0 from z^0) is
    then subtracted where it falls in the window.  With ``scale`` every
    operand is replaced by its moduli, the difference by the sum, and t
    by nothing."""
    (o1, a, c), (o2, b, d) = columns
    A, C, B, D = (GeneralizedSeries(o, x)
                  for o, x in ((o1, a), (o1, c), (o2, b), (o2, d)))
    dA, dC, dB, dD = map(differentiate, (A, C, B, D))
    identities = [(A, D, B, C, GeneralizedSeries.monomial(0.0, 1.0)),
                  (dA, dD, dB, dC, GeneralizedSeries.monomial(0.0, 0.0))]
    if omega is not None:
        identities.append((A, dC, C, dA, omega))
    mod = np.abs if scale else np.asarray

    def leading(x, y, p):
        pad = np.concatenate([np.zeros(p - 1), mod(x.coeffs[:p])])
        return np.convolve(pad, mod(y.coeffs[:p]), "valid")

    windows = []
    for x, y, u, v, t in identities:
        m = min(len(x.coeffs), len(y.coeffs))
        offset = GeneralizedSeries(x.offset + y.offset, [0.0]).offset
        k = round(t.offset - offset)
        if k < -m:
            raise ConsistencyError("the right-hand side starts below the "
                                   "products")
        w = max(-k, 0)
        p = max(m + w - 1, 1) - w
        r = np.zeros(w + p, dtype=float if scale else complex)
        if p:
            xy, uv = leading(x, y, p), leading(u, v, p)
            r[w:] = xy + uv if scale else xy - uv
        if not scale:
            k = max(k, 0)
            r[k:k + len(t.coeffs)] -= t.coeffs[:max(len(r) - k, 0)]
        windows.append(r)
    return windows


def derived_forms(frame: BryantFrame,
                  weier: Optional[WeierstrassData] = None) -> SimpleNamespace:
    """Gauss map, Hopf differential, omega_sharp and the three one-forms
    (``form_b``, ``form_m``, ``form_d``: B dA - A dB, C dB - D dA and
    D dC - C dD).

    The Gauss map is G = dC/dA.  When Weierstrass data is supplied the
    Hopf differential is built from it (omega dg); otherwise it is
    recovered from the frame through -(B dA - A dB) dG.
    """
    A, B, C, D = frame.entries()
    dA = differentiate(A)
    if _is_zero(dA, 1e-300):
        raise DomainError("Gauss map undefined: dA vanishes identically")
    gauss = series_div(differentiate(C), dA)
    fb, fm, fd = one_forms(frame)
    omega_sharp = neg(fd)
    if weier is not None:
        mu, nu = weier.mu, weier.nu
        if weier.f is None:
            # omega dg = mu z^(mu+nu-1) h dz^2
            hopf = GeneralizedSeries(nu + mu - 1.0, mu * weier.h.coeffs)
        else:
            dg = differentiate(GeneralizedSeries(mu, weier.f.coeffs))
            hopf = mul(GeneralizedSeries(nu, weier.h.coeffs), dg)
    else:
        # omega dg = omega_sharp dG / G^2 = -(B dA - A dB) dG
        hopf = neg(mul(fb, differentiate(gauss)))
    return SimpleNamespace(gauss=gauss, hopf=hopf, omega_sharp=omega_sharp,
                           form_b=fb, form_m=fm, form_d=fd)


# -- ends -------------------------------------------------------------------

def _pad_to(a: GeneralizedSeries, order: int) -> GeneralizedSeries:
    """Extend with zero coefficients; valid for exactly-known series only."""
    if order <= a.order:
        return a
    c = np.zeros(order + 1, dtype=complex)
    c[: len(a.coeffs)] = a.coeffs
    return GeneralizedSeries(a.offset, c)


def ode_residual(sol: GeneralizedSeries, s: float, m: float, mu: float,
                 h: GeneralizedSeries) -> float:
    """Max coefficient of X'' - (q'/q)X' - mu h z^m X, q = z^s h, for a
    candidate X.  A first column has m = s + mu - 1 (-2 catenoidal,
    mu - 3 horospherical)."""
    h = _pad_to(h, sol.order)
    xp = differentiate(sol)
    xpp = differentiate(xp)
    term_s = GeneralizedSeries(xp.offset - 1.0, s * xp.coeffs)
    term_p = mul(series_div(differentiate(h), h), xp)
    term_c = mul(mul(GeneralizedSeries(float(m), h.coeffs), sol), mu)
    r = sub(sub(sub(xpp, term_s), term_p), term_c)
    # The top two coefficients lie beyond the recurrence window.
    return float(np.max(np.abs(r.coeffs[:-2] if r.order >= 2 else r.coeffs)))


def frobenius_mp(prob: FrobeniusProblem, dps: int = 50):
    """(lower, upper) Frobenius coefficient lists of a first column at
    ``dps`` digits, the reference for frobenius_solve.

    With X = sum x_k z^(sigma+k), P = X'/q = sum p_k z^(k-kc),
    kc = s + 1 - sigma and d = s + mu + 1, the system X' = q P,
    P' = mu z^(mu-1) X reads (sigma + k) x_k = sum_n h_n p_(k-n) and
    (k - kc) p_k = mu x_(k-d).  On a catenoidal column (d = 0) that is
    x_k = sum_(n>=1) h_n p_(k-n) / (sigma + k - mu h_0 / (k - kc)) from
    p_0 = mu / -kc.  On a horospherical one (d = mu - 1) p_k is
    mu x_(k-d) / (k - kc), 0 for k < d, from p_0 = sigma / h_0 at the
    lower root (kc = 0) and 0 at the upper one, and x_k follows.  At the
    lower root's gap x is set to 0, as in the package.  The data are the
    problem's doubles, read exactly, except that a catenoidal h(0) at
    mu > 1 is the exact (1 - mu^2)/(4 mu) of the double mu, the column
    whose indicial roots are the package's closed-form ones; the roots
    are recomputed at ``dps`` digits.  (The second-order ODE's three-term
    recurrence is not used: run forward it loses digits to the growing
    solution on every step.)
    """
    K, d = prob.order, prob.d
    with mpmath.workdps(dps):
        mu, s = mpmath.mpf(prob.mu), mpmath.mpf(prob.s)
        h = {n: mpmath.mpc(complex(c))
             for n, c in enumerate(prob.h.coeffs[:K + 1]) if c}
        if d == 0 and mu > 1:
            # the column of the closed-form roots, which the package solves
            h[0] = (1 - mu * mu) / (4 * mu)
        b = 1 + s
        disc = mpmath.sqrt(b * b + (4 * mu * h[0] if d == 0 else 0))
        lo, hi = sorted(((b - disc) / 2, (b + disc) / 2), key=mpmath.re)
        gap = int(mpmath.nint(mpmath.re(hi - lo)))
        out = []
        for sigma, free in ((lo, gap), (hi, None)):
            kc = s + 1 - sigma
            x = [mpmath.mpc(1)] + [mpmath.mpc(0)] * K
            p = ([mu / -kc if d == 0 else sigma / h[0] if kc == 0 else 0]
                 + [mpmath.mpc(0)] * K)
            for k in range(1, K + 1):
                if d:
                    p[k] = mu * x[k - d] / (k - kc) if k >= d else 0
                    if k != free:
                        x[k] = (mpmath.fsum(c * p[k - n] for n, c in h.items()
                                            if n <= k) / (sigma + k))
                else:
                    if k != free:
                        x[k] = (mpmath.fsum(c * p[k - n] for n, c in h.items()
                                            if 0 < n <= k)
                                / (sigma + k - mu * h[0] / (k - kc)))
                    p[k] = mu * x[k] / (k - kc)
            out.append(x)
        return out


def classify_end(weier: WeierstrassData) -> str:
    """'catenoidal' or 'horospherical' from the Weierstrass exponents."""
    d = weier.degree_sum
    if d == -1:
        if abs(weier.mu - 1.0) <= _MU_ONE_TOL:
            raise DomainError("mu = 1 is excluded: the end degenerates to a "
                              "horosphere")
        return "catenoidal"
    if round(weier.nu) != -2 or abs(weier.nu + 2.0) > 1e-9:
        raise DomainError("mu + nu >= 0 requires nu = -2")
    m = round(weier.mu)
    if abs(weier.mu - m) > 1e-9 or m < 2:
        raise DomainError("mu + nu >= 0 requires integer mu >= 2")
    return "horospherical"


# -- geometry ---------------------------------------------------------------

@dataclass(frozen=True)
class HPoint:
    """A point (zeta, w) of the upper half-space, w > 0 strictly."""

    zeta: complex
    w: float

    def __post_init__(self):
        if not self.w > 0:
            raise DomainError("half-space point needs w > 0, got w=%r" % (self.w,))
        object.__setattr__(self, "zeta", complex(self.zeta))
        object.__setattr__(self, "w", float(self.w))


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at ``base``: horizontal part alpha, vertical part beta."""

    base: HPoint
    alpha: complex
    beta: float


def point_to_hermitian(pt: HPoint):
    """The unit-determinant Hermitian matrix of a half-space point."""
    z, w = pt.zeta, pt.w
    return ((1.0 / w, z.conjugate() / w),
            (z / w, (abs(z) ** 2 + w * w) / w))


def hermitian_to_point(n11: complex, n21: complex) -> HPoint:
    """Inverse of :func:`point_to_hermitian` (only two entries are needed)."""
    w = 1.0 / n11.real
    return HPoint(n21 * w, w)


def isometry_product(p: IsometrySL2, q: IsometrySL2) -> IsometrySL2:
    """The matrix product P Q: the isometry of Q followed by that of P."""
    return IsometrySL2(p.alpha * q.alpha + p.beta * q.gamma,
                       p.alpha * q.beta + p.beta * q.delta,
                       p.gamma * q.alpha + p.delta * q.gamma,
                       p.gamma * q.beta + p.delta * q.delta)


def apply_isometry(p: IsometrySL2, pt: HPoint) -> HPoint:
    """Image of a half-space point under N -> P N P*."""
    (n11, n12), (n21, n22) = point_to_hermitian(pt)
    a, b, c, d = p.alpha, p.beta, p.gamma, p.delta
    # Rows of P N, then columns against P* = conj(P)^T.
    m11 = a * n11 + b * n21
    m12 = a * n12 + b * n22
    m21 = c * n11 + d * n21
    m22 = c * n12 + d * n22
    k11 = m11 * a.conjugate() + m12 * b.conjugate()
    k21 = m21 * a.conjugate() + m22 * b.conjugate()
    return hermitian_to_point(k11, k21)


def metric_inner(x1: TangentVector, x2: TangentVector) -> float:
    """Hyperbolic inner product (Re(conj(a1) a2) + b1 b2) / w^2."""
    p1, p2 = x1.base, x2.base
    if abs(p1.zeta - p2.zeta) > 1e-12 or abs(p1.w - p2.w) > 1e-12:
        raise DomainError("metric_inner needs vectors at the same base point")
    w = p1.w
    return ((x1.alpha.conjugate() * x2.alpha).real + x1.beta * x2.beta) / (w * w)


def distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance in the half-space model."""
    num = abs(p.zeta - q.zeta) ** 2 + (p.w - q.w) ** 2
    return math.acosh(1.0 + num / (2.0 * p.w * q.w))


# -- Killing fields ---------------------------------------------------------

def _components(kind, geod, zeta, w, potential):
    """Vectorized (alpha, beta) of the field or its potential at (zeta, w)."""
    c, d = geod.start, geod.end
    if is_inf(c):
        a, b = _components(kind, Geodesic(d, c), zeta, w, potential)
        return -a, -b
    if is_inf(d):
        z1 = complex(c)
        if kind == TRANSLATION:
            if potential:
                return 0.5j * (zeta - z1), np.zeros_like(w)
            return zeta - z1, w
        if potential:
            return -0.5 * (zeta - z1), np.zeros_like(w)
        return 1j * (zeta - z1), np.zeros_like(w)
    z0 = complex(c) - complex(d)
    z1 = complex(d)
    s = zeta - z1
    ratio = s / z0
    if kind == TRANSLATION:
        if potential:
            return (1j * w * w / np.conj(z0) * np.log(w)
                    + 0.5j * s * ratio - 0.5j * s), np.zeros_like(w)
        return (-w * w / np.conj(z0) + s * ratio - s,
                2.0 * w * np.real(ratio) - w)
    if potential:
        return (w * w / np.conj(z0) * np.log(w)
                - 0.5 * s * ratio + 0.5 * s), np.zeros_like(w)
    return (1j * w * w / np.conj(z0) + 1j * s * ratio - 1j * s,
            -2.0 * w * np.imag(ratio))


def vector_samples(k: KillingField, zeta: np.ndarray, w: np.ndarray):
    """Y at arrays of half-space points; returns (horizontal, vertical)."""
    return _components(k.kind, k.geodesic, zeta, w, potential=False)


def potential_samples(k: KillingField, zeta: np.ndarray, w: np.ndarray):
    """Z at arrays of half-space points; returns (horizontal, vertical)."""
    return _components(k.kind, k.geodesic, zeta, w, potential=True)


def killing_vector(k: KillingField, p: HPoint) -> TangentVector:
    a, b = _components(k.kind, k.geodesic, np.asarray(p.zeta), np.asarray(p.w), False)
    return TangentVector(p, complex(a), float(b))


def killing_potential(k: KillingField, p: HPoint) -> TangentVector:
    a, b = _components(k.kind, k.geodesic, np.asarray(p.zeta), np.asarray(p.w), True)
    return TangentVector(p, complex(a), float(b))


Box = Tuple[Tuple[float, float], Tuple[float, float], Tuple[float, float]]


def verify_potential(k: KillingField, box: Box, n: int,
                     potential=potential_samples) -> float:
    """Max defect of d(beta) = i_Y(alpha) over an n^3 grid in ``box``.

    beta is the metric-dual 1-form of the potential Z, alpha the volume
    form.  Derivatives are central finite differences, so the returned
    defect shrinks like O(h^2) for a correct potential.
    """
    (u0, u1), (v0, v1), (w0, w1) = box
    if not w0 > 0:
        raise DomainError("verification box must lie strictly inside w > 0")
    us = np.linspace(u0, u1, n)
    vs = np.linspace(v0, v1, n)
    ws = np.linspace(w0, w1, n)
    hu, hv, hw = us[1] - us[0], vs[1] - vs[0], ws[1] - ws[0]
    U, V, W = np.meshgrid(us, vs, ws, indexing="ij")
    Z = U + 1j * V

    za, zb = potential(k, Z, W)
    # beta components (dual 1-form of Z in the hyperbolic metric).
    bu = np.real(za) / W ** 2
    bv = np.imag(za) / W ** 2
    bw = zb / W ** 2

    ya, yb = vector_samples(k, Z, W)
    yu, yv, yw = np.real(ya), np.imag(ya), yb

    def d(arr, axis, h):
        out = np.gradient(arr, h, axis=axis, edge_order=2)
        return out

    # d(beta) components against i_Y alpha with alpha = w^-3 du dv dw:
    #   du^dv: Yw / w^3,  du^dw: -Yv / w^3,  dv^dw: Yu / w^3.
    duv = d(bv, 0, hu) - d(bu, 1, hv) - yw / W ** 3
    duw = d(bw, 0, hu) - d(bu, 2, hw) + yv / W ** 3
    dvw = d(bw, 1, hv) - d(bv, 2, hw) - yu / W ** 3
    interior = (slice(1, -1),) * 3
    return float(max(np.max(np.abs(duv[interior])),
                     np.max(np.abs(duw[interior])),
                     np.max(np.abs(dvw[interior]))))


def per_field_flux(immersion, rho, k):
    """Trapezoid quadrature of -rho<d_rho X, Y> + 2<d_tau X, Z> over the
    circle |z| = rho, with the field Y and its potential Z sampled at every
    node, from the samples (zeta, w, (d_rho zeta, d_rho w, d_tau zeta,
    d_tau w)) that flux._immersion_derivatives forms."""
    zeta, w, (dzeta_drho, dw_drho, dzeta_dtau, dw_dtau) = immersion
    ya, yb = vector_samples(k, zeta, w)
    za, zb = potential_samples(k, zeta, w)
    inner_rho = (np.real(np.conj(dzeta_drho) * ya)
                 + dw_drho * yb) / w ** 2
    inner_tau = (np.real(np.conj(dzeta_dtau) * za)
                 + dw_dtau * zb) / w ** 2
    integrand = -rho * inner_rho + 2.0 * inner_tau
    return float(np.sum(integrand) * (2.0 * math.pi / len(integrand)))
