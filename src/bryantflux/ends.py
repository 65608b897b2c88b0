"""Construction and classification of surface ends.

Ends come in three kinds.  Catenoidal ends have Weierstrass exponents
with mu + nu = -1 and carry a growth 1 - mu and an axis (a pair of
boundary points).  Horospherical ends have nu = -2 and integer mu >= 2
and carry a single boundary point plus a coefficient kappa.  The
horosphere itself is a separate exact frame.

Frames are built from Bryant's representation
F^-1 dF = (g, -g^2; 1, -g) omega, g = z^mu, omega = z^s h dz.  One
Frobenius solve of X' = z^s h P, P' = mu z^(mu-1) X, for a first-column
entry X and P = B + gA (or D + gC), gives A and C: its recurrence never
divides by h, and P carries a constant at the horospherical lower root.
The indicial roots differ by a positive integer; for admissible data the
resonance obstruction vanishes and the lower-root solutions form the
line lower + t * upper (t free) instead of needing a logarithm.  The
second column follows term by term from dB = -g dA and dD = -g dC.  A
nonzero obstruction is a LogTermRequiredError: the coefficient data
violates the admissibility constraints, not that the solver gave up.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .bryant import (BryantFrame, WeierstrassData, checked_frame,
                     transform_frame)
from .errors import ConsistencyError, DomainError, LogTermRequiredError
from .geometry import (INF, ExtendedComplex, boundary_eq, is_inf,
                       parse_axis, parse_complex, parse_point, parse_real,
                       standardizing_isometry)
from .series import (DEFAULT_ORDER, GeneralizedSeries, differentiate,
                     radius_estimate)

_MU_ONE_TOL = 1e-8


# -- end descriptors --------------------------------------------------------

@dataclass(frozen=True)
class Catenoidal:
    """A catenoidal end: growth 1 - mu, axis from ``axis_from`` to ``boundary``."""

    mu: float
    axis_from: ExtendedComplex
    boundary: ExtendedComplex

    def __post_init__(self):
        if not self.mu > 0:
            raise DomainError("catenoidal end needs mu > 0")
        if abs(self.mu - 1.0) <= _MU_ONE_TOL:
            raise DomainError("mu = 1 has growth zero (horosphere limit), "
                              "not a catenoidal end")
        if boundary_eq(self.axis_from, self.boundary):
            raise DomainError("axis endpoints of a catenoidal end are distinct")

    @property
    def growth(self) -> float:
        return 1.0 - self.mu


@dataclass(frozen=True)
class Horospherical:
    """A horospherical end at ``boundary`` with flux coefficient kappa."""

    boundary: ExtendedComplex
    kappa: complex


@dataclass(frozen=True)
class Horosphere:
    """The totally umbilic horosphere; all its fluxes vanish."""


EndDescriptor = Union[Catenoidal, Horospherical, Horosphere]


# -- Frobenius machinery ----------------------------------------------------

@dataclass(frozen=True)
class FrobeniusProblem:
    """The entry ODE X'' - (q'/q) X' - mu h z^m X = 0 with q = z^s h, as
    the first-order system X' = q P, P' = mu z^(m-s) X in P = X'/q.

    ``coupling`` is the exponent m (m = -2 for catenoidal columns, where
    the coupling term joins the indicial equation; m = mu - 3 for
    horospherical columns).
    """

    s: float
    coupling: int
    mu: float
    h: GeneralizedSeries
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.h.offset != 0.0 or abs(self.h.coeffs[0]) == 0.0:
            raise DomainError("ODE coefficient h must be holomorphic with h(0) != 0")
        if self.coupling < -2:
            raise DomainError("coupling exponent below -2 is an irregular "
                              "singularity, out of scope")

    @property
    def indicial_roots(self) -> Tuple[float, float]:
        """(sigma1, sigma2) with sigma1 < sigma2, sigma2 - sigma1 a positive integer."""
        c0 = self.mu * complex(self.h.coeffs[0]) if self.coupling == -2 else 0.0
        b = 1.0 + self.s
        disc = cmath.sqrt(b * b + 4.0 * c0)
        r1, r2 = (b - disc) / 2.0, (b + disc) / 2.0
        if abs(r1.imag) > 1e-9 or abs(r2.imag) > 1e-9:
            raise DomainError("indicial roots are not real for this data")
        lo, hi = sorted((r1.real, r2.real))
        gap = hi - lo
        if abs(gap - round(gap)) > 1e-9 or round(gap) < 1:
            raise DomainError("indicial roots must differ by a positive integer "
                              "(got gap %g)" % gap)
        return lo, hi


def _solve_at_root(prob: FrobeniusProblem, sigma: float,
                   gap: Optional[int]) -> GeneralizedSeries:
    """Run the recurrence of X' = q P, P' = mu z^(m-s) X at one root.

    With X = sum x_k z^(sigma+k), P = sum p_k z^(k-kc), kc = s + 1 - sigma
    and d = m + 2: (sigma + k) x_k = sum_n h_n p_(k-n) and
    (k - kc) p_k = mu x_(k-d); for d = 0 h_0 p_k joins the left side.
    p_kc is P's constant, fixed by the first equation with x_kc = 0 past
    k = 0; P needs a log unless x_(kc-d) = 0.  ``gap`` is the resonance
    order at the lower root, where x_gap is free and set to 0, else None.
    """
    lo, hi = prob.indicial_roots
    d, K, mu = prob.coupling + 2, prob.order, prob.mu
    kc, h0 = prob.s + 1.0 - sigma, complex(prob.h.coeffs[0])
    hn = [(n, complex(c)) for n, c in enumerate(prob.h.coeffs[1:K + 1], 1) if c]
    x, p = [1.0 + 0j] + [0j] * K, [0j] * (K + 1)
    for k in range(K + 1):
        e = k - kc
        rhs = 0
        for n, c in hn:  # hn ascends in n
            if n > k:
                break
            rhs += c * p[k - n]
        if abs(e) < 1e-9:
            obstruction = mu * x[k - d] if k >= d else 0.0
            p[k] = ((sigma + k) * x[k] - rhs) / h0
        else:
            p[k] = mu * x[k - d] / e if k >= d > 0 else 0.0
            rhs += h0 * p[k]
            obstruction = rhs if k == gap else 0.0
            if 0 < k != gap:
                x[k] = rhs / ((sigma + k - lo) * (sigma + k - hi) / e
                              if d == 0 else sigma + k)
            if d == 0:
                p[k] = mu * x[k] / e
        if obstruction and abs(obstruction) > 1e-9 * max([1.0, *map(abs, x[:k])]):
            raise LogTermRequiredError(
                "resonance obstruction %.3e at order %d: the data admits "
                "no pure power-series solution" % (abs(obstruction), k))
    return GeneralizedSeries(sigma, np.array(x))


def frobenius_solve(prob: FrobeniusProblem):
    """Both basis solutions, as (lower-root series, upper-root series), of
    X' = q P, P' = mu z^(m-s) X; P = X'/q carries the constant sigma / h(0)
    when X' starts at z^s, as at the horospherical lower root.

    Both have unit leading coefficient.  The upper-root solution is
    unique.  The lower-root one has coefficient 0 at the resonance order
    (the root gap); the recurrence is linear and that coefficient is
    free, so every lower-root solution is ``small + t * big``, the sum
    placing big at the gap, with t its coefficient there.
    """
    lo, hi = prob.indicial_roots
    return _solve_at_root(prob, lo, round(hi - lo)), _solve_at_root(prob, hi, None)


def ode_residual(prob: FrobeniusProblem, sol: GeneralizedSeries) -> float:
    """Max coefficient of X'' - (q'/q)X' - mu h z^m X for a candidate X."""
    h = prob.h.pad_to(prob.order)
    xp = differentiate(sol)
    xpp = differentiate(xp)
    term_s = GeneralizedSeries(xp.offset - 1.0, prob.s * xp.coeffs)
    term_p = (differentiate(h) / h) * xp
    term_c = prob.mu * (GeneralizedSeries(float(prob.coupling), h.coeffs) * sol)
    r = xpp - term_s - term_p - term_c
    # The top two coefficients lie beyond the recurrence window.
    return float(np.max(np.abs(r.coeffs[:-2] if r.order >= 2 else r.coeffs)))


# -- catenoidal construction ------------------------------------------------

def _catenoidal_offsets(mu: float):
    lam1, lam2 = (-1.0 - mu) / 2.0, (1.0 - mu) / 2.0
    r1, r2 = (mu - 1.0) / 2.0, (mu + 1.0) / 2.0
    return lam1, lam2, r1, r2


def catenoid_cousin_frame(mu: float, order: int = DEFAULT_ORDER) -> BryantFrame:
    """Exact rotational frame: all four entries are single powers of z."""
    if not mu > 0:
        raise DomainError("catenoid cousin needs mu > 0")
    if abs(mu - 1.0) <= _MU_ONE_TOL:
        raise DomainError("mu = 1 is the horosphere limit, not a catenoid cousin")
    lam1, lam2, r1, r2 = _catenoidal_offsets(mu)
    return BryantFrame(
        A=GeneralizedSeries.monomial(lam2, 1.0, order),
        B=GeneralizedSeries.monomial(r2, (mu - 1.0) / (mu + 1.0), order),
        C=GeneralizedSeries.monomial(lam1, (mu * mu - 1.0) / (4.0 * mu), order),
        D=GeneralizedSeries.monomial(r1, (1.0 + mu) ** 2 / (4.0 * mu), order),
        validity_radius=math.inf,
    )


def _validity_from_entries(entries) -> float:
    r = math.inf
    for e in entries:
        est = radius_estimate(e)
        if est < r:
            r = est
    return r if math.isinf(r) else 0.5 * r


def _paired(E: GeneralizedSeries, mu: float) -> GeneralizedSeries:
    """The second-column partner X of a first-column entry E: dX = -z^mu dE,
    integrated term by term with no constant (e + mu != 0 for every
    exponent e of admissible data)."""
    e = E.offset + np.arange(E.order + 1)
    return GeneralizedSeries(E.offset + mu, -e / (e + mu) * E.coeffs)


def _check_finite(what: str, *series: GeneralizedSeries):
    """DomainError naming the overflow when a coefficient is not finite."""
    if not all(np.isfinite(s.coeffs).all() for s in series):
        raise DomainError("%s overflows: its coefficients are not finite"
                          % what)


def _end_frame(A, B, C, D, nu: float, h: GeneralizedSeries) -> BryantFrame:
    """The frame (A, B; C, D) once it passes checked_frame and A dC - C dA
    reproduces the one-form z^nu h dz; DomainError when an entry
    overflows, ConsistencyError otherwise."""
    _check_finite("the frame", A, B, C, D)
    frame = checked_frame(BryantFrame(
        A, B, C, D, validity_radius=_validity_from_entries((A, B, C, D))))
    diff = A * differentiate(C) - C * differentiate(A) \
        - GeneralizedSeries(nu, h.coeffs)
    defect = float(np.max(np.abs(diff.coeffs[:max(diff.order, 1)])))
    if defect > 1e-8:
        raise ConsistencyError(
            "frame violates omega = A dC - C dA (defect %.3e)" % defect)
    return frame


def canonical_catenoidal_frame(mu: float, h: GeneralizedSeries,
                               axis_param: complex,
                               order: int = DEFAULT_ORDER) -> BryantFrame:
    """Frame of the catenoidal end with axis (axis_param, infinity).

    Requires h(0) = (1 - mu^2)/(4 mu) and h'(0) = 0.  One Frobenius
    solve of the first-column ODE gives (f1, f2): A = f2, and the axis
    fixes C's lower-root solution f1 + zres f2.  B and D are the paired
    column of A and C.
    """
    if not mu > 0 or abs(mu - 1.0) <= _MU_ONE_TOL:
        raise DomainError("catenoidal construction needs mu > 0, mu != 1")
    h0_target = (1.0 - mu * mu) / (4.0 * mu)
    if abs(complex(h.coeffs[0]) - h0_target) > 1e-10:
        raise DomainError(
            "h(0) must equal (1-mu^2)/(4mu) = %g for a catenoidal end" % h0_target)
    h1 = complex(h.coeffs[1]) if h.order >= 1 else 0.0
    if abs(h1) > 1e-10:
        raise DomainError("catenoidal data requires h'(0) = 0")
    zres = 4.0 * mu * complex(axis_param) / (mu * mu - 1.0)

    f1, f2 = frobenius_solve(FrobeniusProblem(
        s=-1.0 - mu, coupling=-2, mu=mu, h=h, order=order))
    A = f2
    C = ((mu * mu - 1.0) / (4.0 * mu)) * (f1 + zres * f2)
    return _end_frame(A, _paired(A, mu), C, _paired(C, mu), -1.0 - mu, h)


# -- horospherical construction ---------------------------------------------

def canonical_horospherical_frame(mu, h: GeneralizedSeries,
                                  order: int = DEFAULT_ORDER) -> BryantFrame:
    """Frame of the horospherical end with boundary at infinity.

    mu is an integer >= 2.  The compatibility constraint on h is
    h'(0) = 2 h(0)^2 when mu = 2 and h'(0) = 0 when mu >= 3; it is
    exactly the condition killing the resonance obstruction of the
    first-column ODE.  One Frobenius solve of that ODE gives (f1, f2):
    A = f2 and C = -h(0) f1.  B and D are the paired column of A and C,
    D with the constant D(0) = 1/A(0) = 1 that unit determinant needs.
    """
    m = round(float(mu))
    if abs(float(mu) - m) > 1e-9 or m < 2:
        raise DomainError("horospherical construction needs integer mu >= 2")
    h0 = complex(h.coeffs[0])
    h1 = complex(h.coeffs[1]) if h.order >= 1 else 0.0
    if m == 2:
        h0sq = h0 * h0
        if not cmath.isfinite(h0sq):
            raise DomainError("mu = 2 requires h'(0) = 2 h(0)^2, which "
                              "overflows")
        if abs(h1 - 2.0 * h0sq) > 1e-10 * max(1.0, abs(h0sq)):
            raise DomainError("mu = 2 requires h'(0) = 2 h(0)^2")
    elif abs(h1) > 1e-10:
        raise DomainError("mu >= 3 requires h'(0) = 0")
    c = -h0

    f1, f2 = frobenius_solve(FrobeniusProblem(
        s=-2.0, coupling=m - 3, mu=float(m), h=h, order=order))
    A = f2
    C = c * f1
    B = _paired(A, m)
    D = GeneralizedSeries.constant(1.0, order) + _paired(C, m)
    return _end_frame(A, B, C, D, -2.0, h)


def horosphere_frame(order: int = DEFAULT_ORDER) -> BryantFrame:
    """The exact frame [[1, 0], [z^-1, 1]]; immersion (1/z, 1)."""
    return BryantFrame(
        A=GeneralizedSeries.monomial(0.0, 1.0, order),
        B=GeneralizedSeries.zero(0.0, order),
        C=GeneralizedSeries.monomial(-1.0, 1.0, order),
        D=GeneralizedSeries.monomial(0.0, 1.0, order),
        validity_radius=math.inf,
    )


# -- axis extraction and classification -------------------------------------

def extract_axis(frame: BryantFrame):
    """(axis_from, boundary) of a catenoidal-shaped frame.

    Writing the first column as (z^lam1 a(z), z^lam1 c(z)) with a, c
    holomorphic, the axis is (c'(0)/a'(0), c(0)/a(0)); a vanishing
    denominator gives the point at infinity.
    """
    a_ser = frame.A.normalized()
    c_ser = frame.C.normalized()
    lam1 = min(a_ser.offset, c_ser.offset)
    ka = round(a_ser.offset - lam1)
    kc = round(c_ser.offset - lam1)

    def first_two(ser, k):
        vals = [0.0 + 0.0j, 0.0 + 0.0j]
        for i in (0, 1):
            j = i - k
            if 0 <= j <= ser.order:
                vals[i] = complex(ser.coeffs[j])
        return vals

    a0, a1 = first_two(a_ser, ka)
    c0, c1 = first_two(c_ser, kc)
    scale = max(abs(a0), abs(a1), abs(c0), abs(c1))
    if scale < 1e-13:
        raise DomainError("degenerate frame: both a and c vanish to order 2")
    tol = 1e-12 * max(1.0, scale)
    axis_from = INF if abs(a1) <= tol else c1 / a1
    boundary = INF if abs(a0) <= tol else c0 / a0
    return axis_from, boundary


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


# -- end-spec assembly -------------------------------------------------------

def _perturbed_h(h0: complex, perturbation, order: int) -> GeneralizedSeries:
    """h(z) = h0 (1 + sum_k p_k z^k), p given from the z^1 coefficient up."""
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = 1.0
    for k, p in enumerate(perturbation, start=1):
        if k > order:
            break
        coeffs[k] = p
    h = GeneralizedSeries(0.0, h0 * coeffs)
    _check_finite("h", h)
    return h


@np.errstate(over="ignore", invalid="ignore")
def build_end(spec: Mapping, order: int = DEFAULT_ORDER):
    """(frame, descriptor) from an end-spec mapping (the JSON interface).

    Catenoidal specs carry "mu", "axis": [A, B] and an optional
    "h_perturbation" (coefficients p_k of h = h(0)(1 + sum p_k z^k),
    starting at z^1); h(0) is forced by mu.  Horospherical specs carry
    "mu", "boundary" and optionally "h0" (default 1) plus the same
    perturbation convention.  An optional "order" overrides ``order``;
    the order used is an integer >= 1.  Points, coefficients and mu are
    read by :func:`parse_point`, :func:`parse_complex` and
    :func:`parse_real`.  The constraint on the z^1 coefficient is
    the caller's responsibility and violations are rejected.
    """
    if not isinstance(spec, Mapping):
        raise DomainError("an end spec is a JSON object, not %s"
                          % type(spec).__name__)
    kind = spec.get("type")
    order = spec.get("order", order)
    if parse_real(order) < 1 or order != int(order):
        raise DomainError("order must be an integer >= 1, got %r" % (order,))
    order = int(order)
    pert = spec.get("h_perturbation", [])
    if not isinstance(pert, (list, tuple)):
        raise DomainError("h_perturbation is a list of coefficients")
    pert = [parse_complex(p) for p in pert]
    if kind == "catenoidal":
        mu = parse_real(spec["mu"])
        a, b = parse_axis(spec["axis"])
        if boundary_eq(a, b):
            raise DomainError("catenoidal axis endpoints must be distinct")
        h = _perturbed_h((1.0 - mu * mu) / (4.0 * mu), pert, order)
        if is_inf(b):
            frame = canonical_catenoidal_frame(mu, h, complex(a), order=order)
        else:
            base = canonical_catenoidal_frame(mu, h, 0.0, order=order)
            p = standardizing_isometry(a, b).inverse()
            frame = transform_frame(p, base)
        return frame, Catenoidal(mu, a, b)
    if kind == "horospherical":
        mu = parse_real(spec["mu"])
        b = parse_point(spec["boundary"])
        h0 = parse_complex(spec.get("h0", 1.0))
        frame = canonical_horospherical_frame(
            mu, _perturbed_h(h0, pert, order), order=order)
        if not is_inf(b):
            # move the boundary from infinity to b; any second anchor works
            aux = complex(b) + 1.0
            p = standardizing_isometry(aux, b).inverse()
            frame = transform_frame(p, frame)
        # kappa = (mu h(0))^2 at mu = 2; the Hopf differential is
        # holomorphic at mu >= 3, where kappa = 0.
        kappa = 4.0 * h0 * h0 if round(mu) == 2 else 0j
        return frame, Horospherical(b, kappa)
    if kind == "horosphere":
        return horosphere_frame(order), Horosphere()
    raise DomainError("unknown end type %r" % (kind,))
