"""Construction of surface ends.

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
FrobeniusProblem accepts only the two first columns that ends have,
catenoidal (s = -1 - mu) and horospherical (s = -2, integer mu >= 2),
and checks their data once.  On both the indicial roots differ by 1,
and both are read from mu alone: (-1, 0) horospherical and
((-1 - mu)/2, (1 - mu)/2) catenoidal, the roots of the column whose
h(0) is exactly (1 - mu^2)/(4 mu).  The index of P's constant never
reaches an order k >= 1, so that constant is set before the recurrence
runs.  For admissible data the resonance obstruction at the gap
vanishes and the lower-root solutions form the line lower + t * upper
(t free) instead of needing a logarithm.  The second column follows
term by term from dB = -g dA and dD = -g dC.  An obstruction past
1e-9 / max(1, |h(0)|), the bar 1e-9 on the scale of C = -h(0) f1, is a
LogTermRequiredError: the coefficient data violates the admissibility
constraints, not that the solver gave up.  The obstruction is logged at
DEBUG whether or not it is refused.

A catenoidal column whose h has a single term past h(0),
h = h(0)(1 + p_n z^n) with n >= 2, is a generalized hypergeometric
series in z^n: its term ratio is rational in k (DLMF 16.2), so the solve
is one cumulative product of those ratios, for both roots at once.  The
branch is read from the data; every other column runs the recurrence
term by term at each root.

Every end is built at its standard position: the catenoidal axis
(0, infinity), the horospherical boundary infinity.  An embedded end
asymptotic to a catenoid cousin has an axis, so every catenoidal end is
the image of a standard one under an isometry, and so is every
horospherical end; build_end places the built end by that one
isometry, and its flux moves covariantly.

build_end runs three public steps.  canonical_catenoidal_frame or
canonical_horospherical_frame makes the standard frame: one
frobenius_solve gives both roots' coefficients as the rows of one
array, the paired column follows row-wise, the four entries as solved
give the validity radius in one root test, and their columns are
aligned straight from the bare rows (bryant._columns, no series for an
entry), which checked_frame then checks: finite, and then against
AD - BC = 1, dA dD - dB dC = 0 and A dC - C dA = omega.  Then
transform_frame places that frame, coefficient by coefficient: not at
all at the standard position, once for a general axis or boundary
point, and twice, by P's two exact factors, for a boundary point of
modulus >= 2^52; a placed frame is checked finite once, after its last
placement.
"""

from __future__ import annotations

import cmath
import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .bryant import (BryantFrame, _check_finite, _columns, checked_frame,
                     transform_frame)
from .errors import DomainError, LogTermRequiredError
from .geometry import (INF, ExtendedComplex, IsometrySL2, boundary_eq,
                       is_inf, parse_axis, parse_complex, parse_point,
                       parse_real, standardizing_isometry)
from .series import DEFAULT_ORDER, GeneralizedSeries, _snap

_MU_ONE_TOL = 1e-8
# A coefficient of a frame's first column counts for its axis from this
# modulus on (extract_axis).
_LEAD_TOL = 1e-13
# Horospherical boundary points from this modulus on are placed without
# forming the anchor b + 1, which rounds near 2^53 (build_end).
_FAR_BOUNDARY = 2.0 ** 52

log = logging.getLogger("bryantflux")


# -- end descriptors --------------------------------------------------------

def _check_catenoidal_mu(mu: float):
    """DomainError unless mu > 0 and mu != 1, where the growth 1 - mu is
    zero (the horosphere limit)."""
    if not mu > 0 or abs(mu - 1.0) <= _MU_ONE_TOL:
        raise DomainError("a catenoidal end needs mu > 0 and mu != 1, got %r"
                          % mu)


@dataclass(frozen=True)
class Catenoidal:
    """A catenoidal end: growth 1 - mu, axis from ``axis_from`` to ``boundary``."""

    mu: float
    axis_from: ExtendedComplex
    boundary: ExtendedComplex

    def __post_init__(self):
        _check_catenoidal_mu(self.mu)
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

class FrobeniusProblem:
    """The first column X' = q P, P' = mu z^(mu-1) X, q = z^s h, of an
    end's frame, the system of the entry ODE X'' - (q'/q) X' -
    mu h z^(d-2) X = 0 in P = X'/q, with d = s + mu + 1.

    Two columns are accepted, each checked here once: a catenoidal one,
    s = -1 - mu (d = 0) with mu > 0, mu != 1 and h(0) within
    1e-10 max(1, |t|) of t = (1 - mu^2)/(4 mu), a bar on t's own scale
    (|t| grows as 1/(4 mu) at small mu), and a horospherical one,
    s = -2 (d = mu - 1) with mu an integer >= 2 within 1e-9, stored as
    that integer.  Any other (s, mu) is a DomainError.  h is holomorphic
    with h(0) != 0.  The indicial roots are read from mu alone
    (indicial_roots).  A mu whose two rounded roots are not 1 apart
    within 1e-9 is a DomainError: every mu from about 2^53 on, and from
    about 2^23 a mu just under a power of two, where 1 + mu rounds by
    more than that.  Problems compare and hash by identity.
    """

    __slots__ = ("s", "mu", "h", "order")

    def __init__(self, s: float, mu: float, h: GeneralizedSeries,
                 order: int = DEFAULT_ORDER):
        if s == -1.0 - mu:
            _check_catenoidal_mu(mu)
            h0 = complex(h.coeffs[0])
            target = (1.0 - mu * mu) / (4.0 * mu)
            if abs(h0 - target) > 1e-10 * max(1.0, abs(target)):
                raise DomainError("h(0) must equal (1-mu^2)/(4mu) = %g for a "
                                  "catenoidal end" % target)
        elif s == -2.0:
            m = round(float(mu))
            if abs(float(mu) - m) > 1e-9 or m < 2:
                raise DomainError("horospherical construction needs integer mu >= 2")
            mu = float(m)
        else:
            raise DomainError("s = %g, mu = %g: no end's column" % (s, mu))
        self.s, self.mu, self.h, self.order = s, mu, h, order
        # the horospherical roots (-1, 0) are exactly 1 apart
        lo, hi = self.indicial_roots
        if abs(hi - lo - 1.0) > 1e-9:
            raise DomainError("mu = %g rounds the indicial roots" % mu)
        if h.offset != 0.0 or abs(h.coeffs[0]) == 0.0:
            raise DomainError("ODE coefficient h must be holomorphic with h(0) != 0")

    @property
    def d(self) -> int:
        """s + mu + 1, the shift in (k - kc) p_k = mu x_(k-d): 0 on a
        catenoidal column, mu - 1 on a horospherical one."""
        return int(self.mu) - 1 if self.s == -2.0 else 0

    @property
    def indicial_roots(self) -> Tuple[float, float]:
        """(sigma1, sigma2) with sigma2 = sigma1 + 1: (-1, 0) horospherical,
        ((-1 - mu)/2, (1 - mu)/2) catenoidal, each correctly rounded and
        read from mu alone: the column solved is the one whose h(0) is
        exactly (1 - mu^2)/(4 mu)."""
        mu = self.mu
        if self.d:
            return -1.0, 0.0
        return (-1.0 - mu) / 2.0, (1.0 - mu) / 2.0


def _check_obstruction(prob: FrobeniusProblem, obstruction) -> None:
    """Log the resonance obstruction at the root gap, order 1;
    LogTermRequiredError when it exceeds 1e-9 / max(1, |h(0)|), the bar
    1e-9 on the scale of C = -h(0) f1, which carries the lower-root
    solution f1 (unit leading coefficient) times h(0), so that an
    obstruction C would carry past 1e-9 is refused: at small catenoidal
    mu, |h(0)| is about 1/(4 mu).  The bar is 1e-9 wherever
    |h(0)| <= 1."""
    bar = 1e-9 / max(1.0, abs(prob.h.coeffs[0]))
    log.debug("resonance obstruction %.3e at order %d (bar %.3e)",
              abs(obstruction), 1, bar)
    if abs(obstruction) > bar:
        raise LogTermRequiredError(
            "resonance obstruction %.3e at order 1: the data admits "
            "no pure power-series solution" % abs(obstruction))


@np.errstate(over="ignore", invalid="ignore")
def _product_rows(prob: FrobeniusProblem, lo: float, hi: float,
                  hn) -> np.ndarray:
    """X of a catenoidal column whose h has no term past h_0 or one term
    h_n, n >= 2, at both roots, as the rows of one (2, K + 1) array;
    ``hn`` is as in _solve_at_root.

    The recurrence of _solve_at_root then couples only k and k - n:
    x_k = r_k x_(k-n) with r_k = mu h_n e_k / ((sigma + k - lo)
    (sigma + k - hi) e_(k-n)) and e_k = k - kc, a term ratio rational in
    k (the series is hypergeometric in z^n).  So the class k = 0 mod n is
    one cumulative product, taken for both roots at once, and every other
    class is 0; each row is bitwise the product of its root alone.  The
    gap, k = 1, is off the class, so x is 0 there at the lower root, as
    in the loop, and the obstruction there is 0.  Overflow is left as inf
    or nan for the frame's finiteness check.
    """
    K, mu = prob.order, prob.mu
    n, c = hn[0] if hn else (K + 1, 0j)
    x = np.zeros((2, K + 1), dtype=complex)
    x[:, 0] = 1.0
    if K >= 1:
        _check_obstruction(prob, 0.0)
    sigma = (lo, hi)
    kc = [prob.s + 1.0 - y for y in sigma]
    # k - kc, k + (sigma - lo), k + (sigma - hi) and k - (n + kc) at each
    # root, as the row of k plus one column of shifts per factor and root
    # (k - y is k + -y, bitwise).
    t = np.arange(n, K + 1, n, dtype=float) + np.array((
        [-y for y in kc], [y - lo for y in sigma], [y - hi for y in sigma],
        [-(n + y) for y in kc]))[:, :, None]
    np.multiply.accumulate((mu * c) * (t[0] / (t[1] * t[2] * t[3])),
                           axis=1, out=x[:, n::n])
    return x


def _solve_at_root(prob: FrobeniusProblem, lo: float, hi: float,
                   sigma: float, gap: Optional[int], hn) -> list:
    """Run the recurrence of X' = q P, P' = mu z^(mu-1) X at one root,
    and return X's coefficients as a list.

    With X = sum x_k z^(sigma+k), P = sum p_k z^(k-kc), kc = s + 1 - sigma
    and d = prob.d: (sigma + k) x_k = sum_n h_n p_(k-n) and
    (k - kc) p_k = mu x_(k-d); for d = 0 h_0 p_k joins the left side.
    kc is (1 - mu)/2 and -(1 + mu)/2 on a catenoidal column, 0 and -1 on a
    horospherical one, so P's constant p_0 is set before the loop:
    mu / -kc catenoidal, sigma / h(0) at the horospherical lower root and
    0 at its upper root.  ``gap`` is 1 at the lower root, where x_1 is
    free and set to 0 and the obstruction is checked, else None.
    (lo, hi) are the problem's indicial roots and ``hn`` the pairs
    (n, h_n) of h's nonzero coefficients past h_0, ascending in n.
    """
    d, K, mu = prob.d, prob.order, prob.mu
    kc, h0 = prob.s + 1.0 - sigma, complex(prob.h.coeffs[0])
    x, p = [1.0 + 0j] + [0j] * K, [0j] * (K + 1)
    p[0] = mu * x[0] / -kc if d == 0 else sigma / h0 if kc == 0 else 0.0
    for k in range(1, K + 1):
        e = k - kc
        if d:
            p[k] = mu * x[k - d] / e if k >= d else 0.0
        rhs = 0
        for n, c in hn:  # hn ascends in n
            if n > k:
                break
            rhs += c * p[k - n]
        # The n = 0 term: 0 on a catenoidal column, where h_0 p_k sits in
        # x_k's divisor instead.
        rhs += h0 * p[k]
        if k == gap:
            _check_obstruction(prob, rhs)
        else:
            x[k] = rhs / ((sigma + k - lo) * (sigma + k - hi) / e
                          if d == 0 else sigma + k)
        if d == 0:
            p[k] = mu * x[k] / e
    return x


def frobenius_solve(prob: FrobeniusProblem):
    """Both basis solutions, as (lower-root series, upper-root series), of
    X' = q P, P' = mu z^(mu-1) X; P = X'/q carries the constant
    sigma / h(0) at the horospherical lower root, where X' starts at z^s.

    Both have unit leading coefficient.  The upper-root solution is
    unique.  The roots differ by 1, and the lower-root one has
    coefficient 0 at that order (the root gap); the recurrence is linear
    and that coefficient is free, so every lower-root solution is
    ``small + t * big``, the sum placing big at the gap, with t its
    coefficient there.  The obstruction at the gap is logged at DEBUG on
    the ``bryantflux`` logger.

    A catenoidal column whose h has no nonzero coefficient past h(0) up
    to the order, or one h_n with n >= 2, is solved as one cumulative
    product of term ratios over k = 0 mod n, for both roots at once; every
    other column, a lone h_1 among them, runs the recurrence term by term
    at each root.  Both give the same coefficients to round-off.  The two
    series' coefficients are the rows of one (2, K + 1) array.
    """
    lo, hi = prob.indicial_roots
    h = prob.h.coeffs[:prob.order + 1]
    n = h.nonzero()[0][1:]  # h(0) != 0, which the problem checks
    hn = list(zip(n.tolist(), h[n].tolist()))
    if prob.d == 0 and len(hn) <= 1 and (not hn or hn[0][0] >= 2):
        x = _product_rows(prob, lo, hi, hn)
    else:
        x = np.array([_solve_at_root(prob, lo, hi, lo, 1, hn),
                      _solve_at_root(prob, lo, hi, hi, None, hn)])
    return GeneralizedSeries(lo, x[0]), GeneralizedSeries(hi, x[1])


# -- catenoidal construction ------------------------------------------------

def catenoid_cousin_frame(mu: float, order: int = DEFAULT_ORDER) -> BryantFrame:
    """Exact rotational frame: all four entries are single powers of z."""
    _check_catenoidal_mu(mu)
    lam1, lam2 = (-1.0 - mu) / 2.0, (1.0 - mu) / 2.0
    r1, r2 = (mu - 1.0) / 2.0, (mu + 1.0) / 2.0
    return BryantFrame(
        A=GeneralizedSeries.monomial(lam2, 1.0, order),
        B=GeneralizedSeries.monomial(r2, (mu - 1.0) / (mu + 1.0), order),
        C=GeneralizedSeries.monomial(lam1, (mu * mu - 1.0) / (4.0 * mu), order),
        D=GeneralizedSeries.monomial(r1, (1.0 + mu) ** 2 / (4.0 * mu), order),
        validity_radius=math.inf,
    )


def _validity_from_entries(rows: np.ndarray) -> float:
    """0.5 times the least Cauchy root-test radius of the entries, given
    as the rows of one array (1 / max_k |a_k|^(1/k), k >= 1), as one root
    test over all their coefficients past the constant: the min over
    entries of 1/x is 1/(max over entries of x), bitwise.  A zero
    coefficient adds 0 to that max.  The tests' radius_estimate is the
    per-entry reference."""
    m = np.maximum.reduce(np.abs(rows[:, 1:]) ** (1.0 / np.arange(
        1, rows.shape[1], dtype=float)), axis=None, initial=0.0)
    return math.inf if m == 0 else 0.5 * float(1.0 / m)


def _solved_rows(prob: FrobeniusProblem, scale: complex):
    """(offsets, rows) of the entries A, B, C, D as solved: A = f2 and
    C = scale f1 from one Frobenius solve, and their partners B and D,
    dX = -z^mu dE integrated term by term with no constant (e + mu != 0
    for every exponent e of admissible data), as the rows of one array.
    Overflow is left as inf or nan, without warnings under the caller's
    np.errstate, for checked_frame's finiteness check."""
    small, big = frobenius_solve(prob)
    lo, hi = small.offset, big.offset
    rows = np.empty((4, prob.order + 1), dtype=complex)
    rows[0] = big.coeffs
    np.multiply(small.coeffs, scale, out=rows[2])
    # -e / (e + mu) as e / (-mu - e), bitwise: negation is exact.
    e = np.add.outer((hi, lo), np.arange(prob.order + 1))
    np.multiply(e / (-prob.mu - e), rows[0::2], out=rows[1::2])
    return [hi, _snap(hi + prob.mu), lo, _snap(lo + prob.mu)], rows


def _end_frame(offsets, rows: np.ndarray, nu: float,
               h: GeneralizedSeries) -> BryantFrame:
    """The frame of the entries A, B, C, D given as the rows of one array
    at ``offsets``, once checked_frame finds its coefficients finite and
    AD - BC = 1, dA dD - dB dC = 0 and A dC - C dA = z^nu h; DomainError
    when an entry overflows, ConsistencyError otherwise.  The columns are
    aligned from the bare rows (bryant._columns) and no series is formed
    for an entry.  The validity radius is read from the entries as
    solved, each at its own offset, before the columns are aligned: a
    padded entry's leading 0 would move the root test's powers.  Rows
    that overflow give a radius that is not positive, which no one reads:
    checked_frame refuses their frame first."""
    frame = BryantFrame.from_columns(_columns(offsets, rows),
                                     _validity_from_entries(rows))
    return checked_frame(frame, GeneralizedSeries(nu, h.coeffs))


@np.errstate(over="ignore", invalid="ignore")
def canonical_catenoidal_frame(mu: float, h: GeneralizedSeries,
                               order: int = DEFAULT_ORDER) -> BryantFrame:
    """Frame of the catenoidal end with axis (0, infinity).

    Requires h(0) = (1 - mu^2)/(4 mu), which the problem checks, and
    h'(0) = 0.  One Frobenius solve of the first-column system gives
    (f1, f2): A = f2 and C = (mu^2 - 1)/(4 mu) f1.  B and D are the
    paired column of A and C.  build_end places an end with any other
    axis by an isometry.  h'(0) is held to 1e-10 max(1, |h(0)|), on h's
    own scale, as h(0) is to its target.
    """
    prob = FrobeniusProblem(s=-1.0 - mu, mu=mu, h=h, order=order)
    h1 = complex(h.coeffs[1]) if h.order >= 1 else 0.0
    if abs(h1) > 1e-10 * max(1.0, abs(h.coeffs[0])):
        raise DomainError("catenoidal data requires h'(0) = 0")
    offsets, rows = _solved_rows(prob, (mu * mu - 1.0) / (4.0 * mu))
    return _end_frame(offsets, rows, -1.0 - mu, h)


# -- horospherical construction ---------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def canonical_horospherical_frame(mu, h: GeneralizedSeries,
                                  order: int = DEFAULT_ORDER) -> BryantFrame:
    """Frame of the horospherical end with boundary at infinity.

    mu is an integer >= 2, which the problem checks.  The compatibility
    constraint on h is h'(0) = 2 h(0)^2 when mu = 2 and h'(0) = 0 when
    mu >= 3; it is exactly the condition killing the resonance
    obstruction of the first-column system.  One Frobenius solve of that
    system gives (f1, f2): A = f2 and C = -h(0) f1.  B and D are the
    paired column of A and C, D with the constant D(0) = 1/A(0) = 1 that
    unit determinant needs.
    """
    prob = FrobeniusProblem(s=-2.0, mu=mu, h=h, order=order)
    h0 = complex(h.coeffs[0])
    h1 = complex(h.coeffs[1]) if h.order >= 1 else 0.0
    if prob.mu == 2:
        h0sq = h0 * h0
        if not cmath.isfinite(h0sq):
            raise DomainError("mu = 2 requires h'(0) = 2 h(0)^2, which "
                              "overflows")
        if abs(h1 - 2.0 * h0sq) > 1e-10 * max(1.0, abs(h0sq)):
            raise DomainError("mu = 2 requires h'(0) = 2 h(0)^2")
    elif abs(h1) > 1e-10:
        raise DomainError("mu >= 3 requires h'(0) = 0")
    offsets, rows = _solved_rows(prob, -h0)
    # D = 1 + the partner of C by the rule of series addition: the
    # partner starts at z^(mu - 1), mu - 1 >= 1, so it moves up by mu - 1
    # places to offset 0 and is cut at the order, and + 0.0 clears a
    # negative zero, as that addition's 0.0 + does.
    m = round(offsets[3])
    d = np.zeros(order + 1, dtype=complex)
    d[m:] = rows[3, :max(order + 1 - m, 0)] + 0.0
    d[0] = 1.0
    offsets[3], rows[3] = 0.0, d
    return _end_frame(offsets, rows, -2.0, h)


def horosphere_frame(order: int = DEFAULT_ORDER) -> BryantFrame:
    """The exact frame [[1, 0], [z^-1, 1]]; immersion (1/z, 1)."""
    return BryantFrame(
        A=GeneralizedSeries.monomial(0.0, 1.0, order),
        B=GeneralizedSeries.monomial(0.0, 0.0, order),
        C=GeneralizedSeries.monomial(-1.0, 1.0, order),
        D=GeneralizedSeries.monomial(0.0, 1.0, order),
        validity_radius=math.inf,
    )


# -- axis extraction --------------------------------------------------------

def extract_axis(frame: BryantFrame):
    """(axis_from, boundary) of a catenoidal-shaped frame.

    The first column is aligned (BryantFrame), so from its first power
    with a coefficient of modulus above 1e-13 it reads
    (z^lam1 a(z), z^lam1 c(z)) with a, c holomorphic; the axis is
    (c'(0)/a'(0), c(0)/a(0)), and a vanishing denominator gives the point
    at infinity.
    """
    _, A, C = frame.columns[0]
    k = int(np.argmax(np.maximum(np.abs(A), np.abs(C)) > _LEAD_TOL))
    a0, a1, c0, c1 = (complex(x[j]) if j < len(x) else 0j
                      for x in (A, C) for j in (k, k + 1))
    scale = max(abs(a0), abs(a1), abs(c0), abs(c1))
    if scale < 1e-13:
        raise DomainError("degenerate frame: both a and c vanish to order 2")
    tol = 1e-12 * max(1.0, scale)
    axis_from = INF if abs(a1) <= tol else c1 / a1
    boundary = INF if abs(a0) <= tol else c0 / a0
    return axis_from, boundary


# -- end-spec assembly -------------------------------------------------------

def _perturbed_h(h0: complex, perturbation, order: int) -> GeneralizedSeries:
    """h(z) = h0 (1 + sum_k p_k z^k), p given from the z^1 coefficient up."""
    p = perturbation[:order]
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[:len(p) + 1] = (1.0, *p)
    h = GeneralizedSeries(0.0, h0 * coeffs)
    _check_finite("h", h.coeffs)
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

    The descriptor comes first, and its constructor checks mu and the
    axis.  The frame is built at the standard position, axis (0, infinity)
    or boundary infinity, and placed by P = standardizing_isometry(anchor,
    boundary)^-1, which sends 0 to the anchor and infinity to the
    boundary; the anchor is the axis' other point, and for a
    horospherical end at a finite b it is b + 1, which fixes the scale
    that kappa is read at: P(z) = b - 1/(z - 1), so P moves the end
    from infinity to b at unit scale.  From |b| >= 2^52 on, where b + 1
    rounds, P is applied as its two exact factors, z -> 1/(1 - z) and
    then z -> z + b.  Flux moves covariantly under P.  No P is applied
    when it is the identity.  A placed frame whose coefficients overflow
    is a DomainError, as a standard one is.

    One np.errstate, entered here, leaves overflow to those checks for
    the whole build; the standard-frame steps hold their own for callers
    that call them directly.  The standard frame's coefficients are
    checked finite once, by checked_frame, and a placed frame's once,
    after its last placement: a frame left at the standard position is
    not checked again.
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
        end = Catenoidal(parse_real(spec["mu"]), *parse_axis(spec["axis"]))
        mu = end.mu
        standard = frame = canonical_catenoidal_frame(
            mu, _perturbed_h((1.0 - mu * mu) / (4.0 * mu), pert, order),
            order)
        anchor, b = end.axis_from, end.boundary
    elif kind == "horospherical":
        mu = parse_real(spec["mu"])
        b = parse_point(spec["boundary"])
        h0 = parse_complex(spec.get("h0", 1.0))
        # kappa = (mu h(0))^2 at mu = 2; the Hopf differential is
        # holomorphic at mu >= 3, where kappa = 0.
        end = Horospherical(b, 4.0 * h0 * h0 if round(mu) == 2 else 0j)
        standard = frame = canonical_horospherical_frame(
            mu, _perturbed_h(h0, pert, order), order)
        # The anchor b + 1 fixes the scale kappa is read at; 0 leaves
        # b = infinity in place.  Where b + 1 rounds, P's exact factors
        # place the end, and b = infinity then leaves it where it is.
        if not is_inf(b) and abs(b) >= _FAR_BOUNDARY:
            frame = transform_frame(IsometrySL2(1.0, -1.0, 1.0, 0.0), frame)
            frame = transform_frame(IsometrySL2(1.0, 0.0, b, 1.0), frame)
            b = INF
        anchor = 0j if is_inf(b) else complex(b) + 1.0
    elif kind == "horosphere":
        return horosphere_frame(order), Horosphere()
    else:
        raise DomainError("unknown end type %r" % (kind,))
    q = standardizing_isometry(anchor, b)
    if (q.alpha, q.beta, q.gamma, q.delta) != (1.0, 0.0, 0.0, 1.0):
        frame = transform_frame(q.inverse(), frame)
    if frame is not standard:
        (_, a, c), (_, b, d) = frame.columns
        _check_finite("the placed frame", a, c, b, d)
    return frame, end
