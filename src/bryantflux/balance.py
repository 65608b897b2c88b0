"""Balancing of multi-end configurations.

The sum of the flux polynomials over all ends of a complete n-ended
surface vanishes.  This module computes that sum for descriptor lists,
solves the rigid two-end case in closed form and the three-end axes as
one 3x3 linear system in the polynomial coefficients, checks geodesic
concurrency in a vertical plane by one cross product of the linear
trace equations, and runs the analogous force/torque balance for
Euclidean minimal three-end data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .ends import Catenoidal, EndDescriptor, Horosphere, Horospherical
from .errors import DomainError, UnbalanceableError
from .flux import FluxPolynomial, catenoidal_polynomial, \
    horospherical_polynomial
from .geometry import INF, ExtendedComplex, Geodesic, _homogeneous, \
    boundary_eq, is_inf

_TOL = 1e-9


class BalanceProblem:
    """The ends of one configuration, as a tuple.  Problems compare and
    hash by identity."""

    __slots__ = ("ends",)

    def __init__(self, ends: Sequence[EndDescriptor]):
        self.ends = tuple(ends)
        if len(self.ends) < 2:
            raise DomainError("a balance problem needs at least two ends")


def end_polynomial(end: EndDescriptor) -> FluxPolynomial:
    if isinstance(end, Catenoidal):
        return catenoidal_polynomial(1.0 - end.mu ** 2, end.axis_from,
                                     end.boundary)
    if isinstance(end, Horospherical):
        return horospherical_polynomial(end.kappa, end.boundary)
    if isinstance(end, Horosphere):
        return FluxPolynomial(0.0, 0.0, 0.0)
    raise DomainError("unknown end descriptor %r" % (end,))


def polynomial_sum(problem: BalanceProblem) -> FluxPolynomial:
    total = FluxPolynomial(0.0, 0.0, 0.0)
    for end in problem.ends:
        total = total + end_polynomial(end)
    return total


def two_end_solve(e1: Catenoidal, b2: ExtendedComplex) -> Catenoidal:
    """The unique second end balancing e1, given its boundary b2.

    Balancing forces mu2 = mu1, A2 = B1 and B2 = A1; a b2 different
    from A1 cannot be balanced by any catenoidal end.
    """
    if boundary_eq(b2, e1.boundary):
        raise DomainError("second boundary must differ from the first")
    if not boundary_eq(b2, e1.axis_from, tol=_TOL):
        raise UnbalanceableError(
            "no catenoidal end with boundary %r balances an end with axis "
            "point %r: the polynomial roots cannot cancel"
            % (b2, e1.axis_from))
    return Catenoidal(e1.mu, e1.boundary, b2)


# -- three catenoidal ends ---------------------------------------------------

_NORMALIZED = (-1.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j)
# A homogeneous coordinate this small against its unit vector is zero: an
# axis point at infinity, a common solution at infinity, identical axes.
# Snapping an axis point A to infinity moves its unit trace row by about
# 1/|A|, so this sits well below the concurrency tolerance.
_ZERO_TOL = 1e-12
_CONCURRENT_TOL = 1e-10


def _unit_point(b: ExtendedComplex):
    """Unit homogeneous coordinates (b0, b1) of b = b0/b1, b1 real >= 0."""
    b0, b1 = _homogeneous(b)
    r = math.hypot(b1, abs(b0))
    return b0 / r, b1 / r


def three_end_axes(sigma1: float, sigma2: float, sigma3: float,
                   boundaries: Optional[Sequence[ExtendedComplex]] = None):
    """Axis points (A1, A2, A3) of the balanced three-end configuration.

    sigma_j = 1 - mu_j^2 are the growth parameters and the boundaries
    B_j default to (-1, 0, 1); any distinct triple, infinity and complex
    points included, is solved directly.  Boundaries whose chordal
    separation |b0 c1 - b1 c0| is at most 1e-12 count as repeated and
    raise DomainError.  With B_j = [b0 : b1] in unit
    homogeneous coordinates, end j's polynomial over 2 pi is
    sigma_j m_j l_j: m_j = b1 X - b0 vanishes at B_j, and
    l_j = conj(b0) X + b1 + t_j m_j, the linear form with l_j(B_j) = 1,
    vanishes at A_j.  The X^2, X and 1 coefficients of the sum vanish:
    three linear equations in sigma_j t_j, nonsingular for distinct
    boundaries and scaled by their chordal separations, not by |B_j|.
    (At a finite B_j, sigma_j t_j is (1 + |B_j|^2) c_j - sigma_j conj(B_j)
    for c_j = sigma_j/(B_j - A_j).)  A_j is infinity when the X
    coefficient of l_j is at most 1e-12 times its constant.
    """
    sigmas = (sigma1, sigma2, sigma3)
    if any(abs(s) <= _TOL for s in sigmas):
        raise DomainError("sigma = 0 is not a catenoidal end")
    bs = _NORMALIZED if boundaries is None else tuple(boundaries)
    units = [_unit_point(b) for b in bs]
    if any(abs(b0 * c1 - b1 * c0) <= _ZERO_TOL
           for (b0, b1), (c0, c1) in itertools.combinations(units, 2)):
        raise DomainError("three-end balancing requires distinct boundaries")
    m_sq = np.array([(b1 * b1, -2.0 * b0 * b1, b0 * b0) for b0, b1 in units])
    m_l0 = np.array([(b1 * b0.conjugate(), b1 * b1 - abs(b0) ** 2, -b0 * b1)
                     for b0, b1 in units])
    st = np.linalg.solve(m_sq.T, -np.dot(sigmas, m_l0))
    axes = []
    for s, (b0, b1), stj in zip(sigmas, units, st):
        t = stj / s
        p, q = b0.conjugate() + t * b1, b1 - t * b0
        axes.append(INF if abs(p) <= _ZERO_TOL * abs(q) else complex(-q / p))
    return tuple(axes)


# -- concurrency of coplanar geodesics --------------------------------------

@dataclass(frozen=True)
class ConcurrencyResult:
    """Outcome of the three-axis concurrency test.

    kind is one of "interior" (common point (u, w) inside the space),
    "boundary" (common point u, or INF, on the asymptotic boundary),
    "common-perpendicular" (the balance equations hold but the common
    solution has w^2 < 0: the three axes share the perpendicular
    geodesic of center u and radius r, point = (u, r)), or
    "not-concurrent".
    """

    kind: str
    point: object = None


def _real_endpoint(z: ExtendedComplex) -> Union[float, None]:
    if is_inf(z):
        return None
    z = complex(z)
    if abs(z.imag) > _TOL * max(1.0, abs(z)):
        raise DomainError("concurrency check needs coplanar (real) endpoints")
    return z.real


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _trace_row(p: Optional[float], q: Optional[float]):
    """Unit row of the trace equation of the geodesic over (p, q), linear
    in (S, u, 1) with S = u^2 + w^2: S - (p+q) u + pq = 0 for a
    semicircle, u - p = 0 for the vertical line over p (q is None)."""
    if p is None:
        p, q = q, p
    row = (0.0, 1.0, -p) if q is None else (1.0, -(p + q), p * q)
    n = math.hypot(*row)
    return row[0] / n, row[1] / n, row[2] / n


def concurrency_check(axes: Sequence[Geodesic]) -> ConcurrencyResult:
    """Whether three coplanar geodesics share a common point.

    Each trace is a unit row linear in (S, u, 1), S = u^2 + w^2, in
    coordinates divided by the median finite endpoint magnitude (rounded
    down to a power of two), so that the tolerances below hold alike
    for axes near the origin and far from it.  The pair of rows with the largest
    cross product (S, u, t) gives the common solution, and the axes are
    concurrent when the third row lies within 1e-10 of that pair's
    plane.  t = 0 is the point at infinity when u = 0 too (vertical
    lines) and concentric semicircles, which never meet, otherwise.  A
    finite solution has abscissa u/t and w^2 = S/t - (u/t)^2.  The
    common point may lie on the asymptotic boundary (w = 0 or the point
    at infinity); these are reported as "boundary" results since they
    are not points of the hyperbolic space itself.  A common solution
    with w^2 < 0 means the axes do not meet even at the boundary but
    admit a common orthogonal geodesic through (u, 0); this still
    certifies the balance relations and is reported as
    "common-perpendicular" rather than "not-concurrent".  Two coincident
    axes leave two distinct traces; three whose traces agree to
    round-off raise DomainError.
    """
    if len(axes) != 3:
        raise DomainError("concurrency check expects exactly three geodesics")
    ends = [(_real_endpoint(g.start), _real_endpoint(g.end)) for g in axes]
    sizes = sorted(abs(p) for pq in ends for p in pq if p is not None)
    # a power of two, so that dividing by it rounds nothing, and at least
    # 2^-500 of the largest endpoint, so that no product p q overflows
    scale = 2.0 ** max(math.frexp(sizes[len(sizes) // 2])[1] - 1,
                       math.frexp(sizes[-1])[1] - 500)
    r1, r2, r3 = (_trace_row(*(None if p is None else p / scale for p in pq))
                  for pq in ends)
    x, third = max(((_cross(r1, r2), r3), (_cross(r1, r3), r2),
                    (_cross(r2, r3), r1)),
                   key=lambda pair: _dot(pair[0], pair[0]))
    n = math.hypot(*x)
    if n <= _ZERO_TOL:
        raise DomainError("three axes that coincide to round-off are "
                          "degenerate for concurrency")
    s, u, t = x[0] / n, x[1] / n, x[2] / n
    if abs(_dot(third, (s, u, t))) > _CONCURRENT_TOL:
        return ConcurrencyResult("not-concurrent")
    if abs(t) <= _ZERO_TOL:
        if abs(u) <= _ZERO_TOL:
            return ConcurrencyResult("boundary", INF)
        return ConcurrencyResult("not-concurrent")
    # w^2 against 1e-9 max(1, |u|)^2 in unscaled coordinates
    u = u / t
    wsq = s / t - u * u
    m = max(1.0 / scale, abs(u))
    if wsq > 1e-9 * m * m:
        return ConcurrencyResult("interior",
                                 (scale * u, scale * math.sqrt(wsq)))
    if wsq >= -1e-9 * m * m:
        return ConcurrencyResult("boundary", scale * u)
    return ConcurrencyResult("common-perpendicular",
                             (scale * u, scale * math.sqrt(-wsq)))


# -- Euclidean minimal-surface analogue -------------------------------------

class EuclideanEndData:
    """Flux vector F and a point P on the axis of a Euclidean minimal end.
    End data compare and hash by identity."""

    __slots__ = ("flux", "point")

    def __init__(self, flux: np.ndarray, point: np.ndarray):
        f = np.asarray(flux, dtype=float)
        p = np.asarray(point, dtype=float)
        if f.shape != (3,) or p.shape != (3,):
            raise DomainError("flux and point must be 3-vectors")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(p))):
            raise DomainError("flux and point must be finite")
        self.flux, self.point = f, p


def euclidean_three_end_check(e1: EuclideanEndData, e2: EuclideanEndData,
                              e3: EuclideanEndData):
    """(coplanar, (relation, point)) for three balanced Euclidean ends.

    Balanced data (forces and torques summing to zero) has axes that are
    either all parallel or concurrent; anything else is a violation.
    The torque of end j at P is (P - P_j) x F_j, so the balance check at
    the origin reads sum_j P_j x F_j = 0.
    """
    ends = (e1, e2, e3)
    forces = [e.flux for e in ends]
    scale = max(1.0, *(float(np.linalg.norm(f)) for f in forces),
                *(float(np.linalg.norm(e.point)) for e in ends))
    tol = 1e-8 * scale
    force_sum = sum(forces)
    torque_sum = sum(np.cross(-e.point, e.flux) for e in ends)
    coplanar = bool(abs(np.linalg.det(np.column_stack((
        e2.point - e1.point, e2.flux, e3.point - e1.point)))) <= tol * scale)
    if np.linalg.norm(force_sum) > tol or np.linalg.norm(torque_sum) > tol * scale:
        return coplanar, ("violation", None)
    if all(np.linalg.norm(np.cross(forces[i], forces[j])) <= tol * scale
           for i, j in ((0, 1), (0, 2), (1, 2))):
        return coplanar, ("parallel", None)
    # intersect the first two axes, then test the third for membership
    m = np.column_stack((e1.flux, -e2.flux))
    ts, *_ = np.linalg.lstsq(m, e2.point - e1.point, rcond=None)
    q = e1.point + ts[0] * e1.flux
    gap = np.linalg.norm(e1.point + ts[0] * e1.flux - (e2.point + ts[1] * e2.flux))
    if gap > tol:
        return coplanar, ("violation", None)
    dist3 = np.linalg.norm(np.cross(q - e3.point, e3.flux)) \
        / np.linalg.norm(e3.flux)
    if dist3 > tol:
        return coplanar, ("violation", None)
    return coplanar, ("concurrent", q)
