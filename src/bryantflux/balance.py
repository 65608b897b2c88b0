"""Balancing of multi-end configurations.

The sum of the flux polynomials over all ends of a complete n-ended
surface vanishes.  This module computes that sum for descriptor lists,
solves the rigid two-end and symmetric three-end cases in closed form,
checks geodesic concurrency in a vertical plane, and runs the analogous
force/torque balance for Euclidean minimal three-end data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .ends import Catenoidal, EndDescriptor, Horosphere, Horospherical
from .errors import DomainError, UnbalanceableError
from .flux import FluxPolynomial, catenoidal_polynomial, \
    horospherical_polynomial
from .geometry import INF, ExtendedComplex, Geodesic, IsometrySL2, \
    boundary_eq, is_inf, mobius_boundary, parse_axis, parse_complex, \
    parse_point, parse_real

_TOL = 1e-9


@dataclass(frozen=True)
class BalanceProblem:
    ends: Tuple[EndDescriptor, ...]

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(self.ends))
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
    if not _boundary_close(b2, e1.axis_from):
        raise UnbalanceableError(
            "no catenoidal end with boundary %r balances an end with axis "
            "point %r: the polynomial roots cannot cancel"
            % (b2, e1.axis_from))
    return Catenoidal(e1.mu, e1.boundary, b2)


def _boundary_close(z1: ExtendedComplex, z2: ExtendedComplex) -> bool:
    return boundary_eq(z1, z2, tol=_TOL)


# -- three symmetric catenoidal ends ----------------------------------------

def _ratio(num: float, den: float) -> ExtendedComplex:
    if abs(den) <= _TOL * max(1.0, abs(num)):
        return INF
    return complex(num / den)


def _to_zero_one_inf(z1, z2, z3) -> IsometrySL2:
    """Isometry whose boundary action sends (z1, z2, z3) to (0, 1, inf)."""
    # Standard-form matrix for z -> ((z-z1)(z2-z3))/((z-z3)(z2-z1)),
    # transposed into this package's boundary-action convention.
    if is_inf(z1):
        a, b, c, d = 0.0, complex(z2) - complex(z3), 1.0, -complex(z3)
    elif is_inf(z2):
        a, b, c, d = 1.0, -complex(z1), 1.0, -complex(z3)
    elif is_inf(z3):
        a, b, c, d = 1.0, -complex(z1), 0.0, complex(z2) - complex(z1)
    else:
        z1, z2, z3 = complex(z1), complex(z2), complex(z3)
        a, b = z2 - z3, -z1 * (z2 - z3)
        c, d = z2 - z1, -z3 * (z2 - z1)
    return IsometrySL2(d, c, b, a)


def boundary_triple_map(src, dst) -> IsometrySL2:
    """Isometry taking the boundary triple ``src`` to ``dst`` in order."""
    return _to_zero_one_inf(*dst).inverse().compose(_to_zero_one_inf(*src))


def three_end_axes(sigma1: float, sigma2: float, sigma3: float,
                   boundaries: Optional[Sequence[ExtendedComplex]] = None):
    """Axis points (A1, A2, A3) of the balanced three-end configuration.

    sigma_j = 1 - mu_j^2 are the growth parameters.  Boundaries default
    to (-1, 0, 1); other (distinct) triples are handled by conjugating
    with the Mobius map onto the normalized chart and transporting the
    result back.
    """
    for s in (sigma1, sigma2, sigma3):
        if abs(s) <= _TOL:
            raise DomainError("sigma = 0 is not a catenoidal end")
    a1 = _ratio(sigma1 - sigma2 + sigma3, 3.0 * sigma1 + sigma2 - sigma3)
    a2 = _ratio(sigma2, sigma3 - sigma1)
    a3 = _ratio(sigma1 - sigma2 + sigma3, sigma1 - sigma2 - 3.0 * sigma3)
    if boundaries is None:
        return a1, a2, a3
    b1, b2, b3 = boundaries
    if boundary_eq(b1, b2) or boundary_eq(b2, b3) or boundary_eq(b1, b3):
        raise DomainError("three-end balancing requires distinct boundaries")
    p = boundary_triple_map((-1.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j),
                            (b1, b2, b3))
    return tuple(mobius_boundary(p, a) for a in (a1, a2, a3))


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


def _trace(g: Geodesic):
    """('line', u0) for a vertical half-line, ('circle', p, q) otherwise."""
    p = _real_endpoint(g.start)
    q = _real_endpoint(g.end)
    if p is None and q is None:
        raise DomainError("geodesic endpoints must be distinct")
    if p is None:
        return ("line", q)
    if q is None:
        return ("line", p)
    return ("circle", p, q)


def _on_trace(trace, u: float, wsq: float) -> bool:
    """Whether the point with abscissa u and squared height wsq solves
    the trace equation.  wsq may be negative; the line equation does not
    involve w, and a negative-wsq solution of a circle equation marks
    the circle centered at u orthogonal to the trace."""
    if trace[0] == "line":
        return abs(u - trace[1]) <= 1e-9 * max(1.0, abs(u))
    _, p, q = trace
    val = (u - p) * (u - q) + wsq
    scale = max(1.0, abs(p), abs(q), abs(u)) ** 2
    return abs(val) <= 1e-9 * scale


def _pair_candidate(t1, t2):
    """Common solution (u, w^2) of two trace equations, or None.

    Returns ("infinity",) for two distinct vertical lines, None for
    concentric semicircles, and otherwise (kind, u, wsq) with kind
    "interior" (wsq > 0), "boundary" (wsq = 0) or "ultraparallel"
    (wsq < 0, no real meeting point)."""
    if t1[0] == "line" and t2[0] == "line":
        if abs(t1[1] - t2[1]) <= 1e-9:
            raise DomainError("identical axes are degenerate for concurrency")
        return ("infinity",)
    if t2[0] == "line":
        t1, t2 = t2, t1
    if t1[0] == "line":
        u = t1[1]
        _, p, q = t2
        wsq = -(u - p) * (u - q)
    else:
        _, p1, q1 = t1
        _, p2, q2 = t2
        den = (p1 + q1) - (p2 + q2)
        if abs(den) <= 1e-12 * max(1.0, abs(p1), abs(q1), abs(p2), abs(q2)):
            return None  # concentric semicircles never meet
        u = (p1 * q1 - p2 * q2) / den
        wsq = -(u - p1) * (u - q1)
    scale = max(1.0, abs(u)) ** 2
    if wsq > 1e-9 * scale:
        return ("interior", u, wsq)
    if wsq >= -1e-9 * scale:
        return ("boundary", u, 0.0)
    return ("ultraparallel", u, wsq)


def concurrency_check(axes: Sequence[Geodesic]) -> ConcurrencyResult:
    """Whether three coplanar geodesics share a common point.

    The three trace equations are solved simultaneously for (u, w^2).
    The common point may lie on the asymptotic boundary (w = 0 or the
    point at infinity); these are reported as "boundary" results since
    they are not points of the hyperbolic space itself.  A common
    solution with w^2 < 0 means the axes do not meet even at the
    boundary but admit a common orthogonal geodesic through (u, 0);
    this still certifies the balance relations and is reported as
    "common-perpendicular" rather than "not-concurrent".
    """
    if len(axes) != 3:
        raise DomainError("concurrency check expects exactly three geodesics")
    t1, t2, t3 = (_trace(g) for g in axes)
    cand = _pair_candidate(t1, t2)
    if cand is None:
        return ConcurrencyResult("not-concurrent")
    if cand[0] == "infinity":
        if t3[0] == "line":
            return ConcurrencyResult("boundary", INF)
        return ConcurrencyResult("not-concurrent")
    kind, u, wsq = cand
    if not _on_trace(t3, u, wsq):
        return ConcurrencyResult("not-concurrent")
    if kind == "interior":
        return ConcurrencyResult("interior", (u, float(np.sqrt(wsq))))
    if kind == "boundary":
        return ConcurrencyResult("boundary", u)
    return ConcurrencyResult("common-perpendicular",
                             (u, float(np.sqrt(-wsq))))


# -- Euclidean minimal-surface analogue -------------------------------------

@dataclass(frozen=True)
class EuclideanEndData:
    """Flux vector F and a point P on the axis of a Euclidean minimal end."""

    flux: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.flux, dtype=float)
        p = np.asarray(self.point, dtype=float)
        if f.shape != (3,) or p.shape != (3,):
            raise DomainError("flux and point must be 3-vectors")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(p))):
            raise DomainError("flux and point must be finite")
        object.__setattr__(self, "flux", f)
        object.__setattr__(self, "point", p)


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


# -- JSON -------------------------------------------------------------------

def descriptor_from_json(obj: dict) -> EndDescriptor:
    kind = obj.get("type")
    if kind == "catenoidal":
        return Catenoidal(parse_real(obj["mu"]), *parse_axis(obj["axis"]))
    if kind == "horospherical":
        return Horospherical(parse_point(obj["boundary"]),
                             parse_complex(obj.get("kappa", 0.0)))
    if kind == "horosphere":
        return Horosphere()
    raise DomainError("unknown end type %r" % (kind,))


def problem_from_json(obj: dict) -> BalanceProblem:
    return BalanceProblem(tuple(descriptor_from_json(e) for e in obj["ends"]))
