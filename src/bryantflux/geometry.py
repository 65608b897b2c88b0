"""Upper half-space model of hyperbolic 3-space.

Points are pairs (zeta, w) with zeta complex and w > 0, the asymptotic
boundary is the extended complex plane, and direct isometries are given
by SL(2, C) matrices acting on Hermitian matrices by N -> P N P*.  The
induced boundary action used throughout this package is

    zeta -> (delta*zeta + gamma) / (beta*zeta + alpha),

which differs from the more common (alpha*zeta + beta)/(gamma*zeta + delta);
callers holding data in the common convention must convert first.

Boundary points are passed as finite complex numbers or INF, and the
formulas on them are written in homogeneous coordinates: z = z0/z1
with (z0, z1) = (z, 1) for finite z and (1, 0) for INF
(:func:`homogeneous`).  The bracket [p, q] = p0 q1 - p1 q0 is p - q for
finite points, and one formula in brackets covers the point at infinity
with no case of its own.  The 1 and 0 are real, so on finite points the
formulas give the same numbers as the plain differences.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError

_DET_TOL = 1e-12


class _Infinity:
    """The point at infinity of the extended complex plane (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("bryantflux-INF")


INF = _Infinity()

#: A boundary point: a finite complex number or the point at infinity.
ExtendedComplex = Union[complex, _Infinity]


def is_inf(z: ExtendedComplex) -> bool:
    return isinstance(z, _Infinity)


def parse_real(obj) -> float:
    """A finite real number from its JSON form, not a bool; anything
    else raises DomainError."""
    try:
        if (isinstance(obj, (int, float)) and not isinstance(obj, bool)
                and math.isfinite(obj)):
            return float(obj)
    except OverflowError:  # an int beyond the float range
        pass
    raise DomainError("expected a finite real number, got %r" % (obj,))


def parse_complex(obj) -> complex:
    """A finite complex number from its JSON form, a real number or a
    pair [re, im]; anything else raises DomainError."""
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(parse_real(obj[0]), parse_real(obj[1]))
    return complex(parse_real(obj))


def parse_point(obj) -> ExtendedComplex:
    """A boundary point from its JSON form: "inf" or a finite complex
    number as :func:`parse_complex` reads it."""
    return INF if obj == "inf" else parse_complex(obj)


def parse_axis(obj):
    """The pair (A, B) of boundary points of a catenoidal axis from its
    JSON form [A, B], each read by :func:`parse_point`."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise DomainError("a catenoidal axis is a pair of points")
    return parse_point(obj[0]), parse_point(obj[1])


def homogeneous(z: ExtendedComplex):
    """Homogeneous coordinates (z0, z1) of z = z0/z1: (z, 1.0) for a
    finite point, (1.0, 0.0) for INF."""
    return (1.0, 0.0) if is_inf(z) else (complex(z), 1.0)


def bracket(p, q):
    """[p, q] = p0 q1 - p1 q0 of homogeneous pairs; p - q when both are
    finite, zero exactly when p and q are the same point."""
    return p[0] * q[1] - p[1] * q[0]


def boundary_eq(z1: ExtendedComplex, z2: ExtendedComplex, tol: float = 0.0) -> bool:
    """|[z1, z2]| <= tol: |z1 - z2| <= tol for finite points, and INF,
    whose bracket with a finite point is 1, equals only itself for
    tol < 1."""
    return abs(bracket(homogeneous(z1), homogeneous(z2))) <= tol


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


@dataclass(frozen=True)
class Geodesic:
    """The oriented geodesic running from ``start`` to ``end`` on the boundary."""

    start: ExtendedComplex
    end: ExtendedComplex

    def __post_init__(self):
        if boundary_eq(self.start, self.end):
            raise DomainError("geodesic endpoints must be distinct")
        if not is_inf(self.start):
            object.__setattr__(self, "start", complex(self.start))
        if not is_inf(self.end):
            object.__setattr__(self, "end", complex(self.end))

    def reversed(self) -> "Geodesic":
        return Geodesic(self.end, self.start)


@dataclass(frozen=True)
class IsometrySL2:
    """A direct isometry, stored as the entries of P in SL(2, C).

    The matrix is normalized to determinant one at construction (the P
    vs -P ambiguity is irrelevant: both induce the same isometry).
    """

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        a, b, c, d = (complex(self.alpha), complex(self.beta),
                      complex(self.gamma), complex(self.delta))
        det = a * d - b * c
        if abs(det) < _DET_TOL:
            raise DomainError("isometry matrix is singular (|det|=%g)" % abs(det))
        if abs(det - 1.0) > _DET_TOL:
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", c)
        object.__setattr__(self, "delta", d)

    @classmethod
    def identity(cls) -> "IsometrySL2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def inverse(self) -> "IsometrySL2":
        # det is 1, so the adjugate is the inverse.
        return IsometrySL2(self.delta, -self.beta, -self.gamma, self.alpha)

    def compose(self, other: "IsometrySL2") -> "IsometrySL2":
        """Matrix product self @ other (apply ``other`` first)."""
        return IsometrySL2(
            self.alpha * other.alpha + self.beta * other.gamma,
            self.alpha * other.beta + self.beta * other.delta,
            self.gamma * other.alpha + self.delta * other.gamma,
            self.gamma * other.beta + self.delta * other.delta,
        )


def cross_ratio(z1: ExtendedComplex, z2: ExtendedComplex,
                z3: ExtendedComplex, z4: ExtendedComplex) -> complex:
    """Cross-ratio (z1,z2,z3,z4) = [z3,z1][z4,z2] / ([z3,z2][z4,z1]),
    that is (z3-z1)/(z3-z2) * (z4-z2)/(z4-z1) for finite points.

    Requires z1 != z4 and z2 != z3.  An infinite point enters through
    its homogeneous pair (1, 0), never through large numbers; the value
    is exactly 0 when z1 = z3 or z2 = z4 and exactly 1 when z1 = z2 or
    z3 = z4.
    """
    p1, p2, p3, p4 = map(homogeneous, (z1, z2, z3, z4))
    num = bracket(p3, p1) * bracket(p4, p2)
    den = bracket(p3, p2) * bracket(p4, p1)
    if den == 0:
        raise DomainError("cross-ratio undefined: needs z1 != z4 and z2 != z3")
    # z1 = z2 or z3 = z4 makes num and den the same product, whose
    # complex quotient can miss 1 by an ulp.
    return 1.0 + 0.0j if num == den else num / den


def mobius_boundary(p: IsometrySL2, z: ExtendedComplex) -> ExtendedComplex:
    """Boundary action zeta -> (delta*zeta + gamma)/(beta*zeta + alpha),
    on homogeneous pairs
    (z0, z1) -> (delta z0 + gamma z1, beta z0 + alpha z1)."""
    z0, z1 = homogeneous(z)
    w1 = p.beta * z0 + p.alpha * z1
    return INF if w1 == 0 else (p.delta * z0 + p.gamma * z1) / w1


def point_to_hermitian(pt: HPoint):
    """The unit-determinant Hermitian matrix of a half-space point."""
    z, w = pt.zeta, pt.w
    return ((1.0 / w, z.conjugate() / w),
            (z / w, (abs(z) ** 2 + w * w) / w))


def hermitian_to_point(n11: complex, n21: complex) -> HPoint:
    """Inverse of :func:`point_to_hermitian` (only two entries are needed)."""
    w = 1.0 / n11.real
    return HPoint(n21 * w, w)


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


def standardizing_isometry(a: ExtendedComplex, b: ExtendedComplex) -> IsometrySL2:
    """A direct isometry whose boundary action sends a -> 0 and b -> infinity."""
    if boundary_eq(a, b):
        raise DomainError("standardizing isometry needs distinct points")
    if is_inf(b):
        # beta = 0 keeps infinity fixed; delta*a + gamma = 0 kills a.
        return IsometrySL2(1.0, 0.0, -complex(a), 1.0)
    if is_inf(a):
        # delta = 0 sends infinity to 0; beta*b + alpha = 0 sends b to infinity.
        return IsometrySL2(-complex(b), 1.0, -1.0, 0.0)
    return IsometrySL2(-complex(b), 1.0, -complex(a), 1.0)


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
