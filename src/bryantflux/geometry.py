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
(:func:`_homogeneous`).  The bracket [p, q] = p0 q1 - p1 q0 is p - q for
finite points, and one formula in brackets covers the point at infinity
with no case of its own.  The 1 and 0 are real, so on finite points the
formulas give the same numbers as the plain differences.
"""

from __future__ import annotations

import cmath
import math
from typing import Union

from .errors import DomainError

_DET_TOL = 1e-12


class _Infinity:
    """The point at infinity of the extended complex plane (singleton).
    __new__ returns the one instance, also to copy and pickle, so it
    compares and hashes by identity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


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


def _homogeneous(z: ExtendedComplex):
    """Homogeneous coordinates (z0, z1) of z = z0/z1: (z, 1.0) for a
    finite point, (1.0, 0.0) for INF."""
    return (1.0, 0.0) if is_inf(z) else (complex(z), 1.0)


def _bracket(p, q):
    """[p, q] = p0 q1 - p1 q0 of homogeneous pairs; p - q when both are
    finite, zero exactly when p and q are the same point."""
    return p[0] * q[1] - p[1] * q[0]


def boundary_eq(z1: ExtendedComplex, z2: ExtendedComplex, tol: float = 0.0) -> bool:
    """|[z1, z2]| <= tol: |z1 - z2| <= tol for finite points, and INF,
    whose bracket with a finite point is 1, equals only itself for
    tol < 1."""
    return abs(_bracket(_homogeneous(z1), _homogeneous(z2))) <= tol


class Geodesic:
    """The oriented geodesic running from ``start`` to ``end`` on the
    boundary.  Geodesics compare and hash by identity."""

    __slots__ = ("start", "end")

    def __init__(self, start: ExtendedComplex, end: ExtendedComplex):
        if boundary_eq(start, end):
            raise DomainError("geodesic endpoints must be distinct")
        self.start = start if is_inf(start) else complex(start)
        self.end = end if is_inf(end) else complex(end)


class IsometrySL2:
    """A direct isometry, stored as the entries of P in SL(2, C).

    The matrix is normalized to determinant one at construction (the P
    vs -P ambiguity is irrelevant: both induce the same isometry).
    Isometries compare and hash by identity.
    """

    __slots__ = ("alpha", "beta", "gamma", "delta")

    def __init__(self, alpha: complex, beta: complex, gamma: complex,
                 delta: complex):
        a, b, c, d = (complex(alpha), complex(beta), complex(gamma),
                      complex(delta))
        det = a * d - b * c
        if abs(det) < _DET_TOL:
            raise DomainError("isometry matrix is singular (|det|=%g)" % abs(det))
        if abs(det - 1.0) > _DET_TOL:
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        self.alpha, self.beta, self.gamma, self.delta = a, b, c, d

    def inverse(self) -> "IsometrySL2":
        # det is 1, so the adjugate is the inverse.
        return IsometrySL2(self.delta, -self.beta, -self.gamma, self.alpha)


def cross_ratio(z1: ExtendedComplex, z2: ExtendedComplex,
                z3: ExtendedComplex, z4: ExtendedComplex) -> complex:
    """Cross-ratio (z1,z2,z3,z4) = [z3,z1][z4,z2] / ([z3,z2][z4,z1]),
    that is (z3-z1)/(z3-z2) * (z4-z2)/(z4-z1) for finite points.

    Requires z1 != z4 and z2 != z3.  An infinite point enters through
    its homogeneous pair (1, 0), never through large numbers; the value
    is exactly 0 when z1 = z3 or z2 = z4 and exactly 1 when z1 = z2 or
    z3 = z4.
    """
    p1, p2, p3, p4 = map(_homogeneous, (z1, z2, z3, z4))
    num = _bracket(p3, p1) * _bracket(p4, p2)
    den = _bracket(p3, p2) * _bracket(p4, p1)
    if den == 0:
        raise DomainError("cross-ratio undefined: needs z1 != z4 and z2 != z3")
    # z1 = z2 or z3 = z4 makes num and den the same product, whose
    # complex quotient can miss 1 by an ulp.
    return 1.0 + 0.0j if num == den else num / den


def mobius_boundary(p: IsometrySL2, z: ExtendedComplex) -> ExtendedComplex:
    """Boundary action zeta -> (delta*zeta + gamma)/(beta*zeta + alpha),
    on homogeneous pairs
    (z0, z1) -> (delta z0 + gamma z1, beta z0 + alpha z1)."""
    z0, z1 = _homogeneous(z)
    w1 = p.beta * z0 + p.alpha * z1
    return INF if w1 == 0 else (p.delta * z0 + p.gamma * z1) / w1


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
