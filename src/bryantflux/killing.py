"""Killing fields of translations and rotations, and their potentials.

Each field is fixed by a quadratic V(zeta) = c0 + c1 zeta + c2 zeta^2
(field_polynomial): the translation along the geodesic from C to D has
V = (zeta - C)(zeta - D)/(C - D), V = zeta - C when D = inf, and the
reversed geodesic's V, negated, when C = inf; the rotation has i V.
The field is Y = (V - w^2 conj(c2), w Re V') and its potential is
Z = (i (w^2 conj(c2) log w + V/2), 0), so every flux integral is linear
in (c0, c1, c2), which the quadrature route of flux uses.

The closed forms below are exact, written per field kind and endpoint
case rather than through V, and the tests check V against them.  For a
geodesic with two finite endpoints (C, D) the substitution
zeta0 = C - D, zeta1 = D is used; an infinite ``start`` endpoint is
handled by reversing the geodesic and negating (the field of the
reversed geodesic is the opposite).

The potential Z is the vector field whose dual 1-form beta satisfies
i_Y alpha = d beta, with alpha the hyperbolic volume form w^-3 du dv dw.
It reduces the disk integral in the flux definition to a boundary
integral.  Z is fixed here in a specific gauge; any shift by the
gradient dual of a smooth function leaves fluxes over closed loops
unchanged (tested, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError
from .geometry import Geodesic, HPoint, TangentVector, _bracket, \
    _homogeneous, is_inf

TRANSLATION = "translation"
ROTATION = "rotation"


@dataclass(frozen=True)
class KillingField:
    """A translation along, or rotation about, an oriented geodesic."""

    kind: str
    geodesic: Geodesic

    def __post_init__(self):
        if self.kind not in (TRANSLATION, ROTATION):
            raise DomainError("kind must be 'translation' or 'rotation'")

    def reversed(self) -> "KillingField":
        return KillingField(self.kind, self.geodesic.reversed())


def field_polynomial(k: KillingField) -> Tuple[complex, complex, complex]:
    """(c0, c1, c2) of the field's quadratic V(zeta) = c0 + c1 zeta + c2 zeta^2.

    On the homogeneous endpoints c = (c0', c1') and d = (d0', d1') of the
    geodesic, the translation has V = (c1' zeta - c0')(d1' zeta - d0') / [c, d]:
    (zeta - C)(zeta - D)/(C - D) for finite C and D, zeta - C at D = inf
    and -(zeta - D) at C = inf.  The rotation has i times that V.
    """
    c, d = _homogeneous(k.geodesic.start), _homogeneous(k.geodesic.end)
    f = (1j if k.kind == ROTATION else 1.0) / _bracket(c, d)
    return (f * c[0] * d[0], -f * (c[0] * d[1] + c[1] * d[0]),
            f * c[1] * d[1])


def _components(kind, geod, zeta, w, potential):
    """Vectorized (alpha, beta) of the field or its potential at (zeta, w)."""
    c, d = geod.start, geod.end
    if is_inf(c):
        a, b = _components(kind, geod.reversed(), zeta, w, potential)
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
