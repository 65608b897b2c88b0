"""Killing fields of translations and rotations, and their potentials.

Each field is fixed by a quadratic V(zeta) = c0 + c1 zeta + c2 zeta^2
(field_polynomial): the translation along the geodesic from C to D has
V = (zeta - C)(zeta - D)/(C - D), V = zeta - C when D = inf, and the
reversed geodesic's V, negated, when C = inf; the rotation has i V.
The field is Y = (V - w^2 conj(c2), w Re V') and its potential is
Z = (i (w^2 conj(c2) log w + V/2), 0), so every flux integral is linear
in (c0, c1, c2): flux.flux_for_geodesic pairs them with a flux triple.

The potential Z is the vector field whose dual 1-form beta satisfies
i_Y alpha = d beta, with alpha the hyperbolic volume form w^-3 du dv dw.
It reduces the disk integral in the flux definition to a boundary
integral.  Any shift of Z by the gradient dual of a smooth function
leaves fluxes over closed loops unchanged.  The tests' reference module
samples Y and Z from closed forms written per field kind and endpoint
case, and checks V and the potential against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import DomainError
from .geometry import Geodesic, _bracket, _homogeneous

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
