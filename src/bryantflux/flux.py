"""Flux computations: residue triple, polynomial, matrix, closed forms,
and the independent quadrature route.

Three equivalent encodings of the flux data of an end are provided: the
triple (phi0, phi1, phi2) of 4*pi-scaled residues, the quadratic
polynomial Pi(X) = phi2 X^2 + 2 phi1 X + phi0, and the matrix
Phi = Res(-(dF) F^-1).  flux_numeric integrates the defining boundary
integral by quadrature on one circle, with exact derivatives, and shares
no residue machinery with the other routes; it is the oracle the residue
formulas are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bryant import BryantFrame, _check_radius, _zeta_w, one_forms
from .errors import ConsistencyError, DomainError
from .geometry import ExtendedComplex, Geodesic, cross_ratio, is_inf
from .killing import ROTATION, TRANSLATION, KillingField, potential_samples, \
    vector_samples
from .series import QuadratureGrid, differentiate, eval_at, residue


@dataclass(frozen=True)
class FluxTriple:
    phi0: complex
    phi1: complex
    phi2: complex


@dataclass(frozen=True)
class FluxPolynomial:
    """Pi(X) = quad X^2 + lin X + const."""

    quad: complex
    lin: complex
    const: complex

    @classmethod
    def from_triple(cls, t: FluxTriple) -> "FluxPolynomial":
        return cls(t.phi2, 2.0 * t.phi1, t.phi0)

    def __call__(self, x: complex) -> complex:
        return (self.quad * x + self.lin) * x + self.const

    def __add__(self, other: "FluxPolynomial") -> "FluxPolynomial":
        return FluxPolynomial(self.quad + other.quad, self.lin + other.lin,
                              self.const + other.const)

    def max_abs(self) -> float:
        return max(abs(self.quad), abs(self.lin), abs(self.const))

    def roots(self):
        if abs(self.quad) > 1e-13 * max(1.0, self.max_abs()):
            return [complex(r) for r in np.roots(
                [self.quad, self.lin, self.const])]
        if abs(self.lin) > 1e-13 * max(1.0, self.max_abs()):
            return [-self.const / self.lin]
        return []


@dataclass(frozen=True)
class FluxMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __post_init__(self):
        scale = max(abs(self.m11), abs(self.m12), abs(self.m21),
                    abs(self.m22), 1.0)
        if abs(self.m11 + self.m22) > 1e-10 * scale:
            raise ConsistencyError("flux matrix must be trace-free "
                                   "(trace %.3e)" % abs(self.m11 + self.m22))


def flux_triple(frame: BryantFrame) -> FluxTriple:
    """4*pi residues of D dC - C dD, C dB - D dA, B dA - A dB."""
    fb, fm, fd = one_forms(frame)
    four_pi = 4.0 * math.pi
    return FluxTriple(four_pi * residue(fd), four_pi * residue(fm),
                      four_pi * residue(fb))


def flux_matrix(frame: BryantFrame) -> FluxMatrix:
    """Residue of -(dF) F^-1, computed entry-wise by series algebra."""
    A, B, C, D = frame.entries()
    dA, dB, dC, dD = map(differentiate, frame.entries())
    # F^-1 = (D, -B; -C, A) since det F = 1.
    m11 = -(dA * D - dB * C)
    m12 = -(dB * A - dA * B)
    m21 = -(dC * D - dD * C)
    m22 = -(dD * A - dC * B)
    return FluxMatrix(residue(m11), residue(m12), residue(m21), residue(m22))


def _directional(val: complex, kind: str) -> float:
    if kind == TRANSLATION:
        return float(val.real)
    if kind == ROTATION:
        return float(-val.imag)
    raise DomainError("kind must be 'translation' or 'rotation'")


def flux_for_geodesic(t: FluxTriple, g: Geodesic, kind: str) -> float:
    """Closed-form flux from the residue triple.

    Finite endpoints (C, D) use (phi2 C D + phi1 (C+D) + phi0)/(C-D);
    an infinite endpoint uses the limit -(phi1 + phi2 C), with the
    start-at-infinity case resolved by antisymmetry.
    """
    c, d = g.start, g.end
    if is_inf(c):
        return -flux_for_geodesic(t, g.reversed(), kind)
    c = complex(c)
    if is_inf(d):
        return _directional(-(t.phi1 + t.phi2 * c), kind)
    d = complex(d)
    val = (t.phi2 * c * d + t.phi1 * (c + d) + t.phi0) / (c - d)
    return _directional(val, kind)


# -- end-type closed forms --------------------------------------------------

def catenoidal_closed_form(mu: float, axis_from: ExtendedComplex,
                           boundary: ExtendedComplex, g: Geodesic,
                           kind: str) -> float:
    """Flux of a catenoidal end via the cross-ratio (A, C, D, B)."""
    x = cross_ratio(axis_from, g.start, g.end, boundary)
    sigma = 1.0 - mu * mu
    if kind == TRANSLATION:
        return math.pi * sigma * (2.0 * x.real - 1.0)
    if kind == ROTATION:
        return -2.0 * math.pi * sigma * x.imag
    raise DomainError("kind must be 'translation' or 'rotation'")


def horospherical_closed_form(kappa: complex, boundary: ExtendedComplex,
                              g: Geodesic, kind: str) -> float:
    """Flux of a horospherical end with coefficient kappa at ``boundary``."""
    c, d = g.start, g.end
    if is_inf(boundary):
        if is_inf(c) or is_inf(d):
            val = 0.0 + 0.0j
        else:
            val = kappa / (complex(c) - complex(d))
    else:
        b = complex(boundary)
        if is_inf(c):
            val = kappa * (complex(d) - b)
        elif is_inf(d):
            val = -kappa * (complex(c) - b)
        else:
            val = kappa * (complex(c) - b) * (complex(d) - b) \
                / (complex(c) - complex(d))
    if kind == TRANSLATION:
        return float(-2.0 * math.pi * val.real)
    if kind == ROTATION:
        return float(2.0 * math.pi * val.imag)
    raise DomainError("kind must be 'translation' or 'rotation'")


def catenoidal_polynomial(sigma: float, axis_from: ExtendedComplex,
                          boundary: ExtendedComplex) -> FluxPolynomial:
    """Pi(X) = 2 pi sigma (X - A)(X - B)/(B - A), sigma = 1 - mu^2.

    An infinite A or B degrades the degree per the stated limit
    conventions.
    """
    scale = 2.0 * math.pi * sigma
    a, b = axis_from, boundary
    if is_inf(a) and is_inf(b):
        raise DomainError("catenoidal axis endpoints must be distinct")
    if is_inf(a):
        return FluxPolynomial(0.0, scale, -scale * complex(b))
    if is_inf(b):
        return FluxPolynomial(0.0, -scale, scale * complex(a))
    a, b = complex(a), complex(b)
    f = scale / (b - a)
    return FluxPolynomial(f, -f * (a + b), f * a * b)


def horospherical_polynomial(kappa: complex,
                             boundary: ExtendedComplex) -> FluxPolynomial:
    """Pi(X) = -2 pi kappa (X - B)^2, constant -2 pi kappa when B = inf."""
    scale = -2.0 * math.pi * kappa
    if is_inf(boundary):
        return FluxPolynomial(0.0, 0.0, scale)
    b = complex(boundary)
    return FluxPolynomial(scale, -2.0 * scale * b, scale * b * b)


# -- numerical quadrature route ---------------------------------------------

@dataclass(frozen=True)
class CircleSamples:
    """Immersion values and derivatives on one circle, reusable across
    Killing fields."""

    rho: float
    taus: np.ndarray
    zeta: np.ndarray
    w: np.ndarray
    dzeta_drho: np.ndarray
    dw_drho: np.ndarray
    dzeta_dtau: np.ndarray
    dw_dtau: np.ndarray


def circle_samples(frame: BryantFrame, grid: QuadratureGrid) -> CircleSamples:
    """Sample X = (zeta, w) on |z| = rho with radial and angular derivatives.

    Each entry E and its term-wise derivative E' are evaluated once; E
    moves by e^(i tau) E'(z) along rho and by i z E'(z) along tau, and
    the chain rule carries this exactly through zeta and w.
    """
    rho, taus = grid.rho, grid.taus
    _check_radius(frame, rho)
    a, b, c, d = (eval_at(e, rho, taus) for e in frame.entries())
    da, db, dc, dd = (eval_at(differentiate(e), rho, taus)
                      for e in frame.entries())
    zeta, w = _zeta_w(a, b, c, d)

    def moved_by(f):
        # (d zeta, d w) when each entry E moves by f E'.
        ua, ub, uc, ud = f * da, f * db, f * dc, f * dd
        dsum = 2.0 * np.real(np.conj(a) * ua + np.conj(b) * ub)
        dnum = np.conj(ua) * c + np.conj(a) * uc + np.conj(ub) * d \
            + np.conj(b) * ud
        return w * (dnum - zeta * dsum), -w * w * dsum

    unit = np.exp(1j * taus)
    dzeta_drho, dw_drho = moved_by(unit)
    dzeta_dtau, dw_dtau = moved_by(1j * rho * unit)
    return CircleSamples(rho, taus, zeta, w, dzeta_drho, dw_drho,
                         dzeta_dtau, dw_dtau)


ShiftFn = Callable[[np.ndarray, np.ndarray], tuple]


def flux_from_samples(samples: CircleSamples, k: KillingField,
                      potential_shift: Optional[ShiftFn] = None) -> float:
    """Trapezoid quadrature of -rho<d_rho X, Y> + 2<d_tau X, Z> over the circle."""
    zeta, w = samples.zeta, samples.w
    ya, yb = vector_samples(k, zeta, w)
    za, zb = potential_samples(k, zeta, w)
    if potential_shift is not None:
        sa, sb = potential_shift(zeta, w)
        za = za + sa
        zb = zb + sb
    inner_rho = (np.real(np.conj(samples.dzeta_drho) * ya)
                 + samples.dw_drho * yb) / w ** 2
    inner_tau = (np.real(np.conj(samples.dzeta_dtau) * za)
                 + samples.dw_dtau * zb) / w ** 2
    integrand = -samples.rho * inner_rho + 2.0 * inner_tau
    return float(np.sum(integrand) * (2.0 * math.pi / len(integrand)))


def flux_numeric(frame: BryantFrame, k: KillingField, grid: QuadratureGrid,
                 potential_shift: Optional[ShiftFn] = None) -> float:
    """The quadrature oracle; no residue machinery on this path."""
    return flux_from_samples(circle_samples(frame, grid), k, potential_shift)


# -- serialization ----------------------------------------------------------

def flux_result_json(t: FluxTriple, value: Optional[float] = None) -> dict:
    poly = FluxPolynomial.from_triple(t)
    out = {
        "phi0": [t.phi0.real, t.phi0.imag],
        "phi1": [t.phi1.real, t.phi1.imag],
        "phi2": [t.phi2.real, t.phi2.imag],
        "polynomial_roots": [[r.real, r.imag] for r in poly.roots()],
    }
    if value is not None:
        out["value"] = value
    return out
