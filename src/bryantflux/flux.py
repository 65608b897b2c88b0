"""Flux computations: residue triple, polynomial, matrix, closed forms,
and the independent quadrature route.

Three equivalent encodings of the flux data of an end are provided: the
triple (phi0, phi1, phi2) of 4*pi-scaled residues, the quadratic
polynomial Pi(X) = phi2 X^2 + 2 phi1 X + phi0, and the matrix
Phi = Res(-(dF) F^-1).  Each residue of the triple and the matrix is a
difference of two residues of entry products, and each of those is read
from the few leading coefficients that reach z^-1
(series.product_residue): no product series is formed.  flux_numeric
integrates the defining boundary integral by the trapezoid rule on one
circle |z| = rho, with exact derivatives, and shares no residue
machinery with the other routes; it is the oracle the residue formulas
are tested against.  The nodes are rho times the N-th roots of unity, so
the four frame entries and their term-wise derivatives are evaluated
there as one block by one inverse FFT (series.eval_branch), in
O(N log N) rather than O(N K) per entry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bryant import BryantFrame, _check_radius, _zeta_w
from .errors import ConsistencyError, DomainError
from .geometry import ExtendedComplex, Geodesic, bracket, cross_ratio, \
    homogeneous
from .killing import ROTATION, TRANSLATION, KillingField, potential_samples, \
    vector_samples
from .series import (QuadratureGrid, differentiate, eval_branch,
                     product_residue)


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
        # np.max carries a NaN entry into the scale, and the test is
        # written so that a NaN fails it
        scale = np.max(np.abs([self.m11, self.m12, self.m21, self.m22, 1.0]))
        if not abs(self.m11 + self.m22) <= 1e-10 * scale:
            raise ConsistencyError("flux matrix must be trace-free "
                                   "(trace %.3e)" % abs(self.m11 + self.m22))


def _difference_residue(a, b, c, d) -> complex:
    """residue(a * b - c * d) by product_residue; 0, as from the series
    difference, when z^-1 lies past either product's truncation."""
    # Residues first, so that a non-integer offset raises before the test.
    res = product_residue(a, b) - product_residue(c, d)
    if -1 - round(a.offset + b.offset) > min(a.order, b.order) \
            or -1 - round(c.offset + d.offset) > min(c.order, d.order):
        return 0.0 + 0.0j
    return res


def _scaled_residues(scale: float, quads) -> list:
    """scale * residue(a * b - c * d) for each (a, b, c, d) of ``quads``;
    DomainError when one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = [scale * _difference_residue(*q) for q in quads]
    if not all(cmath.isfinite(r) for r in res):
        raise DomainError("the flux residues overflow: they are not finite")
    return res


def flux_triple(frame: BryantFrame) -> FluxTriple:
    """4*pi residues of D dC - C dD, C dB - D dA, B dA - A dB.

    Each residue is read from the few leading coefficients that reach
    z^-1 (series.product_residue); the one-forms are never formed.  A
    residue that overflows raises DomainError.
    """
    A, B, C, D = frame.entries()
    dA, dB, dC, dD = map(differentiate, frame.entries())
    return FluxTriple(*_scaled_residues(4.0 * math.pi, (
        (D, dC, C, dD), (C, dB, D, dA), (B, dA, A, dB))))


def flux_matrix(frame: BryantFrame) -> FluxMatrix:
    """Residue of -(dF) F^-1, entry-wise from product_residue.  A residue
    that overflows raises DomainError."""
    A, B, C, D = frame.entries()
    dA, dB, dC, dD = map(differentiate, frame.entries())
    # F^-1 = (D, -B; -C, A) since det F = 1.
    return FluxMatrix(*_scaled_residues(-1.0, (
        (dA, D, dB, C), (dB, A, dA, B), (dC, D, dD, C), (dD, A, dC, B))))


def _directional(val: complex, kind: str) -> float:
    if kind == TRANSLATION:
        return float(val.real)
    if kind == ROTATION:
        return float(-val.imag)
    raise DomainError("kind must be 'translation' or 'rotation'")


def flux_for_geodesic(t: FluxTriple, g: Geodesic, kind: str) -> float:
    """Closed-form flux from the residue triple.

    On the homogeneous endpoints c = (c0, c1) and d = (d0, d1) the
    value is (phi2 c0 d0 + phi1 (c0 d1 + c1 d0) + phi0 c1 d1) / [c, d]:
    (phi2 C D + phi1 (C+D) + phi0)/(C-D) for finite C and D, and its
    limits -(phi1 + phi2 C) at D = inf and phi1 + phi2 D at C = inf.
    """
    c, d = homogeneous(g.start), homogeneous(g.end)
    val = (t.phi2 * c[0] * d[0] + t.phi1 * (c[0] * d[1] + c[1] * d[0])
           + t.phi0 * c[1] * d[1]) / bracket(c, d)
    return _directional(val, kind)


# -- end-type closed forms --------------------------------------------------

def catenoidal_closed_form(mu: float, axis_from: ExtendedComplex,
                           boundary: ExtendedComplex, g: Geodesic,
                           kind: str) -> float:
    """Flux of a catenoidal end via the cross-ratio (A, C, D, B)."""
    x = cross_ratio(axis_from, g.start, g.end, boundary)
    return _directional(math.pi * (1.0 - mu * mu) * (2.0 * x - 1.0), kind)


def horospherical_closed_form(kappa: complex, boundary: ExtendedComplex,
                              g: Geodesic, kind: str) -> float:
    """Flux of a horospherical end with coefficient kappa at ``boundary``,
    read by _directional from -2 pi kappa [C, B][D, B] / [C, D] for the
    geodesic from C to D: kappa [C, B][D, B] / [C, D] is
    kappa / (C - D) at B = inf and 0 when C or D is B."""
    b, c, d = map(homogeneous, (boundary, g.start, g.end))
    val = kappa * bracket(c, b) * bracket(d, b) / bracket(c, d)
    return _directional(-2.0 * math.pi * val, kind)


def _pair_polynomial(f: complex, p, q) -> FluxPolynomial:
    """f (p1 X - p0)(q1 X - q0) for homogeneous points p and q:
    f (X - P)(X - Q) for finite P and Q, of lower degree when either is
    infinite."""
    return FluxPolynomial(f * p[1] * q[1], -f * (p[0] * q[1] + p[1] * q[0]),
                          f * p[0] * q[0])


def catenoidal_polynomial(sigma: float, axis_from: ExtendedComplex,
                          boundary: ExtendedComplex) -> FluxPolynomial:
    """Pi(X) = 2 pi sigma (X - A)(X - B)/[B, A], sigma = 1 - mu^2:
    (X - A)(X - B)/(B - A) for finite A and B, X - B at A = inf and
    -(X - A) at B = inf."""
    a, b = homogeneous(axis_from), homogeneous(boundary)
    den = bracket(b, a)
    if den == 0:
        raise DomainError("catenoidal axis endpoints must be distinct")
    return _pair_polynomial(2.0 * math.pi * sigma / den, a, b)


def horospherical_polynomial(kappa: complex,
                             boundary: ExtendedComplex) -> FluxPolynomial:
    """Pi(X) = -2 pi kappa (X - B)^2, constant -2 pi kappa when B = inf."""
    b = homogeneous(boundary)
    return _pair_polynomial(-2.0 * math.pi * kappa, b, b)


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

    The four entries E and their term-wise derivatives E' are evaluated
    as one 8-row block by one inverse FFT on the roots of unity
    (series.eval_branch).  E moves by e^(i tau) E'(z) along rho and by
    i z E'(z) along tau, and the chain rule carries this exactly through
    zeta and w.  A sample that overflows or is not finite raises
    DomainError.
    """
    rho, taus = grid.rho, grid.taus
    _check_radius(frame, rho)
    entries = frame.entries()
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c, d, da, db, dc, dd = eval_branch(
            entries + tuple(map(differentiate, entries)), grid)
        zeta, w = _zeta_w(a, b, c, d)

        def moved_by(f):
            # (d zeta, d w) when each entry E moves by f E'.
            ua, ub, uc, ud = f * da, f * db, f * dc, f * dd
            dsum = 2.0 * np.real(np.conj(a) * ua + np.conj(b) * ub)
            dnum = np.conj(ua) * c + np.conj(a) * uc + np.conj(ub) * d \
                + np.conj(b) * ud
            return w * (dnum - zeta * dsum), -w * w * dsum

        unit = np.exp(1j * taus)
        derivs = moved_by(unit) + moved_by(1j * rho * unit)
    # A non-finite entry value reaches zeta, w or a derivative, so the
    # returned arrays cover the block as well as overflow after it.
    if not all(np.isfinite(x).all() for x in (zeta, w) + derivs):
        raise DomainError("samples on |z| = %g are not finite" % rho)
    return CircleSamples(rho, taus, zeta, w, *derivs)


def flux_from_samples(samples: CircleSamples, k: KillingField) -> float:
    """Trapezoid quadrature of -rho<d_rho X, Y> + 2<d_tau X, Z> over the circle."""
    zeta, w = samples.zeta, samples.w
    ya, yb = vector_samples(k, zeta, w)
    za, zb = potential_samples(k, zeta, w)
    inner_rho = (np.real(np.conj(samples.dzeta_drho) * ya)
                 + samples.dw_drho * yb) / w ** 2
    inner_tau = (np.real(np.conj(samples.dzeta_dtau) * za)
                 + samples.dw_dtau * zb) / w ** 2
    integrand = -samples.rho * inner_rho + 2.0 * inner_tau
    return float(np.sum(integrand) * (2.0 * math.pi / len(integrand)))


def flux_numeric(frame: BryantFrame, k: KillingField,
                 grid: QuadratureGrid) -> float:
    """The quadrature oracle; no residue machinery on this path."""
    return flux_from_samples(circle_samples(frame, grid), k)


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
