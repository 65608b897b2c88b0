"""Bryant frames and the holomorphic objects derived from them.

A frame is a 2x2 matrix of generalized series (A, B; C, D) with
AD - BC = 1 and dA dD - dB dC = 0.  The immersion into the half-space
model is

    zeta = (conj(A) C + conj(B) D) / (|A|^2 + |B|^2),   w = 1 / (|A|^2 + |B|^2).

The three single-valued one-forms B dA - A dB, C dB - D dA and
D dC - C dD carry all flux information.  Note that the middle one is
C dB - D dA (= omega_sharp / G); the variant C dB - B dA sometimes seen
in the literature does not satisfy that identity.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConsistencyError, DomainError
from .geometry import HPoint, IsometrySL2
from .series import (GeneralizedSeries, QuadratureGrid, _derivative_terms,
                     _product_terms, _sum_terms, differentiate, eval_at)

log = logging.getLogger("bryantflux")


@dataclass(frozen=True)
class WeierstrassData:
    """Holomorphic end data g = z^mu f(z), omega = z^nu h(z) dz."""

    mu: float
    nu: float
    h: GeneralizedSeries
    f: Optional[GeneralizedSeries] = None

    def __post_init__(self):
        if not self.mu > 0:
            raise DomainError("admissibility requires mu > 0")
        if self.nu > -1:
            raise DomainError("admissibility requires nu <= -1")
        s = self.mu + self.nu
        if abs(s - round(s)) > 1e-9:
            raise DomainError("admissibility requires mu + nu integral")
        if round(s) < -1:
            raise DomainError("admissibility requires mu + nu >= -1")
        if self.h.offset != 0.0 or abs(self.h.coeffs[0]) == 0.0:
            raise DomainError("h must be holomorphic with h(0) != 0")
        if self.f is not None:
            if self.f.offset != 0.0 or abs(self.f.coeffs[0]) == 0.0:
                raise DomainError("f must be holomorphic with f(0) != 0")

    @property
    def degree_sum(self) -> int:
        return round(self.mu + self.nu)


@dataclass(frozen=True)
class BryantFrame:
    """Entries of the holomorphic null immersion, plus a declared radius.

    The validity radius is the caller's statement of where the entry
    series may be evaluated; no convergence estimation is attempted.
    """

    A: GeneralizedSeries
    B: GeneralizedSeries
    C: GeneralizedSeries
    D: GeneralizedSeries
    validity_radius: float

    def __post_init__(self):
        if not self.validity_radius > 0:
            raise DomainError("validity radius must be positive")

    def entries(self):
        return self.A, self.B, self.C, self.D


@dataclass(frozen=True)
class HolomorphicForms:
    """Derived holomorphic data of a frame.

    ``form_b``, ``form_m``, ``form_d`` are the dz-coefficients of
    B dA - A dB, C dB - D dA and D dC - C dD respectively.
    """

    gauss: GeneralizedSeries
    hopf: GeneralizedSeries
    omega_sharp: GeneralizedSeries
    form_b: GeneralizedSeries
    form_m: GeneralizedSeries
    form_d: GeneralizedSeries


def _frame_defects(frame: BryantFrame,
                   omega: Optional[GeneralizedSeries] = None):
    """(det, null, omega) defects: max residual coefficients below the
    truncation top of AD - BC = 1, dA dD - dB dC = 0 and, when the one-form
    ``omega`` is given, A dC - C dA = omega (else None).

    One pass over (offset, coeffs) pairs: each entry's derivative is formed
    once, and the six products and the differences follow the rules of
    series arithmetic with the operands in the formulas' order, so each
    defect is bitwise that of the formula written in GeneralizedSeries.
    """
    def times(x, y):
        return _product_terms(*x, *y)

    def minus(x, y):
        return _sum_terms(*x, y[0], -y[1])

    def defect(r):
        return float(np.max(np.abs(r[1][:max(len(r[1]) - 1, 1)])))

    A, B, C, D = ((e.offset, e.coeffs) for e in frame.entries())
    dA, dB, dC, dD = (_derivative_terms(*x) for x in (A, B, C, D))
    det = minus(times(A, D), times(B, C))
    unit = np.zeros(len(det[1]) + abs(round(det[0])), dtype=complex)
    unit[0] = 1.0
    det = defect(minus(det, (0.0, unit)))
    null = defect(minus(times(dA, dD), times(dB, dC)))
    if omega is None:
        return det, null, None
    return det, null, defect(minus(minus(times(A, dC), times(C, dA)),
                                   (omega.offset, omega.coeffs)))


def frame_checks(frame: BryantFrame):
    """(det defect, nullity defect): max residual coefficients of the
    identities AD - BC = 1 and dA dD - dB dC = 0 below the truncation top."""
    return _frame_defects(frame)[:2]


def checked_frame(frame: BryantFrame,
                  omega: Optional[GeneralizedSeries] = None) -> BryantFrame:
    """``frame``, or ConsistencyError if a frame_checks defect exceeds 1e-8
    or, when the one-form ``omega`` is given, if the defect of
    A dC - C dA = omega does."""
    det, null, om = _frame_defects(frame, omega)
    if omega is not None:
        log.debug("frame defects: det %.3e, null %.3e, omega %.3e; "
                  "validity radius %g", det, null, om, frame.validity_radius)
    if not (det <= 1e-8 and null <= 1e-8):
        raise ConsistencyError("frame violates AD - BC = 1 or dA dD - dB dC "
                               "= 0 (defects %.3e, %.3e)" % (det, null))
    if omega is not None and not om <= 1e-8:
        raise ConsistencyError(
            "frame violates omega = A dC - C dA (defect %.3e)" % om)
    return frame


def _check_radius(frame: BryantFrame, rho: float):
    if rho >= frame.validity_radius:
        raise DomainError("evaluation radius %g outside declared validity %g"
                          % (rho, frame.validity_radius))


def _zeta_w(a, b, c, d):
    w = 1.0 / (np.abs(a) ** 2 + np.abs(b) ** 2)
    return (np.conj(a) * c + np.conj(b) * d) * w, w


def immersion_samples(frame: BryantFrame, rho: float, taus: np.ndarray):
    """(zeta, w) arrays on |z| = rho via branch-tracked evaluation."""
    _check_radius(frame, rho)
    return _zeta_w(*(eval_at(e, rho, taus) for e in frame.entries()))


def immersion(frame: BryantFrame, grid: QuadratureGrid):
    """The immersed loop as half-space points (closed up to truncation)."""
    zeta, w = immersion_samples(frame, grid.rho, grid.taus)
    return [HPoint(z, wv) for z, wv in zip(zeta, w)]


def one_forms(frame: BryantFrame):
    """dz-coefficients of B dA - A dB, C dB - D dA, D dC - C dD.

    Formed in full for derived_forms and as the tests' reference for
    flux.flux_triple, which reads the same residues without forming
    these products."""
    A, B, C, D = frame.entries()
    dA, dB, dC, dD = map(differentiate, frame.entries())
    return (B * dA - A * dB, C * dB - D * dA, D * dC - C * dD)


def derived_forms(frame: BryantFrame,
                  weier: Optional[WeierstrassData] = None) -> HolomorphicForms:
    """Gauss map, Hopf differential, omega_sharp and the three one-forms.

    The Gauss map is G = dC/dA.  When Weierstrass data is supplied the
    Hopf differential is built from it (omega dg); otherwise it is
    recovered from the frame through -(B dA - A dB) dG.
    """
    A, B, C, D = frame.entries()
    dA = differentiate(A)
    if dA.is_zero(1e-300):
        raise DomainError("Gauss map undefined: dA vanishes identically")
    gauss = differentiate(C) / dA
    fb, fm, fd = one_forms(frame)
    omega_sharp = -fd
    if weier is not None:
        mu, nu = weier.mu, weier.nu
        if weier.f is None:
            # omega dg = mu z^(mu+nu-1) h dz^2
            hopf = GeneralizedSeries(nu + mu - 1.0, mu * weier.h.coeffs)
        else:
            dg = differentiate(GeneralizedSeries(mu, weier.f.coeffs))
            hopf = GeneralizedSeries(nu, weier.h.coeffs) * dg
    else:
        # omega dg = omega_sharp dG / G^2 = -(B dA - A dB) dG
        hopf = -(fb * differentiate(gauss))
    return HolomorphicForms(gauss=gauss, hopf=hopf, omega_sharp=omega_sharp,
                            form_b=fb, form_m=fm, form_d=fd)


def transform_frame(p: IsometrySL2, frame: BryantFrame) -> BryantFrame:
    """Left-multiply the frame by P; the new end is the image of the old
    one under the direct isometry induced by P."""
    A, B, C, D = frame.entries()

    def combine(s, x, t, y):
        """s x + t y, summed as series addition does, as one series."""
        return GeneralizedSeries(*_sum_terms(x.offset, x.coeffs * s,
                                             y.offset, y.coeffs * t))

    return BryantFrame(
        A=combine(p.alpha, A, p.beta, C),
        B=combine(p.alpha, B, p.beta, D),
        C=combine(p.gamma, A, p.delta, C),
        D=combine(p.gamma, B, p.delta, D),
        validity_radius=frame.validity_radius,
    )


# -- JSON interchange -------------------------------------------------------

def _series_to_json(s: GeneralizedSeries):
    return {"offset": s.offset,
            "coeffs": [[c.real, c.imag] for c in s.coeffs]}


def _series_from_json(obj) -> GeneralizedSeries:
    coeffs = [complex(re, im) for re, im in obj["coeffs"]]
    return GeneralizedSeries.from_coeffs(obj["offset"], coeffs)


def frame_to_json(frame: BryantFrame) -> str:
    return json.dumps({
        "A": _series_to_json(frame.A),
        "B": _series_to_json(frame.B),
        "C": _series_to_json(frame.C),
        "D": _series_to_json(frame.D),
        "validity_radius": frame.validity_radius,
    })


def frame_from_json(text: str) -> BryantFrame:
    obj = json.loads(text)
    return checked_frame(BryantFrame(
        A=_series_from_json(obj["A"]),
        B=_series_from_json(obj["B"]),
        C=_series_from_json(obj["C"]),
        D=_series_from_json(obj["D"]),
        validity_radius=float(obj["validity_radius"]),
    ))
