"""Bryant frames: their checks, isometries and JSON form.

A frame is a 2x2 matrix of generalized series (A, B; C, D) with
AD - BC = 1 and dA dD - dB dC = 0.  The immersion into the half-space
model is

    zeta = (conj(A) C + conj(B) D) / (|A|^2 + |B|^2),   w = 1 / (|A|^2 + |B|^2),

which _zeta_w forms from the entries' values; flux.circle_samples and
the CLI's mesh evaluate the entries with series.eval_branch.  The three
single-valued one-forms B dA - A dB, C dB - D dA and D dC - C dD carry
all flux information (flux.flux_triple reads their residues).  Note that
the middle one is C dB - D dA (= omega_sharp / G); the variant
C dB - B dA sometimes seen in the literature does not satisfy that
identity.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConsistencyError, DomainError
from .geometry import IsometrySL2
from .series import (GeneralizedSeries, _derivative_terms, _product_terms,
                     _sum_terms)

log = logging.getLogger("bryantflux")


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


def _identity_terms(frame: BryantFrame,
                    omega: Optional[GeneralizedSeries] = None,
                    scale: bool = False):
    """The residual series of AD - BC = 1, dA dD - dB dC = 0 and, when
    ``omega`` is given, A dC - C dA = omega, each as its window: the
    coefficients below the truncation top, which the identities are held
    to.

    One pass over bare arrays: each entry's derivative is formed once,
    and the six products and the differences follow the rules of series
    arithmetic with the operands in the formulas' order, so each residual
    is bitwise that of the formula written in GeneralizedSeries.  With
    ``scale``, every operand's coefficients are replaced by their moduli,
    each difference by a sum and the 1 and omega by zeros, which gives,
    aligned and truncated as the residual, the coefficient-wise size
    |x| * |y| + |u| * |v| of the two products x y and u v that cancel in
    it.
    """
    A, B, C, D = ((e.offset, e.coeffs) for e in frame.entries())
    dA, dB, dC, dD = (_derivative_terms(*x) for x in (A, B, C, D))
    quads = [(A, D, B, C), (dA, dD, dB, dC)]
    if omega is not None:
        quads.append((A, dC, C, dA))
    if scale:
        quads = [[(o, np.abs(c)) for o, c in q] for q in quads]

    def minus(x, y):
        return _sum_terms(*x, y[0], y[1] if scale else -y[1])

    (ad, bc), (dadd, dbdc), *om = [
        (_product_terms(*w, *x), _product_terms(*y, *z))
        for w, x, y, z in quads]
    det = minus(ad, bc)
    unit = np.zeros(len(det[1]) + abs(round(det[0])), dtype=complex)
    unit[0] = 0.0 if scale else 1.0
    terms = [minus(det, (0.0, unit)), minus(dadd, dbdc)]
    if omega is not None:
        target = np.zeros_like(omega.coeffs) if scale else omega.coeffs
        terms.append(minus(minus(*om[0]), (omega.offset, target)))
    return [c[:max(len(c) - 1, 1)] for _, c in terms]


def _defects(windows):
    """(det, null, omega) defects, the largest modulus in each residual
    window (_identity_terms); omega is None when its window is absent."""
    det, null, *om = (float(np.max(np.abs(w))) for w in windows)
    return det, null, (om[0] if om else None)


def _frame_defects(frame: BryantFrame,
                   omega: Optional[GeneralizedSeries] = None):
    """(det, null, omega) defects: max residual coefficients below the
    truncation top of AD - BC = 1, dA dD - dB dC = 0 and, when the one-form
    ``omega`` is given, A dC - C dA = omega (else None)."""
    return _defects(_identity_terms(frame, omega))


def frame_checks(frame: BryantFrame):
    """(det defect, nullity defect): max residual coefficients of the
    identities AD - BC = 1 and dA dD - dB dC = 0 below the truncation top."""
    return _frame_defects(frame)[:2]


def _refused(defects, windows, frame: BryantFrame,
             omega: Optional[GeneralizedSeries]):
    """For each defect and its residual window, whether it fails the bar.
    A defect within 1e-8 passes.  Past that, each residual coefficient in
    the window must be within 1e-8 times max(1, the same coefficient of
    the scale series), the size of the two products that cancel in it
    (_identity_terms), so no coefficient can excuse another.  The scales
    are formed only when a defect exceeds 1e-8, so frames that meet the
    absolute bar cost nothing more.  A residual or scale that is not
    finite fails."""
    if all(d is None or d <= 1e-8 for d in defects):
        return [False] * len(defects)
    out = []
    for d, r, s in zip(defects, windows,
                       _identity_terms(frame, omega, scale=True)):
        bar = 1e-8 * np.maximum(1.0, s.real)
        out.append(not (d <= 1e-8 or (np.isfinite(bar).all() and bool(
            (np.abs(r) <= bar).all()))))
    return out


def checked_frame(frame: BryantFrame,
                  omega: Optional[GeneralizedSeries] = None) -> BryantFrame:
    """``frame``, or ConsistencyError if a frame_checks defect or, when
    the one-form ``omega`` is given, the defect of A dC - C dA = omega
    exceeds 1e-8 and some residual coefficient also exceeds 1e-8 times
    the same coefficient of the two products that cancel in it
    (_refused).  A frame moved far from the origin has products of 1e7
    and more, whose cancellation leaves defects above 1e-8 in round-off
    alone."""
    windows = _identity_terms(frame, omega)
    det, null, om = _defects(windows)
    if omega is not None:
        log.debug("frame defects: det %.3e, null %.3e, omega %.3e; "
                  "validity radius %g", det, null, om, frame.validity_radius)
    bad_det, bad_null, *bad_om = _refused((det, null, om), windows, frame,
                                          omega)
    if bad_det or bad_null:
        raise ConsistencyError("frame violates AD - BC = 1 or dA dD - dB dC "
                               "= 0 (defects %.3e, %.3e)" % (det, null))
    if any(bad_om):
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


def transform_frame(p: IsometrySL2, frame: BryantFrame) -> BryantFrame:
    """Left-multiply the frame by P; the new end is the image of the old
    one under the direct isometry induced by P.  An entry whose partner's
    coefficient is exactly 0 keeps its own offset and order: it is not
    re-based at the partner's lower offset, which would drop its top
    coefficient."""
    A, B, C, D = frame.entries()

    def combine(s, x, t, y):
        """s x + t y, summed as series addition does, as one series; s x
        alone, at x's offset and order, when t is 0."""
        if t == 0:
            return GeneralizedSeries(x.offset, x.coeffs * s)
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
