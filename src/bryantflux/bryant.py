"""Bryant frames: their checks, isometries and JSON form.

A frame is a 2x2 matrix of generalized series (A, B; C, D) with
AD - BC = 1 and dA dD - dB dC = 0.  Left multiplication by P in
SL(2, C), which moves the end by an isometry, mixes A with C and B with
D, so a frame's unit is a column, and BryantFrame stores its two
columns, ((offset, A, C), (offset, B, D)), as bare coefficient arrays:
each pair at the column's lower offset and truncated at its lower
absolute top, the rule of series addition (series._aligned).
_columns is the one place that aligns, from the entries' bare arrays:
the constructor, which takes the four entries as series, aligns by it,
and so does ends, from the rows of a solve, with no series for an
entry; from_columns takes columns that are aligned already, and A to D
are series on the columns' arrays, for callers: the package reads none.
Placing a frame (transform_frame), writing it (frame_to_json) and
reading its residues (flux.flux_triple) then combine the columns'
arrays index by index, with no intermediate series: transform_frame
places each column by one broadcast of P's two columns against the
column's two arrays.  _frame_rows is the one layout of a frame's rows:
A, C, B, D and then their term-wise derivatives dA, dC, dB, dD, written
into one array that the caller gives, as wide as it chooses, by one
product for the derivatives; the frame checks, flux.flux_triple,
flux._entry_block and the CLI's mesh all read it.  Checking a frame
(checked_frame, by _identity_terms) refuses a coefficient that is not
finite, wherever it lies, and then forms, for each product of an
identity, only the coefficients that the identity's window keeps, each
by one np.convolve of zero-padded leading coefficients, into one
residual array that holds the three windows end to end, from which one
reduction reads the three defects (_defects): the residuals agree with
the same formulas in series arithmetic within the round-off of a dot
product, since the same terms are summed in another order, and are not
bitwise equal to them.  The immersion into the half-space model is

    zeta = (conj(A) C + conj(B) D) / (|A|^2 + |B|^2),   w = 1 / (|A|^2 + |B|^2),

which _zeta_w forms from the entries' values; flux.circle_samples and
the CLI's mesh evaluate the frame's rows with series.eval_branch, which
drops each value's branch factor e^(i lambda tau).  zeta and w need none:
each of their products is of two entries of one column, at one offset,
whose factors cancel.  The three single-valued one-forms B dA - A dB,
C dB - D dA and D dC - C dD carry all flux information
(flux.flux_triple reads their residues).  Note that the middle one is
C dB - D dA (= omega_sharp / G); the variant C dB - B dA sometimes seen
in the literature does not satisfy that identity.
"""

from __future__ import annotations

import json
import logging
import math
from typing import Optional

import numpy as np

from .errors import ConsistencyError, DomainError
from .geometry import IsometrySL2, parse_complex, parse_real
from .series import GeneralizedSeries, _aligned, _derivative_factors, _snap

log = logging.getLogger("bryantflux")


class BryantFrame:
    """A frame's two columns, ((offset, A, C), (offset, B, D)), each pair
    of coefficient arrays of one length at one offset, plus a declared
    radius.

    The constructor takes the entries as series and aligns each column
    by the rule of series addition (series._aligned): an entry already in
    place keeps its array.  from_columns takes columns that are aligned
    already, as they are.  A to D and entries() are series on the
    columns' arrays, not copies.  The validity radius is the caller's
    statement of where the entry series may be evaluated; no convergence
    estimation is attempted.  Frames compare and hash by identity.
    """

    __slots__ = ("columns", "validity_radius")

    def __init__(self, A, B, C, D, validity_radius: float):
        if not validity_radius > 0:
            raise DomainError("validity radius must be positive")
        entries = A, B, C, D
        self.columns = _columns([e.offset for e in entries],
                                [e.coeffs for e in entries])
        self.validity_radius = validity_radius

    @classmethod
    def from_columns(cls, columns, validity_radius: float) -> "BryantFrame":
        """The frame of aligned ``columns`` and a positive radius, with
        neither copied nor checked."""
        frame = cls.__new__(cls)
        frame.columns, frame.validity_radius = columns, validity_radius
        return frame

    # An entry is its column's offset with the column's first or second
    # array: (o, x, y)[:2] is (o, x) and (o, x, y)[::2] is (o, y).
    A = property(lambda self: GeneralizedSeries(*self.columns[0][:2]))
    B = property(lambda self: GeneralizedSeries(*self.columns[1][:2]))
    C = property(lambda self: GeneralizedSeries(*self.columns[0][::2]))
    D = property(lambda self: GeneralizedSeries(*self.columns[1][::2]))

    def entries(self):
        return self.A, self.B, self.C, self.D


def _columns(offsets, entries):
    """The columns ((offset, A, C), (offset, B, D)) of the entries A, B,
    C, D, given as coefficient arrays at ``offsets``: each pair aligned
    by the rule of series addition (series._aligned), where an entry
    already in place keeps its array."""
    (o1, (a, c)), (o2, (b, d)) = (
        _aligned(offsets[0], entries[0], offsets[2], entries[2], "column AC"),
        _aligned(offsets[1], entries[1], offsets[3], entries[3], "column BD"))
    return (o1, a, c), (o2, b, d)


def _check_finite(what: str, *arrays: np.ndarray):
    """DomainError naming the overflow when a coefficient of the arrays
    is not finite.  Several arrays are checked as one: one concatenation
    costs less than a check per array at the lengths of a frame."""
    x = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    if not np.isfinite(x).all():
        raise DomainError("%s overflows: its coefficients are not finite"
                          % what)


def _frame_rows(columns, out: np.ndarray) -> tuple:
    """The offsets of the frame rows A, C, B, D, dA, dC, dB, dD, which it
    writes into out[:8] from the columns ((o1, A, C), (o2, B, D)): each
    entry's leading coefficients, as many as a row of ``out`` holds, and
    the term-wise derivatives of those rows, by one product with the
    factors (offset + k) (series._derivative_factors), as differentiate
    forms them.  A derivative's offset is _snap(offset - 1.0), as
    differentiate's is.  The terms of a row past its entry's length are
    left as the caller gave them, zeros where rows of a shorter column
    are padded.  It holds no np.errstate: a caller that must not warn
    holds one or checks the columns finite first.  The one place that
    lays out and differentiates a frame's rows."""
    (o1, a, c), (o2, b, d) = columns
    size = out.shape[1]
    out[0, :len(a)], out[1, :len(a)] = a[:size], c[:size]
    out[2, :len(b)], out[3, :len(b)] = b[:size], d[:size]
    np.multiply(_derivative_factors((o1, o1, o2, o2), size), out[:4],
                out=out[4:8])
    d1, d2 = _snap(o1 - 1.0), _snap(o2 - 1.0)
    return o1, o1, o2, o2, d1, d1, d2, d2


# The right-hand side of AD - BC = 1, read-only; complex, as the
# residual is, so that subtracting it casts nothing.
_ONE = np.ones(1, dtype=complex)
_ONE.flags.writeable = False


def _identity_terms(columns, omega=None, scale: bool = False):
    """(residual, starts): the residual series of AD - BC = 1,
    dA dD - dB dC = 0 and, when the series ``omega`` is given,
    A dC - C dA = omega, each as its window, the coefficients below the
    truncation top, which the identities are held to, laid end to end in
    one array, window i from index starts[i] on.  A coefficient of the
    columns that is not finite, wherever it lies, is a DomainError
    (_check_finite): the windows need not read it, and no residual of it
    means anything.

    One pass over the columns' bare arrays: the frame rows (_frame_rows),
    the columns' arrays and their derivatives, are padded once, with
    n - 1 zeros in front, into one block, so that each product is one
    np.convolve(pad(x), y, "valid") of the leading coefficients it needs
    (_leading_product) and forms only the coefficients its window keeps.
    The columns are aligned, so the two products of each identity share
    an offset and a length and are subtracted coefficient by coefficient,
    with the operands in the formulas' order, by one np.subtract into the
    window; the right-hand side (1, 0 or omega) is then subtracted in
    place where it falls in that window, which is widened down to it
    when it starts lower.  Each residual coefficient sums the products of
    the formula written in GeneralizedSeries, and products with the
    padding's zeros, in another order, so the two agree within the
    round-off of a dot product of the product's length, not bitwise.
    With ``scale``, every operand's coefficients are replaced by their
    moduli, each difference by a sum and the right-hand side by zeros,
    which gives, in the same layout, the coefficient-wise size
    |x| * |y| + |u| * |v| of the two products x y and u v that cancel in
    each residual coefficient.
    """
    (_, a, c), (_, b, d) = columns
    n1, n2 = len(a), len(b)
    n, m = max(n1, n2), min(n1, n2)
    _check_finite("the frame", a, c, b, d)
    # The frame rows (_frame_rows), each after n - 1 zeros; a shorter
    # column's rows end in zeros, which no window reads.
    block = np.zeros((8, 2 * n - 1), dtype=complex)
    o1, _, o2, _, d1, _, d2, _ = _frame_rows(columns, block[:, n - 1:])
    if scale:
        block = np.abs(block)
    # Each identity as the offset of its products, their length and the
    # offset of its right-hand side, and then as the rows x, y, u and v of
    # x y - u v and the coefficients of that side; 0 is subtracted as
    # nothing, since x - 0 is x.
    heads = [(o1 + o2, m, 0.0), (d1 + d2, m, 0.0)]
    terms = [(0, 3, 2, 1, _ONE), (4, 7, 6, 5, None)]
    if omega is not None:
        heads.append((o1 + d1, n1, omega.offset))
        terms.append((0, 5, 1, 4, omega.coeffs))
    # Each window as its start, its size, the w zeros that widen it down
    # to the right-hand side when that starts lower, and where that side
    # starts in it: the products' coefficients follow the w zeros, up to
    # the top (m - 1 of them, or the one when m = 1 and nothing widens).
    windows, end = [], 0
    for offset, m, t_offset in heads:
        k = round(t_offset - _snap(offset))
        if k < -m:
            raise ConsistencyError(
                "frame identity fails: its right-hand side starts %g powers "
                "below the %d coefficients of its products, so its leading "
                "coefficient is left uncancelled" % (-k, m))
        w = max(-k, 0)
        windows.append((end, max(m + w - 1, 1), w, max(k, 0)))
        end += windows[-1][1]
    residual = np.zeros(end, dtype=block.dtype)
    for (start, size, w, k), (x, y, u, v, t) in zip(windows, terms):
        r = residual[start:start + size]
        if size > w:
            (np.add if scale else np.subtract)(
                _leading_product(block, x, y, size - w, n),
                _leading_product(block, u, v, size - w, n), out=r[w:])
        if not scale and t is not None:
            r[k:k + len(t)] -= t[:max(size - k, 0)]
    return residual, [start for start, *_ in windows]


def _leading_product(block: np.ndarray, x: int, y: int, p: int,
                     n: int) -> np.ndarray:
    """The p <= n leading coefficients of the product of two entries, rows
    x and y of ``block``, each n - 1 zeros and then its coefficients: one
    np.convolve of x's p leading coefficients after p - 1 of its zeros
    with y's p leading coefficients, in "valid" mode, which forms those p
    and no more."""
    return np.convolve(block[x, n - p:n - 1 + p], block[y, n - 1:n - 1 + p],
                       "valid")


def _defects(residual: np.ndarray, starts) -> tuple:
    """(det, null, omega) defects, the largest modulus in each residual
    window (_identity_terms), read by one reduction over their array;
    omega is None when its window is absent."""
    det, null, *om = np.maximum.reduceat(np.abs(residual), starts).tolist()
    return det, null, (om[0] if om else None)


def _refused(defects, residual: np.ndarray, starts, columns, omega):
    """For each defect and its residual window, whether it fails the bar.
    A defect within 1e-8 passes.  Past that, each residual coefficient in
    the window must be within 1e-8 times max(1, the same coefficient of
    the scale series), the size of the two products that cancel in it
    (_identity_terms, in the residual's layout), so no coefficient can
    excuse another.  The scales are formed only when a defect exceeds
    1e-8, so frames that meet the absolute bar cost nothing more.  A
    residual or scale that is not finite fails."""
    if all(d is None or d <= 1e-8 for d in defects):
        return [False] * len(defects)
    scale, _ = _identity_terms(columns, omega, scale=True)
    bar = 1e-8 * np.maximum(1.0, scale)
    held = np.logical_and.reduceat(
        np.isfinite(bar) & (np.abs(residual) <= bar), starts).tolist()
    return [not (d <= 1e-8 or ok) for d, ok in zip(defects, held)]


def checked_frame(frame: BryantFrame,
                  omega: Optional[GeneralizedSeries] = None) -> BryantFrame:
    """``frame``, or DomainError if a coefficient of its columns is not
    finite, wherever it lies (also past every residual window, where no
    identity reads it), or ConsistencyError if the det or nullity defect
    or, when the one-form ``omega`` is given, the defect of
    A dC - C dA = omega exceeds 1e-8 and some residual coefficient also
    exceeds 1e-8 times the same coefficient of the two products that
    cancel in it (_refused).  A frame moved far from the origin has
    products of 1e7 and more, whose cancellation leaves defects above
    1e-8 in round-off alone.  Each residual is formed from the leading
    coefficients its window reads (_identity_terms), so its defects are
    those of the series formulas to round-off, not bitwise; the three
    windows share one array, and the three defects are one reduction over
    it (_defects).  With omega, the defects and the validity radius are
    logged at DEBUG."""
    residual, starts = _identity_terms(frame.columns, omega)
    det, null, om = _defects(residual, starts)
    if omega is not None:
        log.debug("frame defects: det %.3e, null %.3e, omega %.3e; "
                  "validity radius %g", det, null, om, frame.validity_radius)
    bad_det, bad_null, *bad_om = _refused((det, null, om), residual, starts,
                                          frame.columns, omega)
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


def _zeta_w(a, b, c, d, out=None):
    """zeta and w from the entries' values, written into the arrays
    out = (zeta, w) when given."""
    zeta, w = out or (None, None)
    w = np.divide(1.0, np.abs(a) ** 2 + np.abs(b) ** 2, out=w)
    return np.multiply(np.conj(a) * c + np.conj(b) * d, w, out=zeta), w


def transform_frame(p: IsometrySL2, frame: BryantFrame) -> BryantFrame:
    """Left-multiply the frame by P; the new end is the image of the old
    one under the direct isometry induced by P.  The columns are aligned,
    so each new column is x s + y t coefficient by coefficient, for P's
    two columns s = (alpha, gamma) and t = (beta, delta): one broadcast
    of each against the column's two arrays, x and y, forms both new
    arrays as the rows of one.  The operands keep series addition's order
    (a complex product may fuse its multiply-adds, so x s and s x can
    differ in the last bit), and + 0.0 clears a negative zero, as that
    addition's 0.0 + does: the entries are bitwise the sums of the two
    scaled series."""
    s = np.array(((p.alpha,), (p.gamma,)))
    t = np.array(((p.beta,), (p.delta,)))
    columns = []
    for o, x, y in frame.columns:
        new = x * s
        new += y * t
        new += 0.0
        columns.append((o, new[0], new[1]))
    return BryantFrame.from_columns(tuple(columns), frame.validity_radius)


# -- JSON interchange -------------------------------------------------------

def _series_from_json(obj) -> GeneralizedSeries:
    coeffs = obj.get("coeffs") if isinstance(obj, dict) else None
    if not isinstance(coeffs, list):
        raise DomainError("a frame entry is an object with an offset and a "
                          "list of coefficients")
    return GeneralizedSeries(parse_real(obj["offset"]),
                             [parse_complex(c) for c in coeffs])


def frame_to_json(frame: BryantFrame) -> str:
    (o1, a, c), (o2, b, d) = frame.columns
    entries = {k: {"offset": o, "coeffs": [[z.real, z.imag] for z in x]}
               for k, o, x in zip("ABCD", (o1, o2, o1, o2), (a, b, c, d))}
    return json.dumps({**entries, "validity_radius": frame.validity_radius})


@np.errstate(over="ignore", invalid="ignore")
def frame_from_json(text: str) -> BryantFrame:
    """The frame of a frame JSON document, checked (checked_frame).  Its
    values are read by parse_real and parse_complex, except that the
    validity radius may also be Infinity; anything else is a
    DomainError."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise DomainError("a frame is a JSON object")
    radius = obj["validity_radius"]
    return checked_frame(BryantFrame(
        *(_series_from_json(obj[k]) for k in "ABCD"),
        radius if radius == math.inf else parse_real(radius)))
