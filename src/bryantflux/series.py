"""Truncated generalized power series z^lambda * sum a_k z^k.

The exponent offset lambda is an arbitrary real; offsets within 1e-9 of
an integer are snapped to that integer at construction, and an offset
that is not finite is a DomainError.  On a circle a series lies on the
continuous branch z^lambda = rho^lambda e^(i lambda tau), with tau
accumulated monotonically from 0, never reduced mod 2*pi.  eval_branch,
the package's one evaluator, takes bare rows: the offsets of the series
and their coefficients as the rows of one 2-D array, which it only
reads.  It evaluates them at rho times the N-th roots of unity, for any
N >= 1, as one block by one inverse FFT of the scaled coefficients, in
place, and returns the values without their branch factors
e^(i lambda tau).  It scales every row's coefficients at once, by one
power and one multiply masked to each row's terms up to its last
nonzero one.  That is exact for what the package forms from them: a
Bryant frame's columns are aligned (bryant.BryantFrame), and every
product of the immersion is of two values from one column, whose
factors cancel.  The tests keep a Horner sum with the branch factor at
arbitrary angles as its reference.  A series has no arithmetic: the
package combines bare coefficient arrays.  The rule of series addition
is written once, on those arrays (_aligned): bryant aligns a frame's
columns by it, and lays out their arrays and their term-wise
derivatives, with the factors (offset + k) that _derivative_factors
forms, as differentiate does, as one set of rows (bryant._frame_rows),
which the frame checks, the flux residues, the quadrature and the mesh
read.  No series is formed from a built frame.
_residue_index gives the index of z^-1 at an integer offset to
flux.flux_triple, the package's one residue reader.  Sums, products and
the residues of formed series are the tests' oracle, which those
readings are compared with.  _integer is the one test that an offset,
or a gap between two, is an integer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

DEFAULT_ORDER = 32

_OFFSET_TOL = 1e-9


def _snap(offset: float) -> float:
    try:
        r = round(offset)
    except (OverflowError, ValueError):
        raise DomainError("series offset %r is not finite" % offset) from None
    if abs(offset - r) < _OFFSET_TOL:
        return float(r)
    return float(offset)


def _integer(x: float, message: str, *args) -> int:
    """round(x) when x is finite and within 1e-9 of an integer, else
    DomainError(message % args): the one test that two offsets differ by
    an integer, or that an offset is one.  The message is formatted only
    on refusal."""
    if math.isfinite(x) and abs(x - round(x)) <= _OFFSET_TOL:
        return round(x)
    raise DomainError(message % args)


def _aligned(x_offset: float, x: np.ndarray, y_offset: float, y: np.ndarray,
             what: str):
    """(offset, [x, y]) with both coefficient arrays at the lower offset,
    each truncated at the lower of the two absolute tops: the rule of
    series addition and of a frame's columns.

    Both operands are accurate through their top retained power, so the
    pair is accurate through the lower top.  An array already in place is
    returned as it is.  DomainError naming ``what`` when the offsets do
    not differ by an integer.
    """
    d = _integer(y_offset - x_offset, "the offsets of %s, %g and %g, do not "
                 "differ by an integer", what, x_offset, y_offset)
    lo = min(x_offset, y_offset)
    kx, ky = max(-d, 0), max(d, 0)
    n = min(kx + len(x), ky + len(y))
    out = [x, y]
    for i, (k, o, c) in enumerate(((kx, x_offset, x), (ky, y_offset, y))):
        if o != lo or len(c) != n:
            out[i] = np.zeros(n, dtype=c.dtype)
            out[i][k:] = c[:max(n - k, 0)]
    return lo, out


class GeneralizedSeries:
    """z^offset times a truncated power series with complex coefficients.
    Series compare and hash by identity."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: float, coeffs: np.ndarray):
        self.offset = _snap(float(offset))
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficient array must be 1-d and non-empty")
        self.coeffs = c

    @property
    def order(self) -> int:
        """Highest retained relative power K (len(coeffs) == K + 1)."""
        return len(self.coeffs) - 1

    @classmethod
    def monomial(cls, offset, value=1.0, order: int = 0) -> "GeneralizedSeries":
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(offset, c)


def _derivative_factors(offsets, n: int) -> np.ndarray:
    """The factors (offset + k), k < n, of a term-wise derivative, one row
    per offset, complex: a product with complex coefficients would cast
    float factors, at a cost.  The one place that forms them, for
    differentiate and for a frame's rows on bare arrays
    (bryant._frame_rows); a caller that must not warn checks its
    coefficients finite before it multiplies."""
    return np.arange(n, dtype=complex) + np.array(offsets,
                                                  dtype=complex)[:, None]


def differentiate(a: GeneralizedSeries) -> GeneralizedSeries:
    """Term-wise d/dz: a_k z^(l+k) -> (l+k) a_k z^(l+k-1)."""
    return GeneralizedSeries(a.offset - 1.0, _derivative_factors(
        (a.offset,), len(a.coeffs))[0] * a.coeffs)


def _residue_index(offset: float) -> int:
    """Index of the z^-1 coefficient at this offset, which must be an
    integer; it may lie outside the coefficients."""
    return -1 - _integer(offset, "residue undefined for non-integer "
                         "offset %g", offset)


class QuadratureGrid:
    """Equispaced nodes tau_n = 2 pi n / N on the circle |z| = rho.  Grids
    compare and hash by identity."""

    __slots__ = ("rho", "samples")

    def __init__(self, rho: float, samples: int):
        if not rho > 0:
            raise DomainError("grid radius must be positive")
        n = int(samples)
        if n < 16 or (n & (n - 1)) != 0:
            raise DomainError("sample count must be a power of two, >= 16")
        self.rho, self.samples = rho, n

    @property
    def taus(self) -> np.ndarray:
        """The node angles, a fresh array on each read."""
        return 2.0 * np.pi * np.arange(self.samples) / self.samples


def eval_branch(offsets, coeffs: np.ndarray, rho: float,
                n: int) -> np.ndarray:
    """Values at the n nodes rho omega^j, omega = e^(2 pi i / n), of the
    series whose offsets are ``offsets`` and whose coefficients are the
    rows of the 2-D array ``coeffs``, each row padded with zeros to the
    array's width, each value without its branch factor, as a (rows, n)
    array: row r holds sum_k a_k rho^(o+k) omega^(jk) for row r of
    offset o, the value on the continuous branch (tau_j = 2 pi j / n,
    taken from 0 up) times e^(-i o tau_j).  ``coeffs`` is only read.

    The factor is dropped because the package needs none: a product
    conj(x) y of two values at one offset, as every product within a
    Bryant frame's column is, carries e^(-i o tau) e^(i o tau) = 1, and a
    term-wise derivative's row, at offset o - 1, joins its entry's after
    one factor e^(i tau), which the chain rule supplies (flux).  A
    caller that needs the values on the branch multiplies row r by
    e^(i o tau_j) itself.

    The sum is an inverse DFT of the a_k rho^(o+k), unscaled, up to the
    last nonzero a_k, so that an exact frame's zero tail adds no nan
    where its powers overflow: each goes into bin k mod n, and bins are
    summed when K + 1 > n, which is exact since omega^n = 1.  The rows
    are scaled together: one power and one multiply over every row's
    terms, each masked (where=) to the terms up to the row's last nonzero
    a_k.  One inverse FFT over the block sums every row, in O(n log n)
    per row, against O(n K) for a Horner sum, and writes the values over
    the scaled coefficients (out=, numpy 2.0 or later), bitwise as a
    fresh result would hold them: the block is the call's one array of n
    columns, so a large n costs one buffer of (rows, n), not two.  n is
    any positive integer; QuadratureGrid's power-of-two rule belongs to
    the quadrature, not to this evaluation.
    """
    # live[r, k]: a_k is at or before row r's last nonzero coefficient.
    # Powers are formed there only, so a zero tail's cannot overflow or
    # warn.
    live = np.logical_or.accumulate(coeffs[:, ::-1] != 0, axis=1)[:, ::-1]
    size = coeffs.shape[1]
    k = np.arange(size)
    powers = np.power(rho, np.array(offsets)[:, None] + k, where=live,
                      out=np.empty(coeffs.shape))
    block = np.zeros((len(coeffs), n), dtype=complex)
    if size <= n:
        np.multiply(coeffs, powers, out=block[:, :size], where=live)
    else:
        scaled = np.multiply(coeffs, powers, out=np.empty_like(coeffs),
                             where=live)
        for row, vals, terms in zip(block, scaled, live.sum(axis=1)):
            if terms > n:
                np.add.at(row, k[:terms] % n, vals[:terms])
            else:
                row[:terms] = vals[:terms]
    return np.fft.ifft(block, axis=1, norm="forward", out=block)
