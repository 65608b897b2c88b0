"""Truncated generalized power series z^lambda * sum a_k z^k.

The exponent offset lambda is an arbitrary real; offsets within 1e-9 of
an integer are snapped to that integer at construction.  Evaluation on a
circle uses the continuous branch z^lambda = rho^lambda e^(i lambda tau)
with tau accumulated monotonically from 0, never reduced mod 2*pi.
eval_branch, the package's one evaluator, evaluates a sequence of
series at rho times the N-th roots of unity, for any N >= 1, as one
block by one inverse FFT of the scaled coefficients, followed by one
branch factor e^(i lambda tau) per row.  The tests keep a Horner sum at
arbitrary angles as its reference.  product_residue gives
residue(a * b) from the coefficient pairs that reach z^-1, without
forming the product.  The rules of addition, multiplication and
differentiation are written once, on bare (offset, coeffs) pairs
(_sum_terms, _product_terms, _derivative_terms), so a caller can apply
them without forming intermediate series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError

DEFAULT_ORDER = 32

_OFFSET_TOL = 1e-9
_LEAD_TOL = 1e-13


def _snap(offset: float) -> float:
    r = round(offset)
    if abs(offset - r) < _OFFSET_TOL:
        return float(r)
    return float(offset)


def _sum_terms(x_offset: float, x: np.ndarray, y_offset: float,
               y: np.ndarray):
    """(offset, coeffs) of z^x_offset x + z^y_offset y, the rule of series
    addition on bare coefficient arrays.

    The offsets must differ by an integer d; the sum sits at the lower one.
    Both operands are accurate through their top retained power, so the sum
    is accurate through the lower of the two absolute tops.
    """
    d = y_offset - x_offset
    if abs(d - round(d)) > _OFFSET_TOL:
        raise DomainError(
            "series addition needs offsets differing by an integer "
            "(got %g and %g)" % (x_offset, y_offset))
    d = round(d)
    offset, a, b = (x_offset, x, y) if d >= 0 else (y_offset, y, x)
    d = abs(d)
    n = min(len(a), d + len(b))
    out = np.zeros(max(n, 1), dtype=complex)
    out[: min(len(a), n)] += a[:n]
    hi = min(d + len(b), n)
    if hi > d:
        out[d:hi] += b[: hi - d]
    return offset, out


def _product_terms(x_offset: float, x: np.ndarray, y_offset: float,
                   y: np.ndarray):
    """(offset, coeffs) of the product of z^x_offset x and z^y_offset y,
    truncated at the shorter operand's order: one np.convolve."""
    n = min(len(x), len(y))
    return _snap(x_offset + y_offset), np.convolve(x, y)[:n]


@dataclass(frozen=True)
class GeneralizedSeries:
    """z^offset times a truncated power series with complex coefficients."""

    offset: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", _snap(float(self.offset)))
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficient array must be 1-d and non-empty")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        """Highest retained relative power K (len(coeffs) == K + 1)."""
        return len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, offset, coeffs) -> "GeneralizedSeries":
        return cls(offset, np.asarray(coeffs, dtype=complex))

    @classmethod
    def monomial(cls, offset, value=1.0, order: int = 0) -> "GeneralizedSeries":
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(offset, c)

    @classmethod
    def constant(cls, value, order: int = 0) -> "GeneralizedSeries":
        return cls.monomial(0.0, value, order)

    @classmethod
    def zero(cls, offset: float = 0.0, order: int = 0) -> "GeneralizedSeries":
        return cls(offset, np.zeros(order + 1, dtype=complex))

    def normalized(self) -> "GeneralizedSeries":
        """Shift the offset so the leading coefficient is significant."""
        mags = np.abs(self.coeffs)
        nz = np.nonzero(mags > _LEAD_TOL)[0]
        if len(nz) == 0 or nz[0] == 0:
            return self
        k = int(nz[0])
        return GeneralizedSeries(self.offset + k, self.coeffs[k:].copy())

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GeneralizedSeries") -> "GeneralizedSeries":
        return GeneralizedSeries(*_sum_terms(self.offset, self.coeffs,
                                             other.offset, other.coeffs))

    def __neg__(self) -> "GeneralizedSeries":
        return GeneralizedSeries(self.offset, -self.coeffs)

    def __sub__(self, other: "GeneralizedSeries") -> "GeneralizedSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GeneralizedSeries(self.offset, self.coeffs * other)
        return GeneralizedSeries(*_product_terms(self.offset, self.coeffs,
                                                 other.offset, other.coeffs))

    __rmul__ = __mul__


def _derivative_terms(offset: float, coeffs: np.ndarray):
    """(offset, coeffs) of the term-wise derivative of z^offset coeffs."""
    return _snap(offset - 1.0), (offset + np.arange(len(coeffs))) * coeffs


def differentiate(a: GeneralizedSeries) -> GeneralizedSeries:
    """Term-wise d/dz: a_k z^(l+k) -> (l+k) a_k z^(l+k-1)."""
    return GeneralizedSeries(*_derivative_terms(a.offset, a.coeffs))


def _residue_index(offset: float) -> int:
    """Index of the z^-1 coefficient at this offset, which must be an
    integer."""
    frac = offset - round(offset)
    if abs(frac) > _OFFSET_TOL:
        raise DomainError(
            "residue undefined for non-integer offset (fractional part %g)" % frac)
    return -1 - round(offset)


def residue(a: GeneralizedSeries) -> complex:
    """Coefficient of z^-1; defined only for integer offsets."""
    idx = _residue_index(a.offset)
    if 0 <= idx <= a.order:
        return complex(a.coeffs[idx])
    return 0.0 + 0.0j


def product_residue(a: GeneralizedSeries, b: GeneralizedSeries) -> complex:
    """residue(a * b) from the idx + 1 coefficient pairs it needs, without
    forming the product; idx = -1 - (a.offset + b.offset).

    The pairs are summed in np.convolve's order (the longer operand
    first) and + 0j clears a negative zero, as the product's
    zero-started sums do, so the value is bitwise that of residue(a * b).
    """
    idx = _residue_index(a.offset + b.offset)
    x, y = a.coeffs, b.coeffs
    if not 0 <= idx < min(len(x), len(y)):
        return 0.0 + 0.0j
    if len(y) > len(x):
        x, y = y, x
    return complex(np.dot(x[:idx + 1], y[idx::-1]) + 0j)


@dataclass(frozen=True)
class QuadratureGrid:
    """Equispaced nodes tau_n = 2 pi n / N on the circle |z| = rho."""

    rho: float
    samples: int

    def __post_init__(self):
        if not self.rho > 0:
            raise DomainError("grid radius must be positive")
        n = int(self.samples)
        if n < 16 or (n & (n - 1)) != 0:
            raise DomainError("sample count must be a power of two, >= 16")
        object.__setattr__(self, "samples", n)

    @cached_property
    def taus(self) -> np.ndarray:
        """The node angles, formed once per grid and read-only, since every
        caller shares the one array."""
        taus = _node_angles(self.samples)
        taus.flags.writeable = False
        return taus


def _node_angles(n: int) -> np.ndarray:
    """tau_j = 2 pi j / N, j = 0 .. N - 1."""
    return 2.0 * np.pi * np.arange(n) / n


def eval_branch(series: Sequence[GeneralizedSeries], rho: float,
                taus: np.ndarray) -> np.ndarray:
    """Values of each series at the N = len(taus) nodes rho e^(i tau_j),
    where taus holds tau_j = 2 pi j / N (_node_angles(N), or a
    QuadratureGrid's taus), as a (rows, N) array, on the continuous
    branch z^o = rho^o e^(i o tau) with tau taken from 0 up.

    Node j is rho omega^j with omega = e^(2 pi i / N), so a series of
    offset o is z^o sum_k a_k rho^k omega^(jk), and the sum is an inverse
    DFT of the a_k rho^k.  Each a_k rho^(o+k) goes into bin k mod N; bins
    are summed when K + 1 > N, which is exact since omega^N = 1.  One
    inverse FFT over the block, scaled by N, sums every row, and a row
    with o != 0 is then multiplied by e^(i o tau_j), computed once per
    distinct offset.  Cost O(N log N) per row, against O(N K) for a
    Horner sum.  The branch factor is applied after the FFT, not as a
    shift of the bins, because a coefficient placed in bin N - 1 or
    N - 2 (offsets -1 and -2) picks up the rounding of every butterfly
    stage.  N is any positive integer; QuadratureGrid's power-of-two
    rule belongs to the quadrature, not to this evaluation.
    """
    n = len(taus)
    block = np.zeros((len(series), n), dtype=complex)
    for row, a in zip(block, series):
        k = np.arange(len(a.coeffs))
        vals = a.coeffs * rho ** (a.offset + k)
        if len(k) > n:
            np.add.at(row, k % n, vals)
        else:
            row[:len(k)] = vals
    block = np.fft.ifft(block, axis=1)
    block *= n
    phases = {}
    for row, a in zip(block, series):
        if a.offset:
            if a.offset not in phases:
                phases[a.offset] = np.exp(1j * a.offset * taus)
            row *= phases[a.offset]
    return block
