"""Truncated generalized power series z^lambda * sum a_k z^k.

The exponent offset lambda is an arbitrary real; offsets within 1e-9 of
an integer are snapped to that integer at construction.  Evaluation on a
circle uses the continuous branch z^lambda = rho^lambda e^(i lambda tau)
with tau accumulated monotonically from 0, never reduced mod 2*pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def pad_to(self, order: int) -> "GeneralizedSeries":
        """Extend with zero coefficients; valid for exactly-known series only."""
        if order <= self.order:
            return self
        c = np.zeros(order + 1, dtype=complex)
        c[: len(self.coeffs)] = self.coeffs
        return GeneralizedSeries(self.offset, c)

    def shift_offset(self, k: int) -> "GeneralizedSeries":
        """Move k leading zero coefficients into the offset (k >= 0)."""
        if k == 0:
            return self
        return GeneralizedSeries(self.offset + k, self.coeffs[k:].copy())

    def normalized(self) -> "GeneralizedSeries":
        """Shift the offset so the leading coefficient is significant."""
        mags = np.abs(self.coeffs)
        nz = np.nonzero(mags > _LEAD_TOL)[0]
        if len(nz) == 0:
            return self
        return self.shift_offset(int(nz[0]))

    def isclose(self, other: "GeneralizedSeries", tol: float = 1e-12) -> bool:
        """Equality up to an integer offset shift and coefficient tolerance."""
        a, b = self.normalized(), other.normalized()
        if a.is_zero(tol) and b.is_zero(tol):
            return True
        d = b.offset - a.offset
        if abs(d - round(d)) > _OFFSET_TOL:
            return False
        d = round(d)
        if d < 0:
            a, b, d = b, a, -d
        n = min(a.order - d, b.order)
        if n < 0:
            return False
        if np.any(np.abs(a.coeffs[:d]) > tol):
            return False
        return bool(np.all(np.abs(a.coeffs[d:d + n + 1] - b.coeffs[:n + 1]) <= tol))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GeneralizedSeries") -> "GeneralizedSeries":
        d = other.offset - self.offset
        if abs(d - round(d)) > _OFFSET_TOL:
            raise DomainError(
                "series addition needs offsets differing by an integer "
                "(got %g and %g)" % (self.offset, other.offset))
        d = round(d)
        a, b = (self, other) if d >= 0 else (other, self)
        d = abs(d)
        # Both operands are accurate through their top retained power; the
        # sum is accurate through the lower of the two absolute tops.
        top = min(a.order, d + b.order)
        n = top + 1
        out = np.zeros(max(n, 1), dtype=complex)
        out[: min(len(a.coeffs), n)] += a.coeffs[:n]
        hi = min(d + len(b.coeffs), n)
        if hi > d:
            out[d:hi] += b.coeffs[: hi - d]
        return GeneralizedSeries(a.offset, out)

    def __neg__(self) -> "GeneralizedSeries":
        return GeneralizedSeries(self.offset, -self.coeffs)

    def __sub__(self, other: "GeneralizedSeries") -> "GeneralizedSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GeneralizedSeries(self.offset, self.coeffs * other)
        n = min(self.order, other.order)
        full = np.convolve(self.coeffs, other.coeffs)
        return GeneralizedSeries(self.offset + other.offset, full[: n + 1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return GeneralizedSeries(self.offset, self.coeffs / other)
        b = other.normalized()
        if abs(b.coeffs[0]) <= _LEAD_TOL:
            raise DomainError("division by an (effectively) zero series")
        if self.is_zero():
            return GeneralizedSeries(self.offset - b.offset, np.zeros(1, dtype=complex))
        n = min(self.order, b.order)
        q = np.zeros(n + 1, dtype=complex)
        bc = b.coeffs
        for k in range(n + 1):
            q[k] = (self.coeffs[k] - np.dot(q[:k], bc[k:0:-1])) / bc[0]
        return GeneralizedSeries(self.offset - b.offset, q)


def differentiate(a: GeneralizedSeries) -> GeneralizedSeries:
    """Term-wise d/dz: a_k z^(l+k) -> (l+k) a_k z^(l+k-1)."""
    k = np.arange(len(a.coeffs))
    return GeneralizedSeries(a.offset - 1.0, (a.offset + k) * a.coeffs)


def residue(a: GeneralizedSeries) -> complex:
    """Coefficient of z^-1; defined only for integer offsets."""
    frac = a.offset - round(a.offset)
    if abs(frac) > _OFFSET_TOL:
        raise DomainError(
            "residue undefined for non-integer offset (fractional part %g)" % frac)
    idx = -1 - round(a.offset)
    if 0 <= idx <= a.order:
        return complex(a.coeffs[idx])
    return 0.0 + 0.0j


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

    @property
    def taus(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.samples) / self.samples


def eval_at(a: GeneralizedSeries, rho: float, taus: np.ndarray) -> np.ndarray:
    """Evaluate on |z| = rho at angles tau, continuous branch from tau=0."""
    taus = np.asarray(taus, dtype=float)
    z = rho * np.exp(1j * taus)
    poly = np.zeros_like(z)
    for c in a.coeffs[::-1]:
        poly = poly * z + c
    return (rho ** a.offset) * np.exp(1j * a.offset * taus) * poly


def eval_branch(a: GeneralizedSeries, grid: QuadratureGrid) -> np.ndarray:
    return eval_at(a, grid.rho, grid.taus)


def radius_estimate(a: GeneralizedSeries) -> float:
    """Advisory Cauchy root-test estimate of the convergence radius."""
    mags = np.abs(a.coeffs[1:])
    k = np.arange(1, len(a.coeffs))
    mask = mags > 0
    if not np.any(mask):
        return np.inf
    return float(1.0 / np.max(mags[mask] ** (1.0 / k[mask])))


def trapezoid_residue(a: GeneralizedSeries, grid: QuadratureGrid) -> complex:
    """Residue via the periodic trapezoid rule; cross-oracle for residue()."""
    vals = eval_branch(a, grid)
    z = grid.rho * np.exp(1j * grid.taus)
    return complex(np.sum(vals * 1j * z) * (2.0 * np.pi / grid.samples) / (2j * np.pi))
