"""Flux computations: residue triple, its polynomial and matrix forms,
closed forms, and the independent quadrature route.

The flux data of an end is one triple (phi0, phi1, phi2) of 4*pi-scaled
residues (flux_triple).  The quadratic polynomial
Pi(X) = phi2 X^2 + 2 phi1 X + phi0 and the matrix
Phi = Res(-(dF) F^-1) = (phi1, phi2; -phi0, -phi1) / 4 pi are derived
from it (FluxPolynomial.from_triple, FluxMatrix.from_triple).  Each
residue of the triple is a difference of two residues of products of an
entry and a derivative.  flux_triple reads the frame's columns
(BryantFrame.columns), which are aligned, so the six products share one
index of z^-1, and each residue is read from the idx + 1 leading
coefficients and the derivatives of only those, all six sums as one
np.matmul in np.convolve's summation order, so the triple is bitwise
the residues of the formed products, which the tests form in series
arithmetic: no product or derivative series is formed here, and the
cost does not grow with the order.  A frame whose columns stop before
that index is refused, not read as a zero triple.  The triple carries
a bound on the round-off of each component (FluxTriple.roundoff; their
largest is FluxTriple.residue_bound), large where a residue's two sums
cancel; the CLI refuses a triple whose bound is not small next to it.

circle_samples integrates the defining boundary integral by the
trapezoid rule on one circle |z| = rho, with exact derivatives, and
shares no residue machinery with flux_triple; it is the oracle the
residue formulas are tested against.  The nodes are rho times the N-th
roots of unity, so the frame rows, the four entries and their term-wise
derivatives in column order (bryant._frame_rows), are evaluated there
as one block by one inverse FFT (_entry_block, by series.eval_branch),
in O(N log N) rather than O(N K) per entry, and without their branch
factors e^(i lambda tau); _immersion_derivatives reads the block in
that order.  That is exact: the frame's columns are aligned
(bryant.BryantFrame), and zeta, w and their derivatives are made of
products conj(x) y of two values from one column, in which the factors
cancel.  The samples, and the sums formed from them, are taken one
slice of nodes of that block at a time (_SLICE), so that a call holds
the block and one slice's temporaries.  In a slice, zeta and its two
derivatives are the rows of one array, w and its two derivatives those
of another, and the three moment terms those of a third, written in
place, so the finiteness check is two reductions and the six sums are
three calls.

The integrand is linear in the coefficients of the field's quadratic
V = c0 + c1 zeta + c2 zeta^2 (killing.field_polynomial), so
circle_samples sums three complex moments (M0, M1, M2) once per circle,
and a field's flux is Re(c0 M0 + c1 M1 + c2 M2).  circle_samples returns
them as a FluxTriple, (M2, -M1, M0) with the round-off bounds of their
sums: the quadrature gives the residue triple, computed numerically, in
the same record.  field_flux pairs a field's quadratic with any triple,
in O(1), and field_roundoff with the triple's bounds, giving the bound
that the field's flux inherits; flux_for_geodesic forms the quadratic
and applies field_flux.  A caller that pairs one field with several
triples, as the CLI's verify does, forms the quadratic once.

The moments are formed from zeta, w and their derivatives as they are,
and are not to be simplified with det F = 1: that identity collapses q
(_moments) into 2 z (B A' - A B'), the coefficient of B dA - A dB, which
is the residue route's own one-form, and the quadrature would then no
longer check that route independently.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bryant import BryantFrame, _check_radius, _frame_rows, _zeta_w
from .errors import DomainError
from .geometry import ExtendedComplex, Geodesic, _bracket, _homogeneous, \
    cross_ratio
from .killing import ROTATION, TRANSLATION, KillingField, field_polynomial
from .series import QuadratureGrid, _residue_index, _snap, eval_branch


@dataclass(frozen=True)
class FluxTriple:
    """(phi0, phi1, phi2) and the bounds on the round-off of the three
    components, in that order (flux_triple, circle_samples), which
    equality ignores; None where no bound was formed."""

    phi0: complex
    phi1: complex
    phi2: complex
    roundoff: Optional[tuple] = field(default=None, compare=False)

    @property
    def residue_bound(self) -> Optional[float]:
        """The largest of the components' round-off bounds, or None."""
        return None if self.roundoff is None else max(self.roundoff)


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
        """The roots, of the degree that the coefficients above 1e-13 of
        the largest one give; none for the zero polynomial."""
        tol = 1e-13 * self.max_abs()
        if abs(self.quad) > tol:
            return [complex(r) for r in np.roots(
                [self.quad, self.lin, self.const])]
        if abs(self.lin) > tol:
            return [-self.const / self.lin]
        return []


@dataclass(frozen=True)
class FluxMatrix:
    """Res(-(dF) F^-1), trace-free."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    @classmethod
    def from_triple(cls, t: FluxTriple) -> "FluxMatrix":
        s = 1.0 / (4.0 * math.pi)
        return cls(s * t.phi1, s * t.phi2, -s * t.phi0, -s * t.phi1)


# The rows of flux_triple's block are A, C, B, D and then dA, dC, dB, dD.
# Its six sums, x dy and then y dx for each of D dC - C dD, C dB - D dA
# and B dA - A dB, are the dot products of these row pairs (x, dy), but
# np.convolve sums with the longer operand ascending (x on a tie), so a
# pair swaps where dy's column is the longer: _SUM_ROWS gives the (left,
# right) rows for n1 > n2, n1 = n2 and n1 < n2 by the sign of n1 - n2,
# and then the same pairs of rows 8-15, the moduli of rows 0-7, whose
# sums the residue bound reads.
_PAIRS = ((3, 5), (1, 7), (1, 6), (3, 4), (2, 4), (0, 6))


def _sum_rows(sign: int) -> np.ndarray:
    rows = np.array([(y, x) if sign and (y < 6) == (sign > 0) else (x, y)
                     for x, y in _PAIRS]).T
    return np.hstack([rows, rows + 8])


_SUM_ROWS = {sign: _sum_rows(sign) for sign in (-1, 0, 1)}
_U = 2.0 ** -53


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u) for the unit round-off u."""
    return n * _U / (1.0 - n * _U)


@np.errstate(over="ignore", invalid="ignore")
def flux_triple(frame: BryantFrame) -> FluxTriple:
    """4*pi residues of D dC - C dD, C dB - D dA, B dA - A dB.

    The frame's columns (A, C) and (B, D) are aligned, so all six
    products share one offset and one length: one index idx of z^-1, and
    z^-1 lies past the truncation of all six or of none.  Each residue is
    then the difference of two sums over the idx + 1 leading coefficient
    pairs, and only those leading coefficients are differentiated: neither
    the one-forms nor the derivative series are formed, so the cost does
    not grow with the order.  The leading coefficients and their
    derivatives are the frame rows (bryant._frame_rows) of one block, and
    the six sums are one np.matmul of a stack of its rows with a stack of
    its rows reversed, each sum one dot product of two rows in
    np.convolve's order (the operand of the longer column ascending), as
    the formed product's z^-1 coefficient is, so the values are bitwise
    those of the residues of the formed products.  When idx < 0 all three
    one-forms are holomorphic and the triple is exactly 0, with bounds of
    0.  A frame truncated before idx, a residue that overflows, or an
    offset sum that is not finite raises DomainError.

    The triple carries, as roundoff, the bound on each component's
    round-off (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sections 3.1 and 3.6): gamma_(idx+8) times 4 pi times the same
    two sums taken on the moduli of the rows, which the block holds as
    its rows 8-15, so that the one np.matmul forms them with the six
    sums.  The index counts the idx + 1 terms of a complex
    dot product (gamma_(n+2) for n terms), the difference of the two,
    the two roundings in each derivative row's factors and the two of
    the scaling by 4 pi.  It bounds the rounding of the sums from the
    frame's coefficients, not errors already in those coefficients;
    where the two sums cancel, as phi1's do at small catenoidal mu, it
    is large next to the triple.
    """
    (o1, a, _), (o2, b, _) = frame.columns
    n1, n2 = len(a), len(b)
    # The offset of D dC, with dC's offset as differentiate forms it.
    idx = _residue_index(o2 + _snap(o1 - 1.0))
    if idx < 0:
        return FluxTriple(0j, 0j, 0j, (0.0, 0.0, 0.0))
    if idx >= min(n1, n2):
        raise DomainError("the frame is truncated before the residues of "
                          "its one-forms: z^-1 is at index %d of columns of "
                          "%d and %d coefficients" % (idx, n1, n2))
    m = idx + 1
    block = np.empty((16, m), dtype=complex)
    _frame_rows(frame.columns, block)
    np.abs(block[:8], out=block[8:])
    left, right = _SUM_ROWS[(n1 > n2) - (n1 < n2)]
    s = np.matmul(block[left, None],
                  block[right, ::-1, None]).ravel().tolist()
    # + 0j clears a negative zero, as the product's zero-started sums do.
    res = [4.0 * math.pi * ((s[i] + 0j) - (s[i + 1] + 0j)) for i in (0, 2, 4)]
    if not all(cmath.isfinite(r) for r in res):
        raise DomainError("the flux residues overflow: they are not finite")
    k = 4.0 * math.pi * _gamma(idx + 8)
    return FluxTriple(*res, tuple(k * (s[i].real + s[i + 1].real)
                                  for i in (6, 8, 10)))


def flux_for_geodesic(t: FluxTriple, g: Geodesic, kind: str) -> float:
    """Flux of the Killing field of ``kind`` along ``g`` from a flux
    triple: Re(c0 phi2 - c1 phi1 + c2 phi0) for the field's quadratic
    c0 + c1 zeta + c2 zeta^2 (killing.field_polynomial).

    For a translation that is the real part of
    (phi2 C D + phi1 (C+D) + phi0)/(C-D) for finite C and D, with limits
    -(phi1 + phi2 C) at D = inf and phi1 + phi2 D at C = inf; a rotation
    reads minus the imaginary part.  It serves the residue triple
    (flux_triple) and the quadrature's (circle_samples) alike.
    """
    return field_flux(t, field_polynomial(KillingField(kind, g)))


def field_flux(t: FluxTriple, c) -> float:
    """Re(c0 phi2 - c1 phi1 + c2 phi0): the flux, read from the triple t,
    of the field whose quadratic has the coefficients c = (c0, c1, c2)."""
    c0, c1, c2 = c
    return float((c0 * t.phi2 - c1 * t.phi1 + c2 * t.phi0).real)


def field_roundoff(t: FluxTriple, c) -> float:
    """|c0| r2 + |c1| r1 + |c2| r0 for the round-off bounds (r0, r1, r2)
    of t's components: the round-off that they allow in field_flux(t, c)."""
    c0, c1, c2 = c
    r0, r1, r2 = t.roundoff
    return abs(c0) * r2 + abs(c1) * r1 + abs(c2) * r0


# -- end-type closed forms --------------------------------------------------

def _directional(val: complex, kind: str) -> float:
    if kind == TRANSLATION:
        return float(val.real)
    if kind == ROTATION:
        return float(-val.imag)
    raise DomainError("kind must be 'translation' or 'rotation'")


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
    b, c, d = map(_homogeneous, (boundary, g.start, g.end))
    val = kappa * _bracket(c, b) * _bracket(d, b) / _bracket(c, d)
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
    a, b = _homogeneous(axis_from), _homogeneous(boundary)
    den = _bracket(b, a)
    if den == 0:
        raise DomainError("catenoidal axis endpoints must be distinct")
    return _pair_polynomial(2.0 * math.pi * sigma / den, a, b)


def horospherical_polynomial(kappa: complex,
                             boundary: ExtendedComplex) -> FluxPolynomial:
    """Pi(X) = -2 pi kappa (X - B)^2, constant -2 pi kappa when B = inf."""
    b = _homogeneous(boundary)
    return _pair_polynomial(-2.0 * math.pi * kappa, b, b)


# -- numerical quadrature route ---------------------------------------------

# Nodes per slice of circle_samples.  A slice's samples and moment
# temporaries peak at about 14 arrays of 16 bytes a node, 0.22 MB at 1024
# nodes.  Over in-process verify ops at N = 4096 (x86-64 Linux, glibc),
# the whole circle's 0.8 MB of temporaries next to its 0.5 MB block cost
# about 118 minor faults an op, as freed memory went back to the system
# and was faulted in again on the next call; slices of 1024 or 2048 nodes
# cost none.  Each slice makes about 73 numpy calls, 48 for its samples
# and 25 for its sums, and takes about 0.043 ms at 16 nodes and 0.105 ms
# at 1024 (timeit best, shared 2-core x86-64 host); 1024 keeps a slice's
# temporaries a quarter of the size that faulted.
_SLICE = 1024


def _moment_sums(rho, zeta, w, derivs):
    """The sums, over the nodes given, of the three terms of the flux
    moments and of their moduli, unscaled, as one complex array
    (S0, S1, S2, A0, A1, A2), S_j the sum of term j and A_j that of its
    modulus: the sums of slices add up to those of the circle.

    With q = (-rho conj(d_rho zeta) + i conj(d_tau zeta)) / w^2 and
    r = rho d_rho w / w, the integrand -rho<d_rho X, Y> + 2<d_tau X, Z> of
    the field with polynomial c0 + c1 zeta + c2 zeta^2 is
    Re(c0 q + c1 (q zeta - r)
       + c2 (q zeta^2 + rho d_rho zeta - 2 zeta r - 2i log(w) d_tau zeta)),
    and term j is the j-th of these three.
    """
    dzeta_drho, dw_drho, dzeta_dtau, _ = derivs
    terms = np.empty((3, len(w)), dtype=complex)
    q, t1, t2 = terms
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply(1j, np.conj(dzeta_dtau, out=q), out=q)
        q -= rho * np.conj(dzeta_drho)
        q /= w * w
        r = rho * dw_drho / w
        qz = q * zeta
        np.subtract(qz, r, out=t1)
        np.subtract(qz, 2.0 * r, out=t2)
        t2 *= zeta
        t2 += rho * dzeta_drho
        t2 -= 2j * np.log(w) * dzeta_dtau
        return np.concatenate((terms.sum(axis=1), np.abs(terms).sum(axis=1)))


def _moments(rho, n, parts):
    """The triple (M2, -M1, M0) of trapezoid sums over n nodes, with the
    round-off bounds (b2, b1, b0) of its components, from the _moment_sums
    of the circle's slices, added in order: M_j is the sum of the j-th
    term times 2 pi / n, and its bound eps times the sum of the term's
    moduli times 2 pi / n.
    """
    scale = 2.0 * math.pi / n
    eps_scale = np.finfo(float).eps * scale
    with np.errstate(over="ignore", invalid="ignore"):
        sums = functools.reduce(np.add, parts)
        m0, m1, m2 = (complex(s * scale) for s in sums[:3])
        bounds = tuple(float(s.real * eps_scale) for s in sums[3:])
    if not all(map(cmath.isfinite, (m0, m1, m2) + bounds)):
        raise DomainError("flux moments on |z| = %g are not finite" % rho)
    return FluxTriple(m2, -m1, m0, bounds[::-1])


@np.errstate(over="ignore", invalid="ignore")
def _entry_block(frame: BryantFrame, grid: QuadratureGrid) -> np.ndarray:
    """The frame rows A, C, B, D, dA, dC, dB, dD (bryant._frame_rows) on
    the grid, as one 8-row block by one inverse FFT on the roots of unity
    (series.eval_branch), without branch factors.  A value that overflows
    is left to the samples' check (_immersion_derivatives)."""
    rows = np.zeros((8, max(len(x) for _, x, _ in frame.columns)), complex)
    return eval_branch(_frame_rows(frame.columns, rows), rows, grid.rho,
                       grid.samples)


def _immersion_derivatives(rho: float, block: np.ndarray):
    """zeta, w and (d_rho zeta, d_rho w, d_tau zeta, d_tau w) at the nodes
    of ``block``, columns of an _entry_block on |z| = rho, whose rows are
    A, C, B, D and then dA, dC, dB, dD (bryant._frame_rows).

    E moves by e^(i tau) E'(z) along rho and by i z E'(z) along tau.  The
    branch factor of E' is that of E divided by e^(i tau), which the move
    restores, so on the evaluated values E moves by f E' with f = 1
    along rho and f = i rho along tau.  zeta and w, and their moves, are
    made of products conj(x) y of two values from one column, where the
    factors cancel.  A move is linear in f and conj(f), so the three
    column products s, p and q give both directions.  A sample that
    overflows or is not finite raises DomainError.
    """
    a, c, b, d, da, dc, db, dd = block
    # zeta, d_rho zeta, d_tau zeta and w, d_rho w, d_tau w, by rows.
    zetas = np.empty((3, block.shape[1]), dtype=complex)
    ws = np.empty((3, block.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        zeta, w = _zeta_w(a, b, c, d, out=(zetas[0], ws[0]))
        ca, cb = np.conj(a), np.conj(b)
        s = ca * da + cb * db
        p = np.conj(da) * c + np.conj(db) * d
        q = ca * dc + cb * dd
        for dzeta, dw, dsum, dnum in (
                (zetas[1], ws[1], 2.0 * s.real, p + q),
                (zetas[2], ws[2], -2.0 * rho * s.imag, 1j * rho * (q - p))):
            # (d zeta, d w) = (w (dnum - zeta dsum), -w w dsum) from the
            # moves of |A|^2 + |B|^2 and of conj(A) C + conj(B) D.
            np.subtract(dnum, np.multiply(zeta, dsum, out=dzeta), out=dzeta)
            np.multiply(w, dzeta, out=dzeta)
            np.negative(w, out=dw)
            dw *= w
            dw *= dsum
    # A non-finite entry value reaches zeta, w or a derivative, so the
    # returned arrays cover the block as well as overflow after it.
    if not (np.isfinite(zetas).all() and np.isfinite(ws).all()):
        raise DomainError("samples on |z| = %g are not finite" % rho)
    return zeta, w, (zetas[1], ws[1], zetas[2], ws[2])


def circle_samples(frame: BryantFrame, grid: QuadratureGrid) -> FluxTriple:
    """Sample X = (zeta, w) on |z| = rho with radial and angular derivatives
    (_immersion_derivatives), and sum the three flux moments over the
    circle into the quadrature's flux triple and the round-off bounds of
    its components (_moments); the samples are not kept.  A sample or
    moment that overflows or is not finite raises DomainError.

    The entries are evaluated once, as one block that eval_branch inverts
    in place; the samples and the moments' sums are formed one slice of
    at most _SLICE nodes at a time, and the slices' sums added, so the
    call holds the block and one slice's temporaries.  At N <= _SLICE
    the one slice is the circle.
    """
    _check_radius(frame, grid.rho)
    block = _entry_block(frame, grid)
    return _moments(grid.rho, grid.samples, (
        _moment_sums(grid.rho, *_immersion_derivatives(
            grid.rho, block[:, start:start + _SLICE]))
        for start in range(0, grid.samples, _SLICE)))


# -- serialization ----------------------------------------------------------

def flux_result_json(t: FluxTriple, value: float) -> dict:
    out = {"phi%d" % k: [v.real, v.imag]
           for k, v in enumerate((t.phi0, t.phi1, t.phi2))}
    out["residue_bound"] = t.residue_bound
    out["polynomial_roots"] = [[r.real, r.imag] for r in
                               FluxPolynomial.from_triple(t).roots()]
    out["value"] = value
    return out
