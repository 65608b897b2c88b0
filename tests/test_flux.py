import math
import tracemalloc

import numpy as np
import pytest

from bryantflux import (BryantFrame, DomainError,
                        FluxMatrix, FluxPolynomial,
                        FluxTriple, Geodesic, GeneralizedSeries, INF,
                        IsometrySL2, QuadratureGrid, catenoidal_closed_form,
                        cross_ratio,
                        catenoidal_polynomial, canonical_catenoidal_frame,
                        canonical_horospherical_frame, catenoid_cousin_frame,
                        build_end, circle_samples,
                        flux_for_geodesic, flux_triple,
                        horosphere_frame, horospherical_closed_form,
                        horospherical_polynomial, mobius_boundary,
                        transform_frame)
import bryantflux.flux
from bryantflux.flux import (_SLICE, _entry_block, _immersion_derivatives,
                             _moment_sums, _moments, flux_result_json)
from bryantflux.killing import KillingField, field_polynomial
from bryantflux.series import differentiate

from conftest import (make_h, random_geodesic,
                      translated_catenoidal_frame)
from oracles import (derived_forms, eval_at, immersion_derivatives,
                     matrix_of_forms, mul, one_forms, per_field_flux,
                     potential_samples, residue, series_div, sub,
                     vector_samples)

PI = math.pi


def horo_frame_mu2():
    h = GeneralizedSeries(0.0, [1.0, 2.0] + [0.0] * 31)
    return canonical_horospherical_frame(2, h)


def triple_close(t, expected, tol=1e-10):
    for got, want in zip((t.phi0, t.phi1, t.phi2), expected):
        assert abs(got - want) < tol


class TestFluxTriple:
    def test_cousin(self):
        # axis parameter zero: (0, pi (mu^2 - 1), 0)
        mu = 0.5
        triple_close(flux_triple(catenoid_cousin_frame(mu)),
                     (0.0, PI * (mu * mu - 1.0), 0.0))

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_canonical_catenoidal_with_axis_parameter(self, mu):
        zc = 0.3 + 0.2j
        frame = translated_catenoidal_frame(mu, make_h(mu, (0.0, 0.05)), zc)
        triple_close(flux_triple(frame),
                     (2.0 * PI * (1.0 - mu * mu) * zc,
                      PI * (mu * mu - 1.0), 0.0), tol=1e-8)

    def test_canonical_horospherical(self):
        # mu = 2, h(0) = 1: Hopf leading coefficient q_-1 = 2 h(0) = 2,
        # so the triple is (-2 pi q_-1^2, 0, 0) = (-8 pi, 0, 0)
        triple_close(flux_triple(horo_frame_mu2()),
                     (-8.0 * PI, 0.0, 0.0), tol=1e-8)

    def test_horosphere(self):
        triple_close(flux_triple(horosphere_frame()), (0.0, 0.0, 0.0))


def derived_matrix(frame):
    """The flux matrix derived from the residue triple."""
    m = FluxMatrix.from_triple(flux_triple(frame))
    return [m.m11, m.m12, m.m21, m.m22]


class TestFluxMatrix:
    """The matrix derived from the triple is the paper's Res(-(dF) F^-1),
    formed independently (oracles.matrix_of_forms)."""

    def matrix_equiv_defect(self, frame):
        return max(abs(x - y) for x, y in zip(derived_matrix(frame),
                                              matrix_of_forms(frame)))

    def test_cousin_value(self):
        m = FluxMatrix.from_triple(flux_triple(catenoid_cousin_frame(0.5)))
        assert abs(m.m11 - (-3.0 / 16.0)) < 1e-12
        assert abs(m.m22 - 3.0 / 16.0) < 1e-12
        assert abs(m.m12) < 1e-12 and abs(m.m21) < 1e-12

    def test_horosphere_zero(self):
        assert max(map(abs, derived_matrix(horosphere_frame()))) == 0.0

    @pytest.mark.parametrize("builder", [
        lambda: catenoid_cousin_frame(0.5),
        lambda: catenoid_cousin_frame(1.5),
        lambda: translated_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05)),
                                            0.3 + 0.2j),
        horo_frame_mu2,
        horosphere_frame,
    ])
    def test_equivalence_with_triple(self, builder):
        assert self.matrix_equiv_defect(builder()) < 1e-10

    def test_isometry_covariance(self, perturbed_frame):
        # Phi(P F) = P Phi(F) P^-1 (matrix conjugation by P on the left)
        p = IsometrySL2(1.1, 0.3 - 0.2j, 0.1j, 1.0)
        phi = np.reshape(derived_matrix(perturbed_frame), (2, 2))
        pm = np.array([[p.alpha, p.beta], [p.gamma, p.delta]])
        expect = pm @ phi @ np.linalg.inv(pm)
        got = np.reshape(derived_matrix(transform_frame(p, perturbed_frame)),
                         (2, 2))
        assert np.max(np.abs(got - expect)) < 1e-10


# Built ends away from the canonical position, so every entry is a full
# series with a nonzero residue in each one-form.
RESIDUE_ROUTE_SPECS = [
    {"type": "catenoidal", "mu": 0.5, "axis": [[0.3, 0.1], [-0.5, 0.2]],
     "h_perturbation": [0.0, 0.5]},
    {"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
     "h_perturbation": [1.0, 0.5], "boundary": [0.3, 0.2]},
]


def _residues_of_forms(frame):
    """The reference route: form the one-forms, then take residues."""
    fb, fm, fd = one_forms(frame)
    return [4.0 * PI * residue(f) for f in (fd, fm, fb)]


class TestResidueRoute:
    """flux_triple reads residues from leading coefficients and agrees
    exactly with the residues of the formed series; the matrix derived
    from it agrees with the formed Res(-(dF) F^-1) to round-off."""

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("spec", RESIDUE_ROUTE_SPECS,
                             ids=["catenoidal", "horospherical"])
    def test_equals_formed_one_forms(self, spec, order):
        frame, _ = build_end(spec, order=order)
        t = flux_triple(frame)
        assert [t.phi0, t.phi1, t.phi2] == _residues_of_forms(frame)
        assert abs(t.phi0) > 0 and abs(t.phi2) > 0
        want = matrix_of_forms(frame)
        scale = max(map(abs, want))
        assert max(abs(x - y) for x, y in zip(derived_matrix(frame), want)) \
            <= 1e-14 * scale

    def test_truncation_past_residue_is_refused(self):
        # C (offset -1) kept to order 0 or 1 truncates its column, A with
        # it (BryantFrame), and the residues of all three one-forms sit at
        # index 1 of products at offset -2.  At order 0 the columns stop
        # before it: the formed series have no z^-1 coefficient to read,
        # and flux_triple refuses the frame rather than return 0.  At
        # order 1 each residue is the full frame's.
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[1])
        for kept in (0, 1):
            short = BryantFrame(frame.A, frame.B,
                                GeneralizedSeries(frame.C.offset,
                                                  frame.C.coeffs[:kept + 1]),
                                frame.D, frame.validity_radius)
            assert short.A.order == kept
            if kept == 0:
                with pytest.raises(DomainError, match=r"truncated before "
                                   r"the residues .* z\^-1 is at index 1 of "
                                   r"columns of 1 and 33 coefficients"):
                    flux_triple(short)
                continue
            t = flux_triple(short)
            assert [t.phi0, t.phi1, t.phi2] == _residues_of_forms(short)
            assert t == flux_triple(frame)
            assert 0.0 not in (t.phi0, t.phi1, t.phi2)

    def test_holomorphic_forms_give_an_exact_zero(self):
        """Entries moved up by z^3 make all three one-forms holomorphic
        (z^-1 at index -5): the triple is exactly 0, as the formed
        series' residues are, with round-off bounds of 0, and nothing is
        refused."""
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[0])
        up = BryantFrame(*(GeneralizedSeries(e.offset + 3.0, e.coeffs)
                           for e in frame.entries()), frame.validity_radius)
        t = flux_triple(up)
        assert [t.phi0, t.phi1, t.phi2] == _residues_of_forms(up) == [0j] * 3
        assert t.roundoff == (0.0, 0.0, 0.0)

    @staticmethod
    def _unequal_columns(spec, n1, n2, shift):
        """The built frame's columns cut to n1 (A, C) and n2 (B, D)
        coefficients, A and C moved down by ``shift`` powers, which moves
        z^-1 to index 1 + shift of every product."""
        frame, _ = build_end(spec, order=32)
        A, B, C, D = frame.entries()
        return BryantFrame(*(GeneralizedSeries(e.offset - s, e.coeffs[:n])
                             for e, n, s in ((A, n1, shift), (B, n2, 0),
                                             (C, n1, shift), (D, n2, 0))),
                           frame.validity_radius), 1 + shift

    @pytest.mark.parametrize("n1, n2", [(20, 33), (33, 20), (33, 33)],
                             ids=["BD-longer", "BD-shorter", "equal"])
    @pytest.mark.parametrize("spec", RESIDUE_ROUTE_SPECS,
                             ids=["catenoidal", "horospherical"])
    def test_unequal_columns_equal_formed_one_forms(self, spec, n1, n2):
        """Bitwise the residues of the formed one-forms when the columns
        differ in length, with z^-1 at index 1 and at index 9 of the
        products, where the sums' order (the longer operand first)
        decides the last bits."""
        for shift in (0, 8):
            frame, _ = self._unequal_columns(spec, n1, n2, shift)
            t = flux_triple(frame)
            assert [t.phi0, t.phi1, t.phi2] == _residues_of_forms(frame)
            assert 0.0 not in (t.phi0, t.phi1, t.phi2)

    @pytest.mark.parametrize("n1, n2", [(20, 33), (33, 20)],
                             ids=["BD-longer", "BD-shorter"])
    def test_reads_only_the_leading_coefficients(self, n1, n2):
        """Every coefficient past the residue index set to NaN leaves the
        triple unchanged and finite: no later coefficient, and no
        derivative of one, is read."""
        for shift in (0, 8):
            frame, idx = self._unequal_columns(RESIDUE_ROUTE_SPECS[0], n1,
                                               n2, shift)
            poisoned = []
            for e in frame.entries():
                c = e.coeffs.copy()
                c[idx + 1:] = np.nan
                poisoned.append(GeneralizedSeries(e.offset, c))
            t = flux_triple(BryantFrame(*poisoned, frame.validity_radius))
            assert t == flux_triple(frame)
            assert all(map(np.isfinite, (t.phi0, t.phi1, t.phi2)))

    def test_no_series_products(self, monkeypatch):
        """flux_triple forms no series at all, so no product or
        derivative series either."""
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[1], order=128)
        calls = []
        init = GeneralizedSeries.__init__

        def counted(self, *args):
            calls.append(1)
            init(self, *args)

        monkeypatch.setattr(GeneralizedSeries, "__init__", counted)
        flux_triple(frame)
        assert calls == []

    @pytest.mark.parametrize("axis", [[0.0, "inf"], [[0.3, 0.1], [-0.5, 0.2]]],
                             ids=["standard", "finite"])
    def test_residue_bound_covers_the_error_at_small_mu(self, axis):
        """One mu per decade from 1e-16 to 0.1: the triple's error
        against the closed-form polynomial is within its residue bound,
        also where phi1's two sums of about 1/(8 mu) cancel; the bound
        stays below 1e-6 of the triple's scale from 1e-8 up."""
        for mu in 10.0 ** np.arange(-16, 0):
            frame, end = build_end({"type": "catenoidal", "mu": mu,
                                    "axis": axis})
            t = flux_triple(frame)
            ref = catenoidal_polynomial(1.0 - mu * mu, end.axis_from,
                                        end.boundary)
            assert max(abs(t.phi2 - ref.quad), abs(t.phi1 - ref.lin / 2.0),
                       abs(t.phi0 - ref.const)) <= t.residue_bound
            if mu >= 1e-8:
                assert t.residue_bound < 1e-6 * max(
                    1.0, abs(t.phi0), abs(t.phi1), abs(t.phi2))

    def test_overflowing_residue_raises(self):
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[0])
        huge = BryantFrame(frame.A, frame.B, mul(frame.C, 1e300),
                           mul(frame.D, 1e300), frame.validity_radius)
        with pytest.raises(DomainError, match="overflow"):
            flux_triple(huge)

    def test_overflowing_matrix_residue_raises(self):
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[0], order=32)
        huge = BryantFrame(frame.A, frame.B, mul(frame.C, 1e300),
                           mul(frame.D, 1e300), frame.validity_radius)
        with pytest.raises(DomainError, match="overflow"):
            FluxMatrix.from_triple(flux_triple(huge))


def _coefficients(poly):
    return poly.quad, poly.lin, poly.const


_LIMIT_TRIPLE = FluxTriple(0.5 + 0.1j, -0.3 + 0.2j, 0.2 - 0.4j)
_LIMIT_ISOMETRY = IsometrySL2(1.1, 0.3 - 0.2j, 0.1j, 1.0)
_C = 0.7 - 0.2j
# Each case is a function of one boundary point z, continuous at z = inf.
LIMIT_CASES = {
    "cross_ratio-z1": lambda z: cross_ratio(z, 1j, -1.0, 0.5 + 0.5j),
    "cross_ratio-z2": lambda z: cross_ratio(1j, z, -1.0, 0.5 + 0.5j),
    "cross_ratio-z3": lambda z: cross_ratio(1j, -1.0, z, 0.5 + 0.5j),
    "cross_ratio-z4": lambda z: cross_ratio(1j, -1.0, 0.5 + 0.5j, z),
    "mobius_boundary": lambda z: mobius_boundary(_LIMIT_ISOMETRY, z),
    "flux_for_geodesic-translation": lambda z: flux_for_geodesic(
        _LIMIT_TRIPLE, Geodesic(_C, z), "translation"),
    "flux_for_geodesic-rotation": lambda z: flux_for_geodesic(
        _LIMIT_TRIPLE, Geodesic(_C, z), "rotation"),
    "horospherical_closed_form-translation": lambda z:
        horospherical_closed_form(1.5 - 0.5j, 0.3 + 0.2j, Geodesic(_C, z),
                                  "translation"),
    "horospherical_closed_form-rotation": lambda z:
        horospherical_closed_form(1.5 - 0.5j, 0.3 + 0.2j, Geodesic(z, _C),
                                  "rotation"),
    "catenoidal_polynomial-A": lambda z: _coefficients(
        catenoidal_polynomial(0.75, z, 0.3 + 0.2j)),
}


@pytest.mark.parametrize("case", sorted(LIMIT_CASES))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_value_at_infinity_is_the_limit(case, sign):
    """The value at INF matches the value at +-1e8 to 1e-6 relative."""
    at_inf = np.atleast_1d(LIMIT_CASES[case](INF))
    far = np.atleast_1d(LIMIT_CASES[case](sign * 1e8))
    assert np.max(np.abs(at_inf - far)) <= 1e-6 * np.max(np.abs(at_inf))


class TestFluxForGeodesic:
    triple = FluxTriple(0.0, PI * (0.25 - 1.0), 0.0)  # mu = 1/2, Z = 0

    def test_vertical_translation(self):
        for start in (0.0, 1.0, 2.0 - 1.0j):
            val = flux_for_geodesic(self.triple, Geodesic(start, INF),
                                    "translation")
            assert val == pytest.approx(0.75 * PI)

    def test_horizontal_translation(self):
        val = flux_for_geodesic(self.triple, Geodesic(1.0, -1.0),
                                "translation")
        assert val == pytest.approx(0.0)

    def test_vertical_rotation(self):
        val = flux_for_geodesic(self.triple, Geodesic(0.5 + 0.5j, INF),
                                "rotation")
        assert val == pytest.approx(0.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = FluxTriple(complex(rng.normal(), rng.normal()),
                           complex(rng.normal(), rng.normal()),
                           complex(rng.normal(), rng.normal()))
            g = random_geodesic(rng)
            for kind in ("translation", "rotation"):
                a = flux_for_geodesic(t, g, kind)
                b = flux_for_geodesic(t, Geodesic(g.end, g.start), kind)
                assert abs(a + b) < 1e-8 * max(1.0, abs(a))

    def test_infinite_start_matches_finite_limit(self):
        t = FluxTriple(0.5 + 0.1j, -0.3, 0.2 - 0.4j)
        c = 0.7 - 0.2j
        exact = flux_for_geodesic(t, Geodesic(INF, c), "translation")
        big = 1e8
        approx = flux_for_geodesic(t, Geodesic(big, c), "translation")
        assert abs(exact - approx) < 1e-5


class TestCatenoidalClosedForm:
    def test_horizontal_through_vertical_axis(self):
        # cross-ratio (0, 1, -1, inf) = 1/2, so the translation flux is 0
        val = catenoidal_closed_form(0.5, 0.0, INF, Geodesic(1.0, -1.0),
                                     "translation")
        assert val == pytest.approx(0.0)

    def test_geodesic_into_boundary_point(self):
        # D = B gives cross-ratio 1 and flux pi (1 - mu^2)
        mu = 0.5
        val = catenoidal_closed_form(mu, 0.0, 3.0, Geodesic(1.0, 3.0),
                                     "translation")
        assert val == pytest.approx(PI * (1.0 - mu * mu))

    def test_geodesic_out_of_boundary_point(self):
        # C = B gives cross-ratio 0 and flux -pi (1 - mu^2)
        mu = 0.5
        val = catenoidal_closed_form(mu, 0.0, 3.0, Geodesic(3.0, 1.0),
                                     "translation")
        assert val == pytest.approx(-PI * (1.0 - mu * mu))

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_matches_residue_route(self, mu):
        frame = canonical_catenoidal_frame(mu, make_h(mu, (0.0, 0.04)))
        t = flux_triple(frame)
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = random_geodesic(rng)
            for kind in ("translation", "rotation"):
                closed = catenoidal_closed_form(mu, 0.0, INF, g, kind)
                from_triple = flux_for_geodesic(t, g, kind)
                assert abs(closed - from_triple) < 1e-8 * max(1.0, abs(closed))

    def test_polynomial_repeated_axis_point_rejected(self):
        for a in (1.0 + 0.5j, INF):
            with pytest.raises(DomainError):
                catenoidal_polynomial(0.75, a, a)

    def test_polynomial_roots(self):
        poly = catenoidal_polynomial(0.75, 1.0, -2.0)
        roots = sorted(poly.roots(), key=lambda r: r.real)
        assert abs(roots[0] - (-2.0)) < 1e-12
        assert abs(roots[1] - 1.0) < 1e-12

    def test_polynomial_matches_triple(self):
        mu = 0.5
        frame = canonical_catenoidal_frame(mu, make_h(mu))
        poly = catenoidal_polynomial(1.0 - mu * mu, 0.0, INF)
        from_triple = FluxPolynomial.from_triple(flux_triple(frame))
        for x in (0.3, -1.2 + 0.5j, 2.0):
            assert abs(poly(x) - from_triple(x)) < 1e-8


class TestHorosphericalClosedForm:
    def test_kappa_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_geodesic(rng)
            for kind in ("translation", "rotation"):
                assert horospherical_closed_form(0.0, 2.0, g, kind) == 0.0

    def test_canonical_horizontal(self):
        # boundary at infinity, kappa = q_-1^2: -2 pi Re(kappa / 2)
        q = 2.0
        val = horospherical_closed_form(q * q, INF, Geodesic(1.0, -1.0),
                                        "translation")
        assert val == pytest.approx(-PI * q * q)

    def test_vertical_geodesic_zero(self):
        val = horospherical_closed_form(4.0, INF, Geodesic(0.7 + 0.1j, INF),
                                        "translation")
        assert val == pytest.approx(0.0)

    def test_matches_residue_route(self):
        frame = horo_frame_mu2()
        t = flux_triple(frame)
        kappa = -t.phi0 / (2.0 * PI)
        rng = np.random.default_rng(9)
        for _ in range(25):
            g = random_geodesic(rng)
            for kind in ("translation", "rotation"):
                closed = horospherical_closed_form(kappa, INF, g, kind)
                from_triple = flux_for_geodesic(t, g, kind)
                assert abs(closed - from_triple) < 1e-8 * max(1.0, abs(closed))

    def test_matches_residue_route_finite_boundary(self):
        # a built mu = 2 end at a finite boundary, whose kappa is nonzero
        frame, desc = build_end(RESIDUE_ROUTE_SPECS[1])
        assert abs(desc.kappa) > 0.5
        t = flux_triple(frame)
        b = desc.boundary
        rng = np.random.default_rng(13)
        geods = [Geodesic(INF, 1.0 - 0.5j), Geodesic(-0.2 + 0.7j, INF),
                 Geodesic(b, 1.0), Geodesic(1.0, b), Geodesic(b, INF)]
        geods += [random_geodesic(rng, p_inf=0.3) for _ in range(25)]
        for g in geods:
            for kind in ("translation", "rotation"):
                closed = horospherical_closed_form(desc.kappa, b, g, kind)
                from_triple = flux_for_geodesic(t, g, kind)
                assert abs(closed - from_triple) < 1e-8 * max(1.0, abs(closed))

    def test_polynomial_double_root(self):
        poly = horospherical_polynomial(4.0, 1.5)
        roots = poly.roots()
        assert len(roots) == 2
        for r in roots:
            assert abs(r - 1.5) < 1e-6

    def test_polynomial_boundary_infinity_constant(self):
        poly = horospherical_polynomial(4.0, INF)
        assert poly.quad == 0.0 and poly.lin == 0.0
        assert poly.const == pytest.approx(-8.0 * PI)

    @pytest.mark.parametrize("h0", [10.0 ** -k for k in range(3, 11)])
    def test_small_end_keeps_its_double_root(self, h0):
        # The triple is of size (mu h0)^2, down to 1e-19: the root test
        # reads each coefficient against the polynomial's largest one.
        frame, _ = build_end({"type": "horospherical", "mu": 2, "h0": h0,
                              "h_perturbation": [2.0 * h0],
                              "boundary": [0.5, 0.2]})
        roots = FluxPolynomial.from_triple(flux_triple(frame)).roots()
        assert len(roots) == 2
        for r in roots:
            assert abs(r - (0.5 + 0.2j)) < 1e-6

    def test_zero_polynomial_has_no_roots(self):
        # a mu = 3 end has exactly the zero triple
        frame, _ = build_end({"type": "horospherical", "mu": 3, "h0": 0.7,
                              "h_perturbation": [0.0, 0.2],
                              "boundary": [0.5, 0.2]})
        t = flux_triple(frame)
        assert t == FluxTriple(0.0, 0.0, 0.0)
        assert FluxPolynomial.from_triple(t).roots() == []


@pytest.mark.parametrize("kind", ["dilation", "Translation"])
@pytest.mark.parametrize("closed_form", [
    lambda kind: catenoidal_closed_form(0.5, 0.0, INF, Geodesic(1.0, -1.0),
                                        kind),
    lambda kind: horospherical_closed_form(4.0, INF, Geodesic(1.0, -1.0),
                                           kind),
], ids=["catenoidal", "horospherical"])
def test_closed_forms_refuse_other_kinds(closed_form, kind):
    with pytest.raises(DomainError, match="kind must be 'translation' or "
                                          "'rotation'"):
        closed_form(kind)


class TestPolynomialRemarkIdentity:
    def test_against_omega_sharp_residue(self):
        # Pi(X) = -4 pi Res(omega_sharp (1 - X/G)^2), checked at 3 points.
        # The variant with (X - 1/G)^2 sometimes quoted instead produces
        # the coefficient-reversed polynomial; see the second test.
        frame = translated_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05)),
                                            0.3 + 0.2j)
        forms = derived_forms(frame)
        poly = FluxPolynomial.from_triple(flux_triple(frame))
        one = GeneralizedSeries.monomial(0.0, 1.0,
                                         order=forms.gauss.order + 4)
        inv_g = series_div(one, forms.gauss)
        for x in (0.7, -0.4 + 0.9j, 2.3):
            diff = sub(one, mul(inv_g, x))
            rhs = -4.0 * PI * residue(mul(mul(forms.omega_sharp, diff),
                                          diff))
            assert abs(poly(x) - rhs) < 1e-8 * max(1.0, abs(poly(x)))

    def test_reversed_variant_gives_reversed_polynomial(self):
        # -4 pi Res(omega_sharp (X - 1/G)^2) = phi0 X^2 + 2 phi1 X + phi2
        frame = translated_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05)),
                                            0.3 + 0.2j)
        forms = derived_forms(frame)
        t = flux_triple(frame)
        one = GeneralizedSeries.monomial(0.0, 1.0,
                                         order=forms.gauss.order + 4)
        inv_g = series_div(one, forms.gauss)
        for x in (0.7, -0.4 + 0.9j, 2.3):
            xs = GeneralizedSeries.monomial(0.0, x, order=inv_g.order + 2)
            diff = sub(xs, inv_g)
            rhs = -4.0 * PI * residue(mul(mul(forms.omega_sharp, diff),
                                          diff))
            rev = t.phi0 * x * x + 2.0 * t.phi1 * x + t.phi2
            assert abs(rev - rhs) < 1e-8 * max(1.0, abs(rev))


VERTICAL = Geodesic(0.0, INF)


class TestFluxNumeric:
    def test_cousin_vertical_translation(self):
        t = circle_samples(catenoid_cousin_frame(0.5),
                           QuadratureGrid(0.1, 1024))
        assert abs(flux_for_geodesic(t, VERTICAL, "translation")
                   - 0.75 * PI) < 1e-6

    def test_cousin_vertical_rotation(self):
        t = circle_samples(catenoid_cousin_frame(0.5),
                           QuadratureGrid(0.1, 1024))
        assert abs(flux_for_geodesic(t, VERTICAL, "rotation")) < 1e-8

    def test_horosphere_any_field(self):
        # zeta = 1/z is steep near the puncture; the exact derivatives
        # keep the oracle at round-off there too.
        t = circle_samples(horosphere_frame(), QuadratureGrid(0.5, 256))
        for g, kind in ((VERTICAL, "translation"),
                        (Geodesic(1.0, -1.0), "rotation"),
                        (Geodesic(0.5 + 0.5j, 2.0), "translation")):
            assert abs(flux_for_geodesic(t, g, kind)) < 1e-12

    def test_rho_independence(self, perturbed_frame):
        g = Geodesic(1.0, -1.0)
        v1, v2 = (flux_for_geodesic(circle_samples(
            perturbed_frame, QuadratureGrid(rho, 512)), g,
            "translation") for rho in (0.05, 0.1))
        assert abs(v1 - v2) < 1e-6

    def test_moments_not_finite_refused(self):
        # The samples are finite, but w * w underflows in the moments.
        frame = transform_frame(IsometrySL2(1e85, 0, 0, 1e-85),
                                catenoid_cousin_frame(0.5))
        with pytest.raises(DomainError, match=r"flux moments on \|z\| = 0\.5 "
                           "are not finite"):
            circle_samples(frame, QuadratureGrid(0.5, 64))

    def test_antisymmetry_numeric(self, perturbed_frame):
        t = circle_samples(perturbed_frame, QuadratureGrid(0.1, 512))
        g = Geodesic(0.8, -1.3 + 0.4j)
        for kind in ("translation", "rotation"):
            a = flux_for_geodesic(t, g, kind)
            b = flux_for_geodesic(t, Geodesic(g.end, g.start), kind)
            assert abs(a + b) < 1e-8 * max(1.0, abs(a))


class TestSamplesWithoutBranchFactors:
    """circle_samples works on values without their branch factors; on a
    placed frame whose columns sit at different non-integer offsets its
    samples are those of the Horner reference, which keeps them."""

    # Order 32 has 33 coefficients: N = 16 folds them into 16 bins, N = 64
    # places each in its own.  Offsets (-0.65, -0.35) and (-1.35, 0.35).
    @pytest.mark.parametrize("mu", [0.3, 1.7])
    @pytest.mark.parametrize("samples", [16, 64])
    def test_samples_match_horner_reference(self, mu, samples):
        frame = build_end({"type": "catenoidal", "mu": mu,
                           "axis": [[0.3, 0.1], [-0.5, 0.2]],
                           "h_perturbation": [0.0, 0.5]}, order=32)[0]
        offsets = {e.offset for e in frame.entries()}
        assert len(offsets) == 2
        assert all(o != round(o) for o in offsets)
        grid = QuadratureGrid(0.5 * frame.validity_radius, samples)
        zeta, w, derivs = _immersion_derivatives(grid.rho,
                                                 _entry_block(frame, grid))
        got = (zeta, w) + derivs
        # Measured at most 7e-15 of each array's largest modulus.
        for x, ref in zip(got, immersion_derivatives(frame, grid)):
            assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestOracleEquivalence:
    @pytest.mark.parametrize("builder,rho", [
        (lambda: catenoid_cousin_frame(0.5), 0.1),
        (lambda: canonical_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05))),
         0.1),
        # h(0) = 1/2 puts the validity radius at 1/sqrt(2), past rho
        (lambda: canonical_horospherical_frame(
            2, GeneralizedSeries(
                0.0, [0.5, 0.5] + [0.0] * 31)), 0.3),
    ])
    def test_numeric_matches_closed_form(self, builder, rho):
        frame = builder()
        t = flux_triple(frame)
        samples = circle_samples(frame, QuadratureGrid(rho, 1024))
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_geodesic(rng)
            for kind in ("translation", "rotation"):
                numeric = flux_for_geodesic(samples, g, kind)
                closed = flux_for_geodesic(t, g, kind)
                assert abs(numeric - closed) < 1e-10

    def test_isometry_invariance(self, perturbed_frame):
        p = IsometrySL2(1.0, 0.4 - 0.1j, 0.2j, 1.0 + 0.1j)
        moved = transform_frame(p, perturbed_frame)
        grid = QuadratureGrid(0.1, 1024)
        s0 = circle_samples(perturbed_frame, grid)
        s1 = circle_samples(moved, grid)
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = random_geodesic(rng)
            img = Geodesic(mobius_boundary(p, g.start),
                           mobius_boundary(p, g.end))
            for kind in ("translation", "rotation"):
                before = flux_for_geodesic(s0, g, kind)
                after = flux_for_geodesic(s1, img, kind)
                assert abs(before - after) < 1e-6 * max(1.0, abs(before))


# Ends and radii for the moment route: the cousin, a perturbed catenoidal
# end with a finite axis, a horospherical mu = 2 end at a finite boundary
# point, and the horosphere far from its puncture.
MOMENT_ENDS = {
    "cousin": (lambda: catenoid_cousin_frame(0.5), 0.1),
    "catenoidal-finite-axis": (lambda: build_end(
        {"type": "catenoidal", "mu": 0.6, "axis": [[0.3, 0.1], [-0.5, 0.2]],
         "h_perturbation": [0.0, 0.5]})[0], 0.05),
    "horospherical-finite-boundary": (lambda: build_end(
        {"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
         "h_perturbation": [1.0, 0.3], "boundary": [0.3, -0.2]})[0], 0.05),
    "horosphere": (horosphere_frame, 32.0),
}


def moment_geodesics(rng, n=30):
    """Random geodesics, a third of their endpoints infinite, and one
    geodesic from and one to infinity."""
    return [random_geodesic(rng, p_inf=0.3) for _ in range(n)] + [
        Geodesic(INF, 0.4 - 0.7j), Geodesic(-1.2 + 0.3j, INF)]


class TestMomentRoute:
    @pytest.mark.parametrize("end", sorted(MOMENT_ENDS))
    def test_matches_per_field_integrand(self, end):
        builder, rho = MOMENT_ENDS[end]
        frame, grid = builder(), QuadratureGrid(rho, 1024)
        samples = circle_samples(frame, grid)
        immersion = _immersion_derivatives(
            grid.rho, _entry_block(frame, grid))
        for g in moment_geodesics(np.random.default_rng(17)):
            for kind in ("translation", "rotation"):
                k = KillingField(kind, g)
                want = per_field_flux(immersion, grid.rho, k)
                got = flux_for_geodesic(samples, g, kind)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("end", sorted(MOMENT_ENDS))
    def test_moments_are_the_residue_triple(self, end):
        # The quadrature's triple (M2, -M1, M0) is the residue triple
        # (phi0, phi1, phi2): the flux of every Killing field is the
        # linear functional of the residue triple.
        builder, rho = MOMENT_ENDS[end]
        frame = builder()
        q = circle_samples(frame, QuadratureGrid(rho, 1024))
        t = flux_triple(frame)
        scale = max(1.0, abs(t.phi0), abs(t.phi1), abs(t.phi2))
        triple_close(t, (q.phi0, q.phi1, q.phi2), tol=1e-12 * scale)

    def test_polynomial_gives_the_closed_forms(self):
        # Y = (V - w^2 conj(c2), w Re V') and
        # Z = (i (w^2 conj(c2) log w + V/2), 0) for V = c0 + c1 z + c2 z^2.
        rng = np.random.default_rng(29)
        zeta = 2.0 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        w = rng.uniform(0.05, 3.0, size=64)
        for g in moment_geodesics(rng):
            for kind in ("translation", "rotation"):
                k = KillingField(kind, g)
                c0, c1, c2 = field_polynomial(k)
                v = c0 + (c1 + c2 * zeta) * zeta
                dv = c1 + 2.0 * c2 * zeta
                forms = ((v - w * w * np.conj(c2), w * np.real(dv)),
                         (1j * (w * w * np.conj(c2) * np.log(w) + v / 2.0),
                          np.zeros_like(w)))
                for got, want in zip(forms, (vector_samples(k, zeta, w),
                                             potential_samples(k, zeta, w))):
                    for x, y in zip(got, want):
                        assert np.all(np.abs(x - y)
                                      <= 1e-12 * np.maximum(1.0, np.abs(y)))


class TestFluxRecord:
    """Both routes return one record, a FluxTriple with one round-off
    bound per component, read by one pairing."""

    @pytest.mark.parametrize("route", ["flux_triple", "circle_samples"])
    @pytest.mark.parametrize("end", sorted(MOMENT_ENDS))
    def test_both_routes_give_a_flux_triple(self, route, end):
        builder, rho = MOMENT_ENDS[end]
        frame = builder()
        t = (flux_triple(frame) if route == "flux_triple"
             else circle_samples(frame, QuadratureGrid(rho, 256)))
        assert type(t) is FluxTriple
        assert len(t.roundoff) == 3
        for b in t.roundoff:
            assert type(b) is float and math.isfinite(b) and b >= 0.0
        assert t.residue_bound == max(t.roundoff)

    def test_equality_ignores_the_bounds(self):
        t = FluxTriple(0.5 + 0.1j, -0.3, 0.2 - 0.4j)
        assert t.roundoff is None and t.residue_bound is None
        assert FluxTriple(t.phi0, t.phi1, t.phi2, (1.0, 2.0, 3.0)) == t
        assert FluxTriple(t.phi0, t.phi1, t.phi2, (0.0, 0.0, 0.0)) \
            != FluxTriple(t.phi0, t.phi1, 0.0, (0.0, 0.0, 0.0))


def one_pass(frame, grid):
    """The quadrature's record from the whole circle's samples, summed as
    one slice."""
    return _moments(grid.rho, grid.samples, [_moment_sums(
        grid.rho, *_immersion_derivatives(grid.rho,
                                          _entry_block(frame, grid)))])


def hex_bits(t):
    """A quadrature triple and its bounds as exact hex."""
    return [x.hex() for v in (t.phi0, t.phi1, t.phi2)
            for x in (v.real, v.imag)] + [b.hex() for b in t.roundoff]


class TestSlices:
    """circle_samples sums its moments over slices of at most _SLICE
    nodes of one evaluated block; a circle of _SLICE nodes or fewer is
    one slice."""

    @pytest.mark.parametrize("end", sorted(MOMENT_ENDS))
    @pytest.mark.parametrize("samples", [16, 256, 1024])
    def test_one_slice_is_the_one_pass_sum(self, end, samples):
        assert samples <= _SLICE
        builder, rho = MOMENT_ENDS[end]
        frame, grid = builder(), QuadratureGrid(rho, samples)
        assert hex_bits(circle_samples(frame, grid)) \
            == hex_bits(one_pass(frame, grid))

    @pytest.mark.parametrize("end", sorted(MOMENT_ENDS))
    @pytest.mark.parametrize("samples", [4096, 16384])
    def test_slices_add_up_to_the_one_pass_sum(self, end, samples):
        # The slices' sums are added in another order than one pairwise
        # sum over the circle: round-off of the sums, 1e-13 of the CLI's
        # triple scale (measured at most 2.1e-15; the horosphere's zero
        # triple moves by 3e-18).
        builder, rho = MOMENT_ENDS[end]
        frame, grid = builder(), QuadratureGrid(rho, samples)
        got, want = circle_samples(frame, grid), one_pass(frame, grid)
        scale = max(1.0, abs(want.phi0), abs(want.phi1), abs(want.phi2))
        triple_close(got, (want.phi0, want.phi1, want.phi2),
                     tol=1e-13 * scale)
        for got_b, want_b in zip(got.roundoff, want.roundoff, strict=True):
            assert abs(got_b - want_b) <= 1e-13 * want_b

    def test_non_finite_sample_in_the_last_slice_refused(self, monkeypatch):
        # One nan entry value at the circle's last node, in its last slice.
        eval_branch = bryantflux.flux.eval_branch

        def last_node_nan(*args):
            block = eval_branch(*args)
            block[0, -1] = np.nan
            return block

        monkeypatch.setattr(bryantflux.flux, "eval_branch", last_node_nan)
        with pytest.raises(DomainError, match=r"samples on \|z\| = 0\.1 are "
                           "not finite"):
            circle_samples(catenoid_cousin_frame(0.5),
                           QuadratureGrid(0.1, 4 * _SLICE))

    def test_memory_is_the_block_and_one_slice(self):
        # The (8, N) evaluated block takes 128 N bytes; one slice's
        # temporaries measured 0.21 MB, the whole circle's 3 MB.
        builder, rho = MOMENT_ENDS["catenoidal-finite-axis"]
        frame, grid = builder(), QuadratureGrid(rho, 16384)
        circle_samples(frame, grid)
        tracemalloc.start()
        try:
            circle_samples(frame, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * grid.samples + 512 * 1024


class TestWhiteBoxIntegrand:
    def test_simplified_coefficients_match_raw(self, perturbed_frame):
        # The simplified a1, a2, a3 (series route) must agree pointwise
        # with their raw definitions in terms of the immersion derivatives.
        frame = perturbed_frame
        grid = QuadratureGrid(0.1, 128)
        rho = grid.rho
        zeta, w, (dzeta_drho, dw_drho, dzeta_dtau, dw_dtau) = \
            _immersion_derivatives(rho, _entry_block(frame, grid))
        z = rho * np.exp(1j * grid.taus)
        log_w = np.log(w)
        dtau_log_w = dw_dtau / w
        dtau_zeta_log_w = dzeta_dtau * log_w + zeta * dtau_log_w
        conj_mix = np.conj(rho * dzeta_drho + 1j * dzeta_dtau)

        def on_circle(ser):
            return eval_at(ser, grid.rho, grid.taus)

        A, B, C, D = frame.entries()
        dA, dB, dC, dD = map(differentiate, frame.entries())
        a1_series = (2.0 * z * (on_circle(dB) * on_circle(C)
                                - on_circle(dA) * on_circle(D))
                     + 1j * dtau_log_w)
        a2_series = 2.0 * z * (on_circle(dA) * on_circle(B)
                               - on_circle(A) * on_circle(dB))
        a3_series = (2.0 * z * (on_circle(dC) * on_circle(D)
                                - on_circle(C) * on_circle(dD))
                     - 2j * dtau_zeta_log_w + 1j * dzeta_dtau)

        a1_raw = (zeta / w ** 2) * conj_mix + (rho / w) * dw_drho
        a2_raw = -conj_mix / w ** 2
        a3_raw = (-(zeta ** 2 / w ** 2) * conj_mix
                  + rho * dzeta_drho
                  - 2j * dzeta_dtau * log_w
                  - 2.0 * (rho / w) * dw_drho * zeta)

        for series, raw in ((a1_series, a1_raw), (a2_series, a2_raw),
                            (a3_series, a3_raw)):
            scale = max(1.0, float(np.max(np.abs(raw))))
            assert np.max(np.abs(series - raw)) < 1e-6 * scale


class TestSerialization:
    def test_result_json(self):
        t = flux_triple(catenoid_cousin_frame(0.5))
        out = flux_result_json(t, value=0.75 * PI)
        assert out["phi1"][0] == pytest.approx(-0.75 * PI)
        assert out["value"] == pytest.approx(0.75 * PI)
        roots = out["polynomial_roots"]
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(0.0)
