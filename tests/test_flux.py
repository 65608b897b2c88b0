import math

import numpy as np
import pytest

from bryantflux import (BryantFrame, ConsistencyError, DomainError,
                        FluxMatrix, FluxPolynomial,
                        FluxTriple, Geodesic, GeneralizedSeries, INF,
                        IsometrySL2, QuadratureGrid, catenoidal_closed_form,
                        cross_ratio,
                        catenoidal_polynomial, canonical_catenoidal_frame,
                        canonical_horospherical_frame, catenoid_cousin_frame,
                        build_end, circle_samples, derived_forms,
                        flux_for_geodesic,
                        flux_matrix, flux_numeric, flux_triple,
                        horosphere_frame, horospherical_closed_form,
                        horospherical_polynomial, mobius_boundary, one_forms,
                        residue, transform_frame)
from bryantflux.flux import flux_from_samples, flux_result_json
from bryantflux.killing import KillingField
from bryantflux.series import differentiate, eval_at

from conftest import make_h, random_geodesic

PI = math.pi


def horo_frame_mu2():
    h = GeneralizedSeries.from_coeffs(0.0, [1.0, 2.0] + [0.0] * 31)
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
        frame = canonical_catenoidal_frame(mu, make_h(mu, (0.0, 0.05)), zc)
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


class TestFluxMatrix:
    def matrix_equiv_defect(self, frame):
        t = flux_triple(frame)
        m = flux_matrix(frame)
        four_pi = 4.0 * PI
        return max(abs(four_pi * m.m11 - t.phi1),
                   abs(four_pi * m.m12 - t.phi2),
                   abs(four_pi * m.m21 + t.phi0),
                   abs(four_pi * m.m22 + t.phi1))

    def test_cousin_value(self):
        m = flux_matrix(catenoid_cousin_frame(0.5))
        assert abs(m.m11 - (-3.0 / 16.0)) < 1e-12
        assert abs(m.m22 - 3.0 / 16.0) < 1e-12
        assert abs(m.m12) < 1e-12 and abs(m.m21) < 1e-12

    def test_horosphere_zero(self):
        m = flux_matrix(horosphere_frame())
        assert max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22)) == 0.0

    @pytest.mark.parametrize("builder", [
        lambda: catenoid_cousin_frame(0.5),
        lambda: catenoid_cousin_frame(1.5),
        lambda: canonical_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05)),
                                           0.3 + 0.2j),
        horo_frame_mu2,
        horosphere_frame,
    ])
    def test_equivalence_with_triple(self, builder):
        assert self.matrix_equiv_defect(builder()) < 1e-10

    def test_trace_defect_rejected(self):
        with pytest.raises(ConsistencyError):
            FluxMatrix(1.0, 0.0, 0.0, 1.0)

    def test_isometry_covariance(self, perturbed_frame):
        # Phi(P F) = P Phi(F) P^-1 (matrix conjugation by P on the left)
        p = IsometrySL2(1.1, 0.3 - 0.2j, 0.1j, 1.0)
        m = flux_matrix(perturbed_frame)
        mp = flux_matrix(transform_frame(p, perturbed_frame))
        phi = np.array([[m.m11, m.m12], [m.m21, m.m22]])
        pm = np.array([[p.alpha, p.beta], [p.gamma, p.delta]])
        expect = pm @ phi @ np.linalg.inv(pm)
        got = np.array([[mp.m11, mp.m12], [mp.m21, mp.m22]])
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


def _matrix_of_forms(frame):
    A, B, C, D = frame.entries()
    dA, dB, dC, dD = map(differentiate, frame.entries())
    return [residue(-(dA * D - dB * C)), residue(-(dB * A - dA * B)),
            residue(-(dC * D - dD * C)), residue(-(dD * A - dC * B))]


class TestResidueRoute:
    """flux_triple and flux_matrix read residues from leading coefficients
    and agree exactly with the residues of the formed series."""

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("spec", RESIDUE_ROUTE_SPECS,
                             ids=["catenoidal", "horospherical"])
    def test_equals_formed_one_forms(self, spec, order):
        frame, _ = build_end(spec, order=order)
        t = flux_triple(frame)
        assert [t.phi0, t.phi1, t.phi2] == _residues_of_forms(frame)
        assert abs(t.phi0) > 0 and abs(t.phi2) > 0
        m = flux_matrix(frame)
        assert [m.m11, m.m12, m.m21, m.m22] == _matrix_of_forms(frame)

    def test_truncation_past_residue_gives_zero(self):
        # C (offset -1) kept to order 0: z^-1 of D dC - C dD and of
        # C dB - D dA lies at index 1, past C's truncation, so those
        # differences have no residue, as the series differences say.
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[1])
        short = BryantFrame(frame.A, frame.B,
                            GeneralizedSeries(frame.C.offset,
                                              frame.C.coeffs[:1]),
                            frame.D, frame.validity_radius)
        t = flux_triple(short)
        assert [t.phi0, t.phi1, t.phi2] == _residues_of_forms(short)
        assert t.phi0 == t.phi1 == 0.0
        assert t.phi2 == flux_triple(frame).phi2 != 0.0

    def test_no_series_products(self, monkeypatch):
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[1], order=128)
        calls = []
        mul = GeneralizedSeries.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(GeneralizedSeries, "__mul__", counted)
        flux_triple(frame)
        assert calls == []

    def test_overflowing_residue_raises(self):
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[0])
        huge = BryantFrame(frame.A, frame.B, 1e300 * frame.C, 1e300 * frame.D,
                           frame.validity_radius)
        with pytest.raises(DomainError, match="overflow"):
            flux_triple(huge)

    def test_overflowing_matrix_residue_raises(self):
        frame, _ = build_end(RESIDUE_ROUTE_SPECS[0], order=32)
        huge = BryantFrame(frame.A, frame.B, 1e300 * frame.C, 1e300 * frame.D,
                           frame.validity_radius)
        with pytest.raises(DomainError, match="overflow"):
            flux_matrix(huge)

    @pytest.mark.parametrize("slot", range(4))
    def test_nan_entry_fails_trace_check(self, slot):
        entries = [0.5, 0.0, 0.0, -0.5]
        entries[slot] = complex("nan+nanj")
        with pytest.raises(ConsistencyError):
            FluxMatrix(*entries)


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
                b = flux_for_geodesic(t, g.reversed(), kind)
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
        frame = canonical_catenoidal_frame(mu, make_h(mu, (0.0, 0.04)), 0.0)
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
        frame = canonical_catenoidal_frame(mu, make_h(mu), 0.0)
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


class TestPolynomialRemarkIdentity:
    def test_against_omega_sharp_residue(self):
        # Pi(X) = -4 pi Res(omega_sharp (1 - X/G)^2), checked at 3 points.
        # The variant with (X - 1/G)^2 sometimes quoted instead produces
        # the coefficient-reversed polynomial; see the second test.
        frame = canonical_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05)),
                                           0.3 + 0.2j)
        forms = derived_forms(frame)
        poly = FluxPolynomial.from_triple(flux_triple(frame))
        one = GeneralizedSeries.constant(1.0, order=forms.gauss.order + 4)
        inv_g = one / forms.gauss
        for x in (0.7, -0.4 + 0.9j, 2.3):
            diff = one - x * inv_g
            rhs = -4.0 * PI * residue(forms.omega_sharp * diff * diff)
            assert abs(poly(x) - rhs) < 1e-8 * max(1.0, abs(poly(x)))

    def test_reversed_variant_gives_reversed_polynomial(self):
        # -4 pi Res(omega_sharp (X - 1/G)^2) = phi0 X^2 + 2 phi1 X + phi2
        frame = canonical_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05)),
                                           0.3 + 0.2j)
        forms = derived_forms(frame)
        t = flux_triple(frame)
        one = GeneralizedSeries.constant(1.0, order=forms.gauss.order + 4)
        inv_g = one / forms.gauss
        for x in (0.7, -0.4 + 0.9j, 2.3):
            xs = GeneralizedSeries.constant(x, order=inv_g.order + 2)
            diff = xs - inv_g
            rhs = -4.0 * PI * residue(forms.omega_sharp * diff * diff)
            rev = t.phi0 * x * x + 2.0 * t.phi1 * x + t.phi2
            assert abs(rev - rhs) < 1e-8 * max(1.0, abs(rev))


def vertical_translation():
    return KillingField("translation", Geodesic(0.0, INF))


class TestFluxNumeric:
    def test_cousin_vertical_translation(self):
        grid = QuadratureGrid(0.1, 1024)
        val = flux_numeric(catenoid_cousin_frame(0.5), vertical_translation(),
                           grid)
        assert abs(val - 0.75 * PI) < 1e-6

    def test_cousin_vertical_rotation(self):
        grid = QuadratureGrid(0.1, 1024)
        k = KillingField("rotation", Geodesic(0.0, INF))
        assert abs(flux_numeric(catenoid_cousin_frame(0.5), k, grid)) < 1e-8

    def test_horosphere_any_field(self):
        # zeta = 1/z is steep near the puncture; the exact derivatives
        # keep the oracle at round-off there too.
        grid = QuadratureGrid(0.5, 256)
        frame = horosphere_frame()
        for k in (vertical_translation(),
                  KillingField("rotation", Geodesic(1.0, -1.0)),
                  KillingField("translation", Geodesic(0.5 + 0.5j, 2.0))):
            assert abs(flux_numeric(frame, k, grid)) < 1e-12

    def test_rho_independence(self, perturbed_frame):
        k = KillingField("translation", Geodesic(1.0, -1.0))
        v1 = flux_numeric(perturbed_frame, k, QuadratureGrid(0.05, 512))
        v2 = flux_numeric(perturbed_frame, k, QuadratureGrid(0.1, 512))
        assert abs(v1 - v2) < 1e-6

    def test_antisymmetry_numeric(self, perturbed_frame):
        samples = circle_samples(perturbed_frame, QuadratureGrid(0.1, 512))
        g = Geodesic(0.8, -1.3 + 0.4j)
        for kind in ("translation", "rotation"):
            a = flux_from_samples(samples, KillingField(kind, g))
            b = flux_from_samples(samples, KillingField(kind, g.reversed()))
            assert abs(a + b) < 1e-8 * max(1.0, abs(a))


class TestOracleEquivalence:
    @pytest.mark.parametrize("builder,rho", [
        (lambda: catenoid_cousin_frame(0.5), 0.1),
        (lambda: canonical_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05)),
                                            0.0), 0.1),
        # h(0) = 1/2 puts the validity radius at 1/sqrt(2), past rho
        (lambda: canonical_horospherical_frame(
            2, GeneralizedSeries.from_coeffs(
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
                numeric = flux_from_samples(samples, KillingField(kind, g))
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
                before = flux_from_samples(s0, KillingField(kind, g))
                after = flux_from_samples(s1, KillingField(kind, img))
                assert abs(before - after) < 1e-6 * max(1.0, abs(before))


class TestWhiteBoxIntegrand:
    def test_simplified_coefficients_match_raw(self, perturbed_frame):
        # The simplified a1, a2, a3 (series route) must agree pointwise
        # with their raw definitions in terms of the immersion derivatives.
        frame = perturbed_frame
        grid = QuadratureGrid(0.1, 128)
        s = circle_samples(frame, grid)
        z = s.rho * np.exp(1j * s.taus)
        log_w = np.log(s.w)
        dtau_log_w = s.dw_dtau / s.w
        dtau_zeta_log_w = s.dzeta_dtau * log_w + s.zeta * dtau_log_w
        conj_mix = np.conj(s.rho * s.dzeta_drho + 1j * s.dzeta_dtau)

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
                     - 2j * dtau_zeta_log_w + 1j * s.dzeta_dtau)

        a1_raw = (s.zeta / s.w ** 2) * conj_mix + (s.rho / s.w) * s.dw_drho
        a2_raw = -conj_mix / s.w ** 2
        a3_raw = (-(s.zeta ** 2 / s.w ** 2) * conj_mix
                  + s.rho * s.dzeta_drho
                  - 2j * s.dzeta_dtau * log_w
                  - 2.0 * (s.rho / s.w) * s.dw_drho * s.zeta)

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
