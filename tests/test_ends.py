import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bryantflux import (DEFAULT_ORDER, Catenoidal, ConsistencyError,
                        DomainError, FluxPolynomial, FrobeniusProblem, GeneralizedSeries,
                        Horosphere, Horospherical, INF, IsometrySL2,
                        LogTermRequiredError, WeierstrassData, build_end,
                        canonical_catenoidal_frame,
                        canonical_horospherical_frame, catenoid_cousin_frame,
                        catenoidal_polynomial, classify_end, extract_axis,
                        flux_triple, frame_checks, frobenius_solve,
                        horosphere_frame, horospherical_polynomial, is_inf,
                        mobius_boundary, ode_residual, transform_frame)
from bryantflux import ends
from bryantflux.series import differentiate, eval_at

from conftest import make_h


def integrate_ode(prob, sol, rho0, rho1):
    """Independent oracle: integrate the entry ODE along the real ray with
    an adaptive Runge-Kutta scheme, seeded from the series at rho0, and
    return the value at rho1."""
    hc = prob.h.coeffs

    def h_val(t):
        return np.polyval(hc[::-1], t)

    def h_der(t):
        k = np.arange(1, len(hc))
        return np.polyval((k * hc[1:])[::-1], t)

    def rhs(t, y):
        x, xp = y
        qq = prob.s / t + h_der(t) / h_val(t)
        return [xp, qq * xp + prob.mu * h_val(t) * t ** prob.coupling * x]

    x0 = complex(eval_at(sol, rho0, np.array([0.0]))[0])
    xp0 = complex(eval_at(differentiate(sol), rho0, np.array([0.0]))[0])
    out = solve_ivp(rhs, (rho0, rho1), [x0, xp0], rtol=1e-12, atol=1e-14,
                    dense_output=False)
    assert out.success
    return out.y[0][-1]


class TestCousinFrame:
    def test_mu_half_offsets_and_constants(self):
        f = catenoid_cousin_frame(0.5)
        assert [e.offset for e in f.entries()] == [0.25, 0.75, -0.75, -0.25]
        assert f.A.coeffs[0] == 1.0
        assert f.B.coeffs[0] == pytest.approx(-1.0 / 3.0)
        assert f.C.coeffs[0] == pytest.approx(-3.0 / 8.0)
        assert f.D.coeffs[0] == pytest.approx(9.0 / 8.0)

    def test_mu_two_offsets_and_constants(self):
        f = catenoid_cousin_frame(2.0)
        assert [e.offset for e in f.entries()] == [-0.5, 1.5, -1.5, 0.5]
        assert f.B.coeffs[0] == pytest.approx(1.0 / 3.0)
        assert f.C.coeffs[0] == pytest.approx(3.0 / 8.0)
        assert f.D.coeffs[0] == pytest.approx(9.0 / 8.0)

    def test_determinant_identity(self):
        for mu in (0.5, 1.5, 2.0, 3.0):
            det, null = frame_checks(catenoid_cousin_frame(mu))
            assert det < 1e-12 and null < 1e-12

    def test_mu_one_rejected(self):
        with pytest.raises(DomainError):
            catenoid_cousin_frame(1.0)

    def test_mu_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            catenoid_cousin_frame(-0.5)


class TestFrobenius:
    def test_constant_h_gives_pure_powers(self):
        mu = 0.5
        prob = FrobeniusProblem(s=-1.0 - mu, coupling=-2, mu=mu, h=make_h(mu))
        lo, hi = prob.indicial_roots
        assert lo == pytest.approx((-1.0 - mu) / 2.0)
        assert hi == pytest.approx((1.0 - mu) / 2.0)
        small, big = frobenius_solve(prob)
        assert np.max(np.abs(small.coeffs[1:])) < 1e-14
        assert np.max(np.abs(big.coeffs[1:])) < 1e-14

    def test_g_equation_roots(self):
        mu = 0.5
        prob = FrobeniusProblem(s=-1.0 + mu, coupling=-2, mu=mu, h=make_h(mu))
        lo, hi = prob.indicial_roots
        assert lo == pytest.approx((mu - 1.0) / 2.0)
        assert hi == pytest.approx((mu + 1.0) / 2.0)

    def test_horospherical_roots(self):
        m = 3
        h = GeneralizedSeries.constant(1.0, order=16)
        f_prob = FrobeniusProblem(s=-2.0, coupling=m - 3, mu=float(m), h=h)
        assert f_prob.indicial_roots == (-1.0, 0.0)
        g_prob = FrobeniusProblem(s=2.0 * m - 2.0, coupling=m - 3,
                                  mu=float(m), h=h)
        assert g_prob.indicial_roots == (0.0, 2.0 * m - 1.0)

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_series_matches_numerical_integration(self, mu):
        h = make_h(mu, extra=(0.0, 0.1))
        prob = FrobeniusProblem(s=-1.0 - mu, coupling=-2, mu=mu, h=h,
                                order=48)
        small, big = frobenius_solve(prob)
        assert abs(big.coeffs[2]) > 1e-4  # the perturbation is picked up
        for sol in (small, big):
            target = complex(eval_at(sol, 0.2, np.array([0.0]))[0])
            numeric = integrate_ode(prob, sol, 0.05, 0.2)
            assert abs(numeric - target) < 1e-8 * max(1.0, abs(target))

    def test_free_coefficient_spans_small_plus_t_big(self):
        # Every lower-root solution is small + t * big, t at the root gap.
        mu = 0.5
        h = make_h(mu, extra=(0.0, 0.05, 0.01))
        prob = FrobeniusProblem(s=-1.0 - mu, coupling=-2, mu=mu, h=h)
        small, big = frobenius_solve(prob)
        lo, hi = prob.indicial_roots
        gap = round(hi - lo)
        assert small.coeffs[gap] == 0.0
        sol = small + 2.5 * big
        assert sol.offset == small.offset and sol.order == small.order
        assert sol.coeffs[gap] == pytest.approx(2.5)
        assert ode_residual(prob, sol) < 1e-9

    def test_log_term_obstruction_raised(self):
        mu = 0.5
        h = make_h(mu, extra=(0.1,))  # h'(0) = 0.1 h(0) != 0
        prob = FrobeniusProblem(s=-1.0 - mu, coupling=-2, mu=mu, h=h)
        with pytest.raises(LogTermRequiredError):
            frobenius_solve(prob)

    def test_ode_residual_small_for_solutions(self):
        mu = 1.5
        h = make_h(mu, extra=(0.0, 0.05, 0.01))
        prob = FrobeniusProblem(s=-1.0 - mu, coupling=-2, mu=mu, h=h)
        small, big = frobenius_solve(prob)
        assert ode_residual(prob, small) < 1e-9
        assert ode_residual(prob, big) < 1e-9

    @pytest.mark.parametrize("mu, s, coupling, h", [
        (0.5, -0.5, -2, make_h(0.5, extra=(0.0, 0.05, 0.01))),
        (3.0, 2.0, -2, make_h(3.0, extra=(0.0, 0.05, 0.01))),
        (2.0, 2.0, -1, GeneralizedSeries.from_coeffs(
            0.0, 0.7 * np.array([1.0, 1.4, 0.3, -0.2] + [0.0] * 29))),
        (3.0, 4.0, 0, GeneralizedSeries.from_coeffs(
            0.0, 0.7 * np.array([1.0, 0.0, 0.3, -0.2] + [0.0] * 29))),
    ], ids=["catenoidal-mu0.5", "catenoidal-mu3", "horospherical-mu2",
            "horospherical-mu3"])
    def test_second_column_odes_solve(self, mu, s, coupling, h):
        # Past k = 0 P = X'/q takes its constant where its exponent k - kc
        # is 0: at the root gap of the horospherical lower root, where
        # mu x_(gap-d) must vanish, and at k = 2 of catenoidal mu = 3.
        prob = FrobeniusProblem(s=s, coupling=coupling, mu=mu, h=h)
        small, big = frobenius_solve(prob)
        lo, hi = prob.indicial_roots
        assert small.coeffs[round(hi - lo)] == 0.0
        assert ode_residual(prob, small) < 1e-12
        assert ode_residual(prob, big) < 1e-12
        bad = h + GeneralizedSeries.monomial(1.0, 0.3, h.order - 1)  # h'(0)
        with pytest.raises(LogTermRequiredError):
            frobenius_solve(FrobeniusProblem(s=s, coupling=coupling, mu=mu,
                                             h=bad))

    def test_ode_residual_flags_corruption(self):
        mu = 1.5
        h = make_h(mu, extra=(0.0, 0.05))
        prob = FrobeniusProblem(s=-1.0 - mu, coupling=-2, mu=mu, h=h)
        _, big = frobenius_solve(prob)
        bad = GeneralizedSeries(big.offset, big.coeffs + 0.01)
        assert ode_residual(prob, bad) > 1e-4

    def test_irregular_singularity_rejected(self):
        with pytest.raises(DomainError):
            FrobeniusProblem(s=-2.0, coupling=-3, mu=2.0,
                             h=GeneralizedSeries.constant(1.0))


class TestCanonicalCatenoidal:
    def test_constant_h_zero_axis_reduces_to_cousin(self):
        mu = 0.5
        frame = canonical_catenoidal_frame(mu, make_h(mu), 0.0)
        cousin = catenoid_cousin_frame(mu)
        for a, b in zip(frame.entries(), cousin.entries()):
            assert a.isclose(b, tol=1e-12)

    def test_axis_round_trip(self):
        mu = 0.5
        frame = canonical_catenoidal_frame(mu, make_h(mu), 1.0)
        a, b = extract_axis(frame)
        assert abs(complex(a) - 1.0) < 1e-10
        assert is_inf(b)

    def test_random_axis_round_trip(self):
        rng = np.random.default_rng(4)
        for mu in (0.5, 1.5, 2.0):
            z = complex(rng.normal(), rng.normal())
            frame = canonical_catenoidal_frame(mu, make_h(mu), z)
            a, b = extract_axis(frame)
            assert abs(complex(a) - z) < 1e-10
            assert is_inf(b)

    def test_perturbed_h_passes_frame_checks(self, perturbed_frame):
        det, null = frame_checks(perturbed_frame)
        assert det < 1e-9 and null < 1e-9

    def test_wrong_h0_rejected(self):
        mu = 0.5
        h = GeneralizedSeries.constant(1.0, order=16)
        with pytest.raises(DomainError):
            canonical_catenoidal_frame(mu, h, 0.0)

    def test_nonzero_h_prime_rejected(self):
        mu = 0.5
        with pytest.raises(DomainError):
            canonical_catenoidal_frame(mu, make_h(mu, extra=(0.1,)), 0.0)

    def test_relation_g_squared_omega(self, perturbed_frame):
        # g^2 omega = B dD - D dB reproduces z^(mu-1) h
        mu = 0.5
        h = make_h(mu, (0.0, 0.05))
        lhs = (perturbed_frame.B * differentiate(perturbed_frame.D)
               - perturbed_frame.D * differentiate(perturbed_frame.B))
        target = GeneralizedSeries(mu - 1.0, h.coeffs)
        diff = lhs - target
        assert np.max(np.abs(diff.coeffs[:-2])) < 1e-8


class TestCanonicalHorospherical:
    def test_mu2_constants(self):
        h = GeneralizedSeries.from_coeffs(0.0, [1.0, 2.0] + [0.0] * 30)
        frame = canonical_horospherical_frame(2, h)
        c_lead = frame.C.normalized()
        assert c_lead.offset == -1.0
        assert abs(c_lead.coeffs[0] + 1.0) < 1e-12  # c = -h(0)
        det, null = frame_checks(frame)
        assert det < 1e-8 and null < 1e-12

    def test_mu3_constant_h_zero_triple(self):
        h = GeneralizedSeries.constant(1.0, order=32)
        frame = canonical_horospherical_frame(3, h)
        t = flux_triple(frame)
        assert max(abs(t.phi0), abs(t.phi1), abs(t.phi2)) < 1e-10

    def test_mu2_compatibility_enforced(self):
        h = GeneralizedSeries.from_coeffs(0.0, [1.0, 0.5] + [0.0] * 10)
        with pytest.raises(DomainError):
            canonical_horospherical_frame(2, h)

    def test_mu3_h_prime_enforced(self):
        h = GeneralizedSeries.from_coeffs(0.0, [1.0, 0.5] + [0.0] * 10)
        with pytest.raises(DomainError):
            canonical_horospherical_frame(3, h)

    def test_non_integer_mu_rejected(self):
        with pytest.raises(DomainError):
            canonical_horospherical_frame(2.5, GeneralizedSeries.constant(1.0))


class TestPairedColumn:
    """B and D come from dB = -g dA, dD = -g dC; they must still solve the
    second-column ODE, which the construction never solves."""

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_catenoidal_second_column_solves_its_ode(self, mu):
        h = make_h(mu, extra=(0.0, 0.05, 0.01))
        frame = canonical_catenoidal_frame(mu, h, 0.3 - 0.7j)
        prob = FrobeniusProblem(s=-1.0 + mu, coupling=-2, mu=mu, h=h)
        assert ode_residual(prob, frame.B) < 1e-12
        assert ode_residual(prob, frame.D) < 1e-12

    @pytest.mark.parametrize("m, first", [(2, 2.0 * 0.7), (3, 0.0)])
    def test_horospherical_second_column_solves_its_ode(self, m, first):
        h = GeneralizedSeries.from_coeffs(
            0.0, 0.7 * np.array([1.0, first, 0.3, -0.2] + [0.0] * 29))
        frame = canonical_horospherical_frame(m, h)
        prob = FrobeniusProblem(s=2.0 * m - 2.0, coupling=m - 3,
                                mu=float(m), h=h)
        assert ode_residual(prob, frame.B) < 1e-12
        assert ode_residual(prob, frame.D) < 1e-12


class TestExtractAxis:
    def test_cousin(self):
        a, b = extract_axis(catenoid_cousin_frame(0.75))
        assert complex(a) == 0.0
        assert is_inf(b)

    def test_transform_covariance(self):
        mu = 0.5
        z = 1.0 + 1.0j
        frame = canonical_catenoidal_frame(mu, make_h(mu), z)
        p = IsometrySL2(1.0, 0.5 - 0.25j, 0.3j, 1.0)
        a, b = extract_axis(transform_frame(p, frame))
        ta = mobius_boundary(p, z)
        tb = mobius_boundary(p, INF)
        assert abs(complex(a) - complex(ta)) < 1e-9
        assert abs(complex(b) - complex(tb)) < 1e-9


class TestClassifyEnd:
    def test_catenoidal(self):
        w = WeierstrassData(mu=0.5, nu=-1.5, h=make_h(0.5))
        assert classify_end(w) == "catenoidal"

    def test_horospherical(self):
        h = GeneralizedSeries.constant(1.0, order=8)
        w = WeierstrassData(mu=2.0, nu=-2.0, h=h)
        assert classify_end(w) == "horospherical"

    def test_mu_one_excluded(self):
        h = GeneralizedSeries.constant(1.0, order=8)
        with pytest.raises(DomainError):
            classify_end(WeierstrassData(mu=1.0, nu=-2.0, h=h))

    def test_degree_zero_needs_nu_minus_two(self):
        h = GeneralizedSeries.constant(1.0, order=8)
        with pytest.raises(DomainError):
            classify_end(WeierstrassData(mu=3.0, nu=-3.0, h=h))


class TestDescriptors:
    def test_growth(self):
        assert Catenoidal(0.5, 0.0, INF).growth == pytest.approx(0.5)
        assert Catenoidal(2.0, 0.0, 1.0).growth == pytest.approx(-1.0)

    def test_mu_one_rejected(self):
        with pytest.raises(DomainError):
            Catenoidal(1.0, 0.0, INF)

    def test_equal_axis_points_rejected(self):
        with pytest.raises(DomainError):
            Catenoidal(0.5, 2.0, 2.0)


# h = h(0)(1 + 10 z^2) vanishes at |z| = 0.32, where h'/h has poles that
# the entire frame entries do not have: a solve through h'/h cannot build it.
SCALED_H_SPECS = [
    {"type": "catenoidal", "mu": 0.5, "axis": [[0.3, 0.1], "inf"],
     "h_perturbation": [0.0, 10.0]},
    {"type": "catenoidal", "mu": 1.5, "axis": [[0.3, 0.1], [1.0, 0.0]],
     "h_perturbation": [0.0, 10.0]},
    {"type": "horospherical", "mu": 2, "h0": [0.7, 0.0],
     "boundary": [2.0, 0.0], "h_perturbation": [1.4, 10.0]},
    {"type": "horospherical", "mu": 3, "h0": [1.0, 0.0], "boundary": "inf",
     "h_perturbation": [0.0, 10.0]},
]
SCALED_H_IDS = ["scaled-h-catenoidal-inf", "scaled-h-catenoidal-finite",
                "scaled-h-horospherical-mu2", "scaled-h-horospherical-mu3"]


class TestBuildEnd:
    def test_catenoidal_spec_finite_boundary(self):
        spec = {"type": "catenoidal", "mu": 0.5,
                "axis": [[1.0, 0.0], [0.0, 1.0]]}
        frame, desc = build_end(spec)
        assert isinstance(desc, Catenoidal)
        a, b = extract_axis(frame)
        assert abs(complex(a) - 1.0) < 1e-8
        assert abs(complex(b) - 1.0j) < 1e-8
        det, null = frame_checks(frame)
        assert det < 1e-8 and null < 1e-7

    def test_catenoidal_spec_with_perturbation(self):
        spec = {"type": "catenoidal", "mu": 1.5, "axis": [[0.5, 0.5], "inf"],
                "h_perturbation": [0.0, 0.05]}
        frame, desc = build_end(spec)
        a, b = extract_axis(frame)
        assert abs(complex(a) - (0.5 + 0.5j)) < 1e-9
        assert is_inf(b)

    def test_horospherical_spec(self):
        spec = {"type": "horospherical", "mu": 2, "boundary": [2.0, 0.0],
                "h_perturbation": [2.0]}
        frame, desc = build_end(spec)
        assert isinstance(desc, Horospherical)
        assert abs(complex(desc.boundary) - 2.0) < 1e-12
        assert abs(desc.kappa) > 1e-6  # mu = 2 end carries nonzero kappa

    @pytest.mark.parametrize("mu", [2, 3, 4])
    @pytest.mark.parametrize("boundary", ["inf", [0.4, -1.2]])
    def test_horospherical_kappa_matches_residues(self, mu, boundary):
        # kappa = (mu h(0))^2 at mu = 2 and 0 at mu >= 3 is the residue
        # -phi0/2pi at an infinite boundary and -phi2/2pi at a finite one.
        h0 = 0.6 - 0.3j
        spec = {"type": "horospherical", "mu": mu, "h0": [h0.real, h0.imag],
                "boundary": boundary,
                "h_perturbation": [[1.2, -0.6] if mu == 2 else 0.0, 0.3]}
        frame, desc = build_end(spec)
        assert desc.kappa == ((2.0 * h0) ** 2 if mu == 2 else 0.0)
        t = flux_triple(frame)
        res = -(t.phi0 if boundary == "inf" else t.phi2) / (2.0 * math.pi)
        assert abs(desc.kappa - res) <= 1e-14 * max(1.0, abs(res))

    def test_horosphere_spec(self):
        frame, desc = build_end({"type": "horosphere"})
        assert isinstance(desc, Horosphere)
        assert frame.C.offset == -1.0

    def test_unknown_type_rejected(self):
        with pytest.raises(DomainError):
            build_end({"type": "helicoidal"})

    @pytest.mark.parametrize("spec", [
        {"type": "catenoidal", "mu": 0.5, "axis": [[0.3, 0.1], "inf"],
         "h_perturbation": [0.0, 0.05]},
        {"type": "catenoidal", "mu": 1.5, "axis": [[0.3, 0.1], [1.0, 0.0]],
         "h_perturbation": [0.0, 0.05]},
        {"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
         "boundary": [2.0, 0.0], "h_perturbation": [1.0, 0.1]},
    ] + [dict(spec, order=order) for spec in SCALED_H_SPECS
         for order in (32, 64, 128)],
        ids=["catenoidal-inf", "catenoidal-finite", "horospherical"]
        + ["%s-%d" % (name, order) for name in SCALED_H_IDS
           for order in (32, 64, 128)])
    def test_one_frobenius_solve_per_end(self, spec, monkeypatch):
        """One solve per end, and the frame holds AD - BC = 1,
        dA dD - dB dC = 0 and A dC - C dA = omega to round-off, with the
        closed-form residue polynomial."""
        calls = []

        def counted(prob):
            calls.append(prob)
            return frobenius_solve(prob)

        monkeypatch.setattr(ends, "frobenius_solve", counted)
        frame, desc = build_end(spec)
        assert len(calls) == 1
        # every entry is truncated at the requested order, D included
        order = spec.get("order", DEFAULT_ORDER)
        assert [e.order for e in frame.entries()] == [order] * 4
        det, null = frame_checks(frame)
        assert det <= 1e-12 and null <= 1e-12
        mu = spec["mu"]
        if spec["type"] == "catenoidal":
            nu, h0 = -1.0 - mu, (1.0 - mu * mu) / (4.0 * mu)
            ref = catenoidal_polynomial(1.0 - mu * mu, desc.axis_from,
                                        desc.boundary)
        else:
            nu, h0 = -2.0, complex(*spec["h0"])
            kappa = (2.0 * h0) ** 2 if mu == 2 else 0.0
            ref = horospherical_polynomial(kappa, desc.boundary)
        h = ends._perturbed_h(h0, spec["h_perturbation"], frame.A.order)
        omega = (frame.A * differentiate(frame.C)
                 - frame.C * differentiate(frame.A)
                 - GeneralizedSeries(nu, h.coeffs))
        assert np.max(np.abs(omega.coeffs[:-1])) <= 1e-12
        got = FluxPolynomial.from_triple(flux_triple(frame))
        for a, b in ((got.quad, ref.quad), (got.lin, ref.lin),
                     (got.const, ref.const)):
            assert abs(a - b) <= 1e-12 * max(1.0, ref.max_abs())


class TestHorosphereFrame:
    def test_exact(self):
        f = horosphere_frame()
        assert frame_checks(f) == (0.0, 0.0)
        assert math.isinf(f.validity_radius)
