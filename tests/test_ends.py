import json
import logging
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bryantflux import (DEFAULT_ORDER, Catenoidal, ConsistencyError,
                        DomainError, FluxPolynomial, FrobeniusProblem, GeneralizedSeries,
                        Horosphere, Horospherical, INF, IsometrySL2,
                        LogTermRequiredError, build_end,
                        canonical_catenoidal_frame,
                        canonical_horospherical_frame, catenoid_cousin_frame,
                        catenoidal_polynomial, extract_axis,
                        flux_triple, frame_from_json, frame_to_json,
                        frobenius_solve, horosphere_frame,
                        horospherical_polynomial, is_inf,
                        mobius_boundary, transform_frame)
from bryantflux import bryant, ends, series
from bryantflux.series import differentiate

from conftest import (frame_defects, make_h, pass_windows,
                      translated_catenoidal_frame)
from oracles import (WeierstrassData, add, classify_end, eval_at,
                     frobenius_mp, identity_windows, mul, normalized,
                     ode_residual, placed_by_entries, radius_estimate,
                     series_isclose, sub)


def integrate_ode(sol, s, m, mu, h, rho0, rho1):
    """Independent oracle: integrate the entry ODE
    X'' = (s/z + h'/h) X' + mu h z^m X along the real ray with an adaptive
    Runge-Kutta scheme, seeded from the series at rho0, and return the
    value at rho1."""
    hc = h.coeffs

    def h_val(t):
        return np.polyval(hc[::-1], t)

    def h_der(t):
        k = np.arange(1, len(hc))
        return np.polyval((k * hc[1:])[::-1], t)

    def rhs(t, y):
        x, xp = y
        qq = s / t + h_der(t) / h_val(t)
        return [xp, qq * xp + mu * h_val(t) * t ** m * x]

    x0 = complex(eval_at(sol, rho0, np.array([0.0]))[0])
    xp0 = complex(eval_at(differentiate(sol), rho0, np.array([0.0]))[0])
    out = solve_ivp(rhs, (rho0, rho1), [x0, xp0], rtol=1e-12, atol=1e-14,
                    dense_output=False)
    assert out.success
    return out.y[0][-1]


class TestCousinFrame:
    # Each column sits at its lower offset (BryantFrame), so an entry's
    # own power is that of its normalized series.
    def test_mu_half_offsets_and_constants(self):
        f = catenoid_cousin_frame(0.5)
        A, B, C, D = (normalized(e) for e in f.entries())
        assert [e.offset for e in (A, B, C, D)] == [0.25, 0.75, -0.75, -0.25]
        assert A.coeffs[0] == 1.0
        assert B.coeffs[0] == pytest.approx(-1.0 / 3.0)
        assert C.coeffs[0] == pytest.approx(-3.0 / 8.0)
        assert D.coeffs[0] == pytest.approx(9.0 / 8.0)

    def test_mu_two_offsets_and_constants(self):
        f = catenoid_cousin_frame(2.0)
        A, B, C, D = (normalized(e) for e in f.entries())
        assert [e.offset for e in (A, B, C, D)] == [-0.5, 1.5, -1.5, 0.5]
        assert B.coeffs[0] == pytest.approx(1.0 / 3.0)
        assert C.coeffs[0] == pytest.approx(3.0 / 8.0)
        assert D.coeffs[0] == pytest.approx(9.0 / 8.0)

    def test_determinant_identity(self):
        for mu in (0.5, 1.5, 2.0, 3.0):
            frame = catenoid_cousin_frame(mu)
            det, null = frame_defects(frame)[:2]
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
        prob = FrobeniusProblem(s=-1.0 - mu, mu=mu, h=make_h(mu))
        lo, hi = prob.indicial_roots
        assert lo == pytest.approx((-1.0 - mu) / 2.0)
        assert hi == pytest.approx((1.0 - mu) / 2.0)
        small, big = frobenius_solve(prob)
        assert np.max(np.abs(small.coeffs[1:])) < 1e-14
        assert np.max(np.abs(big.coeffs[1:])) < 1e-14

    def test_horospherical_roots(self):
        m = 3
        h = GeneralizedSeries.monomial(0.0, 1.0, order=16)
        f_prob = FrobeniusProblem(s=-2.0, mu=float(m), h=h)
        assert f_prob.indicial_roots == (-1.0, 0.0)

    def test_large_mu_builds_with_the_closed_form_flux(self):
        """400 log-spaced catenoidal mu in [1e5, 1e10] all build, with
        phi1 within 2.8e-16 relative of -pi (1 - mu^2).  Roots computed
        from the double h(0) drift off their gap of 1 there, which
        refused 181 of them; the closed-form roots are 1 apart."""
        worst = 0.0
        for mu in np.logspace(5, 10, 400):
            frame, _ = build_end({"type": "catenoidal", "mu": float(mu),
                                  "axis": [0, "inf"]})
            want = -math.pi * (1.0 - mu * mu)
            worst = max(worst, abs(flux_triple(frame).phi1 - want)
                        / abs(want))
        assert worst <= 2.8e-16

    @pytest.mark.parametrize("mu", [1.05, 1.3, 1.8, 3.1])
    def test_roots_an_ulp_off_their_gap_build(self, mu):
        """-1 - mu rounds for these mu while 1 - mu does not, so the
        rounded closed-form roots are 1 - 2^-53 or 1 - 2^-52 apart: the
        end builds, with phi1 within 1e-14 of -pi (1 - mu^2)."""
        lo, hi = (-1.0 - mu) / 2.0, (1.0 - mu) / 2.0
        assert hi - lo != 1.0
        frame, _ = build_end({"type": "catenoidal", "mu": mu,
                              "axis": [0, "inf"]})
        want = -math.pi * (1.0 - mu * mu)
        assert abs(flux_triple(frame).phi1 - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("mu", [2.0 ** 33 - 2.0 ** -20, 1e16, 1e20])
    def test_roots_not_one_apart_refused(self, mu):
        """Where the rounded closed-form roots are more than 1e-9 off a gap
        of 1 (1 + mu rounds below 2^33, or mu absorbs the 1), the problem
        refuses mu; at 1e20 both roots round to one value, and the frame
        built on them gives phi1 = 0."""
        h = GeneralizedSeries.monomial(0.0, (1.0 - mu * mu) / (4.0 * mu))
        with pytest.raises(DomainError, match="rounds the indicial roots"):
            FrobeniusProblem(s=-1.0 - mu, mu=mu, h=h)

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_series_matches_numerical_integration(self, mu):
        h = make_h(mu, extra=(0.0, 0.1))
        prob = FrobeniusProblem(s=-1.0 - mu, mu=mu, h=h,
                                order=48)
        small, big = frobenius_solve(prob)
        assert abs(big.coeffs[2]) > 1e-4  # the perturbation is picked up
        for sol in (small, big):
            target = complex(eval_at(sol, 0.2, np.array([0.0]))[0])
            numeric = integrate_ode(sol, -1.0 - mu, -2, mu, h, 0.05, 0.2)
            assert abs(numeric - target) < 1e-8 * max(1.0, abs(target))

    def test_free_coefficient_spans_small_plus_t_big(self):
        # Every lower-root solution is small + t * big, t at the root gap.
        mu = 0.5
        h = make_h(mu, extra=(0.0, 0.05, 0.01))
        prob = FrobeniusProblem(s=-1.0 - mu, mu=mu, h=h)
        small, big = frobenius_solve(prob)
        lo, hi = prob.indicial_roots
        gap = round(hi - lo)
        assert small.coeffs[gap] == 0.0
        sol = add(small, mul(big, 2.5))
        assert sol.offset == small.offset and sol.order == small.order
        assert sol.coeffs[gap] == pytest.approx(2.5)
        assert ode_residual(sol, -1.0 - mu, -2, mu, h) < 1e-9

    def test_log_term_obstruction_raised(self):
        mu = 0.5
        h = make_h(mu, extra=(0.1,))  # h'(0) = 0.1 h(0) != 0
        prob = FrobeniusProblem(s=-1.0 - mu, mu=mu, h=h)
        with pytest.raises(LogTermRequiredError):
            frobenius_solve(prob)

    def test_ode_residual_small_for_solutions(self):
        mu = 1.5
        h = make_h(mu, extra=(0.0, 0.05, 0.01))
        prob = FrobeniusProblem(s=-1.0 - mu, mu=mu, h=h)
        small, big = frobenius_solve(prob)
        assert ode_residual(small, -1.0 - mu, -2, mu, h) < 1e-9
        assert ode_residual(big, -1.0 - mu, -2, mu, h) < 1e-9

    @pytest.mark.parametrize("s, mu, h", [
        (-1.5, 0.5, make_h(0.5, extra=(0.0, 0.05, 0.01))),
        (-2.5, 1.5, make_h(1.5, extra=(0.0, 0.05, 0.01))),
        (-2.0, 2.0, GeneralizedSeries(
            0.0, 0.7 * np.array([1.0, 1.4, 0.3, -0.2] + [0.0] * 29))),
        (-2.0, 3.0, GeneralizedSeries(
            0.0, 0.7 * np.array([1.0, 0.0, 0.3, -0.2] + [0.0] * 29))),
    ], ids=["catenoidal-mu0.5", "catenoidal-mu1.5", "horospherical-mu2",
            "horospherical-mu3"])
    def test_second_column_odes_solve(self, s, mu, h):
        # Each end type's first column solves its ODE, m = s + mu - 1,
        # with x_1 = 0 at the root gap; an h'(0) off the constraint is a
        # resonance obstruction there.
        prob = FrobeniusProblem(s=s, mu=mu, h=h)
        small, big = frobenius_solve(prob)
        assert small.coeffs[1] == 0.0
        assert ode_residual(small, s, s + mu - 1.0, mu, h) < 1e-12
        assert ode_residual(big, s, s + mu - 1.0, mu, h) < 1e-12
        # an h'(0) term
        bad = add(h, GeneralizedSeries.monomial(1.0, 0.3, h.order - 1))
        with pytest.raises(LogTermRequiredError):
            frobenius_solve(FrobeniusProblem(s=s, mu=mu, h=bad))

    def test_ode_residual_flags_corruption(self):
        mu = 1.5
        h = make_h(mu, extra=(0.0, 0.05))
        prob = FrobeniusProblem(s=-1.0 - mu, mu=mu, h=h)
        _, big = frobenius_solve(prob)
        bad = GeneralizedSeries(big.offset, big.coeffs + 0.01)
        assert ode_residual(bad, -1.0 - mu, -2, mu, h) > 1e-4

    def test_other_columns_rejected(self):
        # Neither a catenoidal (s = -1 - mu) nor a horospherical (s = -2,
        # integer mu >= 2) first column, then a catenoidal column whose
        # h(0) is not (1 - mu^2)/(4 mu).
        one = GeneralizedSeries.monomial(0.0, 1.0)
        for s, mu, h in ((-2.0, 2.5, one), (-1.2, 0.5, make_h(0.5)),
                         (2.0, 3.0, one), (-1.5, 0.5, one)):
            with pytest.raises(DomainError):
                FrobeniusProblem(s=s, mu=mu, h=h)


def product_calls(monkeypatch):
    """The problems that frobenius_solve solves by the product form, both
    roots in one call, as a list that each such solve appends to."""
    calls = []
    product = ends._product_rows

    def counted(prob, lo, hi, hn):
        calls.append(prob)
        return product(prob, lo, hi, hn)

    monkeypatch.setattr(ends, "_product_rows", counted)
    return calls


def assert_matches_mpmath(prob, rtol=1e-13):
    """Every coefficient of both roots above 1e-280 within ``rtol``
    relative of the 50-digit recurrence, and every zero of it exactly
    zero."""
    for got, ref in zip(frobenius_solve(prob), frobenius_mp(prob)):
        ref = np.array([complex(v) for v in ref])
        big = np.abs(ref) > 1e-280
        assert np.all(np.abs(got.coeffs - ref)[big]
                      <= rtol * np.abs(ref)[big])
        assert np.all(got.coeffs[ref == 0] == 0)


class TestProductForm:
    """A catenoidal column whose h has one term h_n, n >= 2, past h(0) is
    solved as one product of term ratios; everything else runs the loop."""

    @pytest.mark.parametrize("order", [32, 128])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("mu", [0.32, 0.6, 0.83, 1.7])
    def test_single_term_matches_mpmath(self, mu, n, order, monkeypatch):
        calls = product_calls(monkeypatch)
        for p in (0.013, 0.42, 7.5):
            extra = [0.0] * (n - 1) + [p]
            assert_matches_mpmath(FrobeniusProblem(
                s=-1.0 - mu, mu=mu,
                h=make_h(mu, extra=extra, order=order), order=order))
        assert len(calls) == 3

    @pytest.mark.parametrize("order", [32, 128])
    def test_two_terms_match_mpmath_on_the_loop(self, order, monkeypatch):
        calls = product_calls(monkeypatch)
        for mu in (0.32, 0.6, 0.83, 1.7):
            assert_matches_mpmath(FrobeniusProblem(
                s=-1.0 - mu, mu=mu,
                h=make_h(mu, extra=(0.0, 0.42, 0.1), order=order),
                order=order))
        assert calls == []

    @pytest.mark.parametrize("order", [32, 128])
    @pytest.mark.parametrize("mu", [2, 3, 4])
    def test_horospherical_columns_match_mpmath(self, mu, order,
                                                monkeypatch):
        # h = h0 (1 + p_1 z + p_2 z^2), p_1 = 2 h0 at mu = 2 (h'(0) =
        # 2 h(0)^2) and 0 above; the loop runs with d = mu - 1.
        calls = product_calls(monkeypatch)
        for h0 in (0.329, 0.6, 1.0):
            for p2 in (0.0133, 0.42, 4.0):
                first = 2.0 * h0 if mu == 2 else 0.0
                h = GeneralizedSeries(0.0, h0 * np.array(
                    [1.0, first, p2] + [0.0] * (order - 2), dtype=complex))
                assert_matches_mpmath(FrobeniusProblem(
                    s=-2.0, mu=mu, h=h, order=order), rtol=1e-11)
        assert calls == []

    @pytest.mark.parametrize("h0", [0.6 - 0.3j, 0.329 + 0.2j],
                             ids=["0.6-0.3i", "0.329+0.2i"])
    @pytest.mark.parametrize("mu", [2, 3])
    def test_complex_horospherical_columns_match_mpmath(self, mu, h0):
        first = 2.0 * h0 if mu == 2 else 0.0
        h = GeneralizedSeries(0.0, h0 * np.array(
            [1.0, first, 0.42, -0.3, 0.1] + [0.0] * 124, dtype=complex))
        assert_matches_mpmath(FrobeniusProblem(s=-2.0, mu=mu, h=h,
                                               order=128), rtol=1e-11)

    @pytest.mark.parametrize("mu, s, h, products", [
        (0.5, -1.5, make_h(0.5), 1),
        (0.5, -1.5, make_h(0.5, extra=(0.0, 0.05)), 1),
        (0.5, -1.5, make_h(0.5, extra=(0.0, 0.05, 0.01)), 0),
        (2.0, -2.0, GeneralizedSeries(
            0.0, 0.5 * np.array([1.0, 1.0, 0.1] + [0.0] * 30)), 0),
        (3.0, -2.0, GeneralizedSeries(
            0.0, np.array([1.0, 0.0, 0.3] + [0.0] * 30)), 0),
    ], ids=["constant-h", "single-term", "two-terms", "horospherical-mu2",
            "horospherical-mu3"])
    def test_branch_is_chosen_from_the_data(self, mu, s, h, products,
                                            monkeypatch):
        calls = product_calls(monkeypatch)
        prob = FrobeniusProblem(s=s, mu=mu, h=h)
        small, big = frobenius_solve(prob)
        assert len(calls) == products
        lo, hi = prob.indicial_roots
        assert small.coeffs[round(hi - lo)] == 0.0
        m = s + mu - 1.0
        assert ode_residual(small, s, m, mu, h) < 1e-12
        assert ode_residual(big, s, m, mu, h) < 1e-12

    def test_lone_h1_raises_the_loops_error(self, monkeypatch):
        # A lone h_1 runs the loop, as does the same data with a far
        # second term: the obstruction at the gap, k = 1, is
        # h_1 p_0 = 0.0375 * -2 on both.
        calls = product_calls(monkeypatch)
        errors, probs = [], []
        for extra in ((0.1,), (0.1, 0.0, 0.0, 0.0, 1e-3)):
            probs.append(FrobeniusProblem(s=-1.5, mu=0.5,
                                          h=make_h(0.5, extra=extra)))
            with pytest.raises(LogTermRequiredError) as exc:
                frobenius_solve(probs[-1])
            errors.append(str(exc.value))
        assert calls == []
        assert errors[0] == errors[1]
        assert errors[0].startswith("resonance obstruction 7.500e-02 at "
                                    "order 1:")

    def test_overflow_is_left_to_the_frame_check(self):
        # pytest turns a RuntimeWarning into an error
        prob = FrobeniusProblem(s=-1.5, mu=0.5,
                                h=make_h(0.5, extra=(0.0, 1e200)))
        small, big = frobenius_solve(prob)
        assert not np.isfinite(small.coeffs).all()
        assert not np.isfinite(big.coeffs).all()

    def test_obstruction_is_logged_on_both_paths(self, caplog):
        caplog.set_level(logging.DEBUG, logger="bryantflux")
        p1 = 1e-12  # obstructions below the 1e-9 bar
        # catenoidal, a lone h_1 on the loop: h_1 = 0.375 p1, obstruction
        # h_1 p_0, p_0 = mu / -kc
        cat = FrobeniusProblem(s=-1.5, mu=0.5,
                               h=make_h(0.5, extra=(p1,)))
        # loop: h'(0) = 2 h0^2 + p1, obstruction h_1 p_0 + h_0 p_1 = -p1/h0
        h0 = 0.5
        horo = FrobeniusProblem(s=-2.0, mu=2.0,
                                h=GeneralizedSeries(
                                    0.0, [h0, 2.0 * h0 * h0 + p1, 0.1]))
        small, _ = frobenius_solve(cat)
        assert not small.coeffs[1:].any()  # 0 from the gap on, as in the loop
        frobenius_solve(horo)
        records = [r for r in caplog.records if r.name == "bryantflux"
                   and r.msg.startswith("resonance obstruction")]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        (cat_ob, k, bar), (horo_ob, k2, _) = (r.args for r in records)
        assert (k, k2, bar) == (1, 1, 1e-9)
        kc = cat.s + 1.0 - cat.indicial_roots[0]
        assert cat_ob == pytest.approx(0.375 * p1 * 0.5 / abs(kc), rel=1e-12)
        assert horo_ob == pytest.approx(p1 / h0, rel=1e-3)


class TestCanonicalCatenoidal:
    def test_constant_h_zero_axis_reduces_to_cousin(self):
        mu = 0.5
        frame = canonical_catenoidal_frame(mu, make_h(mu))
        cousin = catenoid_cousin_frame(mu)
        for a, b in zip(frame.entries(), cousin.entries()):
            assert series_isclose(a, b, tol=1e-12)

    def test_axis_round_trip(self):
        mu = 0.5
        frame = translated_catenoidal_frame(mu, make_h(mu), 1.0)
        a, b = extract_axis(frame)
        assert abs(complex(a) - 1.0) < 1e-10
        assert is_inf(b)

    def test_random_axis_round_trip(self):
        rng = np.random.default_rng(4)
        for mu in (0.5, 1.5, 2.0):
            z = complex(rng.normal(), rng.normal())
            frame = translated_catenoidal_frame(mu, make_h(mu), z)
            a, b = extract_axis(frame)
            assert abs(complex(a) - z) < 1e-10
            assert is_inf(b)

    def test_perturbed_h_passes_frame_checks(self, perturbed_frame):
        det, null = frame_defects(perturbed_frame)[:2]
        assert det < 1e-9 and null < 1e-9

    def test_wrong_h0_rejected(self):
        mu = 0.5
        h = GeneralizedSeries.monomial(0.0, 1.0, order=16)
        with pytest.raises(DomainError):
            canonical_catenoidal_frame(mu, h)

    def test_nonzero_h_prime_rejected(self):
        mu = 0.5
        with pytest.raises(DomainError):
            canonical_catenoidal_frame(mu, make_h(mu, extra=(0.1,)))

    @pytest.mark.parametrize("mu", [1e-7, 1e-8])
    def test_small_mu_bars_scale_with_h0(self, mu):
        """At small mu the target h(0) = (1 - mu^2)/(4 mu) is 2.5e6 or
        2.5e7, an ulp of which exceeds 1e-10: h(0) an ulp above it, and
        h'(0) = 1e-9, both past the absolute bar 1e-10, build a frame
        that passes every identity (checked_frame, with omega, inside the
        build).  The bars are 1e-10 max(1, |target|) and
        1e-10 max(1, |h(0)|), so h'(0) at twice the latter is refused."""
        target = (1.0 - mu * mu) / (4.0 * mu)
        h0 = np.nextafter(target, np.inf)
        assert 1e-10 < h0 - target <= 1e-10 * target

        def h(first):
            coeffs = np.zeros(17, dtype=complex)
            coeffs[:3] = h0, first, 0.3 * h0
            return GeneralizedSeries(0.0, coeffs)

        frame = canonical_catenoidal_frame(mu, h(1e-9), order=16)
        om = GeneralizedSeries(-1.0 - mu, h(1e-9).coeffs)
        assert max(frame_defects(frame, om)) <= 1e-8
        with pytest.raises(DomainError, match=r"requires h'\(0\) = 0"):
            canonical_catenoidal_frame(mu, h(2e-10 * h0), order=16)

    @pytest.mark.parametrize("mu", [1e-7, 1e-8])
    def test_small_mu_obstruction_on_the_scale_of_c(self, mu):
        """h = h0 (1 + 1e-4/h0 z + 0.3 z^2), h0 an ulp above its target:
        h'(0) = 1e-4 is within the bar 1e-10 |h(0)|, and the obstruction
        h_1 p_0, about 2e-4 mu, is within an absolute 1e-9, but
        C = -h(0) f1 carries it times |h(0)| ~ 1/(4 mu).  It is refused
        against 1e-9 / |h(0)|, the bar on C's scale, as a resonance or an
        h'(0) DomainError, not left to checked_frame's omega check."""
        target = (1.0 - mu * mu) / (4.0 * mu)
        h0 = np.nextafter(target, np.inf)
        coeffs = np.zeros(17, dtype=complex)
        coeffs[:3] = 1.0, 1e-4 / h0, 0.3
        with pytest.raises(DomainError) as refused:
            canonical_catenoidal_frame(mu, GeneralizedSeries(0.0, h0 * coeffs),
                                       order=16)
        assert (refused.type is LogTermRequiredError
                or "requires h'(0) = 0" in str(refused.value))

    def test_relation_g_squared_omega(self, perturbed_frame):
        # g^2 omega = B dD - D dB reproduces z^(mu-1) h
        mu = 0.5
        h = make_h(mu, (0.0, 0.05))
        lhs = sub(mul(perturbed_frame.B, differentiate(perturbed_frame.D)),
                  mul(perturbed_frame.D, differentiate(perturbed_frame.B)))
        target = GeneralizedSeries(mu - 1.0, h.coeffs)
        diff = sub(lhs, target)
        assert np.max(np.abs(diff.coeffs[:-2])) < 1e-8


class TestCanonicalHorospherical:
    def test_mu2_constants(self):
        h = GeneralizedSeries(0.0, [1.0, 2.0] + [0.0] * 30)
        frame = canonical_horospherical_frame(2, h)
        c_lead = normalized(frame.C)
        assert c_lead.offset == -1.0
        assert abs(c_lead.coeffs[0] + 1.0) < 1e-12  # c = -h(0)
        det, null = frame_defects(frame)[:2]
        assert det < 1e-8 and null < 1e-12

    def test_mu3_constant_h_zero_triple(self):
        h = GeneralizedSeries.monomial(0.0, 1.0, order=32)
        frame = canonical_horospherical_frame(3, h)
        t = flux_triple(frame)
        assert max(abs(t.phi0), abs(t.phi1), abs(t.phi2)) < 1e-10

    def test_mu2_compatibility_enforced(self):
        h = GeneralizedSeries(0.0, [1.0, 0.5] + [0.0] * 10)
        with pytest.raises(DomainError):
            canonical_horospherical_frame(2, h)

    def test_mu3_h_prime_enforced(self):
        h = GeneralizedSeries(0.0, [1.0, 0.5] + [0.0] * 10)
        with pytest.raises(DomainError):
            canonical_horospherical_frame(3, h)

    def test_non_integer_mu_rejected(self):
        with pytest.raises(DomainError):
            canonical_horospherical_frame(
                2.5, GeneralizedSeries.monomial(0.0, 1.0))


class TestPairedColumn:
    """B and D come from dB = -g dA, dD = -g dC; they must still solve the
    second-column ODE, which the construction never solves."""

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_catenoidal_second_column_solves_its_ode(self, mu):
        h = make_h(mu, extra=(0.0, 0.05, 0.01))
        frame = translated_catenoidal_frame(mu, h, 0.3 - 0.7j)
        assert ode_residual(frame.B, -1.0 + mu, -2, mu, h) < 1e-12
        assert ode_residual(frame.D, -1.0 + mu, -2, mu, h) < 1e-12

    @pytest.mark.parametrize("m, first", [(2, 2.0 * 0.7), (3, 0.0)])
    def test_horospherical_second_column_solves_its_ode(self, m, first):
        h = GeneralizedSeries(
            0.0, 0.7 * np.array([1.0, first, 0.3, -0.2] + [0.0] * 29))
        frame = canonical_horospherical_frame(m, h)
        assert ode_residual(frame.B, 2.0 * m - 2.0, m - 3, m, h) < 1e-12
        assert ode_residual(frame.D, 2.0 * m - 2.0, m - 3, m, h) < 1e-12


class TestExtractAxis:
    def test_cousin(self):
        a, b = extract_axis(catenoid_cousin_frame(0.75))
        assert complex(a) == 0.0
        assert is_inf(b)

    def test_transform_covariance(self):
        mu = 0.5
        z = 1.0 + 1.0j
        frame = translated_catenoidal_frame(mu, make_h(mu), z)
        p = IsometrySL2(1.0, 0.5 - 0.25j, 0.3j, 1.0)
        a, b = extract_axis(transform_frame(p, frame))
        ta = mobius_boundary(p, z)
        tb = mobius_boundary(p, INF)
        assert abs(complex(a) - complex(ta)) < 1e-9
        assert abs(complex(b) - complex(tb)) < 1e-9

    def test_zero_first_column_refused(self):
        zero = GeneralizedSeries(0.0, [0.0, 0.0])
        one = GeneralizedSeries(0.0, [1.0, 0.0])
        frame = bryant.BryantFrame(zero, one, zero, one, 1.0)
        with pytest.raises(DomainError, match="degenerate frame"):
            extract_axis(frame)


class TestClassifyEnd:
    def test_catenoidal(self):
        w = WeierstrassData(mu=0.5, nu=-1.5, h=make_h(0.5))
        assert classify_end(w) == "catenoidal"

    def test_horospherical(self):
        h = GeneralizedSeries.monomial(0.0, 1.0, order=8)
        w = WeierstrassData(mu=2.0, nu=-2.0, h=h)
        assert classify_end(w) == "horospherical"

    def test_mu_one_excluded(self):
        h = GeneralizedSeries.monomial(0.0, 1.0, order=8)
        with pytest.raises(DomainError):
            classify_end(WeierstrassData(mu=1.0, nu=-2.0, h=h))

    def test_degree_zero_needs_nu_minus_two(self):
        h = GeneralizedSeries.monomial(0.0, 1.0, order=8)
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
        det, null = frame_defects(frame)[:2]
        assert det < 1e-8 and null < 1e-7

    def test_catenoidal_spec_with_perturbation(self):
        spec = {"type": "catenoidal", "mu": 1.5, "axis": [[0.5, 0.5], "inf"],
                "h_perturbation": [0.0, 0.05]}
        frame, desc = build_end(spec)
        a, b = extract_axis(frame)
        assert abs(complex(a) - (0.5 + 0.5j)) < 1e-9
        assert is_inf(b)

    @pytest.mark.parametrize("spec, build", [
        ({"type": "catenoidal", "mu": 0.5, "axis": [[0.0, 0.0], "inf"],
          "h_perturbation": [0.0, 0.05]},
         lambda h: canonical_catenoidal_frame(0.5, h)),
        ({"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
          "h_perturbation": [1.0, 0.05], "boundary": "inf"},
         lambda h: canonical_horospherical_frame(2, h)),
    ], ids=["catenoidal", "horospherical"])
    def test_standard_position_is_not_moved(self, spec, build):
        # The placing isometry is the identity: no entry is multiplied by
        # it, so even the signs of zero coefficients are as built.
        frame, _ = build_end(spec)
        h0 = (1.0 - 0.25) / 2.0 if spec["type"] == "catenoidal" else 0.5
        coeffs = np.zeros(33, dtype=complex)
        coeffs[:3] = [1.0] + spec["h_perturbation"]
        want = build(GeneralizedSeries(0.0, h0 * coeffs))
        for got, ref in zip(frame.entries(), want.entries()):
            assert got.offset == ref.offset
            assert got.coeffs.tobytes() == ref.coeffs.tobytes()

    @pytest.mark.parametrize("a", [0.3 + 0.1j, -2.0j, 1e3])
    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_axis_to_infinity_translates_the_standard_frame(self, mu, a):
        """An axis (a, infinity) is the standard axis (0, infinity) moved by
        zeta -> zeta + a: A and B as built, C = a A + C0, D = a B + D0."""
        spec = {"type": "catenoidal", "mu": mu, "axis": [[0.0, 0.0], "inf"],
                "h_perturbation": [0.0, 0.05, 0.01]}
        std, _ = build_end(spec)
        frame, desc = build_end(dict(spec, axis=[[a.real, a.imag], "inf"]))
        assert desc == Catenoidal(mu, a, INF)
        for got, want in ((frame.A, std.A), (frame.B, std.B)):
            assert got.offset == want.offset
            assert np.array_equal(got.coeffs, want.coeffs)
        assert frame.validity_radius == std.validity_radius
        for got, first, second in ((frame.C, std.A, std.C),
                                   (frame.D, std.B, std.D)):
            # A and C, and B and D, share their column's offset
            assert got.offset == second.offset == first.offset
            want = a * first.coeffs + second.coeffs
            assert np.all(np.abs(got.coeffs - want) <= 1e-15 * np.abs(want))

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

    @pytest.mark.parametrize("boundary", [[1e16, 0.0], [-1e16, 0.0],
                                          [3e20, 1e20]])
    def test_far_horospherical_boundary_keeps_its_polynomial(self, boundary):
        # b + 1 rounds to b or b + 2 here, so the end is placed by the
        # anchor's two exact factors
        spec = {"type": "horospherical", "mu": 2, "h0": 0.5,
                "h_perturbation": [1.0, 0.1], "boundary": boundary}
        frame, desc = build_end(spec)
        got = FluxPolynomial.from_triple(flux_triple(frame))
        ref = horospherical_polynomial(desc.kappa, desc.boundary)
        for a, b in ((got.quad, ref.quad), (got.lin, ref.lin),
                     (got.const, ref.const)):
            assert abs(a - b) <= 1e-8 * abs(b)

    def test_far_placement_factors_are_the_anchors_isometry(self):
        # Below 2^52 the end is placed from the anchor b + 1; the two
        # exact factors used beyond it place it the same way.
        b = 1e15 + 0.5j
        spec = {"type": "horospherical", "mu": 2, "h0": 0.5,
                "h_perturbation": [1.0, 0.1], "boundary": [b.real, b.imag]}
        frame, _ = build_end(spec)
        std, _ = build_end(dict(spec, boundary="inf"))
        two = transform_frame(IsometrySL2(1.0, 0.0, b, 1.0), transform_frame(
            IsometrySL2(1.0, -1.0, 1.0, 0.0), std))
        for got, want in zip(frame.entries(), two.entries()):
            assert got.offset == want.offset
            assert np.all(np.abs(got.coeffs - want.coeffs)
                          <= 1e-15 * np.abs(want.coeffs).max())

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
        calls = build_steps(monkeypatch)
        frame, desc = build_end(spec)
        assert len(calls["frobenius_solve"]) == 1
        # every entry is truncated at the requested order, D included
        order = spec.get("order", DEFAULT_ORDER)
        assert [e.order for e in frame.entries()] == [order] * 4
        det, null = frame_defects(frame)[:2]
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
        omega = sub(sub(mul(frame.A, differentiate(frame.C)),
                        mul(frame.C, differentiate(frame.A))),
                    GeneralizedSeries(nu, h.coeffs))
        assert np.max(np.abs(omega.coeffs[:-1])) <= 1e-12
        got = FluxPolynomial.from_triple(flux_triple(frame))
        for a, b in ((got.quad, ref.quad), (got.lin, ref.lin),
                     (got.const, ref.const)):
            assert abs(a - b) <= 1e-12 * max(1.0, ref.max_abs())

    @pytest.mark.parametrize("spec, placements", [
        ({"type": "catenoidal", "mu": 0.5, "axis": [[0.0, 0.0], "inf"],
          "h_perturbation": [0.0, 0.3]}, 0),
        ({"type": "horospherical", "mu": 3, "h0": [0.6, -0.3],
          "boundary": "inf", "h_perturbation": [0.0, 0.3]}, 0),
        ({"type": "catenoidal", "mu": 1.5, "axis": [[0.3, 0.1], [1.0, 0.0]],
          "h_perturbation": [0.0, 0.3]}, 1),
        ({"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
          "boundary": [2.0, 0.0], "h_perturbation": [1.0, 0.1]}, 1),
        ({"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
          "boundary": [2.0 ** 53, 3.0], "h_perturbation": [1.0, 0.1]}, 2),
    ], ids=["catenoidal-standard", "horospherical-inf", "catenoidal-general",
            "horospherical-finite", "horospherical-far"])
    def test_build_steps(self, spec, placements, monkeypatch):
        """build_end is one frobenius_solve, one checked_frame with omega
        on the standard frame, and 0, 1 or 2 transform_frame calls: none
        at the standard position, one for a general axis or boundary, and
        P's two exact factors from |b| >= 2^52 on.  The first placement
        takes the checked standard frame."""
        calls = build_steps(monkeypatch)
        frame, _ = build_end(spec)
        assert len(calls["frobenius_solve"]) == 1
        [(standard, omega)] = calls["checked_frame"]
        assert omega is not None
        moves = calls["transform_frame"]
        assert len(moves) == placements
        if moves:
            assert moves[0][1] is standard and frame is not standard
        else:
            assert frame is standard


class TestHorosphereFrame:
    def test_exact(self):
        f = horosphere_frame()
        assert frame_defects(f)[:2] == (0.0, 0.0)
        assert math.isinf(f.validity_radius)


# -- the frame checks of a built end ------------------------------------------

DEFECT_SPECS = [
    {"type": "catenoidal", "mu": 0.5, "axis": [[0.3, 0.1], "inf"],
     "h_perturbation": [0.0, 2.0]},
    {"type": "catenoidal", "mu": 1.5, "axis": [[0.3, 0.1], [1.0, 0.0]],
     "h_perturbation": [0.0, 0.5]},
    {"type": "horospherical", "mu": 2, "h0": [0.7, 0.0],
     "boundary": [2.0, 0.0], "h_perturbation": [1.4, 0.3]},
    {"type": "horospherical", "mu": 3, "h0": [0.6, -0.3], "boundary": "inf",
     "h_perturbation": [0.0, 0.3]},
]
DEFECT_IDS = ["catenoidal-inf", "catenoidal-finite", "horospherical-mu2",
              "horospherical-mu3"]


def series_windows(frame, omega):
    """The reference: the det, null and, when ``omega`` is given, omega
    residual windows by series arithmetic, each to the extent the
    identity pass keeps."""
    A, B, C, D = frame.entries()
    dA, dB, dC, dD = map(differentiate, frame.entries())
    det = sub(mul(A, D), mul(B, C))
    residuals = [sub(det, GeneralizedSeries.monomial(
        0.0, 1.0, order=det.order + abs(round(det.offset)))),
        sub(mul(dA, dD), mul(dB, dC))]
    if omega is not None:
        residuals.append(sub(sub(mul(A, dC), mul(C, dA)), omega))
    return [r.coeffs[:max(r.order, 1)] for r in residuals]


def gamma(m):
    """Higham's gamma_m = m u / (1 - m u), u = 2^-53 (Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1)."""
    u = 2.0 ** -53
    return m * u / (1.0 - m * u)


def assert_windows_within_roundoff(frame, omega, count=3):
    """The pass's first ``count`` residual windows (det, null, omega)
    have the extents of the series formulas', and each coefficient lies
    within 2 gamma_(n+2) s_k of the formula's, for the product length n
    and the scale s_k of the two products that cancel in it: the bound
    on two sums of the same products in two orders."""
    (_, a, _), (_, b, _) = frame.columns
    lengths = (min(len(a), len(b)),) * 2 + (len(a),)
    got = pass_windows(frame.columns, omega)
    scales = pass_windows(frame.columns, omega, scale=True)
    for r, want, s, n in list(zip(got, series_windows(frame, omega), scales,
                                  lengths))[:count]:
        assert len(r) == len(want) == len(s)
        assert (np.abs(r - want) <= 2.0 * gamma(n + 2) * s).all()


def checked_calls(spec, monkeypatch):
    """build_end(spec) and the (frame, omega) of each checked_frame call
    it makes."""
    calls = build_steps(monkeypatch)
    return build_end(spec), calls["checked_frame"]


def recorded_solves(monkeypatch):
    """The list to which each later ends._end_frame call appends its
    (A, B, C, D) as copied series: the entries as solved, each at its own
    offset, before their columns are aligned."""
    solved, end_frame = [], ends._end_frame

    def recording(offsets, rows, nu, h):
        solved.append([GeneralizedSeries(o, r.copy())
                       for o, r in zip(offsets, rows)])
        return end_frame(offsets, rows, nu, h)

    monkeypatch.setattr(ends, "_end_frame", recording)
    return solved


def build_steps(monkeypatch):
    """A dict that lists, by name, the arguments of every later call of
    frobenius_solve, checked_frame and transform_frame made in ends."""
    calls = {}

    def spy(name):
        fn, calls[name] = getattr(ends, name), []

        def recording(*args):
            calls[name].append(args)
            return fn(*args)

        monkeypatch.setattr(ends, name, recording)

    for name in ("frobenius_solve", "checked_frame", "transform_frame"):
        spy(name)
    return calls


class TestDefectPass:
    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("spec", DEFECT_SPECS, ids=DEFECT_IDS)
    def test_defects_equal_the_series_formulas(self, spec, order,
                                               monkeypatch):
        """Each residual coefficient equals the series formula's to the
        round-off of a dot product; the det and null windows do not
        depend on whether omega is checked."""
        (frame, _), calls = checked_calls(dict(spec, order=order),
                                          monkeypatch)
        [(built, omega)] = calls
        assert omega is not None
        assert_windows_within_roundoff(built, omega)
        assert frame_defects(built)[:2] == frame_defects(built, omega)[:2]
        # the frame moved to a finite boundary point, which checked_frame
        # does not see
        assert_windows_within_roundoff(frame, omega, count=2)

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("spec", DEFECT_SPECS, ids=DEFECT_IDS)
    def test_validity_radius_is_half_the_least_root_test(self, spec, order,
                                                         monkeypatch):
        # The root test reads the entries as solved, each at its own
        # offset, before BryantFrame aligns the columns.
        solved = recorded_solves(monkeypatch)
        (frame, _), [(built, _)] = checked_calls(dict(spec, order=order),
                                                 monkeypatch)
        radius = 0.5 * min(radius_estimate(e) for e in solved[0])
        assert built.validity_radius == radius
        assert frame.validity_radius == radius

    @pytest.mark.parametrize("spec", DEFECT_SPECS, ids=DEFECT_IDS)
    def test_one_pass_forms_no_intermediate_series(self, spec, monkeypatch):
        """Four series constructions per build: h, the solve's two and
        omega; none for an entry.  No BryantFrame is constructed: the
        standard frame's columns are aligned from the bare rows, by the
        two alignments of bryant._columns, and no other alignment runs;
        one np.convolve per product of the checks, which forms exactly
        the coefficients of its identity's window."""
        counts = {"series": 0, "frames": 0, "convolve": 0}
        series_init, convolve = GeneralizedSeries.__init__, np.convolve
        formed = []
        frame_init = bryant.BryantFrame.__init__
        aligned, aligned_callers = series._aligned, []

        def counted_aligned(*args):
            aligned_callers.append(sys._getframe(1).f_code)
            return aligned(*args)

        for module in (series, bryant, ends):
            if hasattr(module, "_aligned"):
                monkeypatch.setattr(module, "_aligned", counted_aligned)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def recorded_convolve(*args):
            out = convolve(*args)
            formed.append(len(out))
            return out

        monkeypatch.setattr(GeneralizedSeries, "__init__",
                            counted("series", series_init))
        monkeypatch.setattr(bryant.BryantFrame, "__init__",
                            counted("frames", frame_init))
        monkeypatch.setattr(np, "convolve",
                            counted("convolve", recorded_convolve))
        calls = build_steps(monkeypatch)
        build_end(spec)
        assert counts == {"series": 4, "frames": 0, "convolve": 6}
        assert aligned_callers == [bryant._columns.__code__] * 2
        [(built, omega)] = calls["checked_frame"]
        monkeypatch.setattr(np, "convolve", convolve)
        windows = pass_windows(built.columns, omega)
        assert formed == [len(w) for w in windows for _ in range(2)]

    def test_built_end_logs_its_defects(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="bryantflux")
        (frame, _), [(built, omega)] = checked_calls(DEFECT_SPECS[1],
                                                     monkeypatch)
        [record] = [r for r in caplog.records
                    if r.name == "bryantflux" and r.levelno == logging.DEBUG
                    and r.msg.startswith("frame defects")]
        assert record.args == (*frame_defects(built, omega),
                               built.validity_radius)
        assert "omega" in record.getMessage()


def one_term_frame(offset, a, b, c, d):
    """The frame of four one-term series at one offset, radius 1."""
    return bryant.BryantFrame(*(GeneralizedSeries(offset, [x])
                                for x in (a, b, c, d)), 1.0)


def outcome(frame, omega=None):
    """The lengths of the frame's residual windows and checked_frame's
    verdict: "accepted", or the class and message of its refusal."""
    lengths = [len(w) for w in pass_windows(frame.columns, omega)]
    try:
        bryant.checked_frame(frame, omega)
    except ConsistencyError as exc:
        return lengths, "ConsistencyError: %s" % exc
    return lengths, "accepted"


def standard_frame(monkeypatch, order=16):
    """The standard frame of DEFECT_SPECS[1] at ``order`` and its omega,
    as build_end checks them."""
    _, [(built, omega)] = checked_calls(dict(DEFECT_SPECS[1], order=order),
                                        monkeypatch)
    return built, omega


DET_REFUSED = ("ConsistencyError: frame violates AD - BC = 1 or "
               "dA dD - dB dC = 0 ")
OMEGA_REFUSED = "ConsistencyError: frame violates omega = A dC - C dA "


@st.composite
def identity_operands(draw):
    """(columns, omega) for the identity pass: columns of 1 to 40
    coefficients at offsets whose sum is an integer, coefficients of
    scales 1e-3 to 1e3 with negative zeros among their parts, and no
    omega or one whose offset puts it below, inside or above its
    window."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def array(n):
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** (
            rng.uniform(-3.0, 3.0))
        x.real[rng.random(n) < 0.2] = -0.0
        x.imag[rng.random(n) < 0.2] = -0.0
        return x

    o1 = draw(st.sampled_from([-2.5, -1.0, -0.5, 0.0, 1.5]))
    o2 = draw(st.integers(-3, 3)) - o1
    n1, n2 = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    columns = ((o1, array(n1), array(n1)), (o2, array(n2), array(n2)))
    omega = None
    if draw(st.booleans()):
        omega = GeneralizedSeries(2.0 * o1 - 1.0
                                  + draw(st.integers(-n1 - 2, n1 + 2)),
                                  array(draw(st.integers(1, 40))))
    return columns, omega


class TestIdentityLayout:
    @given(identity_operands(), st.booleans())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_windows_are_the_products_formed_one_at_a_time(self, operands,
                                                           scale):
        """The pass's windows, laid end to end in one array, are bitwise
        the reference's, each formed as its own array one product at a
        time, with and without ``scale``; a right-hand side below every
        product coefficient is refused by both."""
        columns, omega = operands
        try:
            want = identity_windows(columns, omega, scale)
        except ConsistencyError:
            with pytest.raises(ConsistencyError, match="below the"):
                bryant._identity_terms(columns, omega, scale)
            return
        got = pass_windows(columns, omega, scale)
        assert [w.dtype for w in got] == [w.dtype for w in want]
        assert [w.tobytes() for w in got] == [w.tobytes() for w in want]


class TestIdentityWindowEdges:
    """Edges of the identity pass, each with the window lengths and the
    verdict of the pass that formed every full product."""

    def test_columns_of_unequal_length(self, monkeypatch):
        # B and D cut to 10 of the 17 coefficients of A and C
        built, _ = standard_frame(monkeypatch)
        obj = json.loads(frame_to_json(built))
        for k in "BD":
            obj[k]["coeffs"] = obj[k]["coeffs"][:10]
        frame = frame_from_json(json.dumps(obj))
        assert [len(x) for _, x, _ in frame.columns] == [17, 10]
        assert outcome(frame) == ([9, 9], "accepted")
        assert_windows_within_roundoff(frame, None, count=2)

    def test_one_coefficient_columns(self):
        # [[1, 0], [z^-1, 1]] of order 0: each column is one coefficient
        # at offset -1 and 0, and each window one coefficient below the
        # unit
        frame = horosphere_frame(0)
        assert outcome(frame) == ([1, 1], "accepted")
        assert [list(w) for w in pass_windows(frame.columns)] \
            == [[0.0], [0.0]]
        bad = one_term_frame(0.0, 2.0, 0.0, 1.0, 1.0)
        assert outcome(bad) == ([1, 1], DET_REFUSED + "(defects 1.000e+00, "
                                "0.000e+00)")

    def test_omega_below_the_products_widens_the_window(self, monkeypatch):
        built, omega = standard_frame(monkeypatch)
        for shift, lengths in ((1.0, [16, 16, 16]), (3.0, [16, 16, 18]),
                               (17.0, [16, 16, 32])):
            low = GeneralizedSeries(omega.offset - shift, omega.coeffs)
            assert outcome(built, low) == (
                lengths, OMEGA_REFUSED + "(defect 2.083e-01)")

    def test_widened_window_of_no_product_coefficient(self):
        # One coefficient per column: A dC at z^-1 is past the window of
        # one coefficient that omega's z^-2 opens, as AD at z^1 is past
        # the one that the unit opens.
        frame = one_term_frame(0.0, 1.0, 0.0, 1.0, 1.0)
        low = GeneralizedSeries(-2.0, [1.0, 0.0])
        assert outcome(frame, low) == ([1, 1, 1],
                                       OMEGA_REFUSED + "(defect 1.000e+00)")
        assert list(pass_windows(frame.columns, low)[2]) == [-1.0]
        high = one_term_frame(0.5, 1.0, 0.0, 1.0, 1.0)
        assert outcome(high) == ([1, 1], DET_REFUSED + "(defects 1.000e+00, "
                                 "2.500e-01)")

    @pytest.mark.parametrize("value", [np.inf, np.nan, complex(np.inf, 1.0)],
                             ids=["inf", "nan", "complex-inf"])
    @pytest.mark.parametrize("entry, index", [
        (0, 3), (3, 14), (3, 15), (1, 0), (3, 16), (2, 16)],
        ids=["A3", "D14", "D15", "C0", "D16", "B16"])
    def test_non_finite_coefficient(self, monkeypatch, entry, index, value):
        """A coefficient that is not finite refuses the frame, with or
        without omega, as the overflow of a build is refused: where the
        windows read it and past every window (index 16 of 17), where no
        residual reads it.  The pass refuses it before forming a
        derivative or a product of it, so no numpy warning is raised."""
        built, omega = standard_frame(monkeypatch)
        (o1, a, c), (o2, b, d) = built.columns
        arrays = [x.copy() for x in (a, c, b, d)]
        arrays[entry][index] = value
        frame = bryant.BryantFrame.from_columns(
            ((o1, *arrays[:2]), (o2, *arrays[2:])), 1.0)
        for om in (omega, None):
            with pytest.raises(DomainError, match=r"^the frame overflows: "
                               r"its coefficients are not finite$"):
                bryant.checked_frame(frame, om)


class TestStandardFrame:
    @pytest.mark.parametrize("order", [8, 32, 128])
    @pytest.mark.parametrize("spec", [
        {"type": "catenoidal", "mu": 0.5, "axis": [[0.0, 0.0], "inf"],
         "h_perturbation": [0.0, 0.7]},
        {"type": "catenoidal", "mu": 1.5, "axis": [[0.3, 0.1], [1.0, 0.0]],
         "h_perturbation": [0.0, 0.4, -0.2]},
        {"type": "horospherical", "mu": 2, "h0": [0.7, 0.0],
         "boundary": [2.0, 0.0], "h_perturbation": [1.4, 0.3]},
        {"type": "horospherical", "mu": 3, "h0": [0.6, -0.3],
         "boundary": "inf", "h_perturbation": [0.0, 0.3]},
        {"type": "horospherical", "mu": 4, "h0": [0.5, 0.0],
         "boundary": [-1.0, 2.0], "h_perturbation": [0.0, -0.6]}],
        ids=["catenoidal-one-term", "catenoidal-two-terms",
             "horospherical-mu2", "horospherical-mu3", "horospherical-mu4"])
    def test_is_the_constructors_frame(self, spec, order, monkeypatch):
        """The standard frame build_end checks, its columns aligned from
        the bare rows, is bitwise BryantFrame(A, B, C, D, r) of the same
        entries as solved, which aligns them by the constructor's path,
        and r is half the least root-test radius of those entries."""
        solved = recorded_solves(monkeypatch)
        _, [(built, _)] = checked_calls(dict(spec, order=order), monkeypatch)
        [entries] = solved
        radius = 0.5 * min(radius_estimate(e) for e in entries)
        assert built.validity_radius == radius
        ref = bryant.BryantFrame(*entries, radius)
        for got, want in zip(built.columns, ref.columns):
            assert got[0] == want[0]
            for x, y in zip(got[1:], want[1:]):
                assert x.tobytes() == y.tobytes()


def assert_placed_as_entries(p, frame, entries):
    """transform_frame(p, frame) is bitwise the series sums of the scaled
    ``entries`` (placed_by_entries): the same offsets and coefficients."""
    got = transform_frame(p, frame)
    for g, w in zip(got.entries(), placed_by_entries(p, *entries)):
        assert g.offset == w.offset
        assert g.coeffs.tobytes() == w.coeffs.tobytes()


def random_isometries(seed, count=8):
    """``count`` isometries with random entries, none of them zero."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = IsometrySL2(*(complex(*rng.normal(size=2)) for _ in range(4)))
        assert 0 not in (p.alpha, p.beta, p.gamma, p.delta)
        yield p


class TestPlacement:
    @pytest.mark.parametrize("order", [8, 32, 128])
    @pytest.mark.parametrize("spec", DEFECT_SPECS, ids=DEFECT_IDS)
    def test_columns_place_as_the_entries_did(self, spec, order,
                                              monkeypatch):
        """transform_frame on the standard frame, whose columns are
        aligned, is bitwise the series sums of the scaled entries as
        solved (placed_by_entries), for isometries with no zero entry."""
        solved = recorded_solves(monkeypatch)
        _, [(built, _)] = checked_calls(dict(spec, order=order), monkeypatch)
        for p in random_isometries(order):
            assert_placed_as_entries(p, built, solved[0])

    def test_columns_of_unequal_length(self, monkeypatch):
        """B and D cut to 10 of the 17 coefficients of A and C: each
        column is placed at its own length, bitwise the series sums of the
        frame's scaled entries."""
        built, _ = standard_frame(monkeypatch)
        obj = json.loads(frame_to_json(built))
        for k in "BD":
            obj[k]["coeffs"] = obj[k]["coeffs"][:10]
        frame = frame_from_json(json.dumps(obj))
        assert [len(x) for _, x, _ in frame.columns] == [17, 10]
        for p in random_isometries(10):
            assert_placed_as_entries(p, frame, frame.entries())

    @pytest.mark.parametrize("order", [8, 32, 128])
    def test_far_boundary_factors(self, order, monkeypatch):
        """A horospherical end at |b| >= 2^52 is placed by P's two exact
        factors, z -> 1/(1 - z) and z -> z + b, whose zero entries leave
        products of 0 in the sums: each placement is bitwise the series
        sums of its frame's scaled entries."""
        calls = build_steps(monkeypatch)
        build_end({"type": "horospherical", "mu": 2, "h0": [0.5, 0.0],
                   "boundary": [2.0 ** 53, 3.0], "h_perturbation": [1.0, 0.1],
                   "order": order})
        moves = calls["transform_frame"]
        assert [(p.alpha, p.beta, p.delta) for p, _ in moves] == [
            (1.0, -1.0, 0.0), (1.0, 0.0, 1.0)]
        for p, frame in moves:
            assert_placed_as_entries(p, frame, frame.entries())


class TestEndFrameRefusals:
    """_end_frame's refusals, on the canonical catenoidal frame."""

    def parts(self):
        """Offsets and rows of the entries, nu and h of a frame that
        passes: the frame build_end places at an axis (a, infinity), a
        translation, which leaves A dC - C dA unchanged."""
        mu, pert = 0.5, [0.0, 0.5]
        frame, _ = build_end({"type": "catenoidal", "mu": mu,
                              "axis": [[0.3, 0.1], "inf"],
                              "h_perturbation": pert})
        h = ends._perturbed_h((1.0 - mu * mu) / (4.0 * mu), pert,
                              frame.A.order)
        return ([e.offset for e in frame.entries()],
                np.array([e.coeffs for e in frame.entries()]), -1.0 - mu, h)

    def test_unchanged_parts_pass(self):
        offsets, rows, nu, h = self.parts()
        (o1, a, c), (o2, b, d) = ends._end_frame(offsets, rows, nu, h).columns
        assert (o1, o2) == (offsets[0], offsets[1])
        assert all(np.array_equal(x, r) for x, r in zip((a, b, c, d), rows))

    def test_nudged_entry_breaks_the_determinant(self):
        offsets, rows, nu, h = self.parts()
        rows[0, 1] += 1e-6
        with pytest.raises(ConsistencyError,
                           match=r"frame violates AD - BC = 1 or "
                                 r"dA dD - dB dC = 0 \(defects "):
            ends._end_frame(offsets, rows, nu, h)

    def test_scaled_h_breaks_omega(self):
        offsets, rows, nu, h = self.parts()
        scaled = GeneralizedSeries(0.0, h.coeffs * (1.0 + 1e-6))
        with pytest.raises(ConsistencyError,
                           match=r"frame violates omega = A dC - C dA "
                                 r"\(defect "):
            ends._end_frame(offsets, rows, nu, scaled)

    def test_nan_in_omega_is_refused(self):
        offsets, rows, nu, h = self.parts()
        bad = h.coeffs.copy()
        bad[3] = np.nan
        with pytest.raises(ConsistencyError, match="omega = A dC - C dA"):
            ends._end_frame(offsets, rows, nu, GeneralizedSeries(0.0, bad))

    @pytest.mark.parametrize("make, mu, h", [
        (canonical_catenoidal_frame, 0.5, make_h(0.5, (0.0, 1e150))),
        (canonical_horospherical_frame, 3,
         GeneralizedSeries(0.0, [0.5, 0.0, 1e200] + [0.0] * 30))],
        ids=["catenoidal", "horospherical"])
    def test_overflow_refused_without_warnings(self, make, mu, h):
        """Called directly, as build_end calls them, the standard frames
        refuse an overflowing solve with DomainError and no numpy warning
        (which the test settings turn into errors)."""
        with pytest.raises(DomainError, match="the frame overflows"):
            make(mu, h)

    def test_non_finite_entry_overflows(self):
        offsets, rows, nu, h = self.parts()
        rows[2, 5] = np.inf
        with pytest.raises(DomainError, match="the frame overflows"):
            ends._end_frame(offsets, rows, nu, h)
