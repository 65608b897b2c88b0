import math

import numpy as np
import pytest

from bryantflux import (BalanceProblem, Catenoidal, DomainError,
                        EuclideanEndData, Geodesic, Horosphere, Horospherical,
                        INF, IsometrySL2, UnbalanceableError, boundary_eq,
                        build_end, concurrency_check,
                        euclidean_three_end_check, flux_triple, is_inf,
                        polynomial_sum, three_end_axes, two_end_solve)
from bryantflux.balance import end_polynomial
from bryantflux.flux import FluxPolynomial, catenoidal_polynomial
from bryantflux.geometry import mobius_boundary

NORMALIZED = (-1.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j)
NEAR_SNAP_SIGMAS = (0.42948106837016187, 2.2850178941451444,
                    0.42948107040746036)


def poly_is_zero(poly, tol=1e-10):
    return poly.max_abs() < tol


class TestPolynomialSum:
    def test_two_cousin_ends_balance(self):
        p = BalanceProblem((Catenoidal(0.5, 0.0, INF),
                            Catenoidal(0.5, INF, 0.0)))
        assert poly_is_zero(polynomial_sum(p))

    def test_costa_type_data_balances(self):
        # two catenoidal ends with a shared boundary, equal axis points
        # and mu1^2 + mu2^2 = 2, plus a flat horospherical end
        mu1 = 0.5
        mu2 = math.sqrt(2.0 - mu1 * mu1)
        p = BalanceProblem((Catenoidal(mu1, 0.3, 2.0),
                            Catenoidal(mu2, 0.3, 2.0),
                            Horospherical(2.0, 0.0)))
        assert poly_is_zero(polynomial_sum(p))

    def test_catenoidal_plus_horospherical_cannot_balance(self):
        # simple roots against a double root at a different point
        p = BalanceProblem((Catenoidal(0.5, 0.0, 1.0),
                            Horospherical(3.0, 0.25)))
        assert polynomial_sum(p).max_abs() > 1.0

    def test_horosphere_contributes_nothing(self):
        p1 = BalanceProblem((Catenoidal(0.5, 0.0, INF),
                             Catenoidal(0.5, INF, 0.0)))
        p2 = BalanceProblem(p1.ends + (Horosphere(),))
        assert poly_is_zero(polynomial_sum(p2))
        assert end_polynomial(Horosphere()).max_abs() == 0.0

    def test_needs_two_ends(self):
        with pytest.raises(DomainError):
            BalanceProblem((Catenoidal(0.5, 0.0, INF),))

    def test_unknown_descriptor_refused(self):
        with pytest.raises(DomainError, match="unknown end descriptor"):
            end_polynomial(object())


class TestTwoEndSolve:
    def test_cousin_pair(self):
        e2 = two_end_solve(Catenoidal(0.5, 0.0, INF), 0.0)
        assert e2.mu == 0.5
        assert is_inf(e2.axis_from)
        assert e2.boundary == 0.0

    def test_solved_pair_balances(self):
        e1 = Catenoidal(1.5, 2.0 + 1.0j, -1.0)
        e2 = two_end_solve(e1, e1.axis_from)
        assert poly_is_zero(polynomial_sum(BalanceProblem((e1, e2))))

    def test_wrong_boundary_unbalanceable(self):
        with pytest.raises(UnbalanceableError):
            two_end_solve(Catenoidal(0.5, 0.0, INF), 1.0)

    def test_equal_boundaries_rejected(self):
        with pytest.raises(DomainError):
            two_end_solve(Catenoidal(0.5, 0.0, INF), INF)

    def test_involution(self):
        e1 = Catenoidal(0.75, 1.0, 4.0)
        e2 = two_end_solve(e1, e1.axis_from)
        back = two_end_solve(e2, e2.axis_from)
        assert back.mu == e1.mu
        assert boundary_eq(back.axis_from, e1.axis_from)
        assert boundary_eq(back.boundary, e1.boundary)

    def test_growth_magnitude_preserved(self):
        for mu in (0.5, 0.75, 1.5, 2.0):
            e2 = two_end_solve(Catenoidal(mu, 0.0, INF), 0.0)
            assert abs(1.0 - e2.mu ** 2) == pytest.approx(abs(1.0 - mu ** 2))


def sum_for_sigmas(sigmas, boundaries, axes):
    total = FluxPolynomial(0.0, 0.0, 0.0)
    for s, b, a in zip(sigmas, boundaries, axes):
        total = total + catenoidal_polynomial(s, a, b)
    return total


class TestThreeEndAxes:
    def test_equal_growths(self):
        a1, a2, a3 = three_end_axes(1.0, 1.0, 1.0)
        assert a1 == pytest.approx(1.0 / 3.0)
        assert is_inf(a2)
        assert a3 == pytest.approx(-1.0 / 3.0)

    def test_three_two_one(self):
        a1, a2, a3 = three_end_axes(3.0, 2.0, 1.0)
        assert a1 == pytest.approx(0.2)
        assert a2 == pytest.approx(-1.0)
        assert a3 == pytest.approx(-1.0)

    def test_polynomial_sum_vanishes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sig = rng.uniform(0.1, 3.0, size=3)
            axes = three_end_axes(*sig)
            total = sum_for_sigmas(sig, NORMALIZED, axes)
            assert total.max_abs() < 1e-10 * max(1.0, *np.abs(sig))

    def test_general_boundary_transport(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            sig = rng.uniform(0.1, 2.0, size=3)
            bs = tuple(complex(b) for b in rng.normal(scale=2.0, size=3))
            axes = three_end_axes(*sig, boundaries=bs)
            total = sum_for_sigmas(sig, bs, axes)
            assert total.max_abs() < 1e-9 * max(1.0, total_scale(bs))

    def test_transport_matches_mobius_image(self):
        # the axes are covariant: moving the boundaries by an isometry P
        # moves the balanced axes by P
        sig = (1.2, 0.7, 0.3)
        p = IsometrySL2(1.0 + 0.5j, 2.0, -0.3, 0.4 - 1.0j)
        bs = tuple(mobius_boundary(p, b) for b in NORMALIZED)
        direct = three_end_axes(*sig, boundaries=bs)
        mapped = tuple(mobius_boundary(p, a) for a in three_end_axes(*sig))
        for d, m in zip(direct, mapped):
            assert boundary_eq(d, m, tol=1e-9)

    @pytest.mark.parametrize("far", [1e12, 1e100])
    def test_far_boundary_tends_to_infinity(self, far):
        # the solve is scaled by the chordal separation of the boundaries,
        # so a boundary far out gives the axes of a boundary at infinity
        # rather than losing |B|^2 digits to cancellation
        sig = (0.7, 1.3, -0.4)
        ref = three_end_axes(*sig, boundaries=(-0.5, INF, 2.0))
        got = three_end_axes(*sig, boundaries=(-0.5, far, 2.0))
        for a, b in zip(got, ref):
            assert not is_inf(a) and abs(a - b) < 1e-9

    def test_relabeling_consistency(self):
        # reversing the labels (3,2,1)->(1,2,3) with reversed boundaries
        # must reverse the axis list
        fwd = three_end_axes(3.0, 2.0, 1.0,
                             boundaries=(-1.0 + 0j, 0.0 + 0j, 1.0 + 0j))
        rev = three_end_axes(1.0, 2.0, 3.0,
                             boundaries=(1.0 + 0j, 0.0 + 0j, -1.0 + 0j))
        for a, b in zip(fwd, reversed(rev)):
            assert boundary_eq(a, b, tol=1e-9)

    def test_zero_sigma_rejected(self):
        with pytest.raises(DomainError):
            three_end_axes(1.0, 0.0, 1.0)

    def test_repeated_boundaries_rejected(self):
        with pytest.raises(DomainError):
            three_end_axes(1.0, 1.0, 1.0,
                           boundaries=(0.0 + 0j, 0.0 + 0j, 1.0 + 0j))

    @pytest.mark.parametrize("bs", [
        (0.0, 1e-13, 1.0), (1e300, 2e300, INF), (1e300, -1e300, 0.0),
    ], ids=["near-zero", "far-and-infinity", "far-pair"])
    def test_boundaries_equal_to_round_off_rejected(self, bs):
        # boundaries within 1e-12 on the Riemann sphere make the system
        # singular to round-off
        with pytest.raises(DomainError):
            three_end_axes(1.0, 1.0, 1.0, boundaries=bs)


def total_scale(bs):
    return max(abs(complex(b)) for b in bs) ** 2


def axes_for(sigmas):
    pts = three_end_axes(*sigmas)
    return [Geodesic(a, b) for a, b in zip(pts, NORMALIZED)]


class TestConcurrency:
    def test_equal_growths_interior_point(self):
        res = concurrency_check(axes_for((1.0, 1.0, 1.0)))
        assert res.kind == "interior"
        u, w = res.point
        assert u == pytest.approx(0.0)
        assert w == pytest.approx(1.0 / math.sqrt(3.0))

    def test_three_two_one_boundary_point(self):
        res = concurrency_check(axes_for((3.0, 2.0, 1.0)))
        assert res.kind == "boundary"
        assert res.point == pytest.approx(-1.0)

    def test_common_perpendicular_case(self):
        # the balance equations hold but the radical point has w^2 < 0
        res = concurrency_check(axes_for((2.0, 0.9, 0.2)))
        assert res.kind == "common-perpendicular"
        u, r = res.point
        assert r > 0
        # the perpendicular circle is orthogonal to all three axis circles
        for g in axes_for((2.0, 0.9, 0.2)):
            p, q = complex(g.start).real, complex(g.end).real
            assert abs((u - p) * (u - q) - r * r) < 1e-9

    def test_random_positive_growths_never_fail(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            sig = rng.uniform(0.05, 4.0, size=3)
            res = concurrency_check(axes_for(sig))
            assert res.kind in ("interior", "boundary",
                                "common-perpendicular")

    def test_perturbed_axis_not_concurrent(self):
        axes = axes_for((3.0, 2.0, 1.0))
        bad = axes[:2] + [Geodesic(complex(axes[2].start) + 0.01,
                                   axes[2].end)]
        assert concurrency_check(bad).kind == "not-concurrent"

    def test_two_vertical_lines_meet_at_infinity(self):
        axes = [Geodesic(0.0, INF), Geodesic(1.0, INF), Geodesic(2.0, INF)]
        res = concurrency_check(axes)
        assert res.kind == "boundary"
        assert is_inf(res.point)

    def test_two_lines_and_circle_not_concurrent(self):
        axes = [Geodesic(0.0, INF), Geodesic(1.0, INF), Geodesic(-1.0, 2.0)]
        assert concurrency_check(axes).kind == "not-concurrent"

    def test_concentric_circles_not_concurrent(self):
        axes = [Geodesic(-1.0, 1.0), Geodesic(-2.0, 2.0), Geodesic(0.0, INF)]
        assert concurrency_check(axes).kind == "not-concurrent"

    def test_three_concentric_semicircles_not_concurrent(self):
        # every trace's cross product has t = 0 and u != 0: the traces
        # share the plane, but concentric semicircles never meet
        axes = [Geodesic(-1.0, 1.0), Geodesic(-2.0, 2.0), Geodesic(-3.0, 3.0)]
        assert concurrency_check(axes).kind == "not-concurrent"

    def test_near_snap_sigmas_stay_concurrent(self):
        # sigma1 and sigma3 differ by 5e-9 relative, so A2 is about 1.1e9:
        # a finite axis point that must not be snapped to infinity at a
        # tolerance the concurrency test can resolve
        sig = NEAR_SNAP_SIGMAS
        axes = three_end_axes(*sig)
        assert not is_inf(axes[1]) and abs(axes[1]) > 1e8
        assert sum_for_sigmas(sig, NORMALIZED, axes).max_abs() < 1e-9
        res = concurrency_check(axes_for(sig))
        assert res.kind == "common-perpendicular"
        assert res.point[0] == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("ends, point", [
        ([(-1.0, 0.0), (0.0, -1.0),
          (0.03786292883009626, -0.005424048556443262)],
         (-1.989176971e-4, 0.0141024157)),
        ([(0.0, INF), (INF, 0.0), (1.0, -1.0)], (0.0, 1.0)),
    ], ids=["two-semicircles", "two-lines"])
    def test_two_coincident_axes_meet_the_third(self, ends, point):
        res = concurrency_check([Geodesic(a, b) for a, b in ends])
        assert res.kind == "interior"
        assert res.point == pytest.approx(point, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e6, 1e12, 1e300])
    def test_far_axes_meet(self, scale):
        # the check is scaled by the largest endpoint, so axes far from
        # the origin meet as they do near it, at (scale, scale)
        ends = [(0.0, 2.0), (0.5, 3.0), (-1.0, 1.5)]
        res = concurrency_check([Geodesic(scale * a, scale * b)
                                 for a, b in ends])
        assert res.kind == "interior"
        assert res.point == pytest.approx((scale, scale), rel=1e-12)
        moved = ends[:2] + [(-1.0, 1.6)]
        res = concurrency_check([Geodesic(scale * a, scale * b)
                                 for a, b in moved])
        assert res.kind == "not-concurrent"

    def test_endpoints_600_decades_apart_stay_finite(self):
        # the scale is kept within 2^500 of the largest endpoint, so the
        # far semicircle's row does not overflow into NaN
        res = concurrency_check([Geodesic(1e-300, 1e300),
                                 Geodesic(0.0, 1e-300),
                                 Geodesic(2e-300, INF)])
        assert all(math.isfinite(c) for c in np.atleast_1d(res.point))

    def test_far_axis_point_keeps_check_strict(self):
        # A2 is about 1.1e9 while the other endpoints are near 1: the
        # check scales by their median, not by the far point, so moving
        # A1 by 1e-7 still breaks concurrency
        sig = NEAR_SNAP_SIGMAS
        axes = list(three_end_axes(*sig))
        axes[0] += 1e-7
        res = concurrency_check([Geodesic(a, b)
                                 for a, b in zip(axes, NORMALIZED)])
        assert res.kind == "not-concurrent"

    def test_three_identical_axes_rejected(self):
        with pytest.raises(DomainError):
            concurrency_check([Geodesic(1.0, 2.0), Geodesic(2.0, 1.0),
                               Geodesic(1.0, 2.0)])

    def test_complex_endpoint_rejected(self):
        axes = [Geodesic(1.0j, 1.0), Geodesic(-2.0, 2.0), Geodesic(0.0, INF)]
        with pytest.raises(DomainError):
            concurrency_check(axes)

    def test_wrong_count_rejected(self):
        with pytest.raises(DomainError):
            concurrency_check([Geodesic(0.0, INF), Geodesic(1.0, INF)])


class TestEuclideanAnalogue:
    def test_concurrent(self):
        q = np.array([1.0, 2.0, 3.0])
        f1 = np.array([1.0, 0.0, 0.0])
        f2 = np.array([0.0, 1.0, 0.0])
        f3 = -(f1 + f2)
        ends = [EuclideanEndData(f, q + t * f)
                for f, t in ((f1, 2.0), (f2, -1.0), (f3, 0.5))]
        coplanar, (relation, point) = euclidean_three_end_check(*ends)
        assert coplanar
        assert relation == "concurrent"
        assert np.allclose(point, q, atol=1e-8)

    def test_parallel(self):
        f = np.array([1.0, 0.0, 0.0])
        ends = [EuclideanEndData(1.0 * f, [0.0, 0.0, 0.0]),
                EuclideanEndData(2.0 * f, [0.0, 1.0, 0.0]),
                EuclideanEndData(-3.0 * f, [0.0, 2.0 / 3.0, 0.0])]
        coplanar, (relation, point) = euclidean_three_end_check(*ends)
        assert coplanar
        assert relation == "parallel"
        assert point is None

    def test_unbalanced_torque_violation(self):
        f = np.array([1.0, 0.0, 0.0])
        ends = [EuclideanEndData(1.0 * f, [0.0, 0.0, 0.0]),
                EuclideanEndData(2.0 * f, [0.0, 1.0, 0.0]),
                EuclideanEndData(-3.0 * f, [0.0, 1.0, 0.0])]
        _, (relation, _) = euclidean_three_end_check(*ends)
        assert relation == "violation"

    def test_unbalanced_force_violation(self):
        f = np.array([1.0, 0.0, 0.0])
        ends = [EuclideanEndData(f, [0.0, 0.0, 0.0]),
                EuclideanEndData(f, [0.0, 1.0, 0.0]),
                EuclideanEndData(f, [0.0, 2.0, 0.0])]
        _, (relation, _) = euclidean_three_end_check(*ends)
        assert relation == "violation"

    def test_non_coplanar_offsets_violation(self):
        # parallel forces with offsets in two directions cannot balance
        # their torques, and the configuration is not coplanar
        f = np.array([1.0, 0.0, 0.0])
        coplanar, (relation, _) = euclidean_three_end_check(
            EuclideanEndData(1.0 * f, [0.0, 0.0, 0.0]),
            EuclideanEndData(2.0 * f, [0.0, 1.0, 0.0]),
            EuclideanEndData(-3.0 * f, [0.0, 0.0, 1.0]))
        assert relation == "violation"
        assert not coplanar

    def test_bad_shapes_rejected(self):
        with pytest.raises(DomainError):
            EuclideanEndData([1.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            EuclideanEndData([np.inf, 0.0, 0.0], [0.0, 0.0, 0.0])


class TestFrameLevelBalance:
    def test_balanced_cousin_pair_triples_cancel(self):
        f1, _ = build_end({"type": "catenoidal", "mu": 0.5,
                           "axis": [[0.0, 0.0], "inf"]})
        f2, _ = build_end({"type": "catenoidal", "mu": 0.5,
                           "axis": ["inf", [0.0, 0.0]]})
        t1 = flux_triple(f1)
        t2 = flux_triple(f2)
        for a, b in zip((t1.phi0, t1.phi1, t1.phi2),
                        (t2.phi0, t2.phi1, t2.phi2)):
            assert abs(a + b) < 1e-8
