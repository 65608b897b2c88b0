import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bryantflux import (DomainError, Geodesic, INF, IsometrySL2,
                        cross_ratio, is_inf, mobius_boundary,
                        standardizing_isometry)

from oracles import (HPoint, TangentVector, apply_isometry, distance,
                     hermitian_to_point, isometry_product, metric_inner,
                     point_to_hermitian)


def finite_complex(rng):
    return complex(rng.normal(), rng.normal())


def random_isometry(rng):
    while True:
        a, b, c, d = (finite_complex(rng) for _ in range(4))
        if abs(a * d - b * c) > 0.1:
            return IsometrySL2(a, b, c, d)


class TestInfinity:
    def test_one_instance_through_copy_and_pickle(self):
        """INF compares and hashes by identity, which holds because
        every way of making one returns the one instance."""
        assert copy.deepcopy(INF) is INF
        assert pickle.loads(pickle.dumps(INF)) is INF
        assert {INF: 1}[INF] == 1


class TestCrossRatio:
    def test_direct_arithmetic(self):
        assert cross_ratio(0, 1, 2, 3) == pytest.approx(4.0 / 3.0)

    def test_second_equals_fourth_gives_zero(self):
        assert cross_ratio(5, 2, 7, 2) == 0

    def test_third_equals_fourth_gives_one(self):
        assert cross_ratio(5, 2, 3, 3) == 1

    def test_coincidences_are_exact(self):
        # z1 = z2 or z3 = z4 puts the same product above and below, whose
        # complex quotient can miss 1 by an ulp; the value is exactly 1.
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b, c = (finite_complex(rng) for _ in range(3))
            for pts in ((a, a, b, c), (a, b, c, c), (INF, INF, b, c),
                        (a, b, INF, INF)):
                assert cross_ratio(*pts) == 1.0
            for pts in ((a, b, a, c), (a, b, c, b), (INF, b, INF, c)):
                assert cross_ratio(*pts) == 0.0

    def test_infinite_last_argument(self):
        assert cross_ratio(0, 1j, -1j, INF) == pytest.approx(0.5)

    def test_first_equals_fourth_rejected(self):
        with pytest.raises(DomainError):
            cross_ratio(1, 2, 3, 1)

    def test_second_equals_third_rejected(self):
        with pytest.raises(DomainError):
            cross_ratio(1, 2, 2, 3)

    def test_infinity_pair_rejected(self):
        with pytest.raises(DomainError):
            cross_ratio(INF, 2, 3, INF)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mobius_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = [finite_complex(rng) for _ in range(4)]
        if rng.random() < 0.5:
            pts[rng.integers(0, 4)] = INF
        if pts[0] == pts[3] or pts[1] == pts[2]:
            return
        p = random_isometry(rng)
        imgs = [mobius_boundary(p, z) for z in pts]
        if imgs[0] == imgs[3] or imgs[1] == imgs[2]:
            return
        assert abs(cross_ratio(*imgs) - cross_ratio(*pts)) < 1e-10


class TestMobiusBoundary:
    def test_identity(self):
        assert mobius_boundary(IsometrySL2(1, 0, 0, 1), 3 + 1j) == 3 + 1j

    def test_diagonal_dilation(self):
        p = IsometrySL2(math.exp(-0.5), 0.0, 0.0, math.exp(0.5))
        assert mobius_boundary(p, 1.0) == pytest.approx(math.e)

    def test_pole_maps_to_infinity(self):
        # beta z + alpha = 0 at z = -alpha/beta
        p = IsometrySL2(1.0, 1.0, 1.0, 2.0)
        assert is_inf(mobius_boundary(p, -1.0))

    def test_infinity_maps_to_delta_over_beta(self):
        p = IsometrySL2(1.0, 1.0, 1.0, 2.0)
        assert mobius_boundary(p, INF) == pytest.approx(2.0)

    def test_infinity_fixed_when_beta_zero(self):
        p = IsometrySL2(2.0, 0.0, 1.0, 0.5)
        assert is_inf(mobius_boundary(p, INF))

    def test_reversed_geodesic_maps_endpoint_wise(self):
        rng = np.random.default_rng(3)
        p = random_isometry(rng)
        g = Geodesic(1.0 + 2.0j, -0.5j)
        img = Geodesic(mobius_boundary(p, g.start), mobius_boundary(p, g.end))
        rev = Geodesic(g.end, g.start)
        assert mobius_boundary(p, rev.start) == img.end
        assert mobius_boundary(p, rev.end) == img.start


class TestIsometrySL2:
    def test_normalized_to_unit_determinant(self):
        p = IsometrySL2(2.0, 0.0, 0.0, 2.0)
        det = p.alpha * p.delta - p.beta * p.gamma
        assert abs(det - 1.0) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            IsometrySL2(1.0, 1.0, 1.0, 1.0)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(1)
        p = random_isometry(rng)
        q = isometry_product(p, p.inverse())
        assert abs(q.alpha - 1.0) < 1e-12 and abs(q.delta - 1.0) < 1e-12
        assert abs(q.beta) < 1e-12 and abs(q.gamma) < 1e-12


class TestApplyIsometry:
    def test_identity(self):
        p = apply_isometry(IsometrySL2(1, 0, 0, 1), HPoint(1 + 1j, 2.0))
        assert p.zeta == 1 + 1j and p.w == 2.0

    def test_dilation_oracle(self):
        # Oracle: explicit Hermitian conjugation done by hand for the
        # diagonal matrix diag(e^-1/2, e^1/2): N -> diag scaling gives
        # (zeta, w) -> (e zeta, e w).
        p = IsometrySL2(math.exp(-0.5), 0.0, 0.0, math.exp(0.5))
        out = apply_isometry(p, HPoint(1.0, 1.0))
        assert out.zeta == pytest.approx(math.e)
        assert out.w == pytest.approx(math.e)

    def test_distance_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_isometry(rng)
            a = HPoint(finite_complex(rng), float(rng.uniform(0.5, 2.0)))
            b = HPoint(finite_complex(rng), float(rng.uniform(0.5, 2.0)))
            d0 = distance(a, b)
            d1 = distance(apply_isometry(p, a), apply_isometry(p, b))
            assert abs(d0 - d1) < 1e-10

    def test_composition(self):
        rng = np.random.default_rng(11)
        p1, p2 = random_isometry(rng), random_isometry(rng)
        pt = HPoint(0.3 - 0.2j, 1.4)
        via_two = apply_isometry(p2, apply_isometry(p1, pt))
        direct = apply_isometry(isometry_product(p2, p1), pt)
        assert abs(via_two.zeta - direct.zeta) < 1e-10
        assert abs(via_two.w - direct.w) < 1e-10

    def test_boundary_limit_matches_mobius(self):
        rng = np.random.default_rng(13)
        p = random_isometry(rng)
        z = 0.7 + 0.1j
        img = mobius_boundary(p, z)
        for w in (1e-4, 1e-6):
            out = apply_isometry(p, HPoint(z, w))
            assert abs(out.zeta - complex(img)) < 1e-3 * max(1.0, abs(img))

    def test_hermitian_round_trip(self):
        pt = HPoint(2.0 - 1.0j, 0.7)
        (n11, n12), (n21, n22) = point_to_hermitian(pt)
        det = n11 * n22 - n12 * n21
        assert abs(det - 1.0) < 1e-12
        back = hermitian_to_point(n11, n21)
        assert abs(back.zeta - pt.zeta) < 1e-12
        assert abs(back.w - pt.w) < 1e-12


class TestStandardizingIsometry:
    @pytest.mark.parametrize("a,b", [
        (0.0, INF), (1.0, -1.0), (1 + 1j, INF), (INF, 2.0), (0.3j, 1.5),
    ])
    def test_sends_pair_to_zero_infinity(self, a, b):
        p = standardizing_isometry(a, b)
        za = mobius_boundary(p, a)
        zb = mobius_boundary(p, b)
        assert abs(complex(za)) < 1e-12
        assert is_inf(zb)

    def test_boundary_translation(self):
        z = 0.4 + 0.9j
        p = standardizing_isometry(z, INF)
        for t in (0.0, 1.0, -2.5):
            assert abs(complex(mobius_boundary(p, z + t)) - t) < 1e-12

    def test_equal_points_rejected(self):
        with pytest.raises(DomainError):
            standardizing_isometry(1.0, 1.0)


class TestMetricAndPoints:
    def test_unit_inner(self):
        base = HPoint(0.0, 1.0)
        v = TangentVector(base, 1.0, 0.0)
        assert metric_inner(v, v) == pytest.approx(1.0)

    def test_scaling_with_height(self):
        base = HPoint(0.0, 2.0)
        v = TangentVector(base, 1.0, 0.0)
        assert metric_inner(v, v) == pytest.approx(0.25)

    def test_orthogonality(self):
        base = HPoint(0.0, 1.0)
        v1 = TangentVector(base, 1j, 0.0)
        v2 = TangentVector(base, 1.0, 0.0)
        assert metric_inner(v1, v2) == pytest.approx(0.0)

    def test_mismatched_bases_rejected(self):
        v1 = TangentVector(HPoint(0.0, 1.0), 1.0, 0.0)
        v2 = TangentVector(HPoint(1.0, 1.0), 1.0, 0.0)
        with pytest.raises(DomainError):
            metric_inner(v1, v2)

    def test_hpoint_needs_positive_height(self):
        with pytest.raises(DomainError):
            HPoint(0.0, 0.0)

    def test_geodesic_endpoints_distinct(self):
        with pytest.raises(DomainError):
            Geodesic(INF, INF)
