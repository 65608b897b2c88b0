import numpy as np
import pytest

from bryantflux import (DomainError, Geodesic, INF, IsometrySL2,
                        KillingField)

from oracles import (HPoint, apply_isometry, killing_potential,
                     killing_vector, potential_samples, verify_potential)

BOX = ((1.0, 2.0), (1.0, 2.0), (1.0, 2.0))


def field(kind, a, b):
    return KillingField(kind, Geodesic(a, b))


class TestKillingVector:
    def test_translation_along_vertical_axis(self):
        v = killing_vector(field("translation", 0.0, INF), HPoint(1 + 2j, 3.0))
        assert v.alpha == 1 + 2j and v.beta == 3.0

    def test_rotation_about_vertical_axis(self):
        v = killing_vector(field("rotation", 0.0, INF), HPoint(2.0, 5.0))
        assert v.alpha == 2j and v.beta == 0.0

    def test_translation_finite_endpoints(self):
        # geodesic (1, 0) at (0, 1): zeta0 = 1, zeta1 = 0
        v = killing_vector(field("translation", 1.0, 0.0), HPoint(0.0, 1.0))
        assert v.alpha == pytest.approx(-1.0)
        assert v.beta == pytest.approx(-1.0)

    def test_translation_shifted_vertical_axis(self):
        z1 = 0.7 - 0.2j
        v = killing_vector(field("translation", z1, INF), HPoint(1 + 1j, 2.0))
        assert v.alpha == pytest.approx(1 + 1j - z1)
        assert v.beta == pytest.approx(2.0)

    def test_reversal_negates(self):
        rng = np.random.default_rng(0)
        for kind in ("translation", "rotation"):
            for ends in ((0.4, -1.2), (1j, INF), (INF, 0.5)):
                p = HPoint(complex(rng.normal(), rng.normal()), 1.3)
                v = killing_vector(field(kind, *ends), p)
                r = killing_vector(field(kind, *ends[::-1]), p)
                assert abs(v.alpha + r.alpha) < 1e-12
                assert abs(v.beta + r.beta) < 1e-12

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            KillingField("loxodromic", Geodesic(0.0, INF))

    def test_dilation_equivariance(self):
        # The dilation diag(e^-t/2, e^t/2) translates along (0, infinity);
        # pushing the (0, infinity) translation field forward by it must
        # reproduce the field at the image point.
        k = field("translation", 0.0, INF)
        t = 0.8
        p_iso = IsometrySL2(np.exp(-t / 2.0), 0.0, 0.0, np.exp(t / 2.0))
        pt = HPoint(0.5 + 0.25j, 1.1)
        v = killing_vector(k, pt)
        img = apply_isometry(p_iso, pt)
        # the differential of (zeta, w) -> (e^t zeta, e^t w) is scaling
        pushed = (np.exp(t) * v.alpha, np.exp(t) * v.beta)
        v_img = killing_vector(k, img)
        assert abs(pushed[0] - v_img.alpha) < 1e-10
        assert abs(pushed[1] - v_img.beta) < 1e-10


class TestKillingPotential:
    def test_translation_vertical_axis(self):
        z1 = 0.3 + 0.1j
        z = killing_potential(field("translation", z1, INF), HPoint(1.0, 2.0))
        assert z.alpha == pytest.approx(0.5j * (1.0 - z1))
        assert z.beta == 0.0

    def test_translation_finite_plugin(self):
        # (1, 0) at (0, 1): the log term vanishes at w = 1 and zeta = zeta1.
        z = killing_potential(field("translation", 1.0, 0.0), HPoint(0.0, 1.0))
        assert abs(z.alpha) < 1e-12 and z.beta == 0.0

    def test_rotation_vertical_axis(self):
        z1 = -0.2
        z = killing_potential(field("rotation", z1, INF), HPoint(1 + 1j, 4.0))
        assert z.alpha == pytest.approx(-0.5 * (1 + 1j - z1))
        assert z.beta == 0.0


class TestVerifyPotential:
    @pytest.mark.parametrize("kind,a,b", [
        ("translation", 0.0, INF),
        ("translation", 1.0, 0.0),
        ("rotation", 1.0, 0.0),
        ("rotation", 0.3 + 0.2j, INF),
        ("translation", INF, 0.5),
    ])
    def test_converges_quadratically(self, kind, a, b):
        k = field(kind, a, b)
        d20 = verify_potential(k, BOX, 20)
        d40 = verify_potential(k, BOX, 40)
        assert d20 < 5e-2
        # central differences: defect should shrink ~4x when n doubles
        assert d40 < d20 / 2.5

    def test_corrupted_potential_detected(self):
        k = field("translation", 1.0, 0.0)

        def bad(kk, zeta, w):
            a, b = potential_samples(kk, zeta, w)
            return -a, b

        d20 = verify_potential(k, BOX, 20, potential=bad)
        d40 = verify_potential(k, BOX, 40, potential=bad)
        assert d20 > 1e-2
        assert d40 > d20 / 1.5  # not converging

    def test_box_must_be_inside_half_space(self):
        with pytest.raises(DomainError):
            verify_potential(field("translation", 0.0, INF),
                             ((0, 1), (0, 1), (0.0, 1.0)), 8)
