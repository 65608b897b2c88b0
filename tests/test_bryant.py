import numpy as np
import pytest

from bryantflux import (BryantFrame, DomainError, GeneralizedSeries,
                        IsometrySL2, QuadratureGrid, WeierstrassData,
                        apply_isometry, canonical_horospherical_frame,
                        catenoid_cousin_frame, derived_forms, frame_checks,
                        frame_from_json, frame_to_json, horosphere_frame,
                        immersion, residue, transform_frame)
from bryantflux.bryant import immersion_samples, one_forms
from bryantflux.flux import circle_samples
from bryantflux.series import differentiate, eval_at

from conftest import make_h


def horo_frame_mu2():
    h = GeneralizedSeries.from_coeffs(0.0, [1.0, 2.0] + [0.0] * 31)
    return canonical_horospherical_frame(2, h)


class TestFrameChecks:
    def test_cousin_exact(self):
        det, null = frame_checks(catenoid_cousin_frame(0.5))
        assert det < 1e-12 and null < 1e-12

    def test_horosphere_exact(self):
        det, null = frame_checks(horosphere_frame())
        assert det < 1e-12 and null < 1e-12

    def test_perturbed_entry_detected(self):
        frame = catenoid_cousin_frame(0.5)
        bad_b = frame.B + GeneralizedSeries.from_coeffs(
            frame.B.offset + 1.0, [0.01] + [0.0] * (frame.B.order - 1))
        bad = BryantFrame(frame.A, bad_b, frame.C, frame.D,
                          validity_radius=frame.validity_radius)
        det, _ = frame_checks(bad)
        lead_c = abs(frame.C.coeffs[0])
        assert det == pytest.approx(0.01 * lead_c, rel=1e-6)


class TestImmersion:
    def test_horosphere_closed_form(self):
        grid = QuadratureGrid(0.25, 16)
        pts = immersion(horosphere_frame(), grid)
        z = grid.rho * np.exp(1j * grid.taus)
        for p, zv in zip(pts, z):
            assert abs(p.zeta - 1.0 / zv) < 1e-12
            assert abs(p.w - 1.0) < 1e-12

    def test_cousin_profile_closed_form(self):
        # mu = 1/2 at real z = rho:
        #   zeta = -(3/(8 rho)) (1 + rho)/(1 + rho/9)
        #   w = rho^(-1/2) / (1 + rho/9)
        frame = catenoid_cousin_frame(0.5)
        for rho in (0.05, 0.1, 0.3):
            zeta, w = immersion_samples(frame, rho, np.array([0.0]))
            target_zeta = -(3.0 / (8.0 * rho)) * (1.0 + rho) / (1.0 + rho / 9.0)
            target_w = rho ** -0.5 / (1.0 + rho / 9.0)
            assert abs(zeta[0] - target_zeta) < 1e-10 * abs(target_zeta)
            assert abs(w[0] - target_w) < 1e-10 * target_w

    def test_heights_positive(self, perturbed_frame):
        grid = QuadratureGrid(0.1, 64)
        for p in immersion(perturbed_frame, grid):
            assert p.w > 0

    def test_radius_guard(self, perturbed_frame):
        with pytest.raises(DomainError):
            immersion_samples(perturbed_frame,
                              2.0 * perturbed_frame.validity_radius,
                              np.array([0.0]))

    def test_loop_closes(self, perturbed_frame):
        taus = np.array([0.0, 2.0 * np.pi])
        zeta, w = immersion_samples(perturbed_frame, 0.1, taus)
        assert abs(zeta[0] - zeta[1]) < 1e-9
        assert abs(w[0] - w[1]) < 1e-9


class TestDerivedForms:
    def test_horosphere_residues_vanish(self):
        fb, fm, fd = one_forms(horosphere_frame())
        assert abs(residue(fb)) == 0.0
        assert abs(residue(fm)) == 0.0
        assert abs(residue(fd)) == 0.0

    def test_cousin_middle_form_residue(self):
        # canonical catenoidal, mu = 1/2, axis parameter zero:
        # Res(C dB - D dA) = (mu^2 - 1)/4 = -3/16
        _, fm, _ = one_forms(catenoid_cousin_frame(0.5))
        assert abs(residue(fm) - (-3.0 / 16.0)) < 1e-12

    def test_hopf_leading_term_mu2(self):
        h = GeneralizedSeries.from_coeffs(0.0, [1.0, 2.0, 0.0])
        weier = WeierstrassData(mu=2.0, nu=-2.0, h=h)
        frame = horo_frame_mu2()
        forms = derived_forms(frame, weier)
        hopf = forms.hopf.normalized()
        assert hopf.offset == -1.0
        assert abs(hopf.coeffs[0] - 2.0) < 1e-12  # q_-1 = 2 h(0)

    def test_gauss_map_consistency(self, perturbed_frame):
        # dC/dA = dD/dB wherever dB is nonzero
        g1 = differentiate(perturbed_frame.C) / differentiate(perturbed_frame.A)
        g2 = differentiate(perturbed_frame.D) / differentiate(perturbed_frame.B)
        assert g1.isclose(g2, tol=1e-9)

    def test_omega_sharp_identities(self, perturbed_frame):
        forms = derived_forms(perturbed_frame)
        # B dA - A dB = -omega_sharp / G^2
        lhs = forms.form_b * forms.gauss * forms.gauss
        assert lhs.isclose(-forms.omega_sharp, tol=1e-8)
        # C dB - D dA = omega_sharp / G
        mid = forms.form_m * forms.gauss
        assert mid.isclose(forms.omega_sharp, tol=1e-8)

    def test_hopf_two_routes_agree(self, perturbed_frame):
        mu = 0.5
        weier = WeierstrassData(mu=mu, nu=-1.5, h=make_h(mu, (0.0, 0.05)))
        with_data = derived_forms(perturbed_frame, weier).hopf
        from_frame = derived_forms(perturbed_frame).hopf
        assert with_data.isclose(from_frame, tol=1e-8)

    def test_relationab_identity(self, perturbed_frame):
        # (1/w^2) conj(d zeta / d zbar) = A B' - A' B pointwise, with the
        # zbar-derivative assembled as (1/(2 zbar)) (rho d_rho + i d_tau).
        # d_rho comes from a finite-difference stencil of its own, as a
        # check on circle_samples that shares none of its chain rule.
        grid = QuadratureGrid(0.1, 128)
        rho, taus = grid.rho, grid.taus
        h = rho / 400.0
        ring = {j: immersion_samples(perturbed_frame, rho + j * h, taus)[0]
                for j in (-2, -1, 0, 1, 2)}
        dzeta_drho = (ring[-2] - 8.0 * ring[-1]
                      + 8.0 * ring[1] - ring[2]) / (12.0 * h)
        s = circle_samples(perturbed_frame, grid)
        z = rho * np.exp(1j * taus)
        dzbar = (rho * dzeta_drho + 1j * s.dzeta_dtau) / (2.0 * np.conj(z))
        lhs = np.conj(dzbar) / s.w ** 2
        A, B = perturbed_frame.A, perturbed_frame.B
        rhs = (eval_at(A, grid.rho, grid.taus)
               * eval_at(differentiate(B), grid.rho, grid.taus)
               - eval_at(differentiate(A), grid.rho, grid.taus)
               * eval_at(B, grid.rho, grid.taus))
        # sign: the identity is stated for A B' - A' B
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale


class TestTransformFrame:
    def test_identity(self, cousin_half):
        out = transform_frame(IsometrySL2.identity(), cousin_half)
        assert out.A.isclose(cousin_half.A)
        assert out.D.isclose(cousin_half.D)

    def test_preserves_frame_identities(self, perturbed_frame):
        p = IsometrySL2(1.0 + 0.5j, 0.25, -0.3j, 1.0)
        out = transform_frame(p, perturbed_frame)
        det, null = frame_checks(out)
        assert det < 1e-8 and null < 1e-8

    def test_immersion_covariance(self, perturbed_frame):
        p = IsometrySL2(1.2, 0.3 - 0.1j, 0.2j, 1.0)
        grid = QuadratureGrid(0.1, 16)
        direct = immersion(transform_frame(p, perturbed_frame), grid)
        mapped = [apply_isometry(p, q) for q in immersion(perturbed_frame, grid)]
        for a, b in zip(direct, mapped):
            assert abs(a.zeta - b.zeta) < 1e-9
            assert abs(a.w - b.w) < 1e-9


class TestWeierstrassData:
    def test_admissible(self):
        WeierstrassData(mu=0.5, nu=-1.5, h=make_h(0.5))

    def test_mu_positive(self):
        with pytest.raises(DomainError):
            WeierstrassData(mu=-0.5, nu=-0.5, h=make_h(0.5))

    def test_nu_at_most_minus_one(self):
        with pytest.raises(DomainError):
            WeierstrassData(mu=0.5, nu=-0.5, h=make_h(0.5))

    def test_degree_sum_integral(self):
        with pytest.raises(DomainError):
            WeierstrassData(mu=0.5, nu=-1.25, h=make_h(0.5))

    def test_degree_sum_at_least_minus_one(self):
        with pytest.raises(DomainError):
            WeierstrassData(mu=0.5, nu=-2.5, h=make_h(0.5))


class TestJson:
    def test_round_trip(self, perturbed_frame):
        back = frame_from_json(frame_to_json(perturbed_frame))
        for a, b in zip(back.entries(), perturbed_frame.entries()):
            assert a.isclose(b, tol=1e-15)
        assert back.validity_radius == pytest.approx(
            perturbed_frame.validity_radius)
