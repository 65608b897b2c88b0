import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bryantflux import (BryantFrame, ConsistencyError, DomainError,
                        GeneralizedSeries, IsometrySL2, QuadratureGrid,
                        build_end, canonical_catenoidal_frame,
                        canonical_horospherical_frame,
                        catenoid_cousin_frame, circle_samples,
                        flux_triple, frame_from_json, frame_to_json,
                        horosphere_frame, transform_frame)
import bryantflux.cli
from bryantflux.bryant import _frame_rows, checked_frame
from bryantflux.cli import run
from bryantflux.flux import _entry_block, _immersion_derivatives
from bryantflux.series import differentiate

from conftest import frame_defects, make_h
from oracles import (WeierstrassData, add, apply_isometry, derived_forms,
                     eval_at, immersion, immersion_samples, mul, neg,
                     normalized, one_forms, residue, series_div,
                     series_isclose, stacked)


def horo_frame_mu2():
    h = GeneralizedSeries(0.0, [1.0, 2.0] + [0.0] * 31)
    return canonical_horospherical_frame(2, h)


class TestFrameChecks:
    def test_cousin_exact(self):
        det, null = frame_defects(catenoid_cousin_frame(0.5))[:2]
        assert det < 1e-12 and null < 1e-12

    def test_horosphere_exact(self):
        det, null = frame_defects(horosphere_frame())[:2]
        assert det < 1e-12 and null < 1e-12

    def test_perturbed_entry_detected(self):
        frame = catenoid_cousin_frame(0.5)
        bad_b = add(frame.B, GeneralizedSeries(
            frame.B.offset + 1.0, [0.01] + [0.0] * (frame.B.order - 1)))
        bad = BryantFrame(frame.A, bad_b, frame.C, frame.D,
                          validity_radius=frame.validity_radius)
        det, _ = frame_defects(bad)[:2]
        lead_c = abs(frame.C.coeffs[0])
        assert det == pytest.approx(0.01 * lead_c, rel=1e-6)

    @pytest.mark.parametrize("shift", [40.0, 1e300])
    def test_unit_below_the_whole_window_refused(self, shift):
        # AD - BC then starts more powers above z^0 than it has
        # coefficients; the unit is refused, not reached by widening.
        f = catenoid_cousin_frame(0.5)
        A, C = (GeneralizedSeries(e.offset + shift, e.coeffs)
                for e in (f.A, f.C))
        with pytest.raises(ConsistencyError, match="left uncancelled"):
            frame_defects(BryantFrame(A, f.B, C, f.D, f.validity_radius))


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
        h = GeneralizedSeries(0.0, [1.0, 2.0, 0.0])
        weier = WeierstrassData(mu=2.0, nu=-2.0, h=h)
        frame = horo_frame_mu2()
        forms = derived_forms(frame, weier)
        hopf = normalized(forms.hopf)
        assert hopf.offset == -1.0
        assert abs(hopf.coeffs[0] - 2.0) < 1e-12  # q_-1 = 2 h(0)

    def test_gauss_map_consistency(self, perturbed_frame):
        # dC/dA = dD/dB wherever dB is nonzero
        g1 = series_div(differentiate(perturbed_frame.C),
                        differentiate(perturbed_frame.A))
        g2 = series_div(differentiate(perturbed_frame.D),
                        differentiate(perturbed_frame.B))
        assert series_isclose(g1, g2, tol=1e-9)

    def test_omega_sharp_identities(self, perturbed_frame):
        forms = derived_forms(perturbed_frame)
        # B dA - A dB = -omega_sharp / G^2
        lhs = mul(mul(forms.form_b, forms.gauss), forms.gauss)
        assert series_isclose(lhs, neg(forms.omega_sharp), tol=1e-8)
        # C dB - D dA = omega_sharp / G
        mid = mul(forms.form_m, forms.gauss)
        assert series_isclose(mid, forms.omega_sharp, tol=1e-8)

    def test_hopf_two_routes_agree(self, perturbed_frame):
        mu = 0.5
        weier = WeierstrassData(mu=mu, nu=-1.5, h=make_h(mu, (0.0, 0.05)))
        with_data = derived_forms(perturbed_frame, weier).hopf
        from_frame = derived_forms(perturbed_frame).hopf
        assert series_isclose(with_data, from_frame, tol=1e-8)

    def test_relationab_identity(self, perturbed_frame):
        # (1/w^2) conj(d zeta / d zbar) = A B' - A' B pointwise, with the
        # zbar-derivative assembled as (1/(2 zbar)) (rho d_rho + i d_tau).
        # d_rho comes from a finite-difference stencil of its own, as a
        # check on _immersion_derivatives that shares none of its chain
        # rule.
        grid = QuadratureGrid(0.1, 128)
        rho, taus = grid.rho, grid.taus
        h = rho / 400.0
        ring = {j: immersion_samples(perturbed_frame, rho + j * h, taus)[0]
                for j in (-2, -1, 0, 1, 2)}
        dzeta_drho = (ring[-2] - 8.0 * ring[-1]
                      + 8.0 * ring[1] - ring[2]) / (12.0 * h)
        _, w, (_, _, dzeta_dtau, _) = _immersion_derivatives(
            rho, _entry_block(perturbed_frame, grid))
        z = rho * np.exp(1j * taus)
        dzbar = (rho * dzeta_drho + 1j * dzeta_dtau) / (2.0 * np.conj(z))
        lhs = np.conj(dzbar) / w ** 2
        A, B = perturbed_frame.A, perturbed_frame.B
        rhs = (eval_at(A, grid.rho, grid.taus)
               * eval_at(differentiate(B), grid.rho, grid.taus)
               - eval_at(differentiate(A), grid.rho, grid.taus)
               * eval_at(B, grid.rho, grid.taus))
        # sign: the identity is stated for A B' - A' B
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale


# Frames whose entries are reshaped below: the cousin frames, the
# horosphere and two solved frames, at low order.
COLUMN_BASES = [catenoid_cousin_frame(0.5, 8), catenoid_cousin_frame(2.0, 8),
                horosphere_frame(8), horo_frame_mu2(),
                canonical_catenoidal_frame(0.5, make_h(0.5, (0.0, 0.05), 8),
                                           8)]


@st.composite
def reshaped_entries(draw):
    """(entries, validity radius) of a base frame whose entries each get 0
    to 3 leading zeros, offset lowered to match, and are cut to a random
    length: the same series, with integer offset gaps and unequal
    lengths."""
    base = draw(st.sampled_from(COLUMN_BASES))
    entries = []
    for e in base.entries():
        pad = draw(st.integers(0, 3))
        keep = draw(st.integers(1, len(e.coeffs)))
        entries.append(GeneralizedSeries(
            e.offset - pad, np.concatenate([np.zeros(pad), e.coeffs[:keep]])))
    return entries, base.validity_radius


def column_reference(x, y):
    """x and y's coefficients from the lower offset up to the lower
    absolute top, power by power, 0 below an entry's own offset."""
    lo = min(x.offset, y.offset)
    top = min(x.offset + x.order, y.offset + y.order)
    return [np.array([e.coeffs[k] if 0 <= k <= e.order else 0.0
                      for k in (round(lo + i - e.offset)
                                for i in range(round(top - lo) + 1))],
                     dtype=complex) for e in (x, y)]


class TestColumns:
    @given(reshaped_entries(), st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0),
        min_size=3, max_size=3))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_constructor_aligns_each_column(self, reshaped, p):
        entries, radius = reshaped
        frame = BryantFrame(*entries, radius)
        A, B, C, D = entries
        for got, x, y in (((frame.A, frame.C), A, C),
                          ((frame.B, frame.D), B, D)):
            lo = min(x.offset, y.offset)
            for g, want in zip(got, column_reference(x, y)):
                assert g.offset == lo
                assert g.coeffs.tobytes() == want.tobytes()
        text = frame_to_json(frame)
        assert frame_to_json(frame_from_json(text)) == text
        # a random P keeps each column where it was
        a, b, c = p
        moved = transform_frame(IsometrySL2(a, b, c, (1.0 + b * c) / a), frame)
        for g, e in zip(moved.entries(), frame.entries()):
            assert (g.offset, g.order) == (e.offset, e.order)

    def test_offsets_must_differ_by_an_integer(self, cousin_half):
        with pytest.raises(DomainError, match="column AC"):
            BryantFrame(GeneralizedSeries(cousin_half.C.offset + 0.5,
                                          cousin_half.A.coeffs),
                        cousin_half.B, cousin_half.C, cousin_half.D,
                        cousin_half.validity_radius)


    def test_entries_are_views_of_the_columns(self, perturbed_frame):
        """A to D are series on the columns' own arrays, and from_columns
        takes aligned columns as they are."""
        (o1, a, c), (o2, b, d) = perturbed_frame.columns
        for e, o, x in zip(perturbed_frame.entries(), (o1, o2, o1, o2),
                           (a, b, c, d)):
            assert e.offset == o and e.coeffs is x
        same = BryantFrame.from_columns(perturbed_frame.columns,
                                        perturbed_frame.validity_radius)
        assert same.columns is perturbed_frame.columns

    def test_frames_compare_and_hash_by_identity(self):
        f, g = catenoid_cousin_frame(0.5), catenoid_cousin_frame(0.5)
        assert f == f and f != g
        assert hash(f) == hash(f)
        assert len({f, g, f}) == 2


# Built ends whose frames TestFrameRows also cuts one column of, so that
# the columns differ in length.
ROW_ENDS = {
    "horospherical-inf": {"type": "horospherical", "mu": 2,
                          "h0": [0.5, 0.0], "h_perturbation": [1.0],
                          "boundary": "inf"},
    "horospherical-finite": {"type": "horospherical", "mu": 2,
                             "h0": [0.5, 0.0], "h_perturbation": [1.0],
                             "boundary": [0.2, -0.3]},
    "catenoidal-a-inf": {"type": "catenoidal", "mu": 0.5,
                         "axis": [[0.3, 0.1], "inf"],
                         "h_perturbation": [0.0, 0.3]},
}
# Each frame of TestFrameRows: a built end, as built or with its first or
# second column cut to 20 coefficients, or an exact frame.
ROW_FRAMES = [(end, cut) for end in ROW_ENDS for cut in (None, 0, 1)] + [
    ("cousin", None), ("horosphere", None)]


def row_frame(end, cut):
    """The frame that ROW_FRAMES names."""
    if end == "cousin":
        return catenoid_cousin_frame(0.5)
    if end == "horosphere":
        return horosphere_frame()
    frame = build_end(ROW_ENDS[end])[0]
    if cut is None:
        return frame
    columns = list(frame.columns)
    o, x, y = columns[cut]
    columns[cut] = (o, x[:20], y[:20])
    return BryantFrame.from_columns(tuple(columns), frame.validity_radius)


class TestFrameRows:
    """bryant._frame_rows, the one layout of a frame's rows, against the
    series route: entries() in column order, A, C, B, D, then differentiate
    of each, zero-padded to the longest (oracles.stacked)."""

    @pytest.mark.parametrize("size", [None, 5, 1],
                             ids=["full", "size-5", "size-1"])
    @pytest.mark.parametrize("end, cut", ROW_FRAMES, ids=[
        end + ("" if cut is None else "-cut-%d" % cut)
        for end, cut in ROW_FRAMES])
    def test_rows_are_the_series_route(self, end, cut, size):
        frame = row_frame(end, cut)
        A, B, C, D = frame.entries()
        if cut is not None:
            assert len(frame.columns[cut][1]) < len(frame.columns[1 - cut][1])
        entries = (A, C, B, D)
        offsets, rows = stacked(entries + tuple(map(differentiate, entries)))
        # A size below the columns' length, as flux_triple's block has,
        # keeps each row's leading coefficients.
        out = np.zeros((8, size or rows.shape[1]), dtype=complex)
        got = _frame_rows(frame.columns, out)
        assert np.array(got).tobytes() == np.array(offsets).tobytes()
        assert out.tobytes() == rows[:, :out.shape[1]].tobytes()

    @pytest.mark.parametrize("end", sorted(ROW_ENDS))
    def test_no_series_is_formed_from_a_built_frame(self, end, monkeypatch,
                                                    tmp_path):
        """The residue and quadrature routes, the frame check and the
        CLI's mesh read a built frame's columns: no GeneralizedSeries is
        formed."""
        frame = build_end(ROW_ENDS[end])[0]
        rho = min(0.05, 0.5 * frame.validity_radius)
        formed = []
        init = GeneralizedSeries.__init__

        def counted(self, *args):
            formed.append(args)
            init(self, *args)

        monkeypatch.setattr(bryantflux.cli, "_load_frame", lambda args: frame)
        monkeypatch.setattr(GeneralizedSeries, "__init__", counted)
        circle_samples(frame, QuadratureGrid(rho, 64))
        flux_triple(frame)
        checked_frame(frame)
        assert run(["mesh", "--end", "unread.json", "--rho-min", str(rho / 2),
                    "--rho-max", str(rho), "--radial", "2", "--angular", "8",
                    "--out", str(tmp_path / "end.obj")]) == 0
        assert formed == []


class TestTransformFrame:
    def test_identity(self, cousin_half):
        out = transform_frame(IsometrySL2(1, 0, 0, 1), cousin_half)
        assert series_isclose(out.A, cousin_half.A)
        assert series_isclose(out.D, cousin_half.D)

    def test_preserves_frame_identities(self, perturbed_frame):
        p = IsometrySL2(1.0 + 0.5j, 0.25, -0.3j, 1.0)
        out = transform_frame(p, perturbed_frame)
        det, null = frame_defects(out)[:2]
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


# A horospherical end moved to a far boundary point: the products in its
# frame identities reach 7e7 (det) and 1e10 (null), and their cancellation
# leaves a nullity defect of 1.9e-6, above the absolute bar of 1e-8.
FAR_SPEC = {"type": "horospherical", "mu": 4, "h0": 3,
            "h_perturbation": [0, 10], "boundary": [3000, 40], "order": 128}


class TestJson:
    def test_far_frame_round_trips(self):
        frame, _ = build_end(FAR_SPEC)
        assert frame_defects(frame)[1] > 1e-8
        back = frame_from_json(frame_to_json(frame))
        for a, b in zip(back.entries(), frame.entries()):
            assert a.offset == b.offset
            assert np.array_equal(a.coeffs, b.coeffs)

    # A_0 changed by 1e-6 relative: the defects, 0.86 (det) and 13
    # (null), are under 1e-8 times the largest coefficients of
    # |A| |D| + |B| |C| and |dA| |dD| + |dB| |dC|, 1.5e8 and 2.2e10, but
    # 50 times 1e-8 times the coefficients where they sit.
    @pytest.mark.parametrize("which, eps", [
        ("first", 1e-3), ("largest", 1e-3), ("first", 1e-6)],
        ids=["first", "largest", "first-1e-6"])
    def test_far_frame_with_nudged_a_refused(self, which, eps):
        frame, _ = build_end(FAR_SPEC)
        a = frame.A.coeffs.copy()
        k = 0 if which == "first" else int(np.argmax(np.abs(a)))
        a[k] *= 1.0 + eps
        nudged = BryantFrame(GeneralizedSeries(frame.A.offset, a), frame.B,
                             frame.C, frame.D, frame.validity_radius)
        with pytest.raises(ConsistencyError, match="AD - BC = 1"):
            frame_from_json(frame_to_json(nudged))

    def test_round_trip(self, perturbed_frame):
        back = frame_from_json(frame_to_json(perturbed_frame))
        for a, b in zip(back.entries(), perturbed_frame.entries()):
            assert series_isclose(a, b, tol=1e-15)
        assert back.validity_radius == pytest.approx(
            perturbed_frame.validity_radius)
