import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bryantflux import (BryantFrame, DomainError, GeneralizedSeries,
                        QuadratureGrid, differentiate, eval_branch,
                        flux_triple)

from oracles import (add, eval_at, mul, normalized, product_residue,
                     radius_estimate, residue, series_div, series_isclose,
                     series_sum, stacked, trapezoid_residue)


def S(offset, coeffs):
    return GeneralizedSeries(offset, coeffs)


# Coefficient lists whose parts include 0.0 and -0.0, whose signs a sum
# must keep as a zero-started sum does.
_PARTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.25e-3, 7e10, -1e-300])
COEFFS = st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1,
                  max_size=7)


class TestArithmetic:
    def test_product(self):
        out = mul(S(0.0, [1, 1]), S(0.0, [1, -1]))
        assert out.offset == 0.0
        assert np.allclose(out.coeffs, [1, 0])

    def test_product_with_enough_order(self):
        out = mul(S(0.0, [1, 1, 0]), S(0.0, [1, -1, 0]))
        assert np.allclose(out.coeffs, [1, 0, -1])

    def test_offsets_cancel_in_product(self):
        out = mul(S(0.5, [1.0]), S(-0.5, [1.0]))
        assert out.offset == 0.0
        assert np.allclose(out.coeffs, [1.0])

    def test_geometric_series_division(self):
        out = series_div(S(0.0, [1, 0, 0, 0]), S(0.0, [1, 1, 0, 0]))
        assert np.allclose(out.coeffs, [1, -1, 1, -1])

    def test_division_round_trips(self):
        a = S(0.5, [2.0, -1.0, 0.5, 0.25])
        b = S(-1.0, [1.0, 3.0, -2.0, 1.0])
        q = series_div(a, b)
        assert series_isclose(mul(q, b), a, tol=1e-12)

    def test_division_by_zero_series_rejected(self):
        with pytest.raises(DomainError):
            series_div(S(0.0, [1.0]), S(0.0, [0.0, 0.0]))

    def test_addition_needs_integer_offset_gap(self):
        with pytest.raises(DomainError):
            add(S(0.5, [1.0]), S(0.0, [1.0]))

    def test_addition_refusal_names_series_addition(self):
        with pytest.raises(DomainError, match="series addition"):
            add(S(0.0, [1.0, 2.0]), S(1.3, [1.0]))

    @given(st.sampled_from([0.0, 0.25, -1.5]), st.integers(-5, 5),
           COEFFS, COEFFS)
    @example(0.0, 5, [1.0], [2.0])        # gap beyond the lower operand
    @example(0.0, -1, [-0.0], [-0.0])     # length 1, negative zeros
    @example(0.25, 3, [1.0, 2.0, 3.0], [-0.0j, 1.0])   # gap at its length
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_addition_is_the_index_sum(self, base, gap, xs, ys):
        """add(x, y), in either order, bytewise series_sum(x, y): the lower
        operand from the lower offset, the other from its shift on, up to
        the lower absolute top."""
        x, y = S(base, xs), S(base + gap, ys)
        for u, v in ((x, y), (y, x)):
            got, want = add(u, v), series_sum(u, v)
            assert got.offset == want.offset == min(u.offset, v.offset)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("run", [
        lambda: add(S(1e308, [1.0]), S(-1e308, [1.0])),
        lambda: product_residue(S(1e308, [1.0]), S(1e308, [1.0, 2.0])),
        lambda: flux_triple(BryantFrame(
            *(S(1e308, [1.0, 0.5]) for _ in range(4)), 1.0)),
    ], ids=["sum", "product-residue", "flux-triple"])
    def test_offset_gap_or_sum_not_finite_refused(self, run):
        with pytest.raises(DomainError):
            run()

    def test_addition_aligns_offsets(self):
        out = add(S(-1.0, [1.0, 2.0, 3.0]), S(0.0, [10.0, 20.0]))
        assert out.offset == -1.0
        assert np.allclose(out.coeffs, [1.0, 12.0, 23.0])

    @given(st.integers(0, 2 ** 32 - 1))
    @example(5951)
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_product_evaluates_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        a = S(float(rng.uniform(-2, 2)),
              rng.normal(size=6) + 1j * rng.normal(size=6))
        b = S(float(rng.uniform(-2, 2)),
              rng.normal(size=6) + 1j * rng.normal(size=6))
        grid = QuadratureGrid(0.05, 32)
        # Rows lack their branch factors, and the factors of a and b
        # multiply to that of their product, so the rows compare directly.
        lhs, a_vals, b_vals = eval_branch(*stacked([mul(a, b), a, b]),
                                         grid.rho, grid.samples)
        # mul(a, b) keeps the terms a_i b_j with i + j <= K = 5, so the defect
        # is at most the size of the others, sum |a_i| |b_j| rho^(o+i+j)
        # over i + j > K, plus round-off: 64 eps times the size of all
        # terms covers the 6-term convolution, the powers of rho and the
        # 5 butterfly stages of each of the three FFTs.
        i, j = np.indices((6, 6))
        sizes = (np.abs(np.outer(a.coeffs, b.coeffs))
                 * grid.rho ** (a.offset + b.offset + i + j))
        eps = np.finfo(float).eps
        bound = sizes[i + j > 5].sum() + 64 * eps * sizes.sum()
        assert np.max(np.abs(lhs - a_vals * b_vals)) <= bound


class TestDifferentiate:
    def test_monomial(self):
        out = differentiate(S(1.0, [1.0]))
        assert out.offset == 0.0
        assert np.allclose(out.coeffs, [1.0])

    def test_fractional_power(self):
        out = differentiate(S(0.5, [1.0]))
        assert out.offset == -0.5
        assert np.allclose(out.coeffs, [0.5])

    def test_residue_of_derivative_vanishes(self):
        rng = np.random.default_rng(5)
        a = S(-3.0, rng.normal(size=8))
        assert residue(differentiate(a)) == 0


class TestResidue:
    def test_simple_pole(self):
        assert residue(S(-1.0, [1.0])) == 1.0

    def test_window_lookup(self):
        assert residue(S(-2.0, [1.0, 2.0, 3.0])) == 2.0

    def test_no_minus_one_term(self):
        assert residue(S(0.0, [1.0, 2.0])) == 0.0

    def test_index_past_the_coefficients_refused(self):
        # z^-1 is at index 3 of a series of 3 coefficients
        with pytest.raises(DomainError, match="index 3 of 3 coefficients"):
            residue(S(-4.0, [1.0, 2.0, 3.0]))

    def test_fractional_offset_rejected(self):
        with pytest.raises(DomainError):
            residue(S(0.5, [1.0]))

    def test_linearity(self):
        a = S(-2.0, [1.0, 2.0, 0.5])
        b = S(-1.0, [3.0, -1.0])
        both = add(a, mul(b, 2.0))
        assert residue(both) == pytest.approx(residue(a) + 2.0 * residue(b))


class TestProductResidue:
    """product_residue(a, b) is bitwise residue(mul(a, b))."""

    @pytest.mark.parametrize("offsets", [
        (-1.5, -0.5), (0.25, -3.25), (-3.0, 1.0), (-2.0, -2.0), (1.0, 0.0),
        (-0.5, -4.5)])
    def test_matches_residue_of_product(self, offsets):
        rng = np.random.default_rng(11)
        for _ in range(200):
            na, nb = rng.integers(1, 9, size=2)
            a, b = (S(o, (rng.normal(size=n) + 1j * rng.normal(size=n))
                      * 10.0 ** rng.integers(-5, 6, size=n))
                    for o, n in zip(offsets, (na, nb)))
            if -1 - round(offsets[0] + offsets[1]) >= min(na, nb):
                # z^-1 lies past the truncation: both refuse
                for fn in (lambda: product_residue(a, b),
                           lambda: residue(mul(a, b))):
                    with pytest.raises(DomainError, match="truncated"):
                        fn()
                continue
            got, want = product_residue(a, b), residue(mul(a, b))
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_index_below_zero_gives_zero(self):
        assert product_residue(S(0.0, [1.0, 2.0]), S(1.0, [3.0])) == 0.0

    def test_index_past_shorter_order_is_refused(self):
        # idx = 2 lies within a's order 3 but past b's order 1.
        a, b = S(-2.0, [1.0, 2.0, 3.0, 4.0]), S(-1.0, [5.0, 6.0])
        for fn, lengths in ((lambda: residue(mul(a, b)), "2"),
                            (lambda: product_residue(a, b), "4 and 2"),
                            (lambda: product_residue(b, a), "2 and 4")):
            with pytest.raises(DomainError, match="index 2 of %s coeff"
                               % lengths):
                fn()

    def test_negative_zero_cleared(self):
        # (-1)(0) - (0)(1) is -0.0; the product's sum reads +0.0.
        got = product_residue(S(-1.0, [-1.0]), S(0.0, [1j]))
        assert np.array(got).tobytes() == np.array(0.0 - 1j).tobytes()

    def test_non_integer_offset_rejected(self):
        with pytest.raises(DomainError, match="non-integer offset"):
            product_residue(S(0.5, [1.0]), S(-1.0, [1.0]))


class TestEvaluation:
    def test_constant_series(self):
        assert np.allclose(eval_branch(*stacked([S(0.0, [1.0])]), 0.3, 16),
                           1.0)

    def test_zero_tail_past_overflow(self):
        # rho^(o+k) overflows from k = 104 on, where the coefficients are
        # zeros: they add nothing, not 0 * inf = nan.
        row = eval_branch(*stacked([GeneralizedSeries.monomial(
            -0.5, 2.0, order=128)]), 1e3, 16)[0]
        assert np.allclose(row, 2.0 * 1e3 ** -0.5, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("rho", [0.02, 0.5])
    @pytest.mark.parametrize("samples", [16, 256])
    def test_fft_rows_match_horner(self, rho, samples):
        # Order 69 at N = 16 folds 70 coefficients into 16 bins.  Series
        # of one offset and one length stop at different last nonzero
        # coefficients, with a zero inside one of them; at N = 16 the
        # order-128 pair folds one row (61 terms) and not the other (6
        # terms).
        rng = np.random.default_rng(11)

        def draw(k, last=None):
            c = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
            c[k if last is None else last + 1:] = 0.0
            return c

        gapped = draw(20, last=15)
        gapped[9] = 0.0
        series = [S(offset, draw(k, last))
                  for offset, k, last in [
                      (-2.3, 20, None), (-2.0, 20, None), (0.0, 8, None),
                      (3.0, 5, None), (0.5, 69, None), (-0.75, 69, None),
                      (-2.3, 20, 7), (-0.75, 69, 40), (-0.5, 128, 5),
                      (-0.5, 128, 60)]] + [S(-2.3, gapped)]
        grid = QuadratureGrid(rho, samples)
        rows = eval_branch(*stacked(series), grid.rho, grid.samples)
        assert rows.shape == (len(series), samples)
        for row, a in zip(rows, series):
            # One call per row gives the block's row, bit for bit.
            assert eval_branch(*stacked([a]), grid.rho,
                               grid.samples)[0].tobytes() \
                == row.tobytes()
            # The rows lack the branch factor, which the reference keeps.
            row = row * np.exp(1j * a.offset * grid.taus)
            ref = eval_at(a, grid.rho, grid.taus)
            assert np.max(np.abs(row - ref)) < 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("samples", [16, 256])
    def test_rows_of_one_offset_past_overflow(self, samples):
        # Two rows of one offset and one length whose zero tails lie where
        # rho^(o+k) overflows, from k = 104 on: each row is scaled only up
        # to its own last nonzero coefficient, as one call per row scales
        # it, and adds no 0 * inf = nan.
        rng = np.random.default_rng(12)
        coeffs = np.zeros(129, dtype=complex)
        coeffs[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
        series = [GeneralizedSeries.monomial(-0.5, 2.0, order=128),
                  S(-0.5, coeffs)]
        grid = QuadratureGrid(1e3, samples)
        rows = eval_branch(*stacked(series), grid.rho, grid.samples)
        for row, a in zip(rows, series):
            assert eval_branch(*stacked([a]), grid.rho,
                               grid.samples)[0].tobytes() \
                == row.tobytes()
        assert np.allclose(rows[0], 2.0 * 1e3 ** -0.5, rtol=1e-15, atol=0.0)
        ref = eval_at(series[1], grid.rho, grid.taus)
        row = rows[1] * np.exp(-0.5j * grid.taus)
        assert np.max(np.abs(row - ref)) < 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("samples", [16, 256])
    def test_coefficients_are_only_read(self, samples):
        # At N = 16 the rows' 70 terms fold into 16 bins (K + 1 > n), which
        # scales them into an array of the call's own; at N = 256 they go
        # straight into the block.
        rng = np.random.default_rng(13)
        coeffs = rng.normal(size=(3, 70)) + 1j * rng.normal(size=(3, 70))
        coeffs[1, 40:] = 0.0
        before = coeffs.copy()
        rows = eval_branch([-0.5, 0.0, 1.0], coeffs, 0.3, samples)
        assert coeffs.tobytes() == before.tobytes()
        series = [S(o, c) for o, c in zip([-0.5, 0.0, 1.0], before)]
        assert rows.tobytes() == eval_branch(*stacked(series), 0.3,
                                             samples).tobytes()

    def test_circle_samples_is_one_block_evaluation(self, monkeypatch):
        import bryantflux.bryant
        import bryantflux.flux
        import bryantflux.series
        from bryantflux import catenoid_cousin_frame, circle_samples
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for module in (bryantflux.series, bryantflux.bryant, bryantflux.flux):
            monkeypatch.setattr(module, "eval_at",
                                counted("eval_at", eval_at), raising=False)
        monkeypatch.setattr(bryantflux.flux, "eval_branch",
                            counted("eval_branch", eval_branch),
                            raising=False)
        circle_samples(catenoid_cousin_frame(0.5), QuadratureGrid(0.1, 64))
        assert calls == ["eval_branch"]

    def test_continuous_branch_near_full_turn(self):
        # z^(1/2) at tau just below 2 pi must approach -1, not +1.
        val = eval_at(S(0.5, [1.0]), 1.0, np.array([2.0 * np.pi - 1e-6]))[0]
        assert abs(val + 1.0) < 1e-5

    def test_single_valued_immersion_closes(self):
        from bryantflux import catenoid_cousin_frame
        from oracles import immersion_samples
        frame = catenoid_cousin_frame(0.5)
        taus = np.array([0.0, 2.0 * np.pi])
        zeta, w = immersion_samples(frame, 0.1, taus)
        assert abs(zeta[0] - zeta[1]) < 1e-10
        assert abs(w[0] - w[1]) < 1e-10

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            QuadratureGrid(0.1, 12)
        with pytest.raises(DomainError):
            QuadratureGrid(0.1, 48)
        with pytest.raises(DomainError):
            QuadratureGrid(-0.1, 32)


class TestTrapezoidResidue:
    def test_matches_symbolic_residue(self):
        rng = np.random.default_rng(2)
        a = S(-4.0, rng.normal(size=9) + 1j * rng.normal(size=9))
        grid = QuadratureGrid(0.5, 64)
        assert abs(trapezoid_residue(a, grid) - residue(a)) < 1e-8

    def test_pure_power_no_residue(self):
        grid = QuadratureGrid(0.5, 32)
        assert abs(trapezoid_residue(S(-2.0, [1.0]), grid)) < 1e-12


class TestStructure:
    def test_public_names_and_no_series_arithmetic(self):
        """The package exports no residue of a formed series, and a series
        has no arithmetic: sums, products and their residues are the
        tests' oracle (oracles.add, mul, residue, product_residue)."""
        import bryantflux
        assert bryantflux.__all__ == """
            BalanceProblem BryantFrame Catenoidal ConcurrencyResult
            ConsistencyError DEFAULT_ORDER DomainError EndDescriptor
            EuclideanEndData ExtendedComplex FluxMatrix FluxPolynomial
            FluxTriple FrobeniusProblem GeneralizedSeries Geodesic Horosphere
            Horospherical INF IsometrySL2 KillingField LogTermRequiredError
            QuadratureGrid ROTATION TRANSLATION UnbalanceableError balance
            boundary_eq bryant build_end canonical_catenoidal_frame
            canonical_horospherical_frame catenoid_cousin_frame
            catenoidal_closed_form catenoidal_polynomial circle_samples
            concurrency_check cross_ratio differentiate ends errors
            euclidean_three_end_check eval_branch extract_axis flux
            flux_for_geodesic flux_triple frame_from_json frame_to_json
            frobenius_solve geometry horosphere_frame
            horospherical_closed_form horospherical_polynomial is_inf killing
            mobius_boundary polynomial_sum series standardizing_isometry
            three_end_axes transform_frame two_end_solve""".split()
        a, b = S(-1.0, [1.0, 2.0]), S(0.0, [3.0])
        for op in (lambda: a + b, lambda: a - b, lambda: a * b,
                   lambda: 2.0 * a, lambda: -a):
            with pytest.raises(TypeError):
                op()

    def test_no_object_setattr(self):
        """No class of the package writes its fields past its own
        __setattr__: a type that normalizes its fields assigns each once
        in __init__."""
        import bryantflux
        calls = []
        for path in sorted(Path(bryantflux.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "__setattr__"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "object"):
                    calls.append("%s:%d" % (path.name, node.lineno))
        assert calls == []

    def test_quadrature_record_and_slotted_grid(self):
        """The quadrature's record, a FluxTriple, keeps its triple and
        round-off bounds, and a grid has no __dict__."""
        from bryantflux import flux
        assert [f.name for f in dataclasses.fields(flux.FluxTriple)] \
            == ["phi0", "phi1", "phi2", "roundoff"]
        assert not hasattr(QuadratureGrid(0.1, 64), "__dict__")

    def test_offset_snapping(self):
        s = S(1.0 + 1e-12, [1.0])
        assert s.offset == 1.0

    @pytest.mark.parametrize("offset", [np.inf, -np.inf, np.nan])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(DomainError, match="not finite"):
            S(offset, [1.0])

    def test_product_offset_overflow_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            mul(S(1e308, [1.0]), S(1e308, [1.0]))

    def test_normalized_shifts_leading_zeros(self):
        s = normalized(S(1.0, [0.0, 0.0, 2.0, 3.0]))
        assert s.offset == 3.0
        assert np.allclose(s.coeffs, [2.0, 3.0])

    def test_isclose_across_offset_shift(self):
        assert series_isclose(S(0.0, [0.0, 1.0, 2.0]), S(1.0, [1.0, 2.0]))

    def test_radius_estimate_geometric(self):
        # 1/(1 - z/2): coefficients (1/2)^k, radius 2.
        coeffs = [0.5 ** k for k in range(20)]
        assert radius_estimate(S(0.0, coeffs)) == pytest.approx(2.0)

    def test_radius_estimate_polynomial(self):
        assert radius_estimate(S(0.0, [1.0])) == np.inf
