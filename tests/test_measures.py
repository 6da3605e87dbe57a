"""Unit tests for the fifteen measures and the Lorenz curve."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemetrics import (
    MEASURE_ORDER,
    MEASURES,
    CoefficientVector,
    DegenerateInput,
    InvalidParams,
    Measure,
    MeasureSpec,
    SparsemetricsError,
    evaluate,
    gini,
    lorenz_curve,
)
from sparsemetrics.measures import evaluate_block


def ev(measure, values, **params):
    return evaluate(MeasureSpec(measure, **params), CoefficientVector(values))


class TestCoefficientVector:
    def test_magnitudes_applied(self):
        v = CoefficientVector([-2, 3])
        assert v.values.tolist() == [2.0, 3.0]

    def test_complex_reduced_to_magnitudes(self):
        v = CoefficientVector(np.array([3 + 4j]))
        assert v.values.tolist() == [5.0]

    def test_empty_rejected(self):
        with pytest.raises(InvalidParams):
            CoefficientVector([])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParams):
            CoefficientVector([1.0, float("nan")])

    def test_values_immutable(self):
        v = CoefficientVector([1, 2])
        with pytest.raises(ValueError):
            v.values[0] = 9.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.complex128])
    def test_caller_array_not_aliased(self, dtype):
        # float64 input is where np.abs's fresh array is the only copy
        arr = np.array([3, 1, 2], dtype=dtype)
        v = CoefficientVector(arr)
        arr[:] = 7
        assert v.values.tolist() == [3.0, 1.0, 2.0]
        assert v.sorted_values.tolist() == [1.0, 2.0, 3.0]
        assert not v.values.flags.writeable and not v.sorted_values.flags.writeable
        assert not np.shares_memory(v.values, arr)


class TestCountMeasures:
    def test_l0_counts_zeros(self):
        assert ev(Measure.L0, [0, 1, 3, 5]) == 1.0
        assert ev(Measure.L0, [0, 0, 0, 1, 3, 5]) == 3.0

    def test_l0_eps_counts_below_threshold(self):
        assert ev(Measure.L0_EPS, [0, 1, 3, 5], epsilon=1.0) == 2.0

    def test_l0_eps_requires_positive_epsilon(self):
        with pytest.raises(InvalidParams):
            MeasureSpec(Measure.L0_EPS, epsilon=0.0)


class TestNormMeasures:
    def test_neg_l1_fixed_value(self):
        assert ev(Measure.NEG_L1, [0, 1, 3, 5]) == -9.0

    def test_neg_lp_half(self):
        # (sqrt(4) + sqrt(9))^2 = 25
        assert ev(Measure.NEG_LP, [4, 9], p_frac=0.5) == pytest.approx(-25.0, rel=1e-12)

    def test_neg_lp_neg(self):
        # 1/1 + 1/2 + 1/4, negated
        assert ev(Measure.NEG_LP_NEG, [1, 2, 4], p_neg=-1.0) == pytest.approx(-1.75)

    def test_neg_lp_neg_skips_zeros(self):
        assert ev(Measure.NEG_LP_NEG, [0, 1, 2, 4]) == ev(Measure.NEG_LP_NEG, [1, 2, 4])

    def test_neg_lp_neg_all_zero_degenerate(self):
        with pytest.raises(DegenerateInput):
            ev(Measure.NEG_LP_NEG, [0, 0])

    def test_neg_lp_param_range(self):
        with pytest.raises(InvalidParams):
            MeasureSpec(Measure.NEG_LP, p_frac=1.0)
        with pytest.raises(InvalidParams):
            MeasureSpec(Measure.NEG_LP_NEG, p_neg=0.5)


class TestRatioMeasures:
    def test_l2_over_l1(self):
        assert ev(Measure.L2_OVER_L1, [0, 1, 3, 5]) == pytest.approx(
            math.sqrt(35) / 9, rel=1e-12
        )

    def test_kappa4_one_hot(self):
        assert ev(Measure.KAPPA4, [0, 0, 0, 7]) == pytest.approx(1.0, rel=1e-12)

    def test_kappa4_constant(self):
        assert ev(Measure.KAPPA4, [2, 2, 2, 2]) == pytest.approx(0.25, rel=1e-12)

    def test_hoyer_one_hot_and_constant(self):
        assert ev(Measure.HOYER, [0, 0, 0, 7]) == 1.0
        assert ev(Measure.HOYER, [3, 3, 3, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_degenerate(self):
        for m in (Measure.L2_OVER_L1, Measure.KAPPA4, Measure.HOYER):
            with pytest.raises(DegenerateInput):
                ev(m, [0, 0, 0])

    def test_hoyer_single_coefficient_degenerate(self):
        with pytest.raises(DegenerateInput):
            ev(Measure.HOYER, [5])


class TestSeparableMeasures:
    def test_neg_log(self):
        expected = -(math.log(2) + math.log(10) + math.log(26))
        assert ev(Measure.NEG_LOG, [1, 3, 5]) == pytest.approx(expected, rel=1e-12)

    def test_neg_tanh_range(self):
        v = ev(Measure.NEG_TANH, [0.5, 1, 2], a=1.0, b=1.0)
        assert -3 < v <= 0

    def test_hg(self):
        expected = -(2 * math.log(3) + 2 * math.log(5))
        assert ev(Measure.HG, [1, 3, 5]) == pytest.approx(expected, rel=1e-12)

    def test_hg_excludes_zeros(self):
        assert ev(Measure.HG, [0, 1, 3, 5]) == ev(Measure.HG, [1, 3, 5])

    def test_hs_one_hot_is_zero(self):
        assert ev(Measure.HS, [0, 0, 1]) == 0.0

    def test_hs_prime_value(self):
        # -(3 ln 9 + 5 ln 25); the coefficient 1 contributes log(1) = 0
        expected = -(3 * math.log(9) + 5 * math.log(25))
        assert ev(Measure.HS_PRIME, [0, 1, 3, 5]) == pytest.approx(expected, rel=1e-12)

    def test_entropies_degenerate_on_zero_vector(self):
        for m in (Measure.HG, Measure.HS):
            with pytest.raises(DegenerateInput):
                ev(m, [0, 0])

    def test_tanh_params(self):
        with pytest.raises(InvalidParams):
            MeasureSpec(Measure.NEG_TANH, a=0.0)


class TestUTheta:
    def test_window_formula(self):
        assert ev(Measure.U_THETA, [1, 2, 4, 9], theta=0.5) == pytest.approx(0.875)
        assert ev(Measure.U_THETA, [1.1, 1.9, 4, 9], theta=0.5) == pytest.approx(
            1 - 0.8 / 7.9, rel=1e-12
        )

    def test_robin_hood_direction(self):
        # the reference derivation quotes 0.6667/0.7333 for these inputs, which
        # the window formula does not reproduce; the violation direction is the
        # same either way (the transfer increases the measure)
        assert ev(Measure.U_THETA, [1.1, 1.9, 4, 9], theta=0.5) > ev(
            Measure.U_THETA, [1, 2, 4, 9], theta=0.5
        )

    def test_constant_vector_degenerate(self):
        with pytest.raises(DegenerateInput):
            ev(Measure.U_THETA, [2, 2, 2])

    def test_full_window_degenerate(self):
        with pytest.raises(DegenerateInput):
            ev(Measure.U_THETA, [1, 2], theta=0.9)  # ceil(1.8) == N

    def test_theta_range(self):
        with pytest.raises(InvalidParams):
            MeasureSpec(Measure.U_THETA, theta=1.0)


class TestGini:
    def test_fixed_values(self):
        assert gini(CoefficientVector([1, 1, 1, 1])) == 0.0
        assert gini(CoefficientVector([0, 0, 0, 0, 1])) == pytest.approx(0.8, abs=1e-15)
        assert gini(CoefficientVector([0, 1, 3, 5])) == pytest.approx(17 / 36, abs=1e-15)

    def test_constant_exactly_zero_any_value(self):
        for c in (0.1, 0.3, 7.77, 1e-4):
            for n in (2, 3, 5, 17):
                assert gini(CoefficientVector([c] * n)) == 0.0

    def test_one_hot_is_max(self):
        for n in range(2, 65):
            v = np.zeros(n)
            v[0] = 3.5
            assert gini(CoefficientVector(v)) == pytest.approx(1 - 1 / n, abs=1e-12)

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateInput):
            gini(CoefficientVector([0, 0]))

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=40).filter(
            lambda xs: sum(xs) > 0
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, xs):
        g = gini(CoefficientVector(xs))
        assert -1e-12 <= g <= 1 - 1 / len(xs) + 1e-12


class TestLorenzCurve:
    def test_one_hot_points(self):
        curve = lorenz_curve(CoefficientVector([0, 0, 0, 0, 1]))
        assert curve.points.shape == (6, 2)
        np.testing.assert_allclose(curve.x, [0, 0.2, 0.4, 0.6, 0.8, 1.0])
        np.testing.assert_allclose(curve.y, [0, 0, 0, 0, 0, 1.0])

    def test_diagonal_for_constant(self):
        curve = lorenz_curve(CoefficientVector([1, 1]))
        np.testing.assert_allclose(curve.points, [[0, 0], [0.5, 0.5], [1, 1]])
        assert curve.twice_area_above() == pytest.approx(0.0, abs=1e-15)

    def test_below_diagonal(self):
        curve = lorenz_curve(CoefficientVector([1, 1, 2, 3, 10]))
        assert np.all(curve.y[1:-1] < curve.x[1:-1])

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.random(int(rng.integers(2, 30))) * 10
            curve = lorenz_curve(CoefficientVector(v))
            assert curve.points[0].tolist() == [0.0, 0.0]
            assert curve.points[-1].tolist() == [1.0, 1.0]
            assert np.all(np.diff(curve.y) >= 0)
            assert np.all(curve.y <= curve.x + 1e-15)

    def test_twice_area_matches_gini(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.random(int(rng.integers(2, 64))) * 10
            v[rng.random(v.size) < 0.2] = 0
            if not v.any():
                continue
            c = CoefficientVector(v)
            g = gini(c)
            assert lorenz_curve(c).twice_area_above() == pytest.approx(
                g, rel=1e-12, abs=1e-12
            )


class TestPermutationAndDispatch:
    def test_sort_first_makes_permutation_bit_exact(self):
        rng = np.random.default_rng(3)
        vals = rng.random(20) * 10
        vals[3] = 0
        base = CoefficientVector(vals)
        perm = CoefficientVector(rng.permutation(vals))
        for m in Measure:
            spec = MeasureSpec(m)
            assert evaluate(spec, base) == evaluate(spec, perm)

    def test_dispatch_covers_all_ids(self):
        c = CoefficientVector([0.5, 1, 2, 4])
        for m in Measure:
            assert isinstance(evaluate(MeasureSpec(m), c), float)


class TestBounds:
    def test_documented_ranges_on_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            v = rng.random(int(rng.integers(2, 64))) * 10
            v[rng.random(v.size) < 0.2] = 0
            if not v.any() or v.max() == v.min():
                continue
            c = CoefficientVector(v)
            n = len(c)
            assert 0 <= gini(c) <= 1 - 1 / n + 1e-12
            assert -1e-12 <= ev(Measure.HOYER, v) <= 1 + 1e-12
            assert 1 / n - 1e-12 <= ev(Measure.KAPPA4, v) <= 1 + 1e-12
            assert 0 <= ev(Measure.U_THETA, v) <= 1
            assert -n < ev(Measure.NEG_TANH, v) <= 0


class TestOverflow:
    def test_kappa4_overflow_raises_cleanly(self):
        with pytest.raises(DegenerateInput, match="overflow"):
            ev(Measure.KAPPA4, [1e300, 1.0])

    def test_kappa4_squares_past_the_float64_range(self):
        # (sum c^2)^2 = 1e310 overflows a Python float without raising; the
        # value of a constant vector is 1/N, alone and as a row of a block
        spec = MeasureSpec(Measure.KAPPA4)
        huge = np.full(1000, 1e76)
        block = np.sort([np.linspace(1.0, 2.0, 1000), huge, np.arange(1000.0)], axis=1)
        with np.errstate(over="raise", invalid="ignore"):
            in_block = MEASURES[Measure.KAPPA4].kernel(spec, block)[1]
        alone = evaluate(spec, CoefficientVector(huge))
        for value in (alone, in_block, evaluate_block(spec, block)[1]):
            assert abs(value - 0.001) <= 4 * math.ulp(0.001), value

    def test_huge_but_finite_values_fine(self):
        assert ev(Measure.NEG_L1, [1e200, 1e200]) == -2e200
        assert gini(CoefficientVector([1e300, 1e300])) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300)),
            min_size=1,
            max_size=64,
        )
    )
    def test_finite_value_or_package_error(self, values):
        c = CoefficientVector(values)
        for m in MEASURE_ORDER:
            try:
                value = evaluate(MeasureSpec(m), c)
            except SparsemetricsError:
                continue
            assert isinstance(value, float) and math.isfinite(value), (m, value)


class TestRegistry:
    def test_maximum_attained_by_one_hot_and_never_exceeded(self):
        rng = np.random.default_rng(29)
        bounded = {m: d.maximum for m, d in MEASURES.items() if d.maximum is not None}
        assert set(bounded) == {
            Measure.L2_OVER_L1, Measure.KAPPA4, Measure.U_THETA, Measure.HOYER, Measure.GINI
        }
        for m, maximum in bounded.items():
            spec = MeasureSpec(m)
            for n in range(2, 11):
                hot = np.zeros(n)
                hot[n // 2] = 3.0
                assert abs(evaluate(spec, CoefficientVector(hot)) - maximum(n)) <= 1e-12, (m, n)
                for _ in range(200):
                    v = rng.integers(0, 10 * 2**20 + 1, size=n) * 2.0**-20
                    v[rng.random(n) < 0.2] = 0.0
                    try:
                        value = evaluate(spec, CoefficientVector(v))
                    except DegenerateInput:
                        continue
                    assert value <= maximum(n), (m, v.tolist(), value)

    def test_summing_kernels_sum_their_term(self):
        rng = np.random.default_rng(31)
        for m, d in MEASURES.items():
            if d.term is None or m is Measure.NEG_LP:  # neg-lp takes a root of its sum
                continue
            spec = MeasureSpec(m)
            for _ in range(50):
                v = rng.random(int(rng.integers(1, 65))) * 10
                v[rng.random(v.size) < 0.2] = 0.0
                if not v.any():
                    continue
                c = CoefficientVector(v)
                total = math.fsum(d.term(spec, c.values))
                assert evaluate(spec, c) == pytest.approx(total, rel=1e-12, abs=1e-12), m

    def test_zero_totals_keep_their_sign(self):
        # as the closed forms give them: a count is +0.0, a -sum(...) is -0.0
        def sign(m, values):
            return math.copysign(1.0, ev(m, values))

        assert sign(Measure.L0, [1.0, 2.0]) == 1.0
        assert sign(Measure.NEG_L1, [0.0, 0.0]) == -1.0
        assert sign(Measure.NEG_LOG, [0.0]) == -1.0
        assert sign(Measure.HG, [0.5, 2.0]) == -1.0  # log 0.5 + log 2 == 0
        assert sign(Measure.HS_PRIME, [1.0, 1.0]) == 1.0



def _alone(spec, row):
    """``evaluate`` on one row: the value's hex, or the error message."""
    try:
        return evaluate(spec, CoefficientVector(row)).hex()
    except DegenerateInput as exc:
        return str(exc)


# zeros, ties (the small integers) and magnitudes from 1e-200 to 1e300
MAGNITUDES = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-200, 299)),
)


@st.composite
def blocks(draw):
    """A (B, n) block of ascending rows: n from 1, some rows all zero."""
    n = draw(st.integers(1, 40))
    row = st.one_of(
        st.lists(MAGNITUDES, min_size=n, max_size=n), st.just([0.0] * n)
    )
    return np.sort(np.array(draw(st.lists(row, min_size=1, max_size=6))), axis=1)


BLOCK_PARAMS = [
    {},
    dict(a=2.0, b=0.5, epsilon=0.5, theta=0.3, p_frac=0.3, p_neg=-2.0),
    dict(a=0.5, b=3.0, epsilon=3.0, theta=0.9, p_frac=0.9, p_neg=-0.5),
]


class TestBlockKernels:
    """On the rows inside its domain, a kernel's row r is ``evaluate`` on row r
    alone, bit for bit; a row outside gets the message it raises alone."""

    @settings(max_examples=300, deadline=None)
    @given(block=blocks(), params=st.sampled_from(BLOCK_PARAMS))
    def test_rows_equal_evaluate(self, block, params):
        for m in MEASURE_ORDER:
            spec = MeasureSpec(m, **params)
            alone = [_alone(spec, row) for row in block]
            domain = MEASURES[m].domain
            inside = np.full(len(block), True) if domain is None else domain.inside(spec, block)
            for got, a, ok in zip(evaluate_block(spec, block), alone, inside.tolist()):
                if not ok:
                    assert (str(got), a) == (f"{m.value} is undefined for {domain.outside}",) * 2
            alone = [a for a, ok in zip(alone, inside.tolist()) if ok]
            out_of_range = [a for a in alone if a.startswith(f"{m.value} exceeds the float64")]
            try:
                with np.errstate(over="raise", invalid="ignore"):
                    values = MEASURES[m].kernel(spec, block[inside])
            except DegenerateInput as exc:
                # only for a length, which every row inside raises alone
                assert all(a == str(exc) for a in alone), (m, str(exc), alone)
                continue
            except ArithmeticError:
                assert out_of_range, (m, alone)
                continue
            assert values.shape == (len(alone),)
            for value, a in zip(values.tolist(), alone):
                if math.isfinite(value):
                    assert value.hex() == a, (m, value.hex(), a)
                else:
                    assert a in out_of_range, (m, value, a)

    @pytest.mark.parametrize("m", MEASURE_ORDER)
    def test_degenerate_row_in_a_block(self, m):
        # among good rows, a row outside the domain is masked out and gets the
        # message it raises alone; one inside that the kernel cannot take
        # makes the call raise, and evaluate words it as out of range
        spec = MeasureSpec(m)
        domain = MEASURES[m].domain
        good = np.array([0.5, 1.0, 2.0, 3.0])
        for bad in (np.zeros(4), np.full(4, 2.0), np.array([1e-200, 2e-200, 3e-200, 4e-200])):
            message = _alone(spec, bad)
            if message.startswith("0x") or message.startswith("-0x"):
                continue
            block = np.array([good, bad, good])
            assert str(evaluate_block(spec, block)[1]) == message
            if domain is not None and not domain.inside(spec, block)[1]:
                assert domain.inside(spec, block).tolist() == [True, False, True]
                continue
            try:
                with np.errstate(over="raise", invalid="ignore"):
                    MEASURES[m].kernel(spec, block)
            except ArithmeticError:
                assert message.startswith(f"{m.value} exceeds the float64 range")
            else:
                pytest.fail(f"{m.value} on {bad.tolist()} raised nothing in a block")

    @pytest.mark.parametrize("m", [m for m in MEASURE_ORDER if MEASURES[m].domain is not None])
    def test_one_degenerate_row_keeps_one_kernel_call(self, monkeypatch, m):
        spec = MeasureSpec(m)
        rows = np.sort(np.random.default_rng(11).uniform(0.5, 8.0, (10_000, 4)), axis=1)
        rows[4321] = 0.0  # all zero, so also constant
        real = MEASURES[m]
        calls = []

        def kernel(spec, block):
            calls.append(len(block))
            return real.kernel(spec, block)

        monkeypatch.setitem(MEASURES, m, dataclasses.replace(real, kernel=kernel))
        got = evaluate_block(spec, rows)
        assert calls == [9_999]
        monkeypatch.undo()
        for row, value in zip(rows, got):
            assert (value.hex() if isinstance(value, float) else str(value)) == _alone(spec, row)

    @staticmethod
    def _kernel_calls(monkeypatch, spec, rows):
        """The row count of each kernel call ``evaluate_block(spec, rows)``
        makes; every row must get what it gets alone."""
        real = MEASURES[spec.id]
        calls = []

        def kernel(spec, block):
            calls.append(len(block))
            return real.kernel(spec, block)

        monkeypatch.setitem(MEASURES, spec.id, dataclasses.replace(real, kernel=kernel))
        got = evaluate_block(spec, rows)
        monkeypatch.undo()
        for row, value in zip(rows, got):
            assert (value.hex() if isinstance(value, float) else str(value)) == _alone(spec, row)
        return calls

    @pytest.mark.parametrize(
        "m, bad",
        [
            (Measure.HS, [1e-200, 2e-200, 3e-200, 4e-200]),
            (Measure.KAPPA4, [1e-200, 2e-200, 3e-200, 4e-200]),
            (Measure.HOYER, [1e-200, 2e-200, 3e-200, 4e-200]),
            (Measure.KAPPA4, [1.0, 2.0, 3.0, 1e300]),
            (Measure.NEG_LOG, [1.0, 2.0, 3.0, 1e300]),
        ],
    )
    def test_one_out_of_range_row_splits_the_block(self, monkeypatch, m, bad):
        spec = MeasureSpec(m)
        rows = np.sort(np.random.default_rng(12).uniform(0.5, 8.0, (10_000, 4)), axis=1)
        rows[4321] = bad
        calls = self._kernel_calls(monkeypatch, spec, rows)
        assert _alone(spec, bad).startswith(f"{m.value} exceeds the float64 range")
        assert len(calls) <= 2 * math.ceil(math.log2(len(rows))) + 1, len(calls)

    @pytest.mark.parametrize(
        "m, n, params", [(Measure.HOYER, 1, {}), (Measure.U_THETA, 5, {"theta": 0.9})]
    )
    def test_a_length_the_measure_rejects_takes_one_call(self, monkeypatch, m, n, params):
        spec = MeasureSpec(m, **params)
        rows = np.sort(np.random.default_rng(13).uniform(0.5, 8.0, (1_000, n)), axis=1)
        assert self._kernel_calls(monkeypatch, spec, rows) == [1_000]


class TestMessagePrecedence:
    """Which message a row gets where two apply, alone and in a block."""

    CASES = [
        (Measure.HOYER, {}, [0.0], "hoyer is undefined for the all-zero vector"),
        (Measure.HOYER, {}, [3.0], "hoyer needs at least two coefficients"),
        (Measure.U_THETA, {}, [0.0], "u-theta requires ceil(theta*N) != N (theta=0.5, N=1)"),
        (Measure.U_THETA, {}, [2.0], "u-theta requires ceil(theta*N) != N (theta=0.5, N=1)"),
        (
            Measure.U_THETA,
            {"theta": 0.9},
            [2.0] * 5,
            "u-theta requires ceil(theta*N) != N (theta=0.9, N=5)",
        ),
        (Measure.U_THETA, {}, [2.0] * 5, "u-theta is undefined for constant vectors"),
        (
            Measure.HS,
            {},
            [1e-200, 2e-200, 3e-200, 4e-200],
            "hs exceeds the float64 range on this input (its squares sum to 0)",
        ),
    ]

    @pytest.mark.parametrize("m, params, row, message", CASES)
    def test_message(self, m, params, row, message):
        spec = MeasureSpec(m, **params)
        with pytest.raises(DegenerateInput) as exc:
            evaluate(spec, CoefficientVector(row))
        assert str(exc.value) == message
        # the same row next to one of each kind of the same length
        others = [[0.0] * len(row), [3.0] * len(row), list(range(1, len(row) + 1))]
        block = np.sort([row, *others], axis=1).astype(float)
        got = evaluate_block(spec, block)
        assert (type(got[0]), str(got[0])) == (DegenerateInput, message)
        for other, value in zip(block[1:], got[1:]):
            assert (value.hex() if isinstance(value, float) else str(value)) == _alone(spec, other)


class TestEvaluateBlock:
    @pytest.mark.parametrize("m", MEASURE_ORDER)
    def test_each_row_gets_what_evaluate_gives_it(self, m):
        # a good block takes one kernel call, a degenerate or a non-finite row
        # is masked out of it, and an out-of-range row splits it in halves
        spec = MeasureSpec(m)
        good = [[0.5, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 4.0]]
        for bad in (
            [0.0] * 4,
            [2.0] * 4,
            [1.0, 1.0, 2.0, 1e300],
            [1.0, 2.0, 3.0, math.inf],
            [1e-200, 2e-200, 3e-200, 4e-200],
        ):
            rows = np.array([good[0], bad, good[1]])
            for row, got in zip(rows, evaluate_block(spec, rows)):
                try:
                    expected = evaluate(spec, CoefficientVector(row))
                except SparsemetricsError as exc:
                    assert (type(got), str(got)) == (type(exc), str(exc))
                else:
                    assert got.hex() == expected.hex()


class TestNegTanhCap:
    """The trial amplitude cap of neg-tanh, 4^(1/b) / a."""

    def test_unchanged_in_range(self):
        cap = MEASURES[Measure.NEG_TANH].value_cap
        for a, b in [(1.0, 1.0), (1.0, 0.5), (2.0, 0.5), (0.3, 3.0), (1e-3, 0.01), (5.0, 0.002)]:
            assert cap(MeasureSpec(Measure.NEG_TANH, a=a, b=b)) == (4.0 ** (1.0 / b)) / a

    @pytest.mark.parametrize("b", [1e-3, 1e-9, 1e-300, 5e-324])
    def test_saturates_past_the_float_range(self, b):
        cap = MEASURES[Measure.NEG_TANH].value_cap
        assert cap(MeasureSpec(Measure.NEG_TANH, b=b)) == math.inf
        # log space: a huge a can bring the cap back into range
        assert cap(MeasureSpec(Measure.NEG_TANH, a=1e300, b=0.0014)) == pytest.approx(
            math.exp(math.log(4.0) / 0.0014 - math.log(1e300)), rel=1e-12
        )
