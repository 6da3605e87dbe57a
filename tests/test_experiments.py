"""Unit tests for the experiment harness and the distributional Gini."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemetrics import (
    MEASURES,
    DegenerateInput,
    DistributionSpec,
    InvalidParams,
    Measure,
    MeasureSpec,
    bernoulli_sweep,
    contribution_curves,
    distributional_gini,
    evaluate,
    minmax_normalize,
    poisson_convergence,
    sample_gini,
    sample_vector,
)
from sparsemetrics import experiments
from sparsemetrics.errors import NonSeparableMeasure
from sparsemetrics.experiments import BERNOULLI_EPSILON, MAX_RESAMPLES, default_specs
from sparsemetrics.transforms import stream


class TestDistributionSpec:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            DistributionSpec.poisson(0.0)
        with pytest.raises(InvalidParams):
            DistributionSpec.uniform(2.0, 1.0)
        with pytest.raises(InvalidParams):
            DistributionSpec.uniform(-1.0, 1.0)
        with pytest.raises(InvalidParams):
            DistributionSpec.exponential(0.0)
        with pytest.raises(InvalidParams):
            DistributionSpec("weibull")
        with pytest.raises(InvalidParams, match="bernoulli01 requires 0 <= p <= 1"):
            DistributionSpec("bernoulli01", p=1.5)

    @pytest.mark.parametrize("lam", [745.0, 800.0, 1e9])
    def test_poisson_lam_beyond_the_float64_range(self, lam):
        # exp(-lam), where the cumulative pmf starts, is subnormal or 0
        with pytest.raises(InvalidParams, match="too large"):
            DistributionSpec.poisson(lam)

    def test_large_poisson_lam_in_range(self):
        v = sample_vector(DistributionSpec.poisson(700.0), 10_000, seed=0).values
        assert v.mean() == pytest.approx(700.0, abs=2.0)
        assert v.var() == pytest.approx(700.0, rel=0.1)


class TestSampleVector:
    def test_bernoulli_extremes(self):
        assert sample_vector(DistributionSpec.bernoulli01(0.0), 5, 1).values.tolist() == [1] * 5
        assert sample_vector(DistributionSpec.bernoulli01(1.0), 5, 1).values.tolist() == [0] * 5

    def test_determinism(self):
        d = DistributionSpec.poisson(5.0)
        a = sample_vector(d, 100, seed=3)
        b = sample_vector(d, 100, seed=3)
        assert a == b

    def test_poisson_mean_by_inversion(self):
        v = sample_vector(DistributionSpec.poisson(5.0), 100_000, seed=0)
        assert float(v.values.mean()) == pytest.approx(5.0, abs=0.05)

    def test_poisson_values_are_counts(self):
        v = sample_vector(DistributionSpec.poisson(5.0), 1000, seed=2).values
        assert np.all(v == np.round(v)) and v.min() >= 0

    def test_exponential_mean(self):
        v = sample_vector(DistributionSpec.exponential(2.0), 100_000, seed=0)
        assert float(v.values.mean()) == pytest.approx(0.5, abs=0.01)

    def test_n_validated(self):
        with pytest.raises(InvalidParams):
            sample_vector(DistributionSpec.poisson(5.0), 0, 0)


class TestMinmaxNormalize:
    def test_basic(self):
        assert minmax_normalize([2, 4, 6]).tolist() == [0.0, 0.5, 1.0]

    def test_constant_maps_to_zeros(self):
        assert minmax_normalize([5, 5, 5]).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "series, error", [([], "an empty series"), ([1.0, math.nan], "non-finite values")]
    )
    def test_rejected(self, series, error):
        with pytest.raises(InvalidParams, match=error):
            minmax_normalize(series)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_range_and_idempotence(self, xs):
        out = minmax_normalize(xs)
        assert np.all(out >= 0) and np.all(out <= 1)
        np.testing.assert_array_equal(minmax_normalize(out), out)


@pytest.fixture(scope="module")
def poisson_small():
    return poisson_convergence(sizes=(10, 30, 100), repeats=10, seed=0)


class TestPoissonConvergence:
    def test_shape_and_determinism(self, poisson_small):
        assert poisson_small.raw[Measure.GINI].shape == (3, 10)
        again = poisson_convergence(sizes=(10, 30, 100), repeats=10, seed=0)
        for m in poisson_small.measures:
            np.testing.assert_array_equal(poisson_small.raw[m], again.raw[m])

    def test_spread_shrinks(self, poisson_small):
        for m in (Measure.GINI, Measure.HOYER, Measure.KAPPA4):
            s = poisson_small.std(m)
            assert s[-1] < s[0]

    def test_neg_l1_mean_decreasing(self, poisson_small):
        assert np.all(np.diff(poisson_small.mean(Measure.NEG_L1)) < 0)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            poisson_convergence(sizes=(30, 10), repeats=10)
        with pytest.raises(InvalidParams):
            poisson_convergence(sizes=(10, 30), repeats=1)

    def test_empty_sweep_rejected(self):
        with pytest.raises(InvalidParams, match="at least one sweep point"):
            poisson_convergence(sizes=[], repeats=2)


@pytest.fixture(scope="module")
def bernoulli_small():
    return bernoulli_sweep(grid=(0.1, 0.5, 0.9), n=300, repeats=5, seed=0)


class TestBernoulliSweep:
    def test_gini_monotone_in_p(self, bernoulli_small):
        mean = bernoulli_small.mean(Measure.GINI)
        assert mean[2] > mean[0]

    def test_l0_mean_tracks_np(self, bernoulli_small):
        # count of zeros is Binomial(n, p): mean within 3 sigma of n*p
        for i, p in enumerate(bernoulli_small.sweep_values):
            sigma = math.sqrt(300 * p * (1 - p))
            assert abs(bernoulli_small.mean(Measure.L0)[i] - 300 * p) <= 3 * sigma

    def test_epsilon_override_recorded(self, bernoulli_small):
        assert bernoulli_small.metadata["measure_params"]["l0-eps"]["epsilon"] == 0.5

    def test_normalized_in_unit_interval(self, bernoulli_small):
        for m in bernoulli_small.measures:
            norm = bernoulli_small.normalized(m)
            assert np.all(norm >= 0) and np.all(norm <= 1)

    def test_grid_validated(self):
        with pytest.raises(InvalidParams):
            bernoulli_sweep(grid=(0.0, 0.5), n=10, repeats=2)
        for repeats in (-1, 0, 1):  # a std needs two draws
            with pytest.raises(InvalidParams, match="repeats must be >= 2"):
                bernoulli_sweep(grid=(0.5,), n=10, repeats=repeats)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParams, match="at least one sweep point"):
            bernoulli_sweep(grid=[], n=10, repeats=2)


class TestBernoulliClosedForms:
    """On 0/1 draws every value is a closed form in K, the count of ones:
    K = -neg-l1 on each draw of the default sweep (19 values of p, 20
    repeats, N = 1000).  The bounds are set in machine epsilons; measured,
    l2-over-l1 is within 2.3e-16 relative, hoyer within 5.4e-15 relative and
    hs within 7.1e-15 absolute."""

    EPS = np.finfo(float).eps

    @pytest.fixture(scope="class")
    def sweep(self):
        result = bernoulli_sweep()
        n, k = result.metadata["n"], -result.raw[Measure.NEG_L1]
        assert n == 1000 and result.raw[Measure.GINI].shape == (19, 20)
        assert (k == np.round(k)).all() and 1 <= k.min() and k.max() <= n
        return result.raw, n, k

    def test_bit_for_bit(self, sweep):
        raw, n, k = sweep
        assert (raw[Measure.L0] == n - k).all()
        assert (raw[Measure.GINI] == (n - k) / n).all()
        assert (raw[Measure.KAPPA4] == 1 / k).all()

    def test_l2_over_l1_within_two_epsilons(self, sweep):
        raw, _, k = sweep
        assert (abs(raw[Measure.L2_OVER_L1] / k**-0.5 - 1) <= 2 * self.EPS).all()

    def test_hoyer_within_32_epsilons(self, sweep):
        raw, n, k = sweep
        closed = (math.sqrt(n) - np.sqrt(k)) / (math.sqrt(n) - 1)
        assert (abs(raw[Measure.HOYER] / closed - 1) <= 32 * self.EPS).all()

    def test_hs_within_64_epsilons(self, sweep):
        raw, _, k = sweep
        assert (abs(raw[Measure.HS] - 2 * np.log(k)) <= 64 * self.EPS).all()


class TestContributionCurves:
    def test_fixed_terms(self):
        table = contribution_curves([0.0, 1.0, 10.0])
        neg_log = table.terms[Measure.NEG_LOG]
        assert neg_log[0] == 0.0
        assert neg_log[1] == pytest.approx(-math.log(2))
        tanh_terms = table.terms[Measure.NEG_TANH]
        assert tanh_terms[2] == pytest.approx(-1.0, abs=1e-8)  # saturation
        l0_terms = table.terms[Measure.L0]
        assert l0_terms.tolist() == [1.0, 0.0, 0.0]

    def test_zero_conventions(self):
        table = contribution_curves([0.0])
        assert table.terms[Measure.HG][0] == 0.0
        assert table.terms[Measure.HS_PRIME][0] == 0.0
        assert table.terms[Measure.NEG_LP_NEG][0] == 0.0

    def test_non_separable_rejected(self):
        for m in (Measure.GINI, Measure.HOYER, Measure.KAPPA4, Measure.L2_OVER_L1,
                  Measure.U_THETA, Measure.HS):
            with pytest.raises(NonSeparableMeasure):
                contribution_curves([0.0, 1.0], [MeasureSpec(m)])

    def test_default_covers_the_measures_with_a_term(self):
        table = contribution_curves([0.0, 0.5, 2.0])
        assert set(table.terms) == {m for m, d in MEASURES.items() if d.term is not None}
        # the report's row order
        assert list(table.terms) == [
            Measure.L0, Measure.L0_EPS, Measure.NEG_L1, Measure.NEG_LP, Measure.NEG_TANH,
            Measure.NEG_LOG, Measure.HG, Measure.HS_PRIME, Measure.NEG_LP_NEG,
        ]

    def test_negative_amplitude_rejected(self):
        with pytest.raises(InvalidParams):
            contribution_curves([-1.0, 0.0])
        for x in (math.nan, math.inf):
            with pytest.raises(InvalidParams):
                contribution_curves([0.0, x])


class TestDistributionalGini:
    def test_uniform_third(self):
        g = distributional_gini(DistributionSpec.uniform(0.0, 1.0))
        assert g == pytest.approx(1 / 3, abs=1e-6)

    def test_exponential_half_rate_invariant(self):
        for rate in (1.0, 0.25, 3.7):
            g = distributional_gini(DistributionSpec.exponential(rate))
            assert g == pytest.approx(0.5, abs=1e-6)

    def test_uniform_shifted_support(self):
        # uniform on [1, 2]: Lorenz integral gives G = 1/9
        g = distributional_gini(DistributionSpec.uniform(1.0, 2.0))
        assert g == pytest.approx(1 / 9, abs=1e-6)

    @pytest.mark.parametrize(
        "dist, exact",
        [
            (DistributionSpec.uniform(0.0, 1.0), 1 / 3),
            (DistributionSpec.uniform(1.0, 2.0), 1 / 9),
            # uniform on [lo, hi]: G = (hi - lo) / (3 (hi + lo))
            (DistributionSpec.uniform(0.5, 3.0), 2.5 / (3 * 3.5)),
            (DistributionSpec.exponential(1.0), 0.5),
            (DistributionSpec.exponential(0.25), 0.5),
            (DistributionSpec.exponential(3.7), 0.5),
        ],
        ids=["uniform-0-1", "uniform-1-2", "uniform-0.5-3", "exp-1", "exp-0.25", "exp-3.7"],
    )
    def test_exact_at_default_tol(self, dist, exact):
        assert abs(distributional_gini(dist) - exact) <= 1e-12

    @pytest.mark.parametrize(
        "dist",
        [
            DistributionSpec.uniform(0.0, math.inf),
            DistributionSpec.exponential(5e-324),  # the quantile overflows
            DistributionSpec.exponential(math.inf),  # the quantile is all zero
        ],
        ids=["uniform-inf-hi", "exp-tiny-rate", "exp-inf-rate"],
    )
    def test_float64_range_is_degenerate(self, dist):
        with pytest.raises(DegenerateInput, match="float64 range"):
            distributional_gini(dist)

    def test_sample_out_of_float64_range_is_degenerate(self):
        # the integral is finite here, but the sample's l1 mass overflows
        dist = DistributionSpec.uniform(1e308, 1.7e308)
        assert abs(distributional_gini(dist) - 0.7 / 8.1) <= 1e-12
        with pytest.raises(DegenerateInput, match="float64 range"):
            sample_gini(dist, 1000)

    def test_discrete_rejected(self):
        with pytest.raises(InvalidParams):
            distributional_gini(DistributionSpec.poisson(5.0))
        with pytest.raises(InvalidParams):
            distributional_gini(DistributionSpec.bernoulli01(0.5))

    def test_sample_converges_at_sqrt_rate(self):
        g_inf = distributional_gini(DistributionSpec.exponential(1.0))
        for n in (1_000, 10_000, 100_000):
            err = abs(sample_gini(DistributionSpec.exponential(1.0), n, seed=4) - g_inf)
            assert err <= 2.0 / math.sqrt(n)


def test_runtime_needs_no_scipy(run_python):
    """The package imports no scipy, and the quadrature Gini runs with scipy
    made unimportable."""
    script = (
        "import sys\n"
        "import sparsemetrics\n"
        "from sparsemetrics.cli import parse_and_dispatch\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "if loaded:\n"
        "    sys.exit(f'scipy loaded: {loaded}')\n"
        "sys.modules['scipy'] = None\n"
        "sys.exit(parse_and_dispatch(['experiment', '--name', 'distributional-gini',\n"
        "                             '--dist', 'exponential', '--sample-n', '1000']))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "quadrature_gini" in proc.stdout


class TestConvergenceOrdering:
    def test_std_non_increasing_across_default_sizes(self):
        result = poisson_convergence(seed=0)
        for m in (Measure.GINI, Measure.HOYER, Measure.KAPPA4):
            s = result.std(m)
            inversions = int(np.sum(np.diff(s) > 0))
            assert inversions <= 1, (m, s.tolist())


#: sha256 of each study's raw arrays, concatenated in measure order, as
#: ``_one_at_a_time`` computes them too; any change to a stream, a draw, a
#: resample or a kernel bit changes them.
PINNED_STUDIES = {
    "poisson-default": (
        lambda: poisson_convergence(seed=0),
        "cef3035fa2feb8431e000d7025a0de685a01df352e2dcc1c7ba739bd9c927ddb",
    ),
    "bernoulli-default": (
        lambda: bernoulli_sweep(seed=0),
        "e29954d1c9723582e875ab07661a8aad7c1dfeba11ddd4d61d588c3984ff49a2",
    ),
    # 16 of the 100 draws are resampled, 23 times in all
    "bernoulli-n4": (
        lambda: bernoulli_sweep(grid=(0.5, 0.7), n=4, repeats=50, seed=4),
        "7b32885d55b1a1ec9c78d8080a3695e604f54a0f65f035df178e08af6c291696",
    ),
    # 34 of the 900 draws are resampled, 37 times in all
    "poisson-small": (
        lambda: poisson_convergence(lam=1, sizes=(3, 5, 8), repeats=300, seed=2),
        "caf428f45f49b4d3784d86cb0c5dd50854feaeb8c412ad11dd3386cc32867a02",
    ),
}


def _raw_digest(result) -> str:
    return hashlib.sha256(b"".join(result.raw[m].tobytes() for m in result.measures)).hexdigest()


@pytest.mark.parametrize("case", list(PINNED_STUDIES))
def test_pinned_study_bits(case):
    run, digest = PINNED_STUDIES[case]
    assert _raw_digest(run()) == digest


def _one_at_a_time(specs, points, repeats, seed):
    """The studies' reference: each draw alone, through the resample loop,
    as ``float.hex`` strings ``raw[m][i][r]``."""
    raw = {m: [[None] * repeats for _ in points] for m in specs}
    for i, (dist, n) in enumerate(points):
        for r in range(repeats):
            for attempt in range(MAX_RESAMPLES):
                vec = sample_vector(dist, n, stream((seed, i, r, attempt)))
                try:
                    values = {m: evaluate(spec, vec) for m, spec in specs.items()}
                    break
                except DegenerateInput:
                    continue
            else:
                raise DegenerateInput(
                    f"draw for {(seed, i, r)} stayed degenerate after {MAX_RESAMPLES} resamples"
                )
            for m, v in values.items():
                raw[m][i][r] = v.hex()
    return raw


def _hex(result):
    return {m: [[v.hex() for v in row.tolist()] for row in result.raw[m]] for m in result.measures}


# degenerate-heavy studies: 4-value 0/1 draws, and short Poisson(1) draws
STUDIES = {
    "bernoulli-n4": (
        lambda repeats: bernoulli_sweep(grid=(0.5, 0.7), n=4, repeats=repeats, seed=4),
        lambda: default_specs(epsilon=BERNOULLI_EPSILON),
        [(DistributionSpec.bernoulli01(0.5), 4), (DistributionSpec.bernoulli01(0.7), 4)],
        4,
    ),
    "poisson-small": (
        lambda repeats: poisson_convergence(lam=1, sizes=(3, 5, 8), repeats=repeats, seed=2),
        default_specs,
        [(DistributionSpec.poisson(1), n) for n in (3, 5, 8)],
        2,
    ),
}


def _expected(study, repeats):
    _, specs, points, seed = STUDIES[study]
    return _one_at_a_time(specs(), points, repeats, seed)


class TestStudyBlocks:
    """Drawing and evaluating the studies' draws in blocks of
    ``BLOCK_VALUES`` values changes no bit of any value."""

    # 28 values hold 7 draws of 4, 9 of 3, 5 of 5 and 3 of 8
    @pytest.mark.parametrize("block_values", [1, 7, 28, experiments.BLOCK_VALUES])
    @pytest.mark.parametrize("repeats", [2, 6, 7, 8, 14, 15, 50])
    @pytest.mark.parametrize("study", list(STUDIES))
    def test_blocks_match_one_draw_at_a_time(self, monkeypatch, study, repeats, block_values):
        monkeypatch.setattr(experiments, "BLOCK_VALUES", block_values)
        assert _hex(STUDIES[study][0](repeats)) == _expected(study, repeats)

    def test_a_degenerate_draw_mid_block_is_the_only_one_redrawn(self, monkeypatch, force_parts):
        run, specs, points, seed = STUDIES["bernoulli-n4"]
        force_parts(monkeypatch, 1)  # a child's calls would not be recorded
        keys = []
        real = experiments.raw_words
        monkeypatch.setattr(experiments, "raw_words", lambda k, *a: keys.extend(k) or real(k, *a))
        result = run(50)
        assert 50 * 4 <= experiments.BLOCK_VALUES  # each sweep point is one block

        def first_values(i, r):
            vec = sample_vector(points[i][0], 4, stream((seed, i, r, 0)))
            try:
                return {m: evaluate(spec, vec).hex() for m, spec in specs().items()}
            except DegenerateInput:
                return None

        first = [[first_values(i, r) for r in range(50)] for i in range(2)]
        redrawn = {key[1:3] for key in keys if key[3] > 0}
        assert redrawn == {(i, r) for i in range(2) for r in range(50) if first[i][r] is None}
        assert sorted(key[1:3] for key in keys if key[3] == 0) == [
            (i, r) for i in range(2) for r in range(50)
        ]
        got = _hex(result)
        i, r = next(
            (i, r) for i, r in sorted(redrawn)
            if 0 < r < 49 and {(i, r - 1), (i, r + 1)}.isdisjoint(redrawn)
        )
        expected = _expected("bernoulli-n4", 50)
        for m in result.measures:
            assert got[m][i][r] == expected[m][i][r]
            assert got[m][i][r - 1] == first[i][r - 1][m]
            assert got[m][i][r + 1] == first[i][r + 1][m]

    @pytest.mark.parametrize("fault", ["raises", "nan"])
    @pytest.mark.parametrize("study", list(STUDIES))
    def test_a_block_failing_for_one_measure_falls_back_per_row(
        self, monkeypatch, study, fault, force_parts
    ):
        # neg-log is defined on every draw, so each block reaches the fault,
        # and the block is split in halves down to the rows that pass alone
        real = MEASURES[Measure.NEG_LOG]
        blocks = []

        def kernel(spec, rows):
            values = real.kernel(spec, rows)
            if len(rows) > 1:
                blocks.append(len(rows))
                if fault == "raises":
                    raise FloatingPointError("overflow encountered in a block")
                values[len(rows) // 2] = math.nan
            return values

        monkeypatch.setitem(MEASURES, Measure.NEG_LOG, dataclasses.replace(real, kernel=kernel))
        force_parts(monkeypatch, 1)  # a child's calls would not be recorded
        assert _hex(STUDIES[study][0](50)) == _expected(study, 50)
        assert blocks

    @pytest.mark.parametrize("block_values", [1, 7, experiments.BLOCK_VALUES])
    def test_stayed_degenerate_names_the_reference_key(self, monkeypatch, block_values):
        monkeypatch.setattr(experiments, "BLOCK_VALUES", block_values)
        points = [(DistributionSpec.poisson(0.1), n) for n in (2, 3, 4)]
        with pytest.raises(DegenerateInput) as expected:
            _one_at_a_time(default_specs(), points, 50, 0)
        with pytest.raises(DegenerateInput) as got:
            poisson_convergence(lam=0.1, sizes=(2, 3, 4), repeats=50, seed=0)
        assert str(got.value) == str(expected.value)
        assert str(got.value) == "draw for (0, 0, 5) stayed degenerate after 20 resamples"


class TestStudyParts:
    """A study's blocks cut into forked parts: no value, digest or error
    message depends on the usable CPU count."""

    @pytest.mark.parametrize("block_values", [7, experiments.BLOCK_VALUES])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("study", list(STUDIES))
    def test_same_bits_at_any_cpu_count(self, monkeypatch, study, cpus, block_values, force_parts):
        monkeypatch.setattr(experiments, "BLOCK_VALUES", block_values)
        force_parts(monkeypatch, cpus)
        assert _hex(STUDIES[study][0](50)) == _expected(study, 50)

    def test_redraws_in_a_childs_part(self, monkeypatch, force_parts):
        # one block per point: at 2 parts the child draws point 1 (p = 0.7),
        # where 24% of the 4-value draws are all zero and are redrawn
        run = STUDIES["bernoulli-n4"][0]
        keys = []
        real = experiments.raw_words
        monkeypatch.setattr(experiments, "raw_words", lambda k, *a: keys.extend(k) or real(k, *a))
        force_parts(monkeypatch, 1)
        run(50)
        assert {key[1] for key in keys if key[3] > 0} == {0, 1}
        keys.clear()
        force_parts(monkeypatch, 2)
        assert _hex(run(50)) == _expected("bernoulli-n4", 50)
        assert {key[1] for key in keys} == {0}  # the parent drew point 0 alone

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("case", list(PINNED_STUDIES))
    def test_pinned_digests_at_any_cpu_count(self, monkeypatch, case, cpus, force_parts):
        force_parts(monkeypatch, cpus)
        run, digest = PINNED_STUDIES[case]
        assert _raw_digest(run()) == digest

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_failing_part_raises_its_message(self, monkeypatch, cpus, force_parts):
        # a 2-value draw at p = 0.999 is all zero 99.8% of the time, so
        # point 1's draws stay degenerate; in 10 blocks of 10 draws, 3 parts
        # put them in both children's parts
        monkeypatch.setattr(experiments, "BLOCK_VALUES", 20)
        force_parts(monkeypatch, cpus)
        with pytest.raises(DegenerateInput) as info:
            bernoulli_sweep(grid=(0.5, 0.999), n=2, repeats=50, seed=0)
        assert str(info.value) == "draw for (0, 1, 0) stayed degenerate after 20 resamples"


def test_poisson_table_built_once_and_read_only():
    table = experiments._poisson_cdf(5.0)
    assert experiments._poisson_cdf(5.0) is table
    assert not table.flags.writeable
