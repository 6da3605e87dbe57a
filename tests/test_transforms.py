"""Unit tests for the criterion transformations and the trial generator."""

import math

import numpy as np
import pytest

from sparsemetrics import (
    CoefficientVector,
    Criterion,
    InvalidParams,
    InvalidTransform,
    Measure,
    MeasureSpec,
    Relation,
    babies,
    bill_gates,
    clone,
    gini,
    reapply,
    rising_tide,
    robin_hood,
    sample_trial,
    scale,
    trial_ticks,
)
from sparsemetrics.transforms import (
    CRITERIA,
    N_MAX,
    N_MIN,
    P1_ALPHA_MULTIPLIERS,
    P1_BETA_SWEEP,
    POSITIVE_FLOOR,
    SLOTS,
    TICK,
    VALUE_TICKS,
    ZERO_PROB,
    _below,
    _min_gap,
    draw_trial,
    draw_vector,
    stream,
    streams,
    trial_words,
)


def vec(*xs):
    return CoefficientVector(list(xs))


class TestRobinHood:
    def test_table_pair(self):
        t = robin_hood(vec(0, 1, 3, 5), i=3, j=1, alpha=1.0)
        assert t.after.values.tolist() == [0, 2, 3, 4]
        assert t.expected_relation is Relation.AFTER_STRICTLY_LESS

    def test_small_transfer(self):
        t = robin_hood(vec(0.3, 1, 2), i=1, j=0, alpha=0.01)
        np.testing.assert_allclose(t.after.values, [0.31, 0.99, 2])

    def test_boundary_alpha_rejected(self):
        with pytest.raises(InvalidTransform):
            robin_hood(vec(0, 1, 3, 5), i=3, j=1, alpha=2.0)  # == (c_i-c_j)/2

    def test_wrong_order_rejected(self):
        with pytest.raises(InvalidTransform):
            robin_hood(vec(1, 5), i=0, j=1, alpha=0.5)


class TestScale:
    def test_table_pair(self):
        t = scale(vec(0, 1, 3, 5), 2.0)
        assert t.after.values.tolist() == [0, 2, 6, 10]
        assert t.expected_relation is Relation.EQUAL

    def test_single_element(self):
        assert scale(vec(7), 3.0).after.values.tolist() == [21]

    def test_zero_alpha_rejected(self):
        with pytest.raises(InvalidTransform):
            scale(vec(1, 2), 0.0)

    def test_trivial_alpha_rejected(self):
        with pytest.raises(InvalidTransform):
            scale(vec(1, 2), 1.0)


class TestRisingTide:
    def test_table_pair(self):
        t = rising_tide(vec(1, 3, 5), 0.5)
        assert t.after.values.tolist() == [1.5, 3.5, 5.5]
        assert t.expected_relation is Relation.AFTER_STRICTLY_LESS

    def test_constant_vector_rejected(self):
        with pytest.raises(InvalidTransform):
            rising_tide(vec(2, 2, 2), 1.0)

    def test_non_positive_alpha_rejected(self):
        with pytest.raises(InvalidTransform):
            rising_tide(vec(1, 2), 0.0)


class TestClone:
    def test_true_concatenation(self):
        t = clone(vec(0, 1, 3, 5), 2)
        assert sorted(t.after.values.tolist()) == [0, 0, 1, 1, 3, 3, 5, 5]
        assert len(t.after) == 8

    def test_three_copies_of_singleton(self):
        assert clone(vec(5), 3).after.values.tolist() == [5, 5, 5]

    def test_gini_invariant_under_cloning(self):
        t = clone(vec(1, 2), 2)
        assert gini(t.after) == pytest.approx(gini(t.before), abs=1e-15)

    def test_m_below_two_rejected(self):
        with pytest.raises(InvalidTransform):
            clone(vec(1, 2), 1)


class TestBillGates:
    def test_offsets(self):
        t = bill_gates(vec(1, 1), i=0, beta=10.0, alpha=1.0)
        assert t.before.values.tolist() == [11, 1]
        assert t.after.values.tolist() == [12, 1]
        assert t.expected_relation is Relation.AFTER_STRICTLY_GREATER

    def test_gini_increases(self):
        t = bill_gates(vec(1, 1), i=0, beta=10.0, alpha=1.0)
        assert gini(t.after) > gini(t.before)

    def test_non_positive_params_rejected(self):
        with pytest.raises(InvalidTransform):
            bill_gates(vec(1, 1), 0, beta=0.0, alpha=1.0)
        with pytest.raises(InvalidTransform):
            bill_gates(vec(1, 1), 0, beta=1.0, alpha=0.0)


class TestBabies:
    def test_appends_zeros(self):
        t = babies(vec(0, 1, 3, 5), k=2)
        assert sorted(t.after.values.tolist()) == [0, 0, 0, 1, 3, 5]

    def test_gini_single_coefficient(self):
        t = babies(vec(1), k=1)
        assert gini(t.before) == 0.0
        assert gini(t.after) == pytest.approx(0.5)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidTransform):
            babies(vec(0, 0), k=1)

    def test_no_zeros_rejected(self):
        with pytest.raises(InvalidTransform, match="integer k >= 1, got 0"):
            babies(vec(1, 2), 0)


class TestRoundTripAndConservation:
    def test_reapply_reproduces_after_bit_exactly(self):
        for crit in Criterion:
            for seed in range(200):
                t = sample_trial(crit, seed=seed)
                assert reapply(t) == t.after, (crit, seed)

    def test_robin_hood_conserves_l1_exactly(self):
        for seed in range(2000):
            t = sample_trial(Criterion.D1, seed=seed)
            assert math.fsum(t.before.values) == math.fsum(t.after.values)
            assert float(np.sum(t.before.values)) == float(np.sum(t.after.values))

    def test_babies_conserves_l1_exactly(self):
        for seed in range(500):
            t = sample_trial(Criterion.P2, seed=seed)
            assert float(np.sum(t.before.values)) == float(np.sum(t.after.values))

    def test_clone_multiplies_l1_exactly(self):
        for seed in range(500):
            t = sample_trial(Criterion.D4, seed=seed)
            m = t.params["m"]
            assert math.fsum(t.after.values) == m * math.fsum(t.before.values)


class TestSampler:
    def test_seeded_determinism(self):
        for crit in Criterion:
            a = sample_trial(crit, seed=42)
            b = sample_trial(crit, seed=42)
            assert a.before == b.before and a.after == b.after and a.params == b.params

    def test_rising_tide_never_constant(self):
        for seed in range(300):
            t = sample_trial(Criterion.D3, seed=seed)
            v = t.before.values
            assert v.max() > v.min()

    def test_scale_ratio_constant(self):
        for seed in range(100):
            t = sample_trial(Criterion.D2, seed=seed)
            nz = t.before.values > 0
            if nz.any():
                ratios = t.after.values[nz] / t.before.values[nz]
                np.testing.assert_allclose(ratios, t.params["alpha"], rtol=1e-12)

    def test_strictly_positive_mode(self):
        ticks = trial_ticks(MeasureSpec(Measure.HG))
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = draw_trial(Criterion.D1, ticks, rng)
            assert np.all(t.before >= POSITIVE_FLOOR)

    def test_value_cap_mode(self):
        ticks = range(round(4.0 / TICK) + 1)
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = draw_trial(Criterion.D3, ticks, rng)
            assert np.all(t.before <= 4.0)

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_preconditions_hold_on_10k_draws(self, criterion):
        # constructor validation would raise on any precondition breach, so
        # surviving construction is the assertion; spot-check key properties
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            t = draw_trial(criterion, VALUE_TICKS, rng)
            if criterion is Criterion.D1:
                p = t.params[0]
                gap = t.before[p["i"]] - t.before[p["j"]]
                assert 0 < p["alpha"] < gap / 2
            elif criterion is Criterion.P2:
                assert t.before.any()


# the default trial ticks, 0 through 10; hg and neg-lp-neg start at 0.01,
# neg-tanh stops at its cap 4^(1/b) / a
FULL, POSITIVE = range(0, 10485761), range(10486, 10485761)
TRIAL_TICKS = {
    **{m: FULL for m in Measure},
    Measure.HG: POSITIVE,
    Measure.NEG_LP_NEG: POSITIVE,
    Measure.NEG_TANH: range(0, 4194305),
}


class TestTrialTicks:
    @pytest.mark.parametrize("measure", list(Measure), ids=lambda m: m.value)
    def test_default_parameters(self, measure):
        assert trial_ticks(MeasureSpec(measure)) == TRIAL_TICKS[measure]

    def test_default_is_value_ticks(self):
        assert VALUE_TICKS == FULL == range(round(10 / TICK) + 1)
        assert POSITIVE.start == math.ceil(POSITIVE_FLOOR / TICK)

    @pytest.mark.parametrize(
        "params, ticks",
        # the cap rounds to no tick above 0; the cap overflows to inf
        [({"a": 1e9}, range(0, 1)), ({"b": 1e-300}, FULL)],
        ids=["a-1e9", "b-1e-300"],
    )
    def test_neg_tanh_cap(self, params, ticks):
        assert trial_ticks(MeasureSpec(Measure.NEG_TANH, **params)) == ticks

    @pytest.mark.parametrize("ticks", [FULL, POSITIVE, range(0, 4194305), range(0, 1)], ids=str)
    def test_draw_vector_ticks(self, ticks):
        rng = np.random.default_rng(3)
        zeros = 0
        for _ in range(200):
            v = draw_vector(ticks, rng)
            assert v.dtype == np.int64
            assert ticks.start <= v.min() and v.max() < ticks.stop
            zeros += int((v == 0).sum())
        # zeroed with probability ZERO_PROB when 0 is in the range, else never
        assert (zeros > 0) == (ticks.start == 0)


class TestProbes:
    @pytest.mark.parametrize("criterion", [c for c in Criterion if c is not Criterion.P1])
    def test_one_group_of_the_drawn_trial(self, criterion):
        for seed in range(20):
            first = draw_trial(criterion, VALUE_TICKS, stream(seed))
            groups = [first, *first.later]
            t = sample_trial(criterion, seed=seed)
            assert len(groups) == 1 and len(groups[0].afters) == 1
            g = groups[0].trial(criterion)
            assert (g.before, g.after, g.params) == (t.before, t.after, t.params)

    def test_bill_gates_groups_share_before_and_sweep_beta(self):
        for seed in range(20):
            first = draw_trial(Criterion.P1, VALUE_TICKS, stream(seed))
            groups = [
                [g.trial(Criterion.P1, k) for k in range(len(g.afters))]
                for g in (first, *first.later)
            ]
            assert len(groups) == 1 + len(P1_BETA_SWEEP)
            for k, group in enumerate(groups):
                assert len(group) == len(P1_ALPHA_MULTIPLIERS)
                first = group[0]
                assert all(t.before == first.before for t in group)
                assert len({t.params["beta"] for t in group}) == 1
                i, beta = first.params["i"], first.params["beta"]
                c = first.before.values.copy()
                c[i] -= beta
                l1 = float(c.sum())
                alphas = [t.params["alpha"] for t in group]
                assert alphas == [max(TICK, round(m * l1 / TICK) * TICK)
                                  for m in P1_ALPHA_MULTIPLIERS]
                if k == 0:  # the policy beta
                    assert beta == 10 * (l1 + c.max() - c[i])
                else:
                    assert beta == max(TICK, round(P1_BETA_SWEEP[k - 1] * l1 / TICK) * TICK)


def _reference(key):
    """numpy's own generator for ``key``: the seed is Philox's key, and the
    further ints are counter words 1-3."""
    seed, *rest = key if isinstance(key, tuple) else (key,)
    counter = sum(n << 64 * k for k, n in enumerate(rest, 1))
    return np.random.Generator(np.random.Philox(counter=counter, key=seed))


def _assert_same_stream(rng, key):
    ref = _reference(key)
    got, want = rng.bit_generator.state, ref.bit_generator.state
    assert got["bit_generator"] == want["bit_generator"] == "Philox"
    for word in ("counter", "key"):
        assert got["state"][word].tolist() == want["state"][word].tolist()
    assert got["buffer_pos"] == want["buffer_pos"]
    assert rng.random(64).tobytes() == ref.random(64).tobytes()
    assert rng.integers(0, 2**20, 64).tolist() == ref.integers(0, 2**20, 64).tolist()


# seeds on both sides of 2**32 and 2**64, and (seed, measure, criterion,
# trial) keys with trial indices up to 2**32 + 1
STREAM_KEYS = [
    0, 1, 2**32 - 1, 2**32, 2**64 + 3,
    (0, 0, 0, 0), (7, 14, 5, 999), (2**32 - 1, 3, 2, 2**32 - 1), (1, 3, 2, 2**32),
    (2**64 + 3, 3, 2, 2**32 + 1),
]


class TestStreams:
    """``streams`` derives exactly numpy's Generator(Philox(counter, key))."""

    @pytest.mark.parametrize("key", STREAM_KEYS, ids=str)
    def test_stream_matches_philox(self, key):
        _assert_same_stream(stream(key), key)

    @pytest.mark.parametrize("seed", [0, 5, 2**32, 2**64 + 3])
    def test_bare_int_and_one_tuple_agree(self, seed):
        _assert_same_stream(stream(seed), (seed,))
        _assert_same_stream(stream((seed,)), seed)

    def test_keys_of_different_word_counts_in_one_call(self):
        keys = [*STREAM_KEYS, (3,), (3, 1), (3, 1, 2), *[(1499, 3, 2, t) for t in range(64)]]
        for key, rng in zip(keys, streams(keys), strict=True):
            _assert_same_stream(rng, key)

    def test_the_widest_key(self):
        key = (2**128 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1)
        _assert_same_stream(stream(key), key)
        _assert_same_stream(stream(2**128 - 1), 2**128 - 1)

    def test_the_counter_leaves_word_0_to_the_generator(self):
        # a stream's 2**64 blocks never reach the next key's counter words
        rng = stream((9, 1, 2, 3))
        rng.random(10)
        assert rng.bit_generator.state["state"]["counter"].tolist() == [3, 1, 2, 3]

    def test_one_generator_reseeded_in_place(self):
        first, second = streams([1, 2])
        assert first is second

    @pytest.mark.parametrize("key", [-4, (-4,), (-4, 0, 0, 0)])
    def test_negative_seed(self, key):
        with pytest.raises(InvalidParams, match=r"^seed must be non-negative, got -4$"):
            stream(key)
        with pytest.raises(InvalidParams, match=r"^seed must be non-negative, got -4$"):
            streams([0, key])

    @pytest.mark.parametrize("key", [2**128, (2**128,), (2**128, 0, 0, 0)])
    def test_seed_of_129_bits(self, key):
        message = rf"^seed must be below 2\*\*128, got {2**128}$"
        with pytest.raises(InvalidParams, match=message):
            stream(key)
        with pytest.raises(InvalidParams, match=message):
            streams([0, key])

    @pytest.mark.parametrize(
        "key",
        [(0, 1, 2, 3, 4), (0, 2**64), (0, 0, 0, 2**64), (0, -1), (0, 0, -1, 0), ()],
        ids=["fifth-int", "word-of-65-bits", "last-word-of-65-bits", "negative-entry",
             "negative-middle-entry", "empty"],
    )
    def test_a_bad_key_raises_before_any_stream(self, key):
        taken = []
        with pytest.raises(ValueError):
            taken.extend(streams([0, key]))
        assert taken == []


def _group_key(group):
    """A ``TrialGroup`` and its later groups as comparable bytes and params."""
    return [
        (g.before.tobytes(), [a.tobytes() for a in g.afters], g.params)
        for g in (group, *group.later)
    ]


def _block_draws(criterion, ticks, key, start, rows):
    """``draw_trial`` on draws start..start + rows - 1 of the streams of key + (attempt,)."""
    return draw_trial(criterion, ticks, lambda a: trial_words((*key, a), start, rows), rows)


class TestCounterLayout:
    """A draw's words, and so its groups, are named by (key, attempt, trial):
    the block they are read in changes nothing."""

    KEY = (11, 2, 5)

    def test_words_are_the_streams_words_at_trial_times_slots(self):
        assert SLOTS % 4 == 0  # whole Philox blocks, so a draw starts at a counter
        words = trial_words((*self.KEY, 0), 0, 64)
        assert words.shape == (64, SLOTS) and words.dtype == np.uint64
        raw = stream((*self.KEY, 0)).bit_generator.random_raw(64 * SLOTS)
        assert words.ravel().tolist() == raw.tolist()
        for start, rows in [(37, 1), (37, 27), (1, 63), (63, 1)]:
            assert (trial_words((*self.KEY, 0), start, rows) == words[start:start + rows]).all()

    def test_attempts_take_disjoint_words(self):
        first = set(trial_words((*self.KEY, 0), 0, 64).ravel().tolist())
        second = set(trial_words((*self.KEY, 1), 0, 64).ravel().tolist())
        assert len(first) == len(second) == 64 * SLOTS and first.isdisjoint(second)

    @pytest.mark.parametrize("criterion", list(Criterion))
    @pytest.mark.parametrize("ticks", [VALUE_TICKS, range(0, 4)], ids=["value-ticks", "0-3"])
    def test_groups_do_not_depend_on_block_size_or_offset(self, criterion, ticks):
        # on ticks 0..3 a few D1 and D3 draws are ineligible and redrawn
        alone = [_group_key(_block_draws(criterion, ticks, self.KEY, t, 1)[0]) for t in range(130)]
        for block in (1, 7, 37, 64):
            for start in (0, 3, 64):
                draws = _block_draws(criterion, ticks, self.KEY, start, min(block, 130 - start))
                assert [_group_key(g) for g in draws] == alone[start:start + len(draws)], block

    def test_draw_trial_and_draw_vector_are_one_row_of_the_generators_words(self):
        for seed in range(5):
            words = stream(seed).bit_generator.random_raw((1, SLOTS))
            for criterion in Criterion:
                (group,) = CRITERIA[criterion].draw(VALUE_TICKS, words)
                assert group is not None  # eligible at the first attempt
                got = draw_trial(criterion, VALUE_TICKS, stream(seed))
                assert _group_key(got) == _group_key(group), (criterion, seed)
            # D4 leaves its drawn vector as the before vector
            (group,) = CRITERIA[Criterion.D4].draw(VALUE_TICKS, words)
            v = draw_vector(VALUE_TICKS, stream(seed))
            assert (v * TICK).tobytes() == group.before.tobytes()

    @pytest.mark.parametrize("size", [1, 3, 63, 2**20, 10485761, 2**31 + 5, 2**32])
    def test_below_is_exact(self, size):
        rng = np.random.Generator(np.random.Philox(key=size))
        words = np.concatenate([
            rng.bit_generator.random_raw(4096),
            np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
        ])
        got = _below(words, size)
        assert got.tolist() == [w * size >> 64 for w in words.tolist()]
        assert got.min() >= 0 and got.max() < size


class TestDrawDistribution:
    """10**4 block-drawn trials per criterion, so the search keeps its reach."""

    TRIALS = 10_000

    def _draws(self, criterion, ticks):
        draws = _block_draws(criterion, ticks, (5, 0, 0), 0, self.TRIALS)
        assert not any(isinstance(g, Exception) for g in draws)
        return draws

    @staticmethod
    def _vector(criterion, group):
        """The drawn vector, in ticks: P1's before vector carries +beta at i."""
        v = np.round(group.before / TICK).astype(np.int64)
        if criterion is Criterion.P1:
            p = group.params[0]
            v[p["i"]] -= round(p["beta"] / TICK)
        return v

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_lengths_and_zero_share(self, criterion):
        vectors = [self._vector(criterion, g) for g in self._draws(criterion, VALUE_TICKS)]
        assert {v.size for v in vectors} == set(range(N_MIN, N_MAX + 1))
        entries = sum(v.size for v in vectors)
        share = sum(int((v == 0).sum()) for v in vectors) / entries
        assert abs(share - ZERO_PROB) < 4 * math.sqrt(ZERO_PROB * (1 - ZERO_PROB) / entries)
        assert max(int(v.max()) for v in vectors) < VALUE_TICKS.stop

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_a_strictly_positive_range_never_yields_0(self, criterion):
        ticks = trial_ticks(MeasureSpec(Measure.HG))
        for g in self._draws(criterion, ticks):
            v = self._vector(criterion, g)
            assert v.min() >= ticks.start and v.max() < ticks.stop

    def test_parameters_stay_in_their_ranges(self):
        for g in self._draws(Criterion.D1, VALUE_TICKS):
            p, v = g.params[0], np.round(g.before / TICK).astype(np.int64)
            gap = int(v[p["i"]] - v[p["j"]])
            assert gap >= _min_gap(int(v.max())) and 0 < p["alpha"] < gap * TICK / 2
        alphas = np.array([g.params[0]["alpha"] for g in self._draws(Criterion.D2, VALUE_TICKS)])
        assert ((0.1 <= alphas) & (alphas <= 10) & (abs(alphas - 1) > 0.01)).all()
        assert (alphas < 1).mean() == pytest.approx(0.5, abs=0.03)  # log-uniform about 1
        for criterion, name, values in [(Criterion.D4, "m", {2, 3, 4}),
                                        (Criterion.P2, "k", {1, 2, 3})]:
            drawn = {g.params[0][name] for g in self._draws(criterion, VALUE_TICKS)}
            assert drawn == values, criterion
        picks = [(g.params[0]["i"], g.before.size) for g in self._draws(Criterion.P1, VALUE_TICKS)]
        assert all(0 <= i < n for i, n in picks)
        assert {0, 1} <= {n - 1 - i for i, n in picks}  # the last entries are picked too
