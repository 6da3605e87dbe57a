"""Unit tests for the criterion transformations and the trial generator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from sparsemetrics import transforms
from sparsemetrics.compliance import CATALOG_PAIRS
from sparsemetrics.transforms import (
    CRITERIA,
    N_MAX,
    N_MIN,
    P1_ALPHA_MULTIPLIERS,
    P1_BETA_SWEEP,
    PART_ENTRIES,
    POSITIVE_FLOOR,
    SLOTS,
    TICK,
    VALUE_TICKS,
    WORD_TRIALS,
    ZERO_PROB,
    CriterionTrial,
    _below,
    _min_gap,
    _trials,
    _uniform,
    draw_trial,
    draw_vector,
    raw_words,
    stream,
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

    @pytest.mark.parametrize(
        "i, j, bad", [(3, 0, "i"), (2, 3, "j"), (-1, 0, "i"), (2, -3, "j")],
        ids=["i-past-the-end", "j-past-the-end", "negative-i", "negative-j"],
    )
    def test_index_outside_the_vector_rejected(self, i, j, bad):
        # an index must name an entry: neither an IndexError nor a wrapped index
        message = rf"^robin hood requires 0 <= {bad} < N = 3, got i={i}, j={j}, alpha=0.1$"
        with pytest.raises(InvalidTransform, match=message):
            robin_hood(vec(1, 2, 5), i=i, j=j, alpha=0.1)


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

    @pytest.mark.parametrize("i", [3, -1, -3])
    def test_index_outside_the_vector_rejected(self, i):
        message = rf"^bill gates requires 0 <= i < N = 3, got i={i}, beta=1, alpha=1$"
        with pytest.raises(InvalidTransform, match=message):
            bill_gates(vec(1, 2, 5), i, 1, 1)

    def test_last_index_accepted(self):
        assert bill_gates(vec(1, 2, 5), 2, 1, 1).after.values.tolist() == [1, 2, 7]
        assert robin_hood(vec(1, 2, 5), 2, 0, 1.0).after.values.tolist() == [2, 2, 4]


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
        with pytest.raises(InvalidTransform, match="^babies requires k >= 1, got k=0$"):
            babies(vec(1, 2), 0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda c: scale(c, 10.0), "scaling leaves the float64 range, got alpha=10.0"),
        (lambda c: rising_tide(c, 1e308), "rising tide leaves the float64 range, got alpha=1e+308"),
        (
            lambda c: bill_gates(c, 0, 1.0, 1e308),
            "bill gates leaves the float64 range, got i=0, beta=1.0, alpha=1e+308",
        ),
    ],
    ids=["scale", "rising-tide", "bill-gates"],
)
def test_an_after_vector_past_the_float64_range_is_rejected(make, message):
    # finite input, an overflowing after vector: neither numpy's overflow
    # warning (an error under -W error) nor an InvalidParams about its values
    with pytest.raises(InvalidTransform) as info:
        make(vec(1e308, 2.0))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "params, message",
    [
        ({"i": 0, "beta": 1.0, "alpha": 1e308}, "leaves the float64 range, got i=0, beta=1.0, alpha=1e+308"),
        ({"i": 5, "beta": 1.0, "alpha": 1.0}, "requires 0 <= i < N = 2, got i=5, beta=1.0, alpha=1.0"),
        ({"i": -1, "beta": 1.0, "alpha": 1.0}, "requires 0 <= i < N = 2, got i=-1, beta=1.0, alpha=1.0"),
        ({"i": 0.0, "beta": 1.0, "alpha": 1.0}, "requires an integer i, got i=0.0, beta=1.0, alpha=1.0"),
    ],
    ids=["past-float64", "index-past-n", "negative-index", "float-index"],
)
def test_reapply_checks_a_bill_gates_trial_as_bill_gates_does(params, message):
    # a P1 trial's after vector is rebuilt by adding alpha to its before
    # vector, which already carries beta: the same checks and messages as
    # ``bill_gates``, not numpy's overflow warning or an IndexError
    before = vec(1e308, 2.0)
    with pytest.raises(InvalidTransform) as info:
        reapply(CriterionTrial(Criterion.P1, before, before, params))
    assert str(info.value) == f"bill gates {message}"
    with pytest.raises(InvalidTransform) as info:
        bill_gates(before, **params)
    assert str(info.value) == f"bill gates {message}"


class TestRoundTripAndConservation:
    @pytest.mark.parametrize("criterion, pair", [(Criterion.D1, "CE1"), (Criterion.P1, "CE5")])
    def test_reapply_on_a_catalog_pair_names_it(self, criterion, pair):
        # a catalog witness records its pair's name, not the transform's parameters
        trial = CATALOG_PAIRS[pair].as_trial(criterion)
        message = f"^catalog pair {pair} records no parameters$"
        with pytest.raises(InvalidTransform, match=message):
            reapply(trial)

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
        for before in _befores(_block_draws(Criterion.D1, ticks, (0, 0, 0), 0, 200)):
            assert np.all(before >= POSITIVE_FLOOR)

    def test_value_cap_mode(self):
        ticks = range(round(4.0 / TICK) + 1)
        for before in _befores(_block_draws(Criterion.D3, ticks, (0, 0, 0), 0, 200)):
            assert np.all(before <= 4.0)

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_preconditions_hold_on_10k_draws(self, criterion):
        # every draw meets every precondition of its constructor's program,
        # and every tenth, rebuilt through the public constructor, does not
        # raise and gives the same after vector; spot-check key properties
        block = _block_draws(criterion, VALUE_TICKS, (7, 0, 0), 0, 10_000)
        assert block.ok.all()
        for r in range(0, 10_000, 10):
            t = block.trial(criterion, r)
            assert reapply(t) == t.after
            if criterion is Criterion.D1:
                p, before = t.params, t.before.values
                assert 0 < p["alpha"] < (before[p["i"]] - before[p["j"]]) / 2
            elif criterion is Criterion.P2:
                assert t.before.values.any()


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
        v, n, entry = draw_vector(ticks, trial_words(3, 0, 200))
        assert v.dtype == np.int64 and v.shape == (200, N_MAX)
        assert (entry.sum(1) == n).all() and (v[~entry] == 0).all()
        assert ticks.start <= v[entry].min() and v[entry].max() < ticks.stop
        # zeroed with probability ZERO_PROB when 0 is in the range, else never
        assert (v[entry] == 0).any() == (ticks.start == 0)


def _drawn(criterion, seed):
    """``sample_trial``'s trials: draw 0 of ``draw_trial`` on the key ``(seed,)``."""
    return _trials(criterion, draw_trial(criterion, VALUE_TICKS, (seed,), 0, 1))


def _befores(block):
    return [block.rows[r, 0, : block.lengths[r, 0]] for r in range(len(block))]


class TestProbes:
    @pytest.mark.parametrize("criterion", [c for c in Criterion if c is not Criterion.P1])
    def test_one_group_of_the_drawn_trial(self, criterion):
        for seed in range(20):
            block = _drawn(criterion, seed)
            t = sample_trial(criterion, seed=seed)
            assert len(block) == 1 and block.later is None and block.rows.shape[1] == 2
            g = block.trial(criterion)
            assert (g.before, g.after, g.params) == (t.before, t.after, t.params)

    def test_sample_trial_picks_p1_alpha_from_a_word_the_draw_does_not_read(self):
        # the first word of draw 1, which no attempt at draw 0 reads
        picked = []
        for seed in range(30):
            word = trial_words((seed, 0), 1, 1)[:, 0]
            k = int(_below(word, len(P1_ALPHA_MULTIPLIERS))[0])
            want = _drawn(Criterion.P1, seed).trial(Criterion.P1, 0, k)
            assert sample_trial(Criterion.P1, seed=seed) == want, seed
            picked.append(k)
        assert set(picked) == {0, 1, 2}

    def test_bill_gates_groups_share_before_and_sweep_beta(self):
        for seed in range(20):
            first = _drawn(Criterion.P1, seed)
            ((_, later),) = first.later(np.array([0])).parts(Criterion.P1)  # one part
            groups = [[first.trial(Criterion.P1, 0, k) for k in range(3)]] + [
                [later.trial(Criterion.P1, g, k) for k in range(3)] for g in range(len(later))
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
    """``stream`` and ``raw_words`` derive exactly numpy's
    Generator(Philox(counter, key))."""

    @pytest.mark.parametrize("key", STREAM_KEYS, ids=str)
    def test_stream_matches_philox(self, key):
        _assert_same_stream(stream(key), key)

    @pytest.mark.parametrize("seed", [0, 5, 2**32, 2**64 + 3])
    def test_bare_int_and_one_tuple_agree(self, seed):
        _assert_same_stream(stream(seed), (seed,))
        _assert_same_stream(stream((seed,)), seed)

    def test_keys_of_different_word_counts_in_one_call(self):
        keys = [*STREAM_KEYS, (3,), (3, 1), (3, 1, 2), *[(1499, 3, 2, t) for t in range(64)]]
        words = raw_words(keys, 0, 64)
        assert words.shape == (len(keys), 64) and words.dtype == np.uint64
        for key, row in zip(keys, words, strict=True):
            assert row.tolist() == _reference(key).bit_generator.random_raw(64).tolist()

    @pytest.mark.parametrize("key", STREAM_KEYS, ids=str)
    def test_uniform_words_are_the_generators_random(self, key):
        want = stream(key).random(300)
        assert _uniform(raw_words([key], 0, 300)[0]).tobytes() == want.tobytes()
        words = raw_words([key], 0, 300)
        assert _uniform(words, words).tobytes() == want.tobytes()  # shifted in place

    def test_the_widest_key(self):
        key = (2**128 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1)
        _assert_same_stream(stream(key), key)
        _assert_same_stream(stream(2**128 - 1), 2**128 - 1)

    def test_the_counter_leaves_word_0_to_the_generator(self):
        # a stream's 2**64 blocks never reach the next key's counter words
        rng = stream((9, 1, 2, 3))
        rng.random(10)
        assert rng.bit_generator.state["state"]["counter"].tolist() == [3, 1, 2, 3]

    @pytest.mark.parametrize("key", [-4, (-4,), (-4, 0, 0, 0)])
    def test_negative_seed(self, key):
        with pytest.raises(InvalidParams, match=r"^seed must be non-negative, got -4$"):
            stream(key)
        with pytest.raises(InvalidParams, match=r"^seed must be non-negative, got -4$"):
            raw_words([0, key], 0, 4)

    @pytest.mark.parametrize("key", [2**128, (2**128,), (2**128, 0, 0, 0)])
    def test_seed_of_129_bits(self, key):
        message = rf"^seed must be below 2\*\*128, got {2**128}$"
        with pytest.raises(InvalidParams, match=message):
            stream(key)
        with pytest.raises(InvalidParams, match=message):
            raw_words([0, key], 0, 4)

    @pytest.mark.parametrize(
        "key",
        [(0, 1, 2, 3, 4), (0, 2**64), (0, 0, 0, 2**64), (0, -1), (0, 0, -1, 0), ()],
        ids=["fifth-int", "word-of-65-bits", "last-word-of-65-bits", "negative-entry",
             "negative-middle-entry", "empty"],
    )
    def test_a_bad_key_raises_before_any_stream(self, monkeypatch, key):
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: pytest.fail("read a word"))
        with pytest.raises(ValueError):
            raw_words([0, key], 0, 4)
        with pytest.raises(ValueError):
            trial_words(key, 0, 1)

    @pytest.mark.parametrize(
        "key, block_3, first",
        [
            (0, (0x928C664EB6C6719E, 0x4147C3EB85B567D7), 0x02F4BA6408E4D89B),
            ((7, 14, 5, 999), (0xF13E890BF75853C5, 0x138928B53C49BD90), 0x001D399047730FCE),
            (2**63, (0x147B9D8A855E807E, 0xFA0BB76EA0948912), 0xF0F36415F37C24E2),
            ((2**63 + 5, 3, 2, 1), (0xC0B7C8EC2180848C, 0xDD7C3938480CF731), 0x69D522ED23F4549C),
            ((2**64 + 3, 1), (0x873C82D29791A4F9, 0x6CF69177258C808C), 0xD3D85DE249DB4632),
            (
                (2**128 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1),
                (0xF42934672D2A2C23, 0xAEEAD193A960E4DE),
                0xE253DF8964E26D9C,
            ),
        ],
        ids=["seed-0", "tuple", "seed-2**63", "tuple-seed-2**63+5", "seed-2**64+3", "widest"],
    )
    def test_pinned_words(self, key, block_3, first):
        # the words of a handful of keys, seeds of 2**63 and more among them,
        # as read when each generator was first built from Philox(0)
        assert raw_words([key], 3, 2)[0].tolist() == list(block_3)
        bits = stream(key).bit_generator
        assert bits.random_raw() == first
        assert not isinstance(bits.seed_seq, np.random.SeedSequence)  # no hash on the way

    # seeds in [2**63, 2**64) and about half of those above were once read
    # as another key; a draw of the bit width first reaches every range
    @given(
        seed=st.integers(0, 128).flatmap(lambda bits: st.integers(0, 2**bits - 1)),
        counter=st.lists(st.integers(0, 2**64 - 1), max_size=3),
        start=st.integers(0, 1000),
        rows=st.integers(1, 3),
    )
    @example(seed=2**64 - 1, counter=[], start=0, rows=1)
    @example(seed=2**63, counter=[], start=0, rows=1)
    @example(seed=2**63 + 1, counter=[2**63], start=7, rows=2)
    @settings(max_examples=200, deadline=None)
    def test_trial_words_match_numpys_philox(self, seed, counter, start, rows):
        words = sum(n << 64 * k for k, n in enumerate(counter, 1))
        ref = np.random.Philox(counter=words, key=seed)
        ref.advance(start * SLOTS // 4)
        want = ref.random_raw((rows, SLOTS))
        assert trial_words((seed, *counter), start, rows).tolist() == want.tolist()


def _draw_keys(block):
    """Each draw of a ``TrialRows`` and its later groups as comparable bytes and params."""
    later = {}  # each later group's part and its index there
    sweep = block.later(np.arange(len(block))).parts(Criterion.P1) if block.later else ()
    for at, part in sweep:
        later.update((g, (part, r)) for r, g in enumerate(at.tolist()))
    groups = len(later) // len(block)

    def key(b, r):
        rows = [b.rows[r, j, : b.lengths[r, j]].tobytes() for j in range(b.rows.shape[1])]
        return rows, {name: p[r].tolist() for name, p in b.params.items()}

    return [
        [key(block, r)] + [key(*later[r * groups + g]) for g in range(groups)]
        for r in range(len(block))
    ]


def _block_draws(criterion, ticks, key, start, rows):
    """The trials ``draw_trial`` draws on draws start..start + rows - 1 of the
    streams of key + (attempt,), built all at once."""
    return _trials(criterion, draw_trial(criterion, ticks, key, start, rows))


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
        alone = [_draw_keys(_block_draws(criterion, ticks, self.KEY, t, 1))[0] for t in range(130)]
        for block in (1, 7, 37, 64):
            for start in (0, 3, 64):
                draws = _block_draws(criterion, ticks, self.KEY, start, min(block, 130 - start))
                assert _draw_keys(draws) == alone[start:start + len(draws)], block

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_parts_build_what_the_whole_block_builds(self, monkeypatch, criterion):
        # a block of 1000 draws read in word chunks of WORD_TRIALS (128)
        # draws is the block read in one chunk; built a part at a time, each
        # draw is in one part, each length's draws in the same part,
        # shortest first, each part's rows at most PART_ENTRIES entries
        # unless it holds one length, and each draw's trials are those of
        # the block built whole
        block = draw_trial(criterion, VALUE_TICKS, self.KEY, 0, 1000)
        assert WORD_TRIALS == 128 and block.v.dtype == np.int32 and len(block) == 1000
        monkeypatch.setattr(transforms, "WORD_TRIALS", 1000)
        whole = _block_draws(criterion, VALUE_TICKS, self.KEY, 0, 1000)
        assert _draw_keys(_trials(criterion, block)) == _draw_keys(whole)
        keys, seen, lengths = _draw_keys(whole), [], []
        for at, part in block.parts(criterion):
            n = block.n[at]
            assert part.rows.size <= PART_ENTRIES or (n == n[0]).all()
            assert _draw_keys(part) == [keys[r] for r in at.tolist()]
            seen += at.tolist()
            lengths.append(sorted(set(n.tolist())))
        assert sorted(seen) == list(range(1000)) and len(lengths) > 1
        assert all(a[-1] < b[0] for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("rows", [0, -1])
    def test_a_block_of_no_draws_is_invalid(self, rows):
        with pytest.raises(InvalidParams, match=f"^a block needs at least one draw, got rows={rows}$"):
            draw_trial(Criterion.D1, VALUE_TICKS, self.KEY, 0, rows)

    def test_draw_trial_and_draw_vector_are_one_row_of_the_generators_words(self):
        # draw 0's first attempt on the key (seed,) is the first SLOTS words of stream(seed)
        for seed in range(5):
            words = stream(seed).bit_generator.random_raw((1, SLOTS))
            for criterion in Criterion:
                assert CRITERIA[criterion].draw(VALUE_TICKS, words).eligible[0]  # at attempt 0
                want = _trials(criterion, CRITERIA[criterion].draw(VALUE_TICKS, words))
                got = _drawn(criterion, seed)
                assert _draw_keys(got) == _draw_keys(want), (criterion, seed)
                t = sample_trial(criterion, seed=seed)
                trials = [got.trial(criterion, 0, k) for k in range(got.rows.shape[1] - 1)]
                assert t in trials, (criterion, seed)
            # D4 leaves its drawn vector as the before vector
            block = draw_trial(Criterion.D4, VALUE_TICKS, (seed,), 0, 1)
            before = _befores(_trials(Criterion.D4, block))[0]
            v, n, _ = draw_vector(VALUE_TICKS, words)
            assert (v[0, : n[0]] * TICK).tobytes() == before.tobytes()

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
        block = _block_draws(criterion, ticks, (5, 0, 0), 0, self.TRIALS)
        assert block.ok.all()
        return block

    @staticmethod
    def _vectors(criterion, block):
        """The drawn vectors, in ticks: P1's before vector carries +beta at i."""
        out = [np.round(before / TICK).astype(np.int64) for before in _befores(block)]
        if criterion is Criterion.P1:
            for v, i, beta in zip(out, block.params["i"], block.params["beta"]):
                v[i] -= round(beta / TICK)
        return out

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_lengths_and_zero_share(self, criterion):
        vectors = self._vectors(criterion, self._draws(criterion, VALUE_TICKS))
        assert {v.size for v in vectors} == set(range(N_MIN, N_MAX + 1))
        entries = sum(v.size for v in vectors)
        share = sum(int((v == 0).sum()) for v in vectors) / entries
        assert abs(share - ZERO_PROB) < 4 * math.sqrt(ZERO_PROB * (1 - ZERO_PROB) / entries)
        assert max(int(v.max()) for v in vectors) < VALUE_TICKS.stop

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_a_strictly_positive_range_never_yields_0(self, criterion):
        ticks = trial_ticks(MeasureSpec(Measure.HG))
        for v in self._vectors(criterion, self._draws(criterion, ticks)):
            assert v.min() >= ticks.start and v.max() < ticks.stop

    def test_parameters_stay_in_their_ranges(self):
        block = self._draws(Criterion.D1, VALUE_TICKS)
        p = block.params
        for v, i, j, alpha in zip(self._vectors(Criterion.D1, block), p["i"], p["j"], p["alpha"]):
            gap = int(v[i] - v[j])
            assert gap >= _min_gap(int(v.max())) and 0 < alpha < gap * TICK / 2
        alphas = self._draws(Criterion.D2, VALUE_TICKS).params["alpha"]
        assert ((0.1 <= alphas) & (alphas <= 10) & (abs(alphas - 1) > 0.01)).all()
        assert (alphas < 1).mean() == pytest.approx(0.5, abs=0.03)  # log-uniform about 1
        for criterion, name, values in [(Criterion.D4, "m", {2, 3, 4}),
                                        (Criterion.P2, "k", {1, 2, 3})]:
            drawn = set(self._draws(criterion, VALUE_TICKS).params[name].tolist())
            assert drawn == values, criterion
        block = self._draws(Criterion.P1, VALUE_TICKS)
        picks = list(zip(block.params["i"].tolist(), block.lengths[:, 0].tolist()))
        assert all(0 <= i < n for i, n in picks)
        assert {0, 1} <= {n - 1 - i for i, n in picks}  # the last entries are picked too
