"""Unit tests for the compliance engine: relations, catalog, search, table."""

import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemetrics import (
    CATALOG_PAIRS,
    CRITERION_ORDER,
    DISPUTED_CELLS,
    EXPECTED_TRUE,
    KNOWN_DEAD_MAPPINGS,
    MEASURE_ORDER,
    MEASURES,
    TABLE4_WITNESSES,
    CoefficientVector,
    Criterion,
    Measure,
    MeasureSpec,
    catalog_verdict,
    check_cell,
    compliance_map,
    evaluate,
    full_table,
    relation_holds,
    run_counterexamples,
    theorem_consistency,
)
from sparsemetrics import compliance, transforms
from sparsemetrics.compliance import FAIL, HOLD, SKIP, _decide, _outcomes, _seeded
from sparsemetrics.errors import (
    CatalogMiss, DegenerateInput, GenerationFailure, InvalidParams, SparsemetricsError,
)
from sparsemetrics.transforms import (
    CRITERIA, MAX_RETRIES, TICK, VALUE_TICKS, CriterionTrial, TrialRows, draw_trial, trial_ticks,
    trial_words,
)


class TestRelationHolds:
    def test_equality_is_a_violation_of_strict_criteria(self):
        assert not relation_holds(Criterion.D1, 0.5, 0.5)
        assert not relation_holds(Criterion.P1, 1.0, 1.0)

    def test_equality_satisfies_equal_criteria(self):
        assert relation_holds(Criterion.D2, 0.657340, 0.657340)
        assert relation_holds(Criterion.D4, -9.0, -9.0)

    def test_strict_decrease(self):
        assert relation_holds(Criterion.D3, -6.25383, -7.9)
        assert not relation_holds(Criterion.D3, -7.9, -6.25383)

    def test_tolerance_scales_with_magnitude(self):
        # difference below 1e-9 * magnitude counts as equal
        assert relation_holds(Criterion.D2, 1e6, 1e6 + 1e-4)
        assert not relation_holds(Criterion.D2, 1e6, 1e6 + 1e-2)

    def test_tolerance_is_absolute_below_one(self):
        # below magnitude 1 the tolerance stays 1e-9
        assert relation_holds(Criterion.D2, 0.0, 9e-10)
        assert not relation_holds(Criterion.D2, 0.0, 1.1e-9)
        assert not relation_holds(Criterion.P1, 1e-3, 1e-3 + 9e-10)


class TestCatalog:
    def test_pairs_verbatim(self):
        assert CATALOG_PAIRS["CE1"].before == (0, 1, 3, 5)
        assert CATALOG_PAIRS["CE1"].after == (0, 2, 3, 4)
        assert CATALOG_PAIRS["CE6"].after == (0, 0, 0, 1, 3, 5)
        assert CATALOG_PAIRS["U1"].after == (1.1, 1.9, 4, 9)

    def test_missing_mapping_raises(self):
        with pytest.raises(CatalogMiss):
            catalog_verdict(MeasureSpec(Measure.GINI), Criterion.D1)

    def test_l0_d1_witness(self):
        v = catalog_verdict(MeasureSpec(Measure.L0), Criterion.D1)
        assert v.violated and v.value_before == 1.0 and v.value_after == 1.0

    def test_kappa4_d1_witness_values(self):
        v = catalog_verdict(MeasureSpec(Measure.KAPPA4), Criterion.D1)
        assert v.violated
        assert v.value_before == pytest.approx(0.65648, abs=1e-5)
        assert v.value_after == pytest.approx(0.65857, abs=1e-5)

    def test_hg_d2_witness_discriminates(self):
        v = catalog_verdict(MeasureSpec(Measure.HG), Criterion.D2)
        assert v.violated
        assert v.value_before != v.value_after

    def test_live_mappings_all_witness(self):
        for (measure, criterion), name in TABLE4_WITNESSES.items():
            if (measure, criterion) in KNOWN_DEAD_MAPPINGS:
                continue
            v = catalog_verdict(MeasureSpec(measure), criterion)
            assert v.violated, (measure, criterion, name)

    def test_dead_mappings_pinned(self):
        """The four documented non-discriminating pairs really do not witness."""
        for cell in KNOWN_DEAD_MAPPINGS:
            v = catalog_verdict(MeasureSpec(cell[0]), cell[1])
            assert not v.violated, cell
        # and the mechanisms are what the notes claim
        spec = MeasureSpec(Measure.L0_EPS)  # epsilon=1: counts go 2 -> 1
        v = catalog_verdict(spec, Criterion.D1)
        assert (v.value_before, v.value_after) == (2.0, 1.0)
        for m in (Measure.HG, Measure.HS_PRIME):
            v = catalog_verdict(MeasureSpec(m), Criterion.D4)
            assert v.value_before == v.value_after

    def test_run_counterexamples_covers_mapped_cells(self):
        verdicts = run_counterexamples(MeasureSpec(Measure.NEG_L1))
        cells = {(v.measure, v.criterion) for v in verdicts}
        assert cells == {
            (Measure.NEG_L1, c)
            for c in (Criterion.D1, Criterion.D2, Criterion.D4, Criterion.P1, Criterion.P2)
        }
        assert all(v.violated for v in verdicts)


class TestCheckCell:
    def test_gini_cloning_no_violation(self):
        v = check_cell(MeasureSpec(Measure.GINI), Criterion.D4, trials=300, seed=7)
        assert not v.violated
        assert v.trials == 300

    def test_hoyer_cloning_violated_with_witness(self):
        v = check_cell(MeasureSpec(Measure.HOYER), Criterion.D4, trials=200, seed=0)
        assert v.violated and v.witness is not None

    def test_u_theta_rising_tide_violated(self):
        v = check_cell(MeasureSpec(Measure.U_THETA), Criterion.D3, trials=100, seed=0)
        assert v.violated

    def test_witness_replay(self):
        v = check_cell(MeasureSpec(Measure.HOYER), Criterion.D4, trials=200, seed=3)
        assert v.violated
        spec = MeasureSpec(Measure.HOYER)
        vb = evaluate(spec, v.witness.before)
        va = evaluate(spec, v.witness.after)
        assert vb == v.value_before and va == v.value_after
        assert not relation_holds(v.criterion, vb, va)

    def test_determinism(self):
        a = check_cell(MeasureSpec(Measure.HS), Criterion.D1, trials=50, seed=9)
        b = check_cell(MeasureSpec(Measure.HS), Criterion.D1, trials=50, seed=9)
        assert a.trials == b.trials and a.violated == b.violated
        assert a.witness.before == b.witness.before

    def test_one_streams_call_per_block(self, monkeypatch):
        # one word block per block attempt, read WORD_TRIALS draws at a time:
        # draw 0's block of one, then the block of draws 1 to 999; a D4 draw
        # is never redrawn, so every word block is read from attempt 0's
        # stream (0, 14, 3, 0)
        calls = []
        real = transforms.trial_words
        monkeypatch.setattr(transforms, "trial_words", lambda *a: calls.append(a) or real(*a))
        v = check_cell(MeasureSpec(Measure.GINI), Criterion.D4, trials=1000, seed=0)
        assert not v.violated and v.trials == 1000
        W = transforms.WORD_TRIALS
        assert compliance.BLOCK_TRIALS % W == 0  # so no block ends a word block early
        assert len(calls) == 9 == 1 + -(-999 // W)
        assert calls == [
            ((0, 14, 3, 0), 0, 1), *(((0, 14, 3, 0), t, min(W, 1000 - t)) for t in range(1, 1000, W))
        ]

    @pytest.mark.parametrize("criterion", CRITERION_ORDER)
    def test_a_range_of_only_zero_is_invalid(self, monkeypatch, criterion):
        # neg-tanh's cap 4 / a rounds to no tick above 0: rejected before any draw
        monkeypatch.setattr(transforms, "trial_words", lambda *args: pytest.fail("drew"))
        spec = MeasureSpec(Measure.NEG_TANH, a=1e9)
        assert trial_ticks(spec) == range(1)
        error = r"^neg-tanh \(a=1e\+09\) draws every trial entry as 0$"
        with pytest.raises(InvalidParams, match=error):
            check_cell(spec, criterion, trials=200)

    def test_monotone_confidence(self):
        # NoViolationFound at T stays NoViolationFound at smaller T, same seed
        big = check_cell(MeasureSpec(Measure.GINI), Criterion.D1, trials=120, seed=5)
        small = check_cell(MeasureSpec(Measure.GINI), Criterion.D1, trials=40, seed=5)
        assert not big.violated and not small.violated


M, C = Measure, Criterion

# check_cell(trials=1000, seed=0) on every increase cell, including those the
# table resolves from the catalog: (measure, criterion, violated, trials,
# skipped, witness params)
PINNED_SEARCH = [
    (M.L0, C.P1, True, 1, 0, {'i': 2, 'beta': 1862.5307273864746, 'alpha': 0.17952919006347656}),
    (M.L0, C.P2, False, 1000, 0, None),
    (M.L0_EPS, C.P1, True, 1, 0, {'i': 2, 'beta': 995.9561157226562, 'alpha': 0.09959602355957031}),
    (M.L0_EPS, C.P2, False, 1000, 0, None),
    (M.NEG_L1, C.P1, True, 1, 0, {'i': 9, 'beta': 2196.797914505005, 'alpha': 0.21016407012939453}),
    (M.NEG_L1, C.P2, True, 1, 0, {'k': 2}),
    (M.NEG_LP, C.P1, True, 1, 0, {'i': 12, 'beta': 1056.2095642089844, 'alpha': 0.09683895111083984}),
    (M.NEG_LP, C.P2, True, 1, 0, {'k': 3}),
    (M.L2_OVER_L1, C.P1, False, 1000, 3, None),
    (M.L2_OVER_L1, C.P2, True, 1, 0, {'k': 2}),
    (M.NEG_TANH, C.P1, True, 1, 0, {'i': 27, 'beta': 558.2168865203857, 'alpha': 0.055665016174316406}),
    (M.NEG_TANH, C.P2, True, 1, 0, {'k': 3}),
    (M.NEG_LOG, C.P1, True, 1, 0, {'i': 35, 'beta': 1855.7882976531982, 'alpha': 0.18020343780517578}),
    (M.NEG_LOG, C.P2, True, 1, 0, {'k': 2}),
    (M.KAPPA4, C.P1, False, 1000, 1, None),
    (M.KAPPA4, C.P2, True, 1, 0, {'k': 1}),
    (M.U_THETA, C.P1, False, 1000, 19, None),
    (M.U_THETA, C.P2, True, 3, 0, {'k': 3}),
    (M.NEG_LP_NEG, C.P1, False, 1000, 0, None),
    (M.NEG_LP_NEG, C.P2, True, 1, 0, {'k': 1}),
    (M.HG, C.P1, True, 1, 0, {'i': 12, 'beta': 1014.6547603607178, 'alpha': 0.09895515441894531}),
    (M.HG, C.P2, True, 1, 0, {'k': 2}),
    (M.HS, C.P1, True, 1, 0, {'i': 11, 'beta': 1331.5648651123047, 'alpha': 0.1324462890625}),
    (M.HS, C.P2, True, 1, 0, {'k': 3}),
    (M.HS_PRIME, C.P1, True, 1, 0, {'i': 6, 'beta': 333.32286834716797, 'alpha': 0.030727386474609375}),
    (M.HS_PRIME, C.P2, True, 1, 0, {'k': 2}),
    (M.HOYER, C.P1, False, 1000, 3, None),
    (M.HOYER, C.P2, False, 1000, 10, None),
    (M.GINI, C.P1, False, 1000, 4, None),
    (M.GINI, C.P2, False, 1000, 0, None),
]


class TestSearchPinned:
    @pytest.mark.parametrize(
        "measure, criterion, violated, trials, skipped, params",
        PINNED_SEARCH,
        ids=[f"{m.value}-{c.value}" for m, c, *_ in PINNED_SEARCH],
    )
    def test_increase_cells(self, measure, criterion, violated, trials, skipped, params):
        v = check_cell(MeasureSpec(measure), criterion, trials=1000, seed=0)
        assert (v.violated, v.trials, v.skipped) == (violated, trials, skipped)
        assert (v.witness.params if v.witness else None) == params

    @pytest.mark.parametrize("measure", [m for m, c, violated, *_ in PINNED_SEARCH
                                         if c is C.P1 and violated])
    def test_p1_witness_is_the_policy_beta_at_the_smallest_alpha(self, measure):
        # the first group (policy beta) and its first alpha, 1e-3 * l1
        v = check_cell(MeasureSpec(measure), C.P1, trials=1000, seed=0)
        p = v.witness.params
        ticks = np.round(v.witness.before.values / TICK).astype(np.int64)
        beta_ticks = round(p["beta"] / TICK)
        ticks[p["i"]] -= beta_ticks
        l1 = int(ticks.sum())
        assert beta_ticks == 10 * (l1 + int(ticks.max()) - int(ticks[p["i"]]))
        assert p["alpha"] == max(1, round(1e-3 * l1)) * TICK

    def test_zero_trials_is_invalid(self):
        with pytest.raises(InvalidParams):
            check_cell(MeasureSpec(M.GINI), C.D1, trials=0)

    def test_negative_seed_is_invalid(self):
        with pytest.raises(InvalidParams, match="seed"):
            check_cell(MeasureSpec(M.GINI), C.D1, trials=10, seed=-1)


def _group(before, *afters):
    """One group of trials: ``before`` against each of ``afters``."""
    return [np.array(x, dtype=float) for x in (before, *afters)]


def _pack(groups):
    """Groups packed as built trials, a ``TrialRows``, one group per draw; a
    group with fewer after vectors repeats its last, which changes neither
    its state nor its first failure.  Trial k's params are {"k": k}."""
    K = max(len(g) for g in groups) - 1
    rows = np.zeros((len(groups), 1 + K, max(x.size for g in groups for x in g)))
    lengths = np.zeros((len(groups), 1 + K), dtype=np.int64)
    for r, g in enumerate(groups):
        for j, x in enumerate(g + g[-1:] * (1 + K - len(g))):
            rows[r, j, : x.size], lengths[r, j] = x, x.size
    k = np.tile(np.arange(K), (len(groups), 1))
    return TrialRows(rows, lengths, {"k": k}, np.ones(len(groups), bool))


def _draw(first, *later):
    """A draw: the group ``first``, then the groups ``later``."""
    return [first, *later]


def _packed(draws):
    """Hand-built draws as one ``TrialRows``: each a group, a ``_draw``, or a
    ``GenerationFailure`` for a draw that was never eligible.  A draw's later
    groups are padded to the block's most by repeating its first group,
    which failed, as a draw's later groups are only built when it does."""
    ok = np.array([not isinstance(d, GenerationFailure) for d in draws])
    draws = [d if isinstance(d, list) and isinstance(d[0], list) else [d] for d in draws]
    draws = [d if good else [HOLDS] for d, good in zip(draws, ok)]
    g = max(len(d) for d in draws) - 1
    later = lambda picks: _pack([x for r in picks for x in (draws[r][1:] + draws[r][:1] * g)[:g]])  # noqa: E731
    return replace(_pack([d[0] for d in draws]), ok=ok, later=later if g else None)


def _blocks(draws, size=None):
    """Hand-built draws packed in order into blocks of ``size`` (one block by default)."""
    size = size or len(draws)
    return [_packed(draws[t : t + size]) for t in range(0, len(draws), size)]


def _trial(group, criterion, k=0):
    """The witness a group's trial k makes."""
    before, after = CoefficientVector(group[0]), CoefficientVector(group[1 + k])
    return CriterionTrial(criterion, before, after, {"k": k})


# gini under scaling (D2): [1, 2] -> [2, 4] holds, -> [1, 3] fails, and the
# all-zero after vector is degenerate
HOLDS = _group([1, 2], [2, 4])
FAILS = _group([1, 2], [1, 3])
DEGENERATE = _group([1, 2], [0, 0])


class TestGroupRule:
    GINI = MeasureSpec(M.GINI)

    def test_group_outcome(self):
        groups = [
            _group([1, 2], [2, 4], [2, 4]),
            _group([1, 2], [2, 4], [1, 3], [1, 3]),
            _group([1, 2], [1, 3], [0, 0]),
        ]
        state, k, errors = _outcomes(self.GINI, C.D2, _pack(groups))
        # a degenerate value anywhere in the group skips it, even after a failure
        assert state.tolist() == [HOLD, FAIL, SKIP] and errors == {2: errors[2]}
        assert isinstance(errors[2], DegenerateInput)
        assert k[1] == 1
        # the failing draw's witness is its trial k, with evaluate's values
        v = _decide(self.GINI, C.D2, [_pack(groups[1:2])])
        assert v.witness == _trial(groups[1], C.D2, 1)
        assert (v.value_before, v.value_after) == (1 / 6, 0.25)

    def test_saturated_start_skips_only_increase_criteria(self):
        hoyer = MeasureSpec(M.HOYER)  # one-hot: hoyer is at its maximum, 1
        assert _outcomes(hoyer, C.P2, _pack([_group([0, 1], [0, 1, 0])]))[0].tolist() == [SKIP]
        assert _outcomes(hoyer, C.D2, _pack([_group([0, 1], [0, 2])]))[0].tolist() == [HOLD]

    @pytest.mark.parametrize(
        "groups, violated, skipped",
        [
            ([FAILS], True, 0),
            ([FAILS, FAILS, HOLDS], False, 0),  # some later group holds
            ([FAILS, DEGENERATE], True, 0),  # a later skip counts as failing
            ([DEGENERATE, HOLDS], False, 2),  # the first group decides a skip
        ],
    )
    def test_draw_verdict(self, monkeypatch, groups, violated, skipped):
        draw = _draw(*groups)
        monkeypatch.setattr(compliance, "_seeded", lambda *args: [_packed([draw] * 2)])
        v = check_cell(self.GINI, C.D2, trials=2, seed=0)
        assert (v.violated, v.skipped) == (violated, skipped)
        if violated:
            assert v.trials == 1 and v.witness == _trial(FAILS, C.D2)

    def test_later_groups_take_one_evaluation(self, monkeypatch):
        # the first group fails, so both later groups are evaluated, in one
        # call: the first of them fails and the second holds
        monkeypatch.setattr(
            compliance, "draw_trial", lambda *args: _packed([_draw(FAILS, FAILS, HOLDS)])
        )
        real, calls = compliance.evaluate_block, []

        def evaluate_block(spec, rows):
            calls.append(len(rows))
            return real(spec, rows)

        monkeypatch.setattr(compliance, "evaluate_block", evaluate_block)
        v = check_cell(self.GINI, C.D2, trials=1, seed=0)
        assert (v.violated, v.skipped) == (False, 0)
        assert calls == [2, 4]  # rows per call: the first group's, then both later ones'


class TestDecide:
    """``_decide`` on hand-built sources: draws packed into blocks, maybe
    ended by a draw that was never eligible."""

    GINI = MeasureSpec(M.GINI)

    # the five search witnesses of the seed-0 table, at their shortest: two
    # entries on the grid {0, 1/4, ..., 4} (Robin Hood on a 1/8 grid), as an
    # exhaustive search over sorted vectors of length <= 4 finds them:
    # (measure, criterion, before, after)
    MINIMAL_WITNESSES = [
        (M.L0_EPS, C.D1, [0, 0.5], [0.125, 0.375]),
        (M.L0_EPS, C.D3, [0, 0.25], [0.25, 0.5]),
        (M.U_THETA, C.D3, [0, 0.25], [0.25, 0.5]),
        (M.HG, C.D4, [0, 0.25], [0, 0.25, 0, 0.25]),
        (M.HS_PRIME, C.D4, [0, 0.25], [0, 0.25, 0, 0.25]),
    ]

    @pytest.mark.parametrize(
        "measure, criterion, before, after",
        MINIMAL_WITNESSES,
        ids=[f"{m.value}-{c.value}" for m, c, *_ in MINIMAL_WITNESSES],
    )
    def test_minimal_witnesses(self, measure, criterion, before, after):
        group = _group(before, after)
        v = _decide(MeasureSpec(measure), criterion, _blocks([group]))
        assert (v.violated, v.trials, v.skipped, v.source) == (True, 1, 0, "search")
        assert v.witness == _trial(group, criterion)
        assert not relation_holds(criterion, v.value_before, v.value_after)

    @pytest.mark.parametrize("block", [1, 64])
    def test_an_error_after_the_witness_does_not_surface(self, block):
        v = _decide(self.GINI, C.D2, _blocks([HOLDS, FAILS, GenerationFailure("after")], block))
        assert (v.violated, v.trials, v.skipped) == (True, 2, 0)
        assert v.witness == _trial(FAILS, C.D2)

    @pytest.mark.parametrize("block", [1, 64])
    @pytest.mark.parametrize("held", [0, 2])
    def test_an_error_before_any_witness_surfaces(self, block, held):
        with pytest.raises(GenerationFailure, match="^could not draw an eligible D2 trial"):
            _decide(self.GINI, C.D2, _blocks([HOLDS] * held + [GenerationFailure("x")], block))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_matter(self, block):
        # draws 11-13 hold through a later group; draw 15 fails, its later group skipping
        draws = [DEGENERATE, HOLDS] * 5 + [_draw(FAILS, FAILS, HOLDS)] * 3 + [DEGENERATE]
        v = _decide(self.GINI, C.D2, _blocks([*draws, _draw(FAILS, DEGENERATE), HOLDS], block))
        assert (v.violated, v.trials, v.skipped) == (True, 15, 6)
        assert v.witness == _trial(FAILS, C.D2)
        v = _decide(self.GINI, C.D2, iter(_blocks([*draws, HOLDS], block)))  # any iterable
        assert (v.violated, v.trials, v.skipped, v.witness) == (False, 15, 6, None)

    def test_p1_later_groups_that_hold_leave_no_witness(self):
        # gini under Bill Gates: [1, 2] -> [1, 2] is no increase, -> [1, 5] is one
        first, later = _group([1, 2], [1, 2]), _group([1, 2], [1, 2], [1, 5])
        assert _decide(self.GINI, C.P1, _blocks([first])).violated
        assert _decide(self.GINI, C.P1, _blocks([_draw(first, later)])).violated  # [1, 2] again
        v = _decide(self.GINI, C.P1, _blocks([_draw(first, later, _group([1, 2], [1, 5]))]))
        assert (v.violated, v.trials, v.skipped) == (False, 1, 0)


class TestConventionFindings:
    """Verdicts that rest on a convention of the engine (its trial range, its
    tolerance, its catalog), not of the measure alone; the table is the same
    either way."""

    HG = MeasureSpec(M.HG)

    @pytest.mark.parametrize(
        "criterion, before, after, values",
        [
            (C.D1, [0, 0.5], [0.125, 0.375], (1.386, 6.121)),
            (C.D3, [0, 0.25], [0.25, 0.5], (2.773, 4.159)),
        ],
    )
    def test_hg_d1_d3_rest_on_a_range_without_zero(self, criterion, before, after, values):
        # hg leaves zeros out of its sum, so a zero that turns positive adds a
        # term: where 0 is a trial entry, both criteria fail
        v = _decide(self.HG, criterion, _blocks([_group(before, after)]))
        assert (v.violated, v.trials) == (True, 1)
        assert (v.value_before, v.value_after) == pytest.approx(values, abs=1e-3)
        # the table's trials start at the floor 0.01 instead, and find nothing
        assert trial_ticks(self.HG) == range(10486, 10485761)
        assert not check_cell(self.HG, criterion, trials=100, seed=0).violated

    def test_neg_tanh_d1_rests_on_its_value_cap(self):
        # past the cap, tanh is flat: a Robin Hood transfer lowers neg-tanh,
        # the required direction, but by 1.31e-9, under the 2e-9 tolerance,
        # so it counts as a violation (a tolerance artefact)
        spec = MeasureSpec(M.NEG_TANH)
        v = _decide(spec, C.D1, _blocks([_group([9.5, 10], [9.625, 9.875])]))
        assert (v.violated, v.trials) == (True, 1)
        assert (v.value_before, v.value_after) == (-1.9999999846720997, -1.9999999859799282)
        assert 1.3e-9 < v.value_before - v.value_after < 2e-9
        # the table's trials stop at the cap 4^(1/b) / a = 4 instead
        assert trial_ticks(spec) == range(4 * 2**20 + 1)

    def test_neg_tanh_d1_at_the_small_end(self):
        # near 0 tanh is almost linear, so a Robin Hood transfer between two
        # tiny entries lowers neg-tanh, the required direction, but by
        # 2.42e-11, under the tolerance's floor of 1e-9, so it counts as a
        # violation (a tolerance artefact, erratum 9); the table's 1000
        # trials stop long before trial 10,334
        spec = MeasureSpec(M.NEG_TANH)
        v = check_cell(spec, C.D1, trials=10_400, seed=0)
        assert (v.violated, v.trials, v.skipped) == (True, 10_334, 0)
        assert v.witness.before.values.tolist() == [0.000476837158203125, 0]
        assert v.witness.after.values.tolist() == [0.000316619873046875, 0.00016021728515625]
        assert 2.41e-11 < v.value_before - v.value_after < 2.42e-11
        assert not relation_holds(C.D1, v.value_before, v.value_after)
        assert not check_cell(spec, C.D1, trials=10_333, seed=0).violated

    @pytest.mark.parametrize(
        "m, criterion, found",
        [
            (M.NEG_TANH, C.D1, (True, 2, 0, -16.03428786735461, -16.034287872888985)),
            (M.NEG_TANH, C.D3, (False, 1000, 0, None, None)),
            (M.NEG_LP_NEG, C.P1, (False, 1000, 0, None, None)),
        ],
    )
    def test_search_on_the_uncapped_value_range(self, m, criterion, found):
        # check_cell's seeded draws at seed 0, from VALUE_TICKS (0 through 10)
        # instead of the measure's trial_ticks: only (neg-tanh, D1) breaks
        spec = MeasureSpec(m)
        key = (0, MEASURE_ORDER.index(m), CRITERION_ORDER.index(criterion))
        v = _decide(spec, criterion, _seeded(criterion, VALUE_TICKS, key, 1000))
        assert (v.violated, v.trials, v.skipped, v.value_before, v.value_after) == found

    def test_u2_is_a_tie_at_the_maximum(self):
        # the catalog decides U2 by relation_holds alone: no increase, so a
        # violation; the search rule skips a start already at the maximum
        spec, pair = MeasureSpec(M.U_THETA), CATALOG_PAIRS["U2"]
        catalog = catalog_verdict(spec, C.P2)
        assert catalog.violated and catalog.witness.params == {"catalog": "U2"}
        assert (catalog.value_before, catalog.value_after) == (1.0, 1.0)
        v = _decide(spec, C.P2, _blocks([_group(pair.before, pair.after)]))
        assert (v.violated, v.trials, v.skipped) == (False, 1, 1)

    @pytest.mark.parametrize("seed, trial, skipped", [(0, 3, 0), (7, 2, 0), (201, 4, 0)])
    def test_u_theta_p2_search_finds_unsaturated_witnesses(self, seed, trial, skipped):
        spec = MeasureSpec(M.U_THETA)
        v = check_cell(spec, C.P2, trials=1000, seed=seed)
        assert (v.violated, v.trials, v.skipped) == (True, trial, skipped)
        headroom = MEASURES[M.U_THETA].maximum(len(v.witness.after)) - v.value_before
        assert headroom > compliance.SATURATION_MARGIN


class TestSearchAlone:
    """Search alone, without the catalog, finds a violation in every
    expected-false, non-disputed cell at 1000 trials, but for hs/D2, which
    no scaling pair violates (an erratum), and hs-prime/D3 at seed 201.
    hs-prime/D3 is search's thinnest cell: its first witness comes at trial
    343, 694 and 1234 at seeds 0, 7 and 201, and every other cell's by
    trial 98."""

    CELLS = [(m, c) for m in MEASURE_ORDER for c in CRITERION_ORDER
             if c not in EXPECTED_TRUE[m] and (m, c) not in DISPUTED_CELLS]

    @pytest.mark.parametrize(
        "seed, missed",
        [(0, [(M.HS, C.D2)]), (7, [(M.HS, C.D2)]), (201, [(M.HS_PRIME, C.D3), (M.HS, C.D2)])],
    )
    def test_every_expected_false_cell_falls_to_search(self, seed, missed):
        assert len(self.CELLS) == 57
        found = {cell: check_cell(MeasureSpec(cell[0]), cell[1], 1000, seed) for cell in self.CELLS}
        assert sorted(cell for cell, v in found.items() if not v.violated) == sorted(missed)
        late = {cell for cell, v in found.items() if v.violated and v.trials > 98}
        assert late == ({(M.HS_PRIME, C.D3)} if seed != 201 else set())

    @pytest.mark.parametrize("seed, trial", [(0, 343), (7, 694), (201, 1234)])
    def test_hs_prime_d3_is_the_thinnest_cell(self, seed, trial):
        v = check_cell(MeasureSpec(M.HS_PRIME), C.D3, trials=2000, seed=seed)
        assert (v.violated, v.trials) == (True, trial)


# check_cell(trials=1000, seed=0) witnesses found by search: (measure,
# criterion, trial); the table's five search witnesses come first, then six
# cells the table resolves from its catalog
SEARCH_WITNESSES = [
    (M.L0_EPS, C.D1, 1),
    (M.L0_EPS, C.D3, 35),
    (M.U_THETA, C.D3, 1),
    (M.HG, C.D4, 1),
    (M.HS_PRIME, C.D4, 1),
    (M.L0, C.D1, 4),
    (M.NEG_LOG, C.D1, 18),
    (M.KAPPA4, C.D1, 13),
    (M.U_THETA, C.P2, 3),
    (M.L0, C.D3, 36),
    (M.HS_PRIME, C.D3, 343),
]
# two of them after trial 1, one in the first block and one in a later one
LATE_WITNESSES = [(M.L0_EPS, C.D3, 35), (M.HS_PRIME, C.D3, 343)]


def _found(v):
    w = v.witness
    return (v.violated, v.trials, v.skipped, w.before, w.after, w.params,
            v.value_before.hex(), v.value_after.hex())


def _sequential_skips(spec, criterion, trials, seed=0):
    """Skip flags of a strict-increase criterion's first ``trials`` draws, one
    draw at a time, each drawn as a block of one and decided through
    ``evaluate``: a degenerate value in the first
    group, or a start within the saturation margin of the maximum."""
    assert criterion in (C.P1, C.P2)
    d = MEASURES[spec.id]
    ticks = trial_ticks(spec)
    key = (seed, MEASURE_ORDER.index(spec.id), CRITERION_ORDER.index(criterion))
    flags = []
    for t in range(trials):
        block = draw_trial(criterion, ticks, key, t, 1)
        ((_, rows),) = block.parts(criterion)
        trials_ = [rows.trial(criterion, 0, k) for k in range(rows.rows.shape[1] - 1)]
        try:
            vb = evaluate(spec, trials_[0].before)
            n = len(trials_[0].after)
            if d.maximum is not None and d.maximum(n) - vb <= compliance.SATURATION_MARGIN:
                flags.append(True)
                continue
            for trial in trials_:
                evaluate(spec, trial.after)
            flags.append(False)
        except DegenerateInput:
            flags.append(True)
    return flags


@pytest.fixture
def draws_fail_from(monkeypatch):
    """``install(k)``: no draw from trial index k on is ever eligible."""

    def install(k):
        real, drawn = compliance.draw_trial, [0]

        def draw_trial(*args):
            block, start = real(*args), drawn[0]
            drawn[0] += len(block)
            return replace(block, eligible=block.eligible & (start + np.arange(len(block)) < k))

        monkeypatch.setattr(compliance, "draw_trial", draw_trial)

    return install


class TestBlockBoundaries:
    """Drawing and evaluating trials in blocks of ``BLOCK_TRIALS`` never
    changes a verdict, a witness or a skip count."""

    B = compliance.BLOCK_TRIALS
    GINI = MeasureSpec(M.GINI)

    @pytest.mark.parametrize("measure, criterion, t", SEARCH_WITNESSES)
    def test_no_violation_before_the_witness(self, measure, criterion, t):
        spec = MeasureSpec(measure)
        found = check_cell(spec, criterion, trials=1000, seed=0)
        assert (found.violated, found.trials) == (True, t)
        if t > 1:
            v = check_cell(spec, criterion, trials=t - 1, seed=0)
            assert (v.violated, v.trials, v.skipped) == (False, t - 1, found.skipped)

    @pytest.mark.parametrize("measure, criterion, t", SEARCH_WITNESSES)
    def test_same_witness_for_more_trials(self, measure, criterion, t):
        spec = MeasureSpec(measure)
        found = _found(check_cell(spec, criterion, trials=1000, seed=0))
        counts = {t, t + 1, self.B - 1, self.B, self.B + 1, 2 * self.B + 1, 9 * self.B}
        for trials in sorted(n for n in counts if n >= t):
            assert _found(check_cell(spec, criterion, trials=trials, seed=0)) == found, trials

    # (l0-eps, D3)'s witness at 35 ends a block of 35 and starts the second
    # of 34, (l0, D3)'s at 36 ends one of 36 and starts the second of 35,
    # and (hs-prime, D3)'s at 343 = 49 * 7 ends a block of 7; 191-193 were
    # the block size and its neighbours, and the last three are
    # BLOCK_TRIALS and its neighbours
    @pytest.mark.parametrize(
        "block", [1, 2, 7, 34, 35, 36, 37, 55, 56, 191, 192, 193, B - 1, B, B + 1]
    )
    def test_block_size_does_not_matter(self, monkeypatch, block):
        expected = {
            (m, c): _found(check_cell(MeasureSpec(m), c, trials=900, seed=0))
            for m, c, _ in SEARCH_WITNESSES
        }
        monkeypatch.setattr(compliance, "BLOCK_TRIALS", block)
        for (m, c), found in expected.items():
            assert _found(check_cell(MeasureSpec(m), c, trials=900, seed=0)) == found, (m, c)

    # draw_trial reads a block's words WORD_TRIALS draws at a time, and its trials
    # built in parts of about PART_ENTRIES entries: one draw at a time, one
    # length at a time, the whole block in one part, and the defaults
    @pytest.mark.parametrize(
        "words, entries", [(1, 1), (7, 64), (64, 10**6), (1000, 2048), (128, 16384)]
    )
    def test_word_and_part_sizes_do_not_matter(self, monkeypatch, words, entries):
        expected = {
            (m, c): _found(check_cell(MeasureSpec(m), c, trials=900, seed=0))
            for m, c, _ in SEARCH_WITNESSES
        }
        monkeypatch.setattr(transforms, "WORD_TRIALS", words)
        monkeypatch.setattr(transforms, "PART_ENTRIES", entries)
        for (m, c), found in expected.items():
            assert _found(check_cell(MeasureSpec(m), c, trials=900, seed=0)) == found, (m, c)
        for m, c, *pinned in PINNED_SEARCH[::3]:  # increase cells, P1's later groups too
            v = check_cell(MeasureSpec(m), c, trials=1000, seed=0)
            params = v.witness.params if v.witness else None
            assert [v.violated, v.trials, v.skipped, params] == pinned, (m, c)

    def test_a_degenerate_row_leaves_its_block_exact(self, monkeypatch):
        # the first draw's all-zero after vector is outside gini's domain in
        # a block of both draws' rows (all of length 2): the first draw
        # skips, the second still fails
        draws = _packed([DEGENERATE, FAILS])
        monkeypatch.setattr(compliance, "draw_trial", lambda *args: draws)
        v = check_cell(MeasureSpec(M.GINI), C.D2, trials=2, seed=0)
        assert (v.violated, v.trials, v.skipped) == (True, 2, 1)
        assert v.witness == _trial(FAILS, C.D2)

    def test_a_bad_row_after_the_witness_does_not_surface(self, monkeypatch):
        # the second draw's after vector is not finite, and its block is
        # evaluated together; decided in trial order, the first draw's
        # witness ends the search before that row's error is reached
        draws = _packed([FAILS, _group([1, 2], [1, np.inf])])
        monkeypatch.setattr(compliance, "draw_trial", lambda *args: draws)
        v = check_cell(MeasureSpec(M.GINI), C.D2, trials=2, seed=0)
        assert (v.violated, v.trials, v.skipped) == (True, 1, 0)
        assert v.witness == _trial(FAILS, C.D2)

    def test_a_bad_row_with_no_earlier_witness_surfaces(self, monkeypatch):
        # the same block, but the first draw holds: nothing decides the
        # cell before the second draw's row, so its error is raised
        draws = _packed([HOLDS, _group([1, 2], [1, np.inf])])
        monkeypatch.setattr(compliance, "draw_trial", lambda *args: draws)
        with pytest.raises(InvalidParams, match="coefficient magnitudes must be finite"):
            check_cell(MeasureSpec(M.GINI), C.D2, trials=2, seed=0)

    @pytest.mark.parametrize("erring", [True, False], ids=["fails-then-errs", "holds-then-errs"])
    def test_a_bad_row_in_a_later_group(self, monkeypatch, erring):
        # both draws' first groups fail; the first draw's later groups hold,
        # and the second's last later group has a non-finite after vector:
        # the first later group that holds or errs decides a draw, so the
        # second draw errs unless a later group holds before its bad row
        bad = _group([1, 2], [1, np.inf])
        second = _draw(FAILS, FAILS if erring else HOLDS, bad)
        draws = _packed([_draw(FAILS, HOLDS, HOLDS), second])
        monkeypatch.setattr(compliance, "_seeded", lambda *args: [draws])  # one block
        if erring:
            with pytest.raises(InvalidParams, match="coefficient magnitudes must be finite"):
                check_cell(MeasureSpec(M.GINI), C.D2, trials=2, seed=0)
        else:
            v = check_cell(MeasureSpec(M.GINI), C.D2, trials=2, seed=0)
            assert (v.violated, v.trials, v.skipped) == (False, 2, 0)

    def test_u_theta_p1_skips_match_sequential(self, monkeypatch):
        spec = MeasureSpec(M.U_THETA)
        counts = (self.B - 1, self.B, self.B + 1, 5 * self.B, 5 * self.B + 1, 1000)
        flags = _sequential_skips(spec, C.P1, max(counts))
        assert sum(flags[:1000]) == 19  # TestSearchPinned's count
        for trials in counts:
            v = check_cell(spec, C.P1, trials=trials, seed=0)
            assert (v.violated, v.skipped) == (False, sum(flags[:trials])), trials
        monkeypatch.setattr(compliance, "BLOCK_TRIALS", 7)
        assert check_cell(spec, C.P1, trials=1000, seed=0).skipped == 19

    def test_an_ineligible_draw_mid_block_is_the_only_one_redrawn(self, monkeypatch):
        # on ticks 0..3 a D1 draw needs both a 0 and a 3 (the least gap is
        # 3 ticks): draws 0, 48, 54 and 57 of the first 64 lack one at
        # attempt 0, and have both at attempt 1
        ticks, key = range(0, 4), (0, 0, 0)
        draw = CRITERIA[C.D1].draw
        first = draw(ticks, trial_words((*key, 0), 0, 64))
        second = draw(ticks, trial_words((*key, 1), 0, 64))
        redrawn = np.flatnonzero(~first.eligible).tolist()
        assert redrawn == [0, 48, 54, 57] and second.eligible[redrawn].all()
        calls = []
        spy = lambda ticks, words: calls.append(words) or draw(ticks, words)  # noqa: E731
        monkeypatch.setitem(CRITERIA, C.D1, replace(CRITERIA[C.D1], draw=spy))
        got = draw_trial(C.D1, ticks, key, 0, 64)
        assert [w.tolist() for w in calls] == [
            trial_words((*key, 0), 0, 64).tolist(),
            trial_words((*key, 1), 0, 64)[redrawn].tolist(),
        ]
        assert got.eligible.all()
        for r in range(64):
            want = second if r in redrawn else first
            before = got.trial(C.D1, r).before.values
            assert before.tobytes() == (want.v[r, : want.n[r]] * TICK).tobytes(), r
            assert {k: p[r] for k, p in got.params.items()} == {k: p[r] for k, p in want.params.items()}

    def test_one_draw_trial_call_per_block_and_draw_vector_call_per_attempt(self, monkeypatch):
        # the search's draws go through these two names, per block and per
        # block attempt; on ticks 0..3 draw 0, alone in its block, and draws
        # 48, 54 and 57 of the next block of 64 are redrawn (above)
        monkeypatch.setattr(compliance, "BLOCK_TRIALS", 64)
        blocks, attempts = [], []
        real_trial, real_vector = compliance.draw_trial, transforms.draw_vector
        monkeypatch.setattr(
            compliance, "draw_trial", lambda *a: blocks.append(real_trial(*a)) or blocks[-1]
        )
        monkeypatch.setattr(
            transforms, "draw_vector", lambda *a: attempts.append(len(a[-1])) or real_vector(*a)
        )
        assert sum(map(len, _seeded(C.D1, range(0, 4), (0, 0, 0), 100))) == 100
        assert [len(b) for b in blocks] == [1, 64, 35]
        assert attempts == [1, 1, 64, 3, 35, 1]

    def test_no_eligible_draw_fails_at_its_trial_after_max_retries(self, monkeypatch):
        # every entry of ticks 5..5 is 5, so no D1 draw has a receiver
        calls = []
        real = transforms.trial_words
        monkeypatch.setattr(transforms, "trial_words", lambda *a: calls.append(a) or real(*a))
        first, rest = _seeded(C.D1, range(5, 6), (0, 0, 0), 10)
        assert [len(first), len(rest)] == [1, 9]
        assert not first.eligible.any() and not rest.eligible.any()
        assert calls == [((0, 0, 0, a), t, n) for t, n in [(0, 1), (1, 9)] for a in range(MAX_RETRIES)]
        error = f"^could not draw an eligible D1 trial in {MAX_RETRIES} attempts$"
        with pytest.raises(GenerationFailure, match=error):
            _decide(self.GINI, C.D1, _seeded(C.D1, range(5, 6), (0, 0, 0), 10))

    @pytest.mark.parametrize("measure, criterion, t", LATE_WITNESSES)
    def test_failure_after_the_witness_does_not_surface(
        self, draws_fail_from, measure, criterion, t
    ):
        spec = MeasureSpec(measure)
        found = _found(check_cell(spec, criterion, trials=1000, seed=0))
        draws_fail_from(t)  # the draw right after the witness, in its block
        assert _found(check_cell(spec, criterion, trials=1000, seed=0)) == found

    @pytest.mark.parametrize("measure, criterion, t", LATE_WITNESSES)
    @pytest.mark.parametrize("before", [1, 10])
    def test_failure_up_to_the_witness_surfaces(
        self, draws_fail_from, measure, criterion, t, before
    ):
        draws_fail_from(t - before)  # the witness's own draw, or an earlier one
        with pytest.raises(GenerationFailure, match="could not draw an eligible"):
            check_cell(MeasureSpec(measure), criterion, trials=1000, seed=0)


class TestMemory:
    """``check_cell``'s peak traced memory, so that a larger block cannot
    silently raise the ``compliance-table`` benchmark's peak RSS, which may
    grow by 5% (about 2 MB) between changes.

    Before whole-array blocks (64-draw blocks of per-draw groups) gini/D4
    and gini/P1 peaked at 0.41 and 0.70 MB; the budget is that 0.70 plus
    0.8 MB.  Blocks of 192 draws that held their padded trial rows whole
    peaked at 1.23 MB (D4), and at 1000 draws at 5.79 MB.  A block of
    BLOCK_TRIALS (1024) compact draws, its words read WORD_TRIALS at a time
    and its trials built a part of PART_ENTRIES trial-row entries at a time,
    peaks at 1000 (and 5000) trials at 0.80 (0.83) MB for D1, 0.77 (0.80)
    for D2 and D3, 0.76 (0.78) for D4 and P2 and 0.83 (0.86) for P1.  Parts
    of 2048 before entries peaked the same for D4, P1 and P2 and up to 0.02
    MB lower for D1-D3.
    """

    BUDGET = 1.5e6

    @staticmethod
    def _peak(criterion, trials):
        spec = MeasureSpec(M.GINI)
        check_cell(spec, criterion, trials=20)  # first-call imports and caches
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert not check_cell(spec, criterion, trials=trials).violated
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    @pytest.mark.parametrize("criterion", CRITERION_ORDER, ids=str)
    def test_peak_under_budget(self, criterion):
        assert self._peak(criterion, 1000) < self.BUDGET

    @pytest.mark.parametrize("criterion", CRITERION_ORDER, ids=str)
    def test_peak_does_not_grow_with_the_trials(self, criterion):
        # five blocks are drawn and decided one at a time
        assert self._peak(criterion, 5000) < self.BUDGET

    @pytest.mark.parametrize("measure", MEASURE_ORDER, ids=str)
    def test_p1_builds_at_most_part_entries(self, monkeypatch, measure):
        # every build of trial rows, P1's later groups too, holds at most
        # PART_ENTRIES entries; neg-lp-neg's later groups built 34,160 at once
        # when each part's were built whole
        real, builds = transforms._trials, []

        def trials(criterion, block):
            built = real(criterion, block)
            builds.append((built.rows.size, built.later is None))
            return built

        monkeypatch.setattr(transforms, "_trials", trials)
        want = check_cell(MeasureSpec(measure), C.P1, trials=1000, seed=0)
        assert max(size for size, _ in builds) <= transforms.PART_ENTRIES
        monkeypatch.undo()
        assert check_cell(MeasureSpec(measure), C.P1, trials=1000, seed=0) == want
        if measure is M.NEG_LP_NEG:
            assert sum(later for _, later in builds) > 1  # its later groups were built


class TestKernelCalls:
    """The search's time is mostly the fixed cost of numpy calls per part
    of a block and of ``evaluate_block`` calls, one per row length per
    part; this counts both, where wall time cannot be pinned.
    ``full_table(1000)`` made 12,639 kernel calls in blocks of 192 draws,
    3,443 in blocks of 1024 cut into parts of 2048 before entries (833
    parts, D4's padding to 4n setting every criterion's part size), and
    3,254 in 314 parts of PART_ENTRIES trial-row entries: one call per
    length for D1-D3 and P1, about 236 for D4 (lengths n, 2n, 3n and 4n)
    and 126 for P2 (n to n + 3).  P1's later groups are a block of their
    own, built a part at a time at length boundaries where they fit: 15
    more parts, against 10 builds when each part's were built whole, and
    their kernel calls counted among the others.  Draw 0 is now a block
    of its own, so the four cells whose witness is trial 1 (l0-eps/D1,
    u-theta/D3, hg/D4, hs-prime/D4) build no other draw, and every other
    cell builds one more part: 2,703 calls in 298 parts, plus the 15 of
    P1's later groups.  The table runs in one part here, so no child's
    calls go uncounted."""

    CALLS = 2703
    PARTS = 298 + 15

    def test_full_table_kernel_calls(self, monkeypatch, force_parts):
        real, calls = compliance.evaluate_block, [0]
        real_parts, parts = transforms.TrialBlock.parts, [0]

        def evaluate_block(spec, rows):
            calls[0] += 1
            return real(spec, rows)

        def counted_parts(block, criterion):
            for part in real_parts(block, criterion):
                parts[0] += 1
                yield part

        monkeypatch.setattr(compliance, "evaluate_block", evaluate_block)
        monkeypatch.setattr(transforms.TrialBlock, "parts", counted_parts)
        force_parts(monkeypatch, 1)  # a child's calls would not be counted
        assert full_table(trials=1000, seed=0).mismatches == [(Measure.HS, Criterion.D2)]
        assert calls[0] <= self.CALLS
        assert parts[0] <= self.PARTS


class TestFirstDrawAlone:
    """``_seeded`` draws draw 0 as a block of its own, then blocks of
    BLOCK_TRIALS from draw 1: a cell whose witness is trial 1 builds and
    evaluates that draw only, and no verdict depends on the schedule."""

    def test_a_trial_1_witness_builds_and_evaluates_one_draw(self, monkeypatch):
        rows, evaluated = [], []
        real_trial, real_block = compliance.draw_trial, compliance.evaluate_block
        monkeypatch.setattr(
            compliance, "draw_trial", lambda *a: rows.append(a[-1]) or real_trial(*a)
        )
        monkeypatch.setattr(
            compliance, "evaluate_block", lambda s, b: evaluated.append(len(b)) or real_block(s, b)
        )
        v = check_cell(MeasureSpec(M.HG), C.D4, trials=1000, seed=0)
        assert (v.violated, v.trials, v.skipped) == (True, 1, 0)
        assert rows == [1]
        assert evaluated == [1, 1]  # its before and its after row, at their two lengths

    @settings(max_examples=30, deadline=None)
    @given(
        measure=st.sampled_from(MEASURE_ORDER),
        criterion=st.sampled_from(CRITERION_ORDER),
        seed=st.integers(0, 2**64),
        trials=st.integers(1, 1500),
    )
    def test_same_verdict_as_plain_blocks(self, measure, criterion, seed, trials):
        spec, B = MeasureSpec(measure), compliance.BLOCK_TRIALS
        ticks = trial_ticks(spec)
        key = (seed, MEASURE_ORDER.index(measure), CRITERION_ORDER.index(criterion))
        plain = (
            draw_trial(criterion, ticks, key, start, min(B, trials - start))
            for start in range(0, trials, B)
        )
        seeded = _seeded(criterion, ticks, key, trials)
        assert _outcome(spec, criterion, seeded) == _outcome(spec, criterion, plain)


def _outcome(spec, criterion, blocks):
    """``_decide``'s verdict on ``blocks``, or the error it raises."""
    try:
        return _decide(spec, criterion, blocks)
    except SparsemetricsError as error:
        return type(error), str(error)


@pytest.fixture(scope="module")
def small_table():
    return full_table(trials=120, seed=0)


class TestFullTable:
    def test_only_known_mismatch(self, small_table):
        assert small_table.mismatches == [(Measure.HS, Criterion.D2)]

    def test_disputed_reports_no_violation(self, small_table):
        v = small_table.disputed[(Measure.L2_OVER_L1, Criterion.D3)]
        assert not v.violated

    def test_gini_row_clean(self, small_table):
        for c in Criterion:
            assert not small_table.verdict(Measure.GINI, c).violated

    def test_hoyer_row_only_d4(self, small_table):
        for c in Criterion:
            v = small_table.verdict(Measure.HOYER, c)
            assert v.violated == (c is Criterion.D4)

    def test_cell_count(self, small_table):
        assert len(small_table.cells) == 90

    def test_structured_dict_has_90_cells(self, small_table):
        d = small_table.to_dict()
        assert len(d["cells"]) == 90
        json.dumps(d)  # serializable

    def test_determinism_bit_identical(self, small_table):
        again = full_table(trials=120, seed=0)
        assert json.dumps(small_table.to_dict()) == json.dumps(again.to_dict())

    def test_theorem_consistency_on_produced(self, small_table):
        assert theorem_consistency(compliance_map(small_table))


class TestTableParts:
    """The table's search cells cut into forked parts: no verdict, witness,
    count or error depends on the usable CPU count."""

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_same_cells_at_any_cpu_count(self, monkeypatch, small_table, cpus, force_parts):
        force_parts(monkeypatch, cpus)
        table = full_table(trials=120, seed=0)
        assert list(table.cells) == list(small_table.cells)
        assert table.cells == small_table.cells
        assert json.dumps(table.to_dict()) == json.dumps(small_table.to_dict())

    def test_this_process_searches_the_same_cells_every_time(
        self, monkeypatch, small_table, force_parts
    ):
        # the cut is fixed by the cell count: at 2 parts this process
        # searches the first half of the search cells in table order on every
        # call, so counts taken in this process repeat from call to call
        search = [cell for cell, v in small_table.cells.items() if v.source == "search"]
        here, parent, real = [], os.getpid(), compliance.check_cell

        def check_cell(spec, criterion, trials, seed):
            if os.getpid() == parent:
                here.append((spec.id, criterion))
            return real(spec, criterion, trials, seed)

        monkeypatch.setattr(compliance, "check_cell", check_cell)
        force_parts(monkeypatch, 2)
        for _ in range(3):
            assert full_table(trials=120, seed=0).cells == small_table.cells
        assert here == search[: len(search) // 2] * 3

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("earlier", [False, True])
    def test_first_error_in_table_order_is_raised(
        self, monkeypatch, tmp_path, small_table, cpus, earlier, force_parts
    ):
        # the last search cell fails, and with ``earlier`` the middle one
        # too; at 3 parts each is in a child's run, the first failed part is
        # searched again here, and the first error in table order is raised
        search = [cell for cell, v in small_table.cells.items() if v.source == "search"]
        failing = [search[len(search) // 2], search[-1]][not earlier :]
        log, real = tmp_path / "pids", compliance.check_cell

        def check_cell(spec, criterion, trials, seed):
            if (spec.id, criterion) in failing:
                with open(log, "a") as fh:
                    fh.write(f"{spec.id.value},{criterion.value},{os.getpid()}\n")
                raise InvalidParams(f"({spec.id.value}, {criterion.value}) failed")
            return real(spec, criterion, trials, seed)

        monkeypatch.setattr(compliance, "check_cell", check_cell)
        force_parts(monkeypatch, cpus)
        m, c = failing[0]
        with pytest.raises(InvalidParams, match=rf"^\({m.value}, {c.value}\) failed$"):
            full_table(trials=20, seed=0)
        here = f"{m.value},{c.value},{os.getpid()}"
        met = sorted(log.read_text().splitlines())
        if cpus == 1:
            assert met == [here]
        else:  # a child met each failing cell, and this process only the first
            children = sorted(tuple(line.split(",")[:2]) for line in met if line != here)
            assert here in met and children == sorted((a.value, b.value) for a, b in failing)


class TestTheoremConsistency:
    def test_expected_matrix_consistent(self):
        assert theorem_consistency(EXPECTED_TRUE)

    def test_mutated_gini_row_fails(self):
        mutated = dict(EXPECTED_TRUE)
        mutated[Measure.GINI] = frozenset(EXPECTED_TRUE[Measure.GINI] - {Criterion.P2})
        assert not theorem_consistency(mutated)

    @pytest.mark.parametrize(
        "row", [{C.D1, C.D2}, {C.D1, C.D2, C.D4, C.P1}], ids=["without-P1", "D4-without-P2"]
    )
    def test_an_implied_criterion_missing_fails(self, row):
        assert not theorem_consistency({M.HOYER: frozenset(row)})

    def test_all_false_is_vacuously_consistent(self):
        assert theorem_consistency({m: frozenset() for m in Measure})


class TestScaleInvarianceSharpening:
    def test_d2_true_measures_invariant_under_random_scaling(self):
        d2_true = (
            Measure.L0,
            Measure.L2_OVER_L1,
            Measure.KAPPA4,
            Measure.U_THETA,
            Measure.HOYER,
            Measure.GINI,
        )
        rng = np.random.default_rng(21)
        for _ in range(500):
            v = rng.random(int(rng.integers(2, 64))) * 10
            v[rng.random(v.size) < 0.2] = 0
            if not v.any() or v.max() == v.min():
                continue
            c = CoefficientVector(v)
            alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            scaled = CoefficientVector(alpha * v)
            for m in d2_true:
                s0 = evaluate(MeasureSpec(m), c)
                s1 = evaluate(MeasureSpec(m), scaled)
                assert abs(s1 - s0) <= 1e-9 * max(1.0, abs(s0)), m
