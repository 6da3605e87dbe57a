"""Unit tests for the compliance engine: relations, catalog, search, table."""

import json
from dataclasses import replace

import numpy as np
import pytest

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
from sparsemetrics.compliance import _decide, _outcomes, _seeded
from sparsemetrics.errors import CatalogMiss, DegenerateInput, GenerationFailure, InvalidParams
from sparsemetrics.transforms import (
    CRITERIA, MAX_RETRIES, TICK, VALUE_TICKS, TrialGroup, draw_trial, trial_ticks, trial_words,
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
        # one word block per block attempt; a D4 draw is never redrawn, so
        # every block is read from attempt 0's stream (0, 14, 3, 0)
        calls = []
        real = compliance.trial_words
        monkeypatch.setattr(compliance, "trial_words", lambda *a: calls.append(a) or real(*a))
        v = check_cell(MeasureSpec(Measure.GINI), Criterion.D4, trials=1000, seed=0)
        assert not v.violated and v.trials == 1000
        assert len(calls) == 16 == -(-1000 // compliance.BLOCK_TRIALS)
        assert calls == [((0, 14, 3, 0), t, min(64, 1000 - t)) for t in range(0, 1000, 64)]

    @pytest.mark.parametrize("criterion", CRITERION_ORDER)
    def test_a_range_of_only_zero_is_invalid(self, monkeypatch, criterion):
        # neg-tanh's cap 4 / a rounds to no tick above 0: rejected before any draw
        monkeypatch.setattr(compliance, "trial_words", lambda *args: pytest.fail("drew"))
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
    return TrialGroup(
        np.array(before, dtype=float),
        tuple(np.array(a, dtype=float) for a in afters),
        tuple({"k": k} for k in range(len(afters))),
    )


# gini under scaling (D2): [1, 2] -> [2, 4] holds, -> [1, 3] fails, and the
# all-zero after vector is degenerate
HOLDS = _group([1, 2], [2, 4])
FAILS = _group([1, 2], [1, 3])
DEGENERATE = _group([1, 2], [0, 0])


class TestGroupRule:
    GINI = MeasureSpec(M.GINI)

    def test_group_outcome(self):
        holds, fails, skip = _outcomes(self.GINI, C.D2, [
            _group([1, 2], [2, 4], [2, 4]),
            _group([1, 2], [2, 4], [1, 3], [1, 3]),
            _group([1, 2], [1, 3], [0, 0]),
        ])
        assert holds is None
        k, vb, va = fails
        assert k == 1 and (vb, va) == (1 / 6, 0.25)
        # a degenerate value anywhere in the group skips it, even after a failure
        assert skip == "skip"

    def test_saturated_start_skips_only_increase_criteria(self):
        hoyer = MeasureSpec(M.HOYER)  # one-hot: hoyer is at its maximum, 1
        assert list(_outcomes(hoyer, C.P2, [_group([0, 1], [0, 1, 0])])) == ["skip"]
        assert list(_outcomes(hoyer, C.D2, [_group([0, 1], [0, 2])])) == [None]

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
        draw = groups[0]._replace(later=groups[1:])
        monkeypatch.setattr(compliance, "draw_trial", lambda *args: [draw] * args[-1])
        v = check_cell(self.GINI, C.D2, trials=2, seed=0)
        assert (v.violated, v.skipped) == (violated, skipped)
        if violated:
            assert v.trials == 1 and v.witness == FAILS.trial(C.D2)

    def test_later_groups_take_one_evaluation(self, monkeypatch):
        # the first group fails, so both later groups are evaluated, in one
        # call: the first of them fails and the second holds
        monkeypatch.setattr(
            compliance, "draw_trial", lambda *args: [FAILS._replace(later=(FAILS, HOLDS))]
        )
        real, calls = compliance.evaluate_block, []

        def evaluate_block(spec, rows):
            calls.append(len(rows))
            return real(spec, rows)

        monkeypatch.setattr(compliance, "evaluate_block", evaluate_block)
        v = check_cell(self.GINI, C.D2, trials=1, seed=0)
        assert (v.violated, v.skipped) == (False, 0)
        assert calls == [2, 4]  # rows per call: the first group's, then both later ones'


def _draw(first, *later):
    """A draw: the group ``first``, then the groups ``later``."""
    return first._replace(later=later)


class TestDecide:
    """``_decide`` on hand-built sources: lists of draws, maybe ended by an error."""

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
        v = _decide(MeasureSpec(measure), criterion, [group])
        assert (v.violated, v.trials, v.skipped, v.source) == (True, 1, 0, "search")
        assert v.witness == group.trial(criterion)
        assert not relation_holds(criterion, v.value_before, v.value_after)

    @pytest.mark.parametrize("block", [1, 64])
    def test_an_error_after_the_witness_does_not_surface(self, monkeypatch, block):
        monkeypatch.setattr(compliance, "BLOCK_TRIALS", block)
        v = _decide(self.GINI, C.D2, [HOLDS, FAILS, GenerationFailure("after")])
        assert (v.violated, v.trials, v.skipped) == (True, 2, 0)
        assert v.witness == FAILS.trial(C.D2)

    @pytest.mark.parametrize("block", [1, 64])
    @pytest.mark.parametrize("held", [0, 2])
    def test_an_error_before_any_witness_surfaces(self, monkeypatch, block, held):
        monkeypatch.setattr(compliance, "BLOCK_TRIALS", block)
        with pytest.raises(GenerationFailure, match="stopped"):
            _decide(self.GINI, C.D2, [HOLDS] * held + [GenerationFailure("stopped")])

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_matter(self, monkeypatch, block):
        monkeypatch.setattr(compliance, "BLOCK_TRIALS", block)
        # draws 11-13 hold through a later group; draw 15 fails, its later group skipping
        draws = [DEGENERATE, HOLDS] * 5 + [_draw(FAILS, FAILS, HOLDS)] * 3 + [DEGENERATE]
        v = _decide(self.GINI, C.D2, [*draws, _draw(FAILS, DEGENERATE), HOLDS])
        assert (v.violated, v.trials, v.skipped) == (True, 15, 6)
        assert v.witness == FAILS.trial(C.D2)
        v = _decide(self.GINI, C.D2, iter([*draws, HOLDS]))  # any iterable
        assert (v.violated, v.trials, v.skipped, v.witness) == (False, 15, 6, None)

    def test_p1_later_groups_that_hold_leave_no_witness(self):
        # gini under Bill Gates: [1, 2] -> [1, 2] is no increase, -> [1, 5] is one
        first, later = _group([1, 2], [1, 2]), _group([1, 2], [1, 2], [1, 5])
        assert _decide(self.GINI, C.P1, [first]).violated
        assert _decide(self.GINI, C.P1, [_draw(first, later)]).violated  # [1, 2] again
        v = _decide(self.GINI, C.P1, [_draw(first, later, _group([1, 2], [1, 5]))])
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
        v = _decide(self.HG, criterion, [_group(before, after)])
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
        v = _decide(spec, C.D1, [_group([9.5, 10], [9.625, 9.875])])
        assert (v.violated, v.trials) == (True, 1)
        assert (v.value_before, v.value_after) == (-1.9999999846720997, -1.9999999859799282)
        assert 1.3e-9 < v.value_before - v.value_after < 2e-9
        # the table's trials stop at the cap 4^(1/b) / a = 4 instead
        assert trial_ticks(spec) == range(4 * 2**20 + 1)

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
        v = _decide(spec, C.P2, [_group(pair.before, pair.after)])
        assert (v.violated, v.trials, v.skipped) == (False, 1, 1)

    @pytest.mark.parametrize("seed, trial, skipped", [(0, 3, 0), (7, 2, 0), (201, 4, 0)])
    def test_u_theta_p2_search_finds_unsaturated_witnesses(self, seed, trial, skipped):
        spec = MeasureSpec(M.U_THETA)
        v = check_cell(spec, C.P2, trials=1000, seed=seed)
        assert (v.violated, v.trials, v.skipped) == (True, trial, skipped)
        headroom = MEASURES[M.U_THETA].maximum(len(v.witness.after)) - v.value_before
        assert headroom > compliance.SATURATION_MARGIN


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
        (group,) = draw_trial(criterion, ticks, lambda a: trial_words((*key, a), t, 1), 1)
        trials_ = [group.trial(criterion, k) for k in range(len(group.afters))]
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
    """``install(k)``: every draw from trial index k on is a GenerationFailure."""

    def install(k):
        real, drawn = compliance.draw_trial, [0]

        def draw_trial(*args):
            draws, start = real(*args), drawn[0]
            drawn[0] += len(draws)
            fails = GenerationFailure(f"draw {k} fails")
            return [fails if start + r >= k else d for r, d in enumerate(draws)]

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
    # and (hs-prime, D3)'s at 343 = 49 * 7 ends a block of 7
    @pytest.mark.parametrize("block", [1, 2, 7, 34, 35, 36, 37, 55, 56])
    def test_block_size_does_not_matter(self, monkeypatch, block):
        expected = {
            (m, c): _found(check_cell(MeasureSpec(m), c, trials=900, seed=0))
            for m, c, _ in SEARCH_WITNESSES
        }
        monkeypatch.setattr(compliance, "BLOCK_TRIALS", block)
        for (m, c), found in expected.items():
            assert _found(check_cell(MeasureSpec(m), c, trials=900, seed=0)) == found, (m, c)

    def test_a_degenerate_row_leaves_its_block_exact(self, monkeypatch):
        # the first draw's all-zero after vector is outside gini's domain in
        # a block of both draws' rows (all of length 2): the first draw
        # skips, the second still fails
        draws = [DEGENERATE, FAILS]
        monkeypatch.setattr(compliance, "draw_trial", lambda *args: draws)
        v = check_cell(MeasureSpec(M.GINI), C.D2, trials=2, seed=0)
        assert (v.violated, v.trials, v.skipped) == (True, 2, 1)
        assert v.witness == FAILS.trial(C.D2)

    def test_a_bad_row_after_the_witness_does_not_surface(self, monkeypatch):
        # the second draw's after vector is not finite, and its block is
        # evaluated together; decided in trial order, the first draw's
        # witness ends the search before that row's error is reached
        draws = [FAILS, _group([1, 2], [1, np.inf])]
        monkeypatch.setattr(compliance, "draw_trial", lambda *args: draws)
        v = check_cell(MeasureSpec(M.GINI), C.D2, trials=2, seed=0)
        assert (v.violated, v.trials, v.skipped) == (True, 1, 0)
        assert v.witness == FAILS.trial(C.D2)

    def test_a_bad_row_with_no_earlier_witness_surfaces(self, monkeypatch):
        # the same block, but the first draw holds: nothing decides the
        # cell before the second draw's row, so its error is raised
        draws = [HOLDS, _group([1, 2], [1, np.inf])]
        monkeypatch.setattr(compliance, "draw_trial", lambda *args: draws)
        with pytest.raises(InvalidParams, match="coefficient magnitudes must be finite"):
            check_cell(MeasureSpec(M.GINI), C.D2, trials=2, seed=0)

    def test_u_theta_p1_skips_match_sequential(self, monkeypatch):
        spec = MeasureSpec(M.U_THETA)
        flags = _sequential_skips(spec, C.P1, 1000)
        assert sum(flags) == 19  # TestSearchPinned's count
        for trials in (self.B - 1, self.B, self.B + 1, 5 * self.B, 5 * self.B + 1, 1000):
            v = check_cell(spec, C.P1, trials=trials, seed=0)
            assert (v.violated, v.skipped) == (False, sum(flags[:trials])), trials
        monkeypatch.setattr(compliance, "BLOCK_TRIALS", 7)
        assert check_cell(spec, C.P1, trials=1000, seed=0).skipped == 19

    def test_an_ineligible_draw_mid_block_is_the_only_one_redrawn(self, monkeypatch):
        # on ticks 0..3 a D1 draw needs both a 0 and a 3 (the least gap is
        # 3 ticks): draws 0, 48, 54 and 57 of the first block lack one at
        # attempt 0, and have both at attempt 1
        ticks, key = range(0, 4), (0, 0, 0)
        draw = CRITERIA[C.D1].draw
        first = draw(ticks, trial_words((*key, 0), 0, 64))
        second = draw(ticks, trial_words((*key, 1), 0, 64))
        redrawn = [r for r, g in enumerate(first) if g is None]
        assert redrawn == [0, 48, 54, 57] and None not in [second[r] for r in redrawn]
        calls = []
        spy = lambda ticks, words: calls.append(words) or draw(ticks, words)  # noqa: E731
        monkeypatch.setitem(CRITERIA, C.D1, replace(CRITERIA[C.D1], draw=spy))
        got = list(_seeded(C.D1, ticks, key, 64))
        assert [w.tolist() for w in calls] == [
            trial_words((*key, 0), 0, 64).tolist(),
            trial_words((*key, 1), 0, 64)[redrawn].tolist(),
        ]
        for r, g in enumerate(got):
            want = second[r] if r in redrawn else first[r]
            assert (g.before.tobytes(), g.params) == (want.before.tobytes(), want.params), r

    def test_one_draw_trial_call_per_block_and_draw_vector_call_per_attempt(self, monkeypatch):
        # the search's draws go through these two names, per block and per
        # block attempt; on ticks 0..3 four draws of the first block are
        # redrawn (above)
        blocks, attempts = [], []
        real_trial, real_vector = compliance.draw_trial, transforms.draw_vector
        monkeypatch.setattr(
            compliance, "draw_trial", lambda *a: blocks.append(a[-1]) or real_trial(*a)
        )
        monkeypatch.setattr(
            transforms, "draw_vector", lambda *a: attempts.append(a[-1]) or real_vector(*a)
        )
        assert len(list(_seeded(C.D1, range(0, 4), (0, 0, 0), 100))) == 100
        assert blocks == [64, 36]
        assert attempts == [64, 4, 36, 1]

    def test_no_eligible_draw_fails_at_its_trial_after_max_retries(self, monkeypatch):
        # every entry of ticks 5..5 is 5, so no D1 draw has a receiver
        calls = []
        real = compliance.trial_words
        monkeypatch.setattr(compliance, "trial_words", lambda *a: calls.append(a) or real(*a))
        (failure,) = _seeded(C.D1, range(5, 6), (0, 0, 0), 10)
        assert isinstance(failure, GenerationFailure)
        assert str(failure) == f"could not draw an eligible D1 trial in {MAX_RETRIES} attempts"
        assert calls == [((0, 0, 0, a), 0, 10) for a in range(MAX_RETRIES)]
        with pytest.raises(GenerationFailure, match=str(failure)):
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
        with pytest.raises(GenerationFailure, match="fails"):
            check_cell(MeasureSpec(measure), criterion, trials=1000, seed=0)


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
