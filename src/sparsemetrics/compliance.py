"""Measure-versus-criterion compliance: catalog witnesses, randomized search,
and the 15x6 verdict table.

Each cell of the table is resolved in two stages.  Expected-false cells are
first checked against the fixed counter-example catalog; a pair that
produces the violation becomes the cell's witness.  Every other cell (and
any catalog pair that turns out not to discriminate) falls back to seeded
randomized trial search.  Randomized testing can only falsify: a
``NoViolationFound`` verdict is evidence of compliance, never proof.

Each search draw has its own random words: attempt a of trial t is
``draw_trial``'s words of draw t under the key (seed, measure index,
criterion index).  So verdicts are independent of execution order and
block size, and a ``NoViolationFound`` at T trials is stable under any
smaller T with the same seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping

import numpy as np

from .errors import CatalogMiss, DegenerateInput, InvalidParams, SparsemetricsError
from .measures import (
    MEASURE_ORDER,
    MEASURES,
    CoefficientVector,
    Measure,
    MeasureSpec,
    evaluate,
    evaluate_block,
)
from .parts import _cuts, _map_parts
from .transforms import (
    CRITERIA,
    CRITERION_ORDER,
    Criterion,
    CriterionTrial,
    Relation,
    TrialBlock,
    TrialRows,
    draw_trial,
    generation_failure,
    trial_ticks,
)

__all__ = [
    "relation_holds",
    "EXPECTED_TRUE",
    "DISPUTED_CELLS",
    "CatalogPair",
    "CATALOG_PAIRS",
    "TABLE4_WITNESSES",
    "KNOWN_DEAD_MAPPINGS",
    "ERRATUM_NOTES",
    "CellVerdict",
    "TableResult",
    "catalog_verdict",
    "run_counterexamples",
    "check_cell",
    "full_table",
    "theorem_consistency",
    "compliance_map",
]


def _holds(relation: Relation, value_before, value_after):
    """``relation_holds``'s formula for ``relation``, elementwise on arrays."""
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(value_before), np.abs(value_after)))
    if relation is Relation.EQUAL:
        return np.abs(value_after - value_before) <= tol
    if relation is Relation.AFTER_STRICTLY_LESS:
        return value_after < value_before - tol
    return value_after > value_before + tol


def relation_holds(criterion: Criterion, value_before: float, value_after: float) -> bool:
    """Whether the criterion's required relation holds for this value pair.

    Equality criteria (D2, D4) hold within the tolerance; strict criteria
    need the required side to exceed the other by more than the tolerance,
    so an approximately-equal outcome counts as a violation of a strict
    criterion.  The tolerance is ``1e-9 * max(1, |before|, |after|)``.
    """
    return bool(_holds(CRITERIA[criterion].relation, value_before, value_after))


# The reference compliance matrix this engine reproduces (rows in table
# order, columns D1, D2, D3, D4, P1, P2).
EXPECTED_TRUE: dict[Measure, frozenset[Criterion]] = {
    Measure.L0: frozenset({Criterion.D2, Criterion.P2}),
    Measure.L0_EPS: frozenset({Criterion.P2}),
    Measure.NEG_L1: frozenset({Criterion.D3}),
    Measure.NEG_LP: frozenset({Criterion.D1, Criterion.D3}),
    Measure.L2_OVER_L1: frozenset({Criterion.D1, Criterion.D2, Criterion.P1}),
    Measure.NEG_TANH: frozenset({Criterion.D1, Criterion.D3}),
    Measure.NEG_LOG: frozenset({Criterion.D3}),
    Measure.KAPPA4: frozenset({Criterion.D2, Criterion.D3, Criterion.P1}),
    Measure.U_THETA: frozenset({Criterion.D2, Criterion.D4, Criterion.P1}),
    Measure.NEG_LP_NEG: frozenset({Criterion.P1}),
    Measure.HG: frozenset({Criterion.D1, Criterion.D3}),
    Measure.HS: frozenset(),
    Measure.HS_PRIME: frozenset(),
    Measure.HOYER: frozenset(
        {Criterion.D1, Criterion.D2, Criterion.D3, Criterion.P1, Criterion.P2}
    ),
    Measure.GINI: frozenset(CRITERION_ORDER),
}

#: Cells excluded from the expected-vs-actual diff and reported separately.
DISPUTED_CELLS: frozenset[tuple[Measure, Criterion]] = frozenset(
    {(Measure.L2_OVER_L1, Criterion.D3)}
)

ERRATUM_NOTES: dict[tuple[Measure, Criterion], str] = {
    (Measure.L2_OVER_L1, Criterion.D3): (
        "disputed cell: the reference matrix marks the l2/l1 ratio as failing the "
        "rising-tide criterion, but direct evaluation shows a strict decrease for "
        "every non-constant vector (e.g. [1,3,5]+0.5: 0.65734 -> 0.63710), and the "
        "Hoyer measure, a strictly increasing transform of the ratio at fixed N, is "
        "proved to satisfy it. This engine expects no violation here; the cell is "
        "flagged and never affects the pass/fail diff or the exit code."
    ),
    (Measure.HS, Criterion.D2): (
        "the normalized-energy entropy is exactly scale invariant (the scale factor "
        "cancels in c~ = c^2/||c||_2^2), so no scaling violation exists; the "
        "reference matrix nevertheless marks the cell as failing. The honest verdict "
        "is NoViolationFound, reported as a mismatch with this note."
    ),
}


@dataclass(frozen=True)
class CatalogPair:
    """A fixed (before, after) witness pair from the counter-example catalog."""

    name: str
    before: tuple[float, ...]
    after: tuple[float, ...]
    note: str = ""

    def as_trial(self, criterion: Criterion) -> CriterionTrial:
        return CriterionTrial(
            criterion,
            CoefficientVector(self.before),
            CoefficientVector(self.after),
            {"catalog": self.name},
        )


CATALOG_PAIRS: dict[str, CatalogPair] = {
    p.name: p
    for p in (
        CatalogPair("CE1", (0, 1, 3, 5), (0, 2, 3, 4), "robin hood, alpha=1 from 5 to 1"),
        CatalogPair("CE1a", (0.3, 1, 2), (0.31, 0.99, 2), "robin hood, alpha=0.01 from 1 to 0.3"),
        CatalogPair("CE2", (0, 1, 3, 5), (0, 2, 6, 10), "scaling, alpha=2"),
        CatalogPair("CE3", (1, 3, 5), (1.5, 3.5, 5.5), "rising tide, alpha=0.5"),
        CatalogPair("CE3a", (0.1, 0.3, 0.5), (0.15, 0.35, 0.55), "rising tide, alpha=0.05"),
        CatalogPair("CE4", (0, 1, 3, 5), (0, 0, 1, 1, 3, 5), "cloning-style pair as printed"),
        CatalogPair("CE5", (0, 1, 3, 5), (0, 1, 3, 20), "bill gates, coefficient 5 grown to 20"),
        CatalogPair("CE6", (0, 1, 3, 5), (0, 0, 0, 1, 3, 5), "babies, two zeros appended"),
        CatalogPair("U1", (1, 2, 4, 9), (1.1, 1.9, 4, 9), "u-theta robin hood witness"),
        CatalogPair("U2", (10, 10, 10, 11), (10, 10, 10, 11, 0), "u-theta babies witness"),
    )
}

# Cell -> catalog pair, following the reference counter-example guide.
# The tanh/D2 cell is printed there with a rising-tide pair, which cannot
# express a scaling trial; the valid scaling pair CE2 is substituted.
TABLE4_WITNESSES: dict[tuple[Measure, Criterion], str] = {
    (Measure.L0, Criterion.D1): "CE1",
    (Measure.L0, Criterion.D3): "CE3",
    (Measure.L0, Criterion.D4): "CE4",
    (Measure.L0, Criterion.P1): "CE5",
    (Measure.L0_EPS, Criterion.D1): "CE1",
    (Measure.L0_EPS, Criterion.D2): "CE2",
    (Measure.L0_EPS, Criterion.D4): "CE4",
    (Measure.L0_EPS, Criterion.P1): "CE5",
    (Measure.NEG_L1, Criterion.D1): "CE1",
    (Measure.NEG_L1, Criterion.D2): "CE2",
    (Measure.NEG_L1, Criterion.D4): "CE4",
    (Measure.NEG_L1, Criterion.P1): "CE5",
    (Measure.NEG_L1, Criterion.P2): "CE6",
    (Measure.NEG_LP, Criterion.D2): "CE2",
    (Measure.NEG_LP, Criterion.D4): "CE4",
    (Measure.NEG_LP, Criterion.P1): "CE5",
    (Measure.NEG_LP, Criterion.P2): "CE6",
    (Measure.L2_OVER_L1, Criterion.D4): "CE4",
    (Measure.L2_OVER_L1, Criterion.P2): "CE6",
    (Measure.NEG_TANH, Criterion.D2): "CE2",
    (Measure.NEG_TANH, Criterion.D4): "CE4",
    (Measure.NEG_TANH, Criterion.P1): "CE5",
    (Measure.NEG_TANH, Criterion.P2): "CE6",
    (Measure.NEG_LOG, Criterion.D1): "CE1a",
    (Measure.NEG_LOG, Criterion.D2): "CE2",
    (Measure.NEG_LOG, Criterion.D4): "CE4",
    (Measure.NEG_LOG, Criterion.P1): "CE5",
    (Measure.NEG_LOG, Criterion.P2): "CE6",
    (Measure.KAPPA4, Criterion.D1): "CE1a",
    (Measure.KAPPA4, Criterion.D4): "CE4",
    (Measure.KAPPA4, Criterion.P2): "CE6",
    (Measure.U_THETA, Criterion.D1): "U1",
    (Measure.U_THETA, Criterion.P2): "U2",
    (Measure.NEG_LP_NEG, Criterion.D1): "CE1",
    (Measure.NEG_LP_NEG, Criterion.D2): "CE2",
    (Measure.NEG_LP_NEG, Criterion.D3): "CE3a",
    (Measure.NEG_LP_NEG, Criterion.D4): "CE4",
    (Measure.NEG_LP_NEG, Criterion.P2): "CE6",
    (Measure.HG, Criterion.D2): "CE2",
    (Measure.HG, Criterion.D4): "CE4",
    (Measure.HG, Criterion.P1): "CE5",
    (Measure.HG, Criterion.P2): "CE6",
    (Measure.HS, Criterion.D1): "CE1",
    (Measure.HS, Criterion.D2): "CE2",
    (Measure.HS, Criterion.D3): "CE3a",
    (Measure.HS, Criterion.D4): "CE4",
    (Measure.HS, Criterion.P1): "CE5",
    (Measure.HS, Criterion.P2): "CE6",
    (Measure.HS_PRIME, Criterion.D1): "CE1",
    (Measure.HS_PRIME, Criterion.D2): "CE2",
    (Measure.HS_PRIME, Criterion.D3): "CE3a",
    (Measure.HS_PRIME, Criterion.D4): "CE4",
    (Measure.HS_PRIME, Criterion.P1): "CE5",
    (Measure.HS_PRIME, Criterion.P2): "CE6",
    (Measure.HOYER, Criterion.D4): "CE4",
}

# Mapped pairs that provably do not discriminate under the default
# parameters and zero-handling conventions; these cells are resolved by
# randomized search instead.  Kept here so reports can say why.
KNOWN_DEAD_MAPPINGS: dict[tuple[Measure, Criterion], str] = {
    (Measure.L0_EPS, Criterion.D1): (
        "with epsilon=1 the pair counts 2 -> 1, a strict decrease in the required "
        "direction, so the pair satisfies the criterion instead of violating it "
        "(any epsilon in [1,2) behaves this way)"
    ),
    (Measure.HG, Criterion.D4): (
        "the coefficients added by the printed pair are {0, 1}; zeros are excluded "
        "and log(1)=0, so both sides are exactly equal and the equality criterion "
        "holds on the pair"
    ),
    (Measure.HS_PRIME, Criterion.D4): (
        "same mechanism as hg/D4: the added {0, 1} coefficients contribute nothing "
        "(zeros excluded, 1*log(1)=0), so both sides are exactly equal"
    ),
    (Measure.HS, Criterion.D2): (
        "the measure is exactly scale invariant, so no scaling pair can violate; "
        "see the erratum note for this cell"
    ),
}


@dataclass(frozen=True)
class CellVerdict:
    """Verdict for one (measure, criterion) cell."""

    measure: Measure
    criterion: Criterion
    violated: bool
    trials: int
    skipped: int = 0
    witness: CriterionTrial | None = None
    value_before: float | None = None
    value_after: float | None = None
    source: str = "search"  # "catalog" or "search"

    @property
    def compliant(self) -> bool:
        return not self.violated

    @property
    def all_skipped(self) -> bool:
        """A search verdict whose every trial was skipped, so that its
        ``NoViolationFound`` rests on no useful trial."""
        return self.source == "search" and not self.violated and self.skipped == self.trials

    @property
    def label(self) -> str:
        if self.violated:
            return f"Violated({self.source})"
        return f"NoViolationFound({self.trials})"

    def to_dict(self) -> dict:
        d = {
            "measure": self.measure.value,
            "criterion": self.criterion.value,
            "verdict": "violated" if self.violated else "no-violation-found",
            "trials": self.trials,
            "skipped": self.skipped,
            "source": self.source if self.violated else None,
        }
        if self.witness is not None:
            d["witness"] = {
                "before": self.witness.before.values.tolist(),
                "after": self.witness.after.values.tolist(),
                "params": self.witness.params,
            }
            d["value_before"] = self.value_before
            d["value_after"] = self.value_after
        return d


#: Strict-increase trials whose starting value is already this close to the
#: measure's attainable maximum (at the after vector's length, which P2
#: raises for gini) are recorded as skipped: no transformation can produce a
#: measurable increase there, so such draws say nothing about the criterion
#: (the increase axioms presume headroom).
SATURATION_MARGIN = 1e-6


#: Search draws per block.  More save kernel calls, since a block's rows
#: of one length are evaluated together; a block holds only its draws'
#: ticks and parameters (about 0.3 MB at 1024 draws), and builds its trials
#: a few before lengths at a time (``TrialBlock.parts``), so its memory
#: hardly grows with it.
BLOCK_TRIALS = 1024

# the state of a draw's group of trials
HOLD, FAIL, SKIP, ERROR = range(4)


def _values(spec: MeasureSpec, rows: np.ndarray, lengths: np.ndarray):
    """``evaluate`` on each row of ``rows`` (magnitudes, non-negative) cut to
    its length: the values, NaN where it raises, and those errors by row.
    Rows of one length are sorted and go to ``evaluate_block`` as one block,
    so each row is evaluated alone at its own length."""
    values, errors = np.empty(len(rows)), {}
    order = np.argsort(lengths, kind="stable")
    ends = [*(np.flatnonzero(np.diff(lengths[order])) + 1).tolist(), len(order)]
    for start, end in zip([0, *ends], ends):
        picks = order[start:end]
        block = rows[picks, : lengths[picks[0]]]
        block.sort(axis=1)
        out = np.array(evaluate_block(spec, block))
        if out.dtype == object:  # some row raised
            for k in [k for k, value in enumerate(out) if isinstance(value, SparsemetricsError)]:
                errors[int(picks[k])], out[k] = out[k], np.nan
        values[picks] = out
    return values, errors


def _group_outcomes(spec: MeasureSpec, criterion: Criterion, trials: TrialRows):
    """Decide each draw's group of trials in ``trials`` from one ``_values``
    call on all its rows: (state, k, errors).

    A group is SKIP when it says nothing about the criterion (a degenerate
    value, or a strict-increase start already within SATURATION_MARGIN of
    the measure's maximum at the after length), ERROR when a value raises
    another error, HOLD when every trial holds, else FAIL, its first failing
    trial k.  A draw's values are looked at in order: before, saturation,
    then each after; the first of them that is odd decides, and ``errors``
    maps each draw a raised value decides to that error.
    """
    rows, width = trials.rows.shape[1], trials.rows.shape[2]
    values, errors = _values(spec, trials.rows.reshape(-1, width), trials.lengths.ravel())
    values = values.reshape(len(trials), rows)
    vb, va = values[:, 0], values[:, 1:]
    holds = _holds(CRITERIA[criterion].relation, vb[:, None], va)
    state = np.where(holds.all(1), HOLD, FAIL)
    maximum = MEASURES[spec.id].maximum
    if maximum and CRITERIA[criterion].relation is Relation.AFTER_STRICTLY_GREATER:
        state[maximum(trials.lengths[:, 1]) - vb <= SATURATION_MARGIN] = SKIP
    raised, seen = {}, set()
    for row in sorted(errors):
        r, at = divmod(row, rows)
        if r in seen or (at and state[r] == SKIP):
            continue
        seen.add(r)
        state[r] = SKIP if isinstance(errors[row], DegenerateInput) else ERROR
        raised[r] = errors[row]
    return state, holds.argmin(1), raised


def _outcomes(spec: MeasureSpec, criterion: Criterion, block: TrialBlock | TrialRows):
    """Each draw's state and first failing trial k in ``block`` as block
    arrays, and its errors by draw, one of ``block.parts`` at a time, so no
    more than one part's trial rows are held: ``_group_outcomes`` of each
    draw's first group, then, only for draws whose first group fails, this
    on the block of their later groups (``TrialRows.later``).  A draw holds
    when a later group holds, and errs when a later group errs before one
    holds (a later skip counts as failing).  A draw that is not ``ok`` is an
    ERROR, its error ``generation_failure``."""
    state, k, raised = np.empty(len(block), int), np.empty(len(block), int), {}
    for at, trials in block.parts(criterion):
        part, k[at], part_raised = _group_outcomes(spec, criterion, trials)
        picks = np.flatnonzero(part == FAIL)
        if trials.later is not None and picks.size:
            later, _, later_raised = _outcomes(spec, criterion, trials.later(picks))
            later = later.reshape(picks.size, -1)
            decisive = (later == HOLD) | (later == ERROR)  # the first of these decides
            first = decisive.argmax(1)
            for p in np.flatnonzero(decisive.any(1)).tolist():
                part[picks[p]] = later[p, first[p]]
                part_raised[picks[p]] = later_raised.get(p * later.shape[1] + first[p])
        for r in np.flatnonzero(~trials.ok).tolist():
            part[r], part_raised[r] = ERROR, generation_failure(criterion)
        state[at] = part
        raised.update((int(at[r]), error) for r, error in part_raised.items())
    return state, k, raised


def _decide(
    spec: MeasureSpec, criterion: Criterion, blocks: Iterable[TrialBlock | TrialRows]
) -> CellVerdict:
    """The verdict on ``blocks``: ``TrialBlock``s (or built ``TrialRows``)
    from any source, decided in order, each by ``_outcomes``.  The first
    group decides a skip; a draw holds when that group or a later one holds
    (a later skip counts as failing), else the first group's first failure
    is the witness, its values taken by ``evaluate`` as the catalog's are.
    The first witness or error (a draw that is not ``ok`` is one) ends the
    search before the next block is drawn, so the block sizes change no
    verdict, and an error surfaces only if no earlier draw is a witness."""
    trials = skipped = 0
    for block in blocks:
        state, k, raised = _outcomes(spec, criterion, block)
        stops = np.flatnonzero((state == FAIL) | (state == ERROR))
        end = int(stops[0]) if stops.size else len(block)
        skipped += int((state[:end] == SKIP).sum())
        if end == len(block):
            trials += end
            del block  # so no more than one block is held while the next is drawn
            continue
        if state[end] == ERROR:
            raise raised[end]
        trial = block.trial(criterion, end, k[end])
        values = evaluate(spec, trial.before), evaluate(spec, trial.after)
        return CellVerdict(spec.id, criterion, True, trials + end + 1, skipped, trial, *values)
    return CellVerdict(spec.id, criterion, False, trials, skipped)


def _seeded(criterion: Criterion, ticks: range, key: tuple, trials: int):
    """``check_cell``'s source: ``trials`` draws from ``ticks`` in ``draw_trial`` blocks,
    draw 0 alone (a first-draw witness is all a cell builds), then BLOCK_TRIALS at a time."""
    for start, end in itertools.pairwise([0, *range(1, trials, BLOCK_TRIALS), trials]):
        yield draw_trial(criterion, ticks, key, start, end - start)


def check_cell(
    spec: MeasureSpec, criterion: Criterion, trials: int = 1000, seed: int = 0
) -> CellVerdict:
    """Randomized search for a witness: ``_decide`` over ``trials`` seeded draws."""
    if trials < 1:
        raise InvalidParams(f"trials must be >= 1, got {trials}")
    ticks = trial_ticks(spec)
    if ticks == range(1):
        p = " ".join(f"{k}={v:g}" for k, v in vars(spec).items() if v != getattr(MeasureSpec, k, v))
        raise InvalidParams(f"{spec.id.value} ({p}) draws every trial entry as 0")
    key = (seed, MEASURE_ORDER.index(spec.id), CRITERION_ORDER.index(criterion))
    return _decide(spec, criterion, _seeded(criterion, ticks, key, trials))


def catalog_verdict(spec: MeasureSpec, criterion: Criterion) -> CellVerdict:
    """Evaluate the catalog pair mapped to this cell; CatalogMiss if none is.

    The verdict is ``violated`` only when the pair breaks the required relation;
    a compliant one means "unresolved, fall back to search".  It is decided by
    ``relation_holds`` alone, not by ``_decide``, whose rule would skip pair U2
    (``u-theta``/P2) as a start at the measure's maximum and change the table.
    """
    name = TABLE4_WITNESSES.get((spec.id, criterion))
    if name is None:
        raise CatalogMiss(
            f"no catalog witness mapped for ({spec.id.value}, {criterion.value})"
        )
    trial = CATALOG_PAIRS[name].as_trial(criterion)
    vb = evaluate(spec, trial.before)
    va = evaluate(spec, trial.after)
    violated = not relation_holds(criterion, vb, va)
    return CellVerdict(spec.id, criterion, violated, 0, 0, trial, vb, va, "catalog")


def run_counterexamples(spec: MeasureSpec) -> list[CellVerdict]:
    """Catalog pass for one measure: verdicts for every mapped cell.

    Pairs that fail to discriminate (see ``KNOWN_DEAD_MAPPINGS``) come back
    compliant; the table builder falls back to randomized search for those.
    """
    out = []
    for criterion in CRITERION_ORDER:
        if (spec.id, criterion) in TABLE4_WITNESSES:
            out.append(catalog_verdict(spec, criterion))
    return out


@dataclass
class TableResult:
    """The full 15x6 verdict matrix plus the diff against the expected table."""

    trials: int
    seed: int
    cells: dict[tuple[Measure, Criterion], CellVerdict] = field(default_factory=dict)

    def verdict(self, measure: Measure, criterion: Criterion) -> CellVerdict:
        return self.cells[(measure, criterion)]

    @property
    def mismatches(self) -> list[tuple[Measure, Criterion]]:
        """Non-disputed cells whose verdict disagrees with the expected table."""
        out = []
        for (m, c), v in self.cells.items():
            if (m, c) in DISPUTED_CELLS:
                continue
            if v.compliant != (c in EXPECTED_TRUE[m]):
                out.append((m, c))
        return out

    @property
    def disputed(self) -> dict[tuple[Measure, Criterion], CellVerdict]:
        return {cell: self.cells[cell] for cell in DISPUTED_CELLS}

    def to_dict(self) -> dict:
        mismatches = self.mismatches
        cells = []
        for m in MEASURE_ORDER:
            for c in CRITERION_ORDER:
                v = self.cells[(m, c)]
                d = v.to_dict()
                d["expected"] = (
                    "no-violation-found" if c in EXPECTED_TRUE[m] else "violated"
                )
                d["disputed"] = (m, c) in DISPUTED_CELLS
                d["mismatch"] = (m, c) in mismatches
                note = ERRATUM_NOTES.get((m, c)) or KNOWN_DEAD_MAPPINGS.get((m, c))
                if note:
                    d["note"] = note
                cells.append(d)
        return {
            "trials": self.trials,
            "seed": self.seed,
            "cells": cells,
            "mismatches": [
                {"measure": m.value, "criterion": c.value} for m, c in mismatches
            ],
            "disputed": [
                {
                    "measure": m.value,
                    "criterion": c.value,
                    "verdict": self.cells[(m, c)].to_dict()["verdict"],
                    "note": ERRATUM_NOTES[(m, c)],
                }
                for m, c in DISPUTED_CELLS
            ],
        }


def full_table(trials: int = 1000, seed: int = 0) -> TableResult:
    """Resolve all 90 cells: catalog first, randomized search otherwise.

    The cells left to search, in table order, are cut into runs of about
    equal count, one per part of ``_map_parts`` (their draws are its work),
    and joined in table order.  Each searches its own stream, so no verdict
    depends on the part count, and the first error in table order is the
    one raised."""
    cells = {}  # each cell's violated catalog verdict, or None to search
    for measure in MEASURE_ORDER:
        spec = MeasureSpec(measure)
        for criterion in CRITERION_ORDER:
            mapped = (measure, criterion) in TABLE4_WITNESSES
            verdict = catalog_verdict(spec, criterion) if mapped else None
            cells[measure, criterion] = verdict if verdict and verdict.violated else None
    search = [cell for cell, verdict in cells.items() if verdict is None]
    cuts = _cuts([trials] * len(search))

    def run(lo: int, hi: int) -> list[CellVerdict]:
        return [check_cell(MeasureSpec(m), c, trials, seed) for m, c in search[lo:hi]]

    found = itertools.chain.from_iterable(_map_parts(run, cuts))
    return TableResult(trials, seed, {cell: v or next(found) for cell, v in cells.items()})


def compliance_map(table: TableResult) -> dict[Measure, frozenset[Criterion]]:
    """Criteria each measure satisfied (NoViolationFound counts as satisfied)."""
    out: dict[Measure, set[Criterion]] = {m: set() for m in MEASURE_ORDER}
    for (m, c), v in table.cells.items():
        if v.compliant:
            out[m].add(c)
    return {m: frozenset(s) for m, s in out.items()}


def theorem_consistency(compliance: Mapping[Measure, AbstractSet[Criterion]]) -> bool:
    """Meta-check of the two implication theorems over a compliance matrix:
    D1 and D2 together imply P1, and D1, D2 and D4 together imply P2."""
    for trues in compliance.values():
        if Criterion.D1 in trues and Criterion.D2 in trues:
            if Criterion.P1 not in trues:
                return False
            if Criterion.D4 in trues and Criterion.P2 not in trues:
                return False
    return True
