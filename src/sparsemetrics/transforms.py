"""The six criterion transformations as explicit (before, after) pairs.

Each constructor validates its preconditions, records the parameters used,
and states the relation a compliant measure must exhibit between the two
vectors.  ``CRITERIA`` defines each criterion once: its relation, its
constructor and its random draw.

A draw is an array program over a block of draws: each attempt at a draw
takes SLOTS raw 64-bit words, and each criterion's ``draw`` turns a
(rows, SLOTS) block of them into one ``TrialGroup`` per row (None for an
ineligible vector), with integers and uniforms taken from the words by exact
integer rules, its vectors by ``draw_vector``.  ``draw_trial`` draws a
block of draws, redrawing only the ineligible rows from the next attempt's
words, or one draw from a generator's next words; the search reads attempt
a of draw t as words [t * SLOTS, (t + 1) * SLOTS) of one stream per attempt
(``trial_words``).

Draws reason in integer grid ticks (multiples of ``TICK`` = 2**-20) from
the range ``trial_ticks`` gives, and turn them into float64 once, where
each builds its ``TrialGroup``.  Sums of grid values up to VALUE_MAX are
exact in float64, so Robin Hood and Babies conserve the l1 mass bit-exactly
under any summation order.

Everything here is pure construction; random state is caller-supplied and
never shared, so independent seeds are safe to use concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import GenerationFailure, InvalidParams, InvalidTransform
from .measures import MEASURES, CoefficientVector, MeasureSpec

__all__ = [
    "Criterion",
    "Relation",
    "CriterionDef",
    "CRITERIA",
    "CriterionTrial",
    "TrialGroup",
    "trial_ticks",
    "robin_hood",
    "scale",
    "rising_tide",
    "clone",
    "bill_gates",
    "babies",
    "reapply",
    "sample_trial",
    "draw_trial",
    "draw_vector",
    "trial_words",
    "stream",
    "streams",
]

#: Grid resolution for generated coefficients and transfer amounts.
TICK = 2.0**-20
_TICKS_PER_UNIT = 2**20

N_MIN, N_MAX = 2, 64
VALUE_MAX = 10.0
#: The default trial ticks: 0 through VALUE_MAX.
VALUE_TICKS = range(round(VALUE_MAX * _TICKS_PER_UNIT) + 1)
ZERO_PROB = 0.2
POSITIVE_FLOOR = 0.01
#: Smallest Robin Hood pair gap, and smallest rising-tide spread, as a
#: fraction of the largest coefficient; draws below it are not informative
#: at the compliance tolerance and are redrawn.
MIN_GAP_FRAC = 0.01
#: Attempts at an eligible draw before GenerationFailure.
MAX_RETRIES = 200
#: Raw 64-bit words one draw attempt takes, 33 of Philox's 4-word blocks:
#: the length, N_MAX entries and N_MAX zero-mask words, then from word _OWN
#: the criterion's own (D1's receiver, donor and transfer; the one
#: parameter of the others).
_OWN = 1 + 2 * N_MAX
SLOTS = _OWN + 3
#: Bill Gates alphas, as multiples of the vector's l1 mass.
P1_ALPHA_MULTIPLIERS = (1e-3, 1.0, 1e3)
#: Bill Gates betas probed, as multiples of the l1 mass, when the policy
#: beta fails at some alpha.
P1_BETA_SWEEP = (0.1, 1.0, 10.0, 100.0)


class Criterion(str, Enum):
    """The six criteria: four Dalton laws plus Bill Gates and Babies."""

    D1 = "D1"  # Robin Hood: transfer from rich to poor must decrease sparsity
    D2 = "D2"  # Scaling: positive rescaling must leave sparsity unchanged
    D3 = "D3"  # Rising Tide: adding a constant must decrease sparsity
    D4 = "D4"  # Cloning: concatenating copies must leave sparsity unchanged
    P1 = "P1"  # Bill Gates: growing one coefficient must increase sparsity
    P2 = "P2"  # Babies: appending zeros must increase sparsity

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


CRITERION_ORDER: tuple[Criterion, ...] = tuple(Criterion)


class Relation(str, Enum):
    AFTER_STRICTLY_LESS = "after<before"
    EQUAL = "after==before"
    AFTER_STRICTLY_GREATER = "after>before"


@dataclass(frozen=True)
class CriterionTrial:
    """One (before, after) comparison produced by a criterion transformation.

    For P1 the ``before`` vector already carries the +beta offset; ``after``
    adds alpha on top, matching the criterion's two perturbed vectors.
    """

    criterion: Criterion
    before: CoefficientVector
    after: CoefficientVector
    params: dict = field(default_factory=dict)

    @property
    def expected_relation(self) -> Relation:
        return CRITERIA[self.criterion].relation


class TrialGroup(NamedTuple):
    """Trials sharing a before vector, in plain float64: an after vector and its
    params per trial; ``later`` lazily holds the draw's further groups (P1)."""

    before: np.ndarray
    afters: tuple[np.ndarray, ...]
    params: tuple[dict, ...]
    later: Iterable[TrialGroup] = ()

    def trial(self, criterion: Criterion, k: int = 0) -> CriterionTrial:
        before, after = CoefficientVector(self.before), CoefficientVector(self.afters[k])
        return CriterionTrial(criterion, before, after, self.params[k])


def _robin_hood(v: np.ndarray, i: int, j: int, alpha: float) -> TrialGroup:
    if not v[i] > v[j]:
        raise InvalidTransform(f"robin hood requires c[i] > c[j], got {v[i]} <= {v[j]}")
    if not 0 < alpha < (v[i] - v[j]) / 2:
        raise InvalidTransform(
            f"robin hood requires 0 < alpha < (c[i]-c[j])/2, got alpha={alpha}"
        )
    out = v.copy()
    out[i] -= alpha
    out[j] += alpha
    return TrialGroup(v, (out,), ({"i": int(i), "j": int(j), "alpha": float(alpha)},))


def _scale(v: np.ndarray, alpha: float) -> TrialGroup:
    if not alpha > 0:
        raise InvalidTransform(f"scaling requires alpha > 0, got {alpha}")
    if alpha == 1.0:
        raise InvalidTransform("scaling by exactly 1 is the trivial case")
    return TrialGroup(v, (alpha * v,), ({"alpha": float(alpha)},))


def _rising_tide(v: np.ndarray, alpha: float) -> TrialGroup:
    if not alpha > 0:
        raise InvalidTransform(f"rising tide requires alpha > 0, got {alpha}")
    if v.max() == v.min():
        raise InvalidTransform("rising tide excludes constant vectors")
    return TrialGroup(v, (v + alpha,), ({"alpha": float(alpha)},))


def _clone(v: np.ndarray, m: int) -> TrialGroup:
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise InvalidTransform(f"cloning requires an integer m >= 2, got {m}")
    return TrialGroup(v, (np.tile(v, int(m)),), ({"m": int(m)},))


def _bill_gates(v: np.ndarray, i: int, beta: float, alphas) -> TrialGroup:
    """Coefficient ``i`` grown by beta, against grown by beta + each alpha."""
    if not beta > 0:
        raise InvalidTransform(f"bill gates requires beta > 0, got {beta}")
    bv = v.copy()
    bv[i] += beta
    afters, params = [], []
    for alpha in alphas:
        if not alpha > 0:
            raise InvalidTransform(f"bill gates requires alpha > 0, got {alpha}")
        av = bv.copy()
        av[i] += alpha
        afters.append(av)
        params.append({"i": int(i), "beta": float(beta), "alpha": float(alpha)})
    return TrialGroup(bv, tuple(afters), tuple(params))


def _babies(v: np.ndarray, k: int) -> TrialGroup:
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidTransform(f"babies requires an integer k >= 1, got {k}")
    if not v.any():
        raise InvalidTransform("babies requires nonzero total mass")
    return TrialGroup(v, (np.concatenate([v, np.zeros(int(k))]),), ({"k": int(k)},))


def robin_hood(c: CoefficientVector, i: int, j: int, alpha: float) -> CriterionTrial:
    """Move ``alpha`` from coefficient ``i`` to the smaller coefficient ``j``."""
    return _robin_hood(c.values, i, j, alpha).trial(Criterion.D1)


def scale(c: CoefficientVector, alpha: float) -> CriterionTrial:
    """Multiply every coefficient by ``alpha`` (positive, not the trivial 1)."""
    return _scale(c.values, alpha).trial(Criterion.D2)


def rising_tide(c: CoefficientVector, alpha: float) -> CriterionTrial:
    """Add ``alpha`` to every coefficient; constant vectors are excluded."""
    return _rising_tide(c.values, alpha).trial(Criterion.D3)


def clone(c: CoefficientVector, m: int) -> CriterionTrial:
    """Concatenate ``m`` copies of the vector (total length m*N)."""
    return _clone(c.values, m).trial(Criterion.D4)


def bill_gates(c: CoefficientVector, i: int, beta: float, alpha: float) -> CriterionTrial:
    """Compare coefficient ``i`` grown by beta against grown by beta + alpha."""
    return _bill_gates(c.values, i, beta, (alpha,)).trial(Criterion.P1)


def babies(c: CoefficientVector, k: int = 1) -> CriterionTrial:
    """Append ``k`` zero coefficients; requires nonzero total mass."""
    return _babies(c.values, k).trial(Criterion.P2)


def reapply(trial: CriterionTrial) -> CoefficientVector:
    """Rebuild the after vector from the before vector and recorded params."""
    if trial.criterion is Criterion.P1:
        # before already carries +beta; re-adding alpha reproduces after
        av = trial.before.values.copy()
        av[trial.params["i"]] += trial.params["alpha"]
        return CoefficientVector(av)
    return CRITERIA[trial.criterion].transform(trial.before, **trial.params).after


def trial_ticks(spec: MeasureSpec) -> range:
    """The grid ticks ``spec``'s trial entries are drawn from: 0 through the lower
    of VALUE_MAX and the measure's ``value_cap``, starting instead at POSITIVE_FLOOR
    (so no entry is zeroed) for a ``strictly_positive`` measure."""
    d = MEASURES[spec.id]
    top = min(VALUE_MAX, d.value_cap(spec)) if d.value_cap else VALUE_MAX
    start = math.ceil(POSITIVE_FLOOR * _TICKS_PER_UNIT) if d.strictly_positive else 0
    return range(start, round(top * _TICKS_PER_UNIT) + 1)


def _philox_words(key) -> tuple[list[int], list[int]]:
    """Philox's counter and key words for ``key``, least significant first: the
    seed is the key, the tuple's further ints are counter words 1-3, and word 0
    is left to count the generator's own blocks, so no two keys' streams overlap."""
    seed, *rest = map(operator.index, key if isinstance(key, tuple) else (key,))
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")
    if seed >= 2**128:
        raise InvalidParams(f"seed must be below 2**128, got {seed}")
    if len(rest) > 3 or not all(0 <= n < 2**64 for n in rest):
        raise ValueError(f"a stream key is a seed and up to three ints in [0, 2**64), got {key}")
    return [0, *rest] + [0] * (3 - len(rest)), [seed % 2**64, seed >> 64]


def streams(keys) -> Iterator[np.random.Generator]:
    """The stream of :func:`stream` for each of ``keys`` in turn.

    Each yielded generator is one ``Generator`` set in place, so it is valid
    only until the next one is taken.  A bad key raises here, before anything
    is yielded.
    """
    words = [_philox_words(key) for key in keys]
    return _reseeded(np.random.Generator(np.random.Philox(0)), words)


def _reseeded(rng: np.random.Generator, words: list) -> Iterator[np.random.Generator]:
    """``rng`` set, for each (counter, key) of ``words`` in turn, to the state
    ``Philox(counter=counter, key=key)`` starts in."""
    for counter, key in words:
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": key},
            "buffer": [0] * 4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def stream(key) -> np.random.Generator:
    """The random stream for ``key``, a seed in [0, 2**128) or a tuple of a
    seed and up to three ints in [0, 2**64); every seeded draw in the package
    starts from one.  A key and a counter name a Philox stream directly, with
    no hash (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
    SC'11): ``stream((seed, a, b, c))`` is
    ``Generator(Philox(counter=(0, a, b, c), key=seed))``, and trailing zeros
    name the same stream."""
    return next(streams([key]))


def trial_words(key, start: int, rows: int) -> np.ndarray:
    """Draws ``start`` to ``start + rows - 1`` of ``stream(key)`` as a
    (rows, SLOTS) array of raw words: draw t is the stream's words
    [t * SLOTS, (t + 1) * SLOTS), reached by advancing its counter, so a
    draw's words do not depend on the block they are read in."""
    bits = stream(key).bit_generator
    bits.advance(start * SLOTS // 4)  # Philox counts 4-word blocks
    return bits.random_raw((rows, SLOTS))


def _below(words: np.ndarray, size) -> np.ndarray:
    """``floor(w * size / 2**64)`` for each word w, exactly, in uint64
    arithmetic: an int64 in [0, size) for each size in [1, 2**32]."""
    size = np.asarray(size, dtype=np.uint64)
    low = ((words & np.uint64(0xFFFFFFFF)) * size) >> np.uint64(32)
    return (((words >> np.uint64(32)) * size + low) >> np.uint64(32)).astype(np.int64)


def _uniform(words: np.ndarray) -> np.ndarray:
    """A float64 in [0, 1) from each word's top 53 bits."""
    return (words >> np.uint64(11)) * 2.0**-53


def draw_vector(
    ticks: range, rng: np.random.Generator | np.ndarray, rows: int | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw N_MIN..N_MAX entries from ``ticks``, as int64 grid ticks, from the
    next SLOTS raw words of the generator ``rng``; when 0 is in the range,
    each entry is zeroed with probability ZERO_PROB.

    Given ``rows``, ``rng`` is instead the raw words of ``rows`` draws, SLOTS
    per draw, and their vectors are drawn as one array program: the ticks
    padded with 0 to N_MAX entries, one row per draw, the lengths and the
    mask of the entries.
    """
    if rows is None:
        words = rng.bit_generator.random_raw((1, SLOTS))
    else:
        words = np.reshape(rng, (rows, SLOTS))
    n = N_MIN + _below(words[:, 0], N_MAX - N_MIN + 1)
    v = ticks.start + _below(words[:, 1 : 1 + N_MAX], len(ticks))
    entry = np.arange(N_MAX) < n[:, None]
    zero = ~entry
    if 0 in ticks:
        zero |= _uniform(words[:, 1 + N_MAX : _OWN]) < ZERO_PROB
    v[zero] = 0
    return v[0, : n[0]] if rows is None else (v, n, entry)


def _min_gap(top):
    return np.maximum(3, np.ceil(MIN_GAP_FRAC * top).astype(np.int64))


def _pick(mask: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Each row's column of a True entry of ``mask``, the k-th for k below the
    row's count of them (column 0 in a row without one)."""
    k = _below(words, np.maximum(mask.sum(1), 1))
    return np.argmax(mask & (np.cumsum(mask, 1) == k[:, None] + 1), axis=1)


def _rows(build, v: np.ndarray, n: np.ndarray, ok, *params) -> list:
    """``build(row, *the row's params)`` for each row of ``v`` cut to its length
    ``n`` and turned into float64, or None where ``ok`` (if given) is False."""
    ok = [True] * len(n) if ok is None else ok.tolist()
    v, cols = v * TICK, [p.tolist() for p in params]
    return [
        build(v[r, :k], *(c[r] for c in cols)) if good else None
        for r, (k, good) in enumerate(zip(n.tolist(), ok))
    ]


def _draw_robin_hood(ticks: range, words: np.ndarray) -> list:
    v, n, entry = draw_vector(ticks, words, len(words))
    own, rows = words[:, _OWN:], np.arange(len(v))
    min_gap = _min_gap(v.max(1))[:, None]
    receivers = entry & (v <= v.max(1, keepdims=True) - min_gap)  # none in an all-zero vector
    j = _pick(receivers, own[:, 0])
    i = _pick(entry & (v >= v[rows, j][:, None] + min_gap), own[:, 1])
    gap = v[rows, i] - v[rows, j]
    alpha = np.rint((0.2 + 0.6 * _uniform(own[:, 2])) * gap / 2).astype(np.int64)
    alpha = np.minimum(np.maximum(alpha, 1), (gap - 1) // 2)
    return _rows(_robin_hood, v, n, receivers.any(1), i, j, alpha * TICK)


def _draw_rising_tide(ticks: range, words: np.ndarray) -> list:
    v, n, entry = draw_vector(ticks, words, len(words))
    top = v.max(1)
    spread = top - np.where(entry, v, top[:, None]).min(1)  # 0 for the all-zero vector
    alpha = np.rint((0.05 + 0.45 * _uniform(words[:, _OWN])) * top + 0.01 * _TICKS_PER_UNIT)
    alpha = np.maximum(alpha.astype(np.int64), 1)
    return _rows(_rising_tide, v, n, spread >= _min_gap(top), alpha * TICK)


#: D2's alphas are log-uniform on [0.1, 10] without [0.99, 1.01]: these logs
#: bound the two intervals.
_LOG_ALPHAS = (math.log(0.1), math.log(0.99), math.log(1.01), math.log(10.0))


def _draw_scale(ticks: range, words: np.ndarray) -> list:
    v, n, _ = draw_vector(ticks, words, len(words))
    low, gap_low, gap_high, high = _LOG_ALPHAS
    x = low + _uniform(words[:, _OWN]) * (gap_low - low + high - gap_high)
    return _rows(_scale, v, n, None, np.exp(np.where(x < gap_low, x, x + gap_high - gap_low)))


def _bill_gates_groups(before: np.ndarray, i: int, l1: int, top: int, at_i: int) -> TrialGroup:
    """The policy beta's group, then the ``P1_BETA_SWEEP`` groups, each with the
    ``P1_ALPHA_MULTIPLIERS`` alphas, for a vector of l1 mass ``l1``, largest
    entry ``top`` and entry ``at_i`` at i, in ticks.  The policy beta,
    10 * (l1 + max - c_i), makes the grown coefficient dominate the vector."""
    alphas = [max(1, round(m * l1)) * TICK for m in P1_ALPHA_MULTIPLIERS]
    betas = [10 * (l1 + top - at_i)] + [max(1, round(m * l1)) for m in P1_BETA_SWEEP]
    groups = (_bill_gates(before, i, beta * TICK, alphas) for beta in betas)
    return next(groups)._replace(later=groups)


def _draw_bill_gates(ticks: range, words: np.ndarray) -> list:
    v, n, _ = draw_vector(ticks, words, len(words))
    i, l1 = _below(words[:, _OWN], n), v.sum(1)
    at_i = v[np.arange(len(v)), i]
    return _rows(_bill_gates_groups, v, n, l1 > 0, i, l1, v.max(1), at_i)


def _draw_clone(ticks: range, words: np.ndarray) -> list:
    v, n, _ = draw_vector(ticks, words, len(words))
    return _rows(_clone, v, n, None, 2 + _below(words[:, _OWN], 3))


def _draw_babies(ticks: range, words: np.ndarray) -> list:
    v, n, _ = draw_vector(ticks, words, len(words))
    return _rows(_babies, v, n, v.any(1), 1 + _below(words[:, _OWN], 3))


@dataclass(frozen=True)
class CriterionDef:
    """Everything specific to one criterion.

    ``transform(before, **params)`` builds the trial that ``params`` record;
    ``draw(ticks, words)`` draws, from each row of a (rows, SLOTS) array of raw
    words, a random ``TrialGroup`` on the row's ``draw_vector`` vector from a
    tick range, or None when that vector is ineligible and must be redrawn.
    """

    relation: Relation
    transform: Callable[..., CriterionTrial]
    draw: Callable[[range, np.ndarray], list[TrialGroup | None]]


CRITERIA: dict[Criterion, CriterionDef] = {
    Criterion.D1: CriterionDef(Relation.AFTER_STRICTLY_LESS, robin_hood, _draw_robin_hood),
    Criterion.D2: CriterionDef(Relation.EQUAL, scale, _draw_scale),
    Criterion.D3: CriterionDef(Relation.AFTER_STRICTLY_LESS, rising_tide, _draw_rising_tide),
    Criterion.D4: CriterionDef(Relation.EQUAL, clone, _draw_clone),
    Criterion.P1: CriterionDef(Relation.AFTER_STRICTLY_GREATER, bill_gates, _draw_bill_gates),
    Criterion.P2: CriterionDef(Relation.AFTER_STRICTLY_GREATER, babies, _draw_babies),
}


def draw_trial(
    criterion: Criterion,
    ticks: range,
    rng: np.random.Generator | Callable[[int], np.ndarray],
    rows: int | None = None,
) -> TrialGroup | list[TrialGroup | GenerationFailure]:
    """Draw the groups of trials one seeded draw tests, each attempt from the
    next SLOTS raw words of the generator ``rng``, redrawing ineligible
    vectors: the first group, holding the others lazily in ``later``.

    The criterion holds on the draw when every trial of some group holds.
    Every criterion but P1 draws one group of one trial.  P1 ("for some
    beta, for every alpha") draws one group per beta, the policy beta
    first and then ``P1_BETA_SWEEP``, each with the ``P1_ALPHA_MULTIPLIERS``
    alphas.

    Given ``rows``, the first groups of ``rows`` draws are drawn as one array
    program per attempt and returned as a list: ``rng(a)`` is then attempt
    a's raw words, one (rows, SLOTS) row per draw, and only the draws still
    ineligible are redrawn, from the next attempt's rows.  A draw ineligible
    in all MAX_RETRIES attempts gets a ``GenerationFailure`` in its place,
    where a single draw raises it.
    """
    single = rows is None
    words_of = (lambda _: rng.bit_generator.random_raw((1, SLOTS))) if single else rng
    draw, out = CRITERIA[criterion].draw, [None] * (1 if single else rows)
    todo = np.arange(len(out))
    for attempt in range(MAX_RETRIES):
        for r, group in zip(todo.tolist(), draw(ticks, words_of(attempt)[todo])):
            out[r] = group
        todo = np.flatnonzero([group is None for group in out])
        if todo.size == 0:
            break
    else:
        failure = GenerationFailure(
            f"could not draw an eligible {criterion} trial in {MAX_RETRIES} attempts"
        )
        out = [failure if group is None else group for group in out]
    if not single:
        return out
    if isinstance(out[0], GenerationFailure):
        raise out[0]
    return out[0]


def sample_trial(
    criterion: Criterion, ticks: range = VALUE_TICKS, seed: int = 0
) -> CriterionTrial:
    """One seeded trial of :func:`draw_trial`'s group (for P1, a random alpha)."""
    rng = stream(seed)
    group = draw_trial(criterion, ticks, rng)
    k = int(rng.choice(len(group.afters))) if len(group.afters) > 1 else 0
    return group.trial(criterion, k)
