"""The six criterion transformations as explicit (before, after) pairs.

Each criterion is one array program (``CriterionDef.apply``) on a block of
vectors padded to one width: it builds the before and after rows and states
each precondition as one mask.  The public constructors run it on one row
and raise ``InvalidTransform`` for a False precondition; the search runs it
on a block of draws, and ``CRITERIA`` defines each criterion once: its
relation, its program and its random draw.

A draw is an array program over a block of draws: each attempt at a draw
takes SLOTS raw 64-bit words, and each criterion's ``draw`` turns a
(rows, SLOTS) block of them into a ``TrialBlock``: the vectors in grid
ticks, their lengths, the parameters as arrays and an eligibility mask,
with integers and uniforms taken from the words by exact integer rules, its
vectors by ``draw_vector``.  ``draw_trial`` owns the words' layout: attempt
a of draw t is words [t * SLOTS, (t + 1) * SLOTS) of the stream keyed
(*key, a) (``trial_words``), read WORD_TRIALS draws at a time, and only the
ineligible rows are redrawn from the next attempt's words.  A block's
trials are built as ``TrialRows`` one part at a time, the draws of one
before length together (``TrialBlock.parts``), and a part is sized by the
float64 entries its rows hold, which each criterion's ``lengths`` states.

Draws reason in integer grid ticks (multiples of ``TICK`` = 2**-20) from
the range ``trial_ticks`` gives, and turn them into float64 once, where
their trials are built.  Sums of grid values up to VALUE_MAX are exact in
float64, so Robin Hood and Babies conserve the l1 mass bit-exactly under
any summation order.

Everything here is pure construction; random state is caller-supplied and
never shared, so independent seeds are safe to use concurrently.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache, partial, reduce
from typing import Callable, Iterator

import numpy as np

from .errors import GenerationFailure, InvalidParams, InvalidTransform
from .measures import MEASURES, CoefficientVector, MeasureSpec

__all__ = [
    "Criterion",
    "Relation",
    "CriterionDef",
    "CRITERIA",
    "CriterionTrial",
    "TrialBlock",
    "TrialRows",
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
    "raw_words",
    "stream",
]

#: Grid resolution for generated coefficients and transfer amounts.
TICK = 2.0**-20
_TICKS_PER_UNIT = 2**20

N_MIN, N_MAX = 2, 64
VALUE_MAX = 10.0
#: The default trial ticks: 0 through VALUE_MAX.
VALUE_TICKS = range(round(VALUE_MAX * _TICKS_PER_UNIT) + 1)
ZERO_PROB = 0.2
#: Exactly the words w with ``_uniform(w) < ZERO_PROB``: w's top 53 bits, an
#: integer, are below ZERO_PROB * 2**53 (exact) when below its ceiling.
_ZERO_WORDS = np.uint64(math.ceil(ZERO_PROB * 2**53) << 11)
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
#: Draws whose raw words are read at once (SLOTS words each), so that a
#: block's words are never held whole.
WORD_TRIALS = 128
#: Float64 entries of the trial rows built at once (``TrialBlock.parts``):
#: a part's draws times its rows per draw times its longest row.  A D4 row
#: is padded to m * n, up to 4n, so this is what a D4 part of 2048 before
#: entries builds, and other criteria's parts hold more draws.
PART_ENTRIES = 16384
#: Parameters that must be integers: indices and counts.
_INTEGER_PARAMS = frozenset("ijmk")


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


@dataclass(frozen=True)
class TrialRows:
    """The built trials of some draws, one group per draw.

    ``rows[r, 0, :lengths[r, 0]]`` is draw r's before vector and
    ``rows[r, 1 + k, :lengths[r, 1 + k]]`` its k-th after vector; each of
    ``params`` holds a value per draw, or per draw and k.  ``ok[r]`` is False
    for a draw that was never eligible or fails a precondition.
    ``later(picks)``, if given, is the further groups of the draws ``picks``
    (P1's beta sweep) as a ``TrialBlock`` of one draw per group, the same
    number per pick, each pick's together and in order; its trials are
    built a part at a time, as any block's are.
    """

    rows: np.ndarray
    lengths: np.ndarray
    params: dict[str, np.ndarray]
    ok: np.ndarray
    later: Callable[[np.ndarray], TrialBlock] | None = None

    def __len__(self) -> int:
        return len(self.ok)

    def parts(self, criterion: Criterion) -> Iterator[tuple[np.ndarray, TrialRows]]:
        """Its draws, already built, as one part (see ``TrialBlock.parts``)."""
        yield np.arange(len(self)), self

    def trial(self, criterion: Criterion, r: int = 0, k: int = 0) -> CriterionTrial:
        """Draw r's trial against its after vector k."""
        rows, lengths = self.rows[r], self.lengths[r]
        before, after = (CoefficientVector(rows[j, : lengths[j]]) for j in (0, k + 1))
        params = {name: p[r if p.ndim == 1 else (r, k)].item() for name, p in self.params.items()}
        return CriterionTrial(criterion, before, after, params)


@dataclass(frozen=True)
class TrialBlock:
    """A block of draws, kept compact: the vectors as integer grid ticks,
    one (N_MAX,) row per draw, 0 past each length ``n``; the criterion's
    parameters, one array each with a value (or a row) per draw; and which
    draws are eligible.

    Its trials are built only a part at a time (``parts``), so a block's
    memory grows with its draws, not with its padded trial rows.
    """

    v: np.ndarray
    n: np.ndarray
    params: dict[str, np.ndarray]
    eligible: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def take(self, at, width: int = N_MAX) -> TrialBlock:
        """The draws ``at``, their vectors cut to ``width`` entries."""
        params = {name: p[at] for name, p in self.params.items()}
        return TrialBlock(self.v[at, :width], self.n[at], params, self.eligible[at])

    def put(self, at, other: TrialBlock) -> None:
        """Write the draws of ``other`` over the draws ``at``."""
        self.v[at], self.n[at], self.eligible[at] = other.v, other.n, other.eligible
        for name, p in other.params.items():
            self.params[name][at] = p

    def parts(self, criterion: Criterion) -> Iterator[tuple[np.ndarray, TrialRows]]:
        """The draws in order of before length, each part's trial rows at
        most PART_ENTRIES float64 entries (or one draw's), all draws of a
        length in one part unless they would hold more: each part's indices
        and its first group of trials, built only when the part is taken."""
        order = np.argsort(self.n, kind="stable")
        lengths = CRITERIA[criterion].lengths(self.n, **self.params)[order]
        starts = [0, *(np.flatnonzero(np.diff(self.n[order])) + 1).tolist()]
        tops = np.maximum.reduceat(lengths.max(1), starts).tolist()  # each length's widest row
        cuts, start, width = [], 0, 0
        for stop, end, top in zip(starts, [*starts[1:], len(order)], tops):
            width = max(width, top)
            if (end - start) * lengths.shape[1] * width > PART_ENTRIES and stop > start:
                cuts.append(stop)
                start, width = stop, top
            step = max(1, PART_ENTRIES // (lengths.shape[1] * top))
            cuts += range(start + step, end, step)  # more draws of this length than fit
            start = cuts[-1] if cuts else 0
        for at in np.split(order, cuts):
            yield at, _trials(criterion, self.take(at, int(self.n[at[-1]])))

    def trial(self, criterion: Criterion, r: int = 0, k: int = 0) -> CriterionTrial:
        """Draw r's trial against its after vector k, built alone."""
        return _trials(criterion, self.take([r])).trial(criterion, 0, k)


def _at(v: np.ndarray, i: np.ndarray) -> np.ndarray:
    return v[np.arange(len(v)), i]


def _pair(v: np.ndarray, after: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The rows of a before block ``v`` and an after block, 0 past their
    widths up to the longest of ``lengths``."""
    rows = np.zeros((len(v), 2, max(v.shape[1], int(lengths.max()))))
    rows[:, 0, : v.shape[1]], rows[:, 1, : after.shape[1]] = v, after
    return rows


def _robin_hood(v, lengths, i, j, alpha):
    after, ci, cj = v.copy(), _at(v, i), _at(v, j)
    after[np.arange(len(v)), i] -= alpha
    after[np.arange(len(v)), j] += alpha
    checks = {"c[i] > c[j]": ci > cj}
    checks["0 < alpha < (c[i]-c[j])/2"] = (0 < alpha) & (alpha < (ci - cj) / 2)
    return checks, _pair(v, after, lengths)


def _scale(v, lengths, alpha):
    checks = {"alpha > 0": alpha > 0, "alpha != 1, the trivial case": alpha != 1.0}
    return checks, _pair(v, alpha[:, None] * v, lengths)


def _rising_tide(v, lengths, alpha):
    entry = np.arange(v.shape[1]) < lengths[:, :1]
    constant = np.where(entry, v, -np.inf).max(1) == np.where(entry, v, np.inf).min(1)
    checks = {"alpha > 0": alpha > 0, "a non-constant vector": ~constant}
    return checks, _pair(v, v + alpha[:, None], lengths)


def _clone(v, lengths, m):
    # after entry p is v[p mod n]; the entries past its length m * n are never read
    at = np.arange(max(v.shape[1], int(lengths.max())))
    return {"m >= 2": m >= 2}, _pair(v, np.take_along_axis(v, at % lengths[:, :1], 1), lengths)


def _bill_gates(v, lengths, i, beta, alpha):
    """Coefficient ``i`` grown by beta, against grown by beta + each alpha."""
    alpha = np.reshape(alpha, (len(v), -1))
    rows = np.repeat(v[:, None], 1 + alpha.shape[1], 1)
    rows[np.arange(len(v)), :, i] += beta[:, None]
    rows[np.arange(len(v)), 1:, i] += alpha
    return {"beta > 0": beta > 0, "alpha > 0": (alpha > 0).all(1)}, rows


def _babies(v, lengths, k):
    # v is 0 past its length, and so is its after row past its width
    return {"k >= 1": k >= 1, "nonzero total mass": v.any(1)}, _pair(v, v, lengths)


def _checked(d: CriterionDef, n: int, params: dict) -> str:
    """``params`` as ``d``'s messages show them, once they are the parameters
    of its ``apply`` and pass its type, int64 and index checks."""
    got = ", ".join(f"{name}={value}" for name, value in params.items())
    names = list(inspect.signature(d.apply).parameters)[2:]  # after v and lengths
    if set(params) != set(names):
        raise InvalidTransform(f"{d.name} takes {', '.join(names)}, got {got or 'no parameters'}")
    for name, value in params.items():
        if name in _INTEGER_PARAMS and not isinstance(value, (int, np.integer)):
            raise InvalidTransform(f"{d.name} requires an integer {name}, got {got}")
        if name in _INTEGER_PARAMS and not -(2**63) <= value < 2**63:
            raise InvalidTransform(f"{d.name} requires an int64 {name}, got {got}")
        if name in ("i", "j") and not 0 <= value < n:
            raise InvalidTransform(f"{d.name} requires 0 <= {name} < N = {n}, got {got}")
    return got


def _transform(criterion: Criterion, c: CoefficientVector, **params) -> CriterionTrial:
    """``criterion``'s program on the one row ``c``: its trial, or the
    ``InvalidTransform`` of its first False precondition or of a built row
    past the float64 range."""
    d = CRITERIA[criterion]
    got = _checked(d, len(c), params)
    arrays = {
        name: np.array([value], dtype=np.int64 if name in _INTEGER_PARAMS else np.float64)
        for name, value in params.items()
    }
    with np.errstate(over="ignore", invalid="ignore"):
        checks, rows, lengths = d.build(c.values[None], np.array([len(c)]), **arrays)
    for condition, holds in checks.items():
        if not holds[0]:
            raise InvalidTransform(f"{d.name} requires {condition}, got {got}")
    if not np.isfinite(rows).all():
        raise InvalidTransform(f"{d.name} leaves the float64 range, got {got}")
    return TrialRows(rows, lengths, arrays, np.ones(1, bool)).trial(criterion)


def robin_hood(c: CoefficientVector, i: int, j: int, alpha: float) -> CriterionTrial:
    """Move ``alpha`` from coefficient ``i`` to the smaller coefficient ``j``."""
    return _transform(Criterion.D1, c, i=i, j=j, alpha=alpha)


def scale(c: CoefficientVector, alpha: float) -> CriterionTrial:
    """Multiply every coefficient by ``alpha`` (positive, not the trivial 1)."""
    return _transform(Criterion.D2, c, alpha=alpha)


def rising_tide(c: CoefficientVector, alpha: float) -> CriterionTrial:
    """Add ``alpha`` to every coefficient; constant vectors are excluded."""
    return _transform(Criterion.D3, c, alpha=alpha)


def clone(c: CoefficientVector, m: int) -> CriterionTrial:
    """Concatenate ``m`` copies of the vector (total length m*N)."""
    return _transform(Criterion.D4, c, m=m)


def bill_gates(c: CoefficientVector, i: int, beta: float, alpha: float) -> CriterionTrial:
    """Compare coefficient ``i`` grown by beta against grown by beta + alpha."""
    return _transform(Criterion.P1, c, i=i, beta=beta, alpha=alpha)


def babies(c: CoefficientVector, k: int = 1) -> CriterionTrial:
    """Append ``k`` zero coefficients; requires nonzero total mass."""
    return _transform(Criterion.P2, c, k=k)


def reapply(trial: CriterionTrial) -> CoefficientVector:
    """Rebuild the after vector from the before vector and recorded params."""
    if "catalog" in trial.params:
        raise InvalidTransform(f"catalog pair {trial.params['catalog']} records no parameters")
    if trial.criterion is Criterion.P1:
        # before already carries +beta; re-adding alpha reproduces after
        d, av = CRITERIA[Criterion.P1], trial.before.values.copy()
        got = _checked(d, len(av), trial.params)
        with np.errstate(over="ignore", invalid="ignore"):
            av[trial.params["i"]] += trial.params["alpha"]
        if not np.isfinite(av).all():
            raise InvalidTransform(f"{d.name} leaves the float64 range, got {got}")
        return CoefficientVector(av)
    return _transform(trial.criterion, trial.before, **trial.params).after


def trial_ticks(spec: MeasureSpec) -> range:
    """The grid ticks ``spec``'s trial entries are drawn from: 0 through the lower
    of VALUE_MAX and the measure's ``value_cap``, starting instead at POSITIVE_FLOOR
    (so no entry is zeroed) for a ``strictly_positive`` measure."""
    d = MEASURES[spec.id]
    top = min(VALUE_MAX, d.value_cap(spec)) if d.value_cap else VALUE_MAX
    start = math.ceil(POSITIVE_FLOOR * _TICKS_PER_UNIT) if d.strictly_positive else 0
    return range(start, round(top * _TICKS_PER_UNIT) + 1)


def _philox_state(key, block: int = 0) -> dict:
    """The state ``Philox(counter=(block, a, b, c), key=seed)`` starts in, for
    the key (seed, a, b, c) of ``stream``: every Philox state in the package is
    set from here.  Counter word 0 counts the generator's own 4-word blocks, so
    no two keys' streams overlap, and ``block`` starts it past the first ones."""
    seed, *rest = map(operator.index, key if isinstance(key, tuple) else (key,))
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")
    if seed >= 2**128:
        raise InvalidParams(f"seed must be below 2**128, got {seed}")
    if len(rest) > 3 or not all(0 <= n < 2**64 for n in rest):
        raise ValueError(f"a stream key is a seed and up to three ints in [0, 2**64), got {key}")
    counter = [block, *rest] + [0] * (3 - len(rest))
    return {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": [seed % 2**64, seed >> 64]},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@cache
def _unhashed():
    """Zero words, so ``Philox(_unhashed())`` skips ``Philox(0)``'s hash (~10 us);
    made on first use, so importing the package loads no ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class Unhashed(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)
    return Unhashed()


def stream(key) -> np.random.Generator:
    """The random stream for ``key``, a seed in [0, 2**128) or a tuple of a
    seed and up to three ints in [0, 2**64).  A key and a counter name a
    Philox stream directly, with no hash (Salmon et al., "Parallel Random
    Numbers: As Easy as 1, 2, 3", SC'11): ``stream((seed, a, b, c))`` is
    ``Generator(Philox(counter=(0, a, b, c), key=seed))``, and trailing zeros
    name the same stream.  ``raw_words`` reads the same streams' words."""
    rng = np.random.Generator(np.random.Philox(_unhashed()))
    rng.bit_generator.state = _philox_state(key)
    return rng


def raw_words(keys, block: int, count: int) -> np.ndarray:
    """A (len(keys), count) uint64 array: row k is ``count`` raw words of
    ``stream(keys[k])`` from its 4-word block ``block`` on, read by one bare
    ``Philox`` set to each key's state in turn.  A bad key raises before any
    word is read."""
    states = [_philox_state(key, block) for key in keys]
    bits, words = np.random.Philox(_unhashed()), np.empty((len(states), count), np.uint64)
    for row, state in zip(words, states):
        bits.state = state
        row[:] = bits.random_raw(count)
    return words


def trial_words(key, start: int, rows: int) -> np.ndarray:
    """Draws ``start`` to ``start + rows - 1`` of ``stream(key)`` as a
    (rows, SLOTS) array of raw words: draw t is the stream's words
    [t * SLOTS, (t + 1) * SLOTS), read from its block t * SLOTS // 4, so a
    draw's words do not depend on the block they are read in."""
    return raw_words([key], start * SLOTS // 4, rows * SLOTS).reshape(rows, SLOTS)


def _below(words: np.ndarray, size) -> np.ndarray:
    """``floor(w * size / 2**64)`` for each word w, exactly, in uint64 arithmetic
    in place: an int64 view, in [0, size) for each size in [1, 2**32]."""
    size, shift = np.asarray(size, dtype=np.uint64), np.uint64(32)
    low, high = words & np.uint64(0xFFFFFFFF), words >> shift
    low *= size
    high *= size
    high += np.right_shift(low, shift, out=low)
    return np.right_shift(high, shift, out=high).view(np.int64)


def _uniform(words: np.ndarray, shifted: np.ndarray | None = None) -> np.ndarray:
    """A float64 in [0, 1) from each word's top 53 bits, bit for bit what
    ``Generator.random`` makes of it.  The shifted words go to ``shifted``
    (``words`` itself, to shift in place) or to a new array."""
    return np.right_shift(words, np.uint64(11), out=shifted) * 2.0**-53


def draw_vector(ticks: range, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw N_MIN..N_MAX entries from ``ticks``, as int64 grid ticks, from each
    row of SLOTS raw words; when 0 is in the range, each entry is zeroed with
    probability ZERO_PROB.  Returns the ticks padded with 0 to N_MAX entries,
    one row per draw, the lengths and the mask of the entries."""
    n = N_MIN + _below(words[:, 0], N_MAX - N_MIN + 1)
    v = ticks.start + _below(words[:, 1 : 1 + N_MAX], len(ticks))
    entry = np.arange(N_MAX) < n[:, None]
    zero = ~entry
    if 0 in ticks:
        zero |= words[:, 1 + N_MAX : _OWN] < _ZERO_WORDS
    v[zero] = 0
    return v, n, entry


def _min_gap(top):
    return np.maximum(3, np.ceil(MIN_GAP_FRAC * top).astype(np.int64))


def _pick(mask: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Each row's column of a True entry of ``mask``, the k-th for k below the
    row's count of them (column 0 in a row without one)."""
    k = _below(words, np.maximum(mask.sum(1), 1))
    return np.argmax(np.cumsum(mask, 1) > k[:, None], axis=1)


def _draw_robin_hood(ticks: range, words: np.ndarray) -> TrialBlock:
    v, n, entry = draw_vector(ticks, words)
    own = words[:, _OWN:]
    min_gap = _min_gap(v.max(1))[:, None]
    receivers = entry & (v <= v.max(1, keepdims=True) - min_gap)  # none in an all-zero vector
    j = _pick(receivers, own[:, 0])
    i = _pick(entry & (v >= _at(v, j)[:, None] + min_gap), own[:, 1])
    gap = _at(v, i) - _at(v, j)
    alpha = np.rint((0.2 + 0.6 * _uniform(own[:, 2])) * gap / 2).astype(np.int64)
    alpha = np.minimum(np.maximum(alpha, 1), (gap - 1) // 2)
    return TrialBlock(v, n, {"i": i, "j": j, "alpha": alpha * TICK}, receivers.any(1))


def _draw_rising_tide(ticks: range, words: np.ndarray) -> TrialBlock:
    v, n, entry = draw_vector(ticks, words)
    top = v.max(1)
    spread = top - np.where(entry, v, top[:, None]).min(1)  # 0 for the all-zero vector
    alpha = np.rint((0.05 + 0.45 * _uniform(words[:, _OWN])) * top + 0.01 * _TICKS_PER_UNIT)
    alpha = np.maximum(alpha.astype(np.int64), 1)
    return TrialBlock(v, n, {"alpha": alpha * TICK}, spread >= _min_gap(top))


#: D2's alphas are log-uniform on [0.1, 10] without [0.99, 1.01]: these logs
#: bound the two intervals.
_LOG_ALPHAS = (math.log(0.1), math.log(0.99), math.log(1.01), math.log(10.0))


def _draw_scale(ticks: range, words: np.ndarray) -> TrialBlock:
    v, n, _ = draw_vector(ticks, words)
    low, gap_low, gap_high, high = _LOG_ALPHAS
    x = low + _uniform(words[:, _OWN]) * (gap_low - low + high - gap_high)
    alpha = np.exp(np.where(x < gap_low, x, x + gap_high - gap_low))
    return TrialBlock(v, n, {"alpha": alpha}, np.ones(len(v), bool))


def _draw_bill_gates(ticks: range, words: np.ndarray) -> TrialBlock:
    """Coefficient i of the vector, with the ``P1_ALPHA_MULTIPLIERS`` alphas and
    a column per group of betas: the policy beta, 10 * (l1 + max - c_i) in
    ticks, which makes the grown coefficient dominate, then ``P1_BETA_SWEEP``."""
    v, n, _ = draw_vector(ticks, words)
    i, l1 = _below(words[:, _OWN], n), v.sum(1)
    alpha = np.maximum(1, np.rint(np.multiply.outer(l1, P1_ALPHA_MULTIPLIERS))) * TICK
    sweep = np.maximum(1, np.rint(np.multiply.outer(l1, P1_BETA_SWEEP)))
    beta = np.column_stack([10 * (l1 + v.max(1) - _at(v, i)), sweep]) * TICK
    return TrialBlock(v, n, {"i": i, "beta": beta, "alpha": alpha}, l1 > 0)


def _draw_clone(ticks: range, words: np.ndarray) -> TrialBlock:
    v, n, _ = draw_vector(ticks, words)
    return TrialBlock(v, n, {"m": 2 + _below(words[:, _OWN], 3)}, np.ones(len(v), bool))


def _draw_babies(ticks: range, words: np.ndarray) -> TrialBlock:
    v, n, _ = draw_vector(ticks, words)
    return TrialBlock(v, n, {"k": 1 + _below(words[:, _OWN], 3)}, v.any(1))


@dataclass(frozen=True)
class CriterionDef:
    """Everything specific to one criterion.

    ``lengths(n, **params)`` is the one statement of how long a draw's
    trial rows are: a (B, 1 + K) array, its before length ``n`` and its K
    after lengths, which are m * n for D4, n + k for P2 and n for the others.
    ``apply(v, lengths, **params)`` is the transformation on a (B, W)
    float64 block of vectors, 0 past their lengths ``lengths[:, 0]``, with
    one array per parameter: it returns the preconditions as
    {condition: mask} and the (B, 1 + K, W') before and after rows, W' the
    wider of W and the longest of ``lengths``.  ``draw(ticks, words)`` draws
    a ``TrialBlock`` from a (rows, SLOTS) array of raw words.  ``grouped``
    names the parameter with one column per group of trials (P1's beta).
    """

    name: str
    relation: Relation
    apply: Callable[..., tuple]
    draw: Callable[[range, np.ndarray], TrialBlock]
    grouped: str | None = None
    lengths: Callable[..., np.ndarray] = lambda n, **_: np.column_stack([n, n])

    def build(self, v: np.ndarray, n: np.ndarray, **params) -> tuple:
        """The preconditions, rows and lengths of ``apply`` on the block ``v``."""
        lengths = self.lengths(n, **params)
        return *self.apply(v, lengths, **params), lengths


_LESS, _EQUAL, _GREATER = Relation
CRITERIA: dict[Criterion, CriterionDef] = {
    Criterion.D1: CriterionDef("robin hood", _LESS, _robin_hood, _draw_robin_hood),
    Criterion.D2: CriterionDef("scaling", _EQUAL, _scale, _draw_scale),
    Criterion.D3: CriterionDef("rising tide", _LESS, _rising_tide, _draw_rising_tide),
    Criterion.D4: CriterionDef(
        "cloning", _EQUAL, _clone, _draw_clone, lengths=lambda n, m: np.column_stack([n, m * n])
    ),
    Criterion.P1: CriterionDef(
        "bill gates", _GREATER, _bill_gates, _draw_bill_gates, "beta",
        lambda n, alpha, **_: np.repeat(n[:, None], 1 + np.size(alpha) // len(n), 1),
    ),
    Criterion.P2: CriterionDef(
        "babies", _GREATER, _babies, _draw_babies, lengths=lambda n, k: np.column_stack([n, n + k])
    ),
}


def _later(criterion: Criterion, block: TrialBlock, picks: np.ndarray) -> TrialBlock:
    """The later groups of the draws ``picks`` of ``block`` as a block of
    their own, one draw per group: each pick's groups together, in order."""
    grouped = CRITERIA[criterion].grouped
    later = block.take(np.repeat(picks, block.params[grouped].shape[1] - 1))
    later.params[grouped] = block.params[grouped][picks, 1:].reshape(-1, 1)
    return later


def _trials(criterion: Criterion, block: TrialBlock) -> TrialRows:
    """The first group of trials of each draw of ``block``.  A draw is
    ``ok`` when it is eligible and meets every precondition."""
    d = CRITERIA[criterion]
    params = block.params
    if d.grouped:
        params = {**params, d.grouped: params[d.grouped][:, 0]}
    checks, rows, lengths = d.build(block.v * TICK, block.n, **params)
    ok = reduce(operator.and_, checks.values(), block.eligible)
    sweep = d.grouped and block.params[d.grouped].shape[1] > 1  # groups after the first
    return TrialRows(rows, lengths, params, ok, partial(_later, criterion, block) if sweep else None)


def generation_failure(criterion: Criterion) -> GenerationFailure:
    """The error of a draw that is ineligible in all MAX_RETRIES attempts."""
    message = f"could not draw an eligible {criterion} trial in {MAX_RETRIES} attempts"
    return GenerationFailure(message)


def draw_trial(criterion: Criterion, ticks: range, key: tuple, start: int, rows: int) -> TrialBlock:
    """Draws ``start`` to ``start + rows - 1`` from ``ticks`` as one block,
    its ticks stored as int32 (every tick is below 2**31).  Attempt a of
    draw t is ``trial_words((*key, a), t, 1)``, so a draw does not depend on
    the block it is drawn in.  The words are read WORD_TRIALS draws at a
    time, and each chunk's draws are written into the block before the next
    chunk is read; a draw ineligible at attempt a is redrawn from attempt
    a + 1's words, and only those rows are.  A draw ineligible in all
    MAX_RETRIES attempts stays ineligible, and its trials are not ``ok``.

    The criterion holds on a draw when every trial of some group holds.
    Every criterion but P1 draws one group of one trial.  P1 ("for some
    beta, for every alpha") draws one group per beta, the policy beta
    first and then ``P1_BETA_SWEEP`` (its ``TrialRows``' ``later``), each
    with the ``P1_ALPHA_MULTIPLIERS`` alphas.
    """
    if rows < 1:
        raise InvalidParams(f"a block needs at least one draw, got rows={rows}")
    draw, block = CRITERIA[criterion].draw, None
    for t in range(start, start + rows, WORD_TRIALS):
        size = min(WORD_TRIALS, start + rows - t)
        chunk = draw(ticks, trial_words((*key, 0), t, size))
        for attempt in range(1, MAX_RETRIES):
            todo = np.flatnonzero(~chunk.eligible)
            if todo.size == 0:
                break
            chunk.put(todo, draw(ticks, trial_words((*key, attempt), t, size)[todo]))
        if block is None:  # rows draws of the chunk's kind, for ``put`` to fill
            block = replace(chunk.take(np.zeros(rows, int), 0), v=np.empty((rows, N_MAX), np.int32))
        block.put(slice(t - start, t - start + size), chunk)
    return block


def sample_trial(
    criterion: Criterion, ticks: range = VALUE_TICKS, seed: int = 0
) -> CriterionTrial:
    """The first group of draw 0 of ``draw_trial`` on the key ``(seed,)``; for
    P1, its alpha picked by the first word of draw 1, which the draw does
    not read."""
    trials = _trials(criterion, draw_trial(criterion, ticks, (seed,), 0, 1))
    if not trials.ok[0]:
        raise generation_failure(criterion)
    k = int(_below(trial_words((seed, 0), 1, 1)[:, 0], trials.rows.shape[1] - 1)[0])
    return trials.trial(criterion, 0, k)
