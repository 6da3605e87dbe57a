"""The fifteen sparsity measures and the Lorenz curve.

Every measure maps a vector of non-negative coefficient magnitudes to a
single real number that grows with sparsity (count and norm measures are
negated accordingly).  All evaluations sort the coefficients ascending
first, which makes permutation invariance bit-exact.

Each measure is defined once, as a ``MeasureDef`` entry in ``MEASURES``.

Conventions that the formulas leave open:

* natural logarithm everywhere;
* ``0 * log 0 == 0`` for the normalized Shannon entropy;
* the Gaussian entropy and the modified Shannon entropy sum over nonzero
  coefficients only, mirroring the explicit ``c_j != 0`` restriction of
  the negative-exponent power sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DegenerateInput, InvalidParams, SparsemetricsError

__all__ = [
    "Measure",
    "MeasureSpec",
    "MeasureDef",
    "MEASURES",
    "CoefficientVector",
    "LorenzCurve",
    "MEASURE_ORDER",
    "evaluate",
    "evaluate_block",
    "gini",
    "lorenz_curve",
]


class Measure(str, Enum):
    """Identifiers for the fifteen measures, in canonical table order."""

    L0 = "l0"
    L0_EPS = "l0-eps"
    NEG_L1 = "neg-l1"
    NEG_LP = "neg-lp"
    L2_OVER_L1 = "l2-over-l1"
    NEG_TANH = "neg-tanh"
    NEG_LOG = "neg-log"
    KAPPA4 = "kappa4"
    U_THETA = "u-theta"
    NEG_LP_NEG = "neg-lp-neg"
    HG = "hg"
    HS = "hs"
    HS_PRIME = "hs-prime"
    HOYER = "hoyer"
    GINI = "gini"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Row order used by compliance tables and reports.
MEASURE_ORDER: tuple[Measure, ...] = tuple(Measure)


@dataclass(frozen=True)
class MeasureSpec:
    """A measure id plus its free parameters.

    Parameters irrelevant to ``id`` are ignored.  Defaults: ``epsilon=1``,
    ``p_frac=0.5``, ``p_neg=-1``, ``a=1``, ``b=1``, ``theta=0.5``.
    """

    id: Measure
    epsilon: float = 1.0
    p_frac: float = 0.5
    p_neg: float = -1.0
    a: float = 1.0
    b: float = 1.0
    theta: float = 0.5

    def __post_init__(self) -> None:
        MEASURES[self.id].validate(self)


class CoefficientVector:
    """An immutable vector of non-negative coefficient magnitudes.

    Construction takes absolute values, so signed or complex input reduces
    to magnitudes.  Empty or non-finite input is rejected.
    """

    __slots__ = ("_values", "_sorted")

    def __init__(self, values) -> None:
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidParams("coefficient vector must be one-dimensional and non-empty")
        # np.abs allocates, so the caller's array is never aliased
        mags = np.abs(arr).astype(np.float64, copy=False)
        if not np.all(np.isfinite(mags)):
            raise InvalidParams("coefficient magnitudes must be finite")
        mags.setflags(write=False)
        self._values = mags
        srt = np.sort(mags, kind="stable")
        srt.setflags(write=False)
        self._sorted = srt

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def sorted_values(self) -> np.ndarray:
        """Coefficients sorted ascending; all measures evaluate on this."""
        return self._sorted

    def __len__(self) -> int:
        return int(self._values.size)

    def __repr__(self) -> str:
        return f"CoefficientVector({self._values.tolist()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, CoefficientVector) and np.array_equal(
            self._values, other._values
        )

    def __hash__(self) -> int:
        return hash(self._values.tobytes())


def _as_sorted(c: CoefficientVector) -> np.ndarray:
    if not isinstance(c, CoefficientVector):
        c = CoefficientVector(c)
    return c.sorted_values


@dataclass(frozen=True)
class Domain:
    inside: Callable[[MeasureSpec, np.ndarray], np.ndarray]  # masks an ascending (B, n) block
    outside: str  # a row outside raises "<id> is undefined for <outside>"


#: An ascending non-negative row is all zero exactly when its last entry is.
NONZERO = Domain(lambda spec, rows: rows[:, -1] != 0.0, "the all-zero vector")

#: Maps (spec, magnitudes) to the additive per-component terms, elementwise.
Term = Callable[[MeasureSpec, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MeasureDef:
    """Everything the package knows about one measure.

    * ``kernel(spec, rows)`` maps a ``(B, n)`` block of ascending magnitudes in
      ``domain`` (None: all) to ``(B,)`` values, each row's bit for bit as alone
      (``evaluate`` is B = 1); it raises ``DegenerateInput`` only for a length.
    * ``validate`` raises ``InvalidParams`` for out-of-range parameters.
    * ``maximum(n)`` is the attainable maximum over length-``n`` vectors, or
      None without a finite scale-free maximum; the compliance engine skips
      strict-increase trials that start saturated.
    * ``strictly_positive`` and ``value_cap(spec)`` bound the draws of the
      compliance engine's random trials (see ``transforms.TrialConfig``).
    * ``term`` is the additive per-component term, or None for the ratio and
      order-statistic measures.
    """

    kernel: Callable[[MeasureSpec, np.ndarray], np.ndarray]
    domain: Domain | None = None
    validate: Callable[[MeasureSpec], None] = lambda spec: None
    maximum: Callable[[int], float] | None = None
    strictly_positive: bool = False
    value_cap: Callable[[MeasureSpec], float] | None = None
    term: Term | None = None


def _require(spec: MeasureSpec, ok: bool, condition: str, got) -> None:
    if not ok:
        raise InvalidParams(f"{spec.id.value} requires {condition}, got {got}")


def _sum(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms`` as ``-sum(-terms)`` from -0.0: numpy's pairwise
    grouping is unchanged and negation commutes with rounding, so every bit,
    down to a zero total's sign (+0.0 for a count, -0.0 for a
    ``-sum(...)``), is the closed form's."""
    return -np.add.reduce(-terms, axis=1, initial=-0.0)


def _nonzero_rows(rows: np.ndarray, fn) -> np.ndarray:
    """``fn`` on each row's magnitudes after its leading zeros, one call per zero count."""
    zeros = np.add.reduce(rows == 0.0, axis=1)
    counts = set(zeros.tolist())
    if len(counts) == 1:
        return fn(rows[:, counts.pop() :])
    out = np.empty(len(rows))
    for z in counts:
        pick = zeros == z
        out[pick] = fn(rows[pick, z:])
    return out


def _zero_at_zero(term: Term) -> Term:
    def extended(spec: MeasureSpec, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[x > 0] = term(spec, x[x > 0])
        return out

    return extended


def _separable(term: Term, domain: Domain | None = None, **fields) -> MeasureDef:
    """A measure whose kernel sums ``term`` over the sorted magnitudes.

    A term singular at zero (``domain=NONZERO``) sums over the nonzero
    magnitudes only, as the formula does (summing extra zeros would regroup
    numpy's pairwise sum).
    """

    def kernel(spec: MeasureSpec, rows: np.ndarray) -> np.ndarray:
        if domain is None:
            return _sum(term(spec, rows))
        return _nonzero_rows(rows, lambda nz: _sum(term(spec, nz)))

    return MeasureDef(kernel, domain, term=_zero_at_zero(term) if domain else term, **fields)


def _neg_tanh_term(spec: MeasureSpec, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # tanh saturates: an overflowed power is exact
        return -np.tanh((spec.a * x) ** spec.b)


def _neg_tanh_cap(spec: MeasureSpec) -> float:
    """4^(1/b) / a: beyond it (a*c)^b > 4, where tanh (> 0.9993) is flat."""
    try:
        return (4.0 ** (1.0 / spec.b)) / spec.a
    except OverflowError:  # 4^(1/b) passes the float64 range: take it in log space
        log_cap = math.log(4.0) / spec.b - math.log(spec.a)
        return math.exp(log_cap) if log_cap < 700.0 else math.inf


def _hs_prime_term(spec: MeasureSpec, nz: np.ndarray) -> np.ndarray:
    return -2.0 * (nz * np.log(nz))


def _hs_prime(spec: MeasureSpec, rows: np.ndarray) -> np.ndarray:
    # an all-zero vector has entropy 0, and +0.0 turns a -0.0 total into 0
    return _nonzero_rows(rows, lambda nz: _sum(_hs_prime_term(spec, nz)) + 0.0)


def _ratio(form: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray], **fields):
    """A measure ``form(rows, l1, sum of squares)``.  A form's scalar tail runs
    per row in Python floats: a zero divisor raises, an overflowed product is inf."""

    def kernel(spec: MeasureSpec, rows: np.ndarray) -> np.ndarray:
        return form(rows, np.add.reduce(rows, axis=1), np.add.reduce(rows * rows, axis=1))

    return MeasureDef(kernel, NONZERO, **fields)


def _kappa4(rows: np.ndarray, l1: np.ndarray, sq: np.ndarray) -> np.ndarray:
    s4 = np.add.reduce(rows**4, axis=1).tolist()
    # where (sum c^2)^2 passes the float64 range, divide by sum c^2 twice
    tail = [a / (b * b) if b * b < math.inf else a / b / b for a, b in zip(s4, sq.tolist())]
    return np.array(tail)


def _hoyer(rows: np.ndarray, l1: np.ndarray, sq: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    if n < 2:
        raise DegenerateInput("hoyer needs at least two coefficients")
    rn = math.sqrt(n)
    return np.array([(rn - a / math.sqrt(b)) / (rn - 1) for a, b in zip(l1.tolist(), sq.tolist())])


def _hs(spec: MeasureSpec, rows: np.ndarray) -> np.ndarray:
    """hs-prime of the normalized energies c^2 / ||c||_2^2."""
    sq = rows * rows
    total = np.add.reduce(sq, axis=1)
    if 0.0 in total.tolist():  # a nonzero row whose squares underflow
        raise FloatingPointError("its squares sum to 0")
    return _hs_prime(spec, sq / total[:, None])


def _u_theta(spec: MeasureSpec, rows: np.ndarray) -> np.ndarray:
    """One minus the narrowest sorted window holding ceil(theta*N) points,
    as a fraction of the total range."""
    n = rows.shape[1]
    w = math.ceil(spec.theta * n)
    if w == n:
        raise DegenerateInput(f"u-theta requires ceil(theta*N) != N (theta={spec.theta}, N={n})")
    widths = rows[:, w - 1 :] - rows[:, : n - w + 1]
    return 1.0 - np.minimum.reduce(widths, axis=1) / (rows[:, -1] - rows[:, 0])


def _varies(spec: MeasureSpec, rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]  # at ceil(theta*N) = N all rows go in, to the kernel's length message
    return (rows[:, 0] != rows[:, -1]) | (math.ceil(spec.theta * n) == n)


def _gini(spec: MeasureSpec, rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    # a memoryview yields a row's Python floats one at a time: no list of N floats
    totals = [math.fsum(memoryview(r)) for r in rows]
    weights = 2.0 * np.arange(1, n + 1) - (n + 1)
    sums = [math.fsum(memoryview(r)) for r in rows * weights]
    return np.array([s / (n * t) for s, t in zip(sums, totals)])


def gini(c: CoefficientVector) -> float:
    """Gini index of the sorted coefficients, in [0, 1 - 1/N].

    Evaluates ``sum(c_(k) * (2k - N - 1)) / (N * ||c||_1)``, an exact
    rearrangement of the usual ``1 - 2 sum(...)`` form.  The antisymmetric
    integer weights make constant vectors come out exactly zero under
    ``math.fsum``.  Raises ``DegenerateInput`` as ``evaluate`` does.
    """
    return evaluate(MeasureSpec(Measure.GINI), c)


# The separable measures come first, in the order contribution_curves()
# reports them; table order is MEASURE_ORDER.
MEASURES: dict[Measure, MeasureDef] = {
    Measure.L0: _separable(lambda spec, x: (x == 0.0).astype(np.float64)),
    Measure.L0_EPS: _separable(
        lambda spec, x: (x <= spec.epsilon).astype(np.float64),
        validate=lambda spec: _require(spec, spec.epsilon > 0, "epsilon > 0", spec.epsilon),
    ),
    Measure.NEG_L1: _separable(lambda spec, x: -x),
    Measure.NEG_LP: MeasureDef(
        # the root is numpy's scalar power per row: its array power rounds differently
        kernel=lambda spec, rows: np.array(
            [-(x ** (1.0 / spec.p_frac)) for x in np.add.reduce(rows**spec.p_frac, axis=1)]
        ),
        validate=lambda spec: _require(spec, 0 < spec.p_frac < 1, "0 < p < 1", spec.p_frac),
        term=lambda spec, x: -(x**spec.p_frac),  # the power term inside the norm
    ),
    Measure.NEG_TANH: _separable(
        _neg_tanh_term,
        validate=lambda spec: _require(
            spec, spec.a > 0 and spec.b > 0, "a, b > 0", f"a={spec.a} b={spec.b}"
        ),
        value_cap=_neg_tanh_cap,
    ),
    Measure.NEG_LOG: _separable(lambda spec, x: -np.log1p(x * x)),
    # log blows up near zero
    Measure.HG: _separable(lambda spec, nz: -2.0 * np.log(nz), NONZERO, strictly_positive=True),
    Measure.HS_PRIME: MeasureDef(kernel=_hs_prime, term=_zero_at_zero(_hs_prime_term)),
    Measure.NEG_LP_NEG: _separable(
        lambda spec, nz: -(nz**spec.p_neg),
        NONZERO,
        validate=lambda spec: _require(spec, spec.p_neg < 0, "p < 0", spec.p_neg),
        strictly_positive=True,  # c^p blows up near zero
    ),
    Measure.L2_OVER_L1: _ratio(lambda rows, l1, sq: np.sqrt(sq) / l1, maximum=lambda n: 1.0),
    Measure.KAPPA4: _ratio(_kappa4, maximum=lambda n: 1.0),
    Measure.U_THETA: MeasureDef(
        kernel=_u_theta,
        domain=Domain(_varies, "constant vectors"),
        validate=lambda spec: _require(spec, 0 < spec.theta < 1, "0 < theta < 1", spec.theta),
        maximum=lambda n: 1.0,
    ),
    Measure.HS: MeasureDef(kernel=_hs, domain=NONZERO),
    Measure.HOYER: _ratio(_hoyer, maximum=lambda n: 1.0),
    Measure.GINI: MeasureDef(kernel=_gini, domain=NONZERO, maximum=lambda n: 1.0 - 1.0 / n),
}


@dataclass(frozen=True)
class LorenzCurve:
    """Cumulative share of coefficient mass versus share of coefficients.

    ``points[k] = (k/N, sum of the k smallest coefficients / total)``.
    """

    points: np.ndarray  # shape (N+1, 2)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    def twice_area_above(self) -> float:
        """Twice the trapezoid area between the diagonal and the curve.

        Coincides with the closed-form Gini index.
        """
        x, y = self.x, self.y
        trapezoid = float(np.sum((y[1:] + y[:-1]) * np.diff(x))) / 2.0
        return 1.0 - 2.0 * trapezoid


def lorenz_curve(c: CoefficientVector) -> LorenzCurve:
    s = _as_sorted(c)
    with np.errstate(over="ignore"):
        cum = np.cumsum(s)
    total = float(cum[-1])
    if total == 0.0:
        raise DegenerateInput("lorenz curve is undefined for the all-zero vector")
    if not math.isfinite(total):
        raise DegenerateInput("lorenz curve total exceeds the float64 range on this input")
    n = s.size
    x = np.arange(n + 1) / n
    # dividing by the accumulated total pins the endpoint at exactly (1, 1)
    y = np.concatenate(([0.0], cum / total))
    pts = np.column_stack((x, y))
    pts.setflags(write=False)
    return LorenzCurve(pts)


def _checked(spec: MeasureSpec, rows: np.ndarray) -> list:
    """The kernel on each row: its value, or the ``DegenerateInput`` it raises
    alone.  A kernel raises that only for the length, so for every row; a block
    out of the float64 range is split in halves down to the rows out of it alone."""
    try:
        with np.errstate(over="raise", invalid="ignore"):
            values = MEASURES[spec.id].kernel(spec, rows)
        if np.isfinite(values).all():
            return values.tolist()
        why = f"got {float(values[~np.isfinite(values)][0])}"
    except DegenerateInput as exc:
        return [DegenerateInput(str(exc)) for _ in rows]
    except ArithmeticError as exc:
        why = exc
    if len(rows) > 1:
        return _checked(spec, rows[: len(rows) // 2]) + _checked(spec, rows[len(rows) // 2 :])
    return [DegenerateInput(f"{spec.id.value} exceeds the float64 range on this input ({why})")]


def evaluate(spec: MeasureSpec, c: CoefficientVector) -> float:
    """Evaluate the measure named by ``spec`` on ``c``.

    Raises ``DegenerateInput`` where the measure is undefined, and where an
    intermediate leaves the float64 range (overflow, or an underflow to a
    zero divisor).
    """
    (value,) = evaluate_block(spec, _as_sorted(c)[None])
    if isinstance(value, SparsemetricsError):
        raise value
    return value


def evaluate_block(spec: MeasureSpec, rows: np.ndarray) -> list:
    """``evaluate`` on each row of an ascending ``(B, n)`` block of
    magnitudes: its value, or the ``SparsemetricsError`` it raises.

    A row that is not finite gets ``CoefficientVector``'s ``InvalidParams``,
    a row outside the domain its ``DegenerateInput``, and the rest go to
    ``_checked`` together: ``rows`` itself where that is every row.
    """
    domain = MEASURES[spec.id].domain
    finite = np.isfinite(rows).all(axis=1)
    inside = finite if domain is None else finite & domain.inside(spec, rows)
    go = inside.tolist()
    if False not in go:
        return _checked(spec, rows)
    values = iter(_checked(spec, rows[inside]) if True in go else ())
    return [
        next(values) if ok
        else DegenerateInput(f"{spec.id.value} is undefined for {domain.outside}") if fin
        else InvalidParams("coefficient magnitudes must be finite")
        for ok, fin in zip(go, finite.tolist())
    ]
