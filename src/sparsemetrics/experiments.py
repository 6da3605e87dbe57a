"""Numerical studies: Poisson convergence, Bernoulli sweep, per-component
contribution curves, and the distributional Gini index.

Everything is seeded and deterministic: each (grid point, repeat) draws
from its own random stream derived from the experiment seed, so results do
not depend on evaluation order.  No plotting here; results are data tables.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, InvalidParams, NonSeparableMeasure
from .measures import (
    MEASURE_ORDER,
    MEASURES,
    CoefficientVector,
    Measure,
    MeasureSpec,
    evaluate_block,
    gini,
)
from .transforms import stream, streams

__all__ = [
    "DistributionSpec",
    "ExperimentResult",
    "ContributionTable",
    "sample_vector",
    "poisson_convergence",
    "bernoulli_sweep",
    "contribution_curves",
    "distributional_gini",
    "sample_gini",
    "minmax_normalize",
    "default_specs",
]


@dataclass(frozen=True)
class DistributionSpec:
    """A coefficient distribution: poisson, bernoulli01, uniform, or exponential."""

    kind: str
    lam: float = 5.0  # poisson rate
    p: float = 0.5  # bernoulli01: probability of a zero coefficient
    lo: float = 0.0  # uniform bounds
    hi: float = 1.0
    rate: float = 1.0  # exponential rate

    _KINDS = ("poisson", "bernoulli01", "uniform", "exponential")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise InvalidParams(f"unknown distribution kind {self.kind!r}")
        if self.kind == "poisson" and not self.lam > 0:
            raise InvalidParams("poisson requires lam > 0")
        if self.kind == "poisson" and math.exp(-self.lam) < sys.float_info.min:
            raise InvalidParams(f"poisson lam={self.lam} is too large: exp(-lam) is not normal")
        if self.kind == "bernoulli01" and not 0 <= self.p <= 1:
            raise InvalidParams("bernoulli01 requires 0 <= p <= 1")
        if self.kind == "uniform" and not 0 <= self.lo < self.hi:
            raise InvalidParams("uniform requires 0 <= lo < hi")
        if self.kind == "exponential" and not self.rate > 0:
            raise InvalidParams("exponential requires rate > 0")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """The inverse CDF at each ``u`` in [0, 1).

        Poisson inverts the cumulative pmf, so a draw does not depend on any
        library's Poisson sampler.
        """
        if self.kind == "poisson":
            return np.searchsorted(_poisson_cdf(self.lam), u, side="right").astype(float)
        if self.kind == "bernoulli01":
            return np.where(u < self.p, 0.0, 1.0)
        if self.kind == "uniform":
            return self.lo + (self.hi - self.lo) * u
        return -np.log1p(-u) / self.rate  # exponential

    @classmethod
    def poisson(cls, lam: float = 5.0) -> "DistributionSpec":
        return cls("poisson", lam=lam)

    @classmethod
    def bernoulli01(cls, p: float) -> "DistributionSpec":
        return cls("bernoulli01", p=p)

    @classmethod
    def uniform(cls, lo: float = 0.0, hi: float = 1.0) -> "DistributionSpec":
        return cls("uniform", lo=lo, hi=hi)

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "DistributionSpec":
        return cls("exponential", rate=rate)


@functools.lru_cache
def _poisson_cdf(lam: float) -> np.ndarray:
    """Cumulative pmf table, long enough that the tail mass is < 1e-15;
    built once per ``lam`` and read-only."""
    pmf = math.exp(-lam)
    cdf = [pmf]
    k = 0
    while 1.0 - cdf[-1] > 1e-15 and k < max(200, int(20 * lam)):
        k += 1
        pmf *= lam / k
        cdf.append(cdf[-1] + pmf)
    table = np.asarray(cdf)
    table.setflags(write=False)
    return table


def sample_vector(
    dist: DistributionSpec, n: int, seed: int | np.random.Generator = 0
) -> CoefficientVector:
    """Draw ``n`` coefficients by inversion; deterministic in (dist, n, seed)."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    return CoefficientVector(dist.quantile(rng.random(n)))


def minmax_normalize(series) -> np.ndarray:
    """Rescale to [0, 1]; a constant series maps to all zeros."""
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise InvalidParams("cannot normalize an empty series")
    if not np.all(np.isfinite(arr)):
        raise InvalidParams("cannot normalize a series with non-finite values")
    span = arr.max() - arr.min()
    if span == 0.0:
        return np.zeros_like(arr)
    return (arr - arr.min()) / span


def default_specs(**overrides) -> dict[Measure, MeasureSpec]:
    """One spec per measure, with optional parameter overrides."""
    return {m: MeasureSpec(m, **overrides) for m in MEASURE_ORDER}


@dataclass
class ExperimentResult:
    """Raw values, per-point summaries, and min-max normalized mean series."""

    name: str
    sweep_name: str
    sweep_values: list[float]
    measures: list[Measure]
    raw: dict[Measure, np.ndarray]  # shape (len(sweep_values), repeats)
    metadata: dict = field(default_factory=dict)

    def mean(self, measure: Measure) -> np.ndarray:
        return self.raw[measure].mean(axis=1)

    def std(self, measure: Measure) -> np.ndarray:
        return self.raw[measure].std(axis=1, ddof=1)

    def normalized(self, measure: Measure) -> np.ndarray:
        return minmax_normalize(self.mean(measure))

    def summary_rows(self):
        """Rows of (sweep value, measure, mean, std, normalized mean)."""
        for m in self.measures:
            mean, std, norm = self.mean(m), self.std(m), self.normalized(m)
            for i, x in enumerate(self.sweep_values):
                yield (x, m.value, float(mean[i]), float(std[i]), float(norm[i]))

    def raw_rows(self):
        """Rows of (sweep value, measure, repeat index, raw value)."""
        for m in self.measures:
            for i, x in enumerate(self.sweep_values):
                for r, v in enumerate(self.raw[m][i]):
                    yield (x, m.value, r, float(v))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "sweep": self.sweep_name,
            "metadata": self.metadata,
            "summary": [
                {
                    self.sweep_name: row[0],
                    "measure": row[1],
                    "mean": row[2],
                    "std": row[3],
                    "normalized": row[4],
                }
                for row in self.summary_rows()
            ],
        }


#: Fresh streams tried for one draw before it counts as degenerate.
MAX_RESAMPLES = 20
#: Values drawn and evaluated together: more saves kernel calls, fewer saves
#: memory.  At n = 3000 a block holds 21 draws.
BLOCK_VALUES = 1 << 16


def _draws(specs: dict[Measure, MeasureSpec], dist, n: int, keys: list) -> dict[Measure, list]:
    """Every measure on the draws from the streams of (seed, i, r, attempt)
    keys, derived in one ``streams`` call: one block, checked as
    ``CoefficientVector`` checks and sorted, then one ``evaluate_block`` call
    per measure.  A draw degenerate for any measure is redrawn from its next
    attempt's stream, as a block of one."""
    rows = np.abs([dist.quantile(rng.random(n)) for rng in streams(keys)])
    if not np.isfinite(rows).all():
        raise InvalidParams("coefficient magnitudes must be finite")
    rows.sort(axis=1)
    values = {m: evaluate_block(spec, rows) for m, spec in specs.items()}
    for k, key in enumerate(keys):
        if any(isinstance(v[k], DegenerateInput) for v in values.values()):
            draw, attempt = key[:3], key[3] + 1
            if attempt == MAX_RESAMPLES:
                raise DegenerateInput(
                    f"draw for {draw} stayed degenerate after {MAX_RESAMPLES} resamples"
                )
            for m, v in _draws(specs, dist, n, [draw + (attempt,)]).items():
                values[m][k] = v[0]
    return values


def _study(
    specs: dict[Measure, MeasureSpec], points, repeats: int, seed: int
) -> dict[Measure, np.ndarray]:
    """``raw[m][i, r]``: measure ``m`` on draw ``r`` at sweep point ``i``,
    where ``points[i]`` is a (distribution, n) pair.

    Draw r's first attempt comes from ``stream((seed, i, r, 0))``, so no
    value depends on the block size.
    """
    if not points:
        raise InvalidParams("a study needs at least one sweep point")
    raw = {m: np.empty((len(points), repeats)) for m in specs}
    for i, (dist, n) in enumerate(points):
        step = max(1, BLOCK_VALUES // n)
        for start in range(0, repeats, step):
            block = range(start, min(start + step, repeats))
            for m, v in _draws(specs, dist, n, [(seed, i, r, 0) for r in block]).items():
                raw[m][i, block.start : block.stop] = v
    return raw


DEFAULT_SIZES = (10, 30, 100, 300, 1000, 3000)
DEFAULT_POISSON_REPEATS = 50


def poisson_convergence(
    lam: float = 5.0,
    sizes=DEFAULT_SIZES,
    repeats: int = DEFAULT_POISSON_REPEATS,
    seed: int = 0,
) -> ExperimentResult:
    """All fifteen measures on Poisson draws, as a function of set size."""
    sizes = [int(n) for n in sizes]
    if any(n < 2 for n in sizes) or sorted(sizes) != sizes:
        raise InvalidParams("sizes must be ascending and each >= 2")
    if repeats < 2:
        raise InvalidParams("repeats must be >= 2")
    specs = default_specs()
    dist = DistributionSpec.poisson(lam)
    raw = _study(specs, [(dist, n) for n in sizes], repeats, seed)
    return ExperimentResult(
        name="poisson-convergence",
        sweep_name="n",
        sweep_values=[float(n) for n in sizes],
        measures=list(specs),
        raw=raw,
        metadata={
            "lam": lam,
            "repeats": repeats,
            "seed": seed,
            "measure_params": {m.value: vars(s) for m, s in specs.items()},
        },
    )


DEFAULT_BERNOULLI_GRID = tuple(k / 20 for k in range(1, 20))  # 0.05 .. 0.95
DEFAULT_BERNOULLI_REPEATS = 20

#: The module-default epsilon of 1 counts every coefficient of a 0/1 vector,
#: which degenerates the l0-eps series to a constant; the sweep therefore
#: defaults to epsilon=0.5 (counting the zeros) and records the override.
BERNOULLI_EPSILON = 0.5


def bernoulli_sweep(
    grid=DEFAULT_BERNOULLI_GRID,
    n: int = 1000,
    repeats: int = DEFAULT_BERNOULLI_REPEATS,
    seed: int = 0,
) -> ExperimentResult:
    """All fifteen measures on 0/1 draws as the zero-probability p sweeps."""
    grid = [float(p) for p in grid]
    if any(not 0 < p < 1 for p in grid):
        raise InvalidParams("grid values must lie strictly inside (0, 1)")
    if n < 2:
        raise InvalidParams("n must be >= 2")
    if repeats < 2:
        raise InvalidParams("repeats must be >= 2")
    specs = default_specs(epsilon=BERNOULLI_EPSILON)
    raw = _study(specs, [(DistributionSpec.bernoulli01(p), n) for p in grid], repeats, seed)
    return ExperimentResult(
        name="bernoulli-sweep",
        sweep_name="p",
        sweep_values=grid,
        measures=list(specs),
        raw=raw,
        metadata={
            "n": n,
            "repeats": repeats,
            "seed": seed,
            "measure_params": {m.value: vars(s) for m, s in specs.items()},
        },
    )


@dataclass
class ContributionTable:
    """Per-component contribution of separable measures over an amplitude grid."""

    amplitudes: np.ndarray
    terms: dict[Measure, np.ndarray]

    def rows(self):
        for m, t in self.terms.items():
            for x, v in zip(self.amplitudes, t):
                yield (m.value, float(x), float(v))


def contribution_curves(amplitudes, specs=None) -> ContributionTable:
    """Additive per-component terms at each amplitude; separable measures only."""
    xs = np.asarray(list(amplitudes), dtype=float)
    if xs.size == 0 or np.any(xs < 0):
        raise InvalidParams("amplitude grid must be non-empty and non-negative")
    if not np.isfinite(xs).all():
        raise InvalidParams("amplitude grid must be finite")
    if specs is None:
        specs = [MeasureSpec(m) for m, d in MEASURES.items() if d.term is not None]
    terms = {}
    for spec in specs:
        term = MEASURES[spec.id].term
        if term is None:
            raise NonSeparableMeasure(
                f"{spec.id.value} has no additive per-component term"
            )
        try:
            with np.errstate(over="raise"):
                terms[spec.id] = term(spec, xs)
        except FloatingPointError as exc:
            raise DegenerateInput(f"{spec.id.value} term leaves the float64 range ({exc})") from exc
    return ContributionTable(xs, terms)


#: Tanh-sinh nodes t = k*h span |t| <= _TS_SPAN.  At t = -4, u is 5.8e-38,
#: so the mass left out below is far under float64 resolution; from
#: t = 3.16 on, u rounds to 1 and those nodes are dropped.
_TS_SPAN = 4
#: Step halvings from h = 1, after which the finest estimate is returned
#: whether or not ``tol`` was met.
_TS_HALVINGS = 8


def distributional_gini(dist: DistributionSpec, tol: float = 1e-8) -> float:
    """Gini index of a continuous distribution: the one quantile integral
    G = int_0^1 (2u - 1) Q(u) du / int_0^1 Q(u) du, by tanh-sinh quadrature
    (Takahasi & Mori 1974).

    The step halves until two successive estimates of G differ by at most
    ``tol``, or for at most _TS_HALVINGS halvings; the finer estimate is
    returned.  The error of tanh-sinh roughly squares at each halving, so
    the returned value is far closer than ``tol`` to the exact one.
    """
    if dist.kind not in ("uniform", "exponential"):
        raise InvalidParams(
            f"distributional gini by quadrature needs a continuous distribution, got {dist.kind!r}"
        )
    previous = math.nan
    for level in range(_TS_HALVINGS + 1):
        h = 2.0**-level
        t = h * np.arange(-_TS_SPAN * 2**level, _TS_SPAN * 2**level + 1)
        x = 0.5 * np.pi * np.sinh(t)
        u = 1.0 / (1.0 + np.exp(-2.0 * x))  # (1 + tanh x) / 2, without its cancellation near 0
        w = h * 0.25 * np.pi * np.cosh(t) / np.cosh(x) ** 2  # du/dt
        inside = (u > 0.0) & (u < 1.0)
        u, w = u[inside], w[inside]
        try:
            with np.errstate(over="raise", invalid="raise"):
                wq = w * dist.quantile(u)
                estimate = float(np.sum((2.0 * u - 1.0) * wq) / np.sum(wq))
        except FloatingPointError as exc:
            raise DegenerateInput(f"gini by quadrature exceeds the float64 range ({exc})") from exc
        if abs(estimate - previous) <= tol:
            return estimate
        previous = estimate
    return previous


def sample_gini(dist: DistributionSpec, n: int, seed: int = 0) -> float:
    """Gini index of ``n`` seeded draws from the distribution."""
    return gini(sample_vector(dist, n, seed))
