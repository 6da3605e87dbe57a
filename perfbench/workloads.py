"""The three workloads: their seeded inputs, the CLI operations one round
runs, and the check each operation's output must pass.

Why these three (see README.md for the per-layer predictions):

* ``compliance-table`` is the paper's headline result: ~34k seeded search
  trials over tiny vectors (N <= 256); it reads no file.
* ``large-vector`` reads and writes 1e6-value files, so the CLI parse and
  render paths and the kernels at N = 1e6 dominate; it draws no trials.
* ``studies`` evaluates all fifteen measures on vectors of length 10..3000
  and runs the quadrature Gini; it is the only user of ``experiments``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

VECTOR_LEN = 1_000_000
TABLE_TRIALS = 1000
# The studies finish in ~0.1 s at their default repeats; these make each a
# measurable share of a round without changing what is computed per draw.
POISSON_REPEATS = 800
BERNOULLI_REPEATS = 200
POISSON_LAMBDA = 5.0  # the CLI default
POISSON_SIZES = [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0]  # the CLI default
BERNOULLI_N = 1000  # the CLI default
BERNOULLI_GRID = [k / 20 for k in range(1, 20)]  # the CLI default
DGINI_SAMPLE_N = 1_000_000
DGINI_TOL = 1e-8


@dataclass
class Op:
    """One CLI invocation: ``label`` names the timing it adds to."""

    label: str
    argv: list[str]
    output: Path
    check: Callable[[int, str, str], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    #: the untimed operation run before timing; the first of ``ops`` if None
    warmup: Op | None = None

    def derived(self, op: Op, text: str, elapsed: float) -> dict[str, float]:
        """Extra per-operation metrics read from the report."""
        if op.label == "table_s":
            trials = sum(c["trials"] for c in json.loads(text)["cells"])
            return {"search_trials_per_s": trials / elapsed}
        return {}


def _tokens(values: np.ndarray, rng: np.random.Generator) -> list[str]:
    """Plain and scientific notation; both forms read back to exactly the
    same float64, so the generated values are the reference input."""
    sci = rng.random(values.size) < 0.3
    upper = rng.random(values.size) < 0.5
    zero_forms = ("0", "0.0", "-0.0", "0e0")
    zero_pick = rng.integers(0, len(zero_forms), values.size)
    out = []
    for v, s, u, z in zip(values.tolist(), sci.tolist(), upper.tolist(), zero_pick.tolist()):
        if v == 0.0:
            out.append(zero_forms[z])
        elif s:
            out.append(("%.16E" if u else "%.16e") % v)
        else:
            out.append(repr(v))
    return out


def write_vector(path: Path, seed: int, n: int = VECTOR_LEN) -> np.ndarray:
    """Write ``n`` signed values (5% zeros, log-normal magnitudes) separated
    by commas, spaces, tabs and newlines; return the values written."""
    rng = np.random.default_rng([seed, 0x5EED])
    mags = rng.lognormal(0.0, 1.5, n)
    values = np.where(rng.random(n) < 0.05, 0.0, np.where(rng.random(n) < 0.5, -mags, mags))
    seps = (", ", " ", ",", "\t", " , ")
    sep_pick = rng.integers(0, len(seps), n).tolist()
    per_line = rng.integers(1, 17, n // 4).tolist()
    tokens = _tokens(values, rng)
    with open(path, "w", encoding="utf-8") as fh:
        i = line = 0
        while i < n:
            k = per_line[line % len(per_line)]
            line += 1
            row = tokens[i : i + k]
            fh.write(seps[sep_pick[i]].join(row) + "\n")
            i += k
    return values


def compliance_table(seed: int, workdir: Path) -> Workload:
    out, warm = workdir / "table.json", workdir / "warmup.json"
    argv = ["table", "--seed", str(seed), "--format", "structured"]
    return Workload(
        [Op("table_s", [*argv, "--trials", str(TABLE_TRIALS), "--output", str(out)], out, ref.check_table)],
        # every code path of the table at a fiftieth of its cost; with so few
        # trials some violations go unfound, so only a clean exit is checked
        Op(
            "warmup_s",
            [*argv, "--trials", "20", "--output", str(warm)],
            warm,
            lambda c, t, e: [] if c in (0, 1) and t else [f"exit code {c}"],
        ),
    )


def large_vector(seed: int, workdir: Path) -> Workload:
    vec = workdir / "vector.txt"
    values = write_vector(vec, seed)
    ref_values = {m: ref.measure_value(m, values) for m in ref.MEASURE_IDS}
    ref_y = ref.lorenz_reference(values)
    o_measure, o_all, o_lorenz = (workdir / f for f in ("gini.json", "all.json", "lorenz.csv"))
    src = ["--input", str(vec)]
    return Workload(
        [
            Op(
                "measure_s",
                ["measure", "--measure", "gini", *src, "--format", "structured", "--output", str(o_measure)],
                o_measure,
                lambda c, t, e: ref.check_measure(c, t, "gini", ref_values),
            ),
            Op(
                "measure_all_s",
                ["measure-all", *src, "--format", "structured", "--output", str(o_all)],
                o_all,
                lambda c, t, e: ref.check_measure_all(c, t, ref_values),
            ),
            Op(
                "lorenz_s",
                ["lorenz", *src, "--output", str(o_lorenz)],
                o_lorenz,
                lambda c, t, e: ref.check_lorenz(c, t, ref_y),
            ),
        ],
    )


def studies(seed: int, workdir: Path) -> Workload:
    exp = ["experiment", "--seed", str(seed), "--format", "structured"]
    o_p, o_b = workdir / "poisson.json", workdir / "bernoulli.json"
    ops = [
        Op(
            "poisson_s",
            [*exp, "--name", "poisson-convergence", "--repeats", str(POISSON_REPEATS), "--output", str(o_p)],
            o_p,
            lambda c, t, e: ref.check_study(
                c, t, "poisson-convergence", POISSON_SIZES, None, POISSON_REPEATS, POISSON_LAMBDA
            ),
        ),
        Op(
            "bernoulli_s",
            [*exp, "--name", "bernoulli-sweep", "--repeats", str(BERNOULLI_REPEATS), "--output", str(o_b)],
            o_b,
            lambda c, t, e: ref.check_study(
                c, t, "bernoulli-sweep", BERNOULLI_GRID, BERNOULLI_N, BERNOULLI_REPEATS, math.nan
            ),
        ),
    ]
    for dist in ("uniform", "exponential"):
        out = workdir / f"dgini-{dist}.json"
        ops.append(
            Op(
                "dgini_s",
                [
                    *exp, "--name", "distributional-gini", "--dist", dist,
                    "--sample-n", str(DGINI_SAMPLE_N), "--tol", repr(DGINI_TOL), "--output", str(out),
                ],  # fmt: skip
                out,
                lambda c, t, e, dist=dist: ref.check_dgini(c, t, dist, DGINI_TOL),
            )
        )
    return Workload(ops)


WORKLOADS = {
    "compliance-table": compliance_table,
    "large-vector": large_vector,
    "studies": studies,
}
