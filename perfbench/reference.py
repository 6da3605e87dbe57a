"""Reference values and output checks, written independently of the program.

Each ``check_*`` function takes what one CLI operation produced (exit code,
report text, stderr) and returns a list of problems; an empty list means the
output is correct.  Nothing here imports ``sparsemetrics``.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Relative tolerance for a measure value or a Lorenz ordinate against the
#: reference.  Summation order differs between the two, which moves the last
#: few bits only; a value off by 1e-6 relative is far outside it.
REL_TOL = 1e-9
#: Absolute slack for values that are exactly 0 in exact arithmetic.
ABS_TOL = 1e-12

MEASURE_IDS = (
    "l0", "l0-eps", "neg-l1", "neg-lp", "l2-over-l1", "neg-tanh", "neg-log", "kappa4",
    "u-theta", "neg-lp-neg", "hg", "hs", "hs-prime", "hoyer", "gini",
)  # fmt: skip
CRITERIA = ("D1", "D2", "D3", "D4", "P1", "P2")

# The paper's compliance matrix: criteria each measure satisfies.
PAPER_TRUE = {
    "l0": {"D2", "P2"},
    "l0-eps": {"P2"},
    "neg-l1": {"D3"},
    "neg-lp": {"D1", "D3"},
    "l2-over-l1": {"D1", "D2", "P1"},
    "neg-tanh": {"D1", "D3"},
    "neg-log": {"D3"},
    "kappa4": {"D2", "D3", "P1"},
    "u-theta": {"D2", "D4", "P1"},
    "neg-lp-neg": {"P1"},
    "hg": {"D1", "D3"},
    "hs": set(),
    "hs-prime": set(),
    "hoyer": {"D1", "D2", "D3", "P1", "P2"},
    "gini": set(CRITERIA),
}
#: The matrix marks hs as failing D2, but hs is exactly scale invariant: the
#: right verdict is no violation, and the program reports it as its one mismatch.
ERRATUM = ("hs", "D2")
#: Excluded from the diff by the program; its verdict is not checked here.
DISPUTED = ("l2-over-l1", "D3")


def expected_verdict(measure: str, criterion: str) -> str:
    holds = criterion in PAPER_TRUE[measure] or (measure, criterion) == ERRATUM
    return "no-violation-found" if holds else "violated"


def measure_value(mid: str, x) -> float:
    """Reference value of measure ``mid`` (default parameters) on ``x``."""
    a = np.abs(np.asarray(x, dtype=np.float64))
    n = a.size
    nz = a[a > 0]
    if mid == "l0":
        return float(n - nz.size)
    if mid == "l0-eps":
        return float(np.count_nonzero(a <= 1.0))
    if mid == "neg-l1":
        return -float(a.sum())
    if mid == "neg-lp":
        return -float(np.sqrt(a).sum()) ** 2
    if mid == "l2-over-l1":
        return float(np.linalg.norm(a) / a.sum())
    if mid == "neg-tanh":
        return -float(np.tanh(a).sum())
    if mid == "neg-log":
        return -float(np.log1p(a * a).sum())
    if mid == "kappa4":
        return float((a**4).sum() / (a * a).sum() ** 2)
    if mid == "u-theta":
        s = np.sort(a)
        w = math.ceil(0.5 * n)
        return 1.0 - float((s[w - 1 :] - s[: n - w + 1]).min() / (s[-1] - s[0]))
    if mid == "neg-lp-neg":
        return -float((1.0 / nz).sum())
    if mid == "hg":
        return -float(np.log(nz * nz).sum())
    if mid == "hs":
        t = nz * nz / (nz * nz).sum()
        t = t[t > 0]
        return -float((t * np.log(t * t)).sum())
    if mid == "hs-prime":
        return -float((nz * np.log(nz * nz)).sum())
    if mid == "hoyer":
        return float((math.sqrt(n) - a.sum() / np.linalg.norm(a)) / (math.sqrt(n) - 1))
    if mid == "gini":
        s = np.sort(a)
        k = np.arange(1, n + 1)
        return float(1.0 - 2.0 * ((s / s.sum()) * ((n - k + 0.5) / n)).sum())
    raise ValueError(f"unknown measure {mid!r}")


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL


def _parse_json(text: str, problems: list[str]):
    try:
        return json.loads(text)
    except ValueError as exc:
        problems.append(f"report is not JSON: {exc}")
        return None


def check_table(code: int, text: str, stderr: str) -> list[str]:
    """``table --format structured``: verdicts, witnesses and the mismatch list."""
    problems: list[str] = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1 (the one documented mismatch)")
    doc = _parse_json(text, problems)
    if doc is None:
        return problems
    cells = {(c["measure"], c["criterion"]): c for c in doc.get("cells", [])}
    if len(doc.get("cells", [])) != 90 or len(cells) != 90:
        problems.append(f"expected 90 distinct cells, got {len(doc.get('cells', []))}")
    for m in MEASURE_IDS:
        for c in CRITERIA:
            cell = cells.get((m, c))
            if cell is None or (m, c) == DISPUTED:
                continue
            want = expected_verdict(m, c)
            if cell["verdict"] != want:
                problems.append(f"({m}, {c}): verdict {cell['verdict']}, expected {want}")
            elif want == "violated":
                problems += _check_witness(m, c, cell)
    if doc.get("mismatches") != [{"measure": ERRATUM[0], "criterion": ERRATUM[1]}]:
        problems.append(f"mismatch list {doc.get('mismatches')}, expected only {ERRATUM}")
    lines = [ln for ln in stderr.splitlines() if ln.startswith("mismatch:")]
    if len(lines) != 1 or not lines[0].startswith(f"mismatch: ({ERRATUM[0]}, {ERRATUM[1]})"):
        problems.append(f"stderr mismatch lines {lines}, expected only {ERRATUM}")
    return problems


def _check_witness(m: str, c: str, cell: dict) -> list[str]:
    """A violated cell's witness values must be the measure's values on the
    witness vectors, and they must break the criterion's relation."""
    w = cell.get("witness")
    if w is None:
        return [f"({m}, {c}): violated without a witness"]
    vb, va = cell["value_before"], cell["value_after"]
    rb, ra = measure_value(m, w["before"]), measure_value(m, w["after"])
    if not (close(vb, rb) and close(va, ra)):
        return [f"({m}, {c}): witness values {vb}, {va}; reference {rb}, {ra}"]
    tol = 1e-9 * max(1.0, abs(vb), abs(va))
    holds = {
        "D1": va < vb - tol,
        "D3": va < vb - tol,
        "D2": abs(va - vb) <= tol,
        "D4": abs(va - vb) <= tol,
        "P1": va > vb + tol,
        "P2": va > vb + tol,
    }[c]
    return [f"({m}, {c}): witness satisfies the criterion"] if holds else []


def check_measure(code: int, text: str, mid: str, ref: dict[str, float]) -> list[str]:
    """``measure --format structured``."""
    problems: list[str] = []
    if code != 0:
        return [f"exit code {code}"]
    doc = _parse_json(text, problems)
    if doc is not None:
        value = doc.get("value")
        if not isinstance(value, float) or not close(value, ref[mid]):
            problems.append(f"{mid} = {value!r}, reference {ref[mid]!r}")
    return problems


def check_measure_all(code: int, text: str, ref: dict[str, float]) -> list[str]:
    """``measure-all --format structured``: all fifteen values, in order."""
    problems: list[str] = []
    if code != 0:
        return [f"exit code {code}"]
    doc = _parse_json(text, problems)
    if doc is None:
        return problems
    cells = doc.get("values", [])
    if [c.get("measure") for c in cells] != list(MEASURE_IDS):
        return [f"measures {[c.get('measure') for c in cells]}"]
    for c in cells:
        v = c.get("value")
        if c.get("status") != "ok" or not isinstance(v, float) or not close(v, ref[c["measure"]]):
            problems.append(f"{c['measure']} = {v!r} ({c.get('status')}), reference {ref[c['measure']]!r}")
    return problems


def lorenz_reference(x) -> np.ndarray:
    s = np.sort(np.abs(np.asarray(x, dtype=np.float64)))
    cum = np.cumsum(s)
    return np.concatenate(([0.0], cum / cum[-1]))


def check_lorenz(code: int, text: str, ref_y: np.ndarray) -> list[str]:
    """``lorenz`` as CSV: header, N+1 points, x = k/N, y against the
    reference, and an end point of exactly (1, 1)."""
    if code != 0:
        return [f"exit code {code}"]
    n = ref_y.size - 1
    header, _, body = text.partition("\n")
    if header != "x,y":
        return [f"header {header!r}"]
    body = body.rstrip("\n")
    rows = body.count("\n") + 1 if body else 0
    if rows != n + 1 or body.count(",") != n + 1:
        return [f"{rows} points, expected N+1 = {n + 1}"]
    try:
        xy = np.fromstring(body.replace("\n", ","), sep=",")
    except ValueError as exc:
        return [f"unparsable point: {exc}"]
    if xy.size != 2 * (n + 1):
        return [f"{xy.size} numbers, expected {2 * (n + 1)}"]
    x, y = xy[0::2], xy[1::2]
    problems = []
    if (x[-1], y[-1]) != (1.0, 1.0):
        problems.append(f"curve ends at ({x[-1]!r}, {y[-1]!r}), not exactly (1, 1)")
    if not np.allclose(x, np.arange(n + 1) / n, rtol=REL_TOL, atol=ABS_TOL):
        problems.append("x is not k/N")
    if not np.allclose(y, ref_y, rtol=REL_TOL, atol=ABS_TOL):
        worst = int(np.argmax(np.abs(y - ref_y)))
        problems.append(f"y[{worst}] = {y[worst]!r}, reference {ref_y[worst]!r}")
    return problems


#: Exact Gini index of each distribution the benchmark integrates.
EXACT_GINI = {"uniform": 1.0 / 3.0, "exponential": 0.5}
#: Slack for the Gini index of 1e6 draws (its standard error is below 1e-3).
SAMPLE_GINI_TOL = 5e-3


def check_dgini(code: int, text: str, dist: str, tol: float) -> list[str]:
    """``experiment --name distributional-gini``: the quadrature result
    within its own ``--tol`` of the exact value."""
    problems: list[str] = []
    if code != 0:
        return [f"exit code {code}"]
    doc = _parse_json(text, problems)
    if doc is None:
        return problems
    exact = EXACT_GINI[dist]
    quad, sample = doc.get("quadrature_gini"), doc.get("sample_gini")
    if not isinstance(quad, float) or abs(quad - exact) > tol:
        problems.append(f"{dist}: quadrature gini {quad!r} is more than {tol} from {exact!r}")
    if not isinstance(sample, float) or abs(sample - exact) > SAMPLE_GINI_TOL:
        problems.append(f"{dist}: sample gini {sample!r} is more than {SAMPLE_GINI_TOL} from {exact!r}")
    elif doc.get("abs_difference") != abs(quad - sample):
        problems.append(f"{dist}: abs_difference {doc.get('abs_difference')!r} != |quad - sample|")
    return problems


#: Range of each measure that has one, for the study summaries.
RANGES = {"l2-over-l1": (0.0, 1.0), "kappa4": (0.0, 1.0), "hoyer": (0.0, 1.0), "gini": (0.0, 1.0)}


def check_study(code: int, text: str, name: str, sweep: list[float], n: int | None, repeats: int, param: float) -> list[str]:
    """``experiment`` summaries for poisson-convergence (sweep over n, rate
    ``param``) and bernoulli-sweep (sweep over the zero probability p, size
    ``n``).  Besides shape and ranges, the mean zero count and the mean l1
    norm must sit within six standard errors of their exact expectations."""
    problems: list[str] = []
    if code != 0:
        return [f"exit code {code}"]
    doc = _parse_json(text, problems)
    if doc is None:
        return problems
    rows = doc.get("summary", [])
    key = "n" if name == "poisson-convergence" else "p"
    if doc.get("name") != name or len(rows) != 15 * len(sweep):
        return [f"{name}: {len(rows)} summary rows, expected {15 * len(sweep)}"]
    for r in rows:
        mean, std, norm = r["mean"], r["std"], r["normalized"]
        if not all(isinstance(v, float) and math.isfinite(v) for v in (mean, std, norm)):
            problems.append(f"{name}: non-finite summary {r}")
        elif not 0.0 <= norm <= 1.0:
            problems.append(f"{name}: normalized mean {norm} outside [0, 1]")
        elif r["measure"] in RANGES and not RANGES[r["measure"]][0] <= mean <= RANGES[r["measure"]][1]:
            problems.append(f"{name}: {r['measure']} mean {mean} outside its range")
    by = {(r["measure"], r[key]): r["mean"] for r in rows}
    for x in sweep:
        size = x if name == "poisson-convergence" else n
        if name == "poisson-convergence":
            p0, l1_mean, l1_var = math.exp(-param), param * size, param * size
        else:
            p0, l1_mean, l1_var = x, (1 - x) * size, x * (1 - x) * size
        zeros = (p0 * size, p0 * (1 - p0) * size)
        for mid, (mu, var) in (("l0", zeros), ("neg-l1", (-l1_mean, l1_var))):
            got = by.get((mid, float(x)))
            se = math.sqrt(var / repeats)
            if got is None or abs(got - mu) > 6 * se + 1e-9:
                problems.append(f"{name}: mean {mid} at {key}={x} is {got}, expected {mu} +- {6 * se:.3g}")
    return problems
