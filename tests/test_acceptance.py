"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s or in
the captured output on failure).  Criteria 1 and 3 pin the documented
errata of the reference material exactly (README "Errata" 2 and 3): the
only table mismatch is (hs, D2), a scale-invariant measure that the
reference matrix marks as failing the scaling axiom, and the only mapped
catalog pairs that cannot discriminate are the four that evaluate equal,
or in the required direction, under the pinned parameter defaults.  Each
erratum is checked together with the arithmetic behind it, and any other
mismatch or non-discriminating pair fails the test.  Criterion 1 also pins
each cell's verdict, source, trial and skip counts at seed 0, so a change
to the random streams cannot pass unnoticed; the verdicts and sources alone
must also hold at seeds 7 and 201, which no change to the streams may alter.
"""

import time

import numpy as np
import pytest
from scipy import stats

from sparsemetrics import (
    CATALOG_PAIRS,
    DISPUTED_CELLS,
    ERRATUM_NOTES,
    EXPECTED_TRUE,
    TABLE4_WITNESSES,
    CoefficientVector,
    Criterion,
    DistributionSpec,
    Measure,
    MeasureSpec,
    bernoulli_sweep,
    catalog_verdict,
    check_cell,
    compliance_map,
    distributional_gini,
    evaluate,
    full_table,
    gini,
    lorenz_curve,
    poisson_convergence,
    reapply,
    relation_holds,
    sample_gini,
    sample_trial,
    theorem_consistency,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def table_1000():
    t0 = time.monotonic()
    result = full_table(trials=1000, seed=0)
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def poisson_result():
    t0 = time.monotonic()
    result = poisson_convergence(lam=5.0, repeats=50, seed=0)
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def bernoulli_result():
    return bernoulli_sweep(n=1000, repeats=20, seed=0)


# Every cell of full_table(trials=1000, seed=0), pinning the random streams:
# "c" is a catalog witness, "s<t>" a search witness found at trial t, "n"
# NoViolationFound(1000), and "/<k>" a nonzero skip count.  A change that
# alters the streams on purpose must update this literal and say so.
PINNED_TABLE = """
l0         c    n    c    c    c    n
l0-eps     s1   c    s35  c    c    n
neg-l1     c    c    n    c    c    c
neg-lp     n    c    n    c    c    c
l2-over-l1 n    n    n    c    n/3  c
neg-tanh   n    c    n    c    c    c
neg-log    c    c    n    c    c    c
kappa4     c    n    n    c    n/1  c
u-theta    c    n    s1   n/1  n/19 c
neg-lp-neg c    c    c    c    n    c
hg         n    c    n    s1   c    c
hs         c    n/1  c    c    c    c
hs-prime   c    c    c    s1   c    c
hoyer      n    n    n    c    n/3  n/10
gini       n    n/6  n    n/2  n/4  n
"""
# the (l0-eps, D3) search witness before the rising tide, in grid ticks of 2**-20
PINNED_L0_EPS_D3_TICKS = (2999988, 1452826)


def pinned_cell(code: str) -> tuple:
    """(verdict, source, trials, skipped) of one PINNED_TABLE entry."""
    code, _, skipped = code.partition("/")
    if code == "c":
        return ("violated", "catalog", 0, int(skipped or 0))
    if code == "n":
        return ("no-violation-found", None, 1000, int(skipped or 0))
    return ("violated", "search", int(code[1:]), int(skipped or 0))


def pinned_table() -> dict:
    """Every PINNED_TABLE entry, keyed by (measure, criterion) values."""
    pinned = {}
    for line in PINNED_TABLE.strip().splitlines():
        measure, *codes = line.split()
        for criterion, code in zip(Criterion, codes):
            pinned[(measure, criterion.value)] = pinned_cell(code)
    return pinned


def test_criterion_1_table_reproduction(table_1000):
    result, elapsed = table_1000
    failures = []

    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    for c in Criterion:
        if result.verdict(Measure.GINI, c).violated:
            failures.append(f"gini/{c.value} violated")
    for c in Criterion:
        v = result.verdict(Measure.HOYER, c)
        if v.violated != (c is Criterion.D4):
            failures.append(f"hoyer/{c.value} unexpected verdict {v.label}")
    disputed = result.disputed[(Measure.L2_OVER_L1, Criterion.D3)]
    if disputed.violated:
        failures.append("disputed cell reported a violation")
    doc = result.to_dict()
    flagged = [c for c in doc["cells"] if c["disputed"]]
    if len(flagged) != 1 or "note" not in flagged[0]:
        failures.append("disputed cell not flagged with its erratum note")

    # erratum 2: (hs, D2) is the one cell the reference matrix gets wrong
    erratum = (Measure.HS, Criterion.D2)
    if result.mismatches != [erratum]:
        found = [(m.value, c.value) for m, c in result.mismatches]
        failures.append(f"mismatches {found}, expected only ('hs', 'D2')")
    v = result.verdict(*erratum)
    if v.violated or v.trials != 1000:
        failures.append(f"(hs, D2) verdict {v.label}, expected NoViolationFound(1000)")
    (cell,) = [c for c in doc["cells"] if (c["measure"], c["criterion"]) == ("hs", "D2")]
    note = cell.get("note")
    if not cell["mismatch"] or not note or note != ERRATUM_NOTES.get(erratum):
        failures.append("(hs, D2) not flagged as a mismatch with its erratum note")
    # the erratum's reason: alpha^2 cancels in c^2/||c||_2^2
    hs = MeasureSpec(Measure.HS)
    before = np.asarray(CATALOG_PAIRS["CE2"].before, dtype=float)
    base = evaluate(hs, CoefficientVector(before))
    for alpha in (1e-3, 2.0, 1e3):
        scaled = evaluate(hs, CoefficientVector(alpha * before))
        if abs(scaled - base) > 1e-12 * abs(base):
            failures.append(f"hs not scale invariant at alpha={alpha}: {base} -> {scaled}")

    # the random streams: every cell as pinned, and the l0-eps/D3 witness
    pinned = pinned_table()
    produced = {
        (c["measure"], c["criterion"]): (c["verdict"], c["source"], c["trials"], c["skipped"])
        for c in doc["cells"]
    }
    for cell in sorted(set(pinned) | set(produced)):
        if pinned.get(cell) != produced.get(cell):
            failures.append(f"{cell} is {produced.get(cell)}, pinned {pinned.get(cell)}")
    witness = result.verdict(Measure.L0_EPS, Criterion.D3).witness
    ticks = [t * 2.0**-20 for t in PINNED_L0_EPS_D3_TICKS]
    if witness is None or witness.before.values.tolist() != ticks:
        failures.append("(l0-eps, D3) witness before vector differs from the pinned one")

    ok = (
        "only mismatch is the (hs, D2) erratum, NoViolationFound(1000), hs scale invariant, "
        "all 90 cells as pinned"
    )
    detail = f"table reproduction, {elapsed:.1f}s: " + ("; ".join(failures) or ok)
    report(1, not failures, detail)
    assert not failures, detail


@pytest.mark.parametrize("seed", [7, 201])
def test_verdicts_hold_at_other_seeds(seed):
    # each cell's verdict and source, trial and skip counts aside, do not
    # depend on the streams: this holds across a deliberate change to them
    doc = full_table(trials=1000, seed=seed).to_dict()
    produced = {(c["measure"], c["criterion"]): (c["verdict"], c["source"]) for c in doc["cells"]}
    assert produced == {cell: code[:2] for cell, code in pinned_table().items()}


def test_criterion_2_fixed_values():
    failures = []
    if evaluate(MeasureSpec(Measure.NEG_L1), CoefficientVector([0, 1, 3, 5])) != -9.0:
        failures.append("neg-l1([0,1,3,5]) != -9 exactly")
    if abs(gini(CoefficientVector([0, 1, 3, 5])) - 17 / 36) > 1e-12:
        failures.append("gini([0,1,3,5]) != 17/36")
    for n in range(2, 65):
        hot = np.zeros(n)
        hot[n // 2] = 7.0
        if abs(gini(CoefficientVector(hot)) - (1 - 1 / n)) > 1e-12:
            failures.append(f"gini one-hot N={n}")
    for c in (1.0, 0.1, 123.456):
        if gini(CoefficientVector([c] * 9)) != 0.0:
            failures.append(f"gini constant ({c}) not exactly 0")
    hoyer = MeasureSpec(Measure.HOYER)
    for s, n in ((7.0, 4), (3.5, 2), (0.1, 17), (123.456, 64)):
        hot = np.zeros(n)
        hot[0] = s
        if abs(evaluate(hoyer, CoefficientVector(hot)) - 1.0) > 1e-12:
            failures.append(f"hoyer one-hot (s={s}, n={n})")
        if abs(evaluate(hoyer, CoefficientVector([s] * n))) > 1e-12:
            failures.append(f"hoyer constant (s={s}, n={n})")
    report(2, not failures, "fixed values: " + ("ok" if not failures else "; ".join(failures)))
    assert not failures, "; ".join(failures)


def test_criterion_3_counterexample_regression():
    failures = []
    # erratum 3: the mapped pairs that cannot discriminate under the defaults
    dead = {
        (Measure.L0_EPS, Criterion.D1),
        (Measure.HG, Criterion.D4),
        (Measure.HS_PRIME, Criterion.D4),
        (Measure.HS, Criterion.D2),
    }
    for (measure, criterion), name in sorted(
        TABLE4_WITNESSES.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        verdict = catalog_verdict(MeasureSpec(measure), criterion)
        if verdict.violated == ((measure, criterion) in dead):
            state = "discriminates" if verdict.violated else "does not discriminate"
            failures.append(f"({measure.value}, {criterion.value}) via {name} {state}")

    # each dead pair for the documented reason
    v = catalog_verdict(MeasureSpec(Measure.L0_EPS), Criterion.D1)
    if (v.value_before, v.value_after) != (2.0, 1.0):
        failures.append(f"l0-eps/CE1 gives {(v.value_before, v.value_after)}, not (2.0, 1.0)")
    for m in (Measure.HG, Measure.HS_PRIME):
        v = catalog_verdict(MeasureSpec(m), Criterion.D4)
        if v.value_before != v.value_after:
            failures.append(f"{m.value}/CE4 sides differ: {v.value_before}, {v.value_after}")
    v = catalog_verdict(MeasureSpec(Measure.HS), Criterion.D2)
    if not relation_holds(Criterion.D2, v.value_before, v.value_after):
        failures.append(f"hs/CE2 sides differ: {v.value_before}, {v.value_after}")

    # the other three dead cells are truly violated: search finds a witness
    for measure, criterion in sorted(dead - {(Measure.HS, Criterion.D2)}):
        spec = MeasureSpec(measure)
        v = check_cell(spec, criterion, trials=1000, seed=0)
        cell = f"({measure.value}, {criterion.value})"
        if not v.violated:
            failures.append(f"{cell} search found no witness: {v.label}")
            continue
        vb = evaluate(spec, v.witness.before)
        va = evaluate(spec, v.witness.after)
        if (vb, va) != (v.value_before, v.value_after) or reapply(v.witness) != v.witness.after:
            failures.append(f"{cell} search witness does not replay")
        elif relation_holds(criterion, vb, va):
            failures.append(f"{cell} search witness does not break the relation")

    # the u-theta Robin Hood witness, with the window-formula magnitudes
    spec = MeasureSpec(Measure.U_THETA, theta=0.5)
    before = evaluate(spec, CoefficientVector(CATALOG_PAIRS["U1"].before))
    after = evaluate(spec, CoefficientVector(CATALOG_PAIRS["U1"].after))
    if abs(before - 0.875) > 1e-5 or abs(after - 0.89873) > 1e-5:
        failures.append(f"u-theta witness magnitudes {before}, {after}")
    if not after > before:
        failures.append("u-theta witness did not increase under the transfer")

    dead_names = ", ".join(f"({m.value}, {c.value})" for m, c in sorted(dead))
    detail = (
        f"every mapped catalog pair discriminates except the erratum cells {dead_names}, "
        "each for its documented reason; search witnesses replay"
        if not failures
        else "; ".join(failures)
    )
    report(3, not failures, detail)
    assert not failures, detail


def test_criterion_4_theorem_consistency(table_1000):
    result, _ = table_1000
    ok_expected = theorem_consistency(EXPECTED_TRUE)
    ok_produced = theorem_consistency(compliance_map(result))
    report(4, ok_expected and ok_produced,
           f"theorem meta-checks: expected={ok_expected} produced={ok_produced}")
    assert ok_expected and ok_produced


def test_criterion_5_poisson_convergence(poisson_result):
    result, elapsed = poisson_result
    failures = []
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    ratios = {}
    for m in (Measure.GINI, Measure.HOYER, Measure.KAPPA4):
        s = result.std(m)
        ratios[m.value] = s[-1] / s[0]
        if not s[-1] <= s[0] / 5:
            failures.append(f"{m.value} std ratio {s[-1] / s[0]:.3f} > 0.2")
    for m in (Measure.NEG_L1, Measure.NEG_LP):
        if not np.all(np.diff(result.mean(m)) < 0):
            failures.append(f"{m.value} means not strictly decreasing")
    detail = f"std ratios {ratios}, runtime {elapsed:.1f}s"
    report(5, not failures, detail if not failures else "; ".join(failures))
    assert not failures, "; ".join(failures)


def test_criterion_6_bernoulli_sweep(bernoulli_result):
    result = bernoulli_result
    failures = []
    grid = np.asarray(result.sweep_values)
    for m in (Measure.GINI, Measure.HOYER, Measure.KAPPA4, Measure.L0, Measure.L0_EPS):
        rho = stats.spearmanr(result.mean(m), grid).statistic
        if not rho >= 0.95:
            failures.append(f"spearman({m.value}) = {rho:.3f} < 0.95")
    norm = result.normalized(Measure.KAPPA4)
    at = {round(p, 2): v for p, v in zip(grid, norm)}
    if not at[0.5] < 0.5:
        failures.append(f"normalized kappa4 at p=0.5 is {at[0.5]:.3f}, not < 0.5")
    if not at[0.95] > 0.9:
        failures.append(f"normalized kappa4 at p=0.95 is {at[0.95]:.3f}, not > 0.9")
    report(6, not failures,
           "bernoulli sweep rank correlations and kappa4 shape"
           if not failures else "; ".join(failures))
    assert not failures, "; ".join(failures)


def test_criterion_7_distributional_gini():
    failures = []
    uniform = DistributionSpec.uniform(0.0, 1.0)
    exponential = DistributionSpec.exponential(1.0)
    gu = distributional_gini(uniform)
    ge = distributional_gini(exponential)
    if abs(gu - 1 / 3) > 1e-6:
        failures.append(f"uniform quadrature {gu}")
    if abs(ge - 0.5) > 1e-6:
        failures.append(f"exponential quadrature {ge}")
    su = sample_gini(uniform, 100_000, seed=0)
    se = sample_gini(exponential, 100_000, seed=0)
    if abs(su - gu) > 0.01:
        failures.append(f"uniform sample gini off by {abs(su - gu):.4f}")
    if abs(se - ge) > 0.01:
        failures.append(f"exponential sample gini off by {abs(se - ge):.4f}")
    report(7, not failures,
           f"quadrature uniform={gu:.8f} exp={ge:.8f}, samples within 0.01"
           if not failures else "; ".join(failures))
    assert not failures, "; ".join(failures)


CASES = 10_000


def _random_vector(rng) -> np.ndarray:
    v = rng.random(int(rng.integers(2, 65))) * 10
    v[rng.random(v.size) < 0.2] = 0
    return v


def test_criterion_8_property_suites():
    failures = []
    specs = [MeasureSpec(m) for m in Measure]

    # permutation invariance, bit-exact, all fifteen measures
    rng = np.random.default_rng(800)
    for _ in range(CASES):
        v = _random_vector(rng)
        a = CoefficientVector(v)
        b = CoefficientVector(rng.permutation(v))
        for spec in specs:
            try:
                ra = evaluate(spec, a)
            except Exception as exc:
                ra = type(exc)
            try:
                rb = evaluate(spec, b)
            except Exception as exc:
                rb = type(exc)
            if ra != rb:
                failures.append(f"permutation: {spec.id.value} on {v.tolist()}")
                break
        if failures:
            break

    # magnitude reduction: signed/complex construction equals |.| construction
    rng = np.random.default_rng(801)
    for _ in range(CASES):
        v = _random_vector(rng)
        signs = rng.choice([-1.0, 1.0], size=v.size)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=v.size))
        if not np.array_equal(
            CoefficientVector(signs * v).values, CoefficientVector(np.abs(signs * v)).values
        ):
            failures.append("magnitude reduction (signed)")
            break
        z = phases * v
        if not np.array_equal(
            CoefficientVector(z).values, CoefficientVector(np.abs(z)).values
        ):
            failures.append("magnitude reduction (complex)")
            break

    # Lorenz twice-area equals the closed-form Gini within 1e-12 relative
    rng = np.random.default_rng(802)
    checked = 0
    while checked < 1000:
        v = _random_vector(rng)
        if not v.any():
            continue
        checked += 1
        c = CoefficientVector(v)
        g = gini(c)
        if abs(lorenz_curve(c).twice_area_above() - g) > 1e-12 * max(1.0, abs(g)):
            failures.append(f"lorenz twice-area mismatch on {v.tolist()}")
            break

    # Robin Hood conserves the l1 mass exactly
    for k in range(CASES):
        t = sample_trial(Criterion.D1, seed=k)
        if float(np.sum(t.before.values)) != float(np.sum(t.after.values)):
            failures.append(f"robin hood l1 drift at seed {k}")
            break

    # Hoyer and l2/l1 order every same-length pair identically
    rng = np.random.default_rng(803)
    hoyer, ratio = MeasureSpec(Measure.HOYER), MeasureSpec(Measure.L2_OVER_L1)
    for _ in range(CASES):
        n = int(rng.integers(2, 65))
        v1, v2 = rng.random(n) * 10, rng.random(n) * 10
        c1, c2 = CoefficientVector(v1), CoefficientVector(v2)
        dh = evaluate(hoyer, c1) - evaluate(hoyer, c2)
        dr = evaluate(ratio, c1) - evaluate(ratio, c2)
        if abs(dr) > 1e-12 and np.sign(dh) != np.sign(dr):
            failures.append("hoyer/l2-over-l1 sign disagreement")
            break

    # scale invariance within 1e-9 relative for the six D2-true measures
    d2_true = [
        MeasureSpec(m)
        for m in (Measure.L0, Measure.L2_OVER_L1, Measure.KAPPA4, Measure.U_THETA,
                  Measure.HOYER, Measure.GINI)
    ]
    rng = np.random.default_rng(804)
    done = 0
    while done < CASES:
        v = _random_vector(rng)
        if not v.any() or v.max() == v.min():
            continue
        done += 1
        alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        a, b = CoefficientVector(v), CoefficientVector(alpha * v)
        for spec in d2_true:
            s0, s1 = evaluate(spec, a), evaluate(spec, b)
            if abs(s1 - s0) > 1e-9 * max(1.0, abs(s0)):
                failures.append(f"scale invariance: {spec.id.value}")
                break
        if failures and failures[-1].startswith("scale"):
            break

    report(8, not failures,
           f"property suites ({CASES} cases each)" if not failures else "; ".join(failures))
    assert not failures, "; ".join(failures)
