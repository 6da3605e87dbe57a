"""Self-tests for the benchmark's own checks and tracing.

    python3 perfbench/selftest.py

Each check must reject a deliberately damaged output (a flipped verdict, a
value off by 1e-6 relative, a truncated Lorenz curve), and the traced run
must leave every report byte-identical to the untraced one.  The file name
keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run  # sets the thread variables before numpy loads
import reference as ref
from layers import Instrumentation, is_count, per_layer
from spans import Tracer
from workloads import write_vector

sys.path.insert(0, str(run.SRC))
from sparsemetrics import cli  # noqa: E402


def invoke(argv: list[str], out: Path) -> tuple[int, str, str]:
    """Run one CLI operation; returns (exit code, report text, stderr)."""
    import contextlib
    import io

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.parse_and_dispatch([*argv, "--output", str(out)])
    return code, out.read_text(encoding="utf-8"), err.getvalue()


class Base(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.tmp = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench-work"))
        cls.vec = cls.tmp / "vector.txt"
        cls.values = write_vector(cls.vec, seed=5, n=3000)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.tmp, ignore_errors=True)


class TableCheck(Base):
    def test_flipped_verdict_is_a_failure(self) -> None:
        code, text, err = invoke(["table", "--trials", "1000", "--seed", "4", "--format", "structured"], self.tmp / "t.json")
        self.assertEqual(ref.check_table(code, text, err), [])
        doc = json.loads(text)
        cell = next(c for c in doc["cells"] if (c["measure"], c["criterion"]) == ("gini", "D1"))
        cell["verdict"] = "violated"
        self.assertNotEqual(ref.check_table(code, json.dumps(doc), err), [])
        self.assertNotEqual(ref.check_table(0, text, err), [])  # exit code must be 1

    def test_erratum_is_the_only_allowed_mismatch(self) -> None:
        self.assertEqual(ref.expected_verdict("hs", "D2"), "no-violation-found")
        self.assertEqual(ref.expected_verdict("hs", "D1"), "violated")
        self.assertNotEqual(ref.check_table(1, "not json", ""), [])


class VectorChecks(Base):
    def setUp(self) -> None:
        self.ref = {m: ref.measure_value(m, self.values) for m in ref.MEASURE_IDS}

    def test_measure_off_by_1e6_relative_is_a_failure(self) -> None:
        code, text, _ = invoke(["measure", "--measure", "gini", "--input", str(self.vec), "--format", "structured"], self.tmp / "m.json")
        self.assertEqual(ref.check_measure(code, text, "gini", self.ref), [])
        doc = json.loads(text)
        doc["value"] *= 1 + 1e-6
        self.assertNotEqual(ref.check_measure(code, json.dumps(doc), "gini", self.ref), [])

    def test_measure_all_off_by_1e6_relative_is_a_failure(self) -> None:
        code, text, _ = invoke(["measure-all", "--input", str(self.vec), "--format", "structured"], self.tmp / "a.json")
        self.assertEqual(ref.check_measure_all(code, text, self.ref), [])
        for i in range(len(ref.MEASURE_IDS)):
            doc = json.loads(text)
            doc["values"][i]["value"] *= 1 + 1e-6
            self.assertNotEqual(ref.check_measure_all(code, json.dumps(doc), self.ref), [], ref.MEASURE_IDS[i])

    def test_truncated_lorenz_is_a_failure(self) -> None:
        code, text, _ = invoke(["lorenz", "--input", str(self.vec)], self.tmp / "l.csv")
        ref_y = ref.lorenz_reference(self.values)
        self.assertEqual(ref.check_lorenz(code, text, ref_y), [])
        lines = text.splitlines(keepends=True)
        self.assertNotEqual(ref.check_lorenz(code, "".join(lines[:-1]), ref_y), [])
        x, y = lines[1000].rstrip("\n").split(",")
        lines[1000] = f"{x},{float(y) * (1 + 1e-6)!r}\n"
        self.assertNotEqual(ref.check_lorenz(code, "".join(lines), ref_y), [])


class StudyChecks(Base):
    def test_dgini_outside_tol_is_a_failure(self) -> None:
        argv = ["experiment", "--name", "distributional-gini", "--dist", "exponential", "--sample-n", "100000", "--format", "structured"]
        code, text, _ = invoke(argv, self.tmp / "g.json")
        self.assertEqual(ref.check_dgini(code, text, "exponential", 1e-8), [])
        doc = json.loads(text)
        doc["quadrature_gini"] = 0.5 + 2e-8
        self.assertNotEqual(ref.check_dgini(code, json.dumps(doc), "exponential", 1e-8), [])

    def test_study_with_a_shifted_mean_is_a_failure(self) -> None:
        argv = ["experiment", "--name", "bernoulli-sweep", "--repeats", "20", "--format", "structured"]
        code, text, _ = invoke(argv, self.tmp / "b.json")
        grid = [k / 20 for k in range(1, 20)]
        self.assertEqual(ref.check_study(code, text, "bernoulli-sweep", grid, 1000, 20, 0.0), [])
        doc = json.loads(text)
        row = next(r for r in doc["summary"] if r["measure"] == "l0" and r["p"] == 0.5)
        row["mean"] += 40.0
        self.assertNotEqual(ref.check_study(code, json.dumps(doc), "bernoulli-sweep", grid, 1000, 20, 0.0), [])


class Tracing(Base):
    OPS = (
        ["table", "--trials", "40", "--seed", "2", "--format", "structured"],
        ["measure-all", "--format", "structured"],
        ["lorenz"],
        ["experiment", "--name", "poisson-convergence", "--repeats", "4", "--format", "structured"],
        ["experiment", "--name", "distributional-gini", "--sample-n", "1000", "--format", "structured"],
    )

    def _run_all(self, inst: Instrumentation | None) -> tuple[list[str], dict]:
        texts = []
        if inst:
            inst.install()
            before = inst.snapshot()
        try:
            for i, argv in enumerate(self.OPS):
                if argv[0] in ("measure-all", "lorenz"):
                    argv = [*argv, "--input", str(self.vec)]
                texts.append(invoke(argv, self.tmp / f"op{i}.out")[1])
        finally:
            if inst:
                inst.uninstall()
        layers = per_layer(inst.tracer, before, inst.snapshot(), ref.MEASURE_IDS, 0) if inst else {}
        return texts, layers

    def test_traced_reports_equal_untraced(self) -> None:
        plain, _ = self._run_all(None)
        traced, layers = self._run_all(Instrumentation(Tracer()))
        self.assertEqual(plain, traced)
        for name in (
            "cli.read_vector.self_s", "cli.write_report.self_s", "measures.lorenz_curve.self_s",
            "transforms.draw_trial.self_s", "compliance.check_cell.self_s", "rng.stream.self_s",
            "experiments.sample_vector.self_s", "experiments.distributional_gini.self_s",
        ):  # fmt: skip
            self.assertGreater(layers[name][0], 0.0, name)
        # wrappers are gone afterwards
        self.assertFalse(hasattr(cli.read_vector, "__wrapped__"))

    def test_counts_repeat_between_traced_runs(self) -> None:
        first = self._run_all(Instrumentation(Tracer()))[1]
        second = self._run_all(Instrumentation(Tracer()))[1]
        counts = {k for k in first if is_count(k)}
        self.assertIn("compliance.trials", counts)
        self.assertEqual({k: first[k] for k in counts}, {k: second[k] for k in counts})

    def test_self_time_subtracts_children(self) -> None:
        t = Tracer()
        inner = t.wrap(lambda: sum(range(20000)), "inner")
        outer = t.wrap(lambda: [inner() for _ in range(3)], "outer")
        with t.op_span("op", 0):
            outer()
        tot = t.totals()
        self.assertEqual(tot["inner"]["calls"], 3)
        self.assertAlmostEqual(
            tot["outer"]["self_s"], tot["outer"]["total_s"] - tot["inner"]["total_s"], places=12
        )
        self.assertEqual(t.child_calls("outer", "inner"), 3)


class Probe(unittest.TestCase):
    def test_probe_samples_and_restores_the_handler(self) -> None:
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        with run.SpeedProbe() as probe:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.samples), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        t = Tracer()
        snap = {"mark": 0, "errors": {}, "compliance.trials": 0, "compliance.skipped": 0, "cli.read_vector.values": 0}
        layers = {k: u for k, (_, u) in per_layer(t, snap, snap, ref.MEASURE_IDS, 0).items()}
        layers.update({"setup.import_scipy_s": "s", "setup.modules_loaded": "count", "trace.overhead_s": "s"})
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layers)

    def test_exits_nonzero_without_the_program(self) -> None:
        bare = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench-work"))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "studies", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )  # fmt: skip
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    (run.ROOT / ".perfbench-work").mkdir(exist_ok=True)
    unittest.main()
