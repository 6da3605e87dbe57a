"""Benchmark for sparsemetrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One client runs the workload's CLI operations in a closed loop, in this
process, through ``sparsemetrics.cli.parse_and_dispatch``, each operation
starting when the previous one has ended.  Every output is checked against
references computed here.

``--trace 0`` reports the end-to-end metrics: ``round_ref_s`` (median time
of one round of the workload's operations, at the reference speed of
``probe.py``), ``setup_s`` (median time of ``import sparsemetrics`` in a
fresh interpreter, at reference speed) and ``peak_rss_mb``.  The raw and
per-operation timings are printed by name before the result line.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds plus the tracing overhead.

``--workload all`` runs every workload in turn, each in its own process,
and prints all of their metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Set before numpy loads: one BLAS/OpenMP thread for the timed process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
from layers import Instrumentation, is_count, per_layer  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
SUBPROCESS_TIMEOUT = 120

END_TO_END_UNITS = {"round_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def machine_facts() -> dict:
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _import_child(extra_flags: list[str], code: str) -> subprocess.CompletedProcess:
    prelude = f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\n"
    return subprocess.run(
        [sys.executable, *extra_flags, "-c", prelude + code],
        capture_output=True,
        text=True,
        check=True,
        timeout=SUBPROCESS_TIMEOUT,
    )


def setup_times(repeats: int) -> tuple[list[float], list[float]]:
    """Seconds to ``import sparsemetrics`` in fresh interpreters, after one
    untimed import that leaves bytecode and the file cache warm: as
    measured, and at reference speed."""
    code = (
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from probe import SpeedProbe\n"
        "with SpeedProbe() as probe:\n"
        "    t = time.perf_counter()\n"
        "    import sparsemetrics\n"
        "    t = time.perf_counter() - t - probe.overhead()\n"
        "print(repr(t), repr(t * probe.scale()))"
    )
    _import_child([], code)
    raw, ref = [], []
    for _ in range(repeats):
        t, t_ref = _import_child([], code).stdout.split()
        raw.append(float(t))
        ref.append(float(t_ref))
    return raw, ref


def import_profile() -> dict[str, float]:
    """``-X importtime`` of ``import sparsemetrics``: seconds spent importing
    scipy (cumulative, outermost scipy modules only) and modules loaded."""
    _import_child([], "import sparsemetrics")
    proc = _import_child(["-X", "importtime"], "import sparsemetrics\nprint(len(sys.modules))")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    # children are printed before their parent, so walk backwards
    scipy_us, stack = 0, []
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        parent_is_scipy = bool(stack) and stack[-1][1]
        if is_scipy and not parent_is_scipy:
            scipy_us += cumulative
        stack.append((depth, is_scipy or parent_is_scipy))
    return {"setup.import_scipy_s": scipy_us / 1e6, "setup.modules_loaded": int(proc.stdout)}


class Runner:
    """Runs and checks operations, keeping the first report of each as the
    bytes every repeat must reproduce."""

    def __init__(self, workload: Workload) -> None:
        from sparsemetrics import cli

        self.cli = cli
        self.workload = workload
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_bytes = 0
        self.probe = SpeedProbe()
        # (label, seconds, seconds at reference speed, probe samples) per operation
        self.series: list[tuple[str, float, float, int]] = []

    def run(self, i: int, op: Op) -> tuple[float, float, dict[str, float]]:
        """Run op ``i``; returns its wall time without the probe's, the same
        at reference speed, and derived metrics."""
        gc.collect()
        op.output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        code = error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), self.probe:
            start = time.perf_counter()
            try:
                code = self.cli.parse_and_dispatch(op.argv)
            except (Exception, SystemExit) as exc:  # a traceback or exit is a failed operation
                error = exc
            elapsed = time.perf_counter() - start - self.probe.overhead()
        ref = elapsed * self.probe.scale()
        self.series.append((op.label, elapsed, ref, len(self.probe.samples)))
        if error is not None:
            self._fail(op, [f"raised {type(error).__name__}: {error}"])
            return elapsed, ref, {}
        try:
            text = op.output.read_text(encoding="utf-8")
        except OSError as exc:
            self._fail(op, [f"no report: {exc}"])
            return elapsed, ref, {}
        self.output_bytes += len(text.encode()) + len(out.getvalue().encode())
        problems = op.check(code, text, err.getvalue())
        if i in self.first and text != self.first[i]:
            problems.append("report bytes differ from the first run of this seed")
        self.first.setdefault(i, text)
        if problems:
            self._fail(op, problems)
            return elapsed, ref, {}
        return elapsed, ref, self.workload.derived(op, text, elapsed)

    def _fail(self, op: Op, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append(f"{' '.join(op.argv[:3])}: {'; '.join(problems[:5])}")

    def round(self, tracer=None) -> tuple[float, float, dict[str, float]]:
        """One round of every operation, each inside a root span of
        ``tracer`` when one is given.

        Returns the round's wall time, the same at reference speed, and the
        per-label timings (operations sharing a label add up)."""
        wall, ref, samples = 0.0, 0.0, {}
        for i, op in enumerate(self.workload.ops):
            if tracer is None:
                elapsed, op_ref, derived = self.run(i, op)
            else:
                with tracer.op_span(f"op.{op.argv[0]}", self.attempted):
                    elapsed, op_ref, derived = self.run(i, op)
            wall += elapsed
            ref += op_ref
            samples[op.label] = samples.get(op.label, 0.0) + elapsed
            samples.update(derived)
        return wall, ref, samples


def summarize(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def untraced(workload: Workload, seconds: float) -> tuple[Runner, dict, dict]:
    runner = Runner(workload)
    setup_raw, setup_ref = setup_times(SETUP_REPEATS)
    runner.run(-1, workload.warmup or workload.ops[0])  # untimed
    rounds, refs, samples = [], [], {}
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        wall, ref, s = runner.round()
        rounds.append(wall)
        refs.append(ref)
        for k, v in s.items():
            samples.setdefault(k, []).append(v)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "round_ref_s": statistics.median(refs),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_mb,
    }
    named = {k: summarize(v) for k, v in samples.items()}
    named["round_s"] = summarize(rounds)
    named["round_ref_s"] = summarize(refs)
    named["setup_raw_s"] = summarize(setup_raw)
    named["setup_s"] = summarize(setup_ref)
    return runner, metrics, named


def traced(workload: Workload, seconds: float, spans_path: Path) -> tuple[Runner, dict, dict]:
    runner = Runner(workload)
    setup = import_profile()
    tracer = Tracer()
    inst = Instrumentation(tracer)
    runner.run(-1, workload.warmup or workload.ops[0])  # untimed
    walls: dict[bool, list[float]] = {False: [], True: []}
    refs: dict[bool, list[float]] = {False: [], True: []}
    layer_rounds: list[dict] = []
    start = time.perf_counter()
    while not walls[True] or time.perf_counter() - start < seconds:
        tracing = len(walls[False]) > len(walls[True])
        if tracing:
            inst.install()
            before, bytes_before = inst.snapshot(), runner.output_bytes
        try:
            wall, ref, _ = runner.round(tracer if tracing else None)
        finally:
            if tracing:
                inst.uninstall()
        walls[tracing].append(wall)
        refs[tracing].append(ref)
        if tracing:
            out_bytes = runner.output_bytes - bytes_before
            layer_rounds.append(per_layer(tracer, before, inst.snapshot(), reference.MEASURE_IDS, out_bytes))
    tracer.dump(spans_path)

    metrics, named = {}, {}
    for name, (_, unit) in layer_rounds[0].items():
        values = [r[name][0] for r in layer_rounds]
        if is_count(name) and len(set(values)) > 1:
            runner.failed += 1
            runner.problems.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = (statistics.median(values), unit)
    for name, value in setup.items():
        metrics[name] = (value, "s" if name.endswith("_s") else "count")
    # at reference speed, which the machine's drift moves far less than raw time
    overhead = statistics.median(refs[True]) - statistics.median(refs[False])
    metrics["trace.overhead_s"] = (overhead, "s")
    named["untraced_round_s"] = summarize(walls[False])
    named["traced_round_s"] = summarize(walls[True])
    named["untraced_round_ref_s"] = summarize(refs[False])
    named["traced_round_ref_s"] = summarize(refs[True])
    return runner, metrics, named


def run_one(args) -> int:
    if not (SRC / "sparsemetrics" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # a path that repeats across runs, since reports echo their argv
    workdir = WORK / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            spans_path = spans_dir / f"{args.workload}-seed{args.seed}.npz"
            runner, raw, named = traced(workload, args.seconds, spans_path)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        else:
            runner, raw, named = untraced(workload, args.seconds)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in raw.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ratio = runner.failed / runner.attempted
    units = {k: ("1/s" if k.endswith("_per_s") else "s") for k in named}
    for name, s in named.items():
        print(
            f"{name:<22} {s['median']:.6g} {units[name]}  "
            f"(median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        )
    if "peak_rss_mb" in raw:
        print(f"{'peak_rss_mb':<22} {raw['peak_rss_mb']:.6g} MB")
    print(f"{'failed_ratio':<22} {failed_ratio:.6g}  ({runner.failed} of {runner.attempted} operations)")
    for p in runner.problems:
        print(f"FAILED {p}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timings": {k: {**v, "unit": units[k]} for k, v in named.items()},
        "failed_ratio": failed_ratio,
        "series": runner.series,
        "problems": runner.problems,
        "machine": machine_facts(),
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
