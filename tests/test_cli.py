"""End-to-end CLI tests: commands, formats, exit codes, determinism."""

import io
import json
import os
import re
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemetrics import (
    CoefficientVector,
    Criterion,
    Measure,
    MeasureSpec,
    evaluate,
    lorenz_curve,
    relation_holds,
)
from sparsemetrics import cli, parts
from sparsemetrics.cli import (
    MAX_GRID_POINTS,
    InputError,
    _parse_grid,
    parse_and_dispatch,
    read_vector,
)
from sparsemetrics.errors import SparsemetricsError


@pytest.fixture
def vec_file(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("0,1,3,5\n")
    return str(path)


def run_cli(*argv):
    return parse_and_dispatch(list(argv))


class TestReadVector:
    def test_commas_and_newlines(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("0,1\n3 5\n")
        assert read_vector(str(p)).values.tolist() == [0, 1, 3, 5]

    def test_magnitudes(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("-2 3\n")
        assert read_vector(str(p)).values.tolist() == [2, 3]

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1e-3,2E2\n")
        assert read_vector(str(p)).values.tolist() == [0.001, 200.0]

    def test_complex_mode(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("3,4\n0,2\n")
        assert read_vector(str(p), complex_pairs=True).values.tolist() == [5.0, 2.0]

    def test_malformed_number_diagnostics(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(SparsemetricsError, match="line 2, column 3"):
            read_vector(str(p))

    def test_empty_input_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("\n\n")
        with pytest.raises(SparsemetricsError, match="no values"):
            read_vector(str(p))

    def test_not_utf8_rejected(self, tmp_path, monkeypatch, capsys):
        data = b"1 2 \xff\xfe 3\n"
        p = tmp_path / "v.txt"
        p.write_bytes(data)
        with pytest.raises(SparsemetricsError, match=f"cannot read {p}: .*byte offset 4"):
            read_vector(str(p))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run_cli("measure", "--measure", "gini", "--input", "-") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot read -: not UTF-8 text (byte offset 4)\n"


def _number_forms(v: float) -> list[str]:
    return [repr(v), "%.16e" % v, "%.16E" % v]


# valid tokens: plain and %.16e/%.16E forms, signed zeros, underscores and
# non-ASCII decimal digits, all of which Python's float accepts
TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from(_number_forms(v))
    ),
    st.sampled_from(
        ["-0.0", "0e0", "1_000", "-2_5.0_1e-1_0", "\u0661\u0662\u0663",
         "\u0661.\u0665", "\uff11\uff12", "\U0001d7cfe3", "-\u0663e2", "+.5"]
    ),
)
# every whitespace kind str.split accepts can be where a part is cut
SEPARATORS = st.sampled_from(
    [",", " , ", "\t", "\r\n", "\v", " ", "\n\n", "\n \n", "\x1c", "\x85", "\u2028", "\u3000", "\f"]
)
BAD_TOKENS = st.sampled_from(["x", "1e", "1..2", "--1", "1_", "0x10", "\u00bd", "1e5x", "nan?"])


@st.composite
def vector_text(draw):
    tokens = draw(st.lists(TOKENS, max_size=30))
    seps = draw(st.lists(SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = seps[0] if draw(st.booleans()) else ""
    return text + "".join(t + s for t, s in zip(tokens, seps[1:]))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "v.txt"


class TestFastParse:
    """The one-pass real-mode parse gives exactly what the line loop gives,
    and a malformed token keeps the loop's line and column message, with
    the text parsed whole or cut into 2, 3 or 4 forked parts."""

    @settings(max_examples=300, deadline=None)
    @given(vector_text(), st.sampled_from([1, 2, 3, 4]))
    def test_same_values_as_line_loop(self, force_parts, text, cpus):
        with pytest.MonkeyPatch.context() as mp:
            force_parts(mp, cpus)
            fast = cli._split_values(text).tolist()
        loop = cli._line_values(text, complex_pairs=False)
        # float.hex tells -0.0 from 0.0 and shows every bit
        assert [v.hex() for v in fast] == [float(v).hex() for v in loop]

    @settings(max_examples=200, deadline=None)
    @given(vector_text(), BAD_TOKENS, SEPARATORS, vector_text(), st.sampled_from([1, 2, 3, 4]))
    def test_malformed_token_named(self, scratch_file, force_parts, head, bad, sep, tail, cpus):
        # head ends with a separator (or is empty), so bad stands alone
        lines = (head + bad).splitlines()
        line, column = len(lines), len(lines[-1]) - len(bad) + 1
        scratch_file.write_bytes((head + bad + sep + tail).encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp, pytest.raises(SparsemetricsError) as info:
            force_parts(mp, cpus)
            read_vector(str(scratch_file))
        assert str(info.value) == f"line {line}, column {column}: malformed number {bad!r}"


def _no_fork():
    raise AssertionError("os.fork called")


class TestParts:
    """``_map_parts`` forks only where a split pays and is safe, and its
    result does not depend on whether a child finished its part."""

    TEXT = " ".join(repr(k / 7) for k in range(1, 41)) + "\n"
    # 4,800 drawn values in 3 blocks: under PART_MIN_NUMBERS
    STUDY = ("experiment", "--name", "poisson-convergence", "--lambda", "1", "--sizes", "3,5,8",
             "--repeats", "300", "--seed", "2")  # fmt: skip
    # 780 search draws (39 cells of 20 trials): under PART_MIN_NUMBERS
    TABLE = ("table", "--trials", "20")

    def test_forks_once_for_two_cpus(self, monkeypatch, capsys, force_parts):
        # the control for the tests below: these inputs do fork when split
        force_parts(monkeypatch, 2)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert cli._split_values(self.TEXT).tolist() == [k / 7 for k in range(1, 41)]
        assert len(forks) == 1
        assert run_cli(*self.STUDY, "--raw") == 0
        assert len(forks) == 2
        forked = capsys.readouterr()
        assert run_cli(*self.TABLE) == 1
        assert len(forks) == 3
        forked_table = capsys.readouterr()
        force_parts(monkeypatch, 1)
        assert run_cli(*self.STUDY, "--raw") == 0
        assert len(forks) == 3 and capsys.readouterr() == forked
        assert run_cli(*self.TABLE) == 1
        assert len(forks) == 3 and capsys.readouterr() == forked_table

    @pytest.mark.parametrize("case", ["one-cpu", "live-thread", "below-threshold"])
    def test_no_fork(self, monkeypatch, tmp_path, capsys, case, force_parts):
        if case != "below-threshold":
            force_parts(monkeypatch, 1 if case == "one-cpu" else 2)
        monkeypatch.setattr(os, "fork", _no_fork)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        if case == "live-thread":
            thread.start()
        try:
            assert cli._split_values(self.TEXT).tolist() == [k / 7 for k in range(1, 41)]
            p = tmp_path / "v.txt"
            p.write_text(self.TEXT)
            assert run_cli("lorenz", "--input", str(p)) == 0
            assert len(capsys.readouterr().out.splitlines()) == 42
            assert run_cli(*self.TABLE) == 1
            assert len(capsys.readouterr().out.splitlines()) == 91
            assert run_cli(*self.STUDY, "--raw") == 0
        finally:
            done.set()
            if case == "live-thread":
                thread.join(timeout=10)
        assert not thread.is_alive()
        # a header and 15 measures x 3 sizes x 300 repeats
        assert len(capsys.readouterr().out.splitlines()) == 1 + 15 * 3 * 300

    @pytest.mark.parametrize("fmt", [("--format", "tabular"), ("--raw",), ("--format", "structured")])
    @pytest.mark.parametrize("name", ["poisson-convergence", "bernoulli-sweep"])
    def test_experiment_bytes_do_not_depend_on_cpu_count(
        self, monkeypatch, capsys, name, fmt, force_parts
    ):
        outputs = []
        for cpus in (1, 2, 3, 4):
            force_parts(monkeypatch, cpus)
            assert run_cli("experiment", "--name", name, *fmt) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize("fmt", ["tabular", "structured"])
    @pytest.mark.parametrize("seed", ["0", "2208"])
    def test_table_bytes_do_not_depend_on_cpu_count(
        self, monkeypatch, capsys, seed, fmt, force_parts
    ):
        # at seed 2208 the search also finds a neg-tanh/D1 witness (trial 500)
        outputs = []
        for cpus in (1, 2, 3, 4):
            force_parts(monkeypatch, cpus)
            outputs.append((run_cli("table", "--seed", seed, "--format", fmt), capsys.readouterr()))
        assert outputs[1:] == outputs[:1] * 3
        code, captured = outputs[0]
        mismatches = [line for line in captured.err.splitlines() if line.startswith("mismatch:")]
        assert code == 1 and len(mismatches) == (2 if seed == "2208" else 1)

    @pytest.mark.parametrize("argv", [("--seed", "-1"), ("--trials", "0")])
    def test_table_error_does_not_depend_on_cpu_count(self, monkeypatch, capsys, argv, force_parts):
        errors = []
        for cpus in (1, 3):
            force_parts(monkeypatch, cpus)
            errors.append((run_cli("table", *argv), capsys.readouterr()))
        assert errors[1] == errors[0]
        code, captured = errors[0]
        assert code == 2 and not captured.out and captured.err.startswith("error: ")

    @pytest.mark.parametrize("death", ["exit-1", "sigkill"])
    def test_dead_child_recomputed(self, death):
        parent = os.getpid()

        def part(lo, hi):
            if os.getpid() != parent:
                if death == "exit-1":
                    os._exit(1)
                os.kill(os.getpid(), signal.SIGKILL)
            return np.arange(lo, hi, dtype=np.float64)

        results = parts._map_parts(part, [0, 3, 3, 7, 12])
        assert np.concatenate(results).tolist() == list(range(12))

    def test_parent_part_raises(self):
        # each child writes more than a pipe holds, so it blocks until the
        # parent closes its read end
        def part(lo, hi):
            if lo == 0:
                raise RuntimeError("parent part failed")
            return b"x" * (1 << 22)

        def timeout(signum, frame):
            raise TimeoutError("_map_parts did not return")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(20)
        try:
            with pytest.raises(RuntimeError, match="parent part failed"):
                parts._map_parts(part, [0, 1, 2, 3, 4])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestMeasureCommand:
    def test_gini_six_decimals(self, vec_file, capsys):
        assert run_cli("measure", "--measure", "gini", "--input", vec_file) == 0
        assert capsys.readouterr().out == "0.472222\n"

    def test_neg_l1(self, vec_file, capsys):
        assert run_cli("measure", "--measure", "neg-l1", "--input", vec_file) == 0
        assert capsys.readouterr().out == "-9.000000\n"

    def test_structured_full_precision(self, vec_file, capsys):
        run_cli("measure", "--measure", "gini", "--input", vec_file, "--format", "structured")
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 17 / 36
        assert doc["config"]["spec"]["id"] == "gini"

    def test_parameter_override(self, vec_file, capsys):
        run_cli("measure", "--measure", "l0-eps", "--input", vec_file, "--epsilon", "3")
        assert capsys.readouterr().out == "3.000000\n"

    def test_negative_value_in_exponent_notation(self, vec_file, capsys):
        # read as the option's value, not as an unknown option
        argv = ("measure", "--measure", "neg-lp-neg", "--input", vec_file)
        assert run_cli(*argv, "--p-neg=-1e-1") == 0
        joined = capsys.readouterr()
        assert run_cli(*argv, "--p-neg", "-1e-1") == 0
        assert capsys.readouterr() == joined and joined.out == "-2.747298\n"
        argv = ("measure", "--measure", "l0-eps", "--input", vec_file, "--epsilon", "-1e-3")
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "error: l0-eps requires epsilon > 0, got -0.001\n"

    def test_degenerate_input_exit_2(self, tmp_path, capsys):
        p = tmp_path / "z.txt"
        p.write_text("0,0,0\n")
        assert run_cli("measure", "--measure", "gini", "--input", str(p)) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert run_cli("measure", "--measure", "gini", "--input", "/nonexistent") == 2


class TestMeasureAllAndLorenz:
    def test_measure_all_has_15_rows(self, vec_file, capsys):
        run_cli("measure-all", "--input", vec_file)
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "measure,value,status"
        assert len(lines) == 16

    def test_lorenz_one_hot(self, tmp_path, capsys):
        p = tmp_path / "h.txt"
        p.write_text("0,0,0,0,1\n")
        run_cli("lorenz", "--input", str(p))
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 7  # header + 6 points
        assert lines[-1] == "1.0,1.0"

    def test_lorenz_rendering(self, tmp_path, capsys):
        # sorted [1, 2, 3]: x = k/3, y = (0, 1, 3, 6)/6
        p = tmp_path / "v.txt"
        p.write_text("3,-1\n2\n")
        points = [(k / 3, c / 6) for k, c in enumerate((0, 1, 3, 6))]
        assert run_cli("lorenz", "--input", str(p)) == 0
        tabular = "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in points)
        assert capsys.readouterr().out == tabular
        assert run_cli("lorenz", "--input", str(p), "--format", "structured") == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["points"] == [list(pt) for pt in points]
        rendered = json.dumps([list(pt) for pt in points], indent=2).replace("\n", "\n  ")
        assert f'"points": {rendered},' in out

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_lorenz_parts_same_bytes(self, tmp_path, capsys, monkeypatch, n, cpus, force_parts):
        # n + 1 points, odd and even, cut into parts: the bytes of one
        # %r format over all of them
        values = [(k * 0.37) % 1.9 for k in range(n)]
        points = lorenz_curve(CoefficientVector(np.array(values))).points
        p = tmp_path / "v.txt"
        p.write_text(" ".join(map(repr, values)))
        force_parts(monkeypatch, cpus)
        assert run_cli("lorenz", "--input", str(p)) == 0
        whole = "x,y\n" + "%r,%r\n" * len(points) % tuple(points.ravel().tolist())
        assert capsys.readouterr().out == whole


TINY = "1e-200,2e-200,3e-200\n"
HUGE = "1e308,1e308\n"


class TestFloat64Range:
    """Inputs whose intermediates leave the float64 range exit 2 with an
    error line, never a traceback or an out-of-range value."""

    @pytest.mark.parametrize(
        "values, command",
        [
            (TINY, ("measure", "--measure", "kappa4")),
            (TINY, ("measure", "--measure", "hoyer")),
            (HUGE, ("measure", "--measure", "gini")),
            (HUGE, ("measure", "--measure", "hs")),
            ("1e160,1e159,1\n", ("measure", "--measure", "hoyer")),
            (HUGE, ("lorenz",)),
            (TINY, ("measure", "--measure", "hs")),
            (TINY, ("measure", "--measure", "l2-over-l1")),
        ],
        ids=[
            "kappa4-tiny", "hoyer-tiny", "gini-huge", "hs-huge", "hoyer-wide", "lorenz-huge",
            "hs-tiny", "l2-over-l1-tiny",
        ],
    )
    def test_exit_2(self, tmp_path, capsys, values, command):
        p = tmp_path / "v.txt"
        p.write_text(values)
        assert run_cli(*command, "--input", str(p)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "float64 range" in captured.err

    @pytest.mark.parametrize(
        "values, degenerate",
        [
            # the squares underflow to zero
            (TINY, {"l2-over-l1", "kappa4", "hoyer", "hs"}),
            (
                HUGE,
                {"neg-l1", "neg-lp", "l2-over-l1", "neg-log", "kappa4", "u-theta", "hs",
                 "hs-prime", "hoyer", "gini"},
            ),
        ],
        ids=["tiny", "huge"],
    )
    def test_measure_all_marks_the_out_of_range(self, tmp_path, capsys, values, degenerate):
        p = tmp_path / "v.txt"
        p.write_text(values)
        assert run_cli("measure-all", "--input", str(p)) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 15
        assert {r[0] for r in rows if r[2] == "degenerate"} == degenerate

    @pytest.mark.parametrize(
        "measure, text",
        [("neg-l1", "-6.000000e-200\n"), ("neg-lp-neg", "-1.833333e+200\n")],
    )
    def test_tabular_value_keeps_its_magnitude(self, tmp_path, capsys, measure, text):
        # fixed point would print -0.000000 and a 201-digit integer
        p = tmp_path / "v.txt"
        p.write_text(TINY)
        assert run_cli("measure", "--measure", measure, "--input", str(p)) == 0
        assert capsys.readouterr().out == text
        assert run_cli("measure-all", "--input", str(p)) == 0
        assert f"{measure},{text.strip()},ok" in capsys.readouterr().out.splitlines()


class TestCheckCommand:
    def test_check_outputs_verdict(self, capsys):
        code = run_cli(
            "check", "--measure", "hoyer", "--criterion", "D4",
            "--trials", "50", "--seed", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "violated" in out

    @pytest.mark.parametrize("b", ["1e-9", "1e-300"])
    def test_neg_tanh_tiny_b(self, capsys, b):
        # 4^(1/b) leaves the float64 range: the trial cap saturates instead
        code = run_cli(
            "check", "--measure", "neg-tanh", "--criterion", "D1", "--b", b, "--trials", "5"
        )
        assert code in (0, 1)
        captured = capsys.readouterr()
        assert captured.err == ""
        header, row = captured.out.splitlines()
        assert header == "measure,criterion,verdict,trials,skipped"
        assert row.split(",")[2] in ("violated", "no-violation-found")


    def test_all_skipped_cell_is_noted_on_stderr(self, capsys):
        # above theta = 63/64, ceil(theta N) = N at every trial length from 2
        # to 64, so every draw is degenerate; stdout and the exit code stay
        # as they were, and one note says the verdict rests on no useful trial
        argv = ("check", "--measure", "u-theta", "--criterion", "D1", "--trials", "300")
        assert run_cli(*argv, "--theta", "0.985") == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "u-theta,D1,no-violation-found,300,300"
        assert captured.err == (
            "note: (u-theta, D1) skipped all 300 of its trials, so its "
            "no-violation-found rests on no useful trial\n"
        )
        assert run_cli(*argv, "--theta", "0.984") == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "u-theta,D1,violated,24,23"
        assert captured.err == ""


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    """One small table run shared by the table tests (trials=60, seed=0)."""
    out = tmp_path_factory.mktemp("table") / "table.json"
    code = run_cli(
        "table", "--trials", "60", "--seed", "0",
        "--format", "structured", "--output", str(out),
    )
    return code, json.loads(out.read_text())


class TestTableCommand:
    def test_exit_code_matches_mismatches(self, table_run):
        code, doc = table_run
        # the one documented mismatch (hs, D2) forces exit 1
        assert [tuple(m.values()) for m in doc["mismatches"]] == [("hs", "D2")]
        assert code == 1

    def test_structured_has_90_cells(self, table_run):
        _, doc = table_run
        assert len(doc["cells"]) == 90

    def test_disputed_cell_flagged_with_note(self, table_run):
        _, doc = table_run
        disputed = [c for c in doc["cells"] if c["disputed"]]
        assert len(disputed) == 1
        cell = disputed[0]
        assert (cell["measure"], cell["criterion"]) == ("l2-over-l1", "D3")
        assert cell["verdict"] == "no-violation-found"
        assert not cell["mismatch"]
        assert "note" in cell
        assert doc["disputed"][0]["note"]

    def test_config_echoed_with_defaults(self, table_run):
        _, doc = table_run
        assert doc["config"]["trials"] == 60
        assert doc["config"]["seed"] == 0
        assert doc["config"]["format"] == "structured"  # defaults echoed too
        assert doc["version"]

    def test_witness_round_trip(self, table_run):
        """Reading a reported witness back reproduces the violation."""
        _, doc = table_run
        checked = 0
        for cell in doc["cells"]:
            if cell["verdict"] != "violated":
                continue
            spec = MeasureSpec(Measure(cell["measure"]))
            crit = Criterion(cell["criterion"])
            before = CoefficientVector(cell["witness"]["before"])
            after = CoefficientVector(cell["witness"]["after"])
            vb, va = evaluate(spec, before), evaluate(spec, after)
            assert vb == cell["value_before"] and va == cell["value_after"]
            assert not relation_holds(crit, vb, va)
            checked += 1
        assert checked > 50

    def test_all_skipped_cells_are_noted_on_stderr(self, capsys):
        # at seed 4, gini/P1's one trial is skipped (a start within the
        # saturation margin of gini's maximum); at 1000 trials no cell is
        assert run_cli("table", "--trials", "1", "--seed", "4") == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("note:")] == [
            "note: (gini, P1) skipped all 1 of its trials, so its "
            "no-violation-found rests on no useful trial"
        ]
        assert run_cli("table", "--trials", "1000", "--seed", "0") == 1
        assert "note:" not in capsys.readouterr().err

    def test_byte_identical_reruns(self, capsys):
        argv = ("table", "--trials", "40", "--seed", "1", "--format", "structured")
        run_cli(*argv)
        first = capsys.readouterr().out
        run_cli(*argv)
        second = capsys.readouterr().out
        assert first == second


class TestExperimentCommand:
    def test_bernoulli_csv(self, capsys):
        code = run_cli(
            "experiment", "--name", "bernoulli-sweep",
            "--grid", "0.2,0.8", "--n", "50", "--repeats", "2",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,measure,mean,std,normalized"
        assert len(lines) == 1 + 2 * 15

    def test_an_empty_grid_option_keeps_the_default(self, capsys):
        argv = ("experiment", "--name", "bernoulli-sweep", "--n", "10", "--repeats", "2")
        assert run_cli(*argv) == 0
        default = capsys.readouterr().out
        assert run_cli(*argv, "--grid", "") == 0
        assert capsys.readouterr().out == default
        assert len(default.strip().splitlines()) == 1 + 19 * 15

    @pytest.mark.parametrize("sizes", ["10,30,", "10,,30", " 10 , 30 "])
    def test_blank_sizes_entries_are_skipped(self, capsys, sizes):
        argv = ("experiment", "--name", "poisson-convergence", "--repeats", "2", "--raw")
        assert run_cli(*argv, "--sizes", "10,30") == 0
        expected = capsys.readouterr().out
        assert run_cli(*argv, "--sizes", sizes) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "sizes, error",
        [(",", "grid ',' holds no points"), ("10,abc", "not a valid int: 'abc'"),
         ("10:30:10", "not a valid int: '10:30:10'")],
    )
    def test_bad_sizes(self, capsys, sizes, error):
        assert run_cli("experiment", "--name", "poisson-convergence", "--sizes", sizes) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_poisson_raw_rows(self, capsys):
        code = run_cli(
            "experiment", "--name", "poisson-convergence",
            "--sizes", "10,30", "--repeats", "2", "--raw",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,measure,repeat,value"
        assert len(lines) == 1 + 2 * 2 * 15

    def test_contribution_curves(self, capsys):
        code = run_cli(
            "experiment", "--name", "contribution-curves", "--amplitudes", "0,1,2",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "measure,x,term"
        assert len(lines) == 1 + 3 * 9

    def test_distributional_gini_structured(self, capsys):
        code = run_cli(
            "experiment", "--name", "distributional-gini", "--dist", "uniform",
            "--sample-n", "1000", "--format", "structured",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quadrature_gini"] == pytest.approx(1 / 3, abs=1e-6)

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_distributional_gini_unmeetable_tol(self, capsys, tol):
        # the step-halving cap ends the quadrature when tol can never be met
        code = run_cli(
            "experiment", "--name", "distributional-gini", "--dist", "exponential",
            "--sample-n", "1000", "--tol", tol, "--format", "structured",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["quadrature_gini"] - 0.5) <= 1e-12


# argparse's usage errors, and how their one stderr line starts
USAGE_ERRORS = {
    ("experiment", "--name", "contribution-curves", "--amplitudes", "0,1", "--a", "2"):
        "error: unrecognized arguments: --a 2",
    ("table", "--trial", "3"): "error: unrecognized arguments: --trial 3",
    ("check", "--measure", "gini", "--criterion", "d1"):
        "error: argument --criterion: invalid choice: 'd1'",
    ("table", "--seed", "abc"): "error: argument --seed: invalid int value: 'abc'",
    # an unknown option is reported by the parser it follows, with its help
    ("table", "--bogus"):
        "error: unrecognized arguments: --bogus (see 'sparsemetrics table --help' for usage)",
    ("--bogus", "table"):
        "error: unrecognized arguments: --bogus (see 'sparsemetrics --help' for usage)",
}


class TestBadArguments:
    """Out-of-range or malformed arguments exit 2 with an error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--measure", "gini", "--criterion", "D1", "--trials", "0"),
            ("table", "--trials", "0"),
            ("experiment", "--name", "poisson-convergence", "--sizes", "10,x"),
            ("experiment", "--name", "bernoulli-sweep", "--grid", "a:b:c"),
            ("experiment", "--name", "bernoulli-sweep", "--grid", "0.1,zz"),
            ("experiment", "--name", "poisson-convergence", "--lambda", "800",
             "--sizes", "10", "--repeats", "2"),
            ("check", "--measure", "gini", "--criterion", "D1", "--seed", "-1"),
            ("experiment", "--name", "bernoulli-sweep", "--seed", "-1"),
            ("experiment", "--name", "bernoulli-sweep", "--grid", "0:inf:1"),
            ("experiment", "--name", "bernoulli-sweep", "--grid", "0:nan:1"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "0:1e300:1e-300"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "0:1e9:1e-9"),
            ("experiment", "--name", "bernoulli-sweep", "--grid", "0:1:1e-6"),
            ("experiment", "--name", "distributional-gini", "--sample-n", "2000000000"),
            ("experiment", "--name", "poisson-convergence", "--sizes", "2000000000",
             "--repeats", "2"),
            ("experiment", "--name", "poisson-convergence", "--sizes", "10",
             "--repeats", "3000000000"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "nan"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "inf",
             "--format", "structured"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "1e200"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "1e-310"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "0:1"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "0:1:0"),
            ("experiment", "--name", "bernoulli-sweep", "--n", "1"),
            # the cap 4 / a rounds to the one-tick range {0}, which is rejected
            # before any draw, for every criterion
            ("check", "--measure", "neg-tanh", "--criterion", "D1", "--a", "1e9",
             "--trials", "5"),
            ("check", "--measure", "neg-tanh", "--criterion", "D2", "--a", "1e9",
             "--trials", "200"),
            ("check", "--measure", "neg-tanh", "--criterion", "D4", "--a", "1e9",
             "--trials", "200"),
            # the range {0, 1 tick}: no D1 vector is eligible (GenerationFailure)
            ("check", "--measure", "neg-tanh", "--criterion", "D1", "--a", "5e6",
             "--trials", "5"),
            ("experiment", "--name", "bernoulli-sweep", "--grid", "0.9:0.1:0.1", "--n", "10",
             "--repeats", "2"),
            ("experiment", "--name", "bernoulli-sweep", "--grid", ",", "--n", "10",
             "--repeats", "2"),
            ("experiment", "--name", "contribution-curves", "--amplitudes", "0.9:0.1:0.1"),
            ("experiment", "--name", "poisson-convergence", "--sizes", ","),
            # a seed is Philox's 128-bit key
            ("check", "--measure", "gini", "--criterion", "D1", "--seed", str(2**128)),
            *USAGE_ERRORS,
        ],
        ids=["check-trials-0", "table-trials-0", "sizes", "grid-range", "grid-list",
             "lambda-800", "check-seed", "experiment-seed", "grid-inf", "grid-nan",
             "grid-count-overflow", "grid-too-many-points", "grid-one-past-the-limit",
             "huge-sample-n", "huge-size", "huge-repeats", "amplitude-nan",
             "amplitude-inf", "term-overflow", "term-overflow-near-zero",
             "amplitudes-two-fields", "amplitudes-zero-step", "bernoulli-n-1",
             "neg-tanh-no-eligible-draw", "neg-tanh-zero-range-D2", "neg-tanh-zero-range-D4",
             "neg-tanh-one-tick-range", "grid-empty-range", "grid-empty-list",
             "amplitudes-empty-range", "sizes-empty-list", "check-seed-2**128",
             "a-for-amplitudes", "trial-for-trials", "invalid-choice", "seed-not-an-int",
             "unknown-after-subcommand", "unknown-before-subcommand"],
    )
    def test_exit_2(self, capsys, argv):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(USAGE_ERRORS.get(argv, "error: "))
        # argparse's errors too: one line, no usage block
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, argv, error",
        [
            ("1,2,3\n", ("measure", "--measure", "gini", "--complex"),
             "line 1, column 1: complex mode expects 're,im' pairs, got 3 value(s)"),
            ("0,0,0\n", ("lorenz",), "lorenz curve is undefined for the all-zero vector"),
        ],
        ids=["complex-odd-line", "lorenz-all-zero"],
    )
    def test_bad_input_exit_2(self, tmp_path, capsys, text, argv, error):
        p = tmp_path / "v.txt"
        p.write_text(text)
        assert run_cli(*argv, "--input", str(p)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("argv", [("--help",), ("table", "--help"), ("--version",)])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    @pytest.mark.parametrize("text", ["0.9:0.1:0.1", ",", " , "])
    def test_grid_without_points(self, text):
        with pytest.raises(InputError, match="holds no points"):
            _parse_grid(text)

    def test_grid_point_limit(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        with pytest.raises(InputError, match="more than 1000000 points"):
            _parse_grid(f"0:{MAX_GRID_POINTS}:1")

    @pytest.mark.parametrize(
        "argv, error",
        [
            # just under a limit a later check names another fault, so
            # nothing large is allocated on either side
            (("--name", "distributional-gini", "--sample-n", "10000000", "--lo", "2"),
             "uniform requires 0 <= lo < hi"),
            (("--name", "distributional-gini", "--sample-n", "10000001", "--lo", "2"),
             "--sample-n must be 10000000 or less, got 10000001"),
            (("--name", "poisson-convergence", "--sizes", "10000000", "--repeats", "1"),
             "repeats must be >= 2"),
            (("--name", "poisson-convergence", "--sizes", "10,10000001", "--repeats", "1"),
             "each --sizes entry must be 10000000 or less, got 10000001"),
            (("--name", "bernoulli-sweep", "--n", "10000000", "--grid", "0"),
             "grid values must lie strictly inside (0, 1)"),
            (("--name", "bernoulli-sweep", "--n", "10000001", "--grid", "0"),
             "--n must be 10000000 or less, got 10000001"),
            (("--name", "poisson-convergence", "--sizes", "3,2", "--repeats", "500000"),
             "sizes must be ascending and each >= 2"),
            (("--name", "poisson-convergence", "--sizes", "3,2", "--repeats", "500001"),
             "--repeats times sweep points (500001 x 2) is more than 1000000"),
            # the default 20 repeats count too
            (("--name", "bernoulli-sweep", "--grid", "0:49999:1"),
             "grid values must lie strictly inside (0, 1)"),
            (("--name", "bernoulli-sweep", "--grid", "0:50000:1"),
             "--repeats times sweep points (20 x 50001) is more than 1000000"),
        ],
    )
    def test_study_size_limits(self, capsys, argv, error):
        assert run_cli("experiment", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "argv, token",
        [
            (("--name", "poisson-convergence", "--sizes", "10,x"), "'x'"),
            (("--name", "bernoulli-sweep", "--grid", "0.1,zz"), "'zz'"),
        ],
    )
    def test_bad_token_named(self, capsys, argv, token):
        assert run_cli("experiment", *argv) == 2
        assert token in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [("measure", "--measure", "gini", "--precision", "-1"), ("measure-all", "--precision", "-1")],
        ids=["measure", "measure-all"],
    )
    def test_negative_precision(self, vec_file, capsys, argv):
        assert run_cli(*argv, "--input", vec_file) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --precision must be 0 or more, got -1\n"

    @pytest.mark.parametrize("command", ["measure", "measure-all"])
    @pytest.mark.parametrize("precision, code", [("1074", 0), ("1075", 2), ("2147483648", 2)])
    def test_precision_limit(self, vec_file, capsys, command, precision, code):
        # 2**-1074 has 1074 decimal places: more digits are all 0
        measure = ("--measure", "gini") if command == "measure" else ()
        assert run_cli(command, *measure, "--input", vec_file, "--precision", precision) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == f"error: --precision must be 1074 or less, got {precision}\n"
        else:
            assert re.search(r"\.[0-9]{1074}[,\n]", captured.out)

    def test_negative_seed_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("SPARSEMETRICS_SEED", "-4")
        assert run_cli("table", "--trials", "5") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -4\n"


class TestSeedEnvVar:
    def test_env_var_sets_default_seed(self, monkeypatch, capsys):
        from sparsemetrics.cli import build_parser

        monkeypatch.setenv("SPARSEMETRICS_SEED", "123")
        args = build_parser().parse_args(["table"])
        assert args.seed == 123

    def test_flag_beats_env_var(self, monkeypatch):
        from sparsemetrics.cli import build_parser

        monkeypatch.setenv("SPARSEMETRICS_SEED", "123")
        args = build_parser().parse_args(["table", "--seed", "9"])
        assert args.seed == 9


class TestConsoleEntryPoint:
    def test_installed_script(self, vec_file, run_python):
        proc = run_python(
            "-m", "sparsemetrics.cli", "measure", "--measure", "gini", "--input", vec_file
        )
        assert proc.returncode == 0
        assert proc.stdout == "0.472222\n"

    def test_unknown_flag_usage_error(self, run_python):
        proc = run_python("-m", "sparsemetrics.cli", "table", "--bogus")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_seed_of_64_one_bits_is_its_own_key(self, run_python):
        # 2**64 - 1 was once read as key 0: seed 0's witness, and a cast warning
        def check(seed):
            argv = ("check", "--measure", "l0", "--criterion", "D3", "--seed", str(seed))
            proc = run_python("-m", "sparsemetrics.cli", *argv, "--format", "structured")
            assert (proc.returncode, proc.stderr) == (0, "")
            return json.loads(proc.stdout)["cell"]

        top, zero = check(2**64 - 1), check(0)
        assert top["verdict"] == zero["verdict"] == "violated"
        assert top["witness"] != zero["witness"]


class TestUnwritableOutput:
    def test_exit_2(self, vec_file, capsys):
        code = run_cli(
            "measure", "--measure", "gini", "--input", vec_file,
            "--output", "/nonexistent-dir/out.txt",
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestMalformedSeedEnvVar:
    def test_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("SPARSEMETRICS_SEED", "not-a-number")
        assert run_cli("check", "--measure", "gini", "--criterion", "D1",
                       "--trials", "1") == 2
        assert "SPARSEMETRICS_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [("measure", "--measure", "gini", "--input", "VEC"), ("lorenz", "--input", "VEC")],
        ids=["measure", "lorenz"],
    )
    def test_commands_without_a_seed_ignore_it(self, monkeypatch, capsys, vec_file, argv):
        monkeypatch.setenv("SPARSEMETRICS_SEED", "abc")
        assert run_cli(*(vec_file if a == "VEC" else a for a in argv)) == 0
        assert capsys.readouterr().err == ""

    def test_version_ignores_it(self, monkeypatch, capsys):
        monkeypatch.setenv("SPARSEMETRICS_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"{cli.__version__}\n"

    def test_flag_beats_a_malformed_env_var(self, monkeypatch):
        from sparsemetrics.cli import build_parser

        monkeypatch.setenv("SPARSEMETRICS_SEED", "abc")
        assert build_parser().parse_args(["table", "--seed", "9"]).seed == 9


# argv, tabular header line (None: a bare value), top-level payload keys and
# config keys appended after the sorted argv echo, for every command
REPORT_SHAPES = {
    "measure": (
        ("measure", "--measure", "gini", "--input", "VEC"), None, ["value"], ["spec", "n"],
    ),
    "measure-all": (
        ("measure-all", "--input", "VEC"), "measure,value,status", ["values"], ["n"],
    ),
    "lorenz": (
        ("lorenz", "--input", "VEC"), "x,y", ["points", "twice_area_above_diagonal"], ["n"],
    ),
    "check": (
        ("check", "--measure", "hg", "--criterion", "P2", "--trials", "50"),
        "measure,criterion,verdict,trials,skipped", ["cell"], ["params"],
    ),
    "table": (
        ("table", "--trials", "20", "--seed", "0"),
        "measure,criterion,verdict,expected,disputed,mismatch,trials,skipped",
        ["trials", "seed", "cells", "mismatches", "disputed"], [],
    ),
    "poisson": (
        ("experiment", "--name", "poisson-convergence", "--sizes", "10,30"),
        "n,measure,mean,std,normalized", ["name", "sweep", "metadata", "summary"],
        ["measure_params"],
    ),
    "bernoulli-raw": (
        ("experiment", "--name", "bernoulli-sweep", "--grid", "0.2,0.8", "--n", "50",
         "--repeats", "2", "--raw"),
        "p,measure,repeat,value", ["name", "sweep", "metadata", "summary"], ["measure_params"],
    ),
    "contribution-curves": (
        ("experiment", "--name", "contribution-curves", "--amplitudes", "0:1:0.5"),
        "measure,x,term", ["rows"], ["grid_points"],
    ),
    "distributional-gini": (
        ("experiment", "--name", "distributional-gini", "--sample-n", "1000"),
        "field,value,", ["quadrature_gini", "sample_gini", "abs_difference"], [],
    ),
}


class TestReportShape:
    """The report each command writes, pinned by structure rather than by
    values: key order, config echo, tabular header, stderr and exit status,
    and an --output file equal to stdout."""

    @staticmethod
    def _run(capsys, argv, output=None):
        code = run_cli(*argv, *(("--output", str(output)) if output else ()))
        captured = capsys.readouterr()
        return code, captured.out if output is None else output.read_text(), captured.err

    @pytest.mark.parametrize("name", list(REPORT_SHAPES))
    def test_structured(self, vec_file, capsys, name):
        argv, _, payload_keys, extras = REPORT_SHAPES[name]
        argv = [vec_file if a == "VEC" else a for a in argv] + ["--format", "structured"]
        _, text, _ = self._run(capsys, argv)
        doc = json.loads(text)
        assert list(doc) == ["tool", "version", "command", "config", *payload_keys]
        assert doc["command"] == argv[0]
        echo = vars(cli.build_parser().parse_args(argv))
        echo.pop("func")
        assert list(doc["config"]) == sorted(echo) + extras
        metadata = doc.get("metadata", {})
        for key in sorted(echo):
            assert doc["config"][key] == metadata.get(key, echo[key])

    def test_unset_repeats_echoes_the_default(self, capsys):
        argv = ["experiment", "--name", "poisson-convergence", "--sizes", "10", "--format",
                "structured"]
        _, text, _ = self._run(capsys, argv)
        config = json.loads(text)["config"]
        assert config["repeats"] == 50
        # overwritten in place: still among the sorted echo, before the extras
        keys = list(config)
        assert keys[-1] == "measure_params" and keys[:-1] == sorted(keys[:-1])

    @pytest.mark.parametrize("name", list(REPORT_SHAPES))
    def test_tabular_header(self, vec_file, capsys, name):
        argv, header, _, _ = REPORT_SHAPES[name]
        _, text, _ = self._run(capsys, [vec_file if a == "VEC" else a for a in argv])
        first = text.splitlines()[0]
        if header is None:
            assert text == first + "\n" and float(first) >= 0
        else:
            assert first == header

    @pytest.mark.parametrize("fmt", ["tabular", "structured"])
    def test_table_stderr_and_exit(self, capsys, fmt):
        from sparsemetrics.compliance import ERRATUM_NOTES

        argv = ["table", "--trials", "20", "--seed", "0", "--format", fmt]
        code, text, err = self._run(capsys, argv)
        assert code == 1
        if fmt == "tabular":
            rows = [line.split(",") for line in text.splitlines()[1:]]
            assert len(rows) == 90
            # the flags print as their name or empty
            assert sorted(r[4] for r in rows if r[4]) == ["disputed"]
            assert sorted(r[5] for r in rows if r[5]) == ["mismatch", "mismatch"]
        # at 20 trials (seed 0) the search misses (l0-eps, D3): a mismatch
        # without a note, next to the documented (hs, D2) erratum
        assert err == (
            "mismatch: (l0-eps, D3) expected violated\n"
            f"mismatch: (hs, D2) expected violated -- {ERRATUM_NOTES[Measure.HS, Criterion.D2]}\n"
            "disputed (excluded from diff): (l2-over-l1, D3)\n"
        )

    def test_table_stderr_follows_the_report(self, monkeypatch):
        both = io.StringIO()
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        assert run_cli("table", "--trials", "20", "--seed", "0") == 1
        lines = both.getvalue().splitlines()
        assert lines[0].startswith("measure,criterion,")
        assert [line.split(":")[0] for line in lines[91:]] == [
            "mismatch", "mismatch", "disputed (excluded from diff)",
        ]

    @pytest.mark.parametrize("fmt", ["tabular", "structured"])
    @pytest.mark.parametrize("name", list(REPORT_SHAPES))
    def test_output_file_equals_stdout(self, vec_file, tmp_path, capsys, name, fmt):
        argv = [vec_file if a == "VEC" else a for a in REPORT_SHAPES[name][0]]
        argv += ["--format", fmt]
        out = tmp_path / "report.out"
        code, text, err = self._run(capsys, argv)
        assert self._run(capsys, argv, out) == (
            code,
            # the structured config echoes --output itself
            text.replace('"output": null', f'"output": {json.dumps(str(out))}'),
            err,
        )
