"""Command-line front door.

Commands: measure, measure-all, lorenz, check, table, experiment.
Exit codes: 0 success; 1 when `table` finds a non-disputed mismatch against
the expected compliance matrix; 2 on input or parse errors.

Identical argv and input files produce byte-identical output: the default
seed is the fixed constant 0 (overridable with SPARSEMETRICS_SEED or
--seed) and reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import __version__
from .compliance import (
    DISPUTED_CELLS,
    ERRATUM_NOTES,
    EXPECTED_TRUE,
    check_cell,
    full_table,
)
from .errors import SparsemetricsError
from .measures import (
    MEASURE_ORDER,
    CoefficientVector,
    Measure,
    MeasureSpec,
    evaluate,
    lorenz_curve,
)
from .parts import _map_parts, _part_count
from .transforms import Criterion
from .experiments import (
    DEFAULT_BERNOULLI_GRID,
    DEFAULT_BERNOULLI_REPEATS,
    DEFAULT_POISSON_REPEATS,
    DEFAULT_SIZES,
    DistributionSpec,
    bernoulli_sweep,
    contribution_curves,
    distributional_gini,
    poisson_convergence,
    sample_gini,
)

SEED_ENV_VAR = "SPARSEMETRICS_SEED"
#: Most points a start:stop:step grid range may have, and most draws a study
#: may make (--repeats times its sweep points).
MAX_GRID_POINTS = 10**6
#: Longest vector a study may draw (--sample-n, each --sizes entry, --n).
MAX_VECTOR_LENGTH = 10**7


class InputError(SparsemetricsError):
    """Malformed CLI input (exit code 2)."""


class _EnvSeed(str):
    """The environment's seed text as the --seed default.  argparse converts a
    string default with ``int`` only for the command it parses, so a
    malformed value fails only the commands that take a seed."""

    def __int__(self) -> int:
        try:
            return int(str(self))
        except ValueError as exc:
            raise InputError(f"{SEED_ENV_VAR} must be an integer, got {str(self)!r}") from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are InputErrors, so they take
    the one exit path: a single ``error:`` line and exit code 2.  Subparsers
    are built from the same class, so each reports its own leftover
    arguments and points at its own help.  A negative number in exponent
    notation (``--p-neg -1e-1``) is read as a value, as ``-0.1`` is, not as
    an option: argparse's own pattern for negative numbers has no exponent
    in Python 3.11."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str):
        raise InputError(f"{message} (see '{self.prog} --help' for usage)")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _read_text(path: str) -> str:
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not UTF-8 text (byte offset {exc.start})"
        ) from exc


def read_vector(path: str, complex_pairs: bool = False) -> CoefficientVector:
    """Read a coefficient vector from a UTF-8 file or '-' (stdin).

    Numbers may be separated by commas, whitespace, or newlines; scientific
    notation is accepted.  In complex mode every non-empty line holds one
    're,im' pair and contributes the magnitude.  Magnitudes are taken
    either way.  A large real-mode input is parsed in parts across the
    usable CPUs (``_split_values``); the values never depend on how many.
    """
    text = _read_text(path)
    values = None if complex_pairs else _split_values(text)
    if values is None:
        values = _line_values(text, complex_pairs)
    if len(values) == 0:
        raise InputError("input contains no values")
    return CoefficientVector(np.asarray(values))


_SPACE = re.compile(r"\s")


def _split_values(text: str) -> np.ndarray | None:
    """Every number in ``text``, or None if a token is malformed
    (``_line_values`` then names it).  Same values as ``_line_values``:
    each token is converted with Python's ``float``, and ``str.split``
    splits on the whitespace its regex ``\\s`` matches.

    The comma-replaced text is cut into one run per part, each cut at a
    ``\\s`` character so no token is split, and the runs are parsed by
    ``_map_parts``.  Their values join in order, so the result does not
    depend on the part count.
    """
    text = text.replace(",", " ")
    # an upper bound on the numbers: each takes a character, as does the
    # separator after it
    parts = _part_count(len(text) // 2)
    cuts = [0]
    for k in range(1, parts):
        space = _SPACE.search(text, max(cuts[-1], k * len(text) // parts))
        cuts.append(space.start() if space else len(text))
    cuts.append(len(text))

    def parse(lo: int, hi: int) -> np.ndarray:
        tokens = text[lo:hi].split()
        return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))

    try:
        values = _map_parts(parse, cuts)
    except ValueError:
        return None
    return np.concatenate(values)


def _line_values(text: str, complex_pairs: bool) -> list[complex]:
    """The numbers of ``text`` line by line; a malformed token raises
    InputError naming its line and column."""
    values: list[complex] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = list(re.finditer(r"[^\s,]+", line))
        parsed = []
        for tok in tokens:
            try:
                parsed.append(float(tok.group()))
            except ValueError as exc:
                raise InputError(
                    f"line {lineno}, column {tok.start() + 1}: "
                    f"malformed number {tok.group()!r}"
                ) from exc
        if not parsed:
            continue
        if complex_pairs:
            if len(parsed) != 2:
                raise InputError(
                    f"line {lineno}, column 1: complex mode expects 're,im' "
                    f"pairs, got {len(parsed)} value(s)"
                )
            values.append(complex(parsed[0], parsed[1]))
        else:
            values.extend(parsed)
    return values


def _csv(rows, header: tuple[str, ...]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _cells_csv(cells: list[dict], header: tuple[str, ...]) -> str:
    """CSV of the header's fields of each cell dict; a boolean field
    prints as its name when true and empty when false."""
    rows = (
        [(k if c[k] else "") if isinstance(c[k], bool) else c[k] for k in header] for c in cells
    )
    return _csv(rows, header)


def write_report(fmt: str, payload_fn, tabular_fn) -> str:
    """Render a report: 'tabular' delegates to tabular_fn, 'structured' is
    the JSON of the document payload_fn builds.  Only the chosen format's
    function runs."""
    if fmt == "structured":
        return json.dumps(payload_fn(), indent=2) + "\n"
    return tabular_fn()


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


@dataclass
class Report:
    """A command's result: the keys it adds to the config echo (a key already
    there keeps its place), its payload and tabular renderers (only the chosen
    format's runs), and the text for stderr, written after the report."""

    config: dict
    payload: Callable[[], dict]
    tabular: Callable[[], str]
    status: int = 0
    stderr: str = ""


def _spec_from_args(measure: Measure, args) -> MeasureSpec:
    return MeasureSpec(
        measure,
        epsilon=args.epsilon,
        p_frac=args.p,
        p_neg=args.p_neg,
        a=args.a,
        b=args.b,
        theta=args.theta,
    )


def _spec_params(spec: MeasureSpec) -> dict:
    return {**asdict(spec), "id": spec.id.value}


def _fixed(value: float, precision: int) -> str:
    """Fixed point, or exponent notation where fixed point would hide the
    value: a nonzero value that reads back as 0, or one of 1e16 or more."""
    text = f"{value:.{precision}f}"
    hidden = abs(value) >= 1e16 or (value != 0 and float(text) == 0)
    return f"{value:.{precision}e}" if hidden else text


def _check_precision(precision: int) -> None:
    if precision < 0:
        raise InputError(f"--precision must be 0 or more, got {precision}")
    # 2**-1074, the smallest float64, has 1074 decimal places: every later
    # digit of a float64 in 'f' or 'e' format is 0
    if precision > 1074:
        raise InputError(f"--precision must be 1074 or less, got {precision}")


def _cmd_measure(args) -> Report:
    _check_precision(args.precision)
    vec = read_vector(args.input, args.complex)
    spec = _spec_from_args(Measure(args.measure), args)
    value = evaluate(spec, vec)
    return Report(
        {"spec": _spec_params(spec), "n": len(vec)},
        lambda: {"value": value},
        lambda: _fixed(value, args.precision) + "\n",
    )


def _cmd_measure_all(args) -> Report:
    _check_precision(args.precision)
    vec = read_vector(args.input, args.complex)
    cells = []
    for m in MEASURE_ORDER:
        spec = _spec_from_args(m, args)
        try:
            cells.append({"measure": m.value, "value": evaluate(spec, vec), "status": "ok"})
        except SparsemetricsError as exc:
            cells.append(
                {"measure": m.value, "value": None, "status": "degenerate", "error": str(exc)}
            )

    def row(c: dict) -> tuple:
        value = "" if c["value"] is None else _fixed(c["value"], args.precision)
        return c["measure"], value, c["status"]

    return Report(
        {"n": len(vec)},
        lambda: {"values": cells},
        lambda: _csv(map(row, cells), ("measure", "value", "status")),
    )


def _cmd_lorenz(args) -> Report:
    vec = read_vector(args.input, args.complex)
    curve = lorenz_curve(vec)

    def rows(lo: int, hi: int) -> str:
        # one %-format over the flat (x0, y0, x1, y1, ...) tuple: the repr of
        # every point, without a Python call per row
        return "%r,%r\n" * (hi - lo) % tuple(curve.points[lo:hi].ravel().tolist())

    def tabular() -> str:
        # rows split evenly into parts across the usable CPUs; the
        # parts join in order, so the bytes never depend on how many
        n, parts = len(curve.points), _part_count(curve.points.size)
        cuts = [k * n // parts for k in range(parts + 1)]
        return "".join(["x,y\n", *_map_parts(rows, cuts)])

    return Report(
        {"n": len(vec)},
        lambda: {
            "points": curve.points.tolist(),
            "twice_area_above_diagonal": curve.twice_area_above(),
        },
        tabular,
    )


def _skip_notes(verdicts) -> str:
    """A note for each search verdict whose every trial was skipped."""
    return "".join(
        f"note: ({v.measure.value}, {v.criterion.value}) skipped all {v.trials} of its "
        "trials, so its no-violation-found rests on no useful trial\n"
        for v in verdicts
        if v.all_skipped
    )


def _cmd_check(args) -> Report:
    spec = _spec_from_args(Measure(args.measure), args)
    criterion = Criterion(args.criterion)
    verdict = check_cell(spec, criterion, trials=args.trials, seed=args.seed)
    cell = verdict.to_dict()
    return Report(
        {"params": _spec_params(spec)},
        lambda: {"cell": cell},
        lambda: _cells_csv([cell], ("measure", "criterion", "verdict", "trials", "skipped")),
        stderr=_skip_notes([verdict]),
    )


def _cmd_table(args) -> Report:
    result = full_table(trials=args.trials, seed=args.seed)
    table = result.to_dict()
    mismatches = result.mismatches
    lines = [
        f"mismatch: ({m.value}, {c.value}) expected "
        f"{'no-violation' if c in EXPECTED_TRUE[m] else 'violated'}"
        + (f" -- {ERRATUM_NOTES[m, c]}" if ERRATUM_NOTES.get((m, c)) else "")
        + "\n"
        for m, c in mismatches
    ]
    lines += [f"disputed (excluded from diff): ({m.value}, {c.value})\n" for m, c in DISPUTED_CELLS]
    return Report(
        {},
        lambda: table,
        lambda: _cells_csv(
            table["cells"],
            (
                "measure",
                "criterion",
                "verdict",
                "expected",
                "disputed",
                "mismatch",
                "trials",
                "skipped",
            ),
        ),
        status=1 if mismatches else 0,
        stderr="".join(lines) + _skip_notes(result.cells.values()),
    )


def _number(token: str, kind=float):
    try:
        return kind(token)
    except ValueError as exc:
        raise InputError(f"not a valid {kind.__name__}: {token!r}") from exc


def _parse_grid(text: str, kind=float) -> list:
    """Parse comma-separated lists of ``kind``, skipping blank entries, or
    (of floats) '0.05:0.95:0.05' ranges."""
    if kind is float and ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(f"grid ranges need start:stop:step, got {text!r}")
        start, stop, step = (_number(p) for p in parts)
        if step <= 0:
            raise InputError("grid step must be positive")
        steps = (stop - start) / step
        if not all(math.isfinite(v) for v in (start, stop, step, steps)):
            raise InputError(f"grid range {text!r} needs a finite start, stop, step and count")
        count = int(round(steps))
        if count + 1 > MAX_GRID_POINTS:
            raise InputError(f"grid range {text!r} has more than {MAX_GRID_POINTS} points")
        points = [start + k * step for k in range(count + 1) if start + k * step <= stop + 1e-12]
    else:
        points = [_number(p, kind) for p in text.split(",") if p.strip()]
    if not points:
        raise InputError(f"grid {text!r} holds no points")
    return points


def _check_study_size(option: str, lengths, points: int, repeats: int) -> None:
    """Reject a study too large to allocate, before anything is allocated."""
    for n in lengths:
        if n > MAX_VECTOR_LENGTH:
            raise InputError(f"{option} must be {MAX_VECTOR_LENGTH} or less, got {n}")
    if repeats * points > MAX_GRID_POINTS:
        raise InputError(
            f"--repeats times sweep points ({repeats} x {points}) is more than {MAX_GRID_POINTS}"
        )


def _cmd_experiment(args) -> Report:
    if args.name == "contribution-curves":
        xs = _parse_grid(args.amplitudes) if args.amplitudes else [k * 0.01 for k in range(501)]
        rows = [{"measure": m, "x": x, "term": t} for m, x, t in contribution_curves(xs).rows()]
        return Report(
            {"grid_points": len(xs)},
            lambda: {"rows": rows},
            lambda: _cells_csv(rows, ("measure", "x", "term")),
        )
    if args.name == "distributional-gini":
        _check_study_size("--sample-n", [args.sample_n], 1, 1)
        dist = DistributionSpec(args.dist, lo=args.lo, hi=args.hi, rate=args.rate)
        quad_value = distributional_gini(dist, tol=args.tol)
        sample_value = sample_gini(dist, args.sample_n, seed=args.seed)
        gini = {
            "quadrature_gini": quad_value,
            "sample_gini": sample_value,
            "abs_difference": abs(quad_value - sample_value),
        }
        rows = [
            ("kind", args.dist, ""),
            ("quadrature_gini", quad_value, ""),
            ("sample_n", args.sample_n, ""),
            ("sample_gini", sample_value, ""),
            ("abs_difference", gini["abs_difference"], ""),
        ]
        return Report({}, lambda: gini, lambda: _csv(rows, ("field", "value", "")))

    if args.name == "poisson-convergence":
        sizes = _parse_grid(args.sizes, int) if args.sizes else DEFAULT_SIZES
        repeats = DEFAULT_POISSON_REPEATS if args.repeats is None else args.repeats
        _check_study_size("each --sizes entry", sizes, len(sizes), repeats)
        result = poisson_convergence(lam=args.lam, sizes=sizes, repeats=repeats, seed=args.seed)
    else:
        grid = _parse_grid(args.grid) if args.grid else DEFAULT_BERNOULLI_GRID
        repeats = DEFAULT_BERNOULLI_REPEATS if args.repeats is None else args.repeats
        _check_study_size("--n", [args.n], len(grid), repeats)
        result = bernoulli_sweep(grid=grid, n=args.n, repeats=repeats, seed=args.seed)
    rows = result.raw_rows() if args.raw else result.summary_rows()
    columns = ("repeat", "value") if args.raw else ("mean", "std", "normalized")
    header = (result.sweep_name, "measure", *columns)
    return Report(result.metadata, result.to_dict, lambda: _csv(rows, header))


def _add_common(parser: argparse.ArgumentParser, with_params: bool = True) -> None:
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument(
        "--format",
        choices=("tabular", "structured"),
        default="tabular",
        help="tabular (delimiter-separated) or structured (JSON)",
    )
    if with_params:
        parser.add_argument("--epsilon", type=float, default=1.0, help="l0-eps threshold")
        parser.add_argument("--p", type=float, default=0.5, help="neg-lp exponent in (0,1)")
        parser.add_argument("--p-neg", type=float, default=-1.0, help="neg-lp-neg exponent < 0")
        parser.add_argument("--a", type=float, default=1.0, help="neg-tanh scale a > 0")
        parser.add_argument("--b", type=float, default=1.0, help="neg-tanh exponent b > 0")
        parser.add_argument("--theta", type=float, default=0.5, help="u-theta fraction in (0,1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsemetrics",
        description="Sparsity measures, axiomatic criteria checks, and experiments.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    measure_ids = [m.value for m in MEASURE_ORDER]
    seed = _EnvSeed(os.environ.get(SEED_ENV_VAR, "0"))

    p = sub.add_parser("measure", help="evaluate one measure on a vector", allow_abbrev=False)
    p.add_argument("--measure", required=True, choices=measure_ids)
    p.add_argument("--input", required=True, help="vector file, or - for stdin")
    p.add_argument("--complex", action="store_true", help="rows are re,im pairs")
    p.add_argument("--precision", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("measure-all", help="evaluate all fifteen measures", allow_abbrev=False)
    p.add_argument("--input", required=True)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--precision", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_measure_all)

    p = sub.add_parser("lorenz", help="emit the Lorenz curve points", allow_abbrev=False)
    p.add_argument("--input", required=True)
    p.add_argument("--complex", action="store_true")
    _add_common(p, with_params=False)
    p.set_defaults(func=_cmd_lorenz)

    p = sub.add_parser("check", help="check one (measure, criterion) cell", allow_abbrev=False)
    p.add_argument("--measure", required=True, choices=measure_ids)
    p.add_argument(
        "--criterion", required=True, choices=[c.value for c in Criterion]
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=seed)
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("table", help="full 15x6 compliance table and diff", allow_abbrev=False)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=seed)
    _add_common(p, with_params=False)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("experiment", help="run one of the numerical studies", allow_abbrev=False)
    p.add_argument(
        "--name",
        required=True,
        choices=(
            "poisson-convergence",
            "bernoulli-sweep",
            "contribution-curves",
            "distributional-gini",
        ),
    )
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--lambda", dest="lam", type=float, default=5.0)
    p.add_argument("--sizes", help="comma-separated set sizes")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--n", type=int, default=1000, help="bernoulli set size")
    p.add_argument("--grid", help="p grid: start:stop:step or comma list")
    p.add_argument("--amplitudes", help="amplitude grid: start:stop:step or comma list")
    p.add_argument("--dist", choices=("uniform", "exponential"), default="uniform")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8, help="quadrature tolerance")
    p.add_argument("--sample-n", type=int, default=100000)
    p.add_argument("--raw", action="store_true", help="emit repeat-level raw rows")
    _add_common(p, with_params=False)
    p.set_defaults(func=_cmd_experiment)

    return parser


def parse_and_dispatch(argv=None) -> int:
    """Run one command: its Report is rendered in the chosen format, written
    to stdout or --output, and followed by its stderr text."""
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        report = args.func(args)
        echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        text = write_report(
            args.format,
            lambda: {
                "tool": "sparsemetrics",
                "version": __version__,
                "command": args.command,
                "config": {**echo, **report.config},
                **report.payload(),
            },
            report.tabular,
        )
        _emit(text, args.output)
        sys.stderr.write(report.stderr)
        return report.status
    except SparsemetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # console entry point
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
