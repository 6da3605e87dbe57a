"""Which program functions the traced run wraps, and the per-layer metrics
computed from their spans.

Every wrapper is installed from here; the program itself is not changed.
Per-layer metric names are ``<module>.<function>.<stat>``.
"""

from __future__ import annotations

import numpy as np

from spans import Tracer

PACKAGE = "sparsemetrics"

# (module, function) pairs wrapped under every name the package holds for them
FUNCTIONS = (
    ("cli", "read_vector"),
    ("cli", "write_report"),
    ("measures", "lorenz_curve"),
    ("transforms", "draw_trial"),
    ("transforms", "draw_vector"),
    ("transforms", "bill_gates"),
    ("compliance", "check_cell"),
    ("compliance", "catalog_verdict"),
    ("compliance", "relation_holds"),
    ("experiments", "sample_vector"),
    ("experiments", "distributional_gini"),
    ("experiments", "sample_gini"),
)

# numpy.random constructors that make up one per-trial or per-draw stream
RNG_CLASSES = ("SeedSequence", "PCG64", "Generator")


class Instrumentation:
    """Wrappers around the program's layers plus the counters they feed."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts = {"compliance.trials": 0, "compliance.skipped": 0, "cli.read_vector.values": 0}

    def install(self) -> None:
        import importlib

        import sparsemetrics.measures as measures

        t = self.tracer
        after = {
            "check_cell": self._count_cell,
            "read_vector": self._count_values,
        }
        for module, name in FUNCTIONS:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), name)
            wrapper = t.wrap(fn, f"{module}.{name}", after=after.get(name))
            t.patch_everywhere(PACKAGE, fn, wrapper)

        eval_ids = {m: t.name_id(f"measures.evaluate.{m.value}") for m in measures.MEASURE_ORDER}
        evaluate = measures.evaluate
        t.patch_everywhere(
            PACKAGE, evaluate, t.wrap(evaluate, "measures.evaluate", key=lambda a: eval_ids[a[0].id])
        )

        cv = measures.CoefficientVector
        t.patch(cv, "__init__", t.wrap(cv.__init__, "measures.CoefficientVector"))

        for cls_name in RNG_CLASSES:
            base = getattr(np.random, cls_name)
            sub = type(cls_name, (base,), {"__init__": t.wrap(base.__init__, f"rng.{cls_name}")})
            t.patch(np.random, cls_name, sub)

    def uninstall(self) -> None:
        self.tracer.unpatch()

    def _count_cell(self, verdict) -> None:
        self.counts["compliance.trials"] += verdict.trials
        self.counts["compliance.skipped"] += verdict.skipped

    def _count_values(self, vec) -> None:
        self.counts["cli.read_vector.values"] += len(vec)

    def snapshot(self) -> dict:
        return {"mark": self.tracer.mark(), "errors": dict(self.tracer.errors), **self.counts}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, before: dict, after: dict, measure_ids, output_bytes: int) -> dict:
    """Per-layer metrics for the spans and counters recorded between two
    snapshots (one traced round of a workload)."""
    tot = tracer.totals(before["mark"], after["mark"])

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    def diff(key):
        return after[key] - before[key]

    def errors(prefix, exc_name):
        return sum(
            n - before["errors"].get(k, 0)
            for k, n in after["errors"].items()
            if k[0].startswith(prefix) and k[1] == exc_name
        )

    eval_names = [f"measures.evaluate.{m}" for m in measure_ids]
    read_self = self_s("cli.read_vector")
    draw_calls = calls("transforms.draw_trial")
    trials, skipped = diff("compliance.trials"), diff("compliance.skipped")
    values = diff("cli.read_vector.values")
    m = {
        "cli.read_vector.self_s": (read_self, "s"),
        "cli.read_vector.values_per_s": (_ratio(values, read_self), "values/s"),
        "cli.write_report.self_s": (self_s("cli.write_report"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "measures.CoefficientVector.calls": (calls("measures.CoefficientVector"), "count"),
        "measures.CoefficientVector.self_s": (self_s("measures.CoefficientVector"), "s"),
        "measures.evaluate.calls": (sum(calls(n) for n in eval_names), "count"),
        "measures.evaluate.self_s": (sum(self_s(n) for n in eval_names), "s"),
    }
    for mid, name in zip(measure_ids, eval_names):
        m[f"measures.evaluate.{mid}.self_s"] = (self_s(name), "s")
    draw_errors = errors("transforms.draw_trial", "GenerationFailure")
    # vectors drawn on behalf of draw_trial; P1 search draws its own
    drawn = tracer.child_calls("transforms.draw_trial", "transforms.draw_vector", before["mark"], after["mark"])
    m.update(
        {
            "measures.evaluate.degenerate": (errors("measures.evaluate.", "DegenerateInput"), "count"),
            "measures.lorenz_curve.self_s": (self_s("measures.lorenz_curve"), "s"),
            "transforms.draw_trial.calls": (draw_calls, "count"),
            "transforms.draw_trial.self_s": (self_s("transforms.draw_trial"), "s"),
            "transforms.draw_vector.calls": (calls("transforms.draw_vector"), "count"),
            "transforms.accept_ratio": (_ratio(draw_calls - draw_errors, drawn), "ratio"),
            "transforms.bill_gates.calls": (calls("transforms.bill_gates"), "count"),
            "compliance.check_cell.calls": (calls("compliance.check_cell"), "count"),
            "compliance.check_cell.self_s": (self_s("compliance.check_cell"), "s"),
            "compliance.catalog_verdict.self_s": (self_s("compliance.catalog_verdict"), "s"),
            "compliance.relation_holds.calls": (calls("compliance.relation_holds"), "count"),
            "compliance.trials": (trials, "count"),
            "compliance.skipped": (skipped, "count"),
            "compliance.useful_ratio": (_ratio(trials - skipped, trials), "ratio"),
            "rng.stream.calls": (calls("rng.Generator"), "count"),
            "rng.stream.self_s": (sum(self_s(f"rng.{c}") for c in RNG_CLASSES), "s"),
            "experiments.sample_vector.self_s": (self_s("experiments.sample_vector"), "s"),
            "experiments.distributional_gini.self_s": (
                self_s("experiments.distributional_gini"),
                "s",
            ),
            "experiments.sample_gini.self_s": (self_s("experiments.sample_gini"), "s"),
        }
    )
    return m


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between traced rounds of one seed."""
    return name.endswith(".calls") or name in (
        "compliance.trials",
        "compliance.skipped",
        "measures.evaluate.degenerate",
        "cli.output_bytes",
    )
