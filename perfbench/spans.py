"""In-memory span tracer that wraps the program's public functions from outside.

A span is (name, start, end, parent span, operation id).  Spans are kept in
flat arrays while the benchmark runs and written out once, at the end, as an
``.npz`` file.  Self time is a span's duration minus the time its direct
child spans cover; spans on one thread nest properly, so the children of a
span never overlap each other.

Functions are wrapped under every name a ``sparsemetrics`` module holds for
them (``sparsemetrics.compliance.evaluate``, ``sparsemetrics.cli.evaluate``
and so on), because each module calls the function through its own global.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, key=None, after=None):
        """Return ``fn`` recording one span per call.

        ``key(args)`` may pick the span name per call; ``after(result)`` sees
        each returned value.
        """
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack, errors = self.start, self.end, self._stack, self.errors
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = nid if key is None else key(args)
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[(tracer.names[sid], type(exc).__name__)] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_everywhere(self, package: str, fn, wrapper) -> int:
        """Replace ``fn`` by ``wrapper`` under every name any module of
        ``package`` holds for it; returns how many names were replaced."""
        count = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapper)
                    count += 1
        return count

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def op_span(self, name: str, op_id: int):
        """Context manager: a root span for one operation."""
        return _OpSpan(self, name, op_id)

    def mark(self) -> int:
        return len(self.name)

    def _links(self, begin: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        # copies, so that no buffer export keeps the arrays from growing
        names = np.frombuffer(self.name, dtype=np.int32)[begin:end].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[begin:end].copy()
        return names, parent

    def self_times(self, begin: int = 0, end: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, durations, self times) of the spans in [begin, end)."""
        end = len(self.name) if end is None else end
        names, parent = self._links(begin, end)
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[begin:end]
            - np.frombuffer(self.start, dtype=np.float64)[begin:end]
        )
        covered = np.zeros(dur.size)
        has_parent = parent >= begin
        np.add.at(covered, parent[has_parent] - begin, dur[has_parent])
        return names, dur, dur - covered

    def child_calls(self, parent_name: str, child_name: str, begin: int = 0, end: int | None = None) -> int:
        """Spans named ``child_name`` directly under a span named ``parent_name``."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        names, parent = self._links(begin, len(self.name) if end is None else end)
        par = parent[(names == cid) & (parent >= begin)] - begin
        return int(np.count_nonzero(names[par] == pid))

    def totals(self, begin: int = 0, end: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        names, dur, self_s = self.self_times(begin, end)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_s, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str, op_id: int) -> None:
        self.tracer, self.nid, self.op_id = tracer, tracer.name_id(name), op_id

    def __enter__(self):
        t = self.tracer
        t.op_id = self.op_id
        self.idx = len(t.name)
        t.name.append(self.nid)
        t.parent.append(-1)
        t.op.append(self.op_id)
        t.start.append(time.perf_counter())
        t.end.append(0.0)
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.end[self.idx] = time.perf_counter()
        t._stack.pop()
        t.op_id = -1
