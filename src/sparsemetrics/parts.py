"""Work cut into parts, one per usable CPU, the later ones run in forked
children and all joined in order, so no result depends on the part count.
The CLI's parse and render, ``experiments``' studies and ``compliance``'s
verdict table share it; it imports neither the CLI nor ``argparse``.  The
forks, pipes and the pickle a child's result is sent back in are all here."""

from __future__ import annotations

import bisect
import itertools
import os
import pickle
import threading

#: Fewest numbers (parsed, rendered or drawn) worth a part of their own in
#: ``_map_parts``.  A fork and join costs 1.3-1.4 ms on a 2-core Xeon VM at
#: 27 to 208 MB resident, against 3 ms to parse 1e4 numbers, 0.75 ms to draw
#: 1e4 study values (75 ns each for all 15 measures; the CLI defaults draw
#: 11-19 times that per part) and 50-70 ms for 1e4 search draws of the table.
PART_MIN_NUMBERS = 10_000


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _part_count(work: int) -> int:
    """How many parts ``work`` numbers are split into: one per usable CPU,
    none under PART_MIN_NUMBERS, and one alone where forking is unavailable
    (no ``os.fork``) or unsafe (another thread is alive)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), work // PART_MIN_NUMBERS))


def _cuts(costs: list[int]) -> list[int]:
    """The ``_map_parts`` cuts of items with these positive ``costs`` (their
    numbers drawn or searched) into ``_part_count(sum(costs))`` contiguous
    runs of about equal cost: part k starts where k / parts of it is crossed."""
    ends = list(itertools.accumulate(costs))
    parts = _part_count(sum(costs))
    starts = (bisect.bisect_right(ends, k * ends[-1] // parts) for k in range(1, parts))
    return [*sorted({0, *starts}), len(ends)]


def _map_parts(fn, cuts: list[int]) -> list:
    """``[fn(cuts[0], cuts[1]), fn(cuts[1], cuts[2]), ...]``, in order.

    The first part runs here, each later one in a child forked for it.  A
    child writes its result, pickled, to its own pipe and leaves through
    ``os._exit``: it never flushes stdio, runs atexit handlers or returns
    into the caller.  The parent reads the children in order and unpickles
    their results; a child that exits nonzero or is killed has its part
    recomputed here, so an exception ``fn`` raises in a child is raised
    here too.  With one part there is no fork, and the same ``fn`` is the
    whole computation.  Every child is reaped on every path; on an
    exception the read ends close first, so a child blocked on a full pipe
    gets EPIPE rather than waiting for a reader.
    """
    reads: list[int] = []  # the pipe of each later part, in order
    pids: list[int] = []  # the children not yet reaped, in order
    try:
        for k in range(1, len(cuts) - 1):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_part(lambda: fn(cuts[k], cuts[k + 1]), write, reads)
            finally:
                # closed before the next fork, so no later child holds it open
                os.close(write)
            pids.append(pid)
        results = [fn(cuts[0], cuts[1])]
        for k, read in enumerate(reads, start=1):
            with open(read, "rb", buffering=0, closefd=False) as pipe:
                data = pipe.readall()
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            results.append(pickle.loads(data) if status == 0 else fn(cuts[k], cuts[k + 1]))
        return results
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve_part(part, write: int, reads: list[int]) -> None:
    """A forked child's whole life: write ``part()``, pickled, to the pipe
    ``write`` and exit 0, or exit 1 on any exception.  It closes the read
    ends it inherited first, so only the parent can read its pipe."""
    code = 1
    try:
        for read in reads:
            os.close(read)
        view = memoryview(pickle.dumps(part(), pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(write, view) :]
        code = 0
    finally:
        os._exit(code)
