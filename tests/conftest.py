"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparsemetrics import parts

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def run_python():
    """Run ``python -W error *args`` in a child interpreter, capturing its
    text output: a warning is an error there, as in the tests themselves.

    ``src/`` leads the child's ``PYTHONPATH``, so it imports this checkout's
    package whether or not it is installed, as the tests themselves do.
    """

    def run(*args):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}
        argv = [sys.executable, "-W", "error", *args]
        return subprocess.run(argv, capture_output=True, text=True, env=env)

    return run


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process unreaped: once the test
    has run, this process must have no child at all, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'}) unreaped")


@pytest.fixture(scope="session")
def force_parts():
    """``force_parts(monkeypatch, cpus)``: until ``monkeypatch`` is undone,
    cut all work of two or more numbers (parsed values, study blocks,
    search draws) into up to ``cpus`` parts.  Session-scoped, so a
    hypothesis test may use it with ``pytest.MonkeyPatch.context()``."""

    def force(monkeypatch, cpus: int) -> None:
        monkeypatch.setattr(parts, "PART_MIN_NUMBERS", 1)
        monkeypatch.setattr(parts, "_usable_cpus", lambda: cpus)

    return force
