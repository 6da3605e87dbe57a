"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def run_python():
    """Run ``python *args`` in a child interpreter, capturing its text output.

    ``src/`` leads the child's ``PYTHONPATH``, so it imports this checkout's
    package whether or not it is installed, as the tests themselves do.
    """

    def run(*args):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    return run
