"""The benchmark's own self-test, run against this checkout.

``perfbench/selftest.py`` checks that every workload check rejects a damaged
report and that a traced run sees the program's layers: among them
``transforms.draw_trial`` and ``transforms.draw_vector``, which the search's
draws must go through.  Running it here makes hiding them a test failure.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes(run_python):
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)  # git-ignored scratch space
    proc = run_python(str(ROOT / "perfbench" / "selftest.py"))
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "OK" in proc.stderr
