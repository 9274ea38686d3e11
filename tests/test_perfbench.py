"""The benchmark harness runs against this source tree.

perfbench/run.py wraps `TimeEngine.run`, `ClockDomain.execute_cycle` and
`Event.__init__` and reads the `TimeEngine.stats()` keys.  Its self-test
runs every workload at tiny size, untraced and traced, and checks the
results, so a renamed hook fails here rather than in a benchmark run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
