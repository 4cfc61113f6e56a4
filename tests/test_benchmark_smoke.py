"""Runs the benchmark harness's own smoke check at tiny sizes.

The harness wraps engine and matrix names by attribute and reads the
local-solve result contract; this keeps a change that breaks either
from passing the unit tests. It gates no timing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "benchmarks/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
