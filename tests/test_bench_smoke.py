"""The benchmark harness still runs against the library."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    # every workload at toy sizes, untraced and traced: a library change that
    # breaks bench/run.py, its correctness checks or its metric names fails here
    proc = subprocess.run([sys.executable, os.path.join("bench", "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
