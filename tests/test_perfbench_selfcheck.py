"""The benchmark's self-check compares a traced ``workers=1`` pipeline pass
with a ``workers=2`` child byte for byte and exercises the tracer's
argument-reading counters, so a broken pool or a changed signature fails
here rather than on the next benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    done = subprocess.run([sys.executable, "perfbench/selfcheck.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
