"""The benchmark's self-check compares a traced ``workers=1`` pipeline pass
with a ``workers=2`` child byte for byte and exercises the tracer's
argument-reading counters, so a broken pool or a changed signature fails
here rather than on the next benchmark run. The reference runs check the
artifacts of one seed-42 pipeline run of each benchmark workload against the
hashes committed in ``perfbench/reference.json``, so a change to the bytes of
an artifact such as ``model.json`` or ``curve.csv``, with or without
lexicons and the worker pool, fails here too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    done = subprocess.run([sys.executable, "perfbench/selfcheck.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]


@pytest.mark.parametrize("workload", ["study-small", "study-large-lex-w2"])
def test_reference_run_matches_committed_hashes(workload):
    done = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", workload, "--seed", "42",
                           "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    outcome = json.loads(done.stdout.splitlines()[-1])
    assert outcome["correct"] is True, done.stderr[-4000:]
