#!/usr/bin/env python3
"""Benchmark of the traitline pipeline; see README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-small --seed 42 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with plain CLI children
(``harness.py``); ``--trace 1`` measures the per-layer metrics with traced
in-process passes (``tracing.py``). The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable report goes to standard error. Corpora and
outputs live in a temporary directory under ``.bench_tmp/`` in the
checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from harness import (ROOT, WORKLOADS, BenchError, Workload, check_tree,
                     child_env, measure, note)
from tracing import measure_traced


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        record: bool = False) -> dict:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        env = child_env(work)
        note("environment " + json.dumps(check_tree(env), sort_keys=True))
        if trace:
            return measure_traced(workload, seed, seconds, work, env)
        return measure(workload, seed, seconds, work, env, record=record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's artifact hashes as the "
                             "reference for the workload and seed")
    args = parser.parse_args(argv)
    if args.record and args.trace:
        parser.error("--record needs --trace 0")
    # on SIGTERM, unwind so that children are killed and files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), record=args.record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
