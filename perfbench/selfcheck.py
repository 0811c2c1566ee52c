#!/usr/bin/env python3
"""Self-check of the benchmark harness on tiny workloads.

Run from the root of a checkout (about a minute on two cores):

    python3 perfbench/selfcheck.py

It asserts that every metric named in BENCHMARK.json is printed with its
unit in both modes, that traced spans nest and have non-negative self time,
and that a changed or missing artifact trips the gate. It exits non-zero
on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import tracing
from run import run

TINY_MODEL = {"n_trees": 5, "max_depth": 3, "min_samples_leaf": 2,
              "curve_ks": [1, 5]}
TINY_STUDY = harness.Workload("tiny-study", 20, n_seeds=8, config=TINY_MODEL)
TINY_LEX_W2 = harness.Workload("tiny-lex-w2", 20, workers=2, n_seeds=8,
                               lexicons=harness.LEXICONS, config=TINY_MODEL)
SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def check_metrics() -> None:
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for workload in (TINY_STUDY, TINY_LEX_W2):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            outcome = json.loads(json.dumps(run(workload, SEED, 0, trace)))
            label = f"{workload.name} trace={int(trace)}"
            check(outcome["correct"] and outcome["failed"] == 0
                  and outcome["attempted"] >= 1, f"{label}: {outcome}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in outcome["metrics"].items()}
            check(got == want, f"{label}: printed {sorted(got.items())}, "
                               f"BENCHMARK.json names {sorted(want.items())}")
            print(f"ok   {label}: {len(got)} metrics with units")


def check_spans_and_gate(work: Path) -> None:
    env = harness.child_env(work)
    corpus, _ = harness.setup(TINY_STUDY, SEED, work, env, repeats=1)
    out = work / "out"
    config = harness.write_config(TINY_STUDY, corpus, out, work / "run.json",
                                  workers=1)
    tracing.import_traitline()
    import traitline.cli
    original = traitline.cli.load_corpus
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracing.run_pass(config)
    check(traitline.cli.load_corpus is original, "hooks left installed")
    check(len(tracer.spans) > 0, "no spans recorded")
    for name, start, end, parent in tracer.spans:
        check(end >= start, f"span {name} ends before it starts")
        if parent is not None:
            pname, pstart, pend, _ = tracer.spans[parent]
            check(pstart <= start and end <= pend,
                  f"span {name} is not inside its parent {pname}")
    _, own = tracer.times()
    negative = {n: t for n, t in own.items() if t < 0}
    check(not negative, f"negative self time: {negative}")
    print(f"ok   {len(tracer.spans)} spans nest, self time >= 0")

    reference = harness.artifact_hashes(out)
    check(not harness.gate(reference, reference), "gate fails on itself")
    with open(out / "features.csv", "a") as fh:
        fh.write("\n")
    (out / "curve.csv").unlink()
    hashes = harness.artifact_hashes(out)
    check(harness.gate(hashes, reference) == ["features.csv", "curve.csv"],
          f"gate flags {harness.gate(hashes, reference)}")
    tally = harness.Tally()
    tally.check(out, hashes, reference, 0)
    check(tally.failed == 2 and tally.attempted == len(harness.STAGES)
          and any("features.csv" in f for f in tally.failures),
          f"tally {tally}")
    print("ok   a changed and a missing artifact trip the gate")


def main() -> int:
    check_metrics()
    scratch = harness.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
    try:
        check_spans_and_gate(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
