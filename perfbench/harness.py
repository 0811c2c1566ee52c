#!/usr/bin/env python3
"""Untraced measurement of one traitline workload.

Set-up generates the workload's synthetic corpus with ``synth generate``
(``SETUP_REPEATS`` times; ``setup_s`` is the median). The measured loop then
runs ``python -m traitline.cli pipeline run`` as a plain child, with the
checkout's ``src`` first on its path and no benchmark code loaded in it,
until the run's seconds have passed. Every iteration's
artifacts are hashed and checked against the committed reference for the
workload and seed (``reference.json``) or, for a seed without one, against
the first iteration.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

PIPELINE = ("pipeline", "run")
LEXICONS = ("lexicons/mini_categories.dic", "lexicons/mini_emotions.tsv")

# the stages of one pipeline run (as named in manifest.json)
STAGES = ("ingest.validate", "cohort.build", "cohort.control", "hashtags.top",
          "features.extract", "train", "evaluate", "importance", "curve",
          "topics.graph")

# deterministic artifacts and the stage that writes each; manifest.json is
# left out because it embeds corpus_dir and out_dir
ARTIFACTS = {
    "validation_report.json": "ingest.validate",
    "grid.csv": "cohort.build",
    "cohort.json": "cohort.build",
    "control.json": "cohort.control",
    "hashtags.csv": "hashtags.top",
    "features.csv": "features.extract",
    "features.meta.json": "features.extract",
    "model.json": "train",
    "metrics.json": "evaluate",
    "importance.csv": "importance",
    "curve.csv": "curve",
    "edges.csv": "topics.graph",
    "nodes.csv": "topics.graph",
    "control_edges.csv": "topics.graph",
    "control_nodes.csv": "topics.graph",
}

END_TO_END = {
    "run_s": "s",
    "users_per_s": "users/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "stage_ok_ratio": "ratio",
}

SETUP_REPEATS = 3


class BenchError(RuntimeError):
    pass


@dataclass
class Workload:
    """One ``pipeline run`` over a synthetic corpus of the given size."""
    name: str
    users_per_group: int
    workers: int = 1
    lexicons: tuple[str, ...] = ()
    n_seeds: int = 26
    # RunConfig keys that differ from the defaults
    config: dict = field(default_factory=dict)


# Sizes let one run hold several iterations within its time budget on two
# cores; see README.md for why each workload exists.
WORKLOADS = {w.name: w for w in (
    Workload("study-small", 100),
    Workload("study-large-lex-w2", 250, workers=2, lexicons=LEXICONS,
             config={"n_trees": 60}),
)}


# ---- the checkout under test ---------------------------------------------

def child_env(work: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["TMPDIR"] = str(work)
    return env


def check_tree(env: dict) -> dict:
    """Environment record; fails unless traitline comes from this tree."""
    if not (ROOT / "src" / "traitline" / "cli.py").is_file():
        raise BenchError(f"no traitline sources under {ROOT / 'src'}")
    probe = ("import json, platform, numpy, traitline; print(json.dumps("
             "{'traitline': traitline.__file__, 'numpy': numpy.__version__, "
             "'python': platform.python_version()}))")
    out = subprocess.run([sys.executable, "-c", probe],
                         env=env, cwd=env["TMPDIR"], capture_output=True,
                         text=True, check=False)
    if out.returncode != 0:
        raise BenchError(f"cannot import traitline: {out.stderr.strip()}")
    info = json.loads(out.stdout.strip().splitlines()[-1])
    module = Path(info["traitline"]).resolve()
    if ROOT / "src" not in module.parents:
        raise BenchError(f"traitline imported from {module}, not from {ROOT}")
    info["commit"] = git_commit()
    info["nproc"] = os.cpu_count() or 1
    return info


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def workers_for(workload: Workload) -> int:
    # never more busy processes than cores
    return min(workload.workers, os.cpu_count() or 1)


# ---- child processes -------------------------------------------------------

@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    load_before: float  # 1-minute load average
    load_after: float


def run_child(argv: list[str], env: dict, log: Path) -> Invocation:
    """Run one child to completion; CPU and peak RSS include the children
    it reaped (the feature-extraction pool). If the benchmark is stopped
    meanwhile, the child's whole process group is killed."""
    load_before = os.getloadavg()[0]
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env,
                                cwd=env["TMPDIR"], stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall_s=wall,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0,
                      code=proc.returncode, load_before=load_before,
                      load_after=os.getloadavg()[0])


def cli_argv(args) -> list[str]:
    return ["-m", "traitline.cli", *map(str, args)]


# ---- set-up ----------------------------------------------------------------

def tree_hashes(directory: Path) -> dict[str, str]:
    return {p.name: file_sha256(p) for p in sorted(directory.iterdir())}


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def setup(workload: Workload, seed: int, work: Path, env: dict,
          repeats: int = SETUP_REPEATS) -> tuple[Path, list[float]]:
    """Generate the corpus ``repeats`` times; every copy must be identical."""
    times, first = [], None
    corpus = work / "corpus"
    for i in range(repeats):
        target = work / f"corpus{i}"
        inv = run_child(cli_argv(["synth", "generate", "--out", target,
                                  "--n", workload.users_per_group,
                                  "--n-seeds", workload.n_seeds,
                                  "--seed", seed]), env, work / "setup.log")
        if inv.code != 0:
            raise BenchError(f"synth generate exited {inv.code}:\n"
                             + log_tail(work / "setup.log"))
        times.append(inv.wall_s)
        hashes = tree_hashes(target)
        if first is None:
            first = hashes
            target.rename(corpus)
        else:
            if hashes != first:
                raise BenchError("synth generate is not deterministic")
            shutil.rmtree(target)
    return corpus, times


def write_config(workload: Workload, corpus: Path, out: Path, path: Path,
                 workers: int) -> Path:
    config = {"corpus_dir": str(corpus), "out_dir": str(out),
              "workers": workers,
              "lexicons": [str(ROOT / p) for p in workload.lexicons],
              **workload.config}
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


# ---- artifact gate -----------------------------------------------------------

def artifact_hashes(out: Path) -> dict[str, str | None]:
    return {n: file_sha256(out / n) if (out / n).is_file() else None
            for n in ARTIFACTS}


def gate(hashes: dict, reference: dict) -> list[str]:
    """Names of artifacts that are missing or differ from the reference."""
    return [n for n, h in hashes.items() if h is None or h != reference.get(n)]


def check_outputs(out: Path) -> list[str]:
    """Invariants that hold for any seed, independent of the reference."""
    problems = []
    with open(out / "cohort.json") as fh:
        engaged = json.load(fh)["user_ids"]
    with open(out / "control.json") as fh:
        control = json.load(fh)["user_ids"]
    if not engaged or len(engaged) != len(control):
        problems.append(f"cohort.json/control.json: {len(engaged)} engaged "
                        f"vs {len(control)} control users")
    rows = feature_rows(out)
    if rows != len(engaged) + len(control):
        problems.append(f"features.csv: {rows} rows for "
                        f"{len(engaged) + len(control)} users")
    with open(out / "metrics.json") as fh:
        f1 = json.load(fh)["model"]["f1"]
    with open(out / "curve.csv", newline="") as fh:
        last = list(csv.reader(fh))[-1]
    # the last curve point retrains on every column: it is the model
    if not 0.0 < f1 <= 1.0 or float(last[1]) != f1:
        problems.append(f"curve.csv: last point {last[1]} is not the "
                        f"model's holdout F1 {f1}")
    return problems


def feature_rows(out: Path) -> int:
    with open(out / "features.csv", newline="") as fh:
        return sum(1 for _ in fh) - 1


def load_reference(workload: Workload, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload.name, {}).get(str(seed))


def record_reference(workload: Workload, seed: int, hashes: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data.setdefault(workload.name, {})[str(seed)] = hashes
    data[workload.name] = dict(sorted(data[workload.name].items(),
                                      key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---- measurement ---------------------------------------------------------------

@dataclass
class Tally:
    """Stage executions attempted and failed, with the reasons."""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, out: Path, hashes: dict, reference: dict,
              code: int) -> None:
        """Count the pipeline's stages; fail them all if the run exited
        non-zero, else those whose artifact is off the reference."""
        failed = {}
        if code != 0:
            failed = dict.fromkeys(STAGES, f"pipeline run exited {code}")
        for name in gate(hashes, reference):
            why = ("is missing" if hashes[name] is None
                   else "differs from the reference")
            failed.setdefault(ARTIFACTS[name], f"{name} {why}")
        if not failed:
            for problem in check_outputs(out):
                failed.setdefault("outputs", problem)
        self.attempted += len(STAGES)
        self.failures.extend(f"{stage}: {why}" for stage, why in failed.items())

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_iteration(config: Path, out: Path, env: dict,
                  log: Path) -> Invocation:
    if out.exists():
        shutil.rmtree(out)
    run = run_child(cli_argv([*PIPELINE, "--config", config]), env, log)
    if run.code != 0:
        note(f"pipeline run exited {run.code}:\n{log_tail(log)}")
    return run


def log_tail(log: Path, lines: int = 20) -> str:
    with open(log, errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def measure(workload: Workload, seed: int, seconds: float, work: Path,
            env: dict, record: bool = False) -> dict:
    corpus, setup_times = setup(workload, seed, work, env)
    out = work / "out"
    config = write_config(workload, corpus, out, work / "run.json",
                          workers_for(workload))
    reference = load_reference(workload, seed)
    tally = Tally()
    samples = {k: [] for k in ("run_s", "users_per_s", "cpu_s",
                               "peak_rss_mb")}
    start = time.perf_counter()
    while not samples["run_s"] or time.perf_counter() - start < seconds:
        run = run_iteration(config, out, env, work / "run.log")
        hashes = artifact_hashes(out)
        if not samples["run_s"]:
            note("artifacts " + json.dumps(hashes, sort_keys=True))
            if record:
                record_reference(workload, seed, hashes)
                reference = hashes
        reference = reference or hashes
        tally.check(out, hashes, reference, run.code)
        rows = feature_rows(out) if (out / "features.csv").is_file() else 0
        samples["run_s"].append(run.wall_s)
        samples["users_per_s"].append(rows / run.wall_s)
        samples["cpu_s"].append(run.cpu_s)
        samples["peak_rss_mb"].append(run.rss_mb)
        report(workload, run, rows)
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["stage_ok_ratio"] = 1.0 - tally.failed / tally.attempted
    note(f"{len(samples['run_s'])} iterations; setup "
         + " ".join(f"{t:.3f}" for t in setup_times))
    return result(tally, metrics, END_TO_END)


def result(tally: Tally, metrics: dict, units: dict) -> dict:
    for failure in tally.failures:
        note(f"FAILED {failure}")
    values = {}
    for name, unit in units.items():
        value = float(metrics[name])
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is {value}")
        values[name] = {"value": value, "unit": unit}
        note(f"{name:28s} {value:14.6f} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": values}


def note(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def report(workload: Workload, run: Invocation, rows: int) -> None:
    note(f"{workload.name}: wall {run.wall_s:.3f}s cpu {run.cpu_s:.3f}s "
         f"rss {run.rss_mb:.1f}MiB exit {run.code} rows {rows} "
         f"load {run.load_before:.2f}->{run.load_after:.2f}")
