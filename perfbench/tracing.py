"""Traced in-process passes: the per-layer metrics of one workload.

The untraced benchmark runs the CLI as a child process. Here the benchmark
process imports the checkout's traitline and calls ``traitline.cli.main``
for ``pipeline run`` itself, with ``workers=1`` so that work a pool would
hide stays visible. Calls into each module's public functions are wrapped
in spans from this file; traitline itself is not edited.
Modules bind with ``from .x import y``, so a function is wrapped under the
name its caller looks it up by (``traitline.features.dist_params``, not
only ``traitline.statkit.dist_params``).

A ``*_s`` metric is the self time of its span summed over calls: the span's
duration minus the part its child spans cover. ``cli.stage.*_s`` are the
exception, a stage's whole wall time, because stages are the unit the
pipeline reports. ``_best_split`` and ``_tree_predict`` are not wrapped;
their time is inside ``gbdt.fit``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from harness import (PIPELINE, ROOT, BenchError, Tally, Workload,
                     artifact_hashes, cli_argv, load_reference, result,
                     run_child, run_iteration, setup, workers_for,
                     write_config)

STAGE_METHODS = ("validate", "cohort_build", "cohort_control", "hashtags",
                 "features", "train", "evaluate", "importance", "curve",
                 "topics")

PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.loads": "count",
    "corpus.records": "count",
    "corpus.bytes": "bytes",
    "corpus.validate_s": "s",
    "cohort.select_s": "s",
    "cohort.control_s": "s",
    "cohort.hashtags_s": "s",
    "features.extract_s": "s",
    "features.tokenize_s": "s",
    "features.tweets": "count",
    "features.tokens": "count",
    "features.rows": "count",
    "features.write_s": "s",
    "features.read_s": "s",
    "features.reads": "count",
    "features.csv_bytes": "bytes",
    "statkit.dist_params_s": "s",
    "statkit.dist_params_calls": "count",
    "statkit.entropy_s": "s",
    "statkit.entropy_calls": "count",
    "lexicon.load_s": "s",
    "lexicon.score_s": "s",
    "lexicon.tokens_scored": "count",
    "gbdt.fit_s": "s",
    "gbdt.fits": "count",
    "gbdt.fit_cells": "count",
    "gbdt.fit_ns_per_cell": "ns",
    "gbdt.predict_s": "s",
    "gbdt.nodes": "count",
    "gbdt.save_s": "s",
    "gbdt.load_s": "s",
    "gbdt.loads": "count",
    "model.curve_s": "s",
    "model.curve_points": "count",
    "model.impute_s": "s",
    "model.split_s": "s",
    "model.evaluate_s": "s",
    "model.holdout_f1": "ratio",
    "topics.graph_s": "s",
    "topics.edges": "count",
    **{f"cli.stage.{m}_s": "s" for m in STAGE_METHODS},
    "cli.manifest_s": "s",
    "cli.hash_bytes": "bytes",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._open[-1] if self._open else None
                self.spans.append([name, time.perf_counter(), None, parent])
                self._open.append(index)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._open.pop()
                    self.spans[index][2] = time.perf_counter()
            if count is not None:
                count(self.counts, args, out)
            return out
        return traced

    def times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds, summed per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        inclusive, own = defaultdict(float), defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            inclusive[name] += end - start
            own[name] += end - start - child
        return inclusive, own


# ---- counters, run after the wrapped call returns ----------------------------

def _count_load(c, args, corpus):
    from traitline.corpus import record_counts
    paths = args[0]
    c["corpus.loads"] += 1
    c["corpus.records"] += sum(record_counts(corpus).values())
    c["corpus.bytes"] += sum(os.path.getsize(p) for p in
                             (paths.users, paths.tweets, paths.likes,
                              paths.follows, paths.seeds))


def _count_tokenize(c, args, timeline):
    c["features.tweets"] += len(timeline)
    c["features.tokens"] += sum(len(t.tokens) for t in timeline)


def _count_nodes(tree: dict) -> int:
    if "value" in tree:
        return 1
    return 1 + _count_nodes(tree["left"]) + _count_nodes(tree["right"])


def _count_save(c, args, _):
    # counted from the on-disk layout, which outlives the in-memory one
    with open(args[1]) as fh:
        c["gbdt.nodes"] += sum(_count_nodes(t) for t in json.load(fh)["trees"])


def _count_fit(c, args, _):
    X, cfg = args[0], args[3]
    c["gbdt.fits"] += 1
    c["gbdt.fit_cells"] += X.shape[0] * X.shape[1] * cfg.n_trees


def _inc(name):
    def count(c, args, out):
        c[name] += 1
    return count


HOOKS = (
    # (module, attribute, span name or None to only count, counter)
    ("traitline.cli", "load_corpus", "corpus.load", _count_load),
    ("traitline.cli", "validate_corpus", "corpus.validate", None),
    *(("traitline.cohort", fn, "cohort.select", None)
      for fn in ("build_like_matrix", "filter_follows_seed", "filter_cov",
                 "threshold_grid", "select_cohort", "auto_thresholds")),
    ("traitline.cohort", "seed_likers", "cohort.control", None),
    ("traitline.cohort", "build_control", "cohort.control", None),
    ("traitline.cohort", "top_hashtags", "cohort.hashtags", None),
    ("traitline.cli", "feature_matrix", "features.extract",
     lambda c, a, m: c.update({"features.rows": m.n_rows})),
    ("traitline.features", "tokenize_timeline", "features.tokenize",
     _count_tokenize),
    ("traitline.features", "FeatureMatrix.to_csv", "features.write",
     lambda c, a, _: c.update({"features.csv_bytes": os.path.getsize(a[1])})),
    ("traitline.features", "FeatureMatrix.from_csv", "features.read",
     _inc("features.reads")),
    ("traitline.features", "dist_params", "statkit.dist_params",
     _inc("statkit.dist_params_calls")),
    ("traitline.features", "entropy_from_counts", "statkit.entropy",
     _inc("statkit.entropy_calls")),
    ("traitline.statkit", "entropy_from_counts", "statkit.entropy",
     _inc("statkit.entropy_calls")),
    ("traitline.cli", "load_lexicon", "lexicon.load", None),
    ("traitline.cli", "add_lexicon_features", "lexicon.score", None),
    ("traitline.lexicon", "lexicon_features", "lexicon.score",
     lambda c, a, _: c.update({"lexicon.tokens_scored":
                               sum(len(t.tokens) for t in a[0])})),
    ("traitline.model", "train_gbdt", "gbdt.fit", _count_fit),
    ("traitline.model", "predict_labels", "gbdt.predict", None),
    ("traitline.cli", "save_ensemble", "gbdt.save", _count_save),
    ("traitline.cli", "load_ensemble", "gbdt.load", _inc("gbdt.loads")),
    ("traitline.model", "f1_growth_curve", "model.curve",
     lambda c, a, curve: c.update({"model.curve_points": len(curve)})),
    ("traitline.model", "impute", "model.impute", None),
    ("traitline.model", "stratified_split", "model.split", None),
    *(("traitline.model", fn, "model.evaluate", None)
      for fn in ("evaluate_model", "baseline_majority", "baseline_random")),
    *(("traitline.topics", fn, "topics.graph", None)
      for fn in ("cooccurrence_graph", "top_k_subgraph", "write_nodes_csv")),
    ("traitline.topics", "write_edges_csv", "topics.graph",
     lambda c, a, _: c.update({"topics.edges": len(a[0].edges)})),
    *(("traitline.cli", f"Runner.stage_{m}", f"cli.stage.{m}", None)
      for m in STAGE_METHODS),
    ("traitline.cli", "Runner.record_stage", "cli.manifest", None),
    ("traitline.cli", "file_sha256", None,
     lambda c, a, _: c.update({"cli.hash_bytes": os.path.getsize(a[0])})),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every hook for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, name, count in HOOKS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if leaf not in vars(owner):
                raise BenchError(f"cannot trace {module}.{attr}: not found")
            original = vars(owner)[leaf]
            wrapped = tracer.wrap(getattr(owner, leaf), name, count)
            if isinstance(original, classmethod):
                wrapped = staticmethod(wrapped)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def run_pass(config: Path) -> float:
    """Wall seconds of one in-process ``pipeline run``."""
    from traitline import cli
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*PIPELINE, "--config", str(config)])
    if code != 0:
        raise BenchError(f"in-process pipeline run returned {code}")
    return time.perf_counter() - start


def layer_metrics(tracer: Tracer, out: Path) -> dict[str, float]:
    inclusive, own = tracer.times()
    values = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            span = name[:-2]
            times = inclusive if span.startswith("cli.stage.") else own
            values[name] = times.get(span, 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    cells = values["gbdt.fit_cells"]
    values["gbdt.fit_ns_per_cell"] = (values["gbdt.fit_s"] * 1e9 / cells
                                      if cells else 0.0)
    metrics = out / "metrics.json"
    if metrics.is_file():
        values["model.holdout_f1"] = json.loads(metrics.read_text())["model"]["f1"]
    return values


def import_traitline() -> None:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import traitline.cli
    if ROOT / "src" not in Path(traitline.cli.__file__).resolve().parents:
        raise BenchError(f"traitline imported from {traitline.cli.__file__}")


def measure_traced(workload: Workload, seed: int, seconds: float, work: Path,
                   env: dict) -> dict:
    """One untraced CLI iteration as the artifact reference, a warm-up pass,
    then pairs of plain and traced in-process passes until ``seconds`` have
    passed."""
    import_traitline()
    corpus, _ = setup(workload, seed, work, env, repeats=1)
    out, log = work / "out", work / "run.log"
    config = write_config(workload, corpus, out, work / "run.json",
                          workers_for(workload))
    run = run_iteration(config, out, env, log)
    hashes = artifact_hashes(out)
    reference = load_reference(workload, seed) or hashes
    tally = Tally()
    tally.check(out, hashes, reference, run.code)
    if tally.failed:
        return result(tally, dict.fromkeys(PER_LAYER, 0.0), PER_LAYER)
    startup = [run_child(cli_argv(["--version"]), env, log).wall_s
               for _ in range(3)]

    pass_out = work / "pass"
    pass_config = write_config(workload, corpus, pass_out,
                               work / "pass.json", workers=1)

    def checked_pass(tracer: Tracer | None) -> float:
        shutil.rmtree(pass_out, ignore_errors=True)
        with (installed(tracer) if tracer is not None
              else contextlib.nullcontext()):
            wall = run_pass(pass_config)
        tally.check(pass_out, artifact_hashes(pass_out), reference, 0)
        return wall

    checked_pass(None)  # warm-up: the first pass in a process runs slower
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(checked_pass(None))
        tracer = Tracer()
        traced.append(checked_pass(tracer))
        layers.append(layer_metrics(tracer, pass_out))
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))
    return result(tally, metrics, PER_LAYER)
