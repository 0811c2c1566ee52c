"""Command-line pipeline: ingest, cohort, features, model, topics, synth.

The ``STAGES`` table drives the subcommands and ``pipeline run``. Every
stage writes its artifacts plus an entry in out/manifest.json holding the
input hashes, the resolved-config hash, the seed and the package version,
so an output directory is reproducible from its manifest alone.
A single JSON config file drives all stages; flags override config
values. Stage seeds are derived from the master seed per stage name, so a
fixed (config, seed) pair yields byte-identical artifacts for any worker
count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import random
import sys
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import __version__, cohort, gbdt, model, topics
from .corpus import Corpus, CorpusPaths, load_corpus, record_counts, validate_corpus
from .features import (FeatureMatrix, TOKENIZER_VERSION, default_snapshot,
                       feature_matrix)
from .gbdt import TrainConfig, TreeEnsemble, load_ensemble, save_ensemble
from .lexicon import join_external_features, load_lexicon
# unused here, but perfbench/tracing.py wraps it by this name
from .lexicon import add_lexicon_features  # noqa: F401

logger = logging.getLogger(__name__)

DEFAULT_CURVE_KS = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")


def stage_seed(master: int, stage: str) -> int:
    digest = hashlib.sha256(f"{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def file_sha256(path) -> str:
    """``"sha256:"`` and the hex digest of the file, read through one
    64 KiB buffer."""
    h = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while got := fh.readinto(buffer):
            h.update(view[:got])
    return "sha256:" + h.hexdigest()


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path: Path) -> dict:
    """The JSON object in the file at ``path``; any other content raises a
    ValueError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # malformed JSON, or not UTF-8
        raise ValueError(f"{path.name}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path.name}: expected a JSON object")
    return doc


def _has_type(value, hint) -> bool:
    """Whether a JSON value has the declared type: a bool is no int, and a
    float is finite (``json.load`` reads NaN and Infinity), as is an int
    given for a float once converted."""
    origin = get_origin(hint)
    if origin is UnionType:
        return any(_has_type(value, h) for h in get_args(hint))
    if origin is list:
        return (type(value) is list
                and all(_has_type(v, get_args(hint)[0]) for v in value))
    if hint is float:
        if type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                return False
        return type(value) is float and math.isfinite(value)
    return type(value) is hint


@dataclass
class RunConfig:
    corpus_dir: str = ""
    out_dir: str = "out"
    seed: int = 42
    workers: int = 1
    # cohort selection
    l_min: int | None = 25
    s_min: int | None = 4
    max_cov: float = 1.0
    target_size: int | None = None
    threshold_preference: str = "nearest"
    grid_l_axis: list[int] = field(default_factory=lambda: list(cohort.DEFAULT_L_AXIS))
    grid_s_axis: list[int] = field(default_factory=lambda: list(cohort.DEFAULT_S_AXIS))
    # control matching
    control_language: str = "en"
    creation_bucket: str = "quarter"
    # features
    lexicons: list[str] = field(default_factory=list)
    external_features: str | None = None
    # hashtags / topics
    top_hashtags_k: int = 10
    top_nodes_k: int = 50
    # training: the tree parameters (TrainConfig states their defaults and
    # rules), then the evaluation protocol
    n_trees: int = TrainConfig.n_trees
    max_depth: int = TrainConfig.max_depth
    learning_rate: float = TrainConfig.learning_rate
    min_samples_leaf: int = TrainConfig.min_samples_leaf
    k_folds: int = 10
    test_fraction: float = 0.20
    run_cv: bool = False
    curve_ks: list[int] | None = field(default_factory=lambda: list(DEFAULT_CURVE_KS))

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        """The JSON config file at ``path`` (all defaults without one) with
        the flag ``overrides`` applied, checked once: every unknown key,
        value of the wrong type and value out of range is reported in one
        message. A value of the wrong type is not used for the range checks.
        A file that cannot be read or parsed exits naming the file."""
        raw = {}
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise SystemExit(f"config {path}: {exc.strerror}") from None
            except ValueError as exc:  # malformed JSON, or not UTF-8
                raise SystemExit(f"config {path}: {exc}") from None
            if not isinstance(raw, dict):
                raise SystemExit(f"config {path}: expected a JSON object")
        raw.update(overrides)
        hints = get_type_hints(cls)
        declared = {f.name: f.type for f in fields(cls)}
        errors, typed = [], {}
        for key, value in raw.items():
            if key not in hints:
                errors.append(f"unknown config key {key!r}")
            elif _has_type(value, hints[key]):
                typed[key] = value
            else:
                errors.append(f"{key} must be {declared[key]}, got {value!r}")
        config = cls(**typed)
        errors.extend(config.validation_errors())
        if errors:
            raise SystemExit("config errors:\n  " + "\n  ".join(errors))
        return config

    def validation_errors(self) -> list[str]:
        errors = []
        if self.workers < 1:
            errors.append("workers must be >= 1")
        if self.l_min is not None and self.l_min < 1:
            errors.append("l_min must be >= 1")
        if self.s_min is not None and self.s_min < 1:
            errors.append("s_min must be >= 1")
        # both thresholds given, or both picked from the grid for target_size
        given = [n for n in ("l_min", "s_min") if getattr(self, n) is not None]
        if self.target_size is None and len(given) < 2:
            errors.append("config needs l_min and s_min, or target_size")
        if self.target_size is not None and self.target_size < 1:
            errors.append("target_size must be >= 1")
        if self.target_size is not None and given:
            errors.append(f"target_size conflicts with {' and '.join(given)}: "
                          f"set target_size or both thresholds to null")
        if self.max_cov < 0:
            errors.append("max_cov must be >= 0")
        for name, allowed in (("threshold_preference", cohort.THRESHOLD_PREFERENCES),
                              ("creation_bucket", cohort.CREATION_BUCKETS)):
            if getattr(self, name) not in allowed:
                errors.append(f"{name} must be one of {', '.join(allowed)}")
        for name in ("top_hashtags_k", "top_nodes_k"):
            if getattr(self, name) < 1:
                errors.append(f"{name} must be >= 1")
        # TrainConfig and threshold_grid state the tree and grid-axis rules
        try:
            self.train_config()
        except gbdt.ModelError as exc:
            errors.append(str(exc))
        try:
            cohort.threshold_grid({}, self.grid_l_axis, self.grid_s_axis)
        except cohort.CohortError as exc:
            errors.append(str(exc))
        if not 0.0 < self.test_fraction < 1.0:
            errors.append("test_fraction must be in (0, 1)")
        if self.k_folds < 2:
            errors.append("k_folds must be >= 2")
        ks = self.curve_ks or []
        if any(k < 1 for k in ks):
            errors.append("curve_ks entries must be >= 1")
        if ks != sorted(set(ks)):
            errors.append("curve_ks must be strictly ascending")
        for p in self.lexicons:
            if not Path(p).exists():
                errors.append(f"lexicon file not found: {p}")
        if self.external_features and not Path(self.external_features).exists():
            errors.append(
                f"external features file not found: {self.external_features}")
        return errors

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return "sha256:" + hashlib.sha256(blob).hexdigest()

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name)
                              for f in fields(TrainConfig)})


@dataclass(frozen=True)
class Stage:
    """One pipeline stage, as the CLI, ``pipeline run`` and the manifest see it."""

    name: str                        # manifest entry, error prefix, subcommand
    help: str
    method: str                      # Runner method that runs the stage
    reads_corpus: bool
    summary: Callable[..., list[str]]  # console lines from the result


class Runner:
    """Shared state for stage execution: config, lazily loaded inputs,
    and the output manifest."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.out = Path(config.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self._corpus: Corpus | None = None
        # seed of the train/test split and of the CV folds
        self.model_seed = stage_seed(config.seed, "model")
        # what is parsed or derived from each artifact, by file name and
        # then by kind, until a stage rewrites the file
        self._artifacts: dict[str, dict[str, object]] = {}
        # sha256 of each corpus file, taken when the corpus is loaded
        self._corpus_digests: dict[Path, str] = {}
        self.manifest_path = self.out / "manifest.json"
        # the files the running stage read and wrote, for its manifest entry
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def run(self, stage: Stage):
        """Run the stage and record it. A ValueError or OSError on the way
        fails as a StageError naming it."""
        try:
            self.inputs = self.corpus_files() if stage.reads_corpus else []
            self.outputs = []
            # looked up on each call, so a wrapper set on Runner takes effect
            result = getattr(self, stage.method)()
            self.record_stage(stage.name)
        except (ValueError, OSError) as exc:
            raise StageError(stage.name, str(exc)) from exc
        return result

    def input(self, name: str) -> Path:
        """Path of an artifact the running stage reads; it is recorded."""
        path = self.out / name
        if not path.exists():
            raise FileNotFoundError(f"missing upstream artifact {name} in "
                                    f"{self.out}")
        if path not in self.inputs:
            self.inputs.append(path)
        return path

    def output(self, name: str) -> Path:
        """Path of an artifact the running stage writes; it is recorded."""
        path = self.out / name
        self._artifacts.pop(name, None)
        self.outputs.append(path)
        return path

    # ---- manifest -------------------------------------------------------
    def record_stage(self, stage: str) -> None:
        manifest = {"version": __version__, "stages": {}}
        if self.manifest_path.exists():
            manifest = read_json(self.manifest_path)
            if not isinstance(manifest.get("stages", {}), dict):
                raise ValueError("manifest.json: stages must be a JSON object")
        manifest["version"] = __version__
        manifest["config"] = asdict(self.config)
        manifest.setdefault("stages", {})[stage] = {
            "seed": self.config.seed,
            "config_hash": self.config.config_hash(),
            "version": __version__,
            "inputs": {p.name: self._corpus_digests.get(p) or file_sha256(p)
                       for p in self.inputs},
            "outputs": {p.name: file_sha256(p) for p in self.outputs},
        }
        write_json(self.manifest_path, manifest)

    # ---- inputs ---------------------------------------------------------
    @property
    def corpus_paths(self) -> CorpusPaths:
        if not self.config.corpus_dir:
            raise ValueError("no corpus_dir configured")
        return CorpusPaths.in_dir(self.config.corpus_dir)

    def corpus(self) -> Corpus:
        """The corpus, loaded on first use and held until ``drop_corpus``."""
        if self._corpus is None:
            self._corpus = load_corpus(self.corpus_paths,
                                       workers=self.config.workers)
            self._corpus_digests = {p: file_sha256(p)
                                    for p in self.corpus_files()}
        return self._corpus

    def drop_corpus(self) -> None:
        """Let the loaded corpus go once no stage left to run reads it."""
        self._corpus = None

    def corpus_files(self) -> list[Path]:
        return [Path(p) for p in astuple(self.corpus_paths)]

    def features(self) -> FeatureMatrix:
        """features.csv, parsed once per Runner; stages copy, never mutate."""
        return self._derived("features.csv", "matrix", FeatureMatrix.from_csv)

    def ensemble(self) -> TreeEnsemble:
        """model.json, loaded once per Runner."""
        return self._derived("model.json", "ensemble", load_ensemble)

    def partition(self) -> tuple[FeatureMatrix, FeatureMatrix]:
        """The imputed (train, test) split of features(), once per parse."""
        def split(_):
            train, test = model.stratified_split(
                self.features(), self.config.test_fraction, self.model_seed)
            return model.impute(train, test)
        return self._derived("features.csv", "partition", split)

    def _derived(self, name: str, kind: str, make):
        """``make(path)`` of the artifact ``name``, read through ``input``
        and kept until a stage rewrites the file."""
        path = self.input(name)
        memo = self._artifacts.setdefault(name, {})
        if kind not in memo:
            memo[kind] = make(path)
        return memo[kind]

    def load_cohort_ids(self, name: str) -> set[str]:
        """The ``user_ids`` of cohort.json or control.json, checked."""
        ids = read_json(self.input(name)).get("user_ids")
        if not (isinstance(ids, list) and all(type(i) is str for i in ids)):
            raise ValueError(f"{name}: user_ids must be a list of strings")
        return set(ids)

    # ---- stages ---------------------------------------------------------
    def stage_validate(self) -> dict:
        corpus = self.corpus()
        report = validate_corpus(corpus)
        payload = {"counts": record_counts(corpus),
                   "report": report,
                   "consistent": not any(report.values())}
        if not payload["consistent"]:
            logger.warning("inconsistent corpus; see validation_report.json")
        write_json(self.output("validation_report.json"), payload)
        return payload

    def stage_cohort_build(self) -> set[str]:
        cfg = self.config
        corpus = self.corpus()
        matrix = cohort.build_like_matrix(corpus)
        matrix = cohort.filter_follows_seed(matrix, corpus)
        matrix = cohort.filter_cov(matrix, cfg.max_cov)
        grid = cohort.threshold_grid(matrix, cfg.grid_l_axis, cfg.grid_s_axis)
        write_csv(self.output("grid.csv"), ["l_min", "s_min", "count"],
                  ([l, s, count] for (l, s), count in grid.items()))
        if cfg.target_size is None:
            l_min, s_min = cfg.l_min, cfg.s_min
        else:
            l_min, s_min = cohort.auto_thresholds(
                grid, cfg.target_size, prefer=cfg.threshold_preference)
        selected = cohort.select_cohort(matrix, l_min, s_min)
        parameters = {"l_min": l_min, "s_min": s_min, "max_cov": cfg.max_cov,
                      "target_size": cfg.target_size,
                      "threshold_preference": cfg.threshold_preference}
        # keep the groups balanced: trim to the eligible controls, if any
        n = len(cohort.eligible_controls(corpus, cfg.control_language))
        if 0 < n < len(selected):
            logger.warning("only %d eligible controls; trimming cohort from "
                           "%d to %d", n, len(selected), n)
            selected = set(random.Random(stage_seed(cfg.seed, "control"))
                           .sample(sorted(selected), n))
            parameters["trimmed_to_match_controls"] = n
        payload = {"label": "conspiracy", "user_ids": sorted(selected),
                   "parameters": parameters, "rng_seed": cfg.seed}
        write_json(self.output("cohort.json"), payload)
        return selected

    def stage_cohort_control(self) -> set[str]:
        cfg = self.config
        engaged = self.load_cohort_ids("cohort.json")
        if not engaged:
            raise ValueError("cohort.json holds no users; see grid.csv for "
                             "thresholds that select some")
        corpus = self.corpus()
        if not engaged <= corpus.users.keys():
            raise ValueError("cohort.json names users without a profile "
                             "record")
        eligible = cohort.eligible_controls(corpus, cfg.control_language)
        if not eligible:
            raise ValueError("no eligible control users")
        rng_seed = stage_seed(cfg.seed, "control")
        control = cohort.build_control(corpus, engaged, eligible,
                                       cfg.creation_bucket, rng_seed)
        payload = {"label": "control", "user_ids": sorted(control),
                   "parameters": {"language": cfg.control_language,
                                  "creation_bucket": cfg.creation_bucket,
                                  "n": len(engaged)},
                   "rng_seed": rng_seed}
        write_json(self.output("control.json"), payload)
        return control

    def stage_hashtags(self) -> list[tuple[str, int]]:
        engaged = self.load_cohort_ids("cohort.json")
        ranked = cohort.top_hashtags(self.corpus(), engaged,
                                     self.config.top_hashtags_k)
        write_csv(self.output("hashtags.csv"), ["hashtag", "tweet_count"],
                  ranked)
        return ranked

    def stage_topics(self) -> None:
        jobs = [(self.load_cohort_ids("cohort.json"), "edges.csv",
                 "nodes.csv")]
        if (self.out / "control.json").exists():
            jobs.append((self.load_cohort_ids("control.json"),
                         "control_edges.csv", "control_nodes.csv"))
        corpus = self.corpus()
        for ids, edges_name, nodes_name in jobs:
            graph = topics.cooccurrence_graph(corpus, ids)
            graph = topics.top_k_subgraph(graph, self.config.top_nodes_k)
            topics.write_edges_csv(graph, self.output(edges_name))
            topics.write_nodes_csv(graph, self.output(nodes_name))

    def stage_features(self) -> FeatureMatrix:
        cfg = self.config
        engaged = self.load_cohort_ids("cohort.json")
        control = self.load_cohort_ids("control.json")
        corpus = self.corpus()
        as_of = default_snapshot(corpus)
        lexicons = [load_lexicon(p) for p in cfg.lexicons]
        matrix = feature_matrix(corpus, engaged, control, as_of,
                                workers=cfg.workers, lexicons=lexicons)
        if cfg.external_features:
            matrix = join_external_features(matrix, cfg.external_features)
        matrix.to_csv(self.output("features.csv"))
        meta = {"snapshot_as_of": as_of,
                "tokenizer_version": TOKENIZER_VERSION,
                "n_rows": matrix.n_rows,
                "columns": matrix.columns}
        write_json(self.output("features.meta.json"), meta)
        return matrix

    def stage_train(self):
        train, _ = self.partition()
        ensemble = model.train_on_matrix(train, self.config.train_config())
        save_ensemble(ensemble, self.output("model.json"))
        return ensemble

    def stage_evaluate(self) -> dict:
        cfg = self.config
        train, test = self.partition()
        ensemble = self.ensemble()
        # a single coin-flip predictor is a noisy estimate of chance-level
        # performance; average a batch of draws instead
        draws = [model.baseline_random(test, stage_seed(cfg.seed, f"baseline{i}"))
                 for i in range(25)]
        payload = {
            "model": model.evaluate_model(ensemble, test),
            "baseline_majority": model.baseline_majority(train, test),
            "baseline_random": {
                "precision": sum(d["precision"] for d in draws) / len(draws),
                "recall": sum(d["recall"] for d in draws) / len(draws),
                "f1": sum(d["f1"] for d in draws) / len(draws),
                "n_draws": len(draws),
            },
            "n_train": train.n_rows,
            "n_test": test.n_rows,
            "seed": cfg.seed,
        }
        if cfg.run_cv:
            folds = model.cross_validate(self.features(), cfg.train_config(),
                                         cfg.k_folds, self.model_seed,
                                         cfg.workers)
            payload["cv"] = {
                "folds": folds,
                "mean_f1": sum(m["f1"] for m in folds) / len(folds),
            }
        write_json(self.output("metrics.json"), payload)
        return payload

    def stage_importance(self) -> list[tuple[str, float]]:
        report = model.feature_report(self.ensemble())
        write_csv(self.output("importance.csv"), ["feature", "importance"],
                  ([name, repr(share)] for name, share in report))
        return report

    def stage_curve(self) -> list[tuple[int, float]]:
        cfg = self.config
        train, test = self.partition()
        ensemble = self.ensemble()
        ranking = model.importance_ranking(ensemble)
        n = len(ranking)
        ks = list(cfg.curve_ks or range(1, n + 1))  # null or []: every k
        unusable = [k for k in ks if k > n]
        if unusable:
            raise ValueError(f"curve_ks entries {unusable} exceed the {n} "
                             f"feature columns")
        if ks[-1] != n:
            ks.append(n)
        # a refit on any top-k that holds every column model.json splits on
        # rebuilds that model bit for bit, so those points are its own F1
        answered = model.smallest_k_with_split_columns(ensemble, ranking)
        f1_at = dict(model.f1_growth_curve(
            train, test, ranking, cfg.train_config(),
            ks=[k for k in ks if k < answered], workers=cfg.workers))
        model_f1 = model.evaluate_model(ensemble, test)["f1"]
        curve = [(k, f1_at.get(k, model_f1)) for k in ks]
        write_csv(self.output("curve.csv"), ["k", "f1"],
                  ([k, repr(f1)] for k, f1 in curve))
        return curve


STAGES = (
    Stage("ingest.validate", "load the corpus and report inconsistencies",
          "stage_validate", True,
          lambda p: [json.dumps(p["counts"]),
                     "consistent" if p["consistent"]
                     else "inconsistencies found; see validation_report.json"]),
    Stage("cohort.build",
          "select the engaged cohort and write the threshold grid",
          "stage_cohort_build", True,
          lambda ids: [f"cohort: {len(ids)} users -> cohort.json"]),
    Stage("cohort.control", "build the matched control group",
          "stage_cohort_control", True,
          lambda ids: [f"control: {len(ids)} users -> control.json"]),
    Stage("hashtags.top", "rank hashtags used by the engaged cohort",
          "stage_hashtags", True,
          lambda ranked: [f"{tag}\t{count}" for tag, count in ranked]),
    Stage("topics.graph", "hashtag co-occurrence graph per cohort",
          "stage_topics", True,
          lambda _: ["graphs written -> edges.csv / nodes.csv"]),
    Stage("features.extract", "extract the behavioral feature matrix",
          "stage_features", True,
          lambda m: [f"features: {m.n_rows} rows x {len(m.columns)} "
                     f"columns -> features.csv"]),
    Stage("train", "fit the boosted-tree model", "stage_train", False,
          lambda ens: [f"model: {len(ens.trees)} trees -> model.json"]),
    Stage("evaluate", "holdout metrics and baselines", "stage_evaluate",
          False, lambda p: [json.dumps(p["model"])]),
    Stage("importance", "write the feature ranking", "stage_importance",
          False, lambda report: [f"{name}\t{share:.6f}"
                                 for name, share in report[:20]]),
    Stage("curve", "F1 growth over top-k features", "stage_curve", False,
          lambda curve: [f"{k}\t{f1:.6f}" for k, f1 in curve]),
)


def _resolve_config(args) -> RunConfig:
    return RunConfig.load(args.config, {
        key: getattr(args, key)
        for key in ("corpus_dir", "out_dir", "seed", "workers")
        if getattr(args, key) is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traitline",
        description="Cohort selection and behavioral-trait classification "
                    "over archived social-media corpora.")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}

    def sub(command: tuple[str, ...], help_text: str):
        if len(command) == 1:
            p = top.add_parser(command[0], help=help_text)
        else:
            group, action = command
            if group not in groups:
                groups[group] = top.add_parser(group).add_subparsers(
                    dest="action", required=True)
            p = groups[group].add_parser(action, help=help_text)
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--corpus", dest="corpus_dir",
                       help="corpus directory (overrides config)")
        p.add_argument("--out", dest="out_dir",
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--workers", type=int,
                       help="intra-stage parallelism (overrides config)")
        return p

    for stage in STAGES:
        sub(tuple(stage.name.split(".")), stage.help).set_defaults(stage=stage)

    gen = sub(("synth", "generate"), "generate a synthetic benchmark corpus")
    gen.add_argument("--n", type=int, default=200, help="users per group")
    gen.add_argument("--n-seeds", type=int, default=26)
    gen.add_argument("--separation", type=float, default=1.0,
                     help="behavioral contrast between groups in [0, 1]")

    sub(("pipeline", "run"), "run every stage in order")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    config = _resolve_config(args)
    try:
        if args.command == "synth":
            from . import synth  # only here, so no stage imports it
            out = Path(config.out_dir)
            engaged, control = synth.default_specs(args.separation)
            synth.generate_corpus(engaged, control, args.n, args.n_seeds,
                                  config.seed, out)
            print(f"synthetic corpus written to {out}")
            return 0
        runner = Runner(config)
        if args.command == "pipeline":
            last_reader = [s for s in STAGES if s.reads_corpus][-1]
            for stage in STAGES:
                # each result is let go at once; only evaluate's F1 is kept
                result = runner.run(stage)
                if stage.name == "evaluate":
                    f1 = result["model"]["f1"]
                del result
                if stage is last_reader:
                    runner.drop_corpus()
            print(json.dumps({"f1": f1, "out": str(runner.out)}))
        else:
            for line in args.stage.summary(runner.run(args.stage)):
                print(line)
        return 0
    except (StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
