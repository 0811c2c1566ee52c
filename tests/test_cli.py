import builtins
import csv
import gc
import hashlib
import json
import math
import random
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict, astuple
from pathlib import Path

import pytest

from traitline import cli
from traitline.cohort import (DEFAULT_L_AXIS, DEFAULT_S_AXIS,
                              build_like_matrix, filter_cov,
                              filter_follows_seed, threshold_grid)
from traitline.corpus import CorpusPaths, load_corpus


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert run("synth", "generate", "--out", out, "--n", 20,
               "--n-seeds", 8, "--seed", 7) == 0
    return out


def config_file(tmp_path, corpus_dir, out_dir, **overrides):
    config = {"corpus_dir": str(corpus_dir), "out_dir": str(out_dir),
              "seed": 7, "n_trees": 30, "max_depth": 4,
              "min_samples_leaf": 2, "curve_ks": [1, 5]}
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_synth_generate_writes_loadable_corpus(corpus_dir):
    corpus = load_corpus(CorpusPaths.in_dir(corpus_dir))
    assert len(corpus.users) == 40
    truth = json.loads((corpus_dir / "ground_truth.json").read_text())
    assert len(truth) == 40


def test_stagewise_run_matches_module_outputs(tmp_path, corpus_dir):
    out = tmp_path / "out"
    config = config_file(tmp_path, corpus_dir, out)

    assert run("ingest", "validate", "--config", config) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["consistent"]

    assert run("cohort", "build", "--config", config) == 0
    cohort_doc = json.loads((out / "cohort.json").read_text())
    assert cohort_doc["label"] == "conspiracy"
    assert cohort_doc["parameters"]["l_min"] == 25

    # grid.csv equals the module computation
    corpus = load_corpus(CorpusPaths.in_dir(corpus_dir))
    matrix = filter_cov(filter_follows_seed(build_like_matrix(corpus),
                                            corpus), 1.0)
    grid = threshold_grid(matrix, DEFAULT_L_AXIS, DEFAULT_S_AXIS)
    with open(out / "grid.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(DEFAULT_L_AXIS) * len(DEFAULT_S_AXIS)
    # the grid dict's key order fixes the row order: l-major
    assert [(int(row["l_min"]), int(row["s_min"])) for row in rows] == [
        (l, s) for l in DEFAULT_L_AXIS for s in DEFAULT_S_AXIS]
    for row in rows:
        key = (int(row["l_min"]), int(row["s_min"]))
        assert grid[key] == int(row["count"])

    assert run("cohort", "control", "--config", config) == 0
    control_doc = json.loads((out / "control.json").read_text())
    assert len(control_doc["user_ids"]) == len(cohort_doc["user_ids"])
    assert not set(control_doc["user_ids"]) & set(cohort_doc["user_ids"])

    assert run("hashtags", "top", "--config", config) == 0
    with open(out / "hashtags.csv") as fh:
        tags = list(csv.DictReader(fh))
    assert 1 <= len(tags) <= 10
    counts = [int(t["tweet_count"]) for t in tags]
    assert counts == sorted(counts, reverse=True)

    assert run("features", "extract", "--config", config) == 0
    meta = json.loads((out / "features.meta.json").read_text())
    assert len(meta["columns"]) == 92
    assert meta["tokenizer_version"] == "1"

    assert run("train", "--config", config) == 0
    assert run("evaluate", "--config", config) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["model"]["f1"] <= 1.0
    assert metrics["baseline_majority"]["recall"] == 1.0

    assert run("importance", "--config", config) == 0
    with open(out / "importance.csv") as fh:
        imp = list(csv.DictReader(fh))
    assert len(imp) == 92
    assert abs(sum(float(r["importance"]) for r in imp) - 1.0) < 1e-9

    assert run("curve", "--config", config) == 0
    with open(out / "curve.csv") as fh:
        points = list(csv.DictReader(fh))
    assert [int(p["k"]) for p in points] == [1, 5, 92]
    assert float(points[-1]["f1"]) == metrics["model"]["f1"]

    assert run("topics", "graph", "--config", config) == 0
    assert (out / "edges.csv").exists()
    assert (out / "control_nodes.csv").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert "features.extract" in manifest["stages"]
    stage = manifest["stages"]["evaluate"]
    assert stage["seed"] == 7
    assert stage["outputs"]["metrics.json"].startswith("sha256:")


def test_pipeline_rerun_is_byte_identical(tmp_path, corpus_dir):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    config1 = config_file(tmp_path, corpus_dir, out1)
    assert run("pipeline", "run", "--config", config1) == 0
    config2 = config_file(tmp_path, corpus_dir, out2)
    assert run("pipeline", "run", "--config", config2) == 0
    for name in ("metrics.json", "importance.csv", "curve.csv", "grid.csv",
                 "cohort.json", "control.json", "features.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_pipeline_hashes_each_corpus_file_once(tmp_path, corpus_dir,
                                               monkeypatch):
    hashed = []
    original = cli.file_sha256

    def counting(path):
        hashed.append(path.name)
        return original(path)

    monkeypatch.setattr(cli, "file_sha256", counting)
    out = tmp_path / "hashed"
    config = config_file(tmp_path, corpus_dir, out)
    assert run("pipeline", "run", "--config", config) == 0
    corpus_files = [Path(p).name
                    for p in astuple(CorpusPaths.in_dir(corpus_dir))]
    assert all(hashed.count(name) == 1 for name in corpus_files)
    # every stage that read the corpus records the digest of its files
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    readers = [s for s in cli.STAGES if s.reads_corpus]
    for stage in readers:
        inputs = stages[stage.name]["inputs"]
        for name in corpus_files:
            assert inputs[name] == original(corpus_dir / name), stage.name


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 200_000])
def test_file_sha256_is_the_digest_of_the_bytes(tmp_path, size):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "data"
    path.write_bytes(data)
    assert cli.file_sha256(path) == \
        "sha256:" + hashlib.sha256(data).hexdigest()


def test_file_sha256_reads_through_a_small_buffer(tmp_path):
    # reading 1 MiB chunks kept two of them alive: a peak of about 2 MiB
    path = tmp_path / "data"
    path.write_bytes(random.Random(4).randbytes(4 << 20))
    cli.file_sha256(path)  # imports and caches
    tracemalloc.start()
    try:
        cli.file_sha256(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10


def test_importing_the_cli_leaves_synth_unimported():
    # only ``synth generate`` needs the generator; a pipeline child should
    # not pay for importing it
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", "import traitline.cli, sys; "
         "print('traitline.synth' in sys.modules)"],
        cwd=src, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_curve_reuses_trained_model_for_all_columns(tmp_path, corpus_dir,
                                                    monkeypatch):
    out = tmp_path / "reuse"
    config = config_file(tmp_path, corpus_dir, out, curve_ks=[1, 5, 92])
    assert run("pipeline", "run", "--config", config) == 0
    fits = []
    original = cli.model.train_gbdt

    def counting(X, *args):
        fits.append(X.shape[1])
        return original(X, *args)

    monkeypatch.setattr(cli.model, "train_gbdt", counting)
    assert run("curve", "--config", config) == 0
    # the model splits on at most 5 columns, so the top 5 and all 92
    # columns both rebuild model.json: only k = 1 is fitted
    assert fits == [1]
    metrics = json.loads((out / "metrics.json").read_text())
    with open(out / "curve.csv") as fh:
        points = list(csv.DictReader(fh))
    assert [p["k"] for p in points] == ["1", "5", "92"]
    assert float(points[-1]["f1"]) == metrics["model"]["f1"]
    assert float(points[1]["f1"]) == metrics["model"]["f1"]


def test_curve_rejects_ks_above_the_column_count(tmp_path, corpus_dir,
                                                 capsys):
    out = tmp_path / "big_k"
    config = config_file(tmp_path, corpus_dir, out, n_trees=5,
                         curve_ks=[3, 200, 300])
    assert run("pipeline", "run", "--config", config) == 1
    assert ("stage curve: curve_ks entries [200, 300] exceed the 92 "
            "feature columns") in capsys.readouterr().err
    assert not (out / "curve.csv").exists()
    # only null or [] asks for every k
    for every_k in (None, []):
        config = config_file(tmp_path, corpus_dir, out, n_trees=5,
                             curve_ks=every_k)
        assert run("curve", "--config", config) == 0
        with open(out / "curve.csv") as fh:
            ks = [int(row["k"]) for row in csv.DictReader(fh)]
        assert ks == list(range(1, 93))


def test_pipeline_drops_corpus_after_its_last_reader(tmp_path, corpus_dir,
                                                     monkeypatch):
    loaded, seen = [], {}
    original_load = cli.load_corpus

    def loading(paths, **kwargs):
        corpus = original_load(paths, **kwargs)
        loaded.append(weakref.ref(corpus))
        return corpus

    original_run = cli.Runner.run

    def running(self, stage):
        gc.collect()
        seen[stage.name] = [ref() is not None for ref in loaded]
        return original_run(self, stage)

    monkeypatch.setattr(cli, "load_corpus", loading)
    monkeypatch.setattr(cli.Runner, "run", running)
    config = config_file(tmp_path, corpus_dir, tmp_path / "dropped",
                         workers=2)
    assert run("pipeline", "run", "--config", config) == 0
    assert len(loaded) == 1
    names = [stage.name for stage in cli.STAGES]
    last_reader = max(i for i, s in enumerate(cli.STAGES) if s.reads_corpus)
    assert names[last_reader] == "features.extract"
    # loaded by the first stage, alive through the last reader, gone after
    after = len(names) - last_reader - 1
    assert [seen[name] for name in names] == (
        [[]] + [[True]] * last_reader + [[False]] * after)


def test_stage_upstream_written_by_earlier_stage(tmp_path, corpus_dir):
    config = config_file(tmp_path, corpus_dir, tmp_path / "order")
    assert run("pipeline", "run", "--config", config) == 0
    manifest = json.loads((tmp_path / "order" / "manifest.json").read_text())
    corpus_files = {Path(p).name
                    for p in astuple(CorpusPaths.in_dir(corpus_dir))}
    written = set()
    for stage in cli.STAGES:
        read = set(manifest["stages"][stage.name]["inputs"]) - corpus_files
        missing = read - written
        assert not missing, f"{stage.name} reads {sorted(missing)} first"
        written |= set(manifest["stages"][stage.name]["outputs"])


def test_stage_records_the_artifacts_it_opens(tmp_path, corpus_dir,
                                              monkeypatch):
    # a stage's manifest inputs, less the corpus files, are the out_dir
    # files it opens to read (the manifest aside): in a Runner per stage
    # exactly, and in pipeline run, where a parse is kept for later
    # stages, at least those
    opened, current = [], []
    original_open, original_run = builtins.open, cli.Runner.run

    def opening(file, mode="r", *args, **kwargs):
        if mode in ("r", "rt") and isinstance(file, (str, Path)):
            opened.append((current[-1] if current else None, Path(file)))
        return original_open(file, mode, *args, **kwargs)

    def running(self, stage):
        current.append(stage.name)
        return original_run(self, stage)

    monkeypatch.setattr(builtins, "open", opening)
    monkeypatch.setattr(cli.Runner, "run", running)
    corpus_files = {Path(p).name
                    for p in astuple(CorpusPaths.in_dir(corpus_dir))}
    for layout, argvs in (("stagewise",
                           [s.name.split(".") for s in cli.STAGES]),
                          ("pipeline", [("pipeline", "run")])):
        out = tmp_path / layout
        config = config_file(tmp_path, corpus_dir, out, run_cv=True)
        opened.clear()
        for argv in argvs:
            assert run(*argv, "--config", config) == 0, argv
        manifest = json.loads((out / "manifest.json").read_text())
        for stage in cli.STAGES:
            read = {path.name for reader, path in opened
                    if reader == stage.name and path.parent == out
                    and path.name != "manifest.json"}
            recorded = (set(manifest["stages"][stage.name]["inputs"])
                        - corpus_files)
            if layout == "stagewise":
                assert read == recorded, stage.name
            else:
                assert read <= recorded, stage.name
    # topics.graph reads control.json once cohort.control has written it
    assert "control.json" in manifest["stages"]["topics.graph"]["inputs"]


@pytest.mark.parametrize("stage", ["cohort.control", "hashtags.top",
                                   "topics.graph", "features.extract"])
def test_missing_cohort_fails_before_the_corpus_loads(tmp_path, corpus_dir,
                                                      capsys, monkeypatch,
                                                      stage):
    loads = []
    monkeypatch.setattr(cli, "load_corpus",
                        lambda *args, **kwargs: loads.append(args))
    config = config_file(tmp_path, corpus_dir, tmp_path / "empty")
    assert run(*stage.split("."), "--config", config) == 1
    err = capsys.readouterr().err
    assert f"stage {stage}: missing upstream artifact cohort.json in " in err
    assert loads == []


def test_readme_lists_the_stage_commands_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    block = quick_start.split("one at a time", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("--config")[0].split()[1:]
                for line in block.splitlines()]
    assert commands == [stage.name.split(".") for stage in cli.STAGES]


def test_pipeline_looks_up_stage_methods_at_call_time(tmp_path, corpus_dir,
                                                      monkeypatch):
    # a wrapper set on Runner after import (as tracing does) must be used
    calls = []
    original = cli.Runner.stage_train

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cli.Runner, "stage_train", counting)
    out = tmp_path / "wrapped"
    config = config_file(tmp_path, corpus_dir, out)
    assert run("pipeline", "run", "--config", config) == 0
    assert len(calls) == 1
    assert (out / "model.json").exists()


def test_pipeline_parses_features_and_model_once(tmp_path, corpus_dir,
                                                monkeypatch):
    stagewise = tmp_path / "stagewise"
    config = config_file(tmp_path, corpus_dir, stagewise)
    for stage in cli.STAGES:
        assert run(*stage.name.split("."), "--config", config) == 0

    parsed = []
    read_csv, read_model = cli.FeatureMatrix.from_csv, cli.load_ensemble

    def counting_csv(path):
        parsed.append(Path(path).name)
        return read_csv(path)

    def counting_model(path):
        parsed.append(Path(path).name)
        return read_model(path)

    monkeypatch.setattr(cli.FeatureMatrix, "from_csv",
                        staticmethod(counting_csv))
    monkeypatch.setattr(cli, "load_ensemble", counting_model)
    out = tmp_path / "pipeline"
    config = config_file(tmp_path, corpus_dir, out)
    assert run("pipeline", "run", "--config", config) == 0
    assert sorted(parsed) == ["features.csv", "model.json"]
    # every artifact equals the one written by a Runner per stage
    written = sorted(p.name for p in stagewise.iterdir())
    assert written == sorted(p.name for p in out.iterdir())
    for name in written:
        if name != "manifest.json":  # embeds corpus_dir and out_dir
            assert ((out / name).read_bytes()
                    == (stagewise / name).read_bytes()), name


def test_pipeline_splits_and_imputes_once(tmp_path, corpus_dir, monkeypatch):
    calls = []

    def counting(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("stratified_split", "impute"):
        monkeypatch.setattr(cli.model, name,
                            counting(name, getattr(cli.model, name)))
    config = config_file(tmp_path, corpus_dir, tmp_path / "pipeline")
    assert run("pipeline", "run", "--config", config) == 0
    assert sorted(calls) == ["impute", "stratified_split"]


def test_rewritten_artifact_is_parsed_again(tmp_path, corpus_dir):
    config = config_file(tmp_path, corpus_dir, tmp_path / "again")
    runner = cli.Runner(cli.RunConfig(**json.loads(config.read_text())))
    stages = {stage.name: stage for stage in cli.STAGES}
    for name in ("cohort.build", "cohort.control", "features.extract"):
        runner.run(stages[name])
    assert len(runner.features().columns) == 92
    assert len(runner.partition()[0].columns) == 92
    runner.config.lexicons = ["lexicons/mini_emotions.tsv"]
    runner.run(stages["features.extract"])
    assert len(runner.features().columns) == 92 + 10
    assert len(runner.partition()[1].columns) == 92 + 10


def test_missing_upstream_artifact_fails_with_stage(tmp_path, corpus_dir,
                                                    capsys):
    config = config_file(tmp_path, corpus_dir, tmp_path / "fresh")
    # evaluate and curve read features.csv first, so with neither file
    # there the error names it
    for stage, missing in (("train", "features.csv"),
                           ("evaluate", "features.csv"),
                           ("importance", "model.json"),
                           ("curve", "features.csv")):
        assert run(stage, "--config", config) == 1
        err = capsys.readouterr().err
        assert f"stage {stage}: missing upstream artifact {missing}" in err


def test_config_errors_reported_all_at_once(tmp_path):
    path = tmp_path / "bad.json"
    for config, wanted in [
        ({"workers": 0, "learning_rate": -1, "creation_bucket": "eon",
          "bogus_key": 1},
         ["workers", "learning_rate", "creation_bucket", "bogus_key"]),
        # wrong types join the range and unknown-key errors; a string is
        # not iterated as a list, and a boolean is not an int
        ({"n_trees": "200", "lexicons": "x.dic", "workers": True,
          "seed": "42", "max_depth": 0, "bogus_key": 1},
         ["n_trees must be int, got '200'",
          "lexicons must be list[str], got 'x.dic'",
          "workers must be int, got True", "seed must be int, got '42'",
          "max_depth must be >= 1", "unknown config key 'bogus_key'"]),
        # checked before the first stage runs, not when curve or
        # cohort.build reaches them
        ({"curve_ks": [0, 5], "l_min": None},
         ["curve_ks entries must be >= 1",
          "config needs l_min and s_min, or target_size"]),
        # the tree rules come from TrainConfig and the axis rules from
        # cohort.threshold_grid, each named in the one message
        ({"n_trees": 0, "learning_rate": 0, "test_fraction": 1.5,
          "k_folds": 1, "grid_l_axis": [5, 1]},
         ["n_trees must be >= 1", "learning_rate must be finite and > 0",
          "test_fraction must be in (0, 1)", "k_folds must be >= 2",
          "grid axes must be ascending"]),
        ({"grid_s_axis": []}, ["grid axes must be nonempty"]),
        # a repeated axis value would repeat its grid.csv row
        ({"grid_l_axis": [1, 1, 5]}, ["grid axes must be ascending"]),
        # target_size 0 or below would pick the emptiest grid cell
        ({"l_min": None, "s_min": None, "target_size": 0},
         ["target_size must be >= 1"]),
        ({"l_min": None, "s_min": None, "target_size": -3},
         ["target_size must be >= 1"]),
        # a repeated or out-of-order k would repeat its curve.csv row
        ({"curve_ks": [5, 5]}, ["curve_ks must be strictly ascending"]),
        ({"curve_ks": [92, 3]}, ["curve_ks must be strictly ascending"]),
        # an axis value of 0 could become a threshold select_cohort rejects
        ({"grid_l_axis": [0], "l_min": None, "s_min": None,
          "target_size": 5}, ["grid axis values must be >= 1"]),
        # json.load reads NaN and Infinity; a float key takes finite numbers
        ({"learning_rate": math.nan, "max_cov": math.inf},
         ["learning_rate must be float, got nan",
          "max_cov must be float, got inf"]),
        # an int for a float key must convert to a finite double
        ({"learning_rate": 10 ** 400},
         ["learning_rate must be float, got 1000"]),
        # target_size with a threshold set used to be ignored, or to drop it
        ({"target_size": 500},
         ["target_size conflicts with l_min and s_min"]),
        ({"s_min": None, "target_size": 9},
         ["target_size conflicts with l_min:"]),
    ]:
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "run", "--config", str(path)])
        message = str(exc.value)
        for text in wanted:
            assert text in message
        assert "lexicon file not found" not in message


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory$"),
    ("directory", "Is a directory$"),
    ('{"workers": 2,', "Expecting property name .*: line 1 column 15"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
])
def test_unreadable_config_names_the_file(tmp_path, content, message):
    path = tmp_path / "run.json"
    if content == "directory":
        path.mkdir()
    elif isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit, match=r"^config .*run\.json: " + message):
        cli.main(["ingest", "validate", "--config", str(path)])


def test_flags_override_config(tmp_path, corpus_dir):
    out = tmp_path / "flagged"
    config = config_file(tmp_path, corpus_dir, tmp_path / "ignored")
    assert run("ingest", "validate", "--config", config, "--out", out) == 0
    assert (out / "validation_report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_flag_replaces_bad_config_value_before_validation(tmp_path,
                                                          corpus_dir):
    out = tmp_path / "fixed"
    config = config_file(tmp_path, corpus_dir, out, workers=0)
    assert run("ingest", "validate", "--config", config,
               "--workers", 2) == 0
    assert (out / "validation_report.json").exists()


def test_auto_threshold_selection(tmp_path, corpus_dir):
    out = tmp_path / "auto"
    config = config_file(tmp_path, corpus_dir, out, l_min=None, s_min=None,
                         target_size=15, threshold_preference="balanced")
    assert run("cohort", "build", "--config", config) == 0
    doc = json.loads((out / "cohort.json").read_text())
    params = doc["parameters"]
    assert params["target_size"] == 15
    assert isinstance(params["l_min"], int)
    assert isinstance(params["s_min"], int)
    assert doc["user_ids"]
    # the chosen cell count appears in the written grid
    with open(out / "grid.csv") as fh:
        rows = {(int(r["l_min"]), int(r["s_min"])): int(r["count"])
                for r in csv.DictReader(fh)}
    assert (params["l_min"], params["s_min"]) in rows


def test_cross_validation_in_metrics(tmp_path, corpus_dir):
    out = tmp_path / "cv"
    config = config_file(tmp_path, corpus_dir, out, run_cv=True, k_folds=4)
    assert run("pipeline", "run", "--config", config) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["cv"]["folds"]) == 4
    assert 0.0 <= metrics["cv"]["mean_f1"] <= 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run_cv"] is True
    # the folds fit in a process pool give the same metrics.json
    serial = (out / "metrics.json").read_bytes()
    assert run("evaluate", "--config", config, "--workers", 2) == 0
    assert (out / "metrics.json").read_bytes() == serial


def shortage_corpus(tmp_path) -> Path:
    """Four strongly engaged users and only two eligible controls."""
    from conftest import make_corpus, make_tweet, make_user, save_corpus

    users, timelines, likes, follows = [], {}, [], []
    for i in range(4):  # four strongly engaged users
        uid = f"c{i}"
        users.append(make_user(uid, created="2020-02-01T00:00:00Z"))
        timelines[uid] = [make_tweet(f"{uid}_t", uid, 100 + i, text="hi all")]
        for s in ("s0", "s1", "s2", "s3"):
            likes.extend((uid, s, f"{s}_p{j}") for j in range(7))
        follows.append((uid, "s0"))
    for i in range(2):  # only two eligible controls
        uid = f"r{i}"
        users.append(make_user(uid, created="2020-02-01T00:00:00Z"))
        timelines[uid] = [make_tweet(f"{uid}_t", uid, 100 + i, text="yo")]
    corpus_dir = tmp_path / "tiny"
    save_corpus(make_corpus(users=users, timelines=timelines, likes=likes,
                            follows=follows, seeds=["s0", "s1", "s2", "s3"]),
                CorpusPaths.in_dir(corpus_dir))
    return corpus_dir


def test_control_shortage_trims_cohort(tmp_path):
    out = tmp_path / "out"
    config = config_file(tmp_path, shortage_corpus(tmp_path), out)
    # cohort build trims the cohort to the two eligible controls
    assert run("cohort", "build", "--config", config) == 0
    cohort_bytes = (out / "cohort.json").read_bytes()
    cohort_doc = json.loads(cohort_bytes)
    assert len(cohort_doc["user_ids"]) == 2
    assert cohort_doc["parameters"]["trimmed_to_match_controls"] == 2
    # cohort control matches that cohort and leaves cohort.json alone
    assert run("cohort", "control", "--config", config) == 0
    assert (out / "cohort.json").read_bytes() == cohort_bytes
    control_doc = json.loads((out / "control.json").read_text())
    assert sorted(control_doc["user_ids"]) == ["r0", "r1"]
    assert control_doc["parameters"]["n"] == 2
    # the manifest agrees with the files on disk
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    for stage in stages.values():
        for name, digest in stage["outputs"].items():
            assert digest == cli.file_sha256(out / name), name
    assert (stages["cohort.control"]["inputs"]["cohort.json"]
            == stages["cohort.build"]["outputs"]["cohort.json"])


def test_corpus_stage_changes_only_the_files_it_records(tmp_path):
    out = tmp_path / "out"
    config = config_file(tmp_path, shortage_corpus(tmp_path), out)

    def snapshot() -> dict[str, bytes]:
        if not out.exists():
            return {}
        return {p.name: p.read_bytes() for p in out.iterdir()}

    for stage in (s for s in cli.STAGES if s.reads_corpus):
        before = snapshot()
        assert run(*stage.name.split("."), "--config", config) == 0, stage.name
        after = snapshot()
        changed = {name for name in before.keys() | after.keys()
                   if before.get(name) != after.get(name)}
        manifest = json.loads(after["manifest.json"])
        recorded = set(manifest["stages"][stage.name]["outputs"])
        assert changed == recorded | {"manifest.json"}, stage.name


def test_stage_errors_name_the_stage(tmp_path, corpus_dir, capsys):
    def error_of(command, config) -> str:
        capsys.readouterr()
        assert run(*command, "--config", config) == 1
        return capsys.readouterr().err

    out = tmp_path / "out"
    for where in ("", tmp_path / "absent"):
        config = config_file(tmp_path, where, out)
        assert error_of(("ingest", "validate"), config).startswith(
            "error: stage ingest.validate: ")

    config = config_file(tmp_path, corpus_dir, out, lexicons=[str(tmp_path)])
    for step in (("cohort", "build"), ("cohort", "control")):
        assert run(*step, "--config", config) == 0
    assert error_of(("features", "extract"), config).startswith(
        "error: stage features.extract: [Errno 21] ")

    config = config_file(tmp_path, corpus_dir, out)
    engaged = json.loads((out / "cohort.json").read_text())["user_ids"]
    (out / "control.json").write_text(json.dumps({"user_ids": engaged}))
    assert error_of(("features", "extract"), config).startswith(
        "error: stage features.extract: cohorts overlap: ")

    # a cohort enlarged past the eligible pool is not trimmed again
    out = tmp_path / "enlarged"
    config = config_file(tmp_path, shortage_corpus(tmp_path), out)
    assert run("cohort", "build", "--config", config) == 0
    doc = json.loads((out / "cohort.json").read_text())
    doc["user_ids"] = ["c0", "c1", "c2", "c3"]
    (out / "cohort.json").write_text(json.dumps(doc))
    enlarged = (out / "cohort.json").read_bytes()
    assert error_of(("cohort", "control"), config).startswith(
        "error: stage cohort.control: insufficient eligible control "
        "candidates: 2 for 4 ")
    assert (out / "cohort.json").read_bytes() == enlarged
    assert not (out / "control.json").exists()


def test_control_rejects_empty_cohort(tmp_path, corpus_dir, capsys):
    out = tmp_path / "empty"
    config = config_file(tmp_path, corpus_dir, out, l_min=10**6)
    # cohort build still writes the empty cohort, next to the grid
    assert run("cohort", "build", "--config", config) == 0
    assert json.loads((out / "cohort.json").read_text())["user_ids"] == []
    assert (out / "grid.csv").exists()
    capsys.readouterr()
    assert run("cohort", "control", "--config", config) == 1
    assert capsys.readouterr().err == (
        "error: stage cohort.control: cohort.json holds no users; see "
        "grid.csv for thresholds that select some\n")
    assert not (out / "control.json").exists()


def test_readme_config_block_states_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    documented = json.loads(block)
    defaults = asdict(cli.RunConfig())
    del documented["corpus_dir"], defaults["corpus_dir"]
    assert documented == defaults


def test_control_no_eligible_users_fails(tmp_path, corpus_dir, capsys):
    out = tmp_path / "nolang"
    config = config_file(tmp_path, corpus_dir, out, control_language="xx")
    assert run("cohort", "build", "--config", config) == 0
    assert run("cohort", "control", "--config", config) == 1
    assert "no eligible control users" in capsys.readouterr().err


def test_cohort_user_without_profile_left_out(tmp_path):
    # "ghost" likes and follows seeds but has no users.jsonl row
    corpus_dir = tmp_path / "partial"
    assert run("synth", "generate", "--out", corpus_dir, "--n", 30,
               "--seed", 42) == 0
    seeds = json.loads((corpus_dir / "seeds.json").read_text())
    with open(corpus_dir / "likes.jsonl", "a", encoding="utf-8") as fh:
        for i in range(36):
            fh.write(json.dumps({"user_id": "ghost", "seed_id": seeds[i % 6],
                                 "liked_tweet_id": f"ghost_like{i}"}) + "\n")
    with open(corpus_dir / "follows.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"follower_id": "ghost",
                             "followee_id": seeds[0]}) + "\n")
    out = tmp_path / "out"
    config = config_file(tmp_path, corpus_dir, out, seed=42)
    for command in (("ingest", "validate"), ("cohort", "build"),
                    ("cohort", "control"), ("features", "extract")):
        assert run(*command, "--config", config) == 0, command
    engaged = json.loads((out / "cohort.json").read_text())["user_ids"]
    control = json.loads((out / "control.json").read_text())["user_ids"]
    assert "ghost" not in engaged + control
    assert len(engaged) == len(control) == 27


def test_control_rejects_cohort_user_without_profile(tmp_path, corpus_dir,
                                                     capsys):
    out = tmp_path / "edited"
    config = config_file(tmp_path, corpus_dir, out)
    assert run("cohort", "build", "--config", config) == 0
    doc = json.loads((out / "cohort.json").read_text())
    doc["user_ids"].append("ghost")
    (out / "cohort.json").write_text(json.dumps(doc))
    assert run("cohort", "control", "--config", config) == 1
    assert "without a profile record" in capsys.readouterr().err


@pytest.mark.parametrize("name, content, command, message", [
    ("cohort.json", "{}", ("hashtags", "top"),
     "user_ids must be a list of strings"),
    ("control.json", '{"user_ids": 5}', ("features", "extract"),
     "user_ids must be a list of strings"),
    ("manifest.json", "[]", ("hashtags", "top"), "expected a JSON object"),
    ("manifest.json", '{"stages": []}', ("hashtags", "top"),
     "stages must be a JSON object"),
    ("manifest.json", '{"stages": {', ("hashtags", "top"),
     "Expecting property name"),
    ("model.json", '{"trees": [', ("importance",),
     "Expecting value: line 1 column 12 (char 11)"),
], ids=["cohort-without-ids", "control-ids-not-a-list",
        "manifest-not-an-object", "manifest-stages-not-an-object",
        "manifest-cut-short", "model-cut-short"])
def test_malformed_artifact_fails_naming_the_file(tmp_path, corpus_dir, capsys,
                                                  name, content, command,
                                                  message):
    out = tmp_path / "out"
    config = config_file(tmp_path, corpus_dir, out)
    for step in (("cohort", "build"), ("cohort", "control")):
        assert run(*step, "--config", config) == 0
    (out / name).write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert run(*command, "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{name}: {message}" in err


def test_lexicon_columns_appended(tmp_path, corpus_dir):
    out = tmp_path / "lexed"
    lexicons = ["lexicons/mini_emotions.tsv"]
    config = config_file(tmp_path, corpus_dir, out, lexicons=lexicons)
    assert run("cohort", "build", "--config", config) == 0
    assert run("cohort", "control", "--config", config) == 0
    assert run("features", "extract", "--config", config) == 0
    meta = json.loads((out / "features.meta.json").read_text())
    assert len(meta["columns"]) == 92 + 10
    assert "mini_emotions_anger" in meta["columns"]


def test_lexicon_listed_twice_rejected(tmp_path, corpus_dir, capsys):
    out = tmp_path / "twice"
    lexicons = ["lexicons/mini_emotions.tsv", "lexicons/mini_emotions.tsv"]
    config = config_file(tmp_path, corpus_dir, out, lexicons=lexicons)
    assert run("cohort", "build", "--config", config) == 0
    assert run("cohort", "control", "--config", config) == 0
    assert run("features", "extract", "--config", config) == 1
    assert ("duplicate column name: mini_emotions_"
            in capsys.readouterr().err)
    assert not (out / "features.csv").exists()
