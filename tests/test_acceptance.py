"""Acceptance gate: one test per criterion, timed where the criterion
demands it. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS lines alongside pytest's own pass/fail report."""

import json
import math
import os
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from conftest import assert_monotone, make_corpus, make_tweet, make_user
from test_features import (AS_OF, alice_expected, bob_expected, check_user,
                           oracle_corpus)
from test_statkit import ref_cov, ref_dist_params
from traitline import cli
from traitline.cohort import (filter_cov, filter_follows_seed,
                              select_cohort, threshold_grid)
from traitline.features import TRAIT_GROUPS, TimelineColumns, user_features
from traitline.statkit import coefficient_of_variation, dist_params
from traitline.topics import cooccurrence_graph, top_k_subgraph

ARCHIVE_ENV = "TRAITLINE_ARCHIVE_DIR"
LEXICONS_ENV = "TRAITLINE_LEXICONS"


def report(n, ok, desc):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} - {desc}")


# ---- criterion 1: kernel exactness -------------------------------------------

def test_acceptance_1_kernel_exactness():
    desc = "statkit closed forms and 1000-sample naive-reference agreement"
    started = time.monotonic()
    try:
        assert dist_params([3, 5, 8, 13]).entropy == pytest.approx(
            2.0, abs=1e-12)
        assert coefficient_of_variation([1, 1, 10]) == pytest.approx(
            1.0607, abs=1e-4)
        assert dist_params([0, 0, 0, 1]).skewness == pytest.approx(
            1.1547, abs=1e-4)
        rng = random.Random(2024)
        for _ in range(1000):
            size = rng.randint(1, 80)
            if rng.random() < 0.5:
                sample = [float(rng.randint(-30, 30)) for _ in range(size)]
            else:
                sample = [rng.uniform(-1e3, 1e3) for _ in range(size)]
            got = tuple(dist_params(sample))
            want = ref_dist_params(sample)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12)
            positive = [abs(v) + 0.5 for v in sample]
            assert coefficient_of_variation(positive) == pytest.approx(
                ref_cov(positive), rel=1e-12)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"kernel check took {elapsed:.2f}s"
    except Exception:
        report(1, False, desc)
        raise
    report(1, True, desc)


# ---- criterion 2: cohort oracle equivalence -----------------------------------

def brute_cov(counts):
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    return math.sqrt(var) / mean


def test_acceptance_2_cohort_oracle_equivalence():
    desc = "filters, grid and selection equal brute force on 100 matrices"
    started = time.monotonic()
    l_axis = (1, 5, 10, 15, 20, 25, 30, 35)
    s_axis = (1, 2, 3, 4, 5, 6)
    try:
        rng = random.Random(99)
        for _ in range(100):
            seeds = [f"s{i}" for i in range(6)]
            rows = {}
            for i in range(200):
                density = rng.uniform(0.2, 0.9)
                cells = {s: rng.randint(1, 15) for s in seeds
                         if rng.random() < density}
                if cells:
                    rows[f"u{i:03d}"] = cells
            followers = {u for u in rows if rng.random() < 0.7}
            corpus = make_corpus(
                users=[make_user(u) for u in rows],
                follows=[(u, rng.choice(seeds)) for u in followers],
                seeds=seeds)

            got_follow = set(filter_follows_seed(rows, corpus))
            assert got_follow == followers & set(rows)

            got_cov = set(filter_cov(rows, 1.0))
            want_cov = {u for u, cells in rows.items()
                        if len(cells) == 1
                        or brute_cov(list(cells.values())) <= 1.0}
            assert got_cov == want_cov

            grid = threshold_grid(rows, l_axis, s_axis)
            assert_monotone(grid)
            for l in l_axis:
                for s in s_axis:
                    brute = {u for u, cells in rows.items()
                             if sum(cells.values()) >= l
                             and len(cells) >= s}
                    assert grid[(l, s)] == len(brute)
            for l, s in ((1, 1), (25, 4), (10, 3), (35, 6)):
                brute = {u for u, cells in rows.items()
                         if sum(cells.values()) >= l and len(cells) >= s}
                assert select_cohort(rows, l, s) == brute
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"cohort oracle check took {elapsed:.2f}s"
    except Exception:
        report(2, False, desc)
        raise
    report(2, True, desc)


# ---- criterion 3: feature oracle ----------------------------------------------

def test_acceptance_3_feature_oracle():
    desc = "92 hand-computed feature values reproduced to 1e-9"
    try:
        check_user("alice", alice_expected())
        check_user("bob", bob_expected())
        corpus = oracle_corpus()
        for user_id in ("alice", "bob"):
            timeline = TimelineColumns.read(corpus, user_id)
            feats = user_features(corpus, user_id, AS_OF)
            quote = timeline.kind.count("quote") / len(timeline.kind)
            orig = timeline.kind.count("original") / len(timeline.kind)
            assert feats["retweet_ratio"] + feats["reply_ratio"] + quote \
                + orig == pytest.approx(1.0, abs=1e-12)
            from traitline.features import (language_novelty_series,
                                            tokenize_timeline)
            novelty = language_novelty_series(tokenize_timeline(timeline))
            assert novelty[0] == 100.0
            assert all(0.0 <= v <= 100.0 for v in novelty)
    except Exception:
        report(3, False, desc)
        raise
    report(3, True, desc)


# ---- criteria 4-6: desk-scale end-to-end ----------------------------------------

def run_pipeline(root, corpus_dir, tag, seed, workers):
    out = root / f"run_{tag}"
    config = root / f"config_{tag}.json"
    config.write_text(json.dumps({"corpus_dir": str(corpus_dir),
                                  "out_dir": str(out), "seed": seed,
                                  "workers": workers}))
    started = time.monotonic()
    assert cli.main(["pipeline", "run", "--config", str(config)]) == 0
    return out, time.monotonic() - started


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    corpus_dir = root / "corpus"
    started = time.monotonic()
    assert cli.main(["synth", "generate", "--out", str(corpus_dir),
                     "--n", "200", "--n-seeds", "26", "--seed", "42"]) == 0
    gen_elapsed = time.monotonic() - started
    out_a, run_elapsed = run_pipeline(root, corpus_dir, "a", 42, workers=1)
    out_b, _ = run_pipeline(root, corpus_dir, "b", 42, workers=1)
    out_c, _ = run_pipeline(root, corpus_dir, "c", 42, workers=8)
    return {"a": out_a, "b": out_b, "c": out_c,
            "end_to_end_seconds": gen_elapsed + run_elapsed}


def test_acceptance_4_desk_scale_end_to_end(desk_runs):
    desc = ("default synthetic corpus: model F1 >= 0.90, exact majority "
            "baseline, chance-level random baseline, growth-curve anchors")
    try:
        metrics = json.loads((desk_runs["a"] / "metrics.json").read_text())
        assert metrics["model"]["f1"] >= 0.90
        assert metrics["model"]["f1"] >= metrics["baseline_majority"]["f1"]
        assert metrics["baseline_majority"]["f1"] == pytest.approx(
            2.0 / 3.0, abs=1e-3)
        assert metrics["baseline_random"]["f1"] == pytest.approx(0.50,
                                                                 abs=0.05)
        curve_rows = (desk_runs["a"] / "curve.csv").read_text().splitlines()
        points = [row.split(",") for row in curve_rows[1:]]
        ks = [int(k) for k, _ in points]
        f1s = [float(f1) for _, f1 in points]
        assert ks[0] == 1
        assert ks[-1] == 92
        assert f1s[-1] == metrics["model"]["f1"]  # exact, not approximate
        assert f1s[0] < f1s[-1]
        assert desk_runs["end_to_end_seconds"] < 180.0
    except Exception:
        report(4, False, desc)
        raise
    report(4, True, desc)


def test_acceptance_5_indistinguishability_control(tmp_path_factory):
    desc = "identical group profiles keep holdout F1 at chance level"
    try:
        root = tmp_path_factory.mktemp("flat")
        corpus_dir = root / "corpus"
        assert cli.main(["synth", "generate", "--out", str(corpus_dir),
                         "--n", "200", "--n-seeds", "26", "--seed", "42",
                         "--separation", "0.0"]) == 0
        out, _ = run_pipeline(root, corpus_dir, "flat", 42, workers=1)
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.40 <= metrics["model"]["f1"] <= 0.60
    except Exception:
        report(5, False, desc)
        raise
    report(5, True, desc)


# every artifact a run writes but manifest.json, which embeds the paths
DETERMINISTIC_ARTIFACTS = (
    "validation_report.json", "grid.csv", "cohort.json", "control.json",
    "hashtags.csv", "features.csv", "features.meta.json", "model.json",
    "metrics.json", "importance.csv", "curve.csv", "edges.csv", "nodes.csv",
    "control_edges.csv", "control_nodes.csv")


def test_acceptance_6_determinism_across_runs_and_workers(desk_runs):
    desc = "byte-identical artifacts, all 15 of them, for repeat runs at " \
           "worker counts 1 and 8"
    try:
        for name in DETERMINISTIC_ARTIFACTS:
            a = (desk_runs["a"] / name).read_bytes()
            assert a == (desk_runs["b"] / name).read_bytes(), name
            assert a == (desk_runs["c"] / name).read_bytes(), name
    except Exception:
        report(6, False, desc)
        raise
    report(6, True, desc)


# ---- criterion 7: optional replication harness ----------------------------------

@pytest.mark.skipif(ARCHIVE_ENV not in os.environ,
                    reason=f"set {ARCHIVE_ENV} to a corpus directory with "
                           "ground_truth.json to run the replication harness")
def test_acceptance_7_replication_harness():
    desc = "published-archive replication: per-trait ordering and F1 anchors"
    from traitline.corpus import CorpusPaths, load_corpus
    from traitline.features import default_snapshot, feature_matrix
    from traitline.gbdt import TrainConfig
    from traitline.lexicon import add_lexicon_features, load_lexicon
    from traitline.model import (evaluate_model, impute, stratified_split,
                                 train_on_matrix)

    try:
        archive = Path(os.environ[ARCHIVE_ENV])
        corpus = load_corpus(CorpusPaths.in_dir(archive))
        truth = json.loads((archive / "ground_truth.json").read_text())
        engaged = {u for u, label in truth.items() if label == 1}
        control = {u for u, label in truth.items() if label == 0}
        matrix = feature_matrix(corpus, engaged, control,
                                default_snapshot(corpus),
                                workers=os.cpu_count() or 1)
        cfg = TrainConfig()

        def holdout_f1(m):
            train, test = stratified_split(m, 0.20, 42)
            train, test = impute(train, test)
            return evaluate_model(train_on_matrix(train, cfg), test)["f1"]

        f1 = {trait: holdout_f1(matrix.select_columns(cols))
              for trait, cols in TRAIT_GROUPS.items()}
        f1_all = holdout_f1(matrix)
        assert f1["credibility"] < min(f1["initiative"], f1["adaptability"])
        assert abs(f1["initiative"] - f1["adaptability"]) <= 0.03
        assert max(f1["initiative"], f1["adaptability"]) < f1_all
        assert f1_all == pytest.approx(0.89, abs=0.03)
        if LEXICONS_ENV in os.environ:
            lexicons = [load_lexicon(p) for p in
                        os.environ[LEXICONS_ENV].split(os.pathsep)]
            enriched = add_lexicon_features(matrix, corpus, lexicons)
            assert holdout_f1(enriched) == pytest.approx(0.94, abs=0.03)
    except Exception:
        report(7, False, desc)
        raise
    report(7, True, desc)


# ---- criterion 8: topics --------------------------------------------------------

def test_acceptance_8_topics_identities_and_brute_force():
    desc = "degree-sum identity and brute-force top-k on random graphs"
    try:
        rng = random.Random(123)
        tags = [f"tag{i}" for i in range(14)]
        for _ in range(40):
            tag_sets = [tuple(rng.sample(tags, rng.randint(0, 5)))
                        for _ in range(rng.randint(1, 60))]
            tweets = [make_tweet(f"t{i}", "u", i, hashtags=ts)
                      for i, ts in enumerate(tag_sets)]
            corpus = make_corpus(users=[make_user("u")],
                                 timelines={"u": tweets}, seeds=["s"])
            graph = cooccurrence_graph(corpus, {"u"})

            brute = {}
            for ts in tag_sets:
                for a, b in combinations(sorted(set(ts)), 2):
                    brute[(a, b)] = brute.get((a, b), 0) + 1
            assert graph.edges == brute

            degrees = graph.weighted_degrees()
            assert sum(degrees.values()) == 2 * sum(graph.edges.values())

            k = rng.randint(1, 8)
            keep = set(sorted(degrees, key=lambda t: (-degrees[t], t))[:k])
            want = {pair: w for pair, w in graph.edges.items()
                    if set(pair) <= keep}
            assert top_k_subgraph(graph, k).edges == want
    except Exception:
        report(8, False, desc)
        raise
    report(8, True, desc)
