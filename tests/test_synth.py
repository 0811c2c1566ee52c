import dataclasses
import json
from collections import Counter

import pytest

from traitline import cohort
from traitline.corpus import load_corpus, validate_corpus
from traitline.synth import (ProfileSpec, SynthError, build_corpus,
                             default_specs, generate_corpus)


def small_corpus(n=40, seed=7, separation=1.0, n_seeds=8):
    engaged, control = default_specs(separation)
    engaged = dataclasses.replace(engaged, tweets_min=15, tweets_max=30)
    control = dataclasses.replace(control, tweets_min=15, tweets_max=30)
    return build_corpus(engaged, control, n, n_seeds, seed)


def test_spec_validation():
    with pytest.raises(SynthError, match="infeasible"):
        ProfileSpec(reply_share=0.7, retweet_share=0.4, quote_share=0.2)
    with pytest.raises(SynthError, match="infeasible"):
        ProfileSpec(p_no_bio=1.5)
    with pytest.raises(SynthError, match="infeasible"):
        ProfileSpec(gap_mean_seconds=0)
    with pytest.raises(SynthError, match="separation"):
        default_specs(1.5)


def test_generation_is_deterministic_bytes(tmp_path):
    engaged, control = default_specs()
    engaged = dataclasses.replace(engaged, tweets_min=10, tweets_max=15)
    control = dataclasses.replace(control, tweets_min=10, tweets_max=15)
    generate_corpus(engaged, control, 10, 6, 42, tmp_path / "a")
    generate_corpus(engaged, control, 10, 6, 42, tmp_path / "b")
    for name in ("users.jsonl", "tweets.jsonl", "likes.jsonl",
                 "follows.jsonl", "seeds.json", "ground_truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_generated_corpus_is_consistent_and_sorted(tmp_path):
    corpus, truth = small_corpus()
    assert not any(validate_corpus(corpus).values())
    for timeline in corpus.timelines.values():
        stamps = [t.created_at for t in timeline]
        assert stamps == sorted(stamps)
    assert set(truth) == set(corpus.users)
    assert sum(truth.values()) == 40


def test_ground_truth_file(tmp_path):
    engaged, control = default_specs()
    engaged = dataclasses.replace(engaged, tweets_min=5, tweets_max=8)
    control = dataclasses.replace(control, tweets_min=5, tweets_max=8)
    paths = generate_corpus(engaged, control, 5, 4, 1, tmp_path)
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    corpus = load_corpus(paths)
    assert set(truth) == set(corpus.users)
    assert sorted(set(truth.values())) == [0, 1]


def test_kind_shares_match_spec_in_aggregate():
    corpus, truth = small_corpus(n=60, seed=11)
    engaged, _ = default_specs()
    counts = Counter()
    total = 0
    for uid, label in truth.items():
        if label != 1:
            continue
        for tweet in corpus.timeline(uid):
            counts[tweet.kind] += 1
            total += 1
    assert total >= 1000
    assert counts["reply"] / total == pytest.approx(engaged.reply_share,
                                                    abs=0.03)
    assert counts["retweet"] / total == pytest.approx(engaged.retweet_share,
                                                      abs=0.03)
    assert counts["quote"] / total == pytest.approx(engaged.quote_share,
                                                    abs=0.03)


def test_planted_cohort_is_recoverable():
    corpus, truth = small_corpus(n=80, seed=5, n_seeds=10)
    planted = {u for u, label in truth.items() if label == 1}
    matrix = cohort.build_like_matrix(corpus)
    matrix = cohort.filter_follows_seed(matrix, corpus)
    matrix = cohort.filter_cov(matrix, 1.0)
    selected = cohort.select_cohort(matrix, 25, 4)
    assert selected <= planted
    assert len(selected & planted) / len(planted) >= 0.95


def test_controls_never_touch_seeds():
    corpus, truth = small_corpus(n=30, seed=9)
    seeds = set(corpus.seeds)
    background = {u for u, label in truth.items() if label == 0}
    likers = {u for u, s, _ in corpus.likes if s in seeds}
    followers = {u for u, t in corpus.follows if t in seeds}
    assert background.isdisjoint(likers)
    assert background.isdisjoint(followers)


def test_retweets_carry_author():
    corpus, _ = small_corpus(n=10, seed=2)
    for timeline in corpus.timelines.values():
        for tweet in timeline:
            if tweet.kind == "retweet":
                assert tweet.retweeted_author
            else:
                assert tweet.retweeted_author is None


def test_separation_zero_makes_identical_profiles():
    engaged, control = default_specs(0.0)
    for name in ("p_no_bio", "reply_share", "gap_mean_seconds", "vocab_size",
                 "catchphrase_p", "bio_len_mean", "url_p"):
        assert getattr(engaged, name) == getattr(control, name)
    # engagement with the seed accounts is preserved for cohort selection
    assert engaged.like_total_range == (25, 60)
    assert control.like_total_range == (0, 0)


def test_downstream_separability_monotone_in_separation():
    from traitline.features import default_snapshot, feature_matrix
    from traitline.gbdt import TrainConfig
    from traitline.model import (evaluate_model, impute, stratified_split,
                                 train_on_matrix)

    cfg = TrainConfig(n_trees=50, max_depth=4, min_samples_leaf=2)
    f1s = []
    for separation in (0.0, 0.5, 1.0):
        corpus, truth = small_corpus(n=60, seed=13, separation=separation)
        planted = {u for u, label in truth.items() if label == 1}
        rest = set(corpus.users) - planted
        fm = feature_matrix(corpus, planted, rest, default_snapshot(corpus))
        train, test = stratified_split(fm, 0.25, 3)
        train, test = impute(train, test)
        f1s.append(evaluate_model(train_on_matrix(train, cfg), test).f1)
    assert f1s[0] <= f1s[1] + 0.05
    assert f1s[1] <= f1s[2] + 0.05
    assert f1s[2] - f1s[0] >= 0.1
    assert f1s[2] >= 0.8


def test_seed_count_too_small_rejected():
    engaged, control = default_specs()
    with pytest.raises(SynthError, match="seed"):
        build_corpus(engaged, control, 4, 2, 0)


def test_small_group_rejected():
    engaged, control = default_specs()
    with pytest.raises(SynthError, match="n_per_group"):
        build_corpus(engaged, control, 1, 6, 0)
