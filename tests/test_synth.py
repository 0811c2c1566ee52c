import dataclasses
import hashlib
import json
import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, records_of
from traitline import cohort
from traitline.corpus import load_corpus, validate_corpus
from traitline.synth import (_ZIPF_CUM, CALM_WORDS, HEATED_WORDS, TAG_POOL,
                             ProfileSpec, SynthError, _UserBuilder,
                             _decay_cum_weights, _records, _zipf_cum_weights,
                             default_specs, generate_corpus)


def small_corpus(n=40, seed=7, separation=1.0, n_seeds=8):
    engaged, control = default_specs(separation)
    engaged = dataclasses.replace(engaged, tweets_min=15, tweets_max=30)
    control = dataclasses.replace(control, tweets_min=15, tweets_max=30)
    users, *rest, truth = _records(engaged, control, n, n_seeds, seed)
    return make_corpus(users.values(), *rest), truth


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


# sha256 of every file generate_corpus writes at the default specs (6 users
# per group, 4 seeds, seed 42: bios, bio URLs and tags, moods, hashtags,
# URLs and catchphrases all occur). A change to the random stream or to the
# writers shows here.
PINNED_SHA256 = {
    1.0: {
        "users.jsonl":
            "f73cb89f7d1e2d2ef7b2907003f3de5590bdf8b80e7a29677ec92fcdc9ee80dd",
        "tweets.jsonl":
            "7a6292ef37ff7cd9b48aa55f0f983c88b094855d265ab79b491a0d1052ddf2ad",
        "likes.jsonl":
            "b1b95ec43a621729e4239d6e06002a92040a67af0752d6284b8669d447304c09",
        "follows.jsonl":
            "72e31096e662624e2e6ffdfab62c0499be0c032c9deba84edae5b6693cf8b1c8",
        "seeds.json":
            "7a23f2f1f3810eb630bcf0c42ad14e532b042f3602d7dd9c4a9d2ba93cb47ee6",
        "ground_truth.json":
            "9fc63a5a797fea7429bbc65c01690246ccbbb7441265509cd663a969b0f7990f",
    },
    0.5: {
        "users.jsonl":
            "34abe33bb58093242ff53292e940b4af2061dcc1a98342f1ae584cf6325b70d8",
        "tweets.jsonl":
            "3ef9dafccc3ae47c85a2c39fe5c9ab1033fdf9f5d243aae1a841808733e8dea0",
        "likes.jsonl":
            "71066ce09bb54309736635d5c371ecd10cac9f92039fda46105c14f67198af1e",
        "follows.jsonl":
            "80898d5b325675a0b5b8621205d7f61c08783c4580941a07b1456b89ce487f67",
        "seeds.json":
            "7a23f2f1f3810eb630bcf0c42ad14e532b042f3602d7dd9c4a9d2ba93cb47ee6",
        "ground_truth.json":
            "9fc63a5a797fea7429bbc65c01690246ccbbb7441265509cd663a969b0f7990f",
    },
}


@pytest.mark.parametrize("separation", sorted(PINNED_SHA256))
def test_generated_bytes_are_pinned(tmp_path, separation):
    generate_corpus(*default_specs(separation), 6, 4, 42, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == PINNED_SHA256[separation]


def test_zipf_table_prefix_is_each_size_table():
    assert len(_ZIPF_CUM) == 1500
    for n in range(1, len(_ZIPF_CUM) + 1):
        assert _zipf_cum_weights(n) == _ZIPF_CUM[:n], n


def _builder(seed: int) -> _UserBuilder:
    engaged, _ = default_specs()
    return _UserBuilder(engaged, "c00000", random.Random(seed), ["seed00"],
                        [])


weights = st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1,
                   max_size=60)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), w=weights, n=st.integers(0, 40),
       mood_p=st.floats(0.0, 1.0))
def test_written_out_word_draws_match_choices(seed, w, n, mood_p):
    b = _builder(seed)
    b.vocab = [f"w{i}" for i in range(len(w))]
    b.vocab_cum = list(accumulate(w))
    b.vocab_total = b.vocab_cum[-1] + 0.0
    b.mood_p = mood_p
    oracle = random.Random()
    oracle.setstate(b.rng.getstate())
    expected = []
    for _ in range(n):
        if oracle.random() < mood_p:
            pool = (HEATED_WORDS if oracle.random() < b.heated_share
                    else CALM_WORDS)
            expected.append(oracle.choice(pool))
        else:
            expected.append(oracle.choices(b.vocab, cum_weights=b.vocab_cum,
                                           k=1)[0])
    expected.append(oracle.choices(b.vocab, cum_weights=b.vocab_cum)[0])
    assert b._words(n) + [b._vocab_word()] == expected
    assert b.rng.getstate() == oracle.getstate()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), decay=st.floats(0.05, 1.0),
       draws=st.integers(1, 30))
def test_written_out_tag_draws_match_choices(seed, decay, draws):
    b = _builder(seed)
    b.hashtag_p = 1.0
    b.tag_cum = _decay_cum_weights(len(TAG_POOL), decay)
    b.tag_total = b.tag_cum[-1] + 0.0
    oracle = random.Random()
    oracle.setstate(b.rng.getstate())
    for _ in range(draws):
        expected: list[str] = []
        oracle.random()  # the hashtag_p draw
        k = 1
        while k < 3 and oracle.random() < b.spec.multi_tag_p:
            k += 1
        while len(expected) < k:
            tag = oracle.choices(TAG_POOL, cum_weights=b.tag_cum, k=1)[0]
            if tag not in expected:
                expected.append(tag)
        assert b._tags() == expected
        assert b.rng.getstate() == oracle.getstate()


def test_generated_corpus_is_consistent_and_sorted(tmp_path):
    corpus, truth = small_corpus()
    assert not any(validate_corpus(corpus).values())
    for author in corpus.tweets.authors:
        stamps = corpus.tweets.column(author, "created_at")
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
        for kind in corpus.tweets.column(uid, "kind"):
            counts[kind] += 1
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
    for author in corpus.tweets.authors:
        for tweet in records_of(corpus.tweets, author):
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
        f1s.append(evaluate_model(train_on_matrix(train, cfg), test)["f1"])
    assert f1s[0] <= f1s[1] + 0.05
    assert f1s[1] <= f1s[2] + 0.05
    assert f1s[2] - f1s[0] >= 0.1
    assert f1s[2] >= 0.8


def test_seed_count_too_small_rejected():
    engaged, control = default_specs()
    with pytest.raises(SynthError, match="seed"):
        _records(engaged, control, 4, 2, 0)


def test_small_group_rejected():
    engaged, control = default_specs()
    with pytest.raises(SynthError, match="n_per_group"):
        _records(engaged, control, 1, 6, 0)
