import math
import multiprocessing
import os
import pickle
import re
import threading
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SNAP, make_corpus, make_tweet, make_user
from test_statkit import bits, oracle_entropy_from_counts
from traitline.corpus import parse_timestamp
from traitline.features import (FEATURE_COLUMNS, FeatureError, FeatureMatrix,
                                MENTION_TOKEN, URL_TOKEN,
                                adaptability_features, credibility_features,
                                default_snapshot, feature_matrix,
                                initiative_features, language_novelty_series,
                                TokenizedTweet, pair_entropies,
                                parallel_map, registered_domain,
                                tokenize, tokenize_timeline, user_features)
from traitline.statkit import entropy_from_counts

LOG2 = math.log2


# ---- tokenizer ---------------------------------------------------------------

def test_tokenize_basic():
    assert tokenize("Wake UP, people!") == ["wake", "up", "people"]


def test_tokenize_url_and_mention_placeholders():
    assert tokenize("see https://x.y @bob") == ["see", URL_TOKEN,
                                                MENTION_TOKEN]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_on_nonalnum_runs():
    assert tokenize("a--b__c 42x") == ["a", "b", "c", "42x"]


def test_tokenize_unicode_nfc():
    # e + combining acute normalizes to the precomposed character
    assert tokenize("café") == ["café"]


# the tokenizer as it stood, kept verbatim as the oracle
_ORACLE_SPECIAL_RE = re.compile(
    r"(?P<url>https?://\S+|www\.\S+)|(?P<mention>@\w+)", re.IGNORECASE)
_ORACLE_WORD_RE = re.compile(r"[^\W_]+")


def oracle_tokenize(text):
    if not text:
        return []
    text = unicodedata.normalize("NFC", text)
    tokens = []
    pos = 0
    for match in _ORACLE_SPECIAL_RE.finditer(text):
        tokens.extend(t.lower() for t in
                      _ORACLE_WORD_RE.findall(text[pos:match.start()]))
        tokens.append(URL_TOKEN if match.lastgroup == "url"
                      else MENTION_TOKEN)
        pos = match.end()
    tokens.extend(t.lower() for t in _ORACLE_WORD_RE.findall(text[pos:]))
    return tokens


# pieces that stress case folding, URL and mention boundaries and NFC:
# long s folds to "s", dotted capital I lowercases to two characters, the
# Kelvin sign folds to "k", and combining marks compose or stay apart
TEXT_PIECES = ["HTTP://", "hTtPs://", "httpſ://", "WwW.", "wWw.", "www.",
               "ſ", "İ", "ı", "\u212a", "ß", "ǅ", "ﬁ", "@", "@@", "@_", "_",
               "__", "a", "Z", "é", "e\u0301", "\u0301", "\u0327", "İ\u0301",
               "٣", "x.y/z", "#tag", " ", "\t", "\n", ".", ":", "/", "-"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(TEXT_PIECES), st.text(max_size=4)),
                max_size=20).map("".join))
def test_tokenize_matches_oracle(text):
    assert tokenize(text) == oracle_tokenize(text)


# ASCII pieces for the path that lowercases the whole text before the split
ASCII_PIECES = ["HTTP://", "hTtPs://", "http:/", "https//", "WwW.", "wWw.",
                "www", "@", "@@", "@_", "@A1", "_", "__", "a", "Z", "Q9",
                "0", "42", "x.y/z", "#tag", " ", "\t", "\n", ".", ":", "/",
                "-", "!", "'"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ASCII_PIECES),
                          st.text(st.characters(max_codepoint=127),
                                  max_size=4)),
                max_size=20).map("".join))
def test_tokenize_ascii_matches_oracle(text):
    assert text.isascii()
    assert tokenize(text) == oracle_tokenize(text)


def test_registered_domain():
    assert registered_domain("https://www.alpha.example/a") == "alpha.example"
    assert registered_domain("http://beta.example/b?q=1") == "beta.example"
    assert registered_domain("not a url") is None


# ---- the 2-user hand-computed oracle -----------------------------------------

T0 = 1_600_000_000
AS_OF = parse_timestamp("2022-01-01T00:00:00Z")

ALICE_BIO = "wake up. look around! #rise https://alpha.example/x"


def alice():
    return make_user("alice", created="2020-01-01T00:00:00Z", followers=10,
                     following=100, tweets=1462, listed=3, verified=False,
                     default_pic=True, bio=ALICE_BIO)


def alice_timeline():
    return [
        make_tweet("a0", "alice", T0, kind="original", text="echo"),
        make_tweet("a1", "alice", T0 + 600, kind="retweet",
                   text="echo alpha echo",
                   urls=("https://www.alpha.example/a",
                         "https://beta.example/b"),
                   retweeted_author="xx"),
        make_tweet("a2", "alice", T0 + 1200, kind="reply",
                   text="@bob delta gamma", mentions=("bob",)),
        make_tweet("a3", "alice", T0 + 1800, kind="retweet",
                   text="echo alpha delta kappa", retweeted_author="xx"),
        make_tweet("a4", "alice", T0 + 2400, kind="quote",
                   text="@carol beta zeta eta theta",
                   urls=("https://alpha.example/c",), mentions=("carol",)),
    ]


def bob():
    return make_user("bob", created="2021-07-01T00:00:00Z", followers=0,
                     following=7, tweets=92, listed=0, verified=True,
                     default_pic=False, bio=None)


def bob_timeline():
    return [
        make_tweet("b0", "bob", T0, text="solar wind"),
        make_tweet("b1", "bob", T0 + 100, text="solar wind"),
        make_tweet("b2", "bob", T0 + 300, kind="reply", text="tide moon tide"),
        make_tweet("b3", "bob", T0 + 600, text="moon"),
        make_tweet("b4", "bob", T0 + 1000, text="rain mist fog"),
    ]


def dist_expect(base, mn, mx, mean, median, std, skew, entropy):
    return {f"{base}_min": mn, f"{base}_max": mx, f"{base}_mean": mean,
            f"{base}_median": median, f"{base}_std": std,
            f"{base}_skewness": skew, f"{base}_entropy": entropy}


def dist_missing(base):
    return dist_expect(base, None, None, None, None, None, None, None)


def moments(values):
    """Population moments straight from the definitions."""
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    m3 = sum((v - mean) ** 3 for v in values) / n
    return mean, math.sqrt(m2), (0.0 if m2 == 0 else m3 / m2 ** 1.5)


# pairwise token-frequency entropies of Alice's consecutive tweets,
# from the token multisets written out by hand
A_H1 = 0.75 * LOG2(4 / 3) + 0.25 * LOG2(4)            # {echo:3, alpha:1}
A_H2 = (1 / 3) * LOG2(3) + (2 / 3) * LOG2(6)          # {echo:2, +4 singles}
A_H3 = (2 / 7) * LOG2(7 / 2) + (5 / 7) * LOG2(7)      # {delta:2, +5 singles}
A_H4 = LOG2(9)                                        # 9 distinct singles
A_PAIRS = [A_H1, A_H2, A_H3, A_H4]

B_H2 = (2 / 5) * LOG2(5 / 2) + (3 / 5) * LOG2(5)      # {tide:2, +3 singles}
B_PAIRS = [1.0, B_H2, 1.0, 2.0]


def alice_expected():
    exp = {
        "following_count": 100.0, "followers_count": 10.0,
        "followers_ratio": 1.0,                    # 100 / 10^2
        "account_age_days": 731.0,                 # 2020 leap year + 2021
        "followers_age_ratio": 10.0 / 731.0,
        "following_age_ratio": 100.0 / 731.0,
        "tweets_age_ratio": 2.0,                   # 1462 / 731
        "verified": 0.0, "has_bio": 1.0, "has_default_pic": 1.0,
        "has_url_in_bio": 1.0, "urls_count_bio": 1.0,
        "hashtags_count_bio": 1.0, "listed_count": 3.0,
        "bio_sentences": 4.0,                      # dots inside the URL split
        "bio_tokens": 6.0,                         # wake up look around rise <url>
        "bio_chars": float(len(ALICE_BIO)),        # 51
        "retweet_ratio": 0.4, "reply_ratio": 0.2,
        "tweet_url_ratio": 0.4, "retweet_url_ratio": 0.2,
        "reply_url_ratio": 0.0,
    }
    # unique token counts per tweet: [1, 2, 3, 4, 5]
    exp.update(dist_expect("unique_words", 1.0, 5.0, 3.0, 3.0,
                           math.sqrt(2.0), 0.0, LOG2(5)))
    mean, std, skew = moments(A_PAIRS)
    exp.update(dist_expect("pair_entropy", A_H1, A_H4, mean,
                           (A_H2 + A_H3) / 2, std, skew,
                           2.0))  # four values land in four distinct bins
    # novelty series [100, 50, 100, 25, 80]
    exp.update(dist_expect(
        "language_novelty", 25.0, 100.0, 71.0, 80.0, math.sqrt(864.0),
        -11418.0 / 864.0 ** 1.5,
        -(0.4 * LOG2(0.4) + 0.6 * LOG2(0.2))))
    exp.update(dist_expect("time_between_tweets", 600.0, 600.0, 600.0, 600.0,
                           0.0, 0.0, 0.0))
    exp.update(dist_expect("time_between_retweets", 1200.0, 1200.0, 1200.0,
                           1200.0, 0.0, 0.0, 0.0))
    exp.update(dist_expect("time_between_mentions", 1200.0, 1200.0, 1200.0,
                           1200.0, 0.0, 0.0, 0.0))
    exp.update(dist_expect("retweeted_accounts", 2.0, 2.0, 2.0, 2.0,
                           0.0, 0.0, 0.0))
    # alpha.example twice (www stripped), beta.example once -> [2, 1]
    exp.update(dist_expect("url_domains", 1.0, 2.0, 1.5, 1.5, 0.5, 0.0, 1.0))
    # token counts per tweet [1, 3, 3, 4, 5]
    exp.update(dist_expect(
        "tweet_words", 1.0, 5.0, 3.2, 3.0, math.sqrt(1.76),
        -0.864 / 1.76 ** 1.5,
        -(0.4 * LOG2(0.4) + 0.6 * LOG2(0.2))))
    # text lengths [4, 15, 16, 22, 26]
    exp.update(dist_expect(
        "tweet_chars", 4.0, 26.0, 16.6, 16.0, math.sqrt(55.84),
        -203.328 / 55.84 ** 1.5, LOG2(5)))
    return exp


def bob_expected():
    exp = {
        "following_count": 7.0, "followers_count": 0.0,
        "followers_ratio": 7.0,                    # guarded denominator
        "account_age_days": 184.0,                 # 2021-07-01 .. 2022-01-01
        "followers_age_ratio": 0.0,
        "following_age_ratio": 7.0 / 184.0,
        "tweets_age_ratio": 0.5,                   # 92 / 184
        "verified": 1.0, "has_bio": 0.0, "has_default_pic": 0.0,
        "has_url_in_bio": 0.0, "urls_count_bio": 0.0,
        "hashtags_count_bio": 0.0, "listed_count": 0.0,
        "bio_sentences": 0.0, "bio_tokens": 0.0, "bio_chars": 0.0,
        "retweet_ratio": 0.0, "reply_ratio": 0.2,
        "tweet_url_ratio": 0.0, "retweet_url_ratio": 0.0,
        "reply_url_ratio": 0.0,
    }
    # unique token counts [2, 2, 2, 1, 3]
    exp.update(dist_expect(
        "unique_words", 1.0, 3.0, 2.0, 2.0, math.sqrt(0.4), 0.0,
        -(0.6 * LOG2(0.6) + 0.4 * LOG2(0.2))))
    mean, std, skew = moments(B_PAIRS)
    exp.update(dist_expect(
        "pair_entropy", 1.0, 2.0, mean, (1.0 + B_H2) / 2, std, skew,
        # bins over [1, 2]: 1.0 twice in bin 0, B_H2 in bin 18, 2.0 on top
        -(0.5 * LOG2(0.5) + 2 * 0.25 * LOG2(0.25))))
    # novelty [100, 0, 100, 0, 100]
    exp.update(dist_expect(
        "language_novelty", 0.0, 100.0, 60.0, 100.0, math.sqrt(2400.0),
        -48000.0 / 2400.0 ** 1.5,
        -(0.6 * LOG2(0.6) + 0.4 * LOG2(0.4))))
    # gaps [100, 200, 300, 400]
    exp.update(dist_expect("time_between_tweets", 100.0, 400.0, 250.0, 250.0,
                           math.sqrt(12500.0), 0.0, 2.0))
    exp.update(dist_missing("time_between_retweets"))
    exp.update(dist_missing("time_between_mentions"))
    exp.update(dist_missing("retweeted_accounts"))
    exp.update(dist_missing("url_domains"))
    # token counts [2, 2, 3, 1, 3]
    exp.update(dist_expect(
        "tweet_words", 1.0, 3.0, 2.2, 2.0, math.sqrt(0.56),
        -0.144 / 0.56 ** 1.5,
        -(0.8 * LOG2(0.4) + 0.2 * LOG2(0.2))))
    # text lengths [10, 10, 14, 4, 13]
    exp.update(dist_expect(
        "tweet_chars", 4.0, 14.0, 10.2, 10.0, math.sqrt(12.16),
        -32.304 / 12.16 ** 1.5,
        -(0.4 * LOG2(0.4) + 0.6 * LOG2(0.2))))
    return exp


def oracle_corpus():
    return make_corpus(users=[alice(), bob()],
                       timelines={"alice": alice_timeline(),
                                  "bob": bob_timeline()},
                       seeds=["s1"])


def check_user(user_id, expected):
    corpus = oracle_corpus()
    got = user_features(corpus, user_id, AS_OF)
    assert set(got) == set(FEATURE_COLUMNS)
    assert set(expected) == set(FEATURE_COLUMNS)
    for column in FEATURE_COLUMNS:
        want = expected[column]
        if want is None:
            assert math.isnan(got[column]), f"{column} should be missing"
        else:
            assert got[column] == pytest.approx(want, abs=1e-9), column


def test_alice_matches_hand_computed_table():
    check_user("alice", alice_expected())


def test_bob_matches_hand_computed_table():
    check_user("bob", bob_expected())


def test_kind_shares_partition_to_one():
    for user_id in ("alice", "bob"):
        corpus = oracle_corpus()
        timeline = corpus.timeline(user_id)
        feats = user_features(corpus, user_id, AS_OF)
        quote = sum(t.kind == "quote" for t in timeline) / len(timeline)
        original = sum(t.kind == "original" for t in timeline) / len(timeline)
        total = feats["retweet_ratio"] + feats["reply_ratio"] + quote + original
        assert total == pytest.approx(1.0, abs=1e-12)


def test_novelty_series_examples():
    tl = tokenize_timeline([
        make_tweet("x1", "u", 1, text="a b"),
        make_tweet("x2", "u", 2, text="a c"),
    ])
    assert language_novelty_series(tl) == [100.0, 50.0]
    tl = tokenize_timeline([
        make_tweet("x1", "u", 1, text="same words"),
        make_tweet("x2", "u", 2, text="same words"),
    ])
    assert language_novelty_series(tl) == [100.0, 0.0]


def test_novelty_skips_tokenless_tweets():
    tl = tokenize_timeline([
        make_tweet("x1", "u", 1, text="..."),
        make_tweet("x2", "u", 2, text="hello"),
    ])
    assert language_novelty_series(tl) == [100.0]


def test_retweeted_accounts_counts_per_author():
    tl = tokenize_timeline([
        make_tweet("x1", "u", 1, kind="retweet", retweeted_author="X"),
        make_tweet("x2", "u", 2, kind="retweet", retweeted_author="X"),
        make_tweet("x3", "u", 3, kind="retweet", retweeted_author="Y"),
    ])
    feats = adaptability_features(tl)
    assert feats["retweeted_accounts_max"] == 2.0
    assert feats["retweeted_accounts_min"] == 1.0
    assert feats["retweeted_accounts_mean"] == 1.5


def pair_token_entropy(a, b):
    """Entropy (bits) of the token-frequency distribution of two posts
    taken together; None when the pair carries no tokens. The one-pair
    definition that ``pair_entropies`` batches."""
    counts = Counter(a.tokens)
    counts.update(b.tokens)
    if not counts:
        return None
    return entropy_from_counts(counts.values())


def test_pair_entropy_uniform_pair():
    a, b = tokenize_timeline([make_tweet("x1", "u", 1, text="one two"),
                              make_tweet("x2", "u", 2, text="three four")])
    assert pair_token_entropy(a, b) == pytest.approx(2.0, abs=1e-12)


def oracle_pair_entropies(timeline):
    """The per-pair loop as it stood, with the one-pair entropy verbatim."""
    out = []
    for a, b in zip(timeline, timeline[1:]):
        counts = Counter(a.tokens)
        counts.update(b.tokens)
        if counts:
            out.append(oracle_entropy_from_counts(counts.values()))
    return out


def tweet_with(tokens):
    return TokenizedTweet(tokens=tuple(tokens), is_reply=False,
                          is_retweet=False, has_url=False, has_mention=False,
                          timestamp=0, urls=(), n_chars=0,
                          retweeted_author=None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdefghijklmnopqrstuvwxyz"[:12]),
                         max_size=30),
                max_size=40))
def test_pair_entropies_match_per_pair_oracle(token_lists):
    # empty token lists make token-free tweets and token-free pairs
    timeline = [tweet_with(t) for t in token_lists]
    want = oracle_pair_entropies(timeline)
    assert bits(pair_entropies(timeline)) == bits(want)
    one_pair = [pair_token_entropy(a, b) for a, b in zip(timeline, timeline[1:])]
    assert bits(h for h in one_pair if h is not None) == bits(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=40),
       st.lists(st.integers(1, 50), max_size=70),
       st.lists(st.integers(1, 50), max_size=70))
def test_log2_terms_do_not_depend_on_position(counts, before, after):
    # pair_entropies computes p * log2(p) for all pairs in one array; that
    # gives each pair's bits only if the elementwise result for a short
    # vector is the same alone as at any offset inside a longer array
    def probabilities(c):
        c = np.array(c, dtype=np.float64)
        return c / c.sum()

    p = probabilities(counts)
    alone = p * np.log2(p)
    joined = np.concatenate([probabilities(before or [1]), p,
                             probabilities(after or [1])])
    inside = (joined * np.log2(joined))[len(before or [1]):][:p.size]
    assert alone.tobytes() == inside.tobytes()
    assert bits([alone.sum()]) == bits([inside.sum()])


def test_single_tweet_timeline_has_missing_pair_params():
    tl = tokenize_timeline([make_tweet("x1", "u", 1, text="hello world")])
    feats = initiative_features(tl)
    assert math.isnan(feats["pair_entropy_mean"])
    assert feats["unique_words_mean"] == 2.0


def test_empty_timeline_initiative_all_missing():
    feats = initiative_features([])
    assert all(math.isnan(v) for v in feats.values())


def test_credibility_guards():
    user = make_user("u", followers=0, following=7)
    feats = credibility_features(user, AS_OF)
    assert feats["followers_ratio"] == 7.0
    with pytest.raises(FeatureError, match="snapshot predates"):
        credibility_features(user, 0)


def test_time_between_samples_nonnegative():
    corpus = oracle_corpus()
    for user_id in ("alice", "bob"):
        tl = tokenize_timeline(corpus.timeline(user_id))
        feats = adaptability_features(tl)
        for base in ("time_between_tweets", "time_between_retweets",
                     "time_between_mentions"):
            value = feats[f"{base}_min"]
            assert math.isnan(value) or value >= 0.0


# ---- feature matrix ----------------------------------------------------------

def test_feature_matrix_layout_and_labels():
    corpus = oracle_corpus()
    fm = feature_matrix(corpus, {"alice"}, {"bob"}, AS_OF)
    assert fm.columns == list(FEATURE_COLUMNS)
    assert len(fm.columns) == 92
    assert fm.user_ids == ["alice", "bob"]
    assert fm.labels.tolist() == [1, 0]


def test_feature_matrix_rejects_unknown_user():
    corpus = oracle_corpus()
    with pytest.raises(FeatureError, match="user ghost has no profile record"):
        feature_matrix(corpus, {"alice", "ghost"}, {"bob"},
                       AS_OF)


def test_feature_matrix_rejects_overlap():
    corpus = oracle_corpus()
    with pytest.raises(FeatureError, match="overlap"):
        feature_matrix(corpus, {"alice"}, {"alice"}, AS_OF)


def test_no_cross_user_state():
    # a user's row is identical whether extracted alone or in a batch
    full = oracle_corpus()
    alone = make_corpus(users=[alice()], timelines={"alice": alice_timeline()},
                        seeds=["s1"])
    batch = user_features(full, "alice", AS_OF)
    solo = user_features(alone, "alice", AS_OF)
    for column in FEATURE_COLUMNS:
        a, b = batch[column], solo[column]
        assert (math.isnan(a) and math.isnan(b)) or a == b


def test_feature_matrix_worker_count_invariant():
    corpus = oracle_corpus()
    one = feature_matrix(corpus, {"alice"}, {"bob"}, AS_OF,
                         workers=1)
    two = feature_matrix(corpus, {"alice"}, {"bob"}, AS_OF,
                         workers=2)
    assert one.user_ids == two.user_ids
    assert np.array_equal(one.values, two.values, equal_nan=True)


def test_csv_round_trip_bit_exact(tmp_path):
    corpus = oracle_corpus()
    fm = feature_matrix(corpus, {"alice"}, {"bob"}, AS_OF)
    path = tmp_path / "features.csv"
    fm.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.columns == fm.columns
    assert back.user_ids == fm.user_ids
    assert back.labels.tolist() == fm.labels.tolist()
    assert np.array_equal(back.values, fm.values, equal_nan=True)
    path2 = tmp_path / "again.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("row,error", [
    # a short row used to fail in numpy with "inhomogeneous shape"
    ("1.0,u2,0", r"line 3: expected 4 cells, got 3"),
    # used to fail with no file or line
    ("x,2.0,u2,0", r"line 3: column a: non-numeric value 'x'"),
    # "inf" and a label of 2 used to load
    ("1.0,inf,u2,0", r"line 3: column b: non-finite value 'inf'"),
    ("1.0,2.0,u2,2", r"line 3: label must be 0 or 1, got '2'"),
    # a repeated user_id used to load as a second row
    ("1.0,2.0,u1,0", r"line 3: repeated user_id u1"),
], ids=["short-row", "non-numeric", "inf", "label-2", "repeated-user"])
def test_from_csv_bad_row_rejected_with_file_and_line(tmp_path, row, error):
    path = tmp_path / "features.csv"
    path.write_text(f"a,b,user_id,label\n,0.5,u1,1\n{row}\n")
    with pytest.raises(FeatureError, match=r"^features\.csv: " + error + "$"):
        FeatureMatrix.from_csv(path)


def test_append_columns_rejects_duplicates():
    corpus = oracle_corpus()
    fm = feature_matrix(corpus, {"alice"}, {"bob"}, AS_OF)
    with pytest.raises(FeatureError, match="duplicate column"):
        fm.append_columns(["verified"], np.zeros((2, 1)))
    with pytest.raises(FeatureError, match="duplicate column name: extra"):
        fm.append_columns(["extra", "extra"], np.zeros((2, 2)))


def test_duplicate_column_names_rejected(tmp_path):
    with pytest.raises(FeatureError, match="duplicate column name: a"):
        FeatureMatrix(columns=["a", "b", "a"], user_ids=["u"],
                      labels=np.array([1]), values=np.zeros((1, 3)))


@pytest.mark.parametrize("text,error", [
    ("", "empty file, expected a header ending with user_id,label"),
    ("a,b,label,user_id\n1.0,2.0,1,u\n",
     "header must end with user_id,label"),
    ("a,b,a,user_id,label\n1.0,2.0,3.0,u,1\n", "duplicate column name: a"),
], ids=["empty", "no-key-tail", "repeated-column"])
def test_from_csv_bad_header_rejected_with_file_and_line(tmp_path, text,
                                                         error):
    # none of these named the file before
    path = tmp_path / "features.csv"
    path.write_text(text)
    with pytest.raises(FeatureError,
                       match=r"^features\.csv: line 1: " + error + "$"):
        FeatureMatrix.from_csv(path)


def test_default_snapshot_is_latest():
    corpus = oracle_corpus()
    assert default_snapshot(corpus) == SNAP


# ---- parallel_map ----------------------------------------------------------------

def _affine(x):
    return 3 * x + 1


@pytest.mark.parametrize("n", [0, 1, 7])
@pytest.mark.parametrize("workers", [1, 2, 9])
def test_parallel_map_equals_list_comprehension(n, workers):
    items = [(5 * i) % 11 for i in range(n)]  # not sorted: order must hold
    assert parallel_map(_affine, items, workers) == [_affine(x) for x in items]


def test_parallel_map_runs_items_outside_the_parent():
    def pid(_):
        return os.getpid()

    assert os.getpid() not in parallel_map(pid, range(4), 2)
    assert parallel_map(pid, range(4), 1) == [os.getpid()] * 4


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker inherits an unpicklable fn")
def test_parallel_map_inherits_unpicklable_closure():
    lock = threading.Lock()
    with pytest.raises(TypeError):
        pickle.dumps(lock)

    def locked_square(x):
        with lock:
            return x * x

    assert parallel_map(locked_square, range(6), 2) == [x * x for x in range(6)]
