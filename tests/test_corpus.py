import concurrent.futures
import dataclasses
import gc
import itertools
import json
import pickle
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_tweet, make_user
from traitline import corpus as loader
from traitline.corpus import (MAX_EPOCH, MIN_EPOCH, TWEET_KINDS, CorpusError,
                              CorpusPaths, TweetRecord, format_timestamp,
                              load_corpus, parse_timestamp, record_counts,
                              save_corpus, validate_corpus)
from traitline.features import tokenize_tweet
from traitline.synth import default_specs, generate_corpus


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def user_row(user_id, **overrides):
    row = {"user_id": user_id, "created_at": "2020-01-01T00:00:00Z",
           "followers_count": 10, "following_count": 20, "tweet_count": 5,
           "listed_count": 0, "verified": False, "has_default_pic": False,
           "bio": "hello", "predominant_language": "en",
           "snapshot_at": "2022-01-01T00:00:00Z"}
    row.update(overrides)
    return row


def tweet_row(tweet_id, author, created, **overrides):
    row = {"tweet_id": tweet_id, "author_id": author, "created_at": created,
           "kind": "original", "text": "hi there", "hashtags": [],
           "urls": [], "mentions": [], "retweeted_author": None}
    row.update(overrides)
    return row


def write_fixture(tmp_path, users, tweets, likes=(), follows=(), seeds=()):
    paths = CorpusPaths.in_dir(tmp_path)
    write_jsonl(paths.users, users)
    write_jsonl(paths.tweets, tweets)
    write_jsonl(paths.likes, likes)
    write_jsonl(paths.follows, follows)
    with open(paths.seeds, "w") as fh:
        json.dump(list(seeds), fh)
    return paths


def test_two_user_fixture(tmp_path):
    paths = write_fixture(
        tmp_path,
        users=[user_row("u1"), user_row("u2")],
        tweets=[tweet_row("t1", "u1", "2021-05-01T00:00:00Z"),
                tweet_row("t2", "u1", "2021-05-02T00:00:00Z"),
                tweet_row("t3", "u2", "2021-06-01T00:00:00Z")],
        seeds=["s1"])
    corpus = load_corpus(paths)
    assert set(corpus.users) == {"u1", "u2"}
    assert [t.tweet_id for t in corpus.timeline("u1")] == ["t1", "t2"]
    assert record_counts(corpus) == {"users": 2, "tweets": 3, "likes": 0,
                                     "follows": 0, "seeds": 1}


def test_out_of_order_timestamps_resorted(tmp_path):
    paths = write_fixture(
        tmp_path,
        users=[user_row("u1")],
        tweets=[tweet_row("t2", "u1", "2021-05-02T00:00:00Z"),
                tweet_row("t1", "u1", "2021-05-01T00:00:00Z")],
        seeds=["s1"])
    corpus = load_corpus(paths)
    stamps = [t.created_at for t in corpus.timeline("u1")]
    assert stamps == sorted(stamps)
    assert [t.tweet_id for t in corpus.timeline("u1")] == ["t1", "t2"]


def test_equal_timestamps_tie_break_by_tweet_id(tmp_path):
    paths = write_fixture(
        tmp_path,
        users=[user_row("u1")],
        tweets=[tweet_row("tb", "u1", "2021-05-01T00:00:00Z"),
                tweet_row("ta", "u1", "2021-05-01T00:00:00Z")],
        seeds=["s1"])
    corpus = load_corpus(paths)
    assert [t.tweet_id for t in corpus.timeline("u1")] == ["ta", "tb"]


def test_missing_user_id_reports_line(tmp_path):
    bad = user_row("u1")
    del bad["user_id"]
    paths = write_fixture(tmp_path, users=[user_row("u0"), bad], tweets=[],
                          seeds=["s1"])
    with pytest.raises(CorpusError,
                       match=r"^users\.jsonl: line 2: missing field user_id$"):
        load_corpus(paths)


def test_malformed_line_reports_file_and_line(tmp_path):
    paths = write_fixture(tmp_path, users=[user_row("u1")], tweets=[],
                          seeds=["s1"])
    for line, error in [("{not json", "malformed JSON: "),
                        ("[1, 2]", "non-object$")]:
        with open(paths.tweets, "w") as fh:
            fh.write(line + "\n")
        with pytest.raises(CorpusError,
                           match=r"^tweets\.jsonl: line 1: " + error):
            load_corpus(paths)


@pytest.mark.parametrize("field,value", [
    ("verified", "false"), ("verified", 0), ("has_default_pic", 1),
    ("has_default_pic", "true"), ("followers_count", 3.9),
    ("following_count", "20"), ("tweet_count", True), ("listed_count", 1.0),
    ("bio", 5), ("predominant_language", ["en"]),
])
def test_user_field_of_wrong_type_rejected(tmp_path, field, value):
    paths = write_fixture(tmp_path, users=[user_row("u1"),
                                           user_row("u2", **{field: value})],
                          tweets=[], seeds=["s1"])
    with pytest.raises(CorpusError, match=f"users.jsonl: line 2: .*{field}"):
        load_corpus(paths)


def strict_fixture(tmp_path, name, change):
    """A valid corpus whose second record of file ``name`` is updated with
    ``change``, or whose seed list is ``change``."""
    rows = {
        "users": [user_row("u1"), user_row("u2")],
        "tweets": [tweet_row("t1", "u1", "2021-05-01T00:00:00Z"),
                   tweet_row("t2", "u1", "2021-05-02T00:00:00Z")],
        "likes": [{"user_id": "u1", "seed_id": "s1", "liked_tweet_id": "p1"}
                  for _ in range(2)],
        "follows": [{"follower_id": "u1", "followee_id": "s1"}
                    for _ in range(2)],
    }
    seeds = ["s1"]
    if name == "seeds":
        seeds = change
    else:
        rows[name][1].update(change)
    return write_fixture(tmp_path, rows["users"], rows["tweets"],
                         rows["likes"], rows["follows"], seeds)


@pytest.mark.parametrize("name, change, message", [
    ("tweets", {"hashtags": "abc"},
     r"tweets\.jsonl: line 2: field hashtags must be a JSON list, got 'abc'"),
    ("tweets", {"hashtags": ["ok", 7]},
     r"tweets\.jsonl: line 2: field hashtags must be a list of strings"),
    ("tweets", {"urls": "http://x.io"},
     r"tweets\.jsonl: line 2: field urls must be a JSON list"),
    ("tweets", {"mentions": [None]},
     r"tweets\.jsonl: line 2: field mentions must be a list of strings"),
    ("tweets", {"text": 123}, r"tweets\.jsonl: line 2: field text .* 123"),
    ("tweets", {"lang": 3}, r"tweets\.jsonl: line 2: field lang .* 3"),
    ("tweets", {"kind": 1}, r"tweets\.jsonl: line 2: field kind .* 1"),
    ("tweets", {"tweet_id": True},
     r"tweets\.jsonl: line 2: field tweet_id must be a JSON str or int"),
    ("tweets", {"author_id": 1.5}, r"tweets\.jsonl: line 2: field author_id"),
    ("tweets", {"retweeted_author": ["x"]},
     r"tweets\.jsonl: line 2: field retweeted_author"),
    ("likes", {"user_id": True, "seed_id": [1]},
     r"likes\.jsonl: line 2: field user_id .* True"),
    ("likes", {"seed_id": [1]}, r"likes\.jsonl: line 2: field seed_id"),
    ("likes", {"liked_tweet_id": 2.0},
     r"likes\.jsonl: line 2: field liked_tweet_id"),
    ("follows", {"follower_id": None},
     r"follows\.jsonl: line 2: missing field follower_id"),
    ("follows", {"followee_id": {"a": 1}},
     r"follows\.jsonl: line 2: field followee_id"),
    ("users", {"user_id": False}, r"users\.jsonl: line 2: field user_id"),
    ("seeds", [1, None, {"a": 1}], r"seeds\.json: entry 1: .* None"),
    ("seeds", ["s1", True], r"seeds\.json: entry 1: .* True"),
], ids=["hashtags-string", "hashtag-int", "urls-string", "mention-null",
        "text-int", "lang-int", "kind-int", "tweet-id-bool", "author-id-float",
        "retweeted-author-list", "like-ids-bool-and-list", "seed-id-list",
        "liked-tweet-id-float", "follower-id-null", "followee-id-object",
        "user-id-bool", "seeds-null-and-object", "seeds-bool"])
def test_field_of_wrong_json_type_rejected(tmp_path, name, change, message):
    with pytest.raises(CorpusError, match=message):
        load_corpus(strict_fixture(tmp_path, name, change))


def test_malformed_seed_list_reports_file_and_line(tmp_path):
    paths = write_fixture(tmp_path, users=[user_row("u1")], tweets=[])
    paths.seeds.write_text('["s1",\n "s2"\n')
    with pytest.raises(CorpusError,
                       match=r"seeds\.json: malformed JSON at line 3"):
        load_corpus(paths)


def test_integer_ids_load_as_strings(tmp_path):
    paths = write_fixture(
        tmp_path, users=[user_row(1)],
        tweets=[tweet_row(10, 1, "2021-05-01T00:00:00Z", kind="retweet",
                          retweeted_author=2, hashtags=None, urls=None,
                          mentions=None, text=None)],
        likes=[{"user_id": 1, "seed_id": 3, "liked_tweet_id": 4}],
        follows=[{"follower_id": 1, "followee_id": 3}], seeds=[3, "s2"])
    corpus = load_corpus(paths)
    assert set(corpus.users) == {"1"}
    tweet = corpus.timeline("1")[0]
    assert (tweet.tweet_id, tweet.author_id, tweet.retweeted_author) == \
        ("10", "1", "2")
    assert (tweet.text, tweet.hashtags, tweet.urls, tweet.mentions) == \
        ("", (), (), ())
    assert corpus.likes == [("1", "3", "4")]
    assert corpus.follows == [("1", "3")]
    assert corpus.seeds == ["3", "s2"]


@pytest.mark.parametrize("value", [True, False, 1900000000.9, -0.5,
                                   float("nan"), float("inf"), None, [1]])
def test_parse_timestamp_rejects_coercion(value):
    with pytest.raises(CorpusError, match="bad timestamp"):
        parse_timestamp(value)


def test_parse_timestamp_accepts_integral_numbers():
    assert parse_timestamp(1900000000) == 1900000000
    assert parse_timestamp(1900000000.0) == 1900000000
    assert type(parse_timestamp(1900000000.0)) is int
    assert parse_timestamp(0) == 0


@pytest.mark.parametrize("value", ["1969-12-31T23:59:59.5Z",
                                   "2021-05-01T12:34:44.900Z",
                                   "2021-05-01T12:34:44.000001+00:00"])
def test_parse_timestamp_rejects_fractional_seconds(value):
    # a fraction used to be truncated toward zero, so that the first of
    # these loaded as 1970-01-01T00:00:00Z and the second as ...:44Z
    with pytest.raises(CorpusError,
                       match=r"^bad timestamp .*: not a whole second$"):
        parse_timestamp(value)


def test_parse_timestamp_accepts_an_all_zero_fraction():
    assert parse_timestamp("2021-05-01T12:34:44.000Z") == \
        parse_timestamp("2021-05-01T12:34:44Z")
    # before 1970 too, where truncation and flooring part ways
    assert parse_timestamp("1969-12-31T23:59:59.000Z") == -1
    assert parse_timestamp("1969-12-31T23:59:59Z") == -1


def test_boolean_timestamp_rejected_with_file_and_line(tmp_path):
    paths = write_fixture(tmp_path, users=[user_row("u1"),
                                           user_row("u2", created_at=True)],
                          tweets=[], seeds=["s1"])
    with pytest.raises(CorpusError,
                       match="users.jsonl: line 2: bad timestamp True"):
        load_corpus(paths)


@pytest.mark.parametrize("value, message", [
    # a UTC offset moves the instant past year 1 or year 9999
    ("0001-01-01T00:00:00+01:00", "date value out of range"),
    ("9999-12-31T23:59:59-01:00", "date value out of range"),
    (MIN_EPOCH - 1, "out of range"),
    (MAX_EPOCH + 1, "out of range"),
    (1e300, "out of range"),
])
def test_out_of_range_timestamp_rejected_with_file_and_line(tmp_path, value,
                                                            message):
    paths = write_fixture(tmp_path, users=[user_row("u1"),
                                           user_row("u2", created_at=value)],
                          tweets=[], seeds=["s1"])
    with pytest.raises(CorpusError, match=f"^users.jsonl: line 2: bad "
                                          f"timestamp .*: {message}$"):
        load_corpus(paths)


def test_format_timestamp_pads_the_year():
    assert format_timestamp(MIN_EPOCH) == "0001-01-01T00:00:00Z"
    assert format_timestamp(-30610224000) == "1000-01-01T00:00:00Z"
    assert format_timestamp(-30610224001) == "0999-12-31T23:59:59Z"
    assert format_timestamp(MAX_EPOCH) == "9999-12-31T23:59:59Z"


@settings(max_examples=300, deadline=None)
@given(st.integers(MIN_EPOCH, MAX_EPOCH))
def test_timestamp_round_trips(epoch):
    assert parse_timestamp(format_timestamp(epoch)) == epoch


# parse_timestamp as it stood, before the fast path for the canonical form;
# kept verbatim as the oracle
def oracle_parse_timestamp(value) -> int:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, float) and not value.is_integer():  # nan, inf
            raise CorpusError(f"bad timestamp {value!r}: not a whole second")
        if not MIN_EPOCH <= value <= MAX_EPOCH:
            raise CorpusError(f"bad timestamp {value!r}: out of range")
        return int(value)
    if not isinstance(value, str):
        raise CorpusError(f"bad timestamp {value!r}")
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        epoch = dt.astimezone(timezone.utc).timestamp()
    except (ValueError, OverflowError) as exc:  # an offset past year 1 or 9999
        raise CorpusError(f"bad timestamp {value!r}: {exc}") from None
    if dt.microsecond:
        raise CorpusError(f"bad timestamp {value!r}: not a whole second")
    return int(epoch)


def timestamp_outcome(parse, value):
    try:
        return parse(value)
    except CorpusError as exc:
        return str(exc)


def two_digits(low, high):
    return st.integers(low, high).map("{:02d}".format)


# the canonical form's fields, each drawn in and out of range, with ASCII
# and non-ASCII digits, other separators and suffixes, and whitespace
CANONICAL_PIECES = st.tuples(
    st.one_of(st.integers(0, 9999).map("{:04d}".format),
              st.sampled_from(["0001", "9999", "２０２１", "20٢1", "12345"])),
    st.sampled_from(["-", "/"]),
    two_digits(0, 13) | st.sampled_from(["W0", "1", "٠١"]),
    st.sampled_from(["-", ""]),
    two_digits(0, 32),
    st.sampled_from(["T", "T", "T", " ", "t", "_"]),
    two_digits(0, 25) | st.sampled_from(["٠٥", "1 ", "+1"]),
    st.sampled_from([":", ":", "."]),
    two_digits(0, 61),
    st.sampled_from([":", ":", ""]),
    two_digits(0, 61) | st.sampled_from(["5", "٥٩"]),
    st.sampled_from(["Z", "Z", "Z", "z", "+00:00", "+05:30", "-01:00",
                     ".000Z", ".5Z", ".000001Z", "", "ZZ"]),
    st.sampled_from(["", "", " ", "\t", "\n", "\u3000"]),
    st.sampled_from(["", "", " ", "\n"]))


@st.composite
def timestamp_strings(draw):
    (year, dash1, month, dash2, day, sep, hour, colon1, minute, colon2,
     second, suffix, before, after) = draw(CANONICAL_PIECES)
    return (f"{before}{year}{dash1}{month}{dash2}{day}{sep}{hour}{colon1}"
            f"{minute}{colon2}{second}{suffix}{after}")


@settings(max_examples=2000, deadline=None)
@given(st.one_of(timestamp_strings(), st.text(max_size=24),
                 st.integers(MIN_EPOCH, MAX_EPOCH).map(format_timestamp)))
def test_parse_timestamp_matches_the_oracle(value):
    assert timestamp_outcome(parse_timestamp, value) == \
        timestamp_outcome(oracle_parse_timestamp, value)


@pytest.mark.parametrize("value", [
    "2021-02-30T00:00:00Z", "2020-02-29T12:00:00Z", "2021-02-29T12:00:00Z",
    "2021-01-01T24:00:00Z", "2021-01-01T23:60:00Z", "2021-01-01T23:59:60Z",
    "２０２１-01-01T00:00:00Z", "2021-01-01T0٥:00:00Z",
    " 2021-01-01T00:00:00Z", "2021-01-01T00:00:00Z\n",
    "2021-01-01T00:00:00.000Z", "2021-01-01T00:00:00.5Z",
    "2021-01-01T00:00:00+01:00", "2021-01-01T00:00:00-00:30",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "0000-01-01T00:00:00Z",
    "2020-W01-1T00:00:00Z", "2021-01-01 00:00:00Z", "20210101T000000Z",
])
def test_parse_timestamp_edge_cases_match_the_oracle(value):
    assert timestamp_outcome(parse_timestamp, value) == \
        timestamp_outcome(oracle_parse_timestamp, value)


def test_duplicate_tweet_id_rejected(tmp_path):
    paths = write_fixture(
        tmp_path,
        users=[user_row("u1")],
        tweets=[tweet_row("t1", "u1", "2021-05-01T00:00:00Z"),
                tweet_row("t1", "u1", "2021-05-02T00:00:00Z")],
        seeds=["s1"])
    with pytest.raises(CorpusError,
                       match=r"^tweets\.jsonl: line 2: duplicate tweet_id t1$"):
        load_corpus(paths)


def test_duplicate_user_id_rejected(tmp_path):
    paths = write_fixture(tmp_path, users=[user_row("u1"), user_row("u1")],
                          tweets=[], seeds=["s1"])
    with pytest.raises(CorpusError,
                       match=r"^users\.jsonl: line 2: duplicate user_id u1$"):
        load_corpus(paths)


def test_hashtags_lowercased_and_deduplicated(tmp_path):
    paths = write_fixture(
        tmp_path, users=[user_row("u1")],
        tweets=[tweet_row("t1", "u1", "2021-05-01T00:00:00Z",
                          hashtags=["#Covid19", "covid19", "NEWS"])],
        seeds=["s1"])
    corpus = load_corpus(paths)
    assert corpus.timeline("u1")[0].hashtags == ("covid19", "news")


def test_timestamps_normalized_to_utc(tmp_path):
    paths = write_fixture(
        tmp_path, users=[user_row("u1")],
        tweets=[tweet_row("t1", "u1", "2021-05-01T12:00:00+02:00")],
        seeds=["s1"])
    corpus = load_corpus(paths)
    assert corpus.timeline("u1")[0].created_at == \
        parse_timestamp("2021-05-01T10:00:00Z")


def test_created_after_snapshot_rejected(tmp_path):
    paths = write_fixture(
        tmp_path,
        users=[user_row("u1", created_at="2023-01-01T00:00:00Z")],
        tweets=[], seeds=["s1"])
    with pytest.raises(CorpusError, match="created_at after snapshot_at"):
        load_corpus(paths)


def test_negative_count_rejected(tmp_path):
    paths = write_fixture(tmp_path,
                          users=[user_row("u1", followers_count=-1)],
                          tweets=[], seeds=["s1"])
    with pytest.raises(CorpusError, match="followers_count < 0"):
        load_corpus(paths)


def test_unknown_kind_rejected(tmp_path):
    paths = write_fixture(
        tmp_path, users=[user_row("u1")],
        tweets=[tweet_row("t1", "u1", "2021-05-01T00:00:00Z", kind="boost")],
        seeds=["s1"])
    with pytest.raises(CorpusError, match="unknown kind"):
        load_corpus(paths)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CorpusError, match="missing corpus file"):
        load_corpus(CorpusPaths.in_dir(tmp_path))


def test_load_is_deterministic(tmp_path):
    paths = write_fixture(
        tmp_path, users=[user_row("u1"), user_row("u2")],
        tweets=[tweet_row("t1", "u1", "2021-05-01T00:00:00Z")],
        likes=[{"user_id": "u1", "seed_id": "s1", "liked_tweet_id": "x"}],
        follows=[{"follower_id": "u1", "followee_id": "s1"}],
        seeds=["s1"])
    assert load_corpus(paths) == load_corpus(paths)


def test_round_trip(tmp_path):
    corpus = make_corpus(
        users=[make_user("u1", bio="hey there"), make_user("u2", lang="it")],
        timelines={"u1": [
            make_tweet("t1", "u1", 1000, kind="retweet",
                       text="rt @x: hello", hashtags=("news",),
                       urls=("https://a.example/x",), mentions=("x",),
                       retweeted_author="x"),
            make_tweet("t2", "u1", 2000, text="ciao", lang="it")]},
        likes=[("u1", "s1", "p1")], follows=[("u1", "s1")], seeds=["s1"])
    out = tmp_path / "rt"
    paths = CorpusPaths.in_dir(out)
    save_corpus(corpus, paths)
    reloaded = load_corpus(paths)
    assert reloaded == corpus
    # byte-stable second write
    save_corpus(reloaded, CorpusPaths.in_dir(tmp_path / "rt2"))
    for name in ("users.jsonl", "tweets.jsonl", "likes.jsonl",
                 "follows.jsonl", "seeds.json"):
        assert (out / name).read_bytes() == (tmp_path / "rt2" / name).read_bytes()
    # the written keys: every record field, timestamps in ISO-8601, and
    # lang only when the tweet has one
    assert (out / "users.jsonl").read_bytes().splitlines()[0] == (
        b'{"bio": "hey there", "created_at": "2020-01-01T00:00:00Z", '
        b'"followers_count": 10, "following_count": 100, '
        b'"has_default_pic": true, "listed_count": 3, '
        b'"predominant_language": "en", "snapshot_at": '
        b'"2022-01-01T00:00:00Z", "tweet_count": 1462, "user_id": "u1", '
        b'"verified": false}')
    assert (out / "tweets.jsonl").read_bytes().splitlines() == [
        b'{"author_id": "u1", "created_at": "1970-01-01T00:16:40Z", '
        b'"hashtags": ["news"], "kind": "retweet", "mentions": ["x"], '
        b'"retweeted_author": "x", "text": "rt @x: hello", "tweet_id": "t1", '
        b'"urls": ["https://a.example/x"]}',
        b'{"author_id": "u1", "created_at": "1970-01-01T00:33:20Z", '
        b'"hashtags": [], "kind": "original", "lang": "it", "mentions": [], '
        b'"retweeted_author": null, "text": "ciao", "tweet_id": "t2", '
        b'"urls": []}']



# ---- in-memory layout ----------------------------------------------------------

def two_author_fixture(tmp_path):
    return write_fixture(
        tmp_path, users=[user_row("u1"), user_row(2)],
        tweets=[tweet_row("t1", "u1", "2021-05-01T00:00:00Z",
                          hashtags=["#News"], mentions=["s1"],
                          urls=["https://a.example/x"], lang="en"),
                tweet_row("t2", "u1", "2021-05-02T00:00:00Z", kind="retweet",
                          hashtags=["news"], mentions=["s1"],
                          urls=["https://a.example/x"], lang="en",
                          retweeted_author="s1"),
                tweet_row("t3", 2, "2021-05-03T00:00:00Z", kind="retweet",
                          retweeted_author="s1")],
        likes=[{"user_id": "u1", "seed_id": "s1", "liked_tweet_id": "p1"},
               {"user_id": 2, "seed_id": "s1", "liked_tweet_id": "p1"}],
        follows=[{"follower_id": "u1", "followee_id": "s1"}],
        seeds=["s1"])


def test_loaded_records_are_slotted(tmp_path):
    corpus = load_corpus(two_author_fixture(tmp_path))
    records = [*corpus.users.values(),
               *(t for a in corpus.tweets.authors for t in corpus.timeline(a))]
    assert len(records) == 5
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_repeated_values_are_held_once(tmp_path):
    corpus = load_corpus(two_author_fixture(tmp_path))
    t1, t2 = corpus.timeline("u1")
    (t3,) = corpus.timeline("2")
    assert t1.author_id is t2.author_id
    assert t1.author_id is next(k for k in corpus.users if k == "u1")
    # an integer id becomes one string, shared by the user and the tweet
    assert t3.author_id is corpus.users["2"].user_id
    assert t2.kind is t3.kind
    assert t1.lang is t2.lang
    assert t2.retweeted_author is t3.retweeted_author
    assert t1.hashtags[0] is t2.hashtags[0]  # "#News" and "news"
    assert t1.mentions[0] is t2.mentions[0]
    assert t1.urls[0] is t2.urls[0]
    (like1, like2) = corpus.likes
    assert like1[1] is like2[1] and like1[2] is like2[2]
    assert like1[0] is t1.author_id


def test_corpus_survives_pickle(tmp_path):
    # under the spawn start method the feature pool pickles the corpus
    corpus = load_corpus(two_author_fixture(tmp_path))
    copy = pickle.loads(pickle.dumps(corpus))
    assert copy == corpus
    t1, t2 = copy.timeline("u1")
    assert t1.author_id is t2.author_id
    assert not hasattr(t1, "__dict__")


OPTIONAL_TEXT = st.none() | st.text()


@settings(max_examples=200, deadline=None)
@given(text=st.text(), bio=OPTIONAL_TEXT, language=OPTIONAL_TEXT,
       urls=st.lists(st.text(), max_size=3),
       mentions=st.lists(st.text(), max_size=3), lang=OPTIONAL_TEXT)
def test_save_load_round_trips_unicode(tmp_path_factory, text, bio, language,
                                       urls, mentions, lang):
    corpus = make_corpus(
        users=[make_user("u1", bio=bio, lang=language)],
        timelines={"u1": [make_tweet("t1", "u1", 1000, text=text, urls=urls,
                                     mentions=mentions, lang=lang)]},
        seeds=["s1"])
    paths = CorpusPaths.in_dir(tmp_path_factory.mktemp("corpus"))
    save_corpus(corpus, paths)
    assert load_corpus(paths) == corpus


# The writer's old path, verbatim: a dict of the tweet's fields encoded by
# json.dumps with sorted keys. save_corpus builds the same bytes directly.
def _tweet_to_json(t: TweetRecord) -> dict:
    obj = t._asdict()
    obj["created_at"] = format_timestamp(t.created_at)
    if t.lang is None:
        del obj["lang"]
    return obj


def oracle_lines(corpus):
    tweets = [json.dumps(_tweet_to_json(tweet), sort_keys=True) + "\n"
              for uid in sorted(corpus.tweets.authors)
              for tweet in corpus.timeline(uid)]
    likes = [json.dumps({"user_id": user_id, "seed_id": seed_id,
                         "liked_tweet_id": liked_tweet_id},
                        sort_keys=True) + "\n"
             for user_id, seed_id, liked_tweet_id in corpus.likes]
    follows = [json.dumps({"follower_id": follower, "followee_id": followee},
                          sort_keys=True) + "\n"
               for follower, followee in corpus.follows]
    return {"tweets.jsonl": tweets, "likes.jsonl": likes,
            "follows.jsonl": follows}


STRINGS = st.lists(st.text(), max_size=3).map(tuple)
TWEETS = st.builds(
    TweetRecord, tweet_id=st.text(), author_id=st.text(),
    # years 1 to 9999, so zero-padded years before 1000 are drawn too
    created_at=st.integers(MIN_EPOCH, MAX_EPOCH), kind=st.text(),
    text=st.text(), hashtags=STRINGS, urls=STRINGS, mentions=STRINGS,
    retweeted_author=OPTIONAL_TEXT, lang=OPTIONAL_TEXT)


@settings(max_examples=200, deadline=None)
@given(tweets=st.lists(TWEETS, max_size=6),
       likes=st.lists(st.tuples(st.text(), st.text(), st.text()), max_size=3),
       follows=st.lists(st.tuples(st.text(), st.text()), max_size=3))
def test_written_lines_match_json_dumps(tmp_path_factory, tweets, likes,
                                        follows):
    timelines = {}
    for tweet in tweets:
        timelines.setdefault(tweet.author_id, []).append(tweet)
    corpus = make_corpus(timelines=timelines, likes=likes, follows=follows)
    out = tmp_path_factory.mktemp("lines")
    save_corpus(corpus, CorpusPaths.in_dir(out))
    for name, want in oracle_lines(corpus).items():
        got = (out / name).read_bytes().decode("ascii")
        assert got.splitlines(keepends=True) == want, name


# ---- validation ------------------------------------------------------------

def consistent_corpus():
    return make_corpus(
        users=[make_user("u1"), make_user("u2")],
        timelines={"u1": [make_tweet("t1", "u1", 1000)],
                   "u2": [make_tweet("t2", "u2", 1000, kind="retweet",
                                     retweeted_author="x")]},
        likes=[("u1", "s1", "p1")],
        follows=[("u1", "s1"), ("u2", "u1")],
        seeds=["s1"])


def test_validate_consistent_corpus_is_empty():
    report = validate_corpus(consistent_corpus())
    assert not any(report.values())


def test_validate_flags_dangling_like():
    corpus = consistent_corpus()
    corpus.likes.append(("u1", "unknown_seed", "p9"))
    report = validate_corpus(corpus)
    assert report["dangling_likes"] == [("u1", "unknown_seed", "p9")]


def test_validate_flags_dangling_follow():
    corpus = consistent_corpus()
    corpus.follows.append(("ghost", "s1"))
    corpus.follows.append(("u1", "nowhere"))
    report = validate_corpus(corpus)
    assert ("ghost", "s1") in report["dangling_follows"]
    assert ("u1", "nowhere") in report["dangling_follows"]


def test_validate_flags_empty_timeline():
    corpus = make_corpus(users=[make_user("u1"), make_user("u2")],
                         timelines={"u1": [make_tweet("t1", "u1", 1)]},
                         seeds=["s1"])
    assert validate_corpus(corpus)["empty_timelines"] == ["u2"]


def test_validate_flags_retweet_missing_author():
    corpus = make_corpus(
        users=[make_user("u1")],
        timelines={"u1": [make_tweet("t1", "u1", 1, kind="retweet")]},
        seeds=["s1"])
    assert validate_corpus(corpus)["retweets_missing_author"] == ["t1"]


def test_validate_does_not_mutate():
    corpus = consistent_corpus()
    before = (dict(corpus.users), {a: corpus.timeline(a) for a in
                                   corpus.tweets.authors},
              list(corpus.likes), list(corpus.follows), list(corpus.seeds))
    validate_corpus(corpus)
    assert (corpus.users, {a: corpus.timeline(a) for a in
                           corpus.tweets.authors}, corpus.likes,
            corpus.follows, corpus.seeds) == (before[0], before[1], before[2],
                                              before[3], before[4])


def test_predominant_language_fallback():
    corpus = make_corpus(
        users=[make_user("u1", lang=None)],
        timelines={"u1": [make_tweet("t1", "u1", 1, lang="it"),
                          make_tweet("t2", "u1", 2, lang="it"),
                          make_tweet("t3", "u1", 3, lang="en")]},
        seeds=["s1"])
    assert corpus.predominant_language("u1") == "it"


# ---- the loader as it stood, kept verbatim as the oracle ----------------------
# (renamed with an oracle_ prefix; its records are the frozen dataclasses,
# which checked the tweet kind and the user invariants in __post_init__)

@dataclass(frozen=True, slots=True)
class OracleUserRecord:
    user_id: str
    created_at: int
    followers_count: int
    following_count: int
    tweet_count: int
    listed_count: int
    verified: bool
    has_default_pic: bool
    bio: str | None
    predominant_language: str | None
    snapshot_at: int

    def __post_init__(self):
        for name in ("followers_count", "following_count", "tweet_count",
                     "listed_count"):
            if getattr(self, name) < 0:
                raise CorpusError(f"{name} < 0 for user {self.user_id}")
        if self.created_at > self.snapshot_at:
            raise CorpusError(
                f"created_at after snapshot_at for user {self.user_id}")


@dataclass(frozen=True, slots=True)
class OracleTweetRecord:
    tweet_id: str
    author_id: str
    created_at: int
    kind: str
    text: str
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]
    mentions: tuple[str, ...]
    retweeted_author: str | None = None
    lang: str | None = None

    def __post_init__(self):
        if self.kind not in TWEET_KINDS:
            raise CorpusError(
                f"tweet {self.tweet_id}: unknown kind {self.kind!r}")


def oracle_iter_jsonl(path: Path, parse, unique: str | None = None):
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"malformed JSON: {exc.msg}") from None
                if not isinstance(obj, dict):
                    raise CorpusError("non-object")
                record = parse(obj)
                if unique is not None:
                    key = getattr(record, unique)
                    if key in seen:
                        raise CorpusError(f"duplicate {unique} {key}")
                    seen.add(key)
            except CorpusError as exc:
                raise CorpusError(
                    f"{path.name}: line {lineno}: {exc}") from None
            yield record


_ID = (str, int)


def _require(obj: dict, name: str):
    if name not in obj or obj[name] is None:
        raise CorpusError(f"missing field {name}")
    return obj[name]


def _require_type(obj: dict, name: str, kinds: tuple[type, ...],
                  optional: bool = False):
    value = obj.get(name) if optional else _require(obj, name)
    if value is None or type(value) in kinds:
        return value
    names = " or ".join(kind.__name__ for kind in kinds)
    raise CorpusError(f"field {name} must be a JSON {names}, got {value!r}")


def _shared(value: str | None) -> str | None:
    return None if value is None else sys.intern(value)


def _require_id(obj: dict, name: str) -> str:
    return str(_require_type(obj, name, _ID))


def _strings(obj: dict, name: str) -> tuple[str, ...]:
    values = _require_type(obj, name, (list,), optional=True) or ()
    if values and not all(type(v) is str for v in values):
        raise CorpusError(f"field {name} must be a list of strings, "
                          f"got {values!r}")
    return tuple(map(sys.intern, values))


def _norm_hashtags(raw: tuple[str, ...]) -> tuple[str, ...]:
    seen = []
    for tag in raw:
        tag = tag.lower().lstrip("#")
        if tag and tag not in seen:
            seen.append(sys.intern(tag))
    return tuple(seen)


def oracle_parse_user(obj: dict) -> OracleUserRecord:
    return OracleUserRecord(
        user_id=_shared(_require_id(obj, "user_id")),
        created_at=parse_timestamp(_require(obj, "created_at")),
        followers_count=_require_type(obj, "followers_count", (int,)),
        following_count=_require_type(obj, "following_count", (int,)),
        tweet_count=_require_type(obj, "tweet_count", (int,)),
        listed_count=_require_type(obj, "listed_count", (int,)),
        verified=_require_type(obj, "verified", (bool,)),
        has_default_pic=_require_type(obj, "has_default_pic", (bool,)),
        bio=_require_type(obj, "bio", (str,), optional=True),
        predominant_language=_shared(_require_type(
            obj, "predominant_language", (str,), optional=True)),
        snapshot_at=parse_timestamp(_require(obj, "snapshot_at")),
    )


def oracle_parse_tweet(obj: dict) -> OracleTweetRecord:
    retweeted = _require_type(obj, "retweeted_author", _ID, optional=True)
    return OracleTweetRecord(
        tweet_id=_require_id(obj, "tweet_id"),
        author_id=_shared(_require_id(obj, "author_id")),
        created_at=parse_timestamp(_require(obj, "created_at")),
        kind=_shared(_require_type(obj, "kind", (str,))),
        text=_require_type(obj, "text", (str,), optional=True) or "",
        hashtags=_norm_hashtags(_strings(obj, "hashtags")),
        urls=_strings(obj, "urls"),
        mentions=_strings(obj, "mentions"),
        retweeted_author=(None if retweeted in (None, "")
                          else _shared(str(retweeted))),
        lang=_shared(_require_type(obj, "lang", (str,), optional=True)),
    )


def oracle_parse_ids(names: tuple[str, ...], obj: dict) -> tuple:
    return tuple(_shared(_require_id(obj, name)) for name in names)


# ---- the loader against the oracle -------------------------------------------

MISSING = object()
# any JSON value, NaN and the infinities included, nested a little
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=2)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=4)
IDS = st.one_of(st.sampled_from(["a", "b", "u1", ""]), st.integers(-2, 3))
# mostly valid, in every form the loader accepts
STAMPS = st.sampled_from(
    ["2021-05-01T00:00:00Z", "2021-05-01T12:00:00+02:00",
     "2021-05-01 00:00:00", " 2023-01-01T00:00:00Z ", 1600000000,
     1600000000.0, 1700000000] * 3 + ["2021-13-01T00:00:00Z", 1.5])
STRINGS = st.lists(st.sampled_from(["#News", "news", "#", "", "é", "x"]),
                   max_size=3)
OPTIONAL = st.one_of(st.just(MISSING), st.none())
# a field's value of the wrong type, or none: the near misses, or any value
WRONG = st.one_of(
    st.sampled_from([MISSING, None, True, False, 0, 1, -1, 1.5, 2.0,
                     float("nan"), "", "1", [], ["x", 1], [None], {"id": 1}]),
    ANY_JSON, st.lists(ANY_JSON, min_size=1, max_size=3))

TWEET_FIELDS = {
    "tweet_id": IDS, "author_id": IDS, "created_at": STAMPS,
    "kind": st.sampled_from(TWEET_KINDS * 3 + ("boost", "")),
    "text": st.text(max_size=4) | OPTIONAL,
    "hashtags": STRINGS | OPTIONAL, "urls": STRINGS | OPTIONAL,
    "mentions": STRINGS | OPTIONAL,
    "retweeted_author": IDS | st.just("") | OPTIONAL,
    "lang": st.sampled_from(["en", "it"]) | OPTIONAL,
}
USER_FIELDS = {
    "user_id": IDS, "created_at": STAMPS,
    **dict.fromkeys(("followers_count", "following_count", "tweet_count",
                     "listed_count"), st.integers(-1, 5)),
    "verified": st.booleans(), "has_default_pic": st.booleans(),
    "bio": st.text(max_size=4) | OPTIONAL,
    "predominant_language": st.sampled_from(["en", "it"]) | OPTIONAL,
    "snapshot_at": STAMPS,
}
ID_FIELDS = {"user_id": IDS, "seed_id": IDS, "liked_tweet_id": IDS}


@st.composite
def objects(draw, fields):
    """A record whose fields are mostly of their type, with up to two
    fields missing, null or of any other JSON value."""
    values = {name: draw(strategy) for name, strategy in fields.items()}
    for name in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2,
                              unique=True)):
        values[name] = draw(WRONG)
    return {k: v for k, v in values.items() if v is not MISSING}


@st.composite
def jsonl_lines(draw, fields):
    text = json.dumps(draw(objects(fields)), ensure_ascii=draw(st.booleans()))
    form = draw(st.sampled_from(["plain"] * 20 + [
        "padded", "blank", "bom", "after", "non-object", "cut"]))
    if form == "padded":
        return " \t" + text + "  "
    if form == "blank":
        return " "
    if form == "bom":
        return "\ufeff" + text
    if form == "after":
        return text + draw(st.sampled_from([" x", "{}", " 1", "]", ",", "}"]))
    if form == "non-object":
        return json.dumps(draw(ANY_JSON))
    if form == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    return text


def typed(record):
    """A record's field values, each with its type."""
    values = (dataclasses.astuple(record) if dataclasses.is_dataclass(record)
              else record)
    return [(type(v), v) for v in values]


def load_outcome(iterate, path, parse, unique):
    """The typed records, or the error raised."""
    try:
        return [typed(record) for record in iterate(path, parse, unique)]
    except Exception as exc:
        return type(exc).__name__, str(exc)


LOADERS = {
    "tweets": (TWEET_FIELDS, loader._parse_tweet, oracle_parse_tweet,
               "tweet_id"),
    "users": (USER_FIELDS, loader._parse_user, oracle_parse_user, "user_id"),
    "likes": (ID_FIELDS,
              partial(loader._parse_ids, tuple(ID_FIELDS)),
              partial(oracle_parse_ids, tuple(ID_FIELDS)), None),
}


@settings(max_examples=600, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(LOADERS)))
def test_loader_matches_oracle(data, name):
    fields, parse, oracle_parse, unique = LOADERS[name]
    lines = data.draw(st.lists(jsonl_lines(fields), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.jsonl"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        got = load_outcome(loader._iter_jsonl, path, parse, unique)
        assert got == load_outcome(oracle_iter_jsonl, path, oracle_parse,
                                   unique)


# values that fail a field's check: missing, of a wrong type, or of the
# right type but breaking one of the record's invariants
FAILING = [MISSING, None, True, 0, 1.5, "", [], ["x", 1], {"id": 1}]
BREAKING = {"kind": ["boost"], "created_at": ["2030-01-01T00:00:00Z"],
            "snapshot_at": ["2019-01-01T00:00:00Z"],
            **dict.fromkeys(("followers_count", "following_count",
                             "tweet_count", "listed_count"), [-1])}


def parse_outcome(parse, obj):
    try:
        return typed(parse(obj))
    except CorpusError as exc:
        return str(exc)


@pytest.mark.parametrize("base, parse, oracle_parse", [
    (tweet_row("t1", "u1", "2021-05-01T00:00:00Z", lang="en",
               hashtags=["#A"], retweeted_author="s1"),
     loader._parse_tweet, oracle_parse_tweet),
    (user_row("u1"), loader._parse_user, oracle_parse_user),
], ids=["tweet", "user"])
def test_first_of_two_bad_fields_matches_oracle(base, parse, oracle_parse):
    for a, b in itertools.combinations(sorted(base), 2):
        for bad_a in FAILING + BREAKING.get(a, []):
            for bad_b in FAILING + BREAKING.get(b, []):
                obj = {**base, a: bad_a, b: bad_b}
                obj = {k: v for k, v in obj.items() if v is not MISSING}
                assert parse_outcome(parse, obj) == \
                    parse_outcome(oracle_parse, obj), (a, bad_a, b, bad_b)


@pytest.mark.parametrize("line, message", [
    # the kind is checked only once every field has its type
    ('{"tweet_id": "t", "author_id": "a", "created_at": true, '
     '"kind": "boost"}', "bad timestamp True"),
    ('{"tweet_id": "t", "author_id": "a", "created_at": 1, "kind": "boost", '
     '"lang": 3}', "field lang must be a JSON str, got 3"),
    ('{"tweet_id": "t", "author_id": "a", "created_at": 1, "kind": "boost"}',
     "tweet t: unknown kind 'boost'"),
    # the retweeted author is read first
    ('{"retweeted_author": 1.5}',
     "field retweeted_author must be a JSON str or int, got 1.5"),
    ('\ufeff{"tweet_id": "t"}',
     "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ('{"tweet_id": "t"} x', "malformed JSON: Extra data"),
    ('{"tweet_id": NaN}',
     "field tweet_id must be a JSON str or int, got nan"),
])
def test_first_bad_field_names_the_error(tmp_path, line, message):
    path = tmp_path / "tweets.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    for iterate, parse in ((loader._iter_jsonl, loader._parse_tweet),
                           (oracle_iter_jsonl, oracle_parse_tweet)):
        with pytest.raises(CorpusError) as err:
            list(iterate(path, parse, "tweet_id"))
        assert str(err.value) == f"tweets.jsonl: line 1: {message}"


def test_records_are_read_only(tmp_path):
    loaded = load_corpus(two_author_fixture(tmp_path))
    user = loaded.users["u1"]
    tweet = loaded.timeline("u1")[0]
    tokenized = tokenize_tweet(tweet)
    for record, name in ((user, "followers_count"), (tweet, "text"),
                         (tokenized, "tokens")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1


# ---- the load in byte ranges ---------------------------------------------------

def load_in_ranges(path, cuts):
    """``tweets.jsonl`` loaded as ``load_tweets`` loads it, but cut at
    ``cuts``: the table's author order and timelines, or the error."""
    spans = loader._spans(path, cuts)
    with tempfile.TemporaryDirectory() as spill:
        parsed = [loader._parse_span(path, span,
                                     spill if len(spans) > 1 else None)
                  for span in spans]
        try:
            table = loader._merge_spans(path, spans, parsed)
        except CorpusError as exc:
            return str(exc)
    return table.authors, {a: table.timeline(a) for a in table.authors}


def oracle_outcome(path):
    """The serial text-mode oracle's load, grouped as a table groups it."""
    try:
        records = [TweetRecord(*dataclasses.astuple(record)) for record in
                   oracle_iter_jsonl(path, oracle_parse_tweet, "tweet_id")]
    except CorpusError as exc:
        return str(exc)
    timelines = {}
    for record in records:
        timelines.setdefault(record.author_id, []).append(record)
    for timeline in timelines.values():
        timeline.sort(key=lambda t: (t.created_at, t.tweet_id))
    return list(timelines), timelines


def test_ranges_split_lines_as_text_mode_does(tmp_path, monkeypatch):
    # raw U+2028 and U+0085 are no line breaks inside a JSON string, though
    # str.splitlines breaks at both
    rows = [json.dumps(tweet_row(f"t{i}", f"u{i % 2}",
                                 f"2021-05-0{i + 1}T00:00:00Z", text=text),
                       ensure_ascii=False)
            for i, text in enumerate(["a b", "c\x85d", "plain é"])]
    lines = [line for row in rows for line in (row, "", " \t")]
    ends = ["\n", "\r\n", "\r"]
    body = "".join(line + ends[i % 3] for i, line in enumerate(lines))
    good = tmp_path / "good" / "tweets.jsonl"
    bad = tmp_path / "bad" / "tweets.jsonl"
    for path, text in ((good, body), (bad, body + '{"tweet_id": "t9"}\r\n')):
        path.parent.mkdir()
        path.write_bytes(text.encode("utf-8"))
    assert body.count("\x85") == body.count(" ") == 1
    monkeypatch.setattr(loader, "_BLOCK", 3)  # line breaks across reads
    want = oracle_outcome(good)
    assert [t.text for t in want[1]["u0"]] == ["a b", "plain é"]
    message = f"tweets.jsonl: line {len(lines) + 1}: missing field author_id"
    assert oracle_outcome(bad) == message
    for path, expected in ((good, want), (bad, message)):
        size = path.stat().st_size
        for cut in range(size + 1):  # one cut at every byte, \r\n split too
            assert load_in_ranges(path, [cut]) == expected, cut
        for cuts in itertools.combinations(range(0, size + 1, 13), 2):
            assert load_in_ranges(path, cuts) == expected, cuts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2", "u3"]),
                          st.integers(0, 4), st.sampled_from(["", "é", "#x"])),
                max_size=40),
       st.randoms(use_true_random=False), st.data())
def test_interleaved_authors_gather_as_the_oracle_groups_them(
        tmp_path_factory, rows, rng, data):
    # authors interleaved as in a file sorted by time, many tweets of one
    # author in one second (ordered by tweet_id, not by file position), and
    # ragged columns of text and hashtags of mixed lengths
    ids = [f"t{rng.randrange(10 ** 6)}-{i}" for i in range(len(rows))]
    lines = [json.dumps(tweet_row(tweet_id, author, 1_600_000_000 + stamp,
                                  text=text * 3, hashtags=[text] if text else [],
                                  urls=[f"https://{author}.example"]),
                        ensure_ascii=False)
             for tweet_id, (author, stamp, text) in zip(ids, rows)]
    # one file rewritten per example: a directory per example would add its
    # name to the interpreter's interned strings, as pathlib interns parts
    path = tmp_path_factory.getbasetemp() / "interleaved" / "tweets.jsonl"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    size = path.stat().st_size
    cuts = data.draw(st.lists(st.integers(0, size), max_size=3))
    want = oracle_outcome(path)
    assert load_in_ranges(path, []) == want
    assert load_in_ranges(path, cuts) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_split_loads_as_one_range(tmp_path_factory, data):
    # few distinct ids, so that ids repeat within and across ranges
    lines = data.draw(st.lists(jsonl_lines(TWEET_FIELDS), max_size=6))
    ends = [data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    body = "".join(line + end for line, end in zip(lines, ends))
    if lines and data.draw(st.booleans()):  # no break after the last line
        body = body[:-len(ends[-1])]
    raw = body.encode("utf-8")
    # one file rewritten per example, as in the interleaved property
    path = tmp_path_factory.getbasetemp() / "ranges" / "tweets.jsonl"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(raw)
    cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=5))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loader, "_BLOCK", data.draw(st.sampled_from([1, 4,
                                                                   1 << 20])))
        whole = load_in_ranges(path, [])
        assert whole == oracle_outcome(path)
        assert load_in_ranges(path, cuts) == whole


def test_duplicate_check_compares_ids_of_equal_hash_byte_for_byte(
        tmp_path, monkeypatch):
    # ids of one length collide; the first repeat in file order is "bb",
    # though the run of one-byte ids sorts first
    monkeypatch.setattr(loader, "_id_hash", len)
    ids = ["a", "bb", "c", "cc", "bb", "a", "b"]
    lines = [json.dumps(tweet_row(i, "u1", 1_600_000_000 + k))
             for k, i in enumerate(ids)]
    path = tmp_path / "tweets.jsonl"
    for body, want in (
            ("\n".join(lines[:4] + lines[6:]) + "\n", None),
            ("\n\n".join(lines) + "\n",
             "tweets.jsonl: line 9: duplicate tweet_id bb")):
        path.write_text(body, encoding="utf-8")
        expected = oracle_outcome(path)
        if want is None:  # distinct ids of equal hash load
            assert isinstance(expected, tuple)
        else:
            assert expected == want
        for cut in range(len(body) + 1):
            assert load_in_ranges(path, [cut]) == expected, cut


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(json.dumps(tweet_row("t1", "u1", 1)).encode() + b"\n"
                     + b'{"tweet_id": "\xff"}\n')
    with pytest.raises(CorpusError,
                       match=r"^tweets\.jsonl: line 2: not UTF-8: "):
        loader.load_tweets(path)


@pytest.fixture(scope="module")
def synth_50(tmp_path_factory):
    """A synthetic corpus at 50 users per group, large enough to be split
    into three ranges."""
    paths = generate_corpus(*default_specs(), 50, 26, 42,
                            tmp_path_factory.mktemp("synth50"))
    assert paths.tweets.stat().st_size >= 3 * loader._MIN_SPAN_BYTES
    return paths


def test_load_is_the_same_for_any_worker_count(synth_50):
    one = load_corpus(synth_50, workers=1)
    for workers in (2, 3):
        loaded = load_corpus(synth_50, workers=workers)
        assert (loaded.users, loaded.likes, loaded.follows, loaded.seeds) == \
            (one.users, one.likes, one.follows, one.seeds)
        assert loaded.tweets.authors == one.tweets.authors
        for author in one.tweets.authors:
            assert loaded.timeline(author) == one.timeline(author)
        assert record_counts(loaded) == record_counts(one)
        assert validate_corpus(loaded) == validate_corpus(one)


def test_one_worker_starts_no_pool(synth_50, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert record_counts(load_corpus(synth_50, workers=1))["tweets"] > 0
    with pytest.raises(AssertionError, match="pool was started"):
        load_corpus(synth_50, workers=2)


@pytest.mark.parametrize("workers, bound", [(1, 1.35), (2, 1.25)])
def test_load_peak_stays_near_the_table(synth_50, workers, bound):
    # the parse holds no object per tweet beyond the table's columns: no
    # set of ids and no records (a set of ids took the one-worker peak to
    # 2.3 times the table)
    loader.load_tweets(synth_50.tweets, workers)  # imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        table = loader.load_tweets(synth_50.tweets, workers)
        gc.collect()
        used, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) > 0
    assert peak <= bound * used


def test_loaded_tweets_take_at_most_250_bytes_each(synth_50):
    # the table's bound; a TweetRecord per tweet took about 450 bytes
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load_corpus(synth_50)
        gc.collect()
        used, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert used / record_counts(corpus)["tweets"] <= 250
