import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_tweet, make_user
from traitline.corpus import (CorpusError, CorpusPaths, load_corpus,
                              parse_timestamp, record_counts, save_corpus,
                              validate_corpus)


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


def test_boolean_timestamp_rejected_with_file_and_line(tmp_path):
    paths = write_fixture(tmp_path, users=[user_row("u1"),
                                           user_row("u2", created_at=True)],
                          tweets=[], seeds=["s1"])
    with pytest.raises(CorpusError,
                       match="users.jsonl: line 2: bad timestamp True"):
        load_corpus(paths)


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
               *(t for tl in corpus.timelines.values() for t in tl)]
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
    assert report.is_empty()


def test_validate_flags_dangling_like():
    corpus = consistent_corpus()
    corpus.likes.append(("u1", "unknown_seed", "p9"))
    report = validate_corpus(corpus)
    assert report.dangling_likes == [("u1", "unknown_seed", "p9")]


def test_validate_flags_dangling_follow():
    corpus = consistent_corpus()
    corpus.follows.append(("ghost", "s1"))
    corpus.follows.append(("u1", "nowhere"))
    report = validate_corpus(corpus)
    assert ("ghost", "s1") in report.dangling_follows
    assert ("u1", "nowhere") in report.dangling_follows


def test_validate_flags_empty_timeline():
    corpus = make_corpus(users=[make_user("u1"), make_user("u2")],
                         timelines={"u1": [make_tweet("t1", "u1", 1)]},
                         seeds=["s1"])
    assert validate_corpus(corpus).empty_timelines == ["u2"]


def test_validate_flags_retweet_missing_author():
    corpus = make_corpus(
        users=[make_user("u1")],
        timelines={"u1": [make_tweet("t1", "u1", 1, kind="retweet")]},
        seeds=["s1"])
    assert validate_corpus(corpus).retweets_missing_author == ["t1"]


def test_validate_does_not_mutate():
    corpus = consistent_corpus()
    before = (dict(corpus.users), {k: list(v) for k, v in
                                   corpus.timelines.items()},
              list(corpus.likes), list(corpus.follows), list(corpus.seeds))
    validate_corpus(corpus)
    assert (corpus.users, corpus.timelines, corpus.likes, corpus.follows,
            corpus.seeds) == (before[0], before[1], before[2], before[3],
                              before[4])


def test_predominant_language_fallback():
    corpus = make_corpus(
        users=[make_user("u1", lang=None)],
        timelines={"u1": [make_tweet("t1", "u1", 1, lang="it"),
                          make_tweet("t2", "u1", 2, lang="it"),
                          make_tweet("t3", "u1", 3, lang="en")]},
        seeds=["s1"])
    assert corpus.predominant_language("u1") == "it"
