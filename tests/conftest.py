"""Shared builders for in-memory corpora used across the test suite."""

import tempfile
from itertools import chain

from traitline.corpus import (Corpus, TweetRecord, UserRecord, _Rows, _Spill,
                              _table, parse_timestamp, write_corpus)
from traitline.features import TimelineColumns

SNAP = parse_timestamp("2022-01-01T00:00:00Z")


def make_user(user_id, created="2020-01-01T00:00:00Z", followers=10,
              following=100, tweets=1462, listed=3, verified=False,
              default_pic=True, bio=None, lang="en", snapshot=None):
    return UserRecord(
        user_id=user_id, created_at=parse_timestamp(created),
        followers_count=followers, following_count=following,
        tweet_count=tweets, listed_count=listed, verified=verified,
        has_default_pic=default_pic, bio=bio, predominant_language=lang,
        snapshot_at=SNAP if snapshot is None else parse_timestamp(snapshot))


def make_tweet(tweet_id, author, ts, kind="original", text="", hashtags=(),
               urls=(), mentions=(), retweeted_author=None, lang=None):
    return TweetRecord(
        tweet_id=tweet_id, author_id=author, created_at=ts, kind=kind,
        text=text, hashtags=tuple(hashtags), urls=tuple(urls),
        mentions=tuple(mentions), retweeted_author=retweeted_author,
        lang=lang)


def make_corpus(users=(), timelines=None, likes=(), follows=(), seeds=()):
    """A corpus whose table is packed as the loader packs a parsed range."""
    rows = _Rows()
    append = rows.appender()
    for tweet in chain.from_iterable((timelines or {}).values()):
        append(tweet)
    with tempfile.TemporaryDirectory() as spill:
        # the records' ids are taken as given: a repeat is not an error
        tweets = _table([_Spill(rows, spill)], lambda repeat: None)
    return Corpus(users={u.user_id: u for u in users}, tweets=tweets,
                  likes=list(likes), follows=list(follows), seeds=list(seeds))


def records_of(table, author):
    return [TweetRecord._make(fields) for fields in zip(
        *(table.column(author, field) for field in TweetRecord._fields))]


def columns_of(records):
    return TimelineColumns._make([getattr(t, field) for t in records]
                                 for field in TimelineColumns._fields)


def corpus_view(corpus):
    """Users, each author's timeline (in any author order) and the rest."""
    table = corpus.tweets
    return (corpus.users, {a: records_of(table, a) for a in table.authors},
            corpus.likes, corpus.follows, corpus.seeds)


def save_corpus(corpus, paths):
    users, timelines, *rest = corpus_view(corpus)
    write_corpus(paths, users, chain.from_iterable(
        timelines[a] for a in sorted(timelines)), *rest)


def assert_monotone(grid):
    """A threshold grid's counts never rise along either axis."""
    l_axis = sorted({l for l, _ in grid})
    s_axis = sorted({s for _, s in grid})
    for l, s in grid:
        li, si = l_axis.index(l), s_axis.index(s)
        if li:
            assert grid[(l, s)] <= grid[(l_axis[li - 1], s)], (l, s)
        if si:
            assert grid[(l, s)] <= grid[(l, s_axis[si - 1])], (l, s)
