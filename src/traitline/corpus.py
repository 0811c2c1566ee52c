"""Archived-corpus ingestion: users, timelines, likes, follows and seed list.

All inputs are JSON Lines (one object per line) except seeds.json, which is
an ordered JSON array of account ids. Fields are never coerced: an id is a
JSON string or integer (never a boolean) and is held as a string, and a
field of the wrong JSON type fails the load. Timestamps are ISO-8601 on
disk and normalized to UTC epoch seconds on load. Timelines are sorted
ascending by timestamp with tweet_id as the tie-break so downstream
consecutive-pair features are deterministic.

Records are read-only named tuples, and the loader holds each repeated
string (ids, kinds, languages, hashtags, urls and mentions) once, through
``sys.intern``; tweet ids, texts and bios are not shared.

Each line is decoded by the C scanner behind ``json.loads``, which must
consume the whole line; a line it rejects goes to ``json.loads`` for the
error message. Each parser then checks its record in one pass: every
field's type where it is read, in a fixed order, and then the record's
invariants (a known tweet kind; user counts ``>= 0`` and ``created_at``
no later than ``snapshot_at``), so the first bad field names the error.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import NamedTuple

TWEET_KINDS = ("original", "retweet", "reply", "quote")
_ID = (str, int)  # JSON types of an id, matched exactly: a bool is no int


class CorpusError(ValueError):
    """Raised for malformed or inconsistent input files."""


# epochs of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the datetime range
MIN_EPOCH, MAX_EPOCH = -62135596800, 253402300799


def parse_timestamp(value) -> int:
    """ISO-8601 string (or integral epoch number) -> UTC epoch seconds.

    Booleans, fractional and non-finite numbers are rejected rather than
    truncated, and so is any instant outside years 1 to 9999 UTC.
    """
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
        return int(dt.astimezone(timezone.utc).timestamp())
    except (ValueError, OverflowError) as exc:  # an offset past year 1 or 9999
        raise CorpusError(f"bad timestamp {value!r}: {exc}") from None


def format_timestamp(epoch: int) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ``, the year zero-padded to four digits."""
    dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    return dt.isoformat()[:19] + "Z"


class UserRecord(NamedTuple):
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


class TweetRecord(NamedTuple):
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


@dataclass
class Corpus:
    users: dict[str, UserRecord]
    timelines: dict[str, list[TweetRecord]]
    likes: list[tuple[str, str, str]]  # (user_id, seed_id, liked_tweet_id)
    follows: list[tuple[str, str]]  # (follower_id, followee_id)
    seeds: list[str]

    def timeline(self, user_id: str) -> list[TweetRecord]:
        return self.timelines.get(user_id, [])

    def predominant_language(self, user_id: str) -> str | None:
        """Per-user language field, falling back to the modal tweet language."""
        user = self.users.get(user_id)
        if user is not None and user.predominant_language:
            return user.predominant_language
        langs = Counter(t.lang for t in self.timeline(user_id) if t.lang)
        if not langs:
            return None
        # ties broken by tag so the fallback is deterministic
        return min(langs.items(), key=lambda kv: (-kv[1], kv[0]))[0]


@dataclass(frozen=True)
class CorpusPaths:
    users: Path
    tweets: Path
    likes: Path
    follows: Path
    seeds: Path

    @classmethod
    def in_dir(cls, directory) -> "CorpusPaths":
        d = Path(directory)
        return cls(users=d / "users.jsonl", tweets=d / "tweets.jsonl",
                   likes=d / "likes.jsonl", follows=d / "follows.jsonl",
                   seeds=d / "seeds.json")


_scan_once = json.JSONDecoder().scan_once  # the C scanner behind json.loads


def _decode(line: str):
    """``json.loads(line)`` for a line without surrounding whitespace.

    The scanner decodes the one value at the start of the line; it is the
    whole line exactly when ``json.loads`` accepts the line. Otherwise (no
    value, text after it, a leading BOM) ``json.loads`` is called only for
    its error message.
    """
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, json.JSONDecodeError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON: {exc.msg}") from None


def _iter_jsonl(path: Path, parse, unique: str | None = None):
    """``parse(obj)`` for each object line of ``path``; with ``unique``, that
    attribute of the records may not repeat.

    Every error is reported as ``file: line N: ...``.
    """
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _decode(line)
                if type(obj) is not dict:
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


# The parsers check each field where they read it, in a fixed order, so the
# first bad field of a record names the error. These helpers only word it.

def _missing(name: str) -> CorpusError:
    return CorpusError(f"missing field {name}")


def _field_error(name: str, value, kinds: str) -> CorpusError:
    """A null or absent ``value`` is missing; any other is of no JSON type
    named in ``kinds``."""
    if value is None:
        return _missing(name)
    return CorpusError(f"field {name} must be a JSON {kinds}, got {value!r}")


def _list_error(name: str, values) -> CorpusError:
    if type(values) is not list:
        return _field_error(name, values, "list")
    return CorpusError(f"field {name} must be a list of strings, "
                       f"got {values!r}")


def _norm_hashtags(raw: list[str]) -> tuple[str, ...]:
    seen = []
    for tag in raw:
        tag = tag.lower().lstrip("#")
        if tag and tag not in seen:
            seen.append(sys.intern(tag))
    return tuple(seen)


_USER_COUNTS = ("followers_count", "following_count", "tweet_count",
                "listed_count")
_USER_SCALARS = tuple((name, int) for name in _USER_COUNTS) + (
    ("verified", bool), ("has_default_pic", bool))


def _parse_user(obj: dict) -> UserRecord:
    get = obj.get
    user_id = get("user_id")
    if type(user_id) not in _ID:
        raise _field_error("user_id", user_id, "str or int")
    user_id = sys.intern(str(user_id))
    created_at = get("created_at")
    if created_at is None:
        raise _missing("created_at")
    created_at = parse_timestamp(created_at)
    scalars = []  # the four counts, then the two flags
    for name, kind in _USER_SCALARS:
        value = get(name)
        if type(value) is not kind:
            raise _field_error(name, value, kind.__name__)
        scalars.append(value)
    bio = get("bio")
    if bio is not None and type(bio) is not str:
        raise _field_error("bio", bio, "str")
    language = get("predominant_language")
    if language is not None:
        if type(language) is not str:
            raise _field_error("predominant_language", language, "str")
        language = sys.intern(language)
    snapshot_at = get("snapshot_at")
    if snapshot_at is None:
        raise _missing("snapshot_at")
    snapshot_at = parse_timestamp(snapshot_at)
    # the record's invariants, once every field has its type
    for name, value in zip(_USER_COUNTS, scalars):
        if value < 0:
            raise CorpusError(f"{name} < 0 for user {user_id}")
    if created_at > snapshot_at:
        raise CorpusError(f"created_at after snapshot_at for user {user_id}")
    return UserRecord(user_id, created_at, *scalars, bio, language,
                      snapshot_at)


def _parse_tweet(obj: dict) -> TweetRecord:
    get = obj.get
    retweeted = get("retweeted_author")
    if retweeted is not None and type(retweeted) not in _ID:
        raise _field_error("retweeted_author", retweeted, "str or int")
    tweet_id = get("tweet_id")
    if type(tweet_id) not in _ID:
        raise _field_error("tweet_id", tweet_id, "str or int")
    tweet_id = str(tweet_id)
    author_id = get("author_id")
    if type(author_id) not in _ID:
        raise _field_error("author_id", author_id, "str or int")
    created_at = get("created_at")
    if created_at is None:
        raise _missing("created_at")
    created_at = parse_timestamp(created_at)
    kind = get("kind")
    if type(kind) is not str:
        raise _field_error("kind", kind, "str")
    text = get("text")
    if text is None:
        text = ""
    elif type(text) is not str:
        raise _field_error("text", text, "str")
    lists = []
    for name in ("hashtags", "urls", "mentions"):
        values = get(name)
        if values is None:
            values = ()
        elif type(values) is not list or not all(type(v) is str
                                                 for v in values):
            raise _list_error(name, values)
        lists.append(values)
    hashtags, urls, mentions = lists
    lang = get("lang")
    if lang is not None:
        if type(lang) is not str:
            raise _field_error("lang", lang, "str")
        lang = sys.intern(lang)
    if kind not in TWEET_KINDS:
        raise CorpusError(f"tweet {tweet_id}: unknown kind {kind!r}")
    return TweetRecord(
        tweet_id, sys.intern(str(author_id)), created_at, sys.intern(kind),
        text, _norm_hashtags(hashtags), tuple(map(sys.intern, urls)),
        tuple(map(sys.intern, mentions)),
        None if retweeted in (None, "") else sys.intern(str(retweeted)),
        lang)


def _parse_ids(names: tuple[str, ...], obj: dict) -> tuple:
    ids = []
    for name in names:
        value = obj.get(name)
        if type(value) not in _ID:
            raise _field_error(name, value, "str or int")
        ids.append(sys.intern(str(value)))
    return tuple(ids)


def load_users(path: Path) -> dict[str, UserRecord]:
    return {user.user_id: user
            for user in _iter_jsonl(path, _parse_user, unique="user_id")}


def load_tweets(path: Path) -> dict[str, list[TweetRecord]]:
    timelines: dict[str, list[TweetRecord]] = {}
    for rec in _iter_jsonl(path, _parse_tweet, unique="tweet_id"):
        timelines.setdefault(rec.author_id, []).append(rec)
    for tl in timelines.values():
        tl.sort(key=lambda t: (t.created_at, t.tweet_id))
    return timelines


def load_corpus(paths: CorpusPaths) -> Corpus:
    """Load and assemble a corpus; the result is immutable by convention."""
    for attr in ("users", "tweets", "likes", "follows", "seeds"):
        p = getattr(paths, attr)
        if not Path(p).exists():
            raise CorpusError(f"missing corpus file: {p}")
    users = load_users(paths.users)
    timelines = load_tweets(paths.tweets)

    likes = list(_iter_jsonl(paths.likes, partial(
        _parse_ids, ("user_id", "seed_id", "liked_tweet_id"))))
    follows = list(_iter_jsonl(paths.follows, partial(
        _parse_ids, ("follower_id", "followee_id"))))

    with open(paths.seeds, "r", encoding="utf-8") as fh:
        try:
            seeds_raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{paths.seeds.name}: malformed JSON at line "
                              f"{exc.lineno}: {exc.msg}") from None
    if not isinstance(seeds_raw, list):
        raise CorpusError(f"{paths.seeds.name}: expected a JSON array")
    for index, seed in enumerate(seeds_raw):
        if type(seed) not in _ID:
            raise CorpusError(f"{paths.seeds.name}: entry {index}: a seed id "
                              f"must be a JSON str or int, got {seed!r}")
    seeds = [str(s) for s in seeds_raw]
    if len(set(seeds)) != len(seeds):
        raise CorpusError(f"{paths.seeds.name}: duplicate seed ids")

    return Corpus(users=users, timelines=timelines, likes=likes,
                  follows=follows, seeds=seeds)


def record_counts(corpus: Corpus) -> dict[str, int]:
    return {
        "users": len(corpus.users),
        "tweets": sum(len(t) for t in corpus.timelines.values()),
        "likes": len(corpus.likes),
        "follows": len(corpus.follows),
        "seeds": len(corpus.seeds),
    }


def validate_corpus(corpus: Corpus) -> dict[str, list]:
    """Report-only consistency check; the corpus is never modified.

    The four lists of ``validation_report.json``, all empty for a
    consistent corpus. Dangling references are warnings rather than errors
    because real archives are partial.
    """
    report = {"dangling_likes": [], "dangling_follows": [],
              "retweets_missing_author": [], "empty_timelines": []}
    users = corpus.users
    seeds = set(corpus.seeds)
    for user_id, seed_id, liked_tweet_id in corpus.likes:
        if user_id not in users or seed_id not in seeds:
            report["dangling_likes"].append((user_id, seed_id, liked_tweet_id))
    for follower, followee in corpus.follows:
        if follower not in users or (followee not in users
                                     and followee not in seeds):
            report["dangling_follows"].append((follower, followee))
    for timeline in corpus.timelines.values():
        for tweet in timeline:
            if tweet.kind == "retweet" and tweet.retweeted_author is None:
                report["retweets_missing_author"].append(tweet.tweet_id)
    for user_id in users:
        if not corpus.timelines.get(user_id):
            report["empty_timelines"].append(user_id)
    report["retweets_missing_author"].sort()
    report["empty_timelines"].sort()
    return report


# a record's own fields, with the timestamps in ISO-8601 (JSON writes the
# tuples as lists)
def _user_to_json(u: UserRecord) -> dict:
    return u._asdict() | {"created_at": format_timestamp(u.created_at),
                          "snapshot_at": format_timestamp(u.snapshot_at)}


def _tweet_to_json(t: TweetRecord) -> dict:
    obj = t._asdict()
    obj["created_at"] = format_timestamp(t.created_at)
    if t.lang is None:
        del obj["lang"]
    return obj


# ``json.dumps(obj, sort_keys=True)``, without building an encoder per call
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def save_corpus(corpus: Corpus, paths: CorpusPaths) -> None:
    """Write a corpus back to disk in the load schema (round-trip safe)."""
    for p in (paths.users, paths.tweets, paths.likes, paths.follows,
              paths.seeds):
        Path(p).parent.mkdir(parents=True, exist_ok=True)
    with open(paths.users, "w", encoding="utf-8") as fh:
        for uid in sorted(corpus.users):
            fh.write(_encode_sorted(_user_to_json(corpus.users[uid])) + "\n")
    with open(paths.tweets, "w", encoding="utf-8") as fh:
        for uid in sorted(corpus.timelines):
            for tweet in corpus.timelines[uid]:
                fh.write(_encode_sorted(_tweet_to_json(tweet)) + "\n")
    with open(paths.likes, "w", encoding="utf-8") as fh:
        for user_id, seed_id, liked_tweet_id in corpus.likes:
            fh.write(_encode_sorted({"user_id": user_id, "seed_id": seed_id,
                                     "liked_tweet_id": liked_tweet_id})
                     + "\n")
    with open(paths.follows, "w", encoding="utf-8") as fh:
        for follower, followee in corpus.follows:
            fh.write(_encode_sorted({"follower_id": follower,
                                     "followee_id": followee}) + "\n")
    with open(paths.seeds, "w", encoding="utf-8") as fh:
        json.dump(corpus.seeds, fh)
        fh.write("\n")
