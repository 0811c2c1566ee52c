"""Archived-corpus ingestion: users, timelines, likes, follows and seed list.

All inputs are JSON Lines (one object per line) except seeds.json, which is
an ordered JSON array of account ids. Timestamps are ISO-8601 on disk and
normalized to UTC epoch seconds on load. Timelines are sorted ascending by
timestamp with tweet_id as the tie-break so downstream consecutive-pair
features are deterministic.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

TWEET_KINDS = ("original", "retweet", "reply", "quote")


class CorpusError(ValueError):
    """Raised for malformed or inconsistent input files."""


def parse_timestamp(value) -> int:
    """ISO-8601 string (or integral epoch number) -> UTC epoch seconds.

    Booleans, fractional and non-finite numbers are rejected rather than
    truncated.
    """
    if isinstance(value, bool):
        raise CorpusError(f"bad timestamp {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not value.is_integer():  # also false for nan and inf
            raise CorpusError(f"bad timestamp {value!r}: not a whole second")
        return int(value)
    if not isinstance(value, str):
        raise CorpusError(f"bad timestamp {value!r}")
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise CorpusError(f"bad timestamp {value!r}: {exc}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.astimezone(timezone.utc).timestamp())


def format_timestamp(epoch: int) -> str:
    dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class UserRecord:
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


@dataclass(frozen=True)
class TweetRecord:
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


@dataclass
class ValidationReport:
    dangling_likes: list[tuple[str, str, str]] = field(default_factory=list)
    dangling_follows: list[tuple[str, str]] = field(default_factory=list)
    retweets_missing_author: list[str] = field(default_factory=list)
    empty_timelines: list[str] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.dangling_likes or self.dangling_follows
                    or self.retweets_missing_author or self.empty_timelines)

    def as_dict(self) -> dict:
        return {
            "dangling_likes": [list(x) for x in self.dangling_likes],
            "dangling_follows": [list(x) for x in self.dangling_follows],
            "retweets_missing_author": list(self.retweets_missing_author),
            "empty_timelines": list(self.empty_timelines),
        }


def _iter_jsonl(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(
                    f"{path.name}: malformed JSON at line {lineno}: {exc.msg}"
                ) from None
            if not isinstance(obj, dict):
                raise CorpusError(f"{path.name}: non-object at line {lineno}")
            yield lineno, obj


def _require(obj: dict, name: str, path: Path, lineno: int):
    if name not in obj or obj[name] is None:
        raise CorpusError(
            f"{path.name}: missing field {name} at line {lineno}")
    return obj[name]


def _require_type(obj: dict, name: str, kind: type, path: Path, lineno: int):
    """A required field of exactly type ``kind``: no coercion, no bool as int."""
    value = _require(obj, name, path, lineno)
    if type(value) is not kind:
        raise CorpusError(f"field {name} must be a JSON {kind.__name__}, "
                          f"got {value!r}")
    return value


def _norm_hashtags(raw) -> tuple[str, ...]:
    seen = []
    for tag in raw or []:
        tag = str(tag).lower().lstrip("#")
        if tag and tag not in seen:
            seen.append(tag)
    return tuple(seen)


def load_users(path: Path) -> dict[str, UserRecord]:
    users: dict[str, UserRecord] = {}
    for lineno, obj in _iter_jsonl(path):
        uid = str(_require(obj, "user_id", path, lineno))
        if uid in users:
            raise CorpusError(
                f"{path.name}: duplicate user_id {uid} at line {lineno}")
        try:
            users[uid] = UserRecord(
                user_id=uid,
                created_at=parse_timestamp(_require(obj, "created_at", path, lineno)),
                followers_count=_require_type(obj, "followers_count", int, path, lineno),
                following_count=_require_type(obj, "following_count", int, path, lineno),
                tweet_count=_require_type(obj, "tweet_count", int, path, lineno),
                listed_count=_require_type(obj, "listed_count", int, path, lineno),
                verified=_require_type(obj, "verified", bool, path, lineno),
                has_default_pic=_require_type(obj, "has_default_pic", bool, path, lineno),
                bio=obj.get("bio"),
                predominant_language=obj.get("predominant_language"),
                snapshot_at=parse_timestamp(_require(obj, "snapshot_at", path, lineno)),
            )
        except CorpusError as exc:
            raise CorpusError(f"{path.name}: line {lineno}: {exc}") from None
    return users


def load_tweets(path: Path) -> dict[str, list[TweetRecord]]:
    timelines: dict[str, list[TweetRecord]] = {}
    seen_ids: set[str] = set()
    for lineno, obj in _iter_jsonl(path):
        tid = str(_require(obj, "tweet_id", path, lineno))
        if tid in seen_ids:
            raise CorpusError(
                f"{path.name}: duplicate tweet_id {tid} at line {lineno}")
        seen_ids.add(tid)
        author = str(_require(obj, "author_id", path, lineno))
        try:
            rec = TweetRecord(
                tweet_id=tid,
                author_id=author,
                created_at=parse_timestamp(_require(obj, "created_at", path, lineno)),
                kind=str(_require(obj, "kind", path, lineno)),
                text=str(obj.get("text") or ""),
                hashtags=_norm_hashtags(obj.get("hashtags")),
                urls=tuple(str(u) for u in obj.get("urls") or []),
                mentions=tuple(str(m) for m in obj.get("mentions") or []),
                retweeted_author=(str(obj["retweeted_author"])
                                  if obj.get("retweeted_author") else None),
                lang=obj.get("lang"),
            )
        except CorpusError as exc:
            raise CorpusError(f"{path.name}: line {lineno}: {exc}") from None
        timelines.setdefault(author, []).append(rec)
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

    likes: list[tuple[str, str, str]] = []
    for lineno, obj in _iter_jsonl(paths.likes):
        likes.append((
            str(_require(obj, "user_id", paths.likes, lineno)),
            str(_require(obj, "seed_id", paths.likes, lineno)),
            str(_require(obj, "liked_tweet_id", paths.likes, lineno)),
        ))

    follows: list[tuple[str, str]] = []
    for lineno, obj in _iter_jsonl(paths.follows):
        follows.append((
            str(_require(obj, "follower_id", paths.follows, lineno)),
            str(_require(obj, "followee_id", paths.follows, lineno)),
        ))

    with open(paths.seeds, "r", encoding="utf-8") as fh:
        seeds_raw = json.load(fh)
    if not isinstance(seeds_raw, list):
        raise CorpusError(f"{paths.seeds.name}: expected a JSON array")
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


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Report-only consistency check; the corpus is never modified.

    Dangling references are warnings rather than errors because real
    archives are partial.
    """
    report = ValidationReport()
    users = corpus.users
    seeds = set(corpus.seeds)
    for user_id, seed_id, liked_tweet_id in corpus.likes:
        if user_id not in users or seed_id not in seeds:
            report.dangling_likes.append((user_id, seed_id, liked_tweet_id))
    for follower, followee in corpus.follows:
        if follower not in users or (followee not in users
                                     and followee not in seeds):
            report.dangling_follows.append((follower, followee))
    for timeline in corpus.timelines.values():
        for tweet in timeline:
            if tweet.kind == "retweet" and tweet.retweeted_author is None:
                report.retweets_missing_author.append(tweet.tweet_id)
    for user_id in users:
        if not corpus.timelines.get(user_id):
            report.empty_timelines.append(user_id)
    report.retweets_missing_author.sort()
    report.empty_timelines.sort()
    return report


def _user_to_json(u: UserRecord) -> dict:
    return {
        "user_id": u.user_id,
        "created_at": format_timestamp(u.created_at),
        "followers_count": u.followers_count,
        "following_count": u.following_count,
        "tweet_count": u.tweet_count,
        "listed_count": u.listed_count,
        "verified": u.verified,
        "has_default_pic": u.has_default_pic,
        "bio": u.bio,
        "predominant_language": u.predominant_language,
        "snapshot_at": format_timestamp(u.snapshot_at),
    }


def _tweet_to_json(t: TweetRecord) -> dict:
    obj = {
        "tweet_id": t.tweet_id,
        "author_id": t.author_id,
        "created_at": format_timestamp(t.created_at),
        "kind": t.kind,
        "text": t.text,
        "hashtags": list(t.hashtags),
        "urls": list(t.urls),
        "mentions": list(t.mentions),
        "retweeted_author": t.retweeted_author,
    }
    if t.lang is not None:
        obj["lang"] = t.lang
    return obj


def save_corpus(corpus: Corpus, paths: CorpusPaths) -> None:
    """Write a corpus back to disk in the load schema (round-trip safe)."""
    for p in (paths.users, paths.tweets, paths.likes, paths.follows,
              paths.seeds):
        Path(p).parent.mkdir(parents=True, exist_ok=True)
    with open(paths.users, "w", encoding="utf-8") as fh:
        for uid in sorted(corpus.users):
            fh.write(json.dumps(_user_to_json(corpus.users[uid]),
                                sort_keys=True) + "\n")
    with open(paths.tweets, "w", encoding="utf-8") as fh:
        for uid in sorted(corpus.timelines):
            for tweet in corpus.timelines[uid]:
                fh.write(json.dumps(_tweet_to_json(tweet),
                                    sort_keys=True) + "\n")
    with open(paths.likes, "w", encoding="utf-8") as fh:
        for user_id, seed_id, liked_tweet_id in corpus.likes:
            fh.write(json.dumps({"user_id": user_id, "seed_id": seed_id,
                                 "liked_tweet_id": liked_tweet_id},
                                sort_keys=True) + "\n")
    with open(paths.follows, "w", encoding="utf-8") as fh:
        for follower, followee in corpus.follows:
            fh.write(json.dumps({"follower_id": follower,
                                 "followee_id": followee},
                                sort_keys=True) + "\n")
    with open(paths.seeds, "w", encoding="utf-8") as fh:
        json.dump(corpus.seeds, fh)
        fh.write("\n")
