"""Per-user behavioral feature extraction from profile metadata and timelines.

92 columns in a fixed order, split across three trait groups:

* credibility (17): profile metadata scalars and binaries;
* initiative (19): activity-mix ratios plus the distribution summaries of
  per-tweet unique-word counts and of consecutive-pair token entropy;
* adaptability (56): distribution summaries of language novelty,
  inter-post gaps (overall / retweets / mention posts), per-author retweet
  counts, per-domain URL counts, and per-tweet word and character counts.

Missing values (empty sub-streams, empty timelines) are NaN in the matrix
and empty cells in the CSV; imputation happens at training time.
"""

from __future__ import annotations

import csv
import math
import re
import unicodedata
from collections import Counter
from concurrent import futures
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np

from .corpus import Corpus, TweetRecord
from .statkit import PARAM_NAMES, dist_params
# unused here, but perfbench/tracing.py wraps it by this name
from .statkit import entropy_from_counts  # noqa: F401

TOKENIZER_VERSION = "1"

URL_TOKEN = "⟨url⟩"
MENTION_TOKEN = "⟨mention⟩"
PLACEHOLDER_TOKENS = frozenset((URL_TOKEN, MENTION_TOKEN))

# URLs and mentions; a match is a mention exactly when it starts with "@"
_SPECIAL_RE = re.compile(r"https?://\S+|www\.\S+|@\w+", re.IGNORECASE)
_WORD_RE = re.compile(r"[^\W_]+")
# the same matches on lowercased ASCII text; with no case to fold and
# [^\W_] spelled out as a class they run faster
_ASCII_SPECIAL_RE = re.compile(r"https?://\S+|www\.\S+|@\w+")
_ASCII_WORD_RE = re.compile(r"[a-z0-9]+")
_HASHTAG_RE = re.compile(r"#\w+")
_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")

SECONDS_PER_DAY = 86400.0


class FeatureError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercased token list; URLs and @mentions become placeholder tokens.

    Text is NFC-normalized, then split on runs of non-alphanumeric
    characters (underscores separate too). Empty tokens are dropped.

    ASCII text is NFC already, and lowercasing it maps each character to
    one of the same class, so it is lowercased whole before the split.
    Other text is lowercased token by token: lowercasing first could change
    the split ("İ" lowercases to "i" and a combining dot).
    """
    if not text:
        return []
    ascii_text = text.isascii()
    if ascii_text:
        text = text.lower()
        special_re, word_re = _ASCII_SPECIAL_RE, _ASCII_WORD_RE
    else:
        text = unicodedata.normalize("NFC", text)
        special_re, word_re = _SPECIAL_RE, _WORD_RE
    tokens: list[str] = []
    pos = 0
    for match in special_re.finditer(text):
        words = word_re.findall(text, pos, match.start())
        tokens += words if ascii_text else map(str.lower, words)
        tokens.append(MENTION_TOKEN if text[match.start()] == "@"
                      else URL_TOKEN)
        pos = match.end()
    words = word_re.findall(text, pos)
    tokens += words if ascii_text else map(str.lower, words)
    return tokens


def registered_domain(url: str) -> str | None:
    """Hostname with a leading "www." stripped; None when unparseable."""
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return None
    if not host:
        return None
    if host.startswith("www."):
        host = host[4:]
    return host or None


class TokenizedTweet(NamedTuple):
    tokens: tuple[str, ...]
    is_reply: bool
    is_retweet: bool
    has_url: bool
    has_mention: bool
    timestamp: int
    urls: tuple[str, ...]
    n_chars: int
    retweeted_author: str | None


def tokenize_tweet(tweet: TweetRecord) -> TokenizedTweet:
    tokens = tuple(tokenize(tweet.text))
    return TokenizedTweet(
        tokens=tokens,
        is_reply=tweet.kind == "reply",
        is_retweet=tweet.kind == "retweet",
        has_url=bool(tweet.urls) or URL_TOKEN in tokens,
        has_mention=bool(tweet.mentions) or MENTION_TOKEN in tokens,
        timestamp=tweet.created_at,
        urls=tuple(tweet.urls),
        n_chars=len(tweet.text),
        retweeted_author=tweet.retweeted_author,
    )


def tokenize_timeline(timeline: list[TweetRecord]) -> list[TokenizedTweet]:
    return [tokenize_tweet(t) for t in timeline]


def _dist_cols(base: str) -> list[str]:
    return [f"{base}_{p}" for p in PARAM_NAMES]


CREDIBILITY_COLUMNS = [
    "following_count", "followers_count", "followers_ratio",
    "account_age_days", "followers_age_ratio", "following_age_ratio",
    "tweets_age_ratio", "verified", "has_bio", "has_default_pic",
    "has_url_in_bio", "urls_count_bio", "hashtags_count_bio",
    "listed_count", "bio_sentences", "bio_tokens", "bio_chars",
]

INITIATIVE_RATIO_COLUMNS = [
    "retweet_ratio", "reply_ratio", "tweet_url_ratio",
    "retweet_url_ratio", "reply_url_ratio",
]
INITIATIVE_COLUMNS = (INITIATIVE_RATIO_COLUMNS
                      + _dist_cols("unique_words") + _dist_cols("pair_entropy"))

ADAPTABILITY_BLOCKS = [
    "language_novelty", "time_between_tweets", "time_between_retweets",
    "time_between_mentions", "retweeted_accounts", "url_domains",
    "tweet_words", "tweet_chars",
]
ADAPTABILITY_COLUMNS = [c for b in ADAPTABILITY_BLOCKS for c in _dist_cols(b)]

FEATURE_COLUMNS = CREDIBILITY_COLUMNS + INITIATIVE_COLUMNS + ADAPTABILITY_COLUMNS
assert len(FEATURE_COLUMNS) == 92

TRAIT_GROUPS = {
    "credibility": list(CREDIBILITY_COLUMNS),
    "initiative": list(INITIATIVE_COLUMNS),
    "adaptability": list(ADAPTABILITY_COLUMNS),
}


def credibility_features(user, as_of: int) -> dict[str, float]:
    """Profile-metadata columns as of ``as_of`` (UTC epoch seconds).

    followers_ratio divides by the squared follower count with a guard of
    1 for accounts without followers; age-ratio denominators are floored
    at one day.
    """
    if as_of < user.created_at:
        raise FeatureError(
            f"snapshot predates creation of user {user.user_id}")
    age_days = (as_of - user.created_at) / SECONDS_PER_DAY
    age_den = max(age_days, 1.0)
    bio = user.bio or ""
    has_bio = 1.0 if bio.strip() else 0.0
    out = {
        "following_count": float(user.following_count),
        "followers_count": float(user.followers_count),
        "followers_ratio": user.following_count / max(user.followers_count, 1) ** 2,
        "account_age_days": age_days,
        "followers_age_ratio": user.followers_count / age_den,
        "following_age_ratio": user.following_count / age_den,
        "tweets_age_ratio": user.tweet_count / age_den,
        "verified": 1.0 if user.verified else 0.0,
        "has_bio": has_bio,
        "has_default_pic": 1.0 if user.has_default_pic else 0.0,
        "listed_count": float(user.listed_count),
    }
    if has_bio:
        out["has_url_in_bio"] = 1.0 if _URL_RE.search(bio) else 0.0
        out["urls_count_bio"] = float(len(_URL_RE.findall(bio)))
        out["hashtags_count_bio"] = float(len(_HASHTAG_RE.findall(bio)))
        out["bio_sentences"] = float(sum(
            1 for s in _SENTENCE_SPLIT_RE.split(bio) if s.strip()))
        out["bio_tokens"] = float(len(tokenize(bio)))
        out["bio_chars"] = float(len(bio))
    else:
        for col in ("has_url_in_bio", "urls_count_bio", "hashtags_count_bio",
                    "bio_sentences", "bio_tokens", "bio_chars"):
            out[col] = 0.0
    return out


def _dist_values(base: str, sample: list[float]) -> dict[str, float]:
    if not sample:
        return {c: math.nan for c in _dist_cols(base)}
    return dict(zip(_dist_cols(base), dist_params(sample)))


def pair_entropies(timeline: list[TokenizedTweet]) -> list[float]:
    """For each adjacent pair of posts that carries tokens, in timeline
    order, the entropy (bits) of the token-frequency distribution of the two
    posts taken together, from one numpy pass over all the pairs' counts.

    Each term p * log2(p) is computed elementwise and each pair's terms are
    summed over their own slice, in ``Counter`` order, so every entropy has
    the bits ``entropy_from_counts`` gives on the pair's ``Counter``.
    """
    counts: list[int] = []
    totals: list[int] = []
    bounds = [0]
    for a, b in zip(timeline, timeline[1:]):
        pair = Counter(a.tokens + b.tokens)
        if pair:
            counts.extend(pair.values())
            totals.extend([len(a.tokens) + len(b.tokens)] * len(pair))
            bounds.append(len(counts))
    if not totals:
        return []
    p = np.array(counts, dtype=np.float64) / np.array(totals,
                                                      dtype=np.float64)
    terms = p * np.log2(p)
    return [float(-terms[i:j].sum()) for i, j in zip(bounds, bounds[1:])]


def initiative_features(timeline: list[TokenizedTweet]) -> dict[str, float]:
    """Activity-mix ratios and the two initiative distributions.

    Every ratio shares the same denominator: the total number of timeline
    items, so the four kind shares partition to exactly 1.
    """
    if not timeline:
        return {c: math.nan for c in INITIATIVE_COLUMNS}
    n = len(timeline)
    out = {
        "retweet_ratio": sum(t.is_retweet for t in timeline) / n,
        "reply_ratio": sum(t.is_reply for t in timeline) / n,
        "tweet_url_ratio": sum(t.has_url for t in timeline) / n,
        "retweet_url_ratio": sum(t.is_retweet and t.has_url for t in timeline) / n,
        "reply_url_ratio": sum(t.is_reply and t.has_url for t in timeline) / n,
    }
    unique_words = [float(len(set(t.tokens))) for t in timeline]
    out.update(_dist_values("unique_words", unique_words))
    out.update(_dist_values("pair_entropy", pair_entropies(timeline)))
    return out


def language_novelty_series(timeline: list[TokenizedTweet]) -> list[float]:
    """Per-post percentage of token types unseen in all earlier posts.

    The first post carrying tokens scores 100; token-free posts are
    skipped (they introduce no types).
    """
    seen: set[str] = set()
    series = []
    for tweet in timeline:
        types = set(tweet.tokens)
        if not types:
            continue
        series.append(100.0 * len(types - seen) / len(types))
        seen |= types
    return series


def _gaps(timestamps: list[int]) -> list[float]:
    return [float(b - a) for a, b in zip(timestamps, timestamps[1:])]


def adaptability_features(timeline: list[TokenizedTweet]) -> dict[str, float]:
    """Temporal and lexical adaptability distributions.

    The timeline must be chronological; sub-streams too small to form a
    sample yield NaN for their seven parameters.
    """
    out: dict[str, float] = {}
    out.update(_dist_values("language_novelty",
                            language_novelty_series(timeline)))
    out.update(_dist_values("time_between_tweets",
                            _gaps([t.timestamp for t in timeline])))
    out.update(_dist_values("time_between_retweets",
                            _gaps([t.timestamp for t in timeline
                                   if t.is_retweet])))
    out.update(_dist_values("time_between_mentions",
                            _gaps([t.timestamp for t in timeline
                                   if t.has_mention])))
    rt_counts = Counter(t.retweeted_author for t in timeline
                        if t.is_retweet and t.retweeted_author)
    out.update(_dist_values("retweeted_accounts",
                            [float(c) for _, c in sorted(rt_counts.items())]))
    domain_counts: Counter[str] = Counter()
    for tweet in timeline:
        for url in tweet.urls:
            domain = registered_domain(url)
            if domain:
                domain_counts[domain] += 1
    out.update(_dist_values("url_domains",
                            [float(c) for _, c in sorted(domain_counts.items())]))
    out.update(_dist_values("tweet_words",
                            [float(len(t.tokens)) for t in timeline]))
    out.update(_dist_values("tweet_chars",
                            [float(t.n_chars) for t in timeline]))
    return out


def user_features(corpus: Corpus, user_id: str, as_of: int,
                  lexicons=()) -> dict[str, float]:
    """All 92 behavioral columns for one user, then the rate columns of
    each lexicon, all from one tokenization of the timeline."""
    user = corpus.users[user_id]
    timeline = tokenize_timeline(corpus.timeline(user_id))
    feats = credibility_features(user, as_of)
    feats.update(initiative_features(timeline))
    feats.update(adaptability_features(timeline))
    if lexicons:
        # imported here because lexicon imports this module; the attribute
        # is looked up on each call, so a wrapper set on it takes effect
        from . import lexicon
        feats.update(lexicon.lexicon_features(timeline, lexicons))
    return feats


def check_unique_columns(columns) -> None:
    seen: set[str] = set()
    for name in columns:
        if name in seen:
            raise FeatureError(f"duplicate column name: {name}")
        seen.add(name)


def parse_keyed_row(row: list[str], header: list[str], key: int, numeric,
                    seen: set[str], where: str,
                    error: type[ValueError] = FeatureError) -> list[float]:
    """The numeric cells of one CSV data row keyed by user_id.

    The row must have one cell per ``header`` name, and its user_id (the
    cell at index ``key``) must not be in ``seen``; it is added there. Each
    cell at an index in ``numeric`` must be empty (a missing cell, NaN) or
    a finite number. A fault raises ``error`` prefixed with ``where``.
    """
    if len(row) != len(header):
        raise error(f"{where}: expected {len(header)} cells, got {len(row)}")
    user_id = row[key]
    if user_id in seen:
        raise error(f"{where}: repeated user_id {user_id}")
    seen.add(user_id)
    values = []
    for i in numeric:
        v = row[i]
        if not v:
            values.append(math.nan)
            continue
        try:
            value = float(v)
        except ValueError:
            raise error(f"{where}: column {header[i]}: non-numeric value "
                        f"{v!r}") from None
        if not math.isfinite(value):
            raise error(f"{where}: column {header[i]}: non-finite value "
                        f"{v!r}")
        values.append(value)
    return values


@dataclass
class FeatureMatrix:
    """Labeled rows of named numeric columns; NaN marks a missing cell."""

    columns: list[str]
    user_ids: list[str]
    labels: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        check_unique_columns(self.columns)
        if self.values.shape != (len(self.user_ids), len(self.columns)):
            raise FeatureError("matrix shape does not match row/column names")
        if len(self.labels) != len(self.user_ids):
            raise FeatureError("label count does not match row count")

    @property
    def n_rows(self) -> int:
        return len(self.user_ids)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise FeatureError(f"unknown column {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def select_columns(self, names) -> "FeatureMatrix":
        idx = [self.column_index(n) for n in names]
        return FeatureMatrix(columns=list(names), user_ids=list(self.user_ids),
                             labels=self.labels.copy(),
                             values=self.values[:, idx].copy())

    def select_rows(self, idx) -> "FeatureMatrix":
        idx = np.asarray(idx)
        return FeatureMatrix(columns=list(self.columns),
                             user_ids=[self.user_ids[i] for i in idx],
                             labels=self.labels[idx].copy(),
                             values=self.values[idx].copy())

    def append_columns(self, names: list[str],
                       values: np.ndarray) -> "FeatureMatrix":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_rows, len(names)):
            raise FeatureError("appended block shape mismatch")
        return FeatureMatrix(columns=self.columns + list(names),
                             user_ids=list(self.user_ids),
                             labels=self.labels.copy(),
                             values=np.hstack([self.values, values]))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns + ["user_id", "label"])
            for i in range(self.n_rows):
                row = [("" if math.isnan(v) else repr(float(v)))
                       for v in self.values[i]]
                writer.writerow(row + [self.user_ids[i], int(self.labels[i])])

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        """Read a ``to_csv`` file; a malformed header or row raises
        FeatureError naming the file and line."""
        name = Path(path).name
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise FeatureError(f"{name}: line 1: empty file, expected a "
                                   f"header ending with user_id,label")
            if header[-2:] != ["user_id", "label"]:
                raise FeatureError(f"{name}: line 1: header must end with "
                                   f"user_id,label")
            columns = header[:-2]
            try:
                check_unique_columns(columns)
            except FeatureError as exc:
                raise FeatureError(f"{name}: line 1: {exc}") from None
            numeric = range(len(columns))
            user_ids, labels, rows = [], [], []
            seen: set[str] = set()
            for row in reader:
                where = f"{name}: line {reader.line_num}"
                rows.append(parse_keyed_row(row, header, len(columns),
                                            numeric, seen, where))
                if row[-1] not in ("0", "1"):
                    raise FeatureError(f"{where}: label must be 0 or 1, "
                                       f"got {row[-1]!r}")
                user_ids.append(row[-2])
                labels.append(int(row[-1]))
        return cls(columns=columns, user_ids=user_ids,
                   labels=np.array(labels, dtype=np.int64),
                   values=np.array(rows, dtype=np.float64).reshape(
                       len(user_ids), len(columns)))


_task = None  # set by the initializer, in pool workers only


def _set_task(fn) -> None:
    global _task
    _task = fn


def _run_task(item):
    return _task(item)


def parallel_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, in a process pool when ``workers > 1``.

    ``fn`` reaches each worker once, as the pool initializer's argument:
    under fork it and all it closes over are inherited, not pickled.
    """
    items = list(items)
    if workers <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    with futures.ProcessPoolExecutor(max_workers=min(workers, len(items)),
                                     initializer=_set_task,
                                     initargs=(fn,)) as pool:
        return list(pool.map(_run_task, items,
                             chunksize=max(1, len(items) // (workers * 4))))


def _row(corpus: Corpus, as_of: int, lexicons, columns: list[str],
         user_id: str) -> list[float]:
    feats = user_features(corpus, user_id, as_of, lexicons)
    return [feats[c] for c in columns]


def feature_matrix(corpus: Corpus, conspiracy: set[str], control: set[str],
                   as_of: int, workers: int = 1,
                   lexicons=()) -> FeatureMatrix:
    """One labeled row per cohort user (engaged=1 first, control=0 after).

    Columns are the 92 behavioral ones, then each lexicon's rate columns
    in the order given. Extraction is per-user independent; the result is
    identical for every worker count. A user without a profile record
    raises FeatureError naming the user.
    """
    overlap = conspiracy & control
    if overlap:
        raise FeatureError(f"cohorts overlap: {sorted(overlap)[:3]}")
    ids = sorted(conspiracy) + sorted(control)
    for user_id in ids:
        if user_id not in corpus.users:
            raise FeatureError(f"user {user_id} has no profile record")
    columns = FEATURE_COLUMNS + [c for lex in lexicons
                                 for c in lex.column_names()]
    check_unique_columns(columns)
    rows = parallel_map(partial(_row, corpus, as_of, lexicons, columns),
                        ids, workers)
    values = (np.array(rows, dtype=np.float64)
              if rows else np.empty((0, len(columns))))
    return FeatureMatrix(columns=columns, user_ids=ids,
                         labels=np.array([1] * len(conspiracy)
                                         + [0] * len(control),
                                         dtype=np.int64),
                         values=values)


def default_snapshot(corpus: Corpus) -> int:
    """Latest profile snapshot instant in the corpus (UTC epoch seconds)."""
    if not corpus.users:
        raise FeatureError("corpus has no users")
    return max(u.snapshot_at for u in corpus.users.values())
