"""Synthetic corpus generator with parameterized group behavior profiles.

Two user groups are planted: an engaged group whose like/follow pattern on
the seed accounts clears the cohort filters, and a background group that
never touches the seeds. Group-level behavioral contrasts (bio presence
and length, bio URLs, reply rate, original-content rate, posting tempo,
vocabulary breadth, catchphrase reuse) are configurable, and a single
separation knob interpolates the engaged profile toward the background one
for leakage checks. Within each group, users draw their own latent rates
around the group values, so no single feature separates the groups
perfectly. Generation is per-user independent off derived RNG streams; a
fixed seed yields a byte-identical corpus.
"""

from __future__ import annotations

import dataclasses
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .corpus import (CorpusPaths, TweetRecord, UserRecord, parse_timestamp,
                     write_corpus)


class SynthError(ValueError):
    pass


_CONSONANTS = "bcdfglmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def _pseudo_word(i: int) -> str:
    return _SYLLABLES[i // len(_SYLLABLES)] + _SYLLABLES[i % len(_SYLLABLES)]


BASE_VOCAB = [_pseudo_word(i) for i in range(1500)]

HEATED_WORDS = ("furious", "outraged", "corrupt", "liars", "betrayal",
                "rage", "disgusting", "evil", "scandal", "fraud")
CALM_WORDS = ("grateful", "lovely", "hopeful", "cheerful", "wonderful",
              "peaceful", "thankful", "bright", "friendly", "delight")
CATCHPHRASES = ("stay alert friends", "look closer always",
                "they never tell us", "read between lines",
                "truth finds a way")
TAG_POOL = ("worldnews", "energy", "crypto", "health", "climate",
            "elections", "markets", "science", "music", "sports",
            "travel", "gaming", "space", "finance", "weather", "food")
DOMAIN_POOL = ("example.com", "news.example.org", "stream.example.net",
               "blog.example.io", "docs.example.co", "link.example.site",
               "wiki.example.edu", "shop.example.biz", "mail.example.me",
               "photo.example.tv")
AUTHOR_POOL = tuple(f"acct{i:03d}" for i in range(400))

SNAPSHOT_AT = "2022-06-13T00:00:00Z"


@dataclass(frozen=True)
class ProfileSpec:
    """Group-level distribution parameters for one user group."""

    language: str = "en"
    creation_start: str = "2015-01-01T00:00:00Z"
    creation_end: str = "2021-12-31T00:00:00Z"
    # profile
    p_no_bio: float = 0.02
    bio_len_mean: float = 110.0
    bio_len_std: float = 45.0
    bio_urls_mean: float = 0.3
    bio_hashtag_p: float = 0.2
    # activity mix; the leftover share is original posts
    reply_share: float = 0.21
    retweet_share: float = 0.42
    quote_share: float = 0.18
    # tempo and volume
    gap_mean_seconds: float = 5400.0
    tweets_min: int = 80
    tweets_max: int = 180
    # text
    vocab_size: int = 900
    words_per_tweet_mean: float = 14.0
    words_per_tweet_std: float = 4.0
    catchphrase_p: float = 0.05
    hashtag_p: float = 0.35
    multi_tag_p: float = 0.30
    url_p: float = 0.30
    retweet_url_p: float = 0.15
    mood_p: float = 0.20
    heated_share: float = 0.30
    tag_decay: float = 0.95
    # engagement with seed accounts
    like_total_range: tuple[int, int] = (0, 0)
    like_seeds_range: tuple[int, int] = (0, 0)
    follow_seeds_range: tuple[int, int] = (0, 0)
    weak_engager_fraction: float = 0.0

    def __post_init__(self):
        shares = self.reply_share + self.retweet_share + self.quote_share
        if min(self.reply_share, self.retweet_share, self.quote_share) < 0 \
                or shares > 1.0 + 1e-9:
            raise SynthError(
                f"infeasible spec: kind shares sum to {shares:.3f}")
        for name in ("p_no_bio", "catchphrase_p", "hashtag_p", "multi_tag_p",
                     "url_p", "retweet_url_p", "mood_p", "heated_share",
                     "weak_engager_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SynthError(f"infeasible spec: {name}={v} not in [0,1]")
        if self.gap_mean_seconds <= 0:
            raise SynthError("infeasible spec: gap_mean_seconds must be > 0")
        if not 1 <= self.tweets_min <= self.tweets_max:
            raise SynthError("infeasible spec: bad tweets range")
        if not 1 <= self.vocab_size <= len(BASE_VOCAB):
            raise SynthError("infeasible spec: bad vocab_size")
        for name in ("like_total_range", "like_seeds_range",
                     "follow_seeds_range"):
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi:
                raise SynthError(f"infeasible spec: bad {name}")


_INTERPOLATED_FIELDS = (
    "p_no_bio", "bio_len_mean", "bio_len_std", "bio_urls_mean",
    "bio_hashtag_p", "reply_share", "retweet_share", "quote_share",
    "gap_mean_seconds", "words_per_tweet_mean", "words_per_tweet_std",
    "catchphrase_p", "hashtag_p", "multi_tag_p", "url_p", "retweet_url_p",
    "mood_p", "heated_share", "tag_decay",
)


def default_control_spec() -> ProfileSpec:
    return ProfileSpec()


def default_engaged_spec() -> ProfileSpec:
    return dataclasses.replace(
        default_control_spec(),
        p_no_bio=0.45, bio_len_mean=55.0, bio_len_std=30.0,
        bio_urls_mean=1.2, bio_hashtag_p=0.35,
        reply_share=0.35, retweet_share=0.38, quote_share=0.15,
        gap_mean_seconds=1800.0,
        vocab_size=400, words_per_tweet_mean=11.0, words_per_tweet_std=6.0,
        catchphrase_p=0.30, hashtag_p=0.45, multi_tag_p=0.45,
        url_p=0.45, retweet_url_p=0.25, mood_p=0.35, heated_share=0.80,
        tag_decay=0.70,
        like_total_range=(25, 60), like_seeds_range=(4, 7),
        follow_seeds_range=(1, 3), weak_engager_fraction=0.03,
    )


def default_specs(separation: float = 1.0) -> tuple[ProfileSpec, ProfileSpec]:
    """(engaged, control) pair; separation in [0, 1] scales every behavioral
    contrast, with 0 making the two groups distributionally identical
    (engagement with the seed accounts is kept so cohort selection still
    works)."""
    if not 0.0 <= separation <= 1.0:
        raise SynthError("separation must be in [0, 1]")
    control = default_control_spec()
    engaged = default_engaged_spec()
    updates = {}
    for name in _INTERPOLATED_FIELDS:
        lo = getattr(control, name)
        hi = getattr(engaged, name)
        updates[name] = lo + separation * (hi - lo)
    vs = (control.vocab_size
          + separation * (engaged.vocab_size - control.vocab_size))
    updates["vocab_size"] = int(round(vs))
    return dataclasses.replace(engaged, **updates), control


def _zipf_cum_weights(n: int) -> list[float]:
    out, acc = [], 0.0
    for i in range(n):
        acc += 1.0 / (i + 1)
        out.append(acc)
    return out


# Each builder takes a prefix: a sequential sum's prefix has the same bits.
_ZIPF_CUM = _zipf_cum_weights(len(BASE_VOCAB))


def _decay_cum_weights(n: int, decay: float) -> list[float]:
    out, acc = [], 0.0
    for i in range(n):
        acc += decay ** i
        out.append(acc)
    return out


class _UserBuilder:
    """Draws one user's latent rates around the group profile, then emits
    the profile record, timeline and seed engagement."""

    # within-group latent spread; identical for both groups so it never
    # separates them
    SHARE_SD = 0.06
    RATE_SD = 0.10
    TEMPO_LOG_SD = 0.8
    WORDS_LOG_SD = 0.25
    VOCAB_LOG_SD = 0.30

    def __init__(self, spec: ProfileSpec, user_id: str, rng: random.Random,
                 seeds: list[str], peer_ids: list[str]):
        self.spec = spec
        self.user_id = user_id
        self.rng = rng
        self.seeds = seeds
        self.peer_ids = peer_ids
        self.snapshot_at = parse_timestamp(SNAPSHOT_AT)

        def rate(p: float, sd: float) -> float:
            return min(1.0, max(0.0, rng.gauss(p, sd)))

        reply = rate(spec.reply_share, self.SHARE_SD)
        retweet = rate(spec.retweet_share, self.SHARE_SD)
        quote = rate(spec.quote_share, self.SHARE_SD)
        total = reply + retweet + quote
        if total > 0.96:
            reply, retweet, quote = (s * 0.96 / total
                                     for s in (reply, retweet, quote))
        self.kind_cum = (reply, reply + retweet, reply + retweet + quote)
        self.gap_mean = spec.gap_mean_seconds * rng.lognormvariate(
            0.0, self.TEMPO_LOG_SD)
        self.words_mean = spec.words_per_tweet_mean * rng.lognormvariate(
            0.0, self.WORDS_LOG_SD)
        vocab_n = int(round(spec.vocab_size
                            * rng.lognormvariate(0.0, self.VOCAB_LOG_SD)))
        vocab_n = min(max(vocab_n, 50), len(BASE_VOCAB))
        self.vocab = BASE_VOCAB[:vocab_n]
        self.vocab_cum = _ZIPF_CUM[:vocab_n]
        self.vocab_total = self.vocab_cum[-1] + 0.0
        self.catchphrase_p = rate(spec.catchphrase_p, self.RATE_SD)
        self.hashtag_p = rate(spec.hashtag_p, self.RATE_SD)
        self.url_p = rate(spec.url_p, self.RATE_SD)
        self.retweet_url_p = rate(spec.retweet_url_p, self.RATE_SD)
        self.mood_p = rate(spec.mood_p, self.RATE_SD)
        self.heated_share = rate(spec.heated_share, self.RATE_SD)
        self.tag_cum = _decay_cum_weights(len(TAG_POOL), spec.tag_decay)
        self.tag_total = self.tag_cum[-1] + 0.0
        self.is_weak = rng.random() < spec.weak_engager_fraction

    def _pick_kind(self) -> str:
        x = self.rng.random()
        if x < self.kind_cum[0]:
            return "reply"
        if x < self.kind_cum[1]:
            return "retweet"
        if x < self.kind_cum[2]:
            return "quote"
        return "original"

    # The one-item weighted draws below are ``rng.choices(pop,
    # cum_weights=cw, k=1)[0]`` written out as ``Random.choices`` computes
    # it (CPython 3.11 Lib/random.py, lines 507 and 514): ``total =
    # cum_weights[-1] + 0.0``, then ``population[bisect(cum_weights,
    # random() * total, 0, n - 1)]``. They take the same one random() call
    # and return the same item, so the stream and every corpus byte stay the
    # same; test_synth.py checks both against ``choices``.

    def _vocab_word(self) -> str:
        return self.vocab[bisect_right(
            self.vocab_cum, self.rng.random() * self.vocab_total, 0,
            len(self.vocab) - 1)]

    def _words(self, n: int) -> list[str]:
        random, choice = self.rng.random, self.rng.choice
        mood_p, heated_share = self.mood_p, self.heated_share
        vocab, cum, total = self.vocab, self.vocab_cum, self.vocab_total
        hi = len(vocab) - 1
        out = []
        append = out.append
        for _ in range(n):
            if random() < mood_p:
                append(choice(HEATED_WORDS if random() < heated_share
                              else CALM_WORDS))
            else:
                append(vocab[bisect_right(cum, random() * total, 0, hi)])
        return out

    def _body(self) -> str:
        rng = self.rng
        if rng.random() < self.catchphrase_p:
            return rng.choice(CATCHPHRASES)
        n = max(1, int(rng.gauss(self.words_mean,
                                 self.spec.words_per_tweet_std)))
        return " ".join(self._words(n))

    def _tags(self) -> list[str]:
        rng = self.rng
        if rng.random() >= self.hashtag_p:
            return []
        k = 1
        while k < 3 and rng.random() < self.spec.multi_tag_p:
            k += 1
        tags: list[str] = []
        while len(tags) < k:
            tag = TAG_POOL[bisect_right(self.tag_cum,
                                        rng.random() * self.tag_total, 0,
                                        len(TAG_POOL) - 1)]
            if tag not in tags:
                tags.append(tag)
        return tags

    def _url(self, n: int) -> str:
        domain = self.rng.choice(DOMAIN_POOL)
        return f"https://{domain}/p/{n}"

    def build_user(self) -> UserRecord:
        rng, spec = self.rng, self.spec
        start = parse_timestamp(spec.creation_start)
        end = parse_timestamp(spec.creation_end)
        created = rng.randrange(start, end + 1, 86400)
        bio = None
        if rng.random() >= spec.p_no_bio:
            target = max(5, int(rng.gauss(spec.bio_len_mean,
                                          spec.bio_len_std)))
            parts: list[str] = []
            while sum(len(p) + 1 for p in parts) < target:
                parts.append(self._vocab_word())
            n_urls = min(3, int(rng.expovariate(1.0) * spec.bio_urls_mean
                                + rng.random() * spec.bio_urls_mean))
            for k in range(n_urls):
                parts.append(self._url(k))
            if rng.random() < spec.bio_hashtag_p:
                parts.append("#" + rng.choice(TAG_POOL))
            bio = " ".join(parts) + "."
        return UserRecord(
            user_id=self.user_id, created_at=created,
            followers_count=int(rng.lognormvariate(5.5, 1.2)),
            following_count=int(rng.lognormvariate(5.8, 1.0)),
            tweet_count=int(rng.uniform(1.5, 8.0)
                            * ((spec.tweets_min + spec.tweets_max) / 2)),
            listed_count=int(rng.lognormvariate(0.5, 1.0)),
            verified=rng.random() < 0.02,
            has_default_pic=rng.random() < 0.05,
            bio=bio, predominant_language=spec.language,
            snapshot_at=self.snapshot_at)

    def build_timeline(self) -> list[TweetRecord]:
        rng, spec = self.rng, self.spec
        n = rng.randint(spec.tweets_min, spec.tweets_max)
        kinds = [self._pick_kind() for _ in range(n)]

        end = self.snapshot_at - rng.randint(3600, 3 * 86400)
        stamps = []
        t = end
        for _ in range(n):
            stamps.append(t)
            t -= int(rng.expovariate(1.0 / self.gap_mean)) + 1
        stamps.reverse()

        rt_authors = rng.sample(AUTHOR_POOL, rng.randint(3, 10))
        tweets = []
        for i, (kind, ts) in enumerate(zip(kinds, stamps)):
            body = self._body()
            tags = self._tags()
            mentions: list[str] = []
            urls: list[str] = []
            retweeted_author = None
            url_p = self.retweet_url_p if kind == "retweet" else self.url_p
            if rng.random() < url_p:
                urls.append(self._url(i))
            if kind == "retweet":
                retweeted_author = rng.choice(rt_authors)
                mentions.append(retweeted_author)
                text = f"rt @{retweeted_author}: {body}"
            elif kind == "reply":
                target = rng.choice(AUTHOR_POOL)
                mentions.append(target)
                text = f"@{target} {body}"
            else:
                text = body
            if tags:
                text += " " + " ".join("#" + t for t in tags)
            if urls:
                text += " " + urls[0]
            tweets.append(TweetRecord(
                tweet_id=f"{self.user_id}_t{i:05d}", author_id=self.user_id,
                created_at=ts, kind=kind, text=text,
                hashtags=tuple(tags), urls=tuple(urls),
                mentions=tuple(mentions), retweeted_author=retweeted_author))
        return tweets

    def build_engagement(self) -> tuple[list[tuple[str, str, str]],
                                        list[tuple[str, str]]]:
        rng, spec = self.rng, self.spec
        likes: list[tuple[str, str, str]] = []
        follows: list[tuple[str, str]] = []
        lo_s, hi_s = spec.like_seeds_range
        lo_l, hi_l = spec.like_total_range
        if hi_s == 0 or hi_l == 0:
            if self.peer_ids and rng.random() < 0.4:
                for peer in rng.sample(self.peer_ids,
                                       min(2, len(self.peer_ids))):
                    if peer != self.user_id:
                        follows.append((self.user_id, peer))
            return likes, follows
        if lo_s > len(self.seeds):
            raise SynthError("like_seeds_range exceeds the seed count")
        if self.is_weak:
            n_seeds = rng.randint(1, min(2, len(self.seeds)))
            total = rng.randint(1, 5)
            follow_n = rng.randint(0, 1)
        else:
            n_seeds = rng.randint(lo_s, min(hi_s, len(self.seeds)))
            total = rng.randint(lo_l, hi_l)
            follow_n = rng.randint(max(spec.follow_seeds_range[0], 1),
                                   max(spec.follow_seeds_range[1], 1))
        liked = rng.sample(self.seeds, n_seeds)
        base, rem = divmod(total, n_seeds)
        for j, seed in enumerate(liked):
            count = base + (1 if j < rem else 0)
            for c in range(count):
                likes.append((self.user_id, seed, f"{seed}_post{c:04d}"))
        for seed in rng.sample(liked, min(follow_n, len(liked))):
            follows.append((self.user_id, seed))
        return likes, follows


def _records(engaged: ProfileSpec, control: ProfileSpec, n_per_group: int,
             n_seeds: int, rng_seed: int):
    """A synthetic corpus as records: users, timelines, likes, follows and
    seeds, with the ground-truth labels."""
    if n_per_group < 2:
        raise SynthError("n_per_group must be >= 2")
    if n_seeds < 1:
        raise SynthError("n_seeds must be >= 1")
    seeds = [f"seed{i:02d}" for i in range(n_seeds)]
    users: dict[str, UserRecord] = {}
    timelines: dict[str, list[TweetRecord]] = {}
    likes: list[tuple[str, str, str]] = []
    follows: list[tuple[str, str]] = []
    truth: dict[str, int] = {}
    control_ids = [f"r{i:05d}" for i in range(n_per_group)]
    for group, spec, label in (("c", engaged, 1), ("r", control, 0)):
        for i in range(n_per_group):
            user_id = f"{group}{i:05d}"
            rng = random.Random(f"{rng_seed}:{group}:{i}")
            builder = _UserBuilder(spec, user_id, rng, seeds,
                                   peer_ids=control_ids if group == "r" else [])
            users[user_id] = builder.build_user()
            timelines[user_id] = builder.build_timeline()
            user_likes, user_follows = builder.build_engagement()
            likes.extend(user_likes)
            follows.extend(user_follows)
            truth[user_id] = label
    return users, timelines, likes, follows, seeds, truth


def generate_corpus(engaged: ProfileSpec, control: ProfileSpec,
                    n_per_group: int, n_seeds: int, rng_seed: int,
                    out_dir) -> CorpusPaths:
    """Write a synthetic corpus plus ground_truth.json to a directory,
    straight from the generator's records."""
    users, timelines, likes, follows, seeds, truth = _records(
        engaged, control, n_per_group, n_seeds, rng_seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = CorpusPaths.in_dir(out_dir)
    write_corpus(paths, users, chain.from_iterable(
        timelines[uid] for uid in sorted(timelines)), likes, follows, seeds)
    with open(out_dir / "ground_truth.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(truth, sort_keys=True))
        fh.write("\n")
    return paths
