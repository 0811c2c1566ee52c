"""Engaged-cohort selection over the like matrix, and matched-control construction.

A user qualifies for the engaged cohort by (a) following at least one seed
account, (b) spreading their likes evenly across the seeds they like
(coefficient of variation over liked seeds at or below a cap), and (c)
clearing minimum-total-likes / minimum-distinct-seeds thresholds. The
control group is drawn from non-engaged users matched on language and
account-creation period.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .corpus import Corpus
from .statkit import coefficient_of_variation

DEFAULT_L_AXIS = (1, 5, 10, 15, 20, 25, 30, 35)
DEFAULT_S_AXIS = (1, 2, 3, 4, 5, 6, 7)
# prefer="balanced" takes cells within this fraction below the target size
BELOW_SLACK = 0.3


class CohortError(ValueError):
    pass


@dataclass
class LikeMatrix:
    """Sparse users x seeds like-count matrix.

    rows[user_id][seed_id] = number of likes by user on that seed's posts.
    Users with no likes on any seed have no row. Seed order follows the
    seed list of the corpus.
    """

    seeds: list[str]
    rows: dict[str, dict[str, int]]

    def row_total(self, user_id: str) -> int:
        return sum(self.rows[user_id].values())

    def distinct_seeds(self, user_id: str) -> int:
        return len(self.rows[user_id])

    def restrict(self, user_ids) -> "LikeMatrix":
        keep = set(user_ids)
        return LikeMatrix(seeds=list(self.seeds),
                          rows={u: dict(cells) for u, cells in self.rows.items()
                                if u in keep})


@dataclass
class GridTable:
    """Cumulative user counts over (min total likes, min distinct seeds)."""

    l_axis: tuple[int, ...]
    s_axis: tuple[int, ...]
    entries: dict[tuple[int, int], int]

    def check_monotone(self) -> None:
        for si, s in enumerate(self.s_axis):
            for li, l in enumerate(self.l_axis):
                if li > 0 and self.entries[(l, s)] > self.entries[(self.l_axis[li - 1], s)]:
                    raise CohortError("grid not monotone along likes axis")
                if si > 0 and self.entries[(l, s)] > self.entries[(l, self.s_axis[si - 1])]:
                    raise CohortError("grid not monotone along seeds axis")


@dataclass
class ControlConstraints:
    target_language: str
    creation_bucket: str = "quarter"  # quarter | month | year
    excluded_users: set = field(default_factory=set)
    excluded_follow_targets: set = field(default_factory=set)

    def __post_init__(self):
        if self.creation_bucket not in ("quarter", "month", "year"):
            raise CohortError(
                f"unknown creation bucket {self.creation_bucket!r}")


def build_like_matrix(corpus: Corpus) -> LikeMatrix:
    """Count likes per (user, seed); likes on non-seed accounts are ignored."""
    if not corpus.seeds:
        raise CohortError("corpus has an empty seed list")
    seed_set = set(corpus.seeds)
    rows: dict[str, dict[str, int]] = {}
    for user_id, seed_id, _liked_tweet in corpus.likes:
        if seed_id not in seed_set:
            continue
        cells = rows.setdefault(user_id, {})
        cells[seed_id] = cells.get(seed_id, 0) + 1
    return LikeMatrix(seeds=list(corpus.seeds), rows=rows)


def filter_follows_seed(matrix: LikeMatrix, corpus: Corpus) -> LikeMatrix:
    """Keep only users following at least one seed account."""
    seed_set = set(matrix.seeds)
    followers = {follower for follower, followee in corpus.follows
                 if followee in seed_set}
    return matrix.restrict(u for u in matrix.rows if u in followers)


def filter_cov(matrix: LikeMatrix, max_cov: float = 1.0) -> LikeMatrix:
    """Keep users whose like counts over their liked seeds have Cov <= max_cov.

    The Cov is taken over nonzero cells only: it measures how evenly a
    user spreads interest across the seeds they actually engage with. A
    single liked seed passes trivially (Cov = 0).
    """
    keep = []
    for user_id, cells in matrix.rows.items():
        counts = list(cells.values())
        if len(counts) <= 1:
            keep.append(user_id)
        elif coefficient_of_variation(counts) <= max_cov:
            keep.append(user_id)
    return matrix.restrict(keep)


def threshold_grid(matrix: LikeMatrix,
                   l_axis=DEFAULT_L_AXIS,
                   s_axis=DEFAULT_S_AXIS) -> GridTable:
    """Count users clearing every (total likes >= l, distinct seeds >= s) pair."""
    l_axis = tuple(l_axis)
    s_axis = tuple(s_axis)
    if not l_axis or not s_axis:
        raise CohortError("grid axes must be nonempty")
    if list(l_axis) != sorted(l_axis) or list(s_axis) != sorted(s_axis):
        raise CohortError("grid axes must be ascending")
    totals = [(matrix.row_total(u), matrix.distinct_seeds(u))
              for u in matrix.rows]
    entries = {}
    for l in l_axis:
        for s in s_axis:
            entries[(l, s)] = sum(1 for total, distinct in totals
                                  if total >= l and distinct >= s)
    grid = GridTable(l_axis=l_axis, s_axis=s_axis, entries=entries)
    grid.check_monotone()
    return grid


def select_cohort(matrix: LikeMatrix, l_min: int, s_min: int) -> set[str]:
    """Users with row total >= l_min over at least s_min distinct seeds."""
    if l_min < 1 or s_min < 1:
        raise CohortError("thresholds must be >= 1")
    return {u for u in matrix.rows
            if matrix.row_total(u) >= l_min
            and matrix.distinct_seeds(u) >= s_min}


def auto_thresholds(grid: GridTable, target: int,
                    prefer: str = "nearest") -> tuple[int, int]:
    """Pick (l_min, s_min) from a grid so the cohort size lands near target.

    prefer="nearest" minimizes |count - target|, breaking ties toward the
    larger s_min and then the larger l_min. prefer="balanced" restricts to
    cells at or below target but within ``BELOW_SLACK`` of it and picks the
    cell maximizing l_min * s_min, trading intensity against diversity;
    it falls back to "nearest" when no cell qualifies.
    """
    if not grid.entries:
        raise CohortError("empty grid")
    cells = [(l, s, grid.entries[(l, s)])
             for l in grid.l_axis for s in grid.s_axis]
    if prefer == "balanced":
        floor = target * (1.0 - BELOW_SLACK)
        window = [(l, s, c) for l, s, c in cells if floor <= c <= target]
        if window:
            best = max(window, key=lambda cell: (cell[0] * cell[1], cell[1],
                                                 cell[0]))
            return best[0], best[1]
    elif prefer != "nearest":
        raise CohortError(f"unknown threshold preference {prefer!r}")
    best = min(cells, key=lambda cell: (abs(cell[2] - target), -cell[1],
                                        -cell[0]))
    return best[0], best[1]


def top_hashtags(corpus: Corpus, cohort: set[str],
                 k: int) -> list[tuple[str, int]]:
    """Hashtags ranked by the number of cohort tweets containing them."""
    if k < 1:
        raise CohortError("k must be >= 1")
    counts: Counter[str] = Counter()
    for user_id in cohort:
        for tweet in corpus.timeline(user_id):
            counts.update(tweet.hashtags)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def creation_bucket(epoch: int, bucket: str = "quarter") -> tuple[int, int]:
    dt = datetime.fromtimestamp(epoch, tz=timezone.utc)
    if bucket == "quarter":
        return dt.year, (dt.month - 1) // 3 + 1
    if bucket == "month":
        return dt.year, dt.month
    if bucket == "year":
        return dt.year, 0
    raise CohortError(f"unknown creation bucket {bucket!r}")


def seed_likers(corpus: Corpus) -> set[str]:
    """All users with at least one like on any seed account."""
    seed_set = set(corpus.seeds)
    return {user_id for user_id, seed_id, _ in corpus.likes
            if seed_id in seed_set}


def eligible_controls(corpus: Corpus, conspiracy: set[str],
                      constraints: ControlConstraints) -> list[str]:
    """Corpus users that may join the control group, sorted.

    Eligibility: not in the engaged cohort, not in the excluded (seed-liking)
    set, not following any excluded target, and posting predominantly in the
    target language.
    """
    seed_set = set(constraints.excluded_follow_targets)
    followers_of_excluded = {follower for follower, followee in corpus.follows
                             if followee in seed_set}

    eligible = []
    for user_id in sorted(corpus.users):
        if user_id in conspiracy or user_id in constraints.excluded_users:
            continue
        if user_id in followers_of_excluded:
            continue
        if corpus.predominant_language(user_id) != constraints.target_language:
            continue
        eligible.append(user_id)
    return eligible


def build_control(corpus: Corpus, conspiracy: set[str], eligible: list[str],
                  n: int, constraints: ControlConstraints,
                  rng_seed: int) -> set[str]:
    """Draw n control users matched to the engaged cohort.

    Controls come from ``eligible``, the sorted list ``eligible_controls``
    returns for the same cohort and constraints. The account-creation
    histogram of the result matches a size-n sample of the engaged cohort
    bucket for bucket (greedy fill); when a bucket runs out of candidates
    the remainder spills into the nearest buckets by creation time.
    """
    rng = random.Random(rng_seed)
    if n > len(eligible):
        raise CohortError(
            f"need {n} control users but only {len(eligible)} are eligible")

    # target histogram from a size-n sample of the engaged cohort
    conspiracy_sorted = sorted(conspiracy & set(corpus.users))
    if n > len(conspiracy_sorted):
        raise CohortError(
            f"cannot match {n} controls against {len(conspiracy_sorted)} engaged users")
    sample = (conspiracy_sorted if n == len(conspiracy_sorted)
              else rng.sample(conspiracy_sorted, n))
    bucket = constraints.creation_bucket
    need = Counter(creation_bucket(corpus.users[u].created_at, bucket)
                   for u in sample)

    pools: dict[tuple[int, int], list[str]] = {}
    for user_id in eligible:
        pools.setdefault(
            creation_bucket(corpus.users[user_id].created_at, bucket),
            []).append(user_id)
    for pool in pools.values():
        rng.shuffle(pool)

    chosen: list[str] = []
    shortfalls: list[tuple[tuple[int, int], int]] = []
    for b in sorted(need):
        pool = pools.get(b, [])
        take = min(need[b], len(pool))
        chosen.extend(pool[:take])
        del pool[:take]
        if take < need[b]:
            shortfalls.append((b, need[b] - take))

    # overflow: fill remaining demand from the nearest buckets in time
    def bucket_ordinal(b: tuple[int, int]) -> int:
        year, sub = b
        per_year = {"quarter": 4, "month": 12, "year": 1}[bucket]
        return year * per_year + max(sub - 1, 0)

    for b, missing in shortfalls:
        others = sorted(
            (abs(bucket_ordinal(other) - bucket_ordinal(b)), other)
            for other in pools if pools[other])
        for _, other in others:
            pool = pools[other]
            take = min(missing, len(pool))
            chosen.extend(pool[:take])
            del pool[:take]
            missing -= take
            if missing == 0:
                break
        if missing > 0:
            raise CohortError(
                f"insufficient eligible control candidates: bucket {b} "
                f"short by {missing}")
    return set(chosen)
