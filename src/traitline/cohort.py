"""Engaged-cohort selection over the like matrix, and matched-control construction.

A user qualifies for the engaged cohort by (a) following at least one seed
account, (b) spreading their likes evenly across the seeds they like
(coefficient of variation over liked seeds at or below a cap), and (c)
clearing minimum-total-likes / minimum-distinct-seeds thresholds. The
control group is drawn from users who never liked or followed a seed,
matched on language and on the account-creation histogram of the cohort.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone

from .corpus import Corpus
from .statkit import coefficient_of_variation

DEFAULT_L_AXIS = (1, 5, 10, 15, 20, 25, 30, 35)
DEFAULT_S_AXIS = (1, 2, 3, 4, 5, 6, 7)
# auto_thresholds' rules for picking a grid cell
THRESHOLD_PREFERENCES = ("nearest", "balanced")
# prefer="balanced" takes cells within this fraction below the target size
BELOW_SLACK = 0.3
# creation periods a control is matched within, as periods per year
CREATION_BUCKETS = {"quarter": 4, "month": 12, "year": 1}


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


def build_like_matrix(corpus: Corpus) -> LikeMatrix:
    """Count likes per (user, seed). Likes on non-seed accounts are left
    out, and so are likes by users without a profile record, since control
    matching needs the profile of every cohort user."""
    if not corpus.seeds:
        raise CohortError("corpus has an empty seed list")
    seed_set, users = set(corpus.seeds), corpus.users
    rows: dict[str, dict[str, int]] = {}
    for user_id, seed_id, _liked_tweet in corpus.likes:
        if seed_id not in seed_set or user_id not in users:
            continue
        cells = rows.setdefault(user_id, {})
        cells[seed_id] = cells.get(seed_id, 0) + 1
    return LikeMatrix(seeds=list(corpus.seeds), rows=rows)


def seed_followers(corpus: Corpus) -> set[str]:
    """All users following at least one seed account."""
    seed_set = set(corpus.seeds)
    return {follower for follower, followee in corpus.follows
            if followee in seed_set}


def filter_follows_seed(matrix: LikeMatrix, corpus: Corpus) -> LikeMatrix:
    """Keep only users following at least one seed account."""
    followers = seed_followers(corpus)
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
    if prefer not in THRESHOLD_PREFERENCES:
        raise CohortError(f"unknown threshold preference {prefer!r}")
    cells = [(l, s, grid.entries[(l, s)])
             for l in grid.l_axis for s in grid.s_axis]
    if prefer == "balanced":
        floor = target * (1.0 - BELOW_SLACK)
        window = [(l, s, c) for l, s, c in cells if floor <= c <= target]
        if window:
            best = max(window, key=lambda cell: (cell[0] * cell[1], cell[1],
                                                 cell[0]))
            return best[0], best[1]
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


def creation_bucket(epoch: int, bucket: str) -> int:
    """Index of the creation period holding ``epoch``, counted from year 0
    in periods of ``bucket``; consecutive periods differ by one."""
    if bucket not in CREATION_BUCKETS:
        raise CohortError(f"unknown creation bucket {bucket!r}")
    per_year = CREATION_BUCKETS[bucket]
    dt = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return dt.year * per_year + (dt.month - 1) * per_year // 12


def seed_likers(corpus: Corpus) -> set[str]:
    """All users with at least one like on any seed account."""
    seed_set = set(corpus.seeds)
    return {user_id for user_id, seed_id, _ in corpus.likes
            if seed_id in seed_set}


def eligible_controls(corpus: Corpus, language: str) -> list[str]:
    """Corpus users that may join the control group, sorted.

    Eligibility: never liked or followed a seed, and posting predominantly
    in ``language``. Every cohort user liked a seed, so none is eligible.
    """
    excluded = seed_likers(corpus) | seed_followers(corpus)
    return [user_id for user_id in sorted(corpus.users)
            if user_id not in excluded
            and corpus.predominant_language(user_id) == language]


def build_control(corpus: Corpus, engaged: set[str], eligible: list[str],
                  bucket: str, rng_seed: int) -> set[str]:
    """Draw one control user per engaged user.

    Controls come from ``eligible``, the sorted list ``eligible_controls``
    returns. The account-creation histogram of the result matches that of
    the whole engaged cohort bucket for bucket (greedy fill); when a bucket
    runs out of candidates the remainder spills into the nearest buckets by
    creation time.
    """
    def period(user_id: str) -> int:
        return creation_bucket(corpus.users[user_id].created_at, bucket)

    rng = random.Random(rng_seed)
    need = Counter(period(u) for u in engaged)
    pools: dict[int, list[str]] = {}
    for user_id in eligible:
        pools.setdefault(period(user_id), []).append(user_id)
    for pool in pools.values():
        rng.shuffle(pool)

    chosen: list[str] = []

    def take(pool: list[str], k: int) -> int:
        """Move up to k users from the front of pool to chosen; how many."""
        k = min(k, len(pool))
        chosen.extend(pool[:k])
        del pool[:k]
        return k

    shortfalls = []
    for b in sorted(need):
        missing = need[b] - take(pools.get(b, []), need[b])
        if missing:
            shortfalls.append((b, missing))
    # overflow: fill remaining demand from the nearest buckets in time
    for b, missing in shortfalls:
        for other in sorted(pools, key=lambda p: (abs(p - b), p)):
            missing -= take(pools[other], missing)
        if missing > 0:
            raise CohortError(
                f"insufficient eligible control candidates: {len(eligible)} "
                f"for {len(engaged)} engaged users")
    return set(chosen)
