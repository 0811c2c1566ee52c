import random
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_monotone, make_corpus, make_tweet, make_user
from traitline.cohort import (CREATION_BUCKETS, CohortError,
                              auto_thresholds, build_control,
                              build_like_matrix, creation_bucket,
                              eligible_controls, filter_cov,
                              filter_follows_seed, select_cohort,
                              threshold_grid, top_hashtags)
from traitline.statkit import coefficient_of_variation

# Published cumulative grid used as the auto-threshold fixture: rows are
# minimum total likes 1..35, columns minimum distinct seed accounts 1..7.
PUBLISHED_GRID_ROWS = {
    1: (345936, 132828, 55064, 19966, 7618, 2462, 790),
    5: (147108, 95526, 49535, 19630, 7618, 2462, 790),
    10: (88628, 61635, 34542, 15817, 6932, 2366, 779),
    15: (61778, 44206, 25228, 12118, 5809, 2095, 726),
    20: (46220, 33507, 19265, 9413, 4807, 1812, 648),
    25: (36055, 26342, 15169, 7394, 3928, 1517, 557),
    30: (29577, 21870, 12746, 6370, 3438, 1354, 504),
    35: (24597, 18308, 10810, 5474, 3000, 1187, 447),
}


def published_grid() -> dict[tuple[int, int], int]:
    return {(l, s): PUBLISHED_GRID_ROWS[l][s - 1]
            for l in sorted(PUBLISHED_GRID_ROWS) for s in range(1, 8)}


def likes_corpus(rows, seeds, follows=()):
    """rows: {user: {seed: count}} expanded into individual like records."""
    likes = []
    for user, cells in rows.items():
        for seed, count in cells.items():
            for i in range(count):
                likes.append((user, seed, f"{seed}_p{i}"))
    users = [make_user(u) for u in rows]
    return make_corpus(users=users, likes=likes, follows=follows, seeds=seeds)


def random_matrix(rng, n_users=200, n_seeds=6, density=0.5):
    """A random like matrix and the seed list it is over."""
    seeds = [f"s{i}" for i in range(n_seeds)]
    rows = {}
    for i in range(n_users):
        cells = {s: rng.randint(1, 12) for s in seeds
                 if rng.random() < density}
        if cells:
            rows[f"u{i:04d}"] = cells
    return rows, seeds


# ---- like matrix -----------------------------------------------------------

def test_like_matrix_counts_repeat_likes():
    corpus = likes_corpus({"u1": {"sA": 2}}, seeds=["sA", "sB"])
    matrix = build_like_matrix(corpus)
    assert matrix == {"u1": {"sA": 2}}


def test_like_on_non_seed_ignored():
    corpus = likes_corpus({"u1": {"sA": 1}}, seeds=["sA"])
    corpus.likes.append(("u1", "not_a_seed", "p"))
    matrix = build_like_matrix(corpus)
    assert matrix == {"u1": {"sA": 1}}


def test_empty_seed_list_rejected():
    corpus = likes_corpus({"u1": {"sA": 1}}, seeds=[])
    with pytest.raises(CohortError, match="empty seed list"):
        build_like_matrix(corpus)


def test_row_sums_match_like_totals():
    rows = {"u1": {"sA": 3, "sB": 1}, "u2": {"sB": 5}, "u3": {"sA": 2}}
    corpus = likes_corpus(rows, seeds=["sA", "sB"])
    matrix = build_like_matrix(corpus)
    totals = Counter(u for u, s, _ in corpus.likes)
    for user in rows:
        assert sum(matrix[user].values()) == totals[user]


# ---- filters ---------------------------------------------------------------

def test_follow_filter_drops_non_followers():
    corpus = likes_corpus({"liker": {"sA": 3}, "follower": {"sA": 3}},
                          seeds=["sA"],
                          follows=[("follower", "sA")])
    matrix = filter_follows_seed(build_like_matrix(corpus), corpus)
    assert set(matrix) == {"follower"}


def test_follow_of_non_seed_does_not_count():
    corpus = likes_corpus({"u1": {"sA": 3}}, seeds=["sA"],
                          follows=[("u1", "somebody_else")])
    matrix = filter_follows_seed(build_like_matrix(corpus), corpus)
    assert matrix == {}


def test_cov_filter_examples():
    matrix = {
        "even": {"a": 5, "b": 5, "c": 5},
        "spiky": {"a": 1, "b": 1, "c": 10},
        "single": {"d": 40},
    }
    kept = filter_cov(matrix, max_cov=1.0)
    assert set(kept) == {"even", "single"}


def test_filters_return_new_matrix_sharing_rows():
    matrix = {"even": {"a": 5, "b": 5}, "spiky": {"a": 1, "b": 10},
              "lurker": {"a": 2}}
    before = {u: dict(cells) for u, cells in matrix.items()}
    corpus = make_corpus(follows=[("even", "a"), ("spiky", "b")],
                         seeds=["a", "b"])
    for kept in (filter_follows_seed(matrix, corpus),
                 filter_cov(matrix, max_cov=0.5)):
        assert kept is not matrix
        assert all(kept[u] is matrix[u] for u in kept)
    assert matrix == before


def test_filters_match_brute_force_and_commute():
    rng = random.Random(13)
    for _ in range(25):
        matrix, seeds = random_matrix(rng, n_users=60, n_seeds=5)
        followers = {u for u in matrix if rng.random() < 0.6}
        corpus = make_corpus(
            users=[make_user(u) for u in matrix],
            follows=[(u, rng.choice(seeds)) for u in followers],
            seeds=seeds)

        got = filter_follows_seed(matrix, corpus)
        assert set(got) == {u for u in matrix if u in followers}

        got_cov = filter_cov(matrix, 1.0)
        want_cov = {u for u, cells in matrix.items()
                    if len(cells) == 1
                    or coefficient_of_variation(list(cells.values())) <= 1.0}
        assert set(got_cov) == want_cov

        a = filter_cov(filter_follows_seed(matrix, corpus), 1.0)
        b = filter_follows_seed(filter_cov(matrix, 1.0), corpus)
        assert a == b


@st.composite
def filter_inputs(draw):
    seeds = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    users = [f"u{i}" for i in range(draw(st.integers(1, 12)))]
    rows = draw(st.dictionaries(
        st.sampled_from(users),
        st.dictionaries(st.sampled_from(seeds), st.integers(1, 30),
                        min_size=1)))
    # follows may target seeds, other users or accounts outside the corpus
    accounts = users + seeds + ["elsewhere"]
    follows = draw(st.lists(st.tuples(st.sampled_from(accounts),
                                      st.sampled_from(accounts)),
                            max_size=20))
    return (rows, make_corpus(follows=follows, seeds=seeds),
            draw(st.floats(0.0, 3.0)))


@settings(max_examples=200, deadline=None)
@given(filter_inputs())
def test_follow_and_cov_filters_commute(data):
    matrix, corpus, max_cov = data
    assert (filter_cov(filter_follows_seed(matrix, corpus), max_cov)
            == filter_follows_seed(filter_cov(matrix, max_cov), corpus))


# ---- threshold grid and selection -------------------------------------------

def test_grid_single_user_row():
    matrix = {"u": {"a": 25, "b": 5, "c": 3, "d": 2}}
    grid = threshold_grid(matrix, l_axis=(1, 5, 10, 15, 20, 25, 30, 35),
                          s_axis=(1, 2, 3, 4, 5, 6, 7))
    # total 35 likes over 4 distinct seeds
    assert len(grid) == 8 * 7
    for (l, s), count in grid.items():
        assert count == (1 if l <= 35 and s <= 4 else 0)


def test_grid_empty_matrix_all_zero():
    grid = threshold_grid({})
    assert all(v == 0 for v in grid.values())


def test_grid_requires_ascending_axes():
    for l_axis, s_axis in (((5, 1), (1,)), ((1, 1, 5), (1,)),
                           ((1,), (2, 2))):
        with pytest.raises(CohortError, match="grid axes must be ascending"):
            threshold_grid({}, l_axis=l_axis, s_axis=s_axis)
    with pytest.raises(CohortError, match="grid axes must be nonempty"):
        threshold_grid({}, l_axis=(), s_axis=(1,))


def test_grid_rejects_axis_values_below_one():
    # a 0 on an axis could be picked by auto_thresholds, which select_cohort
    # then rejects after the corpus load
    for l_axis, s_axis in (((0, 5), (1,)), ((1,), (-1, 2))):
        with pytest.raises(CohortError, match="grid axis values must be >= 1"):
            threshold_grid({}, l_axis=l_axis, s_axis=s_axis)


def test_grid_and_select_match_brute_force():
    rng = random.Random(17)
    l_axis = (1, 5, 10, 15)
    s_axis = (1, 2, 3, 4, 5)
    for _ in range(25):
        matrix, _ = random_matrix(rng, n_users=50, n_seeds=6)
        grid = threshold_grid(matrix, l_axis, s_axis)
        assert_monotone(grid)
        assert list(grid) == [(l, s) for l in l_axis for s in s_axis]
        for l in l_axis:
            for s in s_axis:
                brute = {u for u, cells in matrix.items()
                         if sum(cells.values()) >= l and len(cells) >= s}
                assert grid[(l, s)] == len(brute)
                assert select_cohort(matrix, l, s) == brute


def test_select_cohort_trivial_thresholds():
    rng = random.Random(19)
    matrix, _ = random_matrix(rng)
    assert select_cohort(matrix, 1, 1) == set(matrix)
    with pytest.raises(CohortError):
        select_cohort(matrix, 0, 1)


def test_select_cohort_nesting():
    rng = random.Random(23)
    matrix, _ = random_matrix(rng)
    assert select_cohort(matrix, 10, 3) <= select_cohort(matrix, 5, 2)
    assert select_cohort(matrix, 8, 4) <= select_cohort(matrix, 8, 1)


# ---- auto thresholds --------------------------------------------------------

def test_auto_thresholds_exact_cell():
    grid = {(1, 1): 100, (1, 2): 40, (5, 1): 60, (5, 2): 20}
    assert auto_thresholds(grid, 60) == (5, 1)


def test_auto_thresholds_tie_prefers_diversity():
    # cells at distance 10 from target 50: (1,1)=60 and (5,2)=40
    grid = {(1, 1): 60, (1, 2): 40, (5, 1): 60, (5, 2): 40}
    assert auto_thresholds(grid, 50) == (5, 2)


def test_auto_thresholds_published_grid():
    grid = published_grid()
    assert_monotone(grid)
    # plain nearest-count rule
    assert auto_thresholds(grid, 10_000) == (20, 4)
    # closest-below-with-diversity preference reproduces the documented
    # (25, 4) choice with 7394 users
    l, s = auto_thresholds(grid, 10_000, prefer="balanced")
    assert (l, s) == (25, 4)
    assert grid[(l, s)] == 7394


def test_auto_thresholds_unknown_preference():
    with pytest.raises(CohortError):
        auto_thresholds(published_grid(), 10, prefer="bogus")


# ---- top hashtags -----------------------------------------------------------

def test_top_hashtags_ranking():
    corpus = make_corpus(
        users=[make_user("u1")],
        timelines={"u1": [
            make_tweet("t1", "u1", 1, hashtags=("a", "b")),
            make_tweet("t2", "u1", 2, hashtags=("a",)),
            make_tweet("t3", "u1", 3, hashtags=("a",)),
        ]},
        seeds=["s"])
    assert top_hashtags(corpus, {"u1"}, 2) == [("a", 3), ("b", 1)]
    assert top_hashtags(corpus, {"u1"}, 10) == [("a", 3), ("b", 1)]


def test_top_hashtags_tie_is_lexicographic():
    corpus = make_corpus(
        users=[make_user("u1")],
        timelines={"u1": [make_tweet("t1", "u1", 1, hashtags=("zeta", "ape"))]},
        seeds=["s"])
    assert top_hashtags(corpus, {"u1"}, 2) == [("ape", 1), ("zeta", 1)]
    with pytest.raises(CohortError):
        top_hashtags(corpus, {"u1"}, 0)


# ---- control group ----------------------------------------------------------

def control_fixture():
    """5 engaged users, each liking the seed, and 15 others spread over
    known quarters."""
    quarters = ["2020-01-15T00:00:00Z", "2020-02-10T00:00:00Z",  # 2020 Q1 x2
                "2020-05-01T00:00:00Z",                          # 2020 Q2
                "2021-08-01T00:00:00Z",                          # 2021 Q3
                "2021-11-30T00:00:00Z"]                          # 2021 Q4
    users = []
    engaged = set()
    for i, created in enumerate(quarters):
        uid = f"c{i}"
        users.append(make_user(uid, created=created))
        engaged.add(uid)
    for i in range(15):
        uid = f"r{i}"
        created = quarters[i % 5]
        lang = "en" if i != 14 else "it"
        users.append(make_user(uid, created=created, lang=lang))
    corpus = make_corpus(users=users,
                         likes=[(u, "s1", "p0") for u in sorted(engaged)]
                         + [("r0", "s1", "p0")],
                         follows=[("r1", "s1")],
                         seeds=["s1"])
    return corpus, engaged


def test_build_control_matches_creation_histogram():
    corpus, engaged = control_fixture()
    eligible = eligible_controls(corpus, "en")
    assert engaged.isdisjoint(eligible)
    control = build_control(corpus, engaged, eligible, "quarter", rng_seed=3)
    assert len(control) == 5
    assert control.isdisjoint(engaged)
    assert "r0" not in control      # liked a seed post
    assert "r1" not in control      # follows a seed
    assert "r14" not in control     # wrong language
    want = Counter(creation_bucket(corpus.users[u].created_at, "quarter")
                   for u in engaged)
    got = Counter(creation_bucket(corpus.users[u].created_at, "quarter")
                  for u in control)
    assert got == want


def test_build_control_insufficient_candidates():
    corpus, engaged = control_fixture()
    short = eligible_controls(corpus, "en")[:len(engaged) - 1]
    with pytest.raises(CohortError, match="insufficient"):
        build_control(corpus, engaged, short, "quarter", rng_seed=3)


def test_build_control_overflow_to_nearest_bucket():
    users = [make_user("c0", created="2020-01-15T00:00:00Z"),
             make_user("c1", created="2020-02-15T00:00:00Z"),
             # no 2020 Q1 candidates at all; nearest available is Q2
             make_user("r0", created="2020-05-01T00:00:00Z"),
             make_user("r1", created="2020-06-01T00:00:00Z"),
             # further away in time, so never drawn before r0 and r1
             make_user("r2", created="2021-01-01T00:00:00Z")]
    corpus = make_corpus(users=users, seeds=["s1"],
                         likes=[("c0", "s1", "p0"), ("c1", "s1", "p0")])
    eligible = eligible_controls(corpus, "en")
    assert eligible == ["r0", "r1", "r2"]
    control = build_control(corpus, {"c0", "c1"}, eligible, "quarter",
                            rng_seed=1)
    assert control == {"r0", "r1"}


def test_build_control_deterministic():
    corpus, engaged = control_fixture()
    eligible = eligible_controls(corpus, "en")
    a = build_control(corpus, engaged, eligible, "month", rng_seed=9)
    b = build_control(corpus, engaged, eligible, "month", rng_seed=9)
    assert a == b


def test_creation_bucket_variants():
    epoch = make_user("x", created="2021-08-05T00:00:00Z").created_at
    assert creation_bucket(epoch, "quarter") == 2021 * 4 + 2
    assert creation_bucket(epoch, "month") == 2021 * 12 + 7
    assert creation_bucket(epoch, "year") == 2021
    with pytest.raises(CohortError):
        creation_bucket(epoch, "decade")


def eligible_oracle(corpus, language):
    seeds = set(corpus.seeds)
    touched = ({u for u, seed, _ in corpus.likes if seed in seeds}
               | {u for u, followee in corpus.follows if followee in seeds})
    return sorted(u for u, user in corpus.users.items()
                  if u not in touched and user.predominant_language == language)


def period_oracle(epoch, bucket):
    dt = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return {"quarter": (dt.year, (dt.month - 1) // 3),
            "month": (dt.year, dt.month), "year": dt.year}[bucket]


# creation months counted from January 2020: two share a quarter, two
# neighbour each other across a year boundary
MONTHS = (0, 1, 4, 11, 12, 20)


@st.composite
def control_inputs(draw):
    """A small corpus whose users span two years of creation months, with
    random seed likes and follows, and a cohort drawn from its seed likers."""
    seeds = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    users = [make_user(f"u{i:02d}",
                       created=f"{2020 + month // 12}-{month % 12 + 1:02d}-15"
                               "T00:00:00Z",
                       lang=lang)
             for i, (month, lang) in enumerate(draw(st.lists(
                 st.tuples(st.sampled_from(MONTHS),
                           st.sampled_from(["en", "en", "it"])),
                 min_size=1, max_size=40)))]
    ids = [u.user_id for u in users]
    likes = [(u, seed, "p0") for u, seed in draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(seeds)),
        max_size=12))]
    follows = draw(st.lists(st.tuples(st.sampled_from(ids),
                                      st.sampled_from(ids + seeds)),
                            max_size=12))
    likers = sorted({u for u, _, _ in likes})
    engaged = (draw(st.sets(st.sampled_from(likers), min_size=1))
               if likers else set())
    return (make_corpus(users=users, likes=likes, follows=follows,
                        seeds=seeds),
            engaged, draw(st.sampled_from(sorted(CREATION_BUCKETS))),
            draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=200, deadline=None)
@given(control_inputs())
def test_control_matching_properties(data):
    corpus, engaged, bucket, rng_seed = data
    eligible = eligible_controls(corpus, "en")
    assert eligible == eligible_oracle(corpus, "en")
    if len(eligible) < len(engaged):
        with pytest.raises(CohortError):
            build_control(corpus, engaged, eligible, bucket, rng_seed)
        return
    control = build_control(corpus, engaged, eligible, bucket, rng_seed)
    assert len(control) == len(engaged)
    assert control <= set(eligible)
    assert control.isdisjoint(engaged)
    assert control == build_control(corpus, engaged, eligible, bucket,
                                    rng_seed)

    def histogram(ids):
        return Counter(period_oracle(corpus.users[u].created_at, bucket)
                       for u in ids)

    need, pool = histogram(engaged), histogram(eligible)
    if all(pool[b] >= count for b, count in need.items()):
        assert histogram(control) == need
