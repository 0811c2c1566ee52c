import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from traitline.features import FeatureMatrix
from traitline.gbdt import ModelError, TrainConfig
from traitline.model import (baseline_majority, baseline_random,
                             cross_validate, evaluate, evaluate_model,
                             f1_growth_curve, feature_report,
                             importance_ranking, impute,
                             smallest_k_with_split_columns, stratified_kfold,
                             stratified_split, train_on_matrix)


def matrix_of(values, labels, columns=None, user_ids=None):
    values = np.array(values, dtype=np.float64)
    columns = columns or [f"f{i}" for i in range(values.shape[1])]
    user_ids = user_ids or [f"u{i}" for i in range(values.shape[0])]
    return FeatureMatrix(columns=columns, user_ids=user_ids,
                         labels=np.array(labels, dtype=np.int64),
                         values=values)


# the split that the protocol tests draw
TEST_FRACTION, SPLIT_SEED = 0.25, 11


def small_cfg(**kwargs):
    base = dict(n_trees=20, max_depth=3, learning_rate=0.3,
                min_samples_leaf=2)
    base.update(kwargs)
    return TrainConfig(**base)


def labeled_noise_matrix(n_per_class=40, n_features=3, seed=0,
                         separate_col=None):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(2 * n_per_class, n_features))
    labels = np.array([1] * n_per_class + [0] * n_per_class)
    if separate_col is not None:
        values[:, separate_col] = labels * 10.0 + rng.normal(
            scale=0.1, size=2 * n_per_class)
    return matrix_of(values, labels)


# ---- imputation -----------------------------------------------------------------

def test_impute_numeric_mean():
    m = matrix_of([[1.0], [math.nan], [3.0]], [1, 0, 1])
    out = impute(m)
    assert out.values[1, 0] == 2.0


def test_impute_binary_mode():
    m = matrix_of([[1.0], [1.0], [math.nan]], [1, 0, 1])
    out = impute(m)
    assert out.values[2, 0] == 1.0


def test_impute_binary_tie_prefers_smaller():
    m = matrix_of([[0.0], [1.0], [math.nan]], [1, 0, 1])
    assert impute(m).values[2, 0] == 0.0


def test_impute_test_rows_use_train_statistics():
    train = matrix_of([[2.0], [4.0], [math.nan]], [1, 0, 1])
    test = matrix_of([[math.nan], [100.0]], [1, 0])
    train_out, test_out = impute(train, test)
    assert train_out.values[2, 0] == 3.0
    assert test_out.values[0, 0] == 3.0  # train mean, not pooled


def test_impute_rejects_test_with_other_columns():
    train = matrix_of([[1.0, 2.0]], [1], columns=["a", "b"])
    test = matrix_of([[1.0, 2.0]], [1], columns=["b", "a"])
    with pytest.raises(ModelError, match="different columns"):
        impute(train, test)


def test_impute_fully_missing_column_rejected():
    m = matrix_of([[math.nan, 1.0], [math.nan, 2.0]], [1, 0],
                  columns=["void", "ok"])
    with pytest.raises(ModelError, match="void"):
        impute(m)


def test_imputer_statistics_ignore_test_partition():
    train = matrix_of([[2.0], [4.0]], [1, 0])
    poisoned = matrix_of([[1e9], [math.nan]], [1, 0])
    _, out = impute(train, poisoned)
    assert out.values[1, 0] == 3.0


# ---- splits ---------------------------------------------------------------------

def test_stratified_split_small_balanced():
    m = labeled_noise_matrix(n_per_class=10)
    train, test = stratified_split(m, 0.2, rng_seed=1)
    assert test.n_rows == 4
    assert int(test.labels.sum()) == 2
    assert train.n_rows == 16
    assert set(train.user_ids).isdisjoint(test.user_ids)


def test_stratified_split_published_row_counts():
    # 14,788 balanced rows at 20% -> 2958 test (1479 per class), 11,830 train
    n = 7394
    m = matrix_of(np.zeros((2 * n, 1)), [1] * n + [0] * n)
    train, test = stratified_split(m, 0.20, rng_seed=0)
    assert test.n_rows == 2958
    assert int(test.labels.sum()) == 1479
    assert train.n_rows == 11830


def test_stratified_split_deterministic():
    m = labeled_noise_matrix()
    a = stratified_split(m, 0.25, rng_seed=5)
    b = stratified_split(m, 0.25, rng_seed=5)
    assert a[0].user_ids == b[0].user_ids
    assert a[1].user_ids == b[1].user_ids
    c = stratified_split(m, 0.25, rng_seed=6)
    assert a[1].user_ids != c[1].user_ids


def test_stratified_split_rejects_tiny_class():
    m = matrix_of([[0.0], [1.0], [2.0]], [1, 0, 0])
    with pytest.raises(ModelError, match="fewer than 2"):
        stratified_split(m, 0.5, rng_seed=0)


@pytest.mark.parametrize("test_fraction", [0.0, 1.0, 1.5])
def test_stratified_split_rejects_fraction_outside_unit_interval(
        test_fraction):
    m = labeled_noise_matrix(n_per_class=10)
    with pytest.raises(ModelError, match=r"^test_fraction must be in \(0, 1\)$"):
        stratified_split(m, test_fraction, rng_seed=0)


def test_stratified_kfold_balanced_folds():
    m = labeled_noise_matrix(n_per_class=10)
    folds = stratified_kfold(m, 10, rng_seed=2)
    assert len(folds) == 10
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test.tolist()) == list(range(20))
    for train_idx, test_idx in folds:
        assert len(test_idx) == 2
        assert m.labels[test_idx].sum() == 1
        assert set(train_idx).isdisjoint(test_idx)
    again = stratified_kfold(m, 10, rng_seed=2)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(folds, again))


def test_stratified_kfold_rejects_small_class():
    m = labeled_noise_matrix(n_per_class=4)
    with pytest.raises(ModelError, match="fewer than k"):
        stratified_kfold(m, 5, rng_seed=0)


def test_stratified_kfold_rejects_single_fold():
    m = labeled_noise_matrix(n_per_class=10)
    with pytest.raises(ModelError, match="^k must be >= 2$"):
        stratified_kfold(m, 1, rng_seed=0)


# ---- metrics and baselines --------------------------------------------------------

def test_evaluate_all_positive_on_balanced():
    truth = np.array([1] * 10 + [0] * 10)
    m = evaluate(np.ones(20, dtype=int), truth)
    assert m["precision"] == 0.5
    assert m["recall"] == 1.0
    assert m["f1"] == pytest.approx(2 / 3, abs=1e-12)
    assert m["confusion"] == {"tp": 10, "fp": 10, "tn": 0, "fn": 0}


def test_evaluate_perfect():
    truth = np.array([1, 0, 1, 0])
    m = evaluate(truth.copy(), truth)
    assert (m["precision"], m["recall"], m["f1"]) == (1.0, 1.0, 1.0)


def test_evaluate_no_positive_predictions():
    m = evaluate(np.zeros(4, dtype=int), np.array([1, 1, 0, 0]))
    assert (m["precision"], m["recall"], m["f1"]) == (0.0, 0.0, 0.0)


def test_evaluate_empty_rejected():
    with pytest.raises(ModelError, match="empty"):
        evaluate(np.array([]), np.array([]))


def test_majority_baseline_balanced_train_predicts_positive():
    train = labeled_noise_matrix(n_per_class=10)
    test = labeled_noise_matrix(n_per_class=5, seed=1)
    m = baseline_majority(train, test)
    assert m["precision"] == 0.5
    assert m["recall"] == 1.0
    assert m["f1"] == pytest.approx(2 / 3, abs=1e-12)


def test_majority_baseline_follows_train_majority():
    train = matrix_of(np.zeros((10, 1)), [0] * 7 + [1] * 3)
    test = matrix_of(np.zeros((4, 1)), [1, 1, 0, 0])
    m = baseline_majority(train, test)
    assert (m["confusion"]["tp"], m["confusion"]["fp"]) == (0, 0)
    assert m["f1"] == 0.0


def test_random_baseline_near_half():
    test = labeled_noise_matrix(n_per_class=500, seed=3)
    f1s = [baseline_random(test, seed)["f1"] for seed in range(10)]
    assert abs(sum(f1s) / len(f1s) - 0.5) < 0.05


# ---- training protocol ---------------------------------------------------------------

def test_separating_feature_dominates_importance():
    m = labeled_noise_matrix(n_per_class=40, n_features=4, separate_col=1)
    train, test = stratified_split(m, 0.25, rng_seed=3)
    ensemble = train_on_matrix(impute(train), small_cfg())
    report = feature_report(ensemble)
    assert report[0][0] == "f1"
    assert report[0][1] > 0.5
    assert sum(share for _, share in report) == pytest.approx(1.0, abs=1e-9)
    assert evaluate_model(ensemble, impute(train, test)[1])["f1"] == 1.0


def test_feature_report_requires_splits():
    m = labeled_noise_matrix()
    ensemble = train_on_matrix(m, small_cfg(n_trees=1, min_samples_leaf=100))
    with pytest.raises(ModelError, match="no splits"):
        feature_report(ensemble)


def test_growth_curve_final_point_equals_full_model():
    m = labeled_noise_matrix(n_per_class=30, n_features=4, separate_col=2)
    cfg = small_cfg()
    train, test = stratified_split(m, TEST_FRACTION, SPLIT_SEED)
    train, test = impute(train, test)
    ensemble = train_on_matrix(train, cfg)
    full_f1 = evaluate_model(ensemble, test)["f1"]
    ranking = importance_ranking(ensemble)
    curve = f1_growth_curve(train, test, ranking, cfg, ks=[1, 2, 4])
    assert curve[-1] == (4, full_f1)
    assert all(0.0 <= f1 <= 1.0 for _, f1 in curve)


def test_growth_curve_pool_matches_serial():
    m = labeled_noise_matrix(n_per_class=30, n_features=4, separate_col=2)
    cfg = small_cfg()
    ranking = importance_ranking(train_on_matrix(impute(m), cfg))
    ks = [2, 1, 4, 2]  # unsorted, with a repeat: results stay in ks order
    train, test = impute(*stratified_split(m, TEST_FRACTION, SPLIT_SEED))
    serial = f1_growth_curve(train, test, ranking, cfg, ks=ks, workers=1)
    assert [k for k, _ in serial] == ks
    assert f1_growth_curve(train, test, ranking, cfg, ks=ks,
                           workers=2) == serial


def resplit_curve_point(matrix, ranking, cfg, k):
    """Reference curve point: re-split and re-impute the top-k column
    slice of the raw matrix."""
    top = set(ranking[:k])
    sub = matrix.select_columns([c for c in matrix.columns if c in top])
    train, test = impute(*stratified_split(sub, TEST_FRACTION, SPLIT_SEED))
    return evaluate_model(train_on_matrix(train, cfg), test)["f1"]


@pytest.mark.parametrize("workers", [1, 2])
def test_growth_curve_equals_per_point_resplit(workers):
    rng = np.random.default_rng(5)
    n = 60
    labels = np.array([1] * (n // 2) + [0] * (n // 2))
    values = np.column_stack([
        rng.normal(size=n),                                  # mean-filled
        np.where(rng.random(n) < 0.8, labels, 1 - labels),   # mode-filled
        labels * 2.0 + rng.normal(scale=0.8, size=n),        # mean-filled
        rng.integers(0, 2, size=n),                          # mode-filled
        rng.normal(size=n),
    ]).astype(np.float64)
    values[rng.random(values.shape) < 0.2] = np.nan
    m = matrix_of(values, labels)
    assert np.isnan(m.values).any(axis=0).all()
    cfg = small_cfg()
    train, test = impute(*stratified_split(m, TEST_FRACTION, SPLIT_SEED))
    # binary columns stay binary after imputation: they were mode-filled
    assert set(np.unique(train.values[:, [1, 3]])) == {0.0, 1.0}
    ranking = importance_ranking(train_on_matrix(train, cfg))
    ks = [1, 2, 3, 4, 5]
    curve = f1_growth_curve(train, test, ranking, cfg, ks=ks, workers=workers)
    assert curve == [(k, resplit_curve_point(m, ranking, cfg, k)) for k in ks]
    assert len({f1 for _, f1 in curve}) > 1


def split_columns(trees) -> set[int]:
    found, stack = set(), list(trees)
    while stack:
        node = stack.pop()
        if "feature" in node:
            found.add(node["feature"])
            stack += [node["left"], node["right"]]
    return found


def renumbered(node, kept):
    """A copy of ``node`` with column j of a refit read as ``kept[j]``."""
    if "value" in node:
        return node
    return {**node, "feature": kept[node["feature"]],
            "left": renumbered(node["left"], kept),
            "right": renumbered(node["right"], kept)}


@st.composite
def refit_cases(draw):
    n = draw(st.integers(6, 30))
    n_features = draw(st.integers(2, 6))
    # few distinct values, so gains tie within and across columns
    levels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    values = draw(st.lists(st.lists(st.sampled_from(levels),
                                    min_size=n_features, max_size=n_features),
                           min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n - 2,
                           max_size=n - 2)) + [0, 1]
    cfg = small_cfg(n_trees=draw(st.integers(1, 4)),
                    max_depth=draw(st.integers(1, 3)),
                    min_samples_leaf=draw(st.integers(1, 4)))
    # dropped columns may be copies of kept ones: their gains tie exactly
    for j in range(n_features):
        source = draw(st.none() | st.integers(0, n_features - 1))
        if source is not None:
            for row in values:
                row[j] = row[source]
    return matrix_of(values, labels), cfg, draw(st.randoms())


@settings(max_examples=150, deadline=None)
@given(refit_cases())
def test_refit_holding_every_split_column_is_the_model(case):
    m, cfg, rnd = case
    full = train_on_matrix(m, cfg)
    used = split_columns(full.trees)
    assume(used)  # a model without splits has no ranking
    ranking = importance_ranking(full)
    least = smallest_k_with_split_columns(full, ranking)
    assert {ranking.index(m.columns[j]) for j in used} <= set(range(least))
    assert m.columns.index(ranking[least - 1]) in used
    # any superset of the split columns, kept in matrix order
    unused = [j for j in range(len(m.columns)) if j not in used]
    kept = sorted(used | set(rnd.sample(unused, rnd.randint(0, len(unused)))))
    refit = train_on_matrix(m.select_columns([m.columns[j] for j in kept]),
                            cfg)
    # json.dumps writes floats by repr, so equal text means equal bits
    assert (json.dumps([renumbered(t, kept) for t in refit.trees])
            == json.dumps(full.trees))
    assert json.dumps(refit.loss_history) == json.dumps(full.loss_history)
    assert (refit.feature_importance.tobytes()
            == full.feature_importance[kept].tobytes())
    assert evaluate_model(refit, m.select_columns(
        [m.columns[j] for j in kept])) == evaluate_model(full, m)


def test_growth_curve_requires_full_ranking():
    m = labeled_noise_matrix(n_features=3)
    with pytest.raises(ModelError, match="does not cover"):
        f1_growth_curve(m, m, ["f0", "f1"], small_cfg(), ks=[1])
    with pytest.raises(ModelError, match="out of range"):
        f1_growth_curve(m, m, ["f0", "f1", "f2"], small_cfg(), ks=[9])


def test_cross_validate_returns_fold_metrics():
    m = labeled_noise_matrix(n_per_class=20, separate_col=0)
    results = cross_validate(m, small_cfg(), 4, SPLIT_SEED)
    assert len(results) == 4
    assert all(r["f1"] == 1.0 for r in results)


def test_cross_validate_pool_matches_serial():
    m = labeled_noise_matrix(n_per_class=20, n_features=4, seed=3)
    serial = cross_validate(m, small_cfg(), 4, SPLIT_SEED, workers=1)
    assert len({r["f1"] for r in serial}) > 1
    assert cross_validate(m, small_cfg(), 4, SPLIT_SEED, workers=2) == serial
