"""Classification protocol: imputation, stratified splits, evaluation,
baselines, feature importance and the F1 growth curve.

All imputation and any other statistics are fit on the training partition
only and then applied unchanged to held-out rows.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .features import FeatureMatrix, parallel_map
from .gbdt import (ModelError, TrainConfig, TreeEnsemble, predict_labels,
                   train_gbdt)


def impute(train: FeatureMatrix,
           test: FeatureMatrix | None = None):
    """Impute train (and optionally test) with values fit on train alone.

    Columns whose observed values are all in {0, 1} are treated as
    binary/categorical and filled with the training mode (ties toward the
    smaller value); every other column is filled with the training mean.
    """
    if test is not None and test.columns != train.columns:
        raise ModelError("test partition has different columns from train")
    fill = np.empty(len(train.columns), dtype=np.float64)
    for j, name in enumerate(train.columns):
        col = train.values[:, j]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise ModelError(
                f"column {name!r} has no observed values in the "
                f"training partition")
        if np.all(np.isin(observed, (0.0, 1.0))):
            values, counts = np.unique(observed, return_counts=True)
            fill[j] = values[np.argmax(counts)]  # first max = smaller value
        else:
            fill[j] = observed.mean()

    def filled(matrix: FeatureMatrix) -> FeatureMatrix:
        values = matrix.values.copy()
        nan_rows, nan_cols = np.where(np.isnan(values))
        values[nan_rows, nan_cols] = fill[nan_cols]
        return FeatureMatrix(columns=list(matrix.columns),
                             user_ids=list(matrix.user_ids),
                             labels=matrix.labels.copy(), values=values)

    if test is None:
        return filled(train)
    return filled(train), filled(test)


def _class_indices(labels: np.ndarray) -> dict[int, np.ndarray]:
    return {int(c): np.where(labels == c)[0] for c in np.unique(labels)}


def stratified_split(matrix: FeatureMatrix, test_fraction: float,
                     rng_seed: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Deterministic class-preserving train/test split."""
    if not 0.0 < test_fraction < 1.0:
        raise ModelError("test_fraction must be in (0, 1)")
    by_class = _class_indices(matrix.labels)
    if len(by_class) < 2:
        raise ModelError("both classes must be present to split")
    rng = np.random.default_rng(rng_seed)
    test_idx: list[np.ndarray] = []
    train_idx: list[np.ndarray] = []
    for label in sorted(by_class):
        idx = by_class[label]
        if idx.size < 2:
            raise ModelError(f"class {label} has fewer than 2 rows")
        n_test = int(round(idx.size * test_fraction))
        n_test = min(max(n_test, 1), idx.size - 1)
        shuffled = rng.permutation(idx)
        test_idx.append(shuffled[:n_test])
        train_idx.append(shuffled[n_test:])
    train = matrix.select_rows(np.sort(np.concatenate(train_idx)))
    test = matrix.select_rows(np.sort(np.concatenate(test_idx)))
    return train, test


def stratified_kfold(matrix: FeatureMatrix, k: int,
                     rng_seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (train_indices, test_indices) pairs; folds partition the rows."""
    if k < 2:
        raise ModelError("k must be >= 2")
    by_class = _class_indices(matrix.labels)
    rng = np.random.default_rng(rng_seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in sorted(by_class):
        idx = by_class[label]
        if idx.size < k:
            raise ModelError(f"class {label} has fewer than k={k} rows")
        shuffled = rng.permutation(idx)
        for i, row in enumerate(shuffled):
            folds[i % k].append(int(row))
    all_rows = np.arange(matrix.n_rows)
    out = []
    for fold in folds:
        test = np.sort(np.array(fold, dtype=np.int64))
        train = np.setdiff1d(all_rows, test)
        out.append((train, test))
    return out


def evaluate(predicted: np.ndarray, truth: np.ndarray) -> dict:
    """Precision/recall/F1 for the positive (engaged=1) class, as
    ``{precision, recall, f1, confusion: {tp, fp, tn, fn}}``."""
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.size == 0:
        raise ModelError("cannot evaluate empty predictions")
    if predicted.shape != truth.shape:
        raise ModelError("prediction/truth length mismatch")
    tp = int(np.sum((predicted == 1) & (truth == 1)))
    fp = int(np.sum((predicted == 1) & (truth == 0)))
    tn = int(np.sum((predicted == 0) & (truth == 0)))
    fn = int(np.sum((predicted == 0) & (truth == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {"precision": precision, "recall": recall, "f1": f1,
            "confusion": {"tp": tp, "fp": fp, "tn": tn, "fn": fn}}


def baseline_majority(train: FeatureMatrix, test: FeatureMatrix) -> dict:
    """Constant predictor of the most frequent training label (tie -> 1)."""
    n_pos = int(np.sum(train.labels == 1))
    n_neg = int(np.sum(train.labels == 0))
    label = 1 if n_pos >= n_neg else 0
    return evaluate(np.full(test.n_rows, label, dtype=np.int64), test.labels)


def baseline_random(test: FeatureMatrix, rng_seed: int) -> dict:
    rng = np.random.default_rng(rng_seed)
    return evaluate(rng.integers(0, 2, size=test.n_rows), test.labels)


def train_on_matrix(train: FeatureMatrix, cfg: TrainConfig) -> TreeEnsemble:
    return train_gbdt(train.values, train.labels.astype(np.float64),
                      train.columns, cfg)


def evaluate_model(ensemble: TreeEnsemble, test: FeatureMatrix) -> dict:
    return evaluate(predict_labels(ensemble, test.values), test.labels)


def _fold_metrics(matrix: FeatureMatrix, cfg: TrainConfig,
                  fold: tuple[np.ndarray, np.ndarray]) -> dict:
    train, test = impute(*(matrix.select_rows(idx) for idx in fold))
    return evaluate_model(train_on_matrix(train, cfg), test)


def cross_validate(matrix: FeatureMatrix, cfg: TrainConfig, k: int,
                   rng_seed: int, workers: int = 1) -> list[dict]:
    """Stratified k-fold metrics; imputation refit inside every fold. The
    folds run in a process pool when ``workers > 1``, with the same results."""
    return parallel_map(partial(_fold_metrics, matrix, cfg),
                        stratified_kfold(matrix, k, rng_seed), workers)


def feature_report(ensemble: TreeEnsemble) -> list[tuple[str, float]]:
    """Features ranked by split-gain importance, normalized to sum 1."""
    if not ensemble.trees:
        raise ModelError("ensemble has no trees")
    total = float(ensemble.feature_importance.sum())
    if total <= 0.0:
        raise ModelError("ensemble has no splits; importance undefined")
    shares = ensemble.feature_importance / total
    ranked = sorted(zip(ensemble.feature_names, shares),
                    key=lambda kv: (-kv[1], kv[0]))
    return [(name, float(share)) for name, share in ranked]


def importance_ranking(ensemble: TreeEnsemble) -> list[str]:
    return [name for name, _ in feature_report(ensemble)]


def smallest_k_with_split_columns(ensemble: TreeEnsemble,
                                  ranking: list[str]) -> int:
    """The least k whose top-k ranked columns hold every column the
    ensemble splits on.

    A refit on any such top-k (in matrix order, same rows and config)
    rebuilds the ensemble bit for bit, columns renumbered: each column's
    split gains depend on that column alone, and equal gains go to the
    lowest column index, so a column that never won a split search cannot
    win one once other columns are dropped.
    """
    position = {name: i for i, name in enumerate(ranking)}
    stack, k = list(ensemble.trees), 0
    while stack:
        node = stack.pop()
        if "feature" in node:
            name = ensemble.feature_names[node["feature"]]
            k = max(k, position[name] + 1)
            stack += (node["left"], node["right"])
    return k


def _curve_point(train: FeatureMatrix, test: FeatureMatrix,
                 ranking: list[str], cfg: TrainConfig, k: int) -> float:
    """Holdout F1 of a model retrained on the top-k ranked features."""
    top = set(ranking[:k])
    # keep the matrix column order so a top-k holding every column the full
    # model splits on rebuilds it bit for bit (split tie-breaking depends on
    # column position)
    columns = [c for c in train.columns if c in top]
    model = train_on_matrix(train.select_columns(columns), cfg)
    return evaluate_model(model, test.select_columns(columns))["f1"]


def f1_growth_curve(train: FeatureMatrix, test: FeatureMatrix,
                    ranking: list[str], cfg: TrainConfig,
                    ks: list[int], workers: int = 1) -> list[tuple[int, float]]:
    """Holdout F1 after retraining on the top-k ranked features.

    Each point refits on a column slice of the imputed ``train``/``test``
    partition, which equals a re-split and re-impute of the sliced matrix,
    so k = all columns reproduces the full model exactly, for any workers.
    """
    missing = set(train.columns) - set(ranking)
    if missing:
        raise ModelError(
            f"ranking does not cover column {sorted(missing)[0]!r}")
    for k in ks:
        if not 1 <= k <= len(ranking):
            raise ModelError(f"curve point k={k} out of range")
    # fits grow with k: the largest go first so no worker is left with one
    # long fit at the end
    todo = sorted(set(ks), reverse=True)
    f1 = parallel_map(partial(_curve_point, train, test, ranking, cfg),
                      todo, workers)
    by_k = dict(zip(todo, f1))
    return [(k, by_k[k]) for k in ks]
