"""Gradient-boosted decision trees on logistic loss, built from scratch.

Trees are axis-aligned regression trees fit to first/second-order loss
statistics; leaf values are Newton steps -G/H. Split search is the exact
greedy algorithm on presorted column blocks (Chen & Guestrin, KDD 2016):
each feature is sorted once per fit and nodes partition the sorted row
lists stably. It is vectorized across features and uses exact
tie-breaking (lowest feature index, then lowest threshold) so training is
deterministic for any worker count or platform. Per-feature importance is
the summed split gain.

Once per fit, ``_Grower`` builds a contiguous ``X.T``, its stable
per-feature sort, a column of feature indices, a row mask and the buffers
for leaf values and importance. A node then sums its gradients and
hessians once, gathers its sorted values from ``X.T`` by fancy indexing,
searches its block with ``_best_split``, and splits its sorted block into
the children's by the row mask, which it clears again. Node sizes on the
benchmark are small, so a node's cost is mostly per-call overhead and the
kernel keeps the number of numpy calls per node low.

A tree is held as the nested node dicts that ``model.json`` stores: a leaf
is ``{"value": v}`` and a split is ``{"feature", "threshold", "gain",
"left", "right"}``, where rows with ``X[:, feature] <= threshold`` go left.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_EPS = 1e-16
FORMAT_VERSION = 1


class ModelError(ValueError):
    pass


@dataclass
class TrainConfig:
    n_trees: int = 200
    max_depth: int = 6
    learning_rate: float = 0.1
    min_samples_leaf: int = 5

    def __post_init__(self):
        errors = [f"{name} must be >= 1"
                  for name in ("n_trees", "max_depth", "min_samples_leaf")
                  if getattr(self, name) < 1]
        if self.learning_rate <= 0:
            errors.append("learning_rate must be > 0")
        if errors:
            raise ModelError("; ".join(errors))


def _best_split(XT: np.ndarray, cols: np.ndarray, g: np.ndarray,
                h: np.ndarray, order: np.ndarray, g_tot: np.float64,
                h_tot: np.float64, min_samples_leaf: int):
    """Best (gain, feature, threshold) for one node's block, or None.

    ``order`` is the (features, n) block of the node's rows sorted stably by
    each feature, ``XT`` the contiguous ``X.T`` and ``cols`` the matching
    column of feature indices into it. ``g_tot`` and ``h_tot`` are the
    node's gradient and hessian sums in row order. Gain is the Newton
    objective reduction GL^2/HL + GR^2/HR - G^2/H. Equal gains resolve to
    the lowest feature of the block, then the lowest threshold.
    """
    n = order.shape[1]
    if n < 2 * min_samples_leaf:
        return None
    xs = XT[cols, order]
    gl = g[order].cumsum(axis=1)[:, :-1]
    hl = h[order].cumsum(axis=1)[:, :-1]
    # position p splits after p + 1 rows; only positions leaving at least
    # min_samples_leaf rows on each side are candidates
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    gl, hl = gl[:, lo:hi], hl[:, lo:hi]
    gr = g_tot - gl
    hr = h_tot - hl
    gain = gl ** 2 / (hl + _EPS) + gr ** 2 / (hr + _EPS) \
        - g_tot ** 2 / (h_tot + _EPS)
    gain = np.where(xs[:, lo:hi] < xs[:, lo + 1:hi + 1], gain, -np.inf)
    # feature-major flattening makes argmax break ties toward the lowest
    # feature index, then the lowest split position (= lowest threshold)
    best = int(gain.argmax())
    best_gain = gain.item(best)
    if not math.isfinite(best_gain) or best_gain <= 0.0:
        return None
    feature, pos = divmod(best, hi - lo)
    pos += lo
    threshold = (xs.item(feature, pos) + xs.item(feature, pos + 1)) / 2.0
    return best_gain, feature, threshold


class _Grower:
    """What one fit builds once and every node of every tree reads.

    ``XT`` is a contiguous ``X.T`` and ``order`` its stable per-feature
    sort, ``cols`` the column of feature indices that gathers a node's
    sorted values from ``XT``, and ``in_left`` a row mask that each split
    sets and clears again. ``update`` receives each tree's leaf values and
    ``importance`` the summed split gains.
    """

    def __init__(self, X: np.ndarray, cfg: TrainConfig):
        self.XT = np.ascontiguousarray(X.T)
        self.cols = np.arange(X.shape[1])[:, None]
        self.order = np.argsort(self.XT, axis=1, kind="stable")
        self.rows = np.arange(X.shape[0])
        self.in_left = np.zeros(X.shape[0], dtype=bool)
        # every row reaches one leaf, so each tree overwrites all of update
        self.update = np.empty(X.shape[0], dtype=np.float64)
        self.importance = np.zeros(X.shape[1], dtype=np.float64)
        self.max_depth = cfg.max_depth
        self.min_samples_leaf = cfg.min_samples_leaf

    def tree(self, g: np.ndarray, h: np.ndarray) -> dict:
        """One tree on gradients ``g`` and hessians ``h``."""
        return self._node(g, h, self.rows, self.order, 0)

    def _node(self, g: np.ndarray, h: np.ndarray, rows: np.ndarray,
              order: np.ndarray, depth: int) -> dict:
        """Grow the subtree over ``rows`` (ascending); ``order`` is as in
        ``_best_split``.

        A node sums ``g`` and ``h`` over its rows once, in row order, for
        both its split search and its leaf value. Children are built
        depth-first, left first, so ``importance`` receives its additions
        in a fixed order. Each leaf writes its value into ``update`` at its
        rows.
        """
        g_tot, h_tot = g[rows].sum(), h[rows].sum()
        split = None
        if depth < self.max_depth:
            split = _best_split(self.XT, self.cols, g, h, order, g_tot, h_tot,
                                self.min_samples_leaf)
        if split is None:
            value = float(-g_tot / (h_tot + _EPS))
            self.update[rows] = value
            return {"value": value}
        gain, feature, threshold = split
        self.importance[feature] += gain
        go_left = self.XT[feature, rows] <= threshold
        # a stable partition of each sorted row list keeps it sorted, with
        # ties still in row order, so no node sorts again
        left_rows, right_rows = rows[go_left], rows[~go_left]
        in_left = self.in_left
        in_left[left_rows] = True
        sorted_left = in_left[order]
        in_left[left_rows] = False
        n_features = order.shape[0]
        left_order = order[sorted_left].reshape(n_features, left_rows.size)
        right_order = order[~sorted_left].reshape(n_features, right_rows.size)
        return {
            "feature": feature, "threshold": threshold, "gain": gain,
            "left": self._node(g, h, left_rows, left_order, depth + 1),
            "right": self._node(g, h, right_rows, right_order, depth + 1),
        }


def _tree_predict(root: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if "value" in node:
            out[idx] = node["value"]
        else:
            mask = X[idx, node["feature"]] <= node["threshold"]
            stack.append((node["left"], idx[mask]))
            stack.append((node["right"], idx[~mask]))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def logistic_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


@dataclass
class TreeEnsemble:
    trees: list[dict]
    learning_rate: float
    initial_score: float
    feature_names: list[str]
    feature_importance: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def train_gbdt(X: np.ndarray, y: np.ndarray, feature_names: list[str],
               cfg: TrainConfig) -> TreeEnsemble:
    """Fit a boosted ensemble to fully-imputed features and binary labels."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ModelError("feature/label shape mismatch")
    if X.shape[1] != len(feature_names):
        raise ModelError("feature name count does not match columns")
    if np.isnan(X).any():
        raise ModelError("training matrix has missing values; impute first")
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ModelError("labels must be binary 0/1")
    if classes.size < 2:
        raise ModelError("training set contains a single class")

    p0 = float(y.mean())
    initial = math.log(p0 / (1.0 - p0))
    raw = np.full(y.shape[0], initial)
    grower = _Grower(X, cfg)
    trees: list[dict] = []
    losses = [logistic_loss(y, _sigmoid(raw))]
    for _ in range(cfg.n_trees):
        p = _sigmoid(raw)
        trees.append(grower.tree(p - y, p * (1.0 - p)))
        raw = raw + cfg.learning_rate * grower.update
        losses.append(logistic_loss(y, _sigmoid(raw)))
    return TreeEnsemble(trees=trees, learning_rate=cfg.learning_rate,
                        initial_score=initial, feature_names=list(feature_names),
                        feature_importance=grower.importance,
                        loss_history=losses)


def predict_scores(ensemble: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """Positive-class probabilities sigmoid(initial + lr * sum of trees)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise ModelError(
            f"expected {ensemble.n_features} columns, got "
            f"{X.shape[1] if X.ndim == 2 else 'non-2d input'}")
    raw = np.full(X.shape[0], ensemble.initial_score)
    for tree in ensemble.trees:
        raw += ensemble.learning_rate * _tree_predict(tree, X)
    return _sigmoid(raw)


def predict_labels(ensemble: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    return (predict_scores(ensemble, X) >= 0.5).astype(np.int64)


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{what} must be a number, got {value!r}")
    return float(value)


def _node_from_json(obj, n_features: int, where: str) -> dict:
    """A validated copy of one loaded node and its subtree."""
    if not isinstance(obj, dict):
        raise ModelError(f"{where}: node must be a JSON object")
    if "value" in obj:
        return {"value": _number(obj["value"], f"{where}: value")}
    feature = obj.get("feature")
    if (isinstance(feature, bool) or not isinstance(feature, int)
            or not 0 <= feature < n_features):
        raise ModelError(f"{where}: feature must be a column index in "
                         f"[0, {n_features}), got {feature!r}")
    for key in ("threshold", "left", "right"):
        if key not in obj:
            raise ModelError(f"{where}: split node has no {key!r}")
    return {"feature": feature,
            "threshold": _number(obj["threshold"], f"{where}: threshold"),
            "gain": _number(obj.get("gain", 0.0), f"{where}: gain"),
            "left": _node_from_json(obj["left"], n_features, where),
            "right": _node_from_json(obj["right"], n_features, where)}


def save_ensemble(ensemble: TreeEnsemble, path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "learning_rate": ensemble.learning_rate,
        "initial_score": ensemble.initial_score,
        "feature_names": ensemble.feature_names,
        "feature_importance": ensemble.feature_importance.tolist(),
        "loss_history": ensemble.loss_history,
        "trees": ensemble.trees,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_ensemble(path) -> TreeEnsemble:
    """Read a ``save_ensemble`` file; a malformed one raises ModelError."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ModelError("model file must hold a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(f"unsupported model format version {version!r}")
    for key in ("trees", "learning_rate", "initial_score", "feature_names",
                "feature_importance"):
        if key not in payload:
            raise ModelError(f"model file has no {key!r}")
    names = payload["feature_names"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ModelError("feature_names must be a list of strings")
    importance = payload["feature_importance"]
    if not isinstance(importance, list) or len(importance) != len(names):
        raise ModelError("feature_importance must hold one number per "
                         "feature name")
    for key in ("trees", "loss_history"):
        if not isinstance(payload.get(key, []), list):
            raise ModelError(f"{key} must be a list")
    return TreeEnsemble(
        trees=[_node_from_json(t, len(names), f"tree {i}")
               for i, t in enumerate(payload["trees"])],
        learning_rate=_number(payload["learning_rate"], "learning_rate"),
        initial_score=_number(payload["initial_score"], "initial_score"),
        feature_names=list(names),
        feature_importance=np.array(
            [_number(x, "feature_importance") for x in importance],
            dtype=np.float64),
        loss_history=[_number(x, "loss_history")
                      for x in payload.get("loss_history", [])],
    )
