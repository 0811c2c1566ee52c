"""Gradient-boosted decision trees on logistic loss, built from scratch.

Trees are axis-aligned regression trees fit to first/second-order loss
statistics; leaf values are Newton steps -G/H. Split search is the exact
greedy algorithm on presorted column blocks (Chen & Guestrin, KDD 2016):
each feature is sorted once per fit and nodes partition the sorted row
lists stably. It is vectorized across features and uses exact
tie-breaking (lowest feature index, then lowest threshold) so training is
deterministic for any worker count or platform. Per-feature importance is
the summed split gain.

Consecutive trees of one fit mostly regrow the same nodes, so ``_Grower``
keeps a trie of node records across the fit's trees. A record caches only
what its rows fix: the rows, their sorted block, the block's tie mask and
the node's last split with that split's two child records. It never caches
anything that depends on a tree's gradients or hessians, so each tree's
sums, gains and leaf values are computed afresh and every fit has the bits
of a per-node sort. Each tree walks the trie from the root (all rows and
the presort). A node searches its cached block, and it partitions its rows
and block again only when its winning split differs from the cached one.
Only nodes that will be searched keep a block, and each record holds one
split, so the trie is one binary tree of depth ``max_depth`` and its blocks
and tie masks take at most ``max_depth * features * rows * 9`` bytes.
Node sizes on the benchmark are small, so a node's cost is mostly per-call
overhead and the kernel keeps the number of numpy calls per node low.

A tree is held as the nested node dicts that ``model.json`` stores: a leaf
is ``{"value": v}`` and a split is ``{"feature", "threshold", "gain",
"left", "right"}``, where rows with ``X[:, feature] <= threshold`` go left.
"""

from __future__ import annotations

import json
import math
import sys
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
        # NaN and infinity fail this, as does an int too large for a double
        if not 0 < self.learning_rate <= sys.float_info.max:
            errors.append("learning_rate must be finite and > 0")
        if errors:
            raise ModelError("; ".join(errors))


class _Node:
    """One record of a fit's node trie: what a node's rows fix.

    ``rows`` are the node's rows, ascending, and ``order`` its (features,
    n) block of them sorted stably by each feature, or None for a node that
    is never searched. ``ties`` marks the candidate positions ``p`` whose
    sorted value equals the next (``xs[:, p] >= xs[:, p + 1]``), built on
    the first search. ``feature``/``threshold`` is the node's last split,
    and ``left``/``right`` the records of that split's children.
    """

    __slots__ = ("rows", "order", "ties", "feature", "threshold", "left",
                 "right")

    def __init__(self, rows: np.ndarray, order: np.ndarray | None):
        self.rows = rows
        self.order = order
        self.ties = None
        self.feature = -1
        self.threshold = math.nan
        self.left = self.right = None


class _Grower:
    """What one fit builds once and every tree of it reads.

    ``XT`` is a contiguous ``X.T``, ``offsets`` the column of row offsets
    that turns a block into flat indices into it, and ``root`` the trie's
    record of all rows with the stable per-feature presort as its block.
    ``update`` receives each tree's leaf values and ``importance`` the
    summed split gains.
    """

    def __init__(self, X: np.ndarray, cfg: TrainConfig):
        self.XT = np.ascontiguousarray(X.T)
        self.offsets = np.arange(0, X.size, X.shape[0])[:, None]
        self.max_depth = cfg.max_depth
        self.min_samples_leaf = cfg.min_samples_leaf
        rows = np.arange(X.shape[0])
        self.root = _Node(rows, np.argsort(self.XT, axis=1, kind="stable")
                          if self._searched(rows.size, 0) else None)
        # every row reaches one leaf, so each tree overwrites all of update
        self.update = np.empty(X.shape[0], dtype=np.float64)
        self.importance = np.zeros(X.shape[1], dtype=np.float64)

    def _searched(self, n: int, depth: int) -> bool:
        """Whether a node of ``n`` rows at ``depth`` searches for a split."""
        return depth < self.max_depth and n >= 2 * self.min_samples_leaf

    def tree(self, g: np.ndarray, h: np.ndarray) -> dict:
        """One tree on gradients ``g`` and hessians ``h``."""
        # complex adds are component-wise, so one cumsum of g + ih gives
        # both prefix sums with the bits of two
        gh = np.empty(g.size, dtype=np.complex128)
        gh.real, gh.imag = g, h
        return self._grow(self.root, 0, g, h, gh)

    def _grow(self, node: _Node, depth: int, g: np.ndarray, h: np.ndarray,
              gh: np.ndarray) -> dict:
        """Grow the subtree of ``node`` on this tree's ``g`` and ``h``.

        A node sums ``g`` and ``h`` over its rows once, in row order, for
        both its split search and its leaf value. Children are built
        depth-first, left first, so ``importance`` receives its additions
        in a fixed order. Each leaf writes its value into ``update`` at its
        rows.
        """
        rows = node.rows
        g_tot, h_tot = np.add.reduce(g[rows]), np.add.reduce(h[rows])
        split = None
        if node.order is not None:
            split = self._best_split(node, gh, g_tot, h_tot)
        if split is None:
            value = float(-g_tot / (h_tot + _EPS))
            self.update[rows] = value
            return {"value": value}
        gain, feature, threshold = split
        self.importance[feature] += gain
        # a NaN threshold never equals the cached one, so it repartitions
        if feature != node.feature or threshold != node.threshold:
            self._partition(node, feature, threshold, depth + 1)
        return {
            "feature": feature, "threshold": threshold, "gain": gain,
            "left": self._grow(node.left, depth + 1, g, h, gh),
            "right": self._grow(node.right, depth + 1, g, h, gh),
        }

    def _best_split(self, node: _Node, gh: np.ndarray, g_tot: np.float64,
                    h_tot: np.float64):
        """Best (gain, feature, threshold) for ``node``'s block, or None.

        ``g_tot`` and ``h_tot`` are the node's gradient and hessian sums in
        row order. Gain is the Newton objective reduction GL^2/HL +
        GR^2/HR - G^2/H. Equal gains resolve to the lowest feature, then
        the lowest threshold.
        """
        order = node.order
        n = order.shape[1]
        # position p splits after p + 1 rows; only positions leaving at least
        # min_samples_leaf rows on each side are candidates
        lo, hi = self.min_samples_leaf - 1, n - self.min_samples_leaf
        if node.ties is None:
            xs = self.XT.take(order[:, lo:hi + 1] + self.offsets)
            node.ties = xs[:, :-1] >= xs[:, 1:]
        sums = gh.take(order[:, :hi])
        np.add.accumulate(sums, axis=1, out=sums)
        # contiguous copies make the passes below cheaper than on the views
        gl, hl = sums.real[:, lo:].copy(), sums.imag[:, lo:].copy()
        gr = g_tot - gl
        hr = h_tot - hl
        gain = np.square(gl, out=gl)
        hl += _EPS
        gain /= hl
        np.square(gr, out=gr)
        hr += _EPS
        gr /= hr
        gain += gr
        # the parent term stays np.float64 scalar arithmetic: a scalar ** 2
        # can differ in the last bit from an array's
        gain -= g_tot ** 2 / (h_tot + _EPS)
        np.putmask(gain, node.ties, -np.inf)
        # feature-major flattening makes argmax break ties toward the lowest
        # feature index, then the lowest split position (= lowest threshold)
        best = int(gain.argmax())
        best_gain = gain.item(best)
        if not math.isfinite(best_gain) or best_gain <= 0.0:
            return None
        feature, pos = divmod(best, hi - lo)
        pos += lo
        below, above = order.item(feature, pos), order.item(feature, pos + 1)
        threshold = (self.XT.item(feature, below)
                     + self.XT.item(feature, above)) / 2.0
        return best_gain, feature, threshold

    def _partition(self, node: _Node, feature: int, threshold: float,
                   depth: int) -> None:
        """Give ``node`` this split and fresh child records at ``depth``."""
        go_left = self.XT[feature] <= threshold
        row_left = go_left[node.rows]
        node.feature, node.threshold = feature, threshold
        node.left = self._child(node, row_left, go_left, depth)
        node.right = self._child(node, ~row_left, ~go_left, depth)

    def _child(self, parent: _Node, row_mask: np.ndarray, goes: np.ndarray,
               depth: int) -> _Node:
        """The record of the parent's rows where ``row_mask`` holds; ``goes``
        is the same choice over all rows. Only a child that will be
        searched gets a block: a stable partition of each sorted row list
        keeps it sorted, with ties still in row order, so no node sorts
        again."""
        rows = parent.rows[row_mask]
        order = None
        if self._searched(rows.size, depth):
            # on large blocks np.compress beats boolean indexing
            order = np.compress(goes[parent.order].ravel(), parent.order
                                ).reshape(parent.order.shape[0], rows.size)
        return _Node(rows, order)


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
    # the p after each update serves both its round's loss and the next tree
    p = _sigmoid(raw)
    losses = [logistic_loss(y, p)]
    for _ in range(cfg.n_trees):
        trees.append(grower.tree(p - y, p * (1.0 - p)))
        raw = raw + cfg.learning_rate * grower.update
        p = _sigmoid(raw)
        losses.append(logistic_loss(y, p))
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
    # one json.dumps runs the C encoder; json.dump to a file runs the
    # pure-Python one, for the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


def load_ensemble(path) -> TreeEnsemble:
    """Read a ``save_ensemble`` file; a malformed one raises ModelError."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # malformed JSON, or not UTF-8
            raise ModelError(f"{Path(path).name}: {exc}") from None
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
