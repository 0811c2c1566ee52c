import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitline import gbdt
from traitline.gbdt import (ModelError, TrainConfig, TreeEnsemble,
                            load_ensemble, predict_labels, predict_scores,
                            save_ensemble, train_gbdt)


def cfg(**kwargs):
    base = dict(n_trees=10, max_depth=3, learning_rate=0.5,
                min_samples_leaf=2)
    base.update(kwargs)
    return TrainConfig(**base)


def separable_data(n_per_side=10):
    x = np.array([[float(i)] for i in range(n_per_side)]
                 + [[float(i + 100)] for i in range(n_per_side)])
    y = np.array([0.0] * n_per_side + [1.0] * n_per_side)
    return x, y


# ---- hand-traced prediction ---------------------------------------------------

def hand_ensemble():
    tree1 = {"feature": 0, "threshold": 0.5, "gain": 0.0,
             "left": {"value": -1.0}, "right": {"value": 2.0}}
    tree2 = {"feature": 1, "threshold": 0.0, "gain": 0.0,
             "left": {"value": 0.5}, "right": {"value": -0.25}}
    return TreeEnsemble(trees=[tree1, tree2], learning_rate=0.1,
                        initial_score=0.3, feature_names=["f0", "f1"],
                        feature_importance=np.array([1.0, 1.0]))


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def test_predict_matches_hand_trace():
    ensemble = hand_ensemble()
    rows = np.array([[0.2, 1.0], [0.7, -3.0]])
    scores = predict_scores(ensemble, rows)
    # row 0: initial 0.3 + 0.1 * (-1.0 - 0.25); row 1: 0.3 + 0.1 * (2.0 + 0.5)
    assert scores[0] == pytest.approx(sigmoid(0.175), abs=1e-12)
    assert scores[1] == pytest.approx(sigmoid(0.55), abs=1e-12)
    assert predict_labels(ensemble, rows).tolist() == [1, 1]


def test_empty_ensemble_predicts_initial_everywhere():
    ensemble = TreeEnsemble(trees=[], learning_rate=0.1, initial_score=-0.4,
                            feature_names=["f0"],
                            feature_importance=np.zeros(1))
    scores = predict_scores(ensemble, np.array([[1.0], [99.0]]))
    assert np.allclose(scores, sigmoid(-0.4))
    assert predict_labels(ensemble, np.array([[0.0]])).tolist() == [0]


def test_prediction_monotone_in_leaf_value():
    low = hand_ensemble()
    high = hand_ensemble()
    high.trees[0]["right"]["value"] = 5.0
    row = np.array([[0.7, -3.0]])
    assert predict_scores(high, row)[0] > predict_scores(low, row)[0]


def test_predict_rejects_column_mismatch():
    ensemble = hand_ensemble()
    with pytest.raises(ModelError, match="expected 2 columns"):
        predict_scores(ensemble, np.zeros((3, 5)))


# ---- training ------------------------------------------------------------------

def test_separable_data_fits_perfectly():
    x, y = separable_data()
    ensemble = train_gbdt(x, y, ["f0"], cfg())
    assert predict_labels(ensemble, x).tolist() == y.astype(int).tolist()


def test_initial_score_is_base_rate_log_odds():
    x, y = separable_data()
    ensemble = train_gbdt(x, y, ["f0"], cfg(n_trees=1))
    assert ensemble.initial_score == pytest.approx(math.log(1.0), abs=1e-12)
    y_skew = np.array([1.0] * 15 + [0.0] * 5)
    ensemble = train_gbdt(np.zeros((20, 1)), y_skew, ["f0"], cfg(n_trees=1))
    assert ensemble.initial_score == pytest.approx(math.log(0.75 / 0.25),
                                                   abs=1e-12)


def test_constant_features_predict_majority():
    x = np.ones((10, 2))
    y = np.array([1.0] * 7 + [0.0] * 3)
    ensemble = train_gbdt(x, y, ["a", "b"], cfg())
    scores = predict_scores(ensemble, x)
    assert np.allclose(scores, 0.7)
    assert predict_labels(ensemble, x).tolist() == [1] * 10
    assert ensemble.feature_importance.sum() == 0.0


def test_training_loss_non_increasing():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 6))
    y = (x[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(float)
    ensemble = train_gbdt(x, y, [f"f{i}" for i in range(6)],
                          cfg(n_trees=40, learning_rate=0.1))
    losses = ensemble.loss_history
    assert len(losses) == 41
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_training_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 4))
    y = (x[:, 1] > 0).astype(float)
    a = train_gbdt(x, y, list("abcd"), cfg())
    b = train_gbdt(x, y, list("abcd"), cfg())
    assert np.array_equal(predict_scores(a, x), predict_scores(b, x))
    assert np.array_equal(a.feature_importance, b.feature_importance)


def test_tied_splits_prefer_lowest_feature_index():
    rng = np.random.default_rng(7)
    col = rng.normal(size=(50, 1))
    x = np.hstack([col, col.copy()])  # identical columns -> identical gains
    y = (col[:, 0] > 0).astype(float)
    ensemble = train_gbdt(x, y, ["first", "twin"], cfg(n_trees=5))

    def features_used(node):
        if "value" in node:
            return set()
        return ({node["feature"]} | features_used(node["left"])
                | features_used(node["right"]))

    used = set()
    for tree in ensemble.trees:
        used |= features_used(tree)
    assert used <= {0}
    assert ensemble.feature_importance[1] == 0.0


def test_min_samples_leaf_respected():
    x, y = separable_data(n_per_side=3)
    ensemble = train_gbdt(x, y, ["f0"], cfg(min_samples_leaf=4))
    # 6 rows cannot produce two leaves of 4; every tree is a stump leaf
    assert all("value" in t for t in ensemble.trees)


def test_single_class_rejected():
    with pytest.raises(ModelError, match="single class"):
        train_gbdt(np.zeros((5, 1)), np.ones(5), ["f0"], cfg())


def test_non_binary_labels_rejected():
    with pytest.raises(ModelError, match="binary"):
        train_gbdt(np.zeros((4, 1)), np.array([0.0, 1.0, 2.0, 1.0]),
                   ["f0"], cfg())


def test_missing_values_rejected():
    x = np.array([[1.0], [np.nan]])
    with pytest.raises(ModelError, match="impute"):
        train_gbdt(x, np.array([0.0, 1.0]), ["f0"], cfg())


def test_config_validation():
    for field, value in [("n_trees", 0), ("max_depth", 0),
                         ("min_samples_leaf", -1)]:
        with pytest.raises(ModelError, match=f"^{field} must be >= 1$"):
            TrainConfig(**{field: value})
    with pytest.raises(ModelError,
                       match="^learning_rate must be finite and > 0$"):
        TrainConfig(learning_rate=0.0)
    # every bad field is named in the one error
    with pytest.raises(ModelError,
                       match="^max_depth must be >= 1; "
                             "learning_rate must be finite and > 0$"):
        TrainConfig(max_depth=0, learning_rate=-1.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-past-double"])
def test_learning_rate_must_be_finite(rate):
    # NaN is not <= 0, and 10**400 only overflows once the fit multiplies
    with pytest.raises(ModelError,
                       match="^learning_rate must be finite and > 0$"):
        TrainConfig(learning_rate=rate)


# ---- presorted split search against a per-node sort ----------------------------

def reference_best_split(X, g, h, min_samples_leaf):
    """Split search that argsorts every feature at every node (the oracle)."""
    n = X.shape[0]
    if n < 2 * min_samples_leaf:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    gl = np.cumsum(g[order], axis=0)[:-1]
    hl = np.cumsum(h[order], axis=0)[:-1]
    g_tot, h_tot = g.sum(), h.sum()
    gr = g_tot - gl
    hr = h_tot - hl
    gain = gl ** 2 / (hl + gbdt._EPS) + gr ** 2 / (hr + gbdt._EPS) \
        - g_tot ** 2 / (h_tot + gbdt._EPS)
    valid = xs[:-1] < xs[1:]
    counts = np.arange(1, n)[:, None]
    valid &= (counts >= min_samples_leaf) & (n - counts >= min_samples_leaf)
    flat = np.ascontiguousarray(np.where(valid, gain, -np.inf).T).ravel()
    best = int(np.argmax(flat))
    if not np.isfinite(flat[best]) or flat[best] <= 0.0:
        return None
    feature, pos = divmod(best, n - 1)
    threshold = float((xs[pos, feature] + xs[pos + 1, feature]) / 2.0)
    return float(flat[best]), int(feature), threshold, X[:, feature] <= threshold


def reference_tree(X, g, h, depth, config, importance):
    split = None
    if depth < config.max_depth:
        split = reference_best_split(X, g, h, config.min_samples_leaf)
    if split is None:
        return {"value": float(-g.sum() / (h.sum() + gbdt._EPS))}
    gain, feature, threshold, left = split
    importance[feature] += gain
    return {
        "feature": feature, "threshold": threshold, "gain": gain,
        "left": reference_tree(X[left], g[left], h[left], depth + 1, config,
                               importance),
        "right": reference_tree(X[~left], g[~left], h[~left], depth + 1,
                                config, importance)}


def reference_train(X, y, config):
    p0 = float(y.mean())
    raw = np.full(y.shape[0], math.log(p0 / (1.0 - p0)))
    importance = np.zeros(X.shape[1])
    trees, losses = [], [gbdt.logistic_loss(y, gbdt._sigmoid(raw))]
    for _ in range(config.n_trees):
        p = gbdt._sigmoid(raw)
        tree = reference_tree(X, p - y, p * (1.0 - p), 0, config, importance)
        trees.append(tree)
        raw = raw + config.learning_rate * gbdt._tree_predict(tree, X)
        losses.append(gbdt.logistic_loss(y, gbdt._sigmoid(raw)))
    return trees, importance, losses


@st.composite
def training_sets(draw):
    n = draw(st.integers(4, 80))
    n_features = draw(st.integers(1, 5))
    # few distinct values, so columns carry ties; some are constant
    levels = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False,
                                     allow_infinity=False),
                           min_size=1, max_size=4))
    X = np.array(draw(st.lists(st.lists(st.sampled_from(levels),
                                        min_size=n_features,
                                        max_size=n_features),
                               min_size=n, max_size=n)))
    constant = draw(st.lists(st.booleans(), min_size=n_features,
                             max_size=n_features))
    X[:, np.array(constant)] = levels[0]
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                               min_size=n - 2, max_size=n - 2)) + [0.0, 1.0])
    # enough trees that later ones repeat earlier splits and reuse the
    # grower's cached nodes
    config = cfg(n_trees=draw(st.integers(5, 25)),
                 max_depth=draw(st.integers(1, 4)),
                 min_samples_leaf=draw(st.integers(1, 5)))
    return X, y, config


@settings(max_examples=150, deadline=None)
@given(training_sets())
def test_presorted_fit_equals_per_node_sort(data):
    X, y, config = data
    names = [f"f{i}" for i in range(X.shape[1])]
    ensemble = train_gbdt(X, y, names, config)
    trees, importance, losses = reference_train(X, y, config)
    # json.dumps writes floats by repr, so equal text means equal bits
    assert json.dumps(ensemble.trees) == json.dumps(trees)
    assert ensemble.feature_importance.tobytes() == importance.tobytes()
    assert json.dumps(ensemble.loss_history) == json.dumps(losses)


def test_column_subset_fit_equals_per_node_sort():
    # the growth curve refits on the top-k columns of the full matrix
    rng = np.random.default_rng(11)
    full = np.round(rng.normal(size=(90, 7)), 1)
    y = (full[:, 2] + full[:, 5] + 0.5 * rng.normal(size=90) > 0).astype(float)
    X = np.ascontiguousarray(full[:, [5, 2, 0]])
    config = cfg(n_trees=20, max_depth=4, learning_rate=0.3)
    ensemble = train_gbdt(X, y, ["f5", "f2", "f0"], config)
    trees, importance, losses = reference_train(X, y, config)
    assert json.dumps(ensemble.trees) == json.dumps(trees)
    assert ensemble.feature_importance.tobytes() == importance.tobytes()
    assert json.dumps(ensemble.loss_history) == json.dumps(losses)


def count_records(node):
    if node is None:
        return 0
    return 1 + count_records(node.left) + count_records(node.right)


def test_repeated_splits_reuse_cached_nodes(monkeypatch):
    x, y = separable_data(n_per_side=20)
    noise = np.random.default_rng(3).normal(size=(40, 2))
    X = np.hstack([x, noise])
    config = cfg(n_trees=15, max_depth=3, learning_rate=0.1)
    partitions, records = [], []
    partition, tree = gbdt._Grower._partition, gbdt._Grower.tree

    def counting_partition(self, *args):
        partitions.append(args)
        return partition(self, *args)

    def counting_tree(self, g, h):
        out = tree(self, g, h)
        records.append(count_records(self.root))
        return out

    monkeypatch.setattr(gbdt._Grower, "_partition", counting_partition)
    monkeypatch.setattr(gbdt._Grower, "tree", counting_tree)
    ensemble = train_gbdt(X, y, ["x", "a", "b"], config)

    def splits(node):
        return 0 if "value" in node else \
            1 + splits(node["left"]) + splits(node["right"])

    # the separating split wins the root of every tree, and only the first
    # tree partitions it
    assert [t["feature"] for t in ensemble.trees] == [0] * 15
    assert len({t["threshold"] for t in ensemble.trees}) == 1
    assert [args[3] for args in partitions].count(1) == 1
    assert len(partitions) < sum(splits(t) for t in ensemble.trees)
    assert max(records) <= 2 ** (config.max_depth + 1) - 1
    trees, importance, _ = reference_train(X, y, config)
    assert json.dumps(ensemble.trees) == json.dumps(trees)
    assert ensemble.feature_importance.tobytes() == importance.tobytes()


# ---- serialization --------------------------------------------------------------

def test_round_trip(tmp_path):
    x, y = separable_data()
    ensemble = train_gbdt(x, y, ["f0"], cfg())
    path = tmp_path / "model.json"
    save_ensemble(ensemble, path)
    back = load_ensemble(path)
    assert back.feature_names == ensemble.feature_names
    assert back.initial_score == ensemble.initial_score
    assert back.learning_rate == ensemble.learning_rate
    assert np.array_equal(back.feature_importance,
                          ensemble.feature_importance)
    assert np.array_equal(predict_scores(back, x),
                          predict_scores(ensemble, x))
    save_ensemble(back, tmp_path / "model2.json")
    assert (tmp_path / "model.json").read_bytes() == \
        (tmp_path / "model2.json").read_bytes()


def test_save_writes_the_pure_python_encoders_bytes(tmp_path):
    # save_ensemble encodes with json.dumps (the C encoder); json.dump to a
    # file, which it used to call, runs the pure-Python one
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 4))
    y = (x[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(np.int64)
    path = tmp_path / "model.json"
    save_ensemble(train_gbdt(x, y, ["a", "b", "c", "d"], cfg()), path)
    buf = io.StringIO()
    json.dump(json.loads(path.read_text()), buf, sort_keys=True)
    assert path.read_text() == buf.getvalue() + "\n"


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ModelError, match="format version"):
        load_ensemble(path)


def saved_payload(tmp_path):
    path = tmp_path / "model.json"
    save_ensemble(hand_ensemble(), path)
    return path, json.loads(path.read_text())


def _set(keys, value):
    def mutate(payload):
        *path, leaf = keys
        for key in path:
            payload = payload[key]
        payload[leaf] = value
    return mutate


def _drop(keys):
    def mutate(payload):
        *path, leaf = keys
        for key in path:
            payload = payload[key]
        del payload[leaf]
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set(("trees", 0, "feature"), -1), r"tree 0: feature .* -1"),
    (_set(("trees", 1, "feature"), 2), r"tree 1: feature .* 2"),
    (_set(("trees", 0, "feature"), True), r"tree 0: feature .* True"),
    (_set(("trees", 1, "threshold"), "0.5"), r"tree 1: threshold .*'0\.5'"),
    (_set(("trees", 1, "left", "value"), None), r"tree 1: value"),
    (_drop(("trees", 0, "right")), r"tree 0: split node has no 'right'"),
    (_set(("feature_importance",), [1.0]), r"feature_importance"),
    (_drop(("trees",)), r"no 'trees'"),
    (_set(("learning_rate",), "0.1"), r"learning_rate"),
], ids=["negative-feature", "feature-past-last-column", "boolean-feature",
        "string-threshold", "null-leaf-value", "split-without-child",
        "short-importance", "missing-trees", "string-learning-rate"])
def test_malformed_model_rejected(tmp_path, mutate, message):
    path, payload = saved_payload(tmp_path)
    assert isinstance(load_ensemble(path), TreeEnsemble)
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=message):
        load_ensemble(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ensembles(draw):
    n_features = draw(st.integers(1, 4))
    leaf = st.builds(lambda v: {"value": v}, st.floats(-8.0, 8.0))

    def split(kids):
        return st.builds(
            lambda f, t, g, left, right: {
                "feature": f, "threshold": t, "gain": g, "left": left,
                "right": right},
            st.integers(0, n_features - 1), FINITE, FINITE, kids, kids)

    return TreeEnsemble(
        trees=draw(st.lists(st.recursive(leaf, split, max_leaves=8),
                            max_size=4)),
        learning_rate=draw(st.floats(0.01, 1.0)),
        initial_score=draw(st.floats(-4.0, 4.0)),
        feature_names=[f"f{i}" for i in range(n_features)],
        feature_importance=np.array(draw(st.lists(
            FINITE, min_size=n_features, max_size=n_features))),
        loss_history=draw(st.lists(FINITE, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(ensemble=ensembles(), data=st.data())
def test_save_load_save_is_byte_identical(tmp_path_factory, ensemble, data):
    tmp = tmp_path_factory.mktemp("model")
    save_ensemble(ensemble, tmp / "a.json")
    back = load_ensemble(tmp / "a.json")
    save_ensemble(back, tmp / "b.json")
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()
    rows = data.draw(st.lists(st.lists(FINITE, min_size=ensemble.n_features,
                                       max_size=ensemble.n_features),
                              min_size=1, max_size=6))
    X = np.array(rows, dtype=np.float64)
    assert predict_scores(back, X).tobytes() == \
        predict_scores(ensemble, X).tobytes()
