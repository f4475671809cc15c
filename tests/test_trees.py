import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idsforge.ensemble import VoteEnsemble, ensemble_predict_batch
from idsforge.errors import InputError
from idsforge.trees import (WALKERS_PER_BLOCK, DecisionTree, Forest, TreeParams,
                            _best_split, _fit_tree, _log_tables, _value_codes, c45_fit, entropy,
                            forest_pa_fit, load_model, model_from_doc,
                            model_to_doc, rf_fit, save_model, tree_height,
                            tree_predict_batch, weight_increment, weight_range)

from conftest import (DATA_DIR, chain_tree, leaf_tree, make_blobs, make_dataset,
                      make_many_class_dataset, make_tied_dataset, members, oracle_leaf,
                      oracle_mean, traced_peak)


def split_info(partition_sizes) -> float:
    """Entropy of the partition-size distribution (how evenly a split cuts)."""
    return entropy(partition_sizes)


def gain_ratio(parent_counts, child_counts_list) -> float:
    """Information gain divided by split info, 0 when the gain or the split
    info is not positive: the textbook formula, scored partition by partition,
    that the count-table split search must agree with."""
    parent = np.asarray(parent_counts, dtype=np.float64)
    children = [np.asarray(c, dtype=np.float64) for c in child_counts_list]
    if not children:
        raise InputError("no child partitions")
    stacked = np.zeros_like(parent)
    for ch in children:
        if ch.shape != parent.shape:
            raise InputError("child count vector has wrong length")
        stacked = stacked + ch
    if not np.array_equal(stacked, parent):
        raise InputError("child counts do not partition the parent counts")
    total = parent.sum()
    gain = entropy(parent)
    sizes = []
    for ch in children:
        size = ch.sum()
        sizes.append(size)
        if size > 0:
            gain -= size / total * entropy(ch)
    info = split_info(sizes)
    if info <= 0 or gain <= 0:
        return 0.0
    return float(gain / info)


def brute_force_best_split(X, y, n_classes, min_leaf=1):
    """Exhaustive (feature, threshold) search scored with the oracle
    gain_ratio; ties prefer the lowest feature, then the lowest threshold."""
    best = (-1.0, None, None)
    parent = np.bincount(y, minlength=n_classes)
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] <= thr
            if left.sum() < min_leaf or (~left).sum() < min_leaf:
                continue
            score = gain_ratio(parent, [
                np.bincount(y[left], minlength=n_classes),
                np.bincount(y[~left], minlength=n_classes),
            ])
            if score > best[0]:
                best = (score, f, thr)
    return best


def oracle_entropy_of_count_rows(counts, totals):
    # H = log2(N) - sum(c log2 c) / N over the last axis, 0 log 0 = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(counts > 0, counts * np.log2(np.where(counts > 0, counts, 1.0)), 0.0)
    return np.log2(totals) - term.sum(axis=-1) / totals


def oracle_best_split(X, onehot, feature_ids, weights, min_leaf):
    """The per-row sweep that the value-code search replaced: argsort every
    candidate column and score a threshold at every row position, masking
    positions that do not sit between two distinct values."""
    n = X.shape[0]
    parent_counts = onehot.sum(axis=0)
    h_parent = float(oracle_entropy_of_count_rows(parent_counts, float(n)))
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    pl = left_n / n
    pr = right_n / n
    info = -(pl * np.log2(pl) + pr * np.log2(pr))
    cols = X[:, feature_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(cols, order, axis=0)
    cum = np.cumsum(onehot[order], axis=0)[:-1]  # (n-1, m, c) left counts
    valid = (sorted_vals[1:] != sorted_vals[:-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    if not valid.any():
        return None
    h_left = oracle_entropy_of_count_rows(cum, left_n)
    h_right = oracle_entropy_of_count_rows(parent_counts[None, None, :] - cum, right_n)
    gain = h_parent - pl * h_left - pr * h_right
    ratio = np.where(gain > 0, gain / info, 0.0)
    if weights is not None:
        ratio = ratio * weights[feature_ids][None, :]
    flat = np.where(valid, ratio, -np.inf).T.reshape(-1)  # feature-major: ties prefer low index
    f_local, i = divmod(int(np.argmax(flat)), n - 1)
    threshold = float((sorted_vals[i, f_local] + sorted_vals[i + 1, f_local]) / 2.0)
    return int(feature_ids[f_local]), threshold, float(flat[f_local * (n - 1) + i])


@st.composite
def split_nodes(draw):
    """A tie-heavy table, a bootstrap node drawn from it (duplicated rows),
    sorted candidate features, attribute weights and min_leaf."""
    d = draw(st.integers(min_value=1, max_value=6))
    # from 8 classes up numpy sums each entropy row pairwise, not in sequence
    c = draw(st.integers(min_value=2, max_value=16))
    n = draw(st.integers(min_value=c, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = draw(st.lists(st.sampled_from([1, 2, 3, 5, 1000]), min_size=d, max_size=d))
    feats = np.column_stack([rng.integers(0, k, n) / k for k in levels])
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
    ds = make_dataset(feats, labels)
    positions = rng.integers(0, n, draw(st.integers(min_value=1, max_value=2 * n)))
    m = draw(st.integers(min_value=1, max_value=d))
    candidates = np.sort(rng.choice(d, size=m, replace=False))
    weights = draw(st.sampled_from([None, "random", "equal"]))
    if weights == "random":
        weights = rng.random(d)
    elif weights == "equal":
        weights = np.full(d, 0.5)
    return ds, positions, candidates, weights, draw(st.integers(min_value=1, max_value=4))


def golden_models():
    """The models pinned by tests/data/tree_golden.json: every learner on one
    tie-heavy 3-class table with a constant column, at fixed seeds."""
    ds = make_tied_dataset(seed=2, n=300, classes=3)
    return {
        "c45": c45_fit(ds),
        "c45_full": c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0)),
        "rf": rf_fit(ds, n_trees=3, seed=11),
        "forest_pa": forest_pa_fit(ds, n_trees=3, seed=12),
    }


def many_class_models():
    """The models pinned by tests/data/tree_golden_15class.json: c45, a 3-tree
    rf and a 2-tree forest_pa on one 15-class table, where every entropy row
    sum has 15 terms, which numpy adds pairwise."""
    ds = make_many_class_dataset(seed=3)
    return {
        "c45": c45_fit(ds),
        "rf": rf_fit(ds, n_trees=3, seed=13),
        "forest_pa": forest_pa_fit(ds, n_trees=2, seed=14),
    }


def recorded_models(name):
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def assert_document_matches(doc, want, name):
    """Node by node first, so a mismatch names its tree and node, then whole."""
    trees_got = doc["trees"] if "trees" in doc else [doc]
    trees_want = want["trees"] if "trees" in want else [want]
    assert len(trees_got) == len(trees_want)
    for t, (got, exp) in enumerate(zip(trees_got, trees_want)):
        for i, (node, expected) in enumerate(zip(got["nodes"], exp["nodes"])):
            assert node == expected, f"{name} tree {t} node {i}"
        assert len(got["nodes"]) == len(exp["nodes"]), f"{name} tree {t}"
    assert json.dumps(doc, sort_keys=True) == json.dumps(want, sort_keys=True)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([5, 5]) == pytest.approx(1.0)

    def test_pure(self):
        assert entropy([10, 0]) == pytest.approx(0.0)

    def test_nine_five(self):
        assert entropy([9, 5]) == pytest.approx(0.94029, abs=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            entropy([0, 0])

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6))
    def test_bounded_by_log_support(self, counts):
        assume(sum(counts) > 0)
        nonzero = sum(1 for c in counts if c > 0)
        assert entropy(counts) <= math.log2(max(nonzero, 1)) + 1e-12


class TestSplitInfo:
    def test_even_binary(self):
        assert split_info([7, 7]) == pytest.approx(1.0)

    def test_single_partition(self):
        assert split_info([14]) == pytest.approx(0.0)

    def test_three_way(self):
        assert split_info([5, 4, 5]) == pytest.approx(1.57740, abs=1e-5)


class TestGainRatio:
    def test_no_gain(self):
        assert gain_ratio([8, 4], [[4, 2], [4, 2]]) == 0.0

    def test_perfect_split(self):
        assert gain_ratio([7, 7], [[7, 0], [0, 7]]) == pytest.approx(1.0)

    def test_outlook_three_way(self):
        ratio = gain_ratio([9, 5], [[2, 3], [4, 0], [3, 2]])
        assert ratio == pytest.approx(0.15643, abs=1e-4)

    def test_partition_mismatch_rejected(self):
        with pytest.raises(InputError):
            gain_ratio([5, 5], [[3, 2], [1, 2]])

    @settings(max_examples=80, deadline=None)
    @given(
        left=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        right=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    )
    def test_binary_class_ratio_in_unit_interval(self, left, right):
        assume(sum(left) + sum(right) > 0)
        parent = [left[0] + right[0], left[1] + right[1]]
        ratio = gain_ratio(parent, [list(left), list(right)])
        assert 0.0 <= ratio <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
            min_size=2, max_size=4,
        )
    )
    def test_multiclass_ratio_non_negative(self, parts):
        assume(sum(sum(p) for p in parts) > 0)
        parent = [sum(p[i] for p in parts) for i in range(3)]
        assert gain_ratio(parent, [list(p) for p in parts]) >= 0.0


class TestC45:
    def test_single_class_rows_give_leaf(self):
        ds = make_dataset([[0.1], [0.5], [0.9], [0.2]], [0, 0, 0, 1])
        tree = c45_fit(ds, rows=[0, 1, 2])  # all class 0
        assert tree.feature.tolist() == [-1]
        assert np.argmax(tree.value[0]) == 0

    def test_no_features_gives_a_leaf(self):
        ds = make_dataset(np.empty((4, 0)), [0, 1, 0, 1])
        for tree in [c45_fit(ds)] + rf_fit(ds, n_trees=2).trees + forest_pa_fit(ds, n_trees=2).trees:
            assert tree.feature.tolist() == [-1]

    def test_xor_needs_depth_two(self):
        pts = [(0.0, 0.0, 0), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)]
        rows = pts * 100
        feats = np.array([[a, b] for a, b, _ in rows])
        labels = np.array([c for _, _, c in rows])
        # no single threshold split separates xor
        score, _, _ = brute_force_best_split(feats, labels, 2)
        assert score == 0.0
        ds = make_dataset(feats, labels)
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        assert tree.feature.size >= 3
        assert tree_height(tree) >= 2
        pred = tree_predict_batch(tree, feats).argmax(axis=1)
        assert (pred == labels).all()

    def test_play_tennis_root_matches_brute_force(self, play_tennis_dataset):
        ds = play_tennis_dataset
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        score, feature, thr = brute_force_best_split(
            ds.features, ds.labels, ds.n_classes)
        assert tree.feature[0] == feature
        root_counts = np.bincount(ds.labels, minlength=ds.n_classes)
        left = ds.features[:, tree.feature[0]] <= tree.threshold[0]
        achieved = gain_ratio(root_counts, [
            np.bincount(ds.labels[left], minlength=ds.n_classes),
            np.bincount(ds.labels[~left], minlength=ds.n_classes),
        ])
        assert achieved == pytest.approx(score, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_root_split_matches_brute_force_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        d = int(rng.integers(1, 5))
        feats = rng.integers(0, 4, size=(n, d)).astype(float)
        labels = rng.integers(0, 2, n)
        assume(labels.min() != labels.max())
        ds = make_dataset(feats, labels)
        score, feature, thr = brute_force_best_split(ds.features, ds.labels, 2)
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        if score <= 0.0 and tree.feature[0] < 0:
            return
        left = ds.features[:, tree.feature[0]] <= tree.threshold[0]
        achieved = gain_ratio(np.bincount(labels, minlength=2), [
            np.bincount(labels[left], minlength=2),
            np.bincount(labels[~left], minlength=2),
        ])
        assert achieved == pytest.approx(score, rel=1e-9)

    def test_full_growth_memorizes_unique_rows(self):
        rng = np.random.default_rng(5)
        feats = rng.random((60, 4))
        labels = rng.integers(0, 3, 60)
        ds = make_dataset(feats, labels)
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        pred = tree_predict_batch(tree, feats).argmax(axis=1)
        assert (pred == labels).all()

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(8)
        feats = rng.random((40, 3))
        labels = rng.integers(0, 2, 40)
        ds = make_dataset(feats, labels)
        tree = c45_fit(ds, params=TreeParams(min_leaf=5, min_gain=0.0))
        # every leaf carries at least min_leaf training rows: verify by
        # routing the training data
        rows_per_node = np.bincount([oracle_leaf(tree, row) for row in feats],
                                    minlength=tree.feature.size)
        assert rows_per_node[tree.feature < 0].min() >= 5


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(case=split_nodes())
    def test_matches_row_sweep_oracle_bit_for_bit(self, case):
        ds, positions, candidates, weights, min_leaf = case
        codes, values = _value_codes(ds, np.arange(ds.n_rows))
        y = ds.labels[positions]
        got = _best_split(codes[positions], y.astype(codes.dtype), candidates, weights,
                          min_leaf, values, np.bincount(y, minlength=ds.n_classes),
                          _log_tables(positions.size))
        onehot = np.eye(ds.n_classes)[y]
        want = oracle_best_split(ds.features[positions], onehot, candidates, weights, min_leaf)
        assert repr(got) == repr(want)


class TestGoldenModels:
    """Model documents recorded from the per-row sweep that the value-code
    split search replaced; the search must reproduce them byte for byte."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return recorded_models("tree_golden.json")

    @pytest.mark.parametrize("name", ["c45", "c45_full", "rf", "forest_pa"])
    def test_document_matches_recording(self, recorded, name):
        assert_document_matches(model_to_doc(golden_models()[name]), recorded[name], name)

    @pytest.mark.parametrize("name", ["c45", "c45_full", "rf", "forest_pa"])
    def test_recorded_document_loads_unchanged(self, recorded, name):
        assert model_to_doc(model_from_doc(recorded[name])) == recorded[name]


class TestManyClassGoldenModels:
    """Model documents recorded on a 15-class table before the split search
    scored candidates on integer counts and log tables; the search must
    reproduce them byte for byte."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return recorded_models("tree_golden_15class.json")

    @pytest.fixture(scope="class")
    def fitted(self):
        return many_class_models()

    @pytest.mark.parametrize("name", ["c45", "rf", "forest_pa"])
    def test_document_matches_recording(self, recorded, fitted, name):
        assert_document_matches(model_to_doc(fitted[name]), recorded[name], name)


class TestTreePredict:
    def test_single_leaf_distribution(self):
        ds = make_dataset([[0.2], [0.4], [0.6]], [1, 1, 0])
        tree = c45_fit(ds, rows=[0, 1])
        dist = tree_predict_batch(tree, [[0.77]])[0]
        # Laplace smoothing over 2 rows of class 1: (0+1)/(2+2), (2+1)/(2+2)
        assert dist == pytest.approx([0.25, 0.75])

    def test_training_rows_recover_labels(self):
        rng = np.random.default_rng(2)
        feats = rng.random((50, 3))
        labels = (feats[:, 0] > 0.5).astype(int)
        ds = make_dataset(feats, labels)
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        for i in range(50):
            assert np.argmax(tree_predict_batch(tree, feats[i:i + 1])[0]) == labels[i]

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng.random((80, 4)), rng.integers(0, 3, 80))
        tree = c45_fit(ds)
        probes = rng.uniform(-2, 3, size=(1000, 4))
        sums = tree_predict_batch(tree, probes).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        ds = make_dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        tree = c45_fit(ds)
        with pytest.raises(InputError):
            tree_predict_batch(tree, [[0.5]])

    @pytest.mark.parametrize("kind", ["c45", "rf", "forest_pa", "chain"])
    def test_batch_matches_oracle_walk_bit_for_bit(self, kind):
        ds = make_blobs(seed=6, n=150, d=5, spread=0.4)
        fits = {"c45": lambda: [c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))],
                "rf": lambda: rf_fit(ds, n_trees=4, seed=2).trees,
                "forest_pa": lambda: forest_pa_fit(ds, n_trees=4, seed=2).trees,
                "chain": lambda: [chain_tree(1500)]}
        # training rows, their midpoints (ties with thresholds) and far probes
        probes = np.vstack([ds.features, (ds.features[:-1] + ds.features[1:]) / 2,
                            np.random.default_rng(1).uniform(-2, 3, (100, 5))])
        if kind == "chain":
            # ties with the thresholds at both ends of the chain, beyond them and between
            probes = np.concatenate([np.arange(-1.0, 30.0, 0.5), np.arange(1470.0, 1502.0, 0.5),
                                     np.random.default_rng(1).uniform(30, 1470, 20)])[:, None]
        for tree in fits[kind]():
            expected = np.array([tree.value[oracle_leaf(tree, row)] for row in probes])
            assert tree_predict_batch(tree, probes).tobytes() == expected.tobytes()
            for row, dist in zip(probes[::25], expected[::25]):
                assert tree_predict_batch(tree, row[None])[0].tobytes() == dist.tobytes()


class TestRandomForest:
    def test_single_tree_equals_manual_bootstrap(self):
        ds = make_blobs(seed=1, n=80, d=6)
        forest = rf_fit(ds, n_trees=1, seed=42)
        # replay the documented per-tree rng protocol: the bootstrap positions
        # first, then the per-node feature samples from the same rng
        tree_seed = int(np.random.SeedSequence([42, 0]).generate_state(1)[0])
        rng = np.random.default_rng(tree_seed)
        positions = rng.integers(0, ds.n_rows, ds.n_rows)
        codes, values = _value_codes(ds, np.arange(ds.n_rows))
        manual = _fit_tree(ds, codes[positions], values, ds.labels[positions], TreeParams(),
                           None, math.ceil(math.sqrt(6)), rng, _log_tables(ds.n_rows))
        probes = np.random.default_rng(0).random((200, 6))
        assert np.array_equal(tree_predict_batch(forest.trees[0], probes),
                              tree_predict_batch(manual, probes))

    def test_oob_range_and_presence(self):
        ds = make_blobs(seed=3, n=200, d=8)
        forest = rf_fit(ds, n_trees=20, seed=7)
        assert forest.oob_error is not None
        assert 0.0 <= forest.oob_error <= 1.0

    def test_oob_absent_for_single_tree(self):
        # with one tree, every in-bag row appears in every bootstrap
        ds = make_blobs(seed=3, n=60, d=4)
        forest = rf_fit(ds, n_trees=1, seed=7)
        assert forest.oob_error is None

    def test_oob_small_on_separable_blobs(self):
        ds = make_blobs(seed=11, n=500, d=10)
        forest = rf_fit(ds, n_trees=40, seed=5)
        assert forest.oob_error <= 0.05

    def test_thread_count_does_not_change_model(self):
        ds = make_blobs(seed=2, n=150, d=6)
        one = rf_fit(ds, n_trees=12, seed=9, threads=1)
        four = rf_fit(ds, n_trees=12, seed=9, threads=4)
        assert model_to_doc(one) == model_to_doc(four)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, threads):
        ds = make_blobs(seed=2, n=40, d=3)
        with pytest.raises(InputError, match="at least one thread"):
            rf_fit(ds, n_trees=2, threads=threads)


class TestForestPA:
    def test_weight_range_values(self):
        lo, hi = weight_range(1, rho=1e-4)
        assert lo == 0.0
        assert hi == pytest.approx(math.exp(-1.0), abs=1e-9)
        lo2, hi2 = weight_range(2, rho=1e-4)
        assert lo2 == pytest.approx(0.36798, abs=1e-5)
        assert hi2 == pytest.approx(0.60653, abs=1e-5)

    def test_weight_bands_non_overlapping(self):
        prev_hi = 0.0
        for level in range(1, 12):
            lo, hi = weight_range(level, rho=1e-4)
            assert lo >= prev_hi or level == 1
            assert hi > lo
            prev_hi = hi

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -1e-4])
    def test_rho_must_be_finite_and_positive(self, rho):
        ds = make_blobs(seed=6, n=40, d=3)
        with pytest.raises(InputError, match="rho must be finite and positive"):
            weight_range(2, rho)
        with pytest.raises(InputError, match="rho must be finite and positive"):
            forest_pa_fit(ds, n_trees=1, rho=rho)

    def test_increment_formula(self):
        assert weight_increment(0.4, height=3, level=2) == pytest.approx(0.3)

    def test_saturated_weight_increment_zero(self):
        assert weight_increment(1.0, height=4, level=2) == 0.0

    def test_weights_stay_in_unit_interval(self):
        ds = make_blobs(seed=6, n=120, d=7)
        forest = forest_pa_fit(ds, n_trees=25, seed=3)
        w = forest.attribute_weights.weights
        assert (w > 0.0).all()
        assert (w <= 1.0).all()

    def test_latest_tree_weights_inside_their_band(self):
        ds = make_blobs(seed=8, n=150, d=6)
        forest = forest_pa_fit(ds, n_trees=10, seed=2)
        state = forest.attribute_weights
        last_tree = forest.trees[-1]
        # recompute the levels tested by the last tree
        levels = {}
        for feature, depth in zip(last_tree.feature, last_tree.depth):
            if feature >= 0:
                levels[feature] = min(levels.get(feature, depth + 1), depth + 1)
        assert levels, "last tree tested no attribute"
        for attr, level in levels.items():
            lo, hi = weight_range(level, rho=1e-4)
            assert lo <= state.weights[attr] <= hi
            assert state.last_level[attr] == level

    def test_untested_attributes_keep_weight_one(self):
        # the label-leak feature dominates; weak noise columns may never be
        # tested and must keep weight exactly 1
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 100)
        feats = rng.random((100, 6))
        feats[:, 0] = labels
        ds = make_dataset(feats, labels)
        forest = forest_pa_fit(ds, n_trees=3, seed=1,
                               params=TreeParams(min_leaf=1, min_gain=0.0))
        state = forest.attribute_weights
        for attr in range(6):
            if state.last_level[attr] == 0:
                assert state.weights[attr] == 1.0

    def test_deterministic(self):
        ds = make_blobs(seed=4, n=100, d=5)
        a = forest_pa_fit(ds, n_trees=8, seed=11)
        b = forest_pa_fit(ds, n_trees=8, seed=11)
        assert model_to_doc(a) == model_to_doc(b)


class TestForestPredict:
    def test_single_tree_forest_matches_tree(self):
        ds = make_blobs(seed=5, n=90, d=5)
        forest = rf_fit(ds, n_trees=1, seed=0)
        row = ds.features[3:4]
        assert np.array_equal(forest.predict_batch(row), forest.trees[0].predict_batch(row))

    def test_single_row_matches_oracle_mean_bit_for_bit(self):
        ds = make_blobs(seed=8, n=120, d=4, spread=0.4)
        probes = np.random.default_rng(4).uniform(-1, 2, (40, 4))
        for forest in (rf_fit(ds, n_trees=5, seed=3), forest_pa_fit(ds, n_trees=5, seed=3)):
            batch = forest.predict_batch(probes)
            for row, dist in zip(probes, batch):
                acc = np.zeros(forest.n_classes)
                for tree in forest.trees:
                    acc += tree.value[oracle_leaf(tree, row)]
                expected = acc / len(forest.trees)
                assert dist.tobytes() == expected.tobytes()
                assert forest.predict_batch(row[None])[0].tobytes() == expected.tobytes()

    def test_mean_of_two_votes(self):
        forest = Forest([leaf_tree([1.0, 0.0], 2), leaf_tree([0.0, 1.0], 2)],
                        "random_forest", [0, 1])
        assert forest.predict_batch([[0.0, 0.0]])[0] == pytest.approx([0.5, 0.5])

    def test_distributions_sum_to_one(self):
        ds = make_blobs(seed=7, n=120, d=6)
        forest = rf_fit(ds, n_trees=9, seed=1)
        probes = np.random.default_rng(3).random((200, 6))
        sums = forest.predict_batch(probes).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)


@pytest.fixture(scope="module")
def fitted_models():
    ds = make_tied_dataset(seed=5, n=200, classes=3)
    return {"c45": c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0)),
            "rf": rf_fit(ds, n_trees=4, seed=5),
            "forest_pa": forest_pa_fit(ds, n_trees=4, seed=5)}


class TestStackedWalk:
    """A tree or forest predicts in one walk over its trees stacked end to end."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_mean_bit_for_bit(self, fitted_models, mixed_heights, data):
        """Each fitted model alone, and a 1500-level chain stacked with a
        depth-2 forest in one VoteEnsemble, whole batches and row by row."""
        name = data.draw(st.sampled_from(sorted(fitted_models) + ["mixed heights"]))
        models = [fitted_models[name]] if name in fitted_models else mixed_heights
        thresholds = sorted({t for model in models for tree in members(model)
                             for t in tree.threshold[tree.feature >= 0]})
        cell = (st.sampled_from(thresholds) | st.sampled_from([math.nan, math.inf, -math.inf])
                | st.floats(-0.5, 1.5))
        d = models[0].n_features
        probes = np.array(data.draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                             max_size=12)), dtype=np.float64).reshape(-1, d)
        expected = np.stack([oracle_mean(members(model), probes) for model in models])
        for model, want in zip(models, expected):
            assert model.predict_batch(probes).tobytes() == want.tobytes()
        stack = VoteEnsemble(members=models).stack
        assert stack.predict(probes).tobytes() == expected.tobytes()
        for i in range(len(probes)):
            assert stack.predict(probes[i:i + 1]).tobytes() == expected[:, i:i + 1].tobytes()

    def test_negative_zero_leaf_predicts_positive_zero(self, tmp_path):
        """Leaf distributions are added to zeros, so a loaded leaf that holds
        -0.0 predicts +0.0 through a tree, a one-tree forest and an ensemble."""
        doc = model_to_doc(chain_tree(1))
        first_leaf(doc)["distribution"] = [-0.0, 1.0]
        path = tmp_path / "c45.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        tree = load_model(str(path))
        assert np.signbit(tree.value[1, 0])
        probes = np.array([[0.0], [1.0]])
        expected = np.array([[0.0, 1.0], [0.25, 0.75]]).tobytes()
        ens = VoteEnsemble(members=[tree])
        for got in (tree_predict_batch(tree, probes),
                    Forest([tree], "random_forest", [0]).predict_batch(probes),
                    ens.stack.predict(probes)[0], ensemble_predict_batch(ens, probes)[1]):
            assert got.tobytes() == expected

    def test_one_class_single_row_adds_in_tree_order(self):
        """One class and one row leave each model a single sum cell, which
        numpy's reduction would add pairwise; the walk adds in tree order."""
        leaves = np.random.default_rng(0).uniform(1 - 1e-9, 1 + 1e-9, 40)
        forest = Forest([leaf_tree([p], 1) for p in leaves], "random_forest", list(range(40)))
        for rows in (np.zeros((1, 1)), np.zeros((3, 1))):
            assert forest.predict_batch(rows).tobytes() == \
                oracle_mean(forest.trees, rows).tobytes()

    @pytest.mark.parametrize("name", ["c45", "rf", "forest_pa"])
    def test_zero_row_batch(self, fitted_models, name):
        model = fitted_models[name]
        assert model.predict_batch(np.empty((0, model.n_features))).shape == (0, model.n_classes)

    def test_forest_of_unequal_widths_rejected(self):
        forest = Forest([leaf_tree([1.0, 0.0], 2), leaf_tree([0.0, 1.0], 3)],
                        "random_forest", [0, 1])
        for width in (2, 3):
            with pytest.raises(InputError):
                forest.predict_batch(np.zeros((4, width)))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_empty_forest_rejected(self, rows):
        forest = Forest([], "random_forest", [])
        with pytest.raises(InputError, match="at least one tree"):
            forest.predict_batch(np.zeros((rows, 2)))

    def test_walker_state_held_for_one_block(self, fitted_models):
        """A 100-tree forest over 20,000 rows has 2M (tree, row) walkers, at
        24 B or more each; rows walk in blocks, so the walk holds one block's
        worth of them (and the stacked trees) next to its output, and more
        rows add only their output."""
        tree = fitted_models["c45"]
        forest = Forest([tree] * 100, "random_forest", list(range(100)))
        rows = np.random.default_rng(0).uniform(-0.5, 1.5, (20_000, tree.n_features))
        few, many = (traced_peak(lambda: forest.predict_batch(rows[:n]))
                     for n in (2_000, 20_000))
        row_bytes = tree.n_classes * 8
        assert many - 20_000 * row_bytes < 256 * WALKERS_PER_BLOCK
        assert many - few < 18_000 * row_bytes + 8 * WALKERS_PER_BLOCK

    @pytest.mark.parametrize("name", ["c45", "rf", "forest_pa"])
    def test_document_with_zero_depths_predicts_like_oracle(self, fitted_models, name):
        """The walk stops when every walker is at a leaf, never after a
        number of levels read from depth, which the loader does not check."""
        doc = model_to_doc(fitted_models[name])
        assert max(tree_height(tree) for tree in members(fitted_models[name])) > 1
        for tree_doc in doc.get("trees", [doc]):
            for node in tree_doc["nodes"]:
                node["depth"] = 0
        model = model_from_doc(doc)
        probes = np.random.default_rng(6).uniform(-0.5, 1.5, (200, model.n_features))
        assert model.predict_batch(probes).tobytes() == \
            oracle_mean(members(model), probes).tobytes()


def first_leaf(doc):
    return next(node for node in doc["nodes"] if "distribution" in node)


# Saved documents broken in one place each: (model kind, how it is broken).
MALFORMED = {
    "child index -1": ("c45", lambda doc: doc["nodes"][0].update(left=-1)),
    "child index past the list": ("c45", lambda doc: doc["nodes"][0].update(
        right=len(doc["nodes"]))),
    "short leaf distribution": ("c45", lambda doc: first_leaf(doc).update(distribution=[1.0])),
    "missing threshold": ("c45", lambda doc: doc["nodes"][0].pop("threshold")),
    "missing params": ("c45", lambda doc: doc.pop("params")),
    "split feature out of range": ("c45", lambda doc: doc["nodes"][0].update(feature=99)),
    "split feature -1": ("c45", lambda doc: doc["nodes"][0].update(feature=-1)),
    "forest without trees": ("random_forest", lambda doc: doc.update(trees=[])),
    "empty node list": ("c45", lambda doc: doc.update(nodes=[])),
    "child index true": ("c45", lambda doc: doc["nodes"][0].update(left=True)),
    "threshold as a string": ("c45", lambda doc: doc["nodes"][0].update(threshold="0.5")),
    "forest trees of different widths": ("forest_pa", lambda doc: doc["trees"][1].update(
        n_features=doc["trees"][1]["n_features"] + 1)),
    "attribute weights cut short": ("forest_pa", lambda doc: doc["attribute_weights"].update(
        weights=doc["attribute_weights"]["weights"][:2])),
    "attribute weight as a string": ("forest_pa", lambda doc: doc["attribute_weights"][
        "weights"].__setitem__(0, "0.5")),
    "last level not an integer": ("forest_pa", lambda doc: doc["attribute_weights"][
        "last_level"].__setitem__(0, 1.7)),
    "attribute weight negative": ("forest_pa", lambda doc: doc["attribute_weights"][
        "weights"].__setitem__(0, -1.0)),
    "attribute weight zero": ("forest_pa", lambda doc: doc["attribute_weights"][
        "weights"].__setitem__(0, 0.0)),
    "attribute weight above 1": ("forest_pa", lambda doc: doc["attribute_weights"][
        "weights"].__setitem__(0, 1.5)),
    "attribute weight NaN": ("forest_pa", lambda doc: doc["attribute_weights"][
        "weights"].__setitem__(0, math.nan)),
    "last level negative": ("forest_pa", lambda doc: doc["attribute_weights"][
        "last_level"].__setitem__(1, -5)),
    "increment negative": ("forest_pa", lambda doc: doc["attribute_weights"][
        "increments"].__setitem__(0, -0.25)),
    "increment above 1": ("forest_pa", lambda doc: doc["attribute_weights"][
        "increments"].__setitem__(0, 1.5)),
    "bootstrap seeds as a string": ("forest_pa", lambda doc: doc.update(bootstrap_seeds="abc")),
    "one bootstrap seed short": ("random_forest", lambda doc: doc["bootstrap_seeds"].pop()),
    "oob error as a string": ("random_forest", lambda doc: doc.update(oob_error="x")),
    "oob error above 1": ("random_forest", lambda doc: doc.update(oob_error=1.5)),
    "subspace size negative": ("random_forest", lambda doc: doc.update(subspace_size=-4)),
    "subspace size above the feature count": ("random_forest", lambda doc: doc.update(
        subspace_size=doc["trees"][0]["n_features"] + 1)),
}


def document_paths(doc, path=()):
    """The key path of every value in a JSON document, containers included."""
    paths = []
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        paths.append(path + (key,))
        if isinstance(value, (dict, list)):
            paths += document_paths(value, path + (key,))
    return paths


@pytest.fixture(scope="module")
def saved_docs():
    """Small saved documents of each model kind, to be broken by the tests."""
    ds = make_tied_dataset(seed=3, n=120, classes=3)
    return {"c45": model_to_doc(c45_fit(ds)),
            "random_forest": model_to_doc(rf_fit(ds, n_trees=2, seed=1)),
            "forest_pa": model_to_doc(forest_pa_fit(ds, n_trees=2, seed=1))}


class TestSerialization:
    def test_deep_chain_round_trip_bit_exact(self, tmp_path):
        tree = chain_tree(1500)
        assert tree_height(tree) == 1500
        path = tmp_path / "chain.json"
        save_model(tree, str(path))
        back = load_model(str(path))
        probes = np.arange(-1.0, 1502.0, 0.5)[:, None]
        assert np.array_equal(tree_predict_batch(tree, probes),
                              tree_predict_batch(back, probes))
        assert model_to_doc(back) == model_to_doc(tree)

    def test_document_lists_nodes_in_preorder(self):
        doc = model_to_doc(chain_tree(1))
        assert doc["nodes"] == [
            {"depth": 0, "feature": 0, "threshold": 0.5, "left": 1, "right": 2},
            {"depth": 1, "distribution": [0.5, 0.5]},
            {"depth": 1, "distribution": [0.25, 0.75]},
        ]

    def test_editing_document_leaves_model_unchanged(self):
        ds = make_blobs(seed=3, n=60, d=4)
        forest = forest_pa_fit(ds, n_trees=2, seed=1)
        before = model_to_doc(forest)
        doc = model_to_doc(forest)
        doc["trees"][0]["params"]["min_leaf"] = 99
        doc["attribute_weights"]["weights"][0] = -1.0
        assert forest.trees[0].params.min_leaf == TreeParams().min_leaf
        assert model_to_doc(forest) == before

    def test_non_utf8_model_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(chain_tree(1), str(path))
        path.write_bytes(path.read_bytes().replace(b'"nodes"', b'"n\xffdes"'))
        with pytest.raises(InputError, match="model.json"):
            load_model(str(path))

    def test_deeply_nested_model_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(InputError, match="malformed model file"):
            load_model(str(path))

    def test_cyclic_links_rejected(self):
        doc = model_to_doc(chain_tree(2))
        doc["nodes"][2]["right"] = 0
        with pytest.raises(InputError):
            model_from_doc(doc)

    def test_tree_round_trip_bit_exact(self, tmp_path):
        ds = make_blobs(seed=1, n=100, d=6)
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        path = tmp_path / "tree.json"
        save_model(tree, str(path))
        back = load_model(str(path))
        probes = np.random.default_rng(1).random((500, 6))
        assert np.array_equal(tree_predict_batch(tree, probes),
                              tree_predict_batch(back, probes))

    def test_forest_round_trip_bit_exact(self, tmp_path):
        ds = make_blobs(seed=2, n=100, d=5)
        for forest in (rf_fit(ds, n_trees=5, seed=3),
                       forest_pa_fit(ds, n_trees=5, seed=3)):
            path = tmp_path / f"{forest.kind}.json"
            save_model(forest, str(path))
            back = load_model(str(path))
            probes = np.random.default_rng(2).random((300, 5))
            assert np.array_equal(forest.predict_batch(probes),
                                  back.predict_batch(probes))
            assert back.kind == forest.kind
            assert back.bootstrap_seeds == forest.bootstrap_seeds

    def test_doc_is_json_serializable(self):
        ds = make_blobs(seed=3, n=60, d=4)
        doc = model_to_doc(rf_fit(ds, n_trees=2, seed=1))
        text = json.dumps(doc)
        assert model_to_doc(model_from_doc(json.loads(text))) == doc

    def test_unknown_version_rejected(self):
        ds = make_blobs(seed=3, n=40, d=3)
        doc = model_to_doc(c45_fit(ds))
        doc["version"] = 99
        with pytest.raises(InputError):
            model_from_doc(doc)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_document_rejected(self, saved_docs, case):
        kind, corrupt = MALFORMED[case]
        doc = copy.deepcopy(saved_docs[kind])
        corrupt(doc)
        with pytest.raises(InputError):
            model_from_doc(doc)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_broken_document_rejected_or_predicts_distributions(self, saved_docs, data):
        """Drop a key, or change an index, a length or a type, anywhere in a
        saved document: loading raises InputError or gives a model whose
        predictions are class distributions."""
        doc = copy.deepcopy(saved_docs[data.draw(st.sampled_from(sorted(saved_docs)))])
        *parents, key = data.draw(st.sampled_from(document_paths(doc)))
        holder = doc
        for step in parents:
            holder = holder[step]
        change = data.draw(st.sampled_from(["drop", "index", "length", "type"]))
        if change == "drop":
            del holder[key]
        elif change == "index":
            holder[key] = data.draw(st.integers(-3, 120) | st.sampled_from([2**63, 2**70]))
        elif change == "length" and isinstance(holder[key], list):
            cut = data.draw(st.integers(0, len(holder[key])))
            holder[key] = holder[key][:cut] if data.draw(st.booleans()) else \
                holder[key] + holder[key][:cut]
        else:
            holder[key] = data.draw(st.sampled_from(
                [None, True, "1", 0.5, 1e308, math.nan, [], {}, [1.0], [holder[key]]]))
        try:
            model = model_from_doc(doc)
        except InputError:
            return
        # a document may validly claim more features than a test row can hold
        assume(model.n_features <= 1000)
        probes = np.random.default_rng(0).uniform(-1, 2, (64, model.n_features))
        out = model.predict_batch(probes)
        assert out.shape == (64, model.n_classes)
        assert (out >= 0).all() and np.allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)
