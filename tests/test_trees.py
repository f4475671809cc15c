import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idsforge.errors import InputError
from idsforge.trees import (DecisionTree, TreeNode, TreeParams, c45_fit,
                            entropy, forest_pa_fit,
                            forest_predict, gain_ratio, load_model,
                            model_from_doc, model_to_doc, rf_fit, save_model,
                            split_info, tree_height, tree_predict,
                            tree_predict_batch, weight_increment, weight_range)

from conftest import make_blobs, make_dataset


def brute_force_best_split(X, y, n_classes, min_leaf=1):
    """Exhaustive (feature, threshold) search scored with the public
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
        assert tree.root.is_leaf
        assert np.argmax(tree.root.distribution) == 0

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
        n_nodes = 0
        stack = [tree.root]
        while stack:
            node = stack.pop()
            n_nodes += 1
            if not node.is_leaf:
                stack.extend([node.left, node.right])
        assert n_nodes >= 3
        assert tree_height(tree) >= 2
        pred = tree_predict_batch(tree, feats).argmax(axis=1)
        assert (pred == labels).all()

    def test_play_tennis_root_matches_brute_force(self, play_tennis_dataset):
        ds = play_tennis_dataset
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        score, feature, thr = brute_force_best_split(
            ds.features, ds.labels, ds.n_classes)
        assert tree.root.split_feature == feature
        root_counts = np.bincount(ds.labels, minlength=ds.n_classes)
        left = ds.features[:, tree.root.split_feature] <= tree.root.threshold
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
        if score <= 0.0 and tree.root.is_leaf:
            return
        left = ds.features[:, tree.root.split_feature] <= tree.root.threshold
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
        leaves = {}
        for i in range(len(feats)):
            node = tree.root
            while not node.is_leaf:
                node = node.left if feats[i, node.split_feature] <= node.threshold else node.right
            leaves[id(node)] = leaves.get(id(node), 0) + 1
        assert min(leaves.values()) >= 5


class TestTreePredict:
    def test_single_leaf_distribution(self):
        ds = make_dataset([[0.2], [0.4], [0.6]], [1, 1, 0])
        tree = c45_fit(ds, rows=[0, 1])
        dist = tree_predict(tree, [0.77])
        # Laplace smoothing over 2 rows of class 1: (0+1)/(2+2), (2+1)/(2+2)
        assert dist == pytest.approx([0.25, 0.75])

    def test_training_rows_recover_labels(self):
        rng = np.random.default_rng(2)
        feats = rng.random((50, 3))
        labels = (feats[:, 0] > 0.5).astype(int)
        ds = make_dataset(feats, labels)
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        for i in range(50):
            assert np.argmax(tree_predict(tree, feats[i])) == labels[i]

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
            tree_predict(tree, [0.5])


class TestRandomForest:
    def test_single_tree_equals_manual_bootstrap(self):
        ds = make_blobs(seed=1, n=80, d=6)
        forest = rf_fit(ds, n_trees=1, seed=42)
        # replay the documented per-tree rng protocol through the public api
        tree_seed = int(np.random.SeedSequence([42, 0]).generate_state(1)[0])
        rng = np.random.default_rng(tree_seed)
        positions = rng.integers(0, ds.n_rows, ds.n_rows)
        manual = c45_fit(ds, positions, feature_sample=math.ceil(math.sqrt(6)), rng=rng)
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
        stack = [last_tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            levels[node.split_feature] = min(
                levels.get(node.split_feature, node.depth + 1), node.depth + 1)
            stack.append(node.left)
            stack.append(node.right)
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
        row = ds.features[3]
        assert np.array_equal(forest_predict(forest, row),
                              tree_predict(forest.trees[0], row))

    def test_mean_of_two_votes(self):
        from idsforge.trees import DecisionTree, Forest, TreeNode
        t1 = DecisionTree(TreeNode(0, distribution=np.array([1.0, 0.0])), 2, 2, TreeParams())
        t2 = DecisionTree(TreeNode(0, distribution=np.array([0.0, 1.0])), 2, 2, TreeParams())
        forest = Forest([t1, t2], "random_forest", [0, 1])
        assert forest_predict(forest, [0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_distributions_sum_to_one(self):
        ds = make_blobs(seed=7, n=120, d=6)
        forest = rf_fit(ds, n_trees=9, seed=1)
        probes = np.random.default_rng(3).random((200, 6))
        sums = forest.predict_batch(probes).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)


def chain_tree(depth):
    """A one-feature tree whose split nodes each peel one leaf off to the
    left, so it is `depth` edges deep."""
    leaf = TreeNode(depth=depth, distribution=np.array([0.25, 0.75]))
    node = leaf
    for d in range(depth - 1, -1, -1):
        left = TreeNode(depth=d + 1, distribution=np.array([0.75, 0.25]) if d % 2 else
                        np.array([0.5, 0.5]))
        node = TreeNode(depth=d, split_feature=0, threshold=d + 0.5, left=left, right=node)
    return DecisionTree(root=node, n_features=1, n_classes=2, params=TreeParams())


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
