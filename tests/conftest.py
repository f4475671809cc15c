import gc
import os
import tracemalloc

import numpy as np
import pytest

from idsforge.dataset import (Dataset, FeatureMeta, RawTable, encode, filter_table, load_csv,
                              normalize)
from idsforge.trees import DecisionTree, Forest, TreeParams, rf_fit

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def make_dataset(features, labels, class_names=None, normal_class=0):
    """Wrap plain arrays in a Dataset with generic metadata."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if class_names is None:
        class_names = [f"c{i}" for i in range(int(labels.max()) + 1)]
    meta = [
        FeatureMeta(
            name=f"f{j}",
            original_kind="numeric",
            observed_min=float(features[:, j].min()),
            observed_max=float(features[:, j].max()),
        )
        for j in range(features.shape[1])
    ]
    return Dataset(features=features, feature_meta=meta, labels=labels,
                   class_names=class_names, normal_class=normal_class)


def coded_table(column_names, columns, label_column):
    """A RawTable from per-cell token lists, each column coded in order of
    first appearance as load_csv codes it."""
    tokens, codes = [], []
    for column in columns:
        index: dict[str, int] = {}
        codes.append([index.setdefault(cell, len(index)) for cell in column])
        tokens.append(list(index))
    return RawTable(column_names, tokens, codes, label_column)


def column_cells(raw, j):
    """Column j of a RawTable as per-cell tokens."""
    return [raw.tokens[j][code] for code in raw.codes[j].tolist()]


def make_search_dataset(seed):
    """Synthetic selection benchmark: a few noisy label copies plus noise,
    d between 6 and 12, 2 or 3 classes."""
    rng = np.random.default_rng(seed)
    n = 250
    d = 6 + seed % 7
    c = 2 + seed % 2
    labels = rng.integers(0, c, n)
    feats = rng.random((n, d))
    for j in range(2 + seed % 3):
        feats[:, j] = labels / max(c - 1, 1) + rng.normal(0, 0.12 + 0.1 * j, n)
    return normalize(make_dataset(feats, labels))


def make_blobs(seed, n=500, d=10, informative=2, spread=0.08):
    """Two linearly separable classes; only the first `informative` features
    carry signal."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    feats = rng.random((n, d))
    for j in range(informative):
        feats[:, j] = labels * 0.8 + 0.1 + rng.normal(0, spread, n)
    return make_dataset(feats, labels, class_names=["normal", "attack"])


def make_tied_dataset(seed, n=300, classes=4):
    """Tree-growing table full of ties: five grid-valued columns (3 to 9
    levels, two of them tracking the label) and a constant column, with
    every class present and one label in twenty redrawn at random."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % classes)
    levels = (3, 5, 9, 4, 6)
    feats = np.empty((n, len(levels) + 1))
    for j, k in enumerate(levels):
        if j < 2:
            raw = labels * (k - 1) / max(classes - 1, 1) + rng.normal(0, 0.5, n)
            feats[:, j] = np.clip(np.rint(raw), 0, k - 1) / (k - 1)
        else:
            feats[:, j] = rng.integers(0, k, n) / (k - 1)
    feats[:, -1] = 0.5
    flip = rng.random(n) < 0.05
    labels = np.where(flip, rng.integers(0, classes, n), labels)
    return make_dataset(feats, labels)


def make_many_class_dataset(seed, n=200, classes=15):
    """Tree-growing table with CIC-IDS2017's class count: each class's share
    0.6 times the one before, every class present, three grid columns (4, 8
    and 16 levels) tracking the label through noise, two random grid columns
    and one column of three-decimal uniform draws."""
    rng = np.random.default_rng(seed)
    share = 0.6 ** np.arange(classes)
    labels = np.concatenate([np.arange(classes),
                             rng.choice(classes, n - classes, p=share / share.sum())])
    rng.shuffle(labels)
    levels = (4, 8, 16, 3, 7)
    feats = np.empty((n, len(levels) + 1))
    for j, k in enumerate(levels):
        if j < 3:
            raw = labels * (k - 1) / (classes - 1) + rng.normal(0, 0.6, n)
            feats[:, j] = np.clip(np.rint(raw), 0, k - 1) / (k - 1)
        else:
            feats[:, j] = rng.integers(0, k, n) / (k - 1)
    feats[:, -1] = np.round(rng.random(n), 3)
    return make_dataset(feats, labels)


def make_leak_dataset(seed, n=120, d=5, classes=3):
    """Feature 0 is the label itself; everything else is noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, n)
    feats = rng.random((n, d))
    feats[:, 0] = labels
    return make_dataset(feats, labels)


def traced_peak(work) -> int:
    """Peak bytes traced while work() runs, above what was traced before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def oracle_leaf(tree, row):
    """Index of the leaf a row lands in, found by walking the arrays one node
    at a time: the reference for tree_predict_batch."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return node


def members(model):
    return model.trees if isinstance(model, Forest) else [model]


def oracle_mean(trees, rows):
    """Mean of the trees' oracle leaf distributions, added in tree order."""
    acc = np.zeros((len(rows), trees[0].n_classes))
    for tree in trees:
        acc += np.reshape([tree.value[oracle_leaf(tree, row)] for row in rows], acc.shape)
    return acc / len(trees)


def leaf_tree(distribution, n_features):
    """A tree that is a single leaf."""
    return DecisionTree(feature=np.array([-1]), threshold=np.zeros(1), left=np.array([-1]),
                        right=np.array([-1]), depth=np.array([0]),
                        value=np.array([distribution], dtype=np.float64),
                        n_features=n_features, n_classes=len(distribution),
                        params=TreeParams())


def chain_tree(depth):
    """A one-feature tree whose split nodes each peel one leaf off to the
    left, so it is `depth` edges deep: in preorder, the split at depth d is
    node 2d, with threshold d + 0.5, and its left leaf node 2d + 1."""
    index = np.arange(2 * depth + 1)
    split = (index % 2 == 0) & (index < 2 * depth)
    value = np.zeros((index.size, 2))
    value[1::2] = np.where(index[1::2, None] // 2 % 2 == 1, [0.75, 0.25], [0.5, 0.5])
    value[-1] = [0.25, 0.75]
    return DecisionTree(feature=np.where(split, 0, -1),
                        threshold=np.where(split, index // 2 + 0.5, 0.0),
                        left=np.where(split, index + 1, -1), right=np.where(split, index + 2, -1),
                        depth=(index + 1) // 2, value=value, n_features=1, n_classes=2,
                        params=TreeParams())


@pytest.fixture(scope="session")
def mixed_heights():
    """chain_tree(1500) and a forest of depth-2 trees over the same one
    feature, whose thresholds spread over the chain's: in one walk the
    forest's walkers reach their leaves hundreds of levels before the
    chain's."""
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1500, (300, 1))
    ds = make_dataset(x, (x[:, 0] // 250 % 2).astype(np.int64))
    return [chain_tree(1500), rf_fit(ds, n_trees=4, seed=11, params=TreeParams(max_depth=2))]


@pytest.fixture
def play_tennis_raw():
    return load_csv(os.path.join(DATA_DIR, "play_tennis.csv"), label_column="play")


@pytest.fixture
def play_tennis_dataset(play_tennis_raw):
    filtered, _ = filter_table(play_tennis_raw)
    return encode(filtered)
