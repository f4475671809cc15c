"""Gain-ratio decision trees and the two forests built on them.

All splits are binary thresholds on the encoded features. The single-tree
learner accepts per-attribute weights (multiplied into the split score) and a
per-node feature sample, which is how the attribute-penalizing forest and the
random forest reuse one growing engine.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InputError

MODEL_FORMAT = "idsforge-model"
MODEL_VERSION = 1

# Feature count above which the split sweep processes features in chunks to
# bound the (rows x features x classes) temporaries.
_SWEEP_CHUNK_ELEMENTS = 16_000_000


def entropy(counts) -> float:
    """Shannon entropy in bits of a class-count vector, with 0 log 0 = 0."""
    c = np.asarray(counts, dtype=np.float64)
    if (c < 0).any():
        raise InputError("negative class count")
    total = c.sum()
    if total <= 0:
        raise InputError("entropy of an empty set is undefined")
    nz = c[c > 0]
    p = nz / total
    return float(-(p * np.log2(p)).sum())


def split_info(partition_sizes) -> float:
    """Entropy of the partition-size distribution (how evenly a split cuts)."""
    sizes = np.asarray(partition_sizes, dtype=np.float64)
    if (sizes < 0).any():
        raise InputError("negative partition size")
    total = sizes.sum()
    if total <= 0:
        raise InputError("split info of an empty partition is undefined")
    nz = sizes[sizes > 0]
    p = nz / total
    return float(-(p * np.log2(p)).sum())


def gain_ratio(parent_counts, child_counts_list) -> float:
    """Information gain divided by split info; 0 when the gain or the split
    info is not positive."""
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


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 2
    max_depth: int | None = None
    min_gain: float = 1e-6

    def __post_init__(self):
        if self.min_leaf < 1:
            raise InputError("min_leaf must be at least 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise InputError("max_depth must be at least 1 when set")
        if self.min_gain < 0:
            raise InputError("min_gain must be non-negative")


@dataclass
class TreeNode:
    depth: int
    distribution: np.ndarray | None = None  # leaf payload, sums to 1
    split_feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.distribution is not None


@dataclass
class DecisionTree:
    root: TreeNode
    n_features: int
    n_classes: int
    params: TreeParams

    def predict(self, row) -> np.ndarray:
        return tree_predict(self, row)

    def predict_batch(self, rows) -> np.ndarray:
        return tree_predict_batch(self, rows)


@dataclass
class AttributeWeights:
    """Per-attribute split-score multipliers for the penalizing forest.

    last_level is the level (root = 1) at which the attribute was most
    recently tested, 0 for never; increments holds the per-tree restoration
    step computed when the attribute last received a fresh weight.
    """

    weights: np.ndarray
    last_level: np.ndarray
    increments: np.ndarray

    @classmethod
    def fresh(cls, d: int) -> "AttributeWeights":
        return cls(
            weights=np.ones(d, dtype=np.float64),
            last_level=np.zeros(d, dtype=np.int64),
            increments=np.zeros(d, dtype=np.float64),
        )


@dataclass
class Forest:
    trees: list[DecisionTree]
    kind: str  # "random_forest" | "forest_pa"
    bootstrap_seeds: list[int]
    oob_error: float | None = None
    subspace_size: int | None = None
    attribute_weights: AttributeWeights | None = None

    def predict(self, row) -> np.ndarray:
        return forest_predict(self, row)

    def predict_batch(self, rows) -> np.ndarray:
        return forest_predict_batch(self, rows)

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    @property
    def n_classes(self) -> int:
        return self.trees[0].n_classes


def _entropy_of_count_rows(counts, totals):
    # H = log2(N) - sum(c log2 c) / N over the last axis, 0 log 0 = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(counts > 0, counts * np.log2(np.where(counts > 0, counts, 1.0)), 0.0)
    return np.log2(totals) - term.sum(axis=-1) / totals


def _best_split(X, onehot, feature_ids, weights, min_leaf):
    """Best (feature, threshold, weighted gain ratio) over midpoint candidates.

    Returns None when no candidate satisfies min_leaf on both sides. Ties pick
    the lowest feature index, then the lowest threshold.
    """
    n = X.shape[0]
    parent_counts = onehot.sum(axis=0)
    h_parent = float(_entropy_of_count_rows(parent_counts, float(n)))

    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    size_ok = (left_n >= min_leaf) & (right_n >= min_leaf)
    pl = left_n / n
    pr = right_n / n
    info = -(pl * np.log2(pl) + pr * np.log2(pr))

    best_score = -math.inf
    best_feature = None
    best_threshold = None

    c = onehot.shape[1]
    chunk_size = max(1, _SWEEP_CHUNK_ELEMENTS // max(1, n * c))
    for start in range(0, len(feature_ids), chunk_size):
        chunk = feature_ids[start:start + chunk_size]
        cols = X[:, chunk]
        order = np.argsort(cols, axis=0, kind="stable")
        sorted_vals = np.take_along_axis(cols, order, axis=0)
        cum = np.cumsum(onehot[order], axis=0)[:-1]  # (n-1, m, c) left counts
        boundary = sorted_vals[1:] != sorted_vals[:-1]
        valid = boundary & size_ok
        if not valid.any():
            continue
        h_left = _entropy_of_count_rows(cum, left_n)
        h_right = _entropy_of_count_rows(parent_counts[None, None, :] - cum, right_n)
        gain = h_parent - pl * h_left - pr * h_right
        ratio = np.where(gain > 0, gain / info, 0.0)
        if weights is not None:
            ratio = ratio * weights[chunk][None, :]
        ratio = np.where(valid, ratio, -np.inf)
        flat = ratio.T.reshape(-1)  # feature-major so argmax ties prefer low index
        pos = int(np.argmax(flat))
        score = float(flat[pos])
        if score > best_score:
            f_local, boundary_i = divmod(pos, n - 1)
            best_score = score
            best_feature = int(chunk[f_local])
            best_threshold = float(
                (sorted_vals[boundary_i, f_local] + sorted_vals[boundary_i + 1, f_local]) / 2.0
            )
    if best_feature is None:
        return None
    return best_feature, best_threshold, best_score


def _grow(X, onehot, params, weights, feature_sample, rng, tested):
    """Iterative preorder construction (node, left subtree, right subtree), so
    per-node rng draws happen in the same order a recursive build would make
    and arbitrarily deep trees stay off the Python stack."""
    d = X.shape[1]
    holder = TreeNode(depth=-1)  # temporary parent for the root
    work = [(X, onehot, 0, holder, "left")]
    while work:
        X_node, oh_node, depth, parent, slot = work.pop()
        n, c = oh_node.shape
        counts = oh_node.sum(axis=0)

        split = None
        depth_ok = params.max_depth is None or depth < params.max_depth
        if counts.max() < n and n >= 2 * params.min_leaf and depth_ok:
            if feature_sample is not None and feature_sample < d:
                candidates = np.sort(rng.choice(d, size=feature_sample, replace=False))
            else:
                candidates = np.arange(d)
            best = _best_split(X_node, oh_node, candidates, weights, params.min_leaf)
            if best is not None and best[2] >= params.min_gain:
                split = best

        if split is None:
            node = TreeNode(depth=depth, distribution=(counts + 1.0) / (n + c))
            setattr(parent, slot, node)
            continue

        feat, threshold, _ = split
        level = depth + 1
        if feat not in tested or level < tested[feat]:
            tested[feat] = level
        node = TreeNode(depth=depth, split_feature=feat, threshold=threshold)
        setattr(parent, slot, node)
        go_left = X_node[:, feat] <= threshold
        # right pushed first so the left subtree is built first
        work.append((X_node[~go_left], oh_node[~go_left], depth + 1, node, "right"))
        work.append((X_node[go_left], oh_node[go_left], depth + 1, node, "left"))
    return holder.left


def _fit_tree(ds, rows, params, weights, feature_sample, rng):
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise InputError("cannot fit a tree on zero rows")
    X = ds.features[rows]
    y = ds.labels[rows]
    c = ds.n_classes
    onehot = np.zeros((rows.size, c), dtype=np.float64)
    onehot[np.arange(rows.size), y] = 1.0
    tested: dict[int, int] = {}
    root = _grow(X, onehot, params, weights, feature_sample, rng, tested)
    tree = DecisionTree(root=root, n_features=ds.n_features, n_classes=c, params=params)
    return tree, tested


def c45_fit(ds: Dataset, rows=None, params: TreeParams | None = None,
            weights: np.ndarray | None = None, feature_sample: int | None = None,
            rng: np.random.Generator | None = None) -> DecisionTree:
    """Grow a gain-ratio tree on the given rows.

    Per node, the (feature, threshold) pair maximizing the gain ratio wins;
    candidate thresholds are midpoints between consecutive distinct values.
    Growth stops on purity, min_leaf, max_depth, or when the best weighted
    score falls below min_gain (min_gain = 0 therefore keeps splitting through
    zero-gain ties, which is what resolves XOR-like targets). Leaves hold
    Laplace-smoothed class frequencies. When feature_sample is set, each node
    scores a fresh uniform draw of that many features from rng.
    """
    params = params or TreeParams()
    if feature_sample is not None and rng is None:
        raise InputError("feature sampling needs an explicit rng")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (ds.n_features,):
            raise InputError("weights length must equal the feature count")
    tree, _ = _fit_tree(ds, rows, params, weights, feature_sample, rng)
    return tree


def tree_predict(tree: DecisionTree, row) -> np.ndarray:
    """Class distribution of the leaf the row lands in."""
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (tree.n_features,):
        raise InputError(f"row has {row.size} values, tree expects {tree.n_features}")
    node = tree.root
    while not node.is_leaf:
        node = node.left if row[node.split_feature] <= node.threshold else node.right
    return node.distribution


def tree_predict_batch(tree: DecisionTree, rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != tree.n_features:
        raise InputError("batch shape does not match the tree's feature count")
    out = np.empty((rows.shape[0], tree.n_classes), dtype=np.float64)
    stack = [(tree.root, np.arange(rows.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.distribution
            continue
        go_left = rows[idx, node.split_feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def tree_height(tree: DecisionTree) -> int:
    """Longest root-to-node path length in edges."""
    height = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        height = max(height, node.depth)
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)
    return height


def _tree_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def rf_fit(ds: Dataset, rows=None, n_trees: int = 100,
           params: TreeParams | None = None, seed: int = 0,
           threads: int = 1) -> Forest:
    """Random forest: per tree a bootstrap of the rows and, per node, a fresh
    uniform sample of ceil(sqrt(d)) candidate features scored by gain ratio.

    Tree t draws from default_rng(SeedSequence([seed, t])): first the bootstrap
    positions, then the per-node feature samples, so results do not depend on
    build order or thread count. The out-of-bag error is the majority-vote
    error of the trees not trained on each row; it is reported as None when
    some row appears in every bootstrap.
    """
    if n_trees < 1:
        raise InputError("need at least one tree")
    params = params or TreeParams()
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise InputError("cannot fit a forest on zero rows")
    n = rows.size
    subspace = math.ceil(math.sqrt(ds.n_features))

    def build(t: int):
        tree_seed = _tree_seed(seed, t)
        rng = np.random.default_rng(tree_seed)
        positions = rng.integers(0, n, n)
        inbag = np.bincount(positions, minlength=n) > 0
        tree, _ = _fit_tree(ds, rows[positions], params, None, subspace, rng)
        return tree_seed, tree, inbag

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            built = list(pool.map(build, range(n_trees)))
    else:
        built = [build(t) for t in range(n_trees)]

    seeds = [b[0] for b in built]
    trees = [b[1] for b in built]
    inbags = np.array([b[2] for b in built])

    oob_error = None
    if not inbags.all(axis=0).any():
        X = ds.features[rows]
        y = ds.labels[rows]
        votes = np.zeros((n, ds.n_classes), dtype=np.int64)
        for t, tree in enumerate(trees):
            out = np.flatnonzero(~inbags[t])
            pred = np.argmax(tree_predict_batch(tree, X[out]), axis=1)
            votes[out, pred] += 1
        majority = np.argmax(votes, axis=1)
        oob_error = float(np.mean(majority != y))

    return Forest(trees=trees, kind="random_forest", bootstrap_seeds=seeds,
                  oob_error=oob_error, subspace_size=subspace)


def weight_range(level: int, rho: float) -> tuple[float, float]:
    """Weight band for an attribute tested at the given level (root = 1):
    (0, e^(-1)] at the root, (e^(-1/(level-1)) + rho, e^(-1/level)] below it."""
    if level < 1:
        raise InputError("level must be at least 1")
    if rho <= 0:
        raise InputError("rho must be positive")
    if level == 1:
        return 0.0, math.exp(-1.0)
    return math.exp(-1.0 / (level - 1)) + rho, math.exp(-1.0 / level)


def _max_valid_level(rho: float) -> int:
    # Bands stop being disjoint once e^(-1/L) - e^(-1/(L-1)) <= rho; levels
    # beyond that are treated as the last valid one.
    level = 1
    while level < 10_000:
        lo, hi = weight_range(level + 1, rho)
        if lo >= hi:
            break
        level += 1
    return level


def weight_increment(weight: float, height: int, level: int) -> float:
    """Per-tree restoration step (1 - w) / ((height + 1) - level) for an
    attribute last tested at the given level of a tree with that height."""
    denom = (height + 1) - level
    if denom <= 0:
        raise InputError("level exceeds the tree height")
    return (1.0 - weight) / denom


def forest_pa_fit(ds: Dataset, rows=None, n_trees: int = 100,
                  params: TreeParams | None = None, rho: float = 1e-4,
                  seed: int = 0) -> Forest:
    """Forest that penalizes recently tested attributes instead of sampling.

    Every tree sees all features on a bootstrap sample, with each feature's
    gain ratio multiplied by its weight. After a tree is built, attributes it
    tested get fresh weights drawn from the band for their shallowest level,
    and their restoration increment is fixed from that draw and the tree's
    height; attributes it skipped recover by their stored increment, capped at
    1. Never-tested attributes stay at weight 1. Weight updates are sequential
    across trees, so only per-tree work could parallelize.
    """
    if n_trees < 1:
        raise InputError("need at least one tree")
    if rho <= 0:
        raise InputError("rho must be positive")
    params = params or TreeParams()
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise InputError("cannot fit a forest on zero rows")
    n = rows.size
    d = ds.n_features
    state = AttributeWeights.fresh(d)
    level_cap = _max_valid_level(rho)

    seeds = []
    trees = []
    for t in range(n_trees):
        tree_seed = _tree_seed(seed, t)
        rng = np.random.default_rng(tree_seed)
        positions = rng.integers(0, n, n)
        tree, tested = _fit_tree(ds, rows[positions], params, state.weights, None, rng)
        seeds.append(tree_seed)
        trees.append(tree)

        height = tree_height(tree)
        for attr in range(d):
            if attr in tested:
                level = min(tested[attr], level_cap)
                lo, hi = weight_range(level, rho)
                w = float(rng.uniform(lo, hi))
                if w <= 0.0:
                    w = float(np.nextafter(0.0, 1.0))
                state.weights[attr] = w
                state.last_level[attr] = level
                state.increments[attr] = weight_increment(w, height, level)
            elif state.last_level[attr] > 0:
                state.weights[attr] = min(1.0, state.weights[attr] + state.increments[attr])

    return Forest(trees=trees, kind="forest_pa", bootstrap_seeds=seeds,
                  oob_error=None, subspace_size=None, attribute_weights=state)


def forest_predict(forest: Forest, row) -> np.ndarray:
    """Arithmetic mean of the member trees' leaf distributions."""
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (forest.n_features,):
        raise InputError(f"row has {row.size} values, forest expects {forest.n_features}")
    acc = np.zeros(forest.n_classes, dtype=np.float64)
    for tree in forest.trees:
        acc += tree_predict(tree, row)
    return acc / len(forest.trees)


def forest_predict_batch(forest: Forest, rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    acc = np.zeros((rows.shape[0], forest.n_classes), dtype=np.float64)
    for tree in forest.trees:
        acc += tree_predict_batch(tree, rows)
    return acc / len(forest.trees)


def _nodes_to_list(root: TreeNode) -> list[dict]:
    """Preorder node list; split nodes name their children by list index.

    Walks with an explicit stack, so tree depth is not bounded by the
    interpreter's recursion limit.
    """
    nodes: list[dict] = []
    pending = [(root, None, None)]  # (node, parent index, side the parent links it by)
    while pending:
        node, parent, side = pending.pop()
        index = len(nodes)
        if parent is not None:
            nodes[parent][side] = index
        if node.is_leaf:
            nodes.append({"depth": node.depth,
                          "distribution": [float(p) for p in node.distribution]})
        else:
            nodes.append({"depth": node.depth, "feature": node.split_feature,
                          "threshold": node.threshold, "left": None, "right": None})
            pending.append((node.right, index, "right"))
            pending.append((node.left, index, "left"))
    return nodes


def _nodes_from_list(nodes: list[dict]) -> TreeNode:
    """Inverse of _nodes_to_list, also walking with an explicit stack."""
    root = None
    pending = [(0, None, None)]  # (list index, parent node, side the parent links it by)
    visited = 0
    while pending:
        index, parent, side = pending.pop()
        visited += 1
        if visited > len(nodes):
            raise InputError("model tree links form a cycle")
        spec = nodes[index]
        if "distribution" in spec:
            node = TreeNode(depth=spec["depth"],
                            distribution=np.array(spec["distribution"], dtype=np.float64))
        else:
            node = TreeNode(depth=spec["depth"], split_feature=spec["feature"],
                            threshold=spec["threshold"])
            pending.append((spec["right"], node, "right"))
            pending.append((spec["left"], node, "left"))
        if parent is None:
            root = node
        else:
            setattr(parent, side, node)
    return root


def _params_to_doc(params: TreeParams) -> dict:
    return {"min_leaf": params.min_leaf, "max_depth": params.max_depth,
            "min_gain": params.min_gain}


def _tree_to_doc(tree: DecisionTree) -> dict:
    return {"n_features": tree.n_features, "n_classes": tree.n_classes,
            "params": _params_to_doc(tree.params), "nodes": _nodes_to_list(tree.root)}


def _tree_from_doc(doc: dict) -> DecisionTree:
    params = TreeParams(**doc["params"])
    return DecisionTree(root=_nodes_from_list(doc["nodes"]),
                        n_features=doc["n_features"], n_classes=doc["n_classes"],
                        params=params)


def model_to_doc(model) -> dict:
    """Serialize a tree or forest to a versioned JSON-ready document."""
    if isinstance(model, DecisionTree):
        return {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": "c45",
                **_tree_to_doc(model)}
    if isinstance(model, Forest):
        doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": model.kind,
               "trees": [_tree_to_doc(t) for t in model.trees],
               "bootstrap_seeds": list(model.bootstrap_seeds),
               "oob_error": model.oob_error,
               "subspace_size": model.subspace_size,
               "attribute_weights": None}
        if model.attribute_weights is not None:
            aw = model.attribute_weights
            doc["attribute_weights"] = {
                "weights": [float(w) for w in aw.weights],
                "last_level": [int(v) for v in aw.last_level],
                "increments": [float(v) for v in aw.increments],
            }
        return doc
    raise InputError(f"cannot serialize {type(model).__name__}")


def model_from_doc(doc: dict):
    if doc.get("format") != MODEL_FORMAT:
        raise InputError("not a model document")
    if doc.get("version") != MODEL_VERSION:
        raise InputError(f"unsupported model version {doc.get('version')}")
    kind = doc.get("kind")
    if kind == "c45":
        return _tree_from_doc(doc)
    if kind in ("random_forest", "forest_pa"):
        aw = None
        if doc.get("attribute_weights") is not None:
            spec = doc["attribute_weights"]
            aw = AttributeWeights(
                weights=np.array(spec["weights"], dtype=np.float64),
                last_level=np.array(spec["last_level"], dtype=np.int64),
                increments=np.array(spec["increments"], dtype=np.float64),
            )
        return Forest(trees=[_tree_from_doc(t) for t in doc["trees"]], kind=kind,
                      bootstrap_seeds=list(doc["bootstrap_seeds"]),
                      oob_error=doc.get("oob_error"),
                      subspace_size=doc.get("subspace_size"),
                      attribute_weights=aw)
    raise InputError(f"unknown model kind {kind!r}")


def save_model(model, path) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_doc(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc
    return model_from_doc(doc)
