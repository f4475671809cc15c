"""Gain-ratio decision trees and the two forests built on them.

All splits are binary thresholds on the encoded features. One growing engine
(_fit_tree) serves every learner: it accepts per-attribute weights
(multiplied into the split score), which the attribute-penalizing forest
passes, and a per-node feature sample, which the random forest passes;
c45_fit grows with neither.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .dataset import Dataset
from .errors import InputError

MODEL_FORMAT = "idsforge-model"
MODEL_VERSION = 1

def entropy(counts) -> float:
    """Shannon entropy in bits of a count vector, with 0 log 0 = 0."""
    c = np.asarray(counts, dtype=np.float64)
    if (c < 0).any():
        raise InputError("negative count")
    total = c.sum()
    if total <= 0:
        raise InputError("entropy of an empty set is undefined")
    nz = c[c > 0]
    p = nz / total
    return float(-(p * np.log2(p)).sum())


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
        if not (self.min_gain >= 0 and math.isfinite(self.min_gain)):
            raise InputError("min_gain must be finite and non-negative")


@dataclass
class DecisionTree:
    """A binary tree as parallel arrays over its nodes in preorder, root at 0:
    the layout of the model document's node list. feature is -1 at leaves; a
    split sends a row left when row[feature] <= threshold. left and right are
    child indices (-1 at leaves), depth counts edges from the root and value
    (nodes x classes) holds each leaf's class distribution, zeros at splits."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth: np.ndarray
    value: np.ndarray
    n_features: int
    n_classes: int
    params: TreeParams

    def predict_batch(self, rows) -> np.ndarray:
        return tree_predict_batch(self, rows)

    @property
    def root(self):
        # Linked copies of the nodes for perfbench/spans.py::_sweep, the only reader.
        nodes = [SimpleNamespace(depth=d, split_feature=f, threshold=t, is_leaf=f < 0)
                 for d, f, t in zip(*(a.tolist() for a in (self.depth, self.feature,
                                                            self.threshold)))]
        for node, left, right in zip(nodes, self.left.tolist(), self.right.tolist()):
            node.left, node.right = (nodes[left], nodes[right]) if left >= 0 else (None, None)
        return nodes[0]


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

    def predict_batch(self, rows) -> np.ndarray:
        """Arithmetic mean of the trees' leaf distributions for each row,
        summed in tree order."""
        return TreeStack.of([self]).predict(rows)[0]

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    @property
    def n_classes(self) -> int:
        return self.trees[0].n_classes


def _log_tables(n: int):
    """k log2 k (0 at k = 0) and log2 k for k = 0..n: every entropy term of a
    count out of a fit's n rows, read by index instead of recomputed."""
    k = np.arange(n + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):  # log2 0 = -inf; no entropy reads it
        return k * np.log2(np.maximum(k, 1.0)), np.log2(k)


def _value_codes(ds, rows):
    """Each feature's sorted distinct values over the rows, concatenated into
    one array, and per row the index of its value there (its value code).

    A feature's codes follow those of the features before it, so a code names
    one (feature, value) slot, and within a feature codes sort like values.
    """
    n, d = rows.size, ds.n_features
    # the split search's keys, code * n_classes + class, must fit the dtype
    codes = np.empty((n, d), dtype=np.int32 if n * d * ds.n_classes < 2**31 else np.int64)
    values = []
    offset = 0
    for j in range(d):
        distinct, inverse = np.unique(ds.features[rows, j], return_inverse=True)
        codes[:, j] = inverse + offset
        values.append(distinct)
        offset += distinct.size
    return codes, np.concatenate([np.empty(0), *values])


def _best_split(codes, y, feature_ids, weights, min_leaf, values, counts, logs):
    """Best (feature, threshold, weighted gain ratio) at a node.

    codes and y are the node's rows (see _value_codes); feature_ids lists the
    candidate features in ascending order, counts the node's class counts and
    logs the fit's _log_tables. Every distinct value present at the node
    except a feature's largest is scored once, with the threshold at the
    midpoint to the next present value. Returns None when no candidate
    satisfies min_leaf on both sides. Ties pick the lowest feature index,
    then the lowest threshold.

    Class counts stay integers, so they are exact in any order of
    operations. An entropy log2(N) - sum(k log2 k) / N reads its terms from
    the tables and sums each count row with one numpy reduction, which adds
    a row's terms in the same order however many rows it reduces.
    """
    n = codes.shape[0]
    c = counts.size
    if len(feature_ids) == 0:
        return None

    # Sort the node's (slot, class) keys: each run of equal keys counts the
    # rows of one pair, and the pairs come in (feature, value, class) order.
    keys = codes.take(feature_ids, axis=1)
    keys *= c
    keys += y[:, None]
    keys = keys.ravel()
    keys.sort()
    last = np.empty(keys.size, dtype=bool)  # last of its run, then of its slot
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    last[-1] = True
    run_end = last.nonzero()[0]
    runs = run_end.size
    slots, classes = np.divmod(keys[run_end], c)
    np.not_equal(slots[1:], slots[:-1], out=last[:runs - 1])
    last[runs - 1] = True
    slot_end = last[:runs].nonzero()[0]

    # Every candidate feature's slots partition the same n rows, so a slot's
    # last key sits at rank * n + rem: rank is its feature's place among the
    # candidates and rem + 1 of the node's rows lie at or left of its value.
    # A feature's last value leaves none on the right.
    rank, rem = np.divmod(run_end[slot_end], n)
    valid = ((rem >= min_leaf - 1) & (rem < n - min_leaf)).nonzero()[0]
    if valid.size == 0:
        return None
    # running class counts through each run, less `rank` nodes' counts
    table = np.zeros((runs, c), dtype=np.int64)
    classes += np.arange(0, runs * c, c)
    lengths = np.empty(runs, dtype=np.int64)
    lengths[0] = run_end[0] + 1
    np.subtract(run_end[1:], run_end[:-1], out=lengths[1:])
    table.ravel()[classes] = lengths
    table.cumsum(axis=0, out=table)
    rank = rank[valid]
    sides = np.empty((2, valid.size, c), dtype=np.int64)  # left, right
    np.subtract(table[slot_end[valid]], rank[:, None] * counts, out=sides[0])
    np.subtract(counts, sides[0], out=sides[1])
    sizes = np.empty((2, valid.size), dtype=np.int64)
    np.add(rem[valid], 1, out=sizes[0])
    np.subtract(n, sizes[0], out=sizes[1])

    klogk, log2 = logs
    h_parent = log2[n] - klogk.take(counts).sum() / n
    h = log2[sizes] - klogk.take(sides).sum(axis=2) / sizes
    p = sizes / n
    t = p * np.log2(p)
    info = -(t[0] + t[1])
    ph = p * h
    gain = h_parent - ph[0] - ph[1]
    ratio = np.where(gain > 0, gain / info, 0.0)
    if weights is not None:
        ratio *= weights[feature_ids][rank]
    best = int(ratio.argmax())
    at = int(run_end[slot_end[valid[best]]])  # the slot's last key; the next slot follows
    threshold = float((values[keys[at] // c] + values[keys[at + 1] // c]) / 2.0)
    return int(feature_ids[rank[best]]), threshold, float(ratio[best])


def _grow(codes, y, values, n_classes, params, weights, feature_sample, rng, logs):
    """Iterative preorder construction (node, left subtree, right subtree), so
    per-node rng draws happen in the same order a recursive build would make
    and arbitrarily deep trees stay off the Python stack. Returns the arrays
    of DecisionTree, feature to value."""
    d = codes.shape[1]
    c = n_classes
    nodes = []  # [feature, threshold, left, right, depth, value] per node, in preorder
    work = [(codes, y, 0, -1)]  # (codes, labels, depth, parent if a right child else -1)
    while work:
        codes_node, y_node, depth, right_of = work.pop()
        index = len(nodes)
        if right_of >= 0:
            nodes[right_of][3] = index
        n = y_node.size
        counts = np.bincount(y_node, minlength=c)

        split = None
        depth_ok = params.max_depth is None or depth < params.max_depth
        if counts.max() < n and n >= 2 * params.min_leaf and depth_ok:
            if feature_sample is not None and feature_sample < d:
                candidates = np.sort(rng.choice(d, size=feature_sample, replace=False))
            else:
                candidates = np.arange(d)
            best = _best_split(codes_node, y_node, candidates, weights, params.min_leaf,
                               values, counts, logs)
            if best is not None and best[2] >= params.min_gain:
                split = best

        if split is None:
            nodes.append([-1, 0.0, -1, -1, depth, (counts + 1.0) / (n + c)])
            continue

        feat, threshold, _ = split
        nodes.append([feat, threshold, index + 1, -1, depth, np.zeros(c)])
        # compare values, as prediction does: a midpoint can round onto the upper value
        go_left = values[codes_node[:, feat]] <= threshold
        # right pushed first so the left subtree is built first
        work.append((codes_node[~go_left], y_node[~go_left], depth + 1, index))
        work.append((codes_node[go_left], y_node[go_left], depth + 1, -1))
    return [np.array(column) for column in zip(*nodes)]


def _checked_rows(ds, rows, what):
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise InputError(f"cannot fit a {what} on zero rows")
    return rows


def _fit_tree(ds, codes, values, labels, params, weights, feature_sample, rng, logs):
    """Grow one tree on the rows whose value codes and labels are given;
    logs is _log_tables of at least their count."""
    arrays = _grow(codes, labels.astype(codes.dtype), values, ds.n_classes, params, weights,
                   feature_sample, rng, logs)
    return DecisionTree(*arrays, n_features=ds.n_features, n_classes=ds.n_classes,
                        params=params)


def c45_fit(ds: Dataset, rows=None, params: TreeParams | None = None) -> DecisionTree:
    """Grow a gain-ratio tree on the given rows.

    Per node, the (feature, threshold) pair maximizing the gain ratio over
    all features wins; candidate thresholds are midpoints between
    consecutive distinct values. Growth stops on purity, min_leaf, max_depth,
    or when the best gain ratio falls below min_gain (min_gain = 0 therefore
    keeps splitting through zero-gain ties, which is what resolves XOR-like
    targets). Leaves hold Laplace-smoothed class frequencies.
    """
    params = params or TreeParams()
    rows = _checked_rows(ds, rows, "tree")
    codes, values = _value_codes(ds, rows)
    return _fit_tree(ds, codes, values, ds.labels[rows], params, None, None, None,
                     _log_tables(rows.size))


# Most (tree, row) walkers a prediction keeps at once. A batch walks in
# blocks of rows, so its walker state stays near this many entries however
# many rows and trees there are.
WALKERS_PER_BLOCK = 2**14
# Levels a walk steps between two looks for walkers that reached a leaf.
LEVELS_PER_CHECK = 3


def _member_trees(model) -> list:
    """A tree as a one-tree member, or a forest's trees."""
    if isinstance(model, DecisionTree):
        return [model]
    if isinstance(model, Forest):
        if not model.trees:
            raise InputError("a forest needs at least one tree")
        return model.trees
    raise InputError(f"cannot predict with a {type(model).__name__}; "
                     "expected a DecisionTree or a Forest")


@dataclass(frozen=True)
class TreeStack:
    """The trees of one or more models stacked end to end for one walk.

    A walker's state is 2 * node, node counted over the concatenated trees.
    side_feature and side_threshold hold each node's split twice, at 2 * node
    and 2 * node + 1 (feature -1 at leaves). side_child[2 * node] is the state
    of a split's right child and side_child[2 * node + 1] that of its left
    one, so a step goes to side_child[state + go_left]; both entries of a leaf
    are its own state. value holds the trees' leaf distributions by node,
    roots each tree's root node and counts each model's tree count; model m's
    trees are ranges[m]. The arrays are copies, so later changes to the
    models do not reach them.
    """

    side_feature: np.ndarray
    side_threshold: np.ndarray
    side_child: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    ranges: list[slice]
    counts: np.ndarray
    n_features: int
    n_classes: int

    @classmethod
    def of(cls, models) -> "TreeStack":
        groups = [_member_trees(model) for model in models]
        trees = [tree for group in groups for tree in group]
        shapes = {(tree.n_features, tree.n_classes) for tree in trees}
        if len(shapes) != 1:
            raise InputError("the models' trees disagree on feature or class count")
        (d, c), = shapes
        roots = np.cumsum([0] + [tree.feature.size for tree in trees[:-1]])
        feature = np.concatenate([tree.feature for tree in trees])
        children = np.concatenate([np.column_stack([tree.right, tree.left]) + root
                                   for tree, root in zip(trees, roots)])
        leaf = np.flatnonzero(feature < 0)
        children[leaf] = leaf[:, None]
        counts = [len(group) for group in groups]
        edges = np.cumsum([0] + counts).tolist()
        return cls(side_feature=np.repeat(feature, 2),
                   side_threshold=np.repeat(np.concatenate([tree.threshold for tree in trees]), 2),
                   side_child=2 * children.ravel(),
                   value=np.concatenate([tree.value for tree in trees]),
                   roots=roots,
                   ranges=[slice(lo, hi) for lo, hi in zip(edges, edges[1:])],
                   counts=np.array(counts),
                   n_features=d, n_classes=c)

    def predict(self, rows) -> np.ndarray:
        """Each model's class distribution of each row: (models, rows, classes).

        Every (tree, row) pair is a walker that starts at its tree's root.
        Each step moves a walker at a split one level down, left when its
        row's cell is <= the split's threshold and right otherwise (NaN too).
        Every LEVELS_PER_CHECK steps the walk looks for walkers at leaves,
        drops them once they are at least half of those left, and ends when
        all are. A model's distribution is the sum of its trees' leaf
        distributions, added in tree order to zeros, over its tree count.
        Rows walk in blocks of at most WALKERS_PER_BLOCK walkers (at least
        one row per block).
        """
        flat = np.ascontiguousarray(rows, dtype=np.float64)
        if flat.ndim != 2 or flat.shape[1] != self.n_features:
            raise InputError("batch shape does not match the model's feature count")
        n, d = flat.shape
        t = self.roots.size
        feature, threshold, child = self.side_feature, self.side_threshold, self.side_child
        out = np.empty((self.counts.size, n, self.n_classes))
        block = max(1, WALKERS_PER_BLOCK // t)
        for start in range(0, n, block):
            b = min(block, n - start)
            cells = flat[start:start + b].ravel()
            state = np.repeat(2 * self.roots, b)
            moving = np.flatnonzero(feature[state] >= 0)
            at, row = state[moving], moving % b * d  # row: each walker's row start in cells
            while moving.size:
                # A walker at a leaf reads cell row - 1 (feature -1; cells is
                # not empty while a walker is at a split) and stays where it
                # is, its own child.
                for _ in range(LEVELS_PER_CHECK):
                    go_left = cells[row + feature[at]] <= threshold[at]
                    at = child[at + go_left]
                live = feature[at] >= 0
                if 2 * np.count_nonzero(live) <= at.size:
                    state[moving] = at
                    moving, at, row = moving[live], at[live], row[live]
            leaves = self.value[state.reshape(t, b) >> 1]
            sums = out[:, start:start + b]
            for m, span in enumerate(self.ranges):
                # Over axis 0 numpy adds tree after tree onto the initial
                # zeros, except into a lone output cell, which it adds
                # pairwise; a one-class leaf is near 1, never -0.0.
                if b * self.n_classes > 1:
                    np.add.reduce(leaves[span], axis=0, out=sums[m], initial=0.0)
                else:
                    sums[m] = np.add.accumulate(leaves[span], axis=0)[-1]
            np.divide(sums, self.counts[:, None, None], out=sums)
        return out


def tree_predict_batch(tree: DecisionTree, rows) -> np.ndarray:
    """Class distribution of each row's leaf."""
    return TreeStack.of([tree]).predict(rows)[0]


def tree_height(tree: DecisionTree) -> int:
    """Longest root-to-node path length in edges."""
    return int(tree.depth.max())


def _bootstrap_tree(ds, codes, values, labels, params, weights, feature_sample, seed, t, logs):
    """Tree t of a forest over the rows whose value codes and labels are given.

    The tree's rng is default_rng(SeedSequence([seed, t])). It draws the
    bootstrap positions first, then the tree's own draws, so every tree
    depends on (seed, t) alone. Returns (tree seed, rng, positions, tree);
    the rng is left where the tree's growth left it.
    """
    tree_seed = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
    rng = np.random.default_rng(tree_seed)
    positions = rng.integers(0, labels.size, labels.size)
    tree = _fit_tree(ds, codes[positions], values, labels[positions], params, weights,
                     feature_sample, rng, logs)
    return tree_seed, rng, positions, tree


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
    if threads < 1:
        raise InputError("need at least one thread")
    params = params or TreeParams()
    rows = _checked_rows(ds, rows, "forest")
    n = rows.size
    subspace = math.ceil(math.sqrt(ds.n_features))
    codes, values = _value_codes(ds, rows)
    labels = ds.labels[rows]
    logs = _log_tables(n)  # read-only, so the build threads share it

    def build(t: int):
        tree_seed, _, positions, tree = _bootstrap_tree(ds, codes, values, labels, params,
                                                        None, subspace, seed, t, logs)
        return tree_seed, tree, np.bincount(positions, minlength=n) > 0

    with ThreadPoolExecutor(max_workers=threads) as pool:
        built = list(pool.map(build, range(n_trees)))

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
    if not (rho > 0 and math.isfinite(rho)):
        raise InputError("rho must be finite and positive")
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
    if not (rho > 0 and math.isfinite(rho)):
        raise InputError("rho must be finite and positive")
    params = params or TreeParams()
    rows = _checked_rows(ds, rows, "forest")
    d = ds.n_features
    codes, values = _value_codes(ds, rows)
    labels = ds.labels[rows]
    logs = _log_tables(rows.size)
    state = AttributeWeights.fresh(d)
    level_cap = _max_valid_level(rho)

    never = np.iinfo(np.int64).max
    seeds = []
    trees = []
    for t in range(n_trees):
        tree_seed, rng, _, tree = _bootstrap_tree(ds, codes, values, labels, params,
                                                  state.weights, None, seed, t, logs)
        seeds.append(tree_seed)
        trees.append(tree)

        height = tree_height(tree)
        # each attribute's shallowest tested level (root = 1), read off the split nodes
        splits = tree.feature >= 0
        shallowest = np.full(d, never)
        np.minimum.at(shallowest, tree.feature[splits], tree.depth[splits] + 1)
        for attr in range(d):
            if shallowest[attr] != never:
                level = min(int(shallowest[attr]), level_cap)
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


def _tree_to_doc(tree: DecisionTree) -> dict:
    """The arrays as the document's preorder node list."""
    columns = (tree.depth, tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    nodes = [{"depth": d, "distribution": v} if f < 0 else
             {"depth": d, "feature": f, "threshold": t, "left": l, "right": r}
             for d, f, t, l, r, v in zip(*(a.tolist() for a in columns))]
    return {"n_features": tree.n_features, "n_classes": tree.n_classes,
            "params": asdict(tree.params), "nodes": nodes}


def _field_array(values, kinds, key) -> np.ndarray:
    # type(v), not isinstance: JSON true and false load as bool, an int subclass
    if not all(type(v) in kinds for v in values):
        raise InputError(f"model {key!r} values have the wrong JSON type")
    return np.array(values, dtype=np.float64 if float in kinds else np.int64)


def _tree_from_doc(doc: dict) -> DecisionTree:
    """Fill a tree's arrays from its node list. Every split node's children
    must lie after it and inside the list: that one test rules out cycles,
    so tree_predict_batch reaches a leaf within len(nodes) steps."""
    params = TreeParams(**doc["params"])
    n_features, n_classes, nodes = doc["n_features"], doc["n_classes"], doc["nodes"]
    if not (type(n_features) is type(n_classes) is int and n_features >= 0 and n_classes >= 1):
        raise InputError("model tree feature and class counts must be non-negative integers")
    if type(nodes) is not list or not nodes:
        raise InputError("model tree has no nodes")
    is_leaf = np.array(["distribution" in spec for spec in nodes])
    dists = [spec["distribution"] for spec in nodes if "distribution" in spec]
    if not all(type(dist) is list and len(dist) == n_classes for dist in dists):
        raise InputError(f"model tree leaf distributions must list {n_classes} numbers")
    keys = ("feature", "threshold", "left", "right", "depth")
    fields = [[-1, 0.0, -1, -1, spec["depth"]] if "distribution" in spec else
              [spec[key] for key in keys] for spec in nodes]
    feature, threshold, left, right, depth = (
        _field_array(column, (int, float) if key == "threshold" else (int,), key)
        for key, column in zip(keys, zip(*fields)))
    at = np.flatnonzero(~is_leaf)
    parents, children = np.concatenate([at, at]), np.concatenate([left[at], right[at]])
    if not ((children > parents) & (children < len(nodes))).all():
        raise InputError("model tree child indices must point forward inside the node list")
    if ((feature[at] < 0) | (feature[at] >= n_features)).any():
        raise InputError(f"model tree split features must lie in [0, {n_features})")
    # the last node is a leaf now, so n_classes is no larger than the document
    value = np.zeros((len(nodes), n_classes))
    leaves = _field_array([p for dist in dists for p in dist], (int, float),
                          "distribution").reshape(-1, n_classes)
    value[is_leaf] = leaves
    if not ((leaves >= 0).all() and (np.abs(leaves.sum(axis=1) - 1.0) <= 1e-9).all()):
        raise InputError("model tree leaf distributions must be non-negative and sum to 1")
    return DecisionTree(feature, threshold, left, right, depth, value,
                        n_features=n_features, n_classes=n_classes, params=params)


def model_to_doc(model) -> dict:
    """Serialize a tree or forest to a versioned JSON-ready document."""
    if isinstance(model, DecisionTree):
        return {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": "c45",
                **_tree_to_doc(model)}
    if isinstance(model, Forest):
        aw = model.attribute_weights
        return {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": model.kind,
                "trees": [_tree_to_doc(t) for t in model.trees],
                "bootstrap_seeds": list(model.bootstrap_seeds),
                "oob_error": model.oob_error,
                "subspace_size": model.subspace_size,
                "attribute_weights": None if aw is None else
                {name: array.tolist() for name, array in vars(aw).items()}}
    raise InputError(f"cannot serialize {type(model).__name__}")


def model_from_doc(doc: dict):
    """Rebuild a tree or forest from model_to_doc's document; raises
    InputError for a document that does not describe one."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise InputError("not a model document")
    if doc.get("version") != MODEL_VERSION:
        raise InputError(f"unsupported model version {doc.get('version')}")
    kind = doc.get("kind")
    if kind not in ("c45", "random_forest", "forest_pa"):
        raise InputError(f"unknown model kind {kind!r}")
    try:
        return _tree_from_doc(doc) if kind == "c45" else _forest_from_doc(doc, kind)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a missing key, a value of the wrong JSON type, or a number too large for numpy
        raise InputError(f"malformed {kind} model: {type(exc).__name__} {exc}") from exc


def _forest_from_doc(doc: dict, kind: str) -> Forest:
    """The forest's trees, then its own fields: one bootstrap seed per tree,
    an out-of-bag error and a subspace size that are null or in range, and
    attribute weights that list one entry per feature, each in range."""
    trees = [_tree_from_doc(t) for t in doc["trees"]]
    if len({(t.n_features, t.n_classes) for t in trees}) != 1:
        raise InputError("model forest needs one or more trees of equal feature and class counts")
    d = trees[0].n_features
    seeds = _field_array(doc["bootstrap_seeds"], (int,), "bootstrap_seeds")
    if seeds.shape != (len(trees),):
        raise InputError(f"model forest needs one bootstrap seed per tree, {len(trees)} in all")
    for key, kinds, low, high in (("oob_error", (int, float), 0, 1),
                                  ("subspace_size", (int,), 1, d)):
        value = doc.get(key)
        if value is not None and not low <= _field_array([value], kinds, key)[0] <= high:
            raise InputError(f"model forest {key} must be null or in [{low}, {high}]")
    spec = doc.get("attribute_weights")
    aw = None if spec is None else AttributeWeights(
        *(_field_array(spec[key], kinds, f"attribute_weights.{key}")
          for key, kinds in (("weights", (int, float)), ("last_level", (int,)),
                             ("increments", (int, float)))))
    if aw is not None:
        if any(a.shape != (d,) for a in vars(aw).values()):
            raise InputError(f"model forest attribute weights must list {d} entries each")
        # the ranges forest_pa_fit produces; NaN lies outside each of them
        for key, inside, span in (
                ("weights", (0 < aw.weights) & (aw.weights <= 1), "in (0, 1]"),
                ("last_level", aw.last_level >= 0, "at least 0"),
                ("increments", (0 <= aw.increments) & (aw.increments <= 1), "in [0, 1]")):
            if not inside.all():
                raise InputError(f"model forest attribute_weights.{key} must be {span}")
    return Forest(trees=trees, kind=kind, bootstrap_seeds=seeds.tolist(),
                  oob_error=doc.get("oob_error"), subspace_size=doc.get("subspace_size"),
                  attribute_weights=aw)


def save_model(model, path) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_doc(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read model {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc
    return model_from_doc(doc)
