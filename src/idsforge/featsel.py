"""Feature subset search: CFS merit over a correlation cache, driven by a
binary bat-algorithm swarm, plus information-gain filter baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InputError
from .trees import entropy

# Swarm constants: initial positions, loudness and pulse-rate caps are drawn
# from these ranges, and positions are clipped to +-POSITION_CLAMP.
POSITION_RANGE = (-1.0, 1.0)
LOUDNESS_RANGE = (1.0, 2.0)
PULSE_RATE_RANGE = (0.0, 1.0)
POSITION_CLAMP = 6.0
ANCHOR_SCALE = 2.0


@dataclass(frozen=True)
class CorrelationCache:
    """Symmetric-uncertainty correlations between binned features and the label.

    feature_class[i] = SU(feature i, label); feature_feature[i, j] =
    SU(feature i, feature j). All entries live in [0, 1], the diagonal is 1.
    """

    feature_class: np.ndarray  # (d,)
    feature_feature: np.ndarray  # (d, d) symmetric
    bins: int

    def __post_init__(self):
        fc = np.array(self.feature_class, dtype=np.float64)
        ff = np.array(self.feature_feature, dtype=np.float64)
        object.__setattr__(self, "feature_class", fc)
        object.__setattr__(self, "feature_feature", ff)
        d = fc.shape[0]
        if ff.shape != (d, d):
            raise InputError("feature_feature must be d x d")
        if not np.allclose(ff, ff.T):
            raise InputError("feature_feature must be symmetric")
        if fc.min() < 0 or fc.max() > 1 or ff.min() < 0 or ff.max() > 1:
            raise InputError("correlations must lie in [0, 1]")
        fc.setflags(write=False)
        ff.setflags(write=False)

    @property
    def n_features(self) -> int:
        return self.feature_class.shape[0]


@dataclass(frozen=True)
class FeatureSubset:
    """Bitmask over the feature columns; at least one bit must be set."""

    mask: np.ndarray
    k: int = 0

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "k", int(mask.sum()))
        if self.k < 1:
            raise InputError("feature subset is empty")
        mask.setflags(write=False)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @classmethod
    def from_indices(cls, indices, d: int) -> "FeatureSubset":
        mask = np.zeros(d, dtype=bool)
        mask[np.asarray(indices, dtype=np.int64)] = True
        return cls(mask=mask)


@dataclass(frozen=True)
class BatSwarmConfig:
    n_bats: int = 30
    f_min: float = 0.0
    f_max: float = 2.0
    alpha: float = 0.9
    gamma: float = 0.9
    max_iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_bats < 2:
            raise InputError("need at least 2 bats")
        if self.max_iterations < 1:
            raise InputError("need at least 1 iteration")
        if not all(map(math.isfinite, (self.f_min, self.f_max, self.gamma))):
            raise InputError("f_min, f_max and gamma must be finite")
        if self.f_min > self.f_max:
            raise InputError("f_min must not exceed f_max")
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must lie in (0, 1)")
        if self.gamma <= 0.0:
            raise InputError("gamma must be positive")


@dataclass(frozen=True)
class SelectionTrace:
    """Search diagnostics: best merit after init and after each iteration."""

    best_merit_per_iteration: tuple[float, ...]
    evaluations: int

    @property
    def best_merit(self) -> float:
        return self.best_merit_per_iteration[-1]


def _bin_column(x: np.ndarray, bins: int) -> np.ndarray:
    """Discretize one column: values pass through when there are few of them,
    otherwise equal-frequency quantile bins.

    The column is sorted once; quantiles depend only on order statistics, so
    the sorted copy gives the same edges as the column itself.
    """
    ordered = np.sort(x)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if distinct.size <= bins:
        return np.searchsorted(distinct, x).astype(np.int32)
    edges = np.quantile(ordered, np.arange(1, bins) / bins)
    return np.searchsorted(edges, x, side="right").astype(np.int32)


def _information_table(ds: Dataset, bins: int):
    """Bin each feature once. Returns the codes, each feature's entropy H(j),
    the label's entropy H(y) and each feature's gain I(j; y), in bits."""
    if bins < 2:
        raise InputError("need at least 2 bins")
    if ds.n_rows == 0:
        raise InputError("empty dataset")
    # A code is below both bins and the row count, so the narrowest unsigned
    # type that holds the smaller of them keeps every code: one byte at 10 bins.
    code_type = np.min_scalar_type(min(bins, ds.n_rows) - 1)
    codes = [_bin_column(ds.features[:, j], bins).astype(code_type)
             for j in range(ds.n_features)]
    labels = ds.labels.astype(np.int64)
    entropies = [entropy(np.bincount(c)) for c in codes]
    h_class = entropy(np.bincount(labels))
    width = int(labels.max()) + 1
    gains = [_information(h, h_class, entropy(np.bincount(_joint_codes(c, labels, width))))
             for c, h in zip(codes, entropies)]
    return codes, entropies, h_class, gains


def _joint_codes(a: np.ndarray, b: np.ndarray, width_b: int) -> np.ndarray:
    """a * width_b + b in int64, one code per pair of values, for codes b in
    [0, width_b). With --bins user-set, the joint code of two bin codes can
    pass 2**31."""
    joint = np.multiply(a, width_b, dtype=np.int64)
    joint += b
    return joint


def _information(ha: float, hb: float, h_joint: float) -> float:
    """I(A; B) from the marginal and joint entropies, clipped at 0 against float noise."""
    return max(ha + hb - h_joint, 0.0)


def _symmetric_uncertainty(ha: float, hb: float, mi: float) -> float:
    """SU(A, B) = 2 I(A;B) / (H(A) + H(B)), defined as 0 when both are constant."""
    if ha + hb == 0.0:
        return 0.0
    return min(max(2.0 * mi / (ha + hb), 0.0), 1.0)


def build_correlation_cache(ds: Dataset, bins: int = 10) -> CorrelationCache:
    """Fill the pairwise SU matrices used by the merit: one joint entropy per pair."""
    codes, h, h_class, gains = _information_table(ds, bins)
    d = len(codes)
    feature_class = np.array([_symmetric_uncertainty(h[j], h_class, gains[j]) for j in range(d)])
    widths = [int(c.max()) + 1 for c in codes]
    feature_feature = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            h_joint = entropy(np.bincount(_joint_codes(codes[i], codes[j], widths[j])))
            su = _symmetric_uncertainty(h[i], h[j], _information(h[i], h[j], h_joint))
            feature_feature[i, j] = feature_feature[j, i] = su
    return CorrelationCache(feature_class=feature_class, feature_feature=feature_feature, bins=bins)


def cfs_merit(subset: FeatureSubset, cache: CorrelationCache) -> float:
    """Subset quality k * mean(feature-class SU) / sqrt(k + k(k-1) * mean pair SU).

    The pairwise mean runs over off-diagonal selected pairs and is 0 for k = 1.
    """
    idx = subset.indices
    k = idx.size
    if k == 0:
        raise InputError("cannot score an empty subset")
    r_cf = float(cache.feature_class[idx].mean())
    if k == 1:
        r_ff = 0.0
    else:
        block = cache.feature_feature[np.ix_(idx, idx)]
        r_ff = float((block.sum() - np.trace(block)) / (k * (k - 1)))
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def binarize(position: np.ndarray, rng_draws: np.ndarray, guard: int | None = None) -> FeatureSubset:
    """Map a continuous position to a subset: bit i set iff draw_i < sigmoid(x_i).

    An empty outcome falls back to the guard feature (callers pass the feature
    with the strongest class correlation; defaults to 0).
    """
    position = np.asarray(position, dtype=np.float64)
    rng_draws = np.asarray(rng_draws, dtype=np.float64)
    if position.shape != rng_draws.shape:
        raise InputError("position and draw vectors differ in length")
    mask = rng_draws < _sigmoid(position)
    if not mask.any():
        mask = mask.copy()
        mask[guard if guard is not None else 0] = True
    return FeatureSubset(mask=mask)


def local_walk(position: np.ndarray, epsilon: np.ndarray, mean_loudness: float) -> np.ndarray:
    """Random walk x + eps * A around a solution, scaled by the mean loudness."""
    position = np.asarray(position, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    if position.shape != epsilon.shape:
        raise InputError("position and epsilon vectors differ in length")
    if mean_loudness < 0:
        raise InputError("mean loudness must be non-negative")
    return np.clip(position + epsilon * mean_loudness, -POSITION_CLAMP, POSITION_CLAMP)


def _improves(merit, subset, best_merit, best_subset) -> bool:
    if merit != best_merit:
        return merit > best_merit
    return (subset.k, subset.mask.tolist()) < (best_subset.k, best_subset.mask.tolist())


def cfs_ba_select(ds: Dataset, config: BatSwarmConfig | None = None,
                  bins: int = 10) -> tuple[FeatureSubset, SelectionTrace]:
    """Search the subset space for the best CFS merit with a bat swarm.

    The swarm lives in arrays with one row per bat. Each bat flies by
    frequency-tuned velocity updates (f = f_min + (f_max - f_min) beta,
    v += (x - x_best) f, x = clip(x + v)) relative to the best solution, which
    enters as its anchor encoding: +ANCHOR_SCALE for selected features,
    -ANCHOR_SCALE otherwise, so its bit-flip probabilities under the sigmoid
    stay away from saturation. With probability (1 - pulse rate) the candidate
    is instead a random walk around that anchor, scaled by the swarm's mean
    loudness. Candidates are binarized stochastically and scored with
    cfs_merit, once per distinct subset; a bat archives a candidate when the
    merit does not drop and a uniform draw stays under its loudness, which
    then decays while the pulse rate grows. The global best updates on strict
    improvement (ties prefer fewer features, then the lexicographically
    smaller mask). Deterministic given the seed.
    """
    config = config or BatSwarmConfig()
    d = ds.n_features
    if d < 2:
        raise InputError("need at least 2 features to search")

    cache = build_correlation_cache(ds, bins)
    guard = int(np.argmax(cache.feature_class))
    rng = np.random.default_rng(config.seed)
    n = config.n_bats

    positions = rng.uniform(*POSITION_RANGE, size=(n, d))
    velocities = np.zeros((n, d))
    loudness = rng.uniform(*LOUDNESS_RANGE, size=n)
    initial_rates = rng.uniform(*PULSE_RATE_RANGE, size=n)
    pulse_rates = np.zeros(n)
    fitness = np.empty(n)

    merits: dict[bytes, float] = {}

    def merit_of(subset: FeatureSubset) -> float:
        # the swarm revisits subsets often; cfs_merit scores each one once
        key = subset.mask.tobytes()
        if key not in merits:
            merits[key] = cfs_merit(subset, cache)
        return merits[key]

    best_merit = -math.inf
    best_subset = None
    for i in range(n):
        subset = binarize(positions[i], rng.random(d), guard)
        fitness[i] = merit = merit_of(subset)
        if best_subset is None or _improves(merit, subset, best_merit, best_subset):
            best_merit, best_subset = merit, subset

    trace = [best_merit]
    for t in range(1, config.max_iterations + 1):
        mean_loudness = float(loudness.mean())
        best_position = ANCHOR_SCALE * (2.0 * best_subset.mask.astype(np.float64) - 1.0)
        for i in range(n):
            freq = config.f_min + (config.f_max - config.f_min) * rng.random()
            velocities[i] += (positions[i] - best_position) * freq
            positions[i] = np.clip(positions[i] + velocities[i], -POSITION_CLAMP, POSITION_CLAMP)
            candidate = positions[i]
            if pulse_rates[i] < rng.random():
                candidate = local_walk(best_position, rng.uniform(-1.0, 1.0, d), mean_loudness)
            subset = binarize(candidate, rng.random(d), guard)
            merit = merit_of(subset)
            if merit >= fitness[i] and rng.random() < loudness[i]:
                fitness[i] = merit
                loudness[i] *= config.alpha
                pulse_rates[i] = initial_rates[i] * (1.0 - math.exp(-config.gamma * t))
            if _improves(merit, subset, best_merit, best_subset):
                best_merit, best_subset = merit, subset
        trace.append(best_merit)

    return best_subset, SelectionTrace(
        best_merit_per_iteration=tuple(trace),
        evaluations=n * (config.max_iterations + 1),
    )


def _ranked(scores: list[float]) -> list[tuple[int, float]]:
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return [(j, scores[j]) for j in order]


def ig_rank(ds: Dataset, bins: int = 10) -> list[tuple[int, float]]:
    """Features ordered by information gain with the label, ties by index."""
    _, _, _, gains = _information_table(ds, bins)
    return _ranked(gains)


def igr_rank(ds: Dataset, bins: int = 10) -> list[tuple[int, float]]:
    """Features ordered by gain ratio IG / H(feature); zero-entropy features score 0."""
    _, entropies, _, gains = _information_table(ds, bins)
    return _ranked([g / h if h > 0 else 0.0 for g, h in zip(gains, entropies)])
