import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idsforge.dataset import normalize
from idsforge.errors import InputError
from idsforge.featsel import (BatSwarmConfig, CorrelationCache, FeatureSubset,
                              _bin_column, _improves, _information_table, _joint_codes,
                              binarize, build_correlation_cache, cfs_ba_select, cfs_merit,
                              ig_rank, igr_rank, local_walk)

from conftest import DATA_DIR, make_dataset, make_leak_dataset, make_search_dataset


def exhaustive_best_subset(cache: CorrelationCache) -> tuple[FeatureSubset, float]:
    """Oracle for the swarm: the best CFS merit over every nonempty subset,
    ties broken as cfs_ba_select breaks them; feasible only for small d."""
    d = cache.n_features
    assert d <= 20, "2**d subsets"
    best = None
    best_merit = -math.inf
    for bits in range(1, 1 << d):
        mask = np.array([(bits >> j) & 1 for j in range(d)], dtype=bool)
        subset = FeatureSubset(mask=mask)
        merit = cfs_merit(subset, cache)
        if best is None or _improves(merit, subset, best_merit, best):
            best, best_merit = subset, merit
    return best, best_merit


def make_cache(feature_class, feature_feature):
    return CorrelationCache(
        feature_class=np.asarray(feature_class, dtype=float),
        feature_feature=np.asarray(feature_feature, dtype=float),
        bins=10,
    )


def oracle_entropy(codes):
    counts = np.bincount(codes)
    counts = counts[counts > 0]
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def oracle_mutual_information(a, b):
    joint = a * (int(b.max()) + 1) + b
    return max(oracle_entropy(a) + oracle_entropy(b) - oracle_entropy(joint), 0.0)


def oracle_symmetric_uncertainty(a, b):
    """The per-pair scorer the shared information table replaced: it bins
    nothing itself but recomputes both marginals for every pair."""
    ha = oracle_entropy(a)
    hb = oracle_entropy(b)
    if ha + hb == 0.0:
        return 0.0
    return min(max(2.0 * oracle_mutual_information(a, b) / (ha + hb), 0.0), 1.0)


def oracle_bin_column(x, bins):
    """_bin_column as it was before it sorted the column once: np.unique for
    the distinct values, then np.quantile on the unsorted column."""
    distinct = np.unique(x)
    if distinct.size <= bins:
        return np.searchsorted(distinct, x).astype(np.int64)
    edges = np.quantile(x, np.arange(1, bins) / bins)
    return np.searchsorted(edges, x, side="right").astype(np.int64)


@st.composite
def scored_datasets(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % min(c, n))  # every class present
    # mix few-valued (pass-through) and many-valued (quantile) columns
    levels = draw(st.lists(st.sampled_from([1, 2, 3, 7, 1000]), min_size=d, max_size=d))
    feats = np.column_stack([rng.integers(0, k, n) / k for k in levels])
    ds = make_dataset(feats, labels)
    return ds, draw(st.integers(min_value=2, max_value=12))


def assert_scorers_match_oracle(ds, bins):
    """The cache and both rankings, bit for bit, against the per-pair oracle
    on int32 codes from _bin_column."""
    d = ds.n_features
    codes = [_bin_column(ds.features[:, j], bins) for j in range(d)]
    labels = ds.labels.astype(np.int64)
    fc = np.array([oracle_symmetric_uncertainty(codes[j], labels) for j in range(d)])
    ff = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            ff[i, j] = ff[j, i] = oracle_symmetric_uncertainty(codes[i], codes[j])
    gains = [oracle_mutual_information(codes[j], labels) for j in range(d)]
    ratios = [g / oracle_entropy(codes[j]) if oracle_entropy(codes[j]) > 0 else 0.0
              for j, g in enumerate(gains)]

    cache = build_correlation_cache(ds, bins)
    assert cache.feature_class.tobytes() == fc.tobytes()
    assert cache.feature_feature.tobytes() == ff.tobytes()
    assert ig_rank(ds, bins) == sorted(enumerate(gains), key=lambda p: (-p[1], p[0]))
    assert igr_rank(ds, bins) == sorted(enumerate(ratios), key=lambda p: (-p[1], p[0]))


class TestInformationTable:
    @settings(max_examples=80, deadline=None)
    @given(case=scored_datasets())
    def test_scorers_match_per_pair_oracle_exactly(self, case):
        assert_scorers_match_oracle(*case)

    @pytest.mark.parametrize("bins, code_type", [(2, np.uint8), (10, np.uint8),
                                                 (256, np.uint8), (257, np.uint16)])
    def test_narrow_codes_score_like_int32_codes(self, bins, code_type):
        """Codes are held in the narrowest unsigned type for bins - 1; 257
        bins cross from one byte to two. Columns of 2, 40, 256, 257 and 900
        levels pass through or bin into quantiles on either side of that."""
        rng = np.random.default_rng(3)
        n = 900
        labels = rng.permutation(np.arange(n) % 3)
        feats = np.column_stack([rng.permutation(np.arange(n) % k) / k
                                 for k in (2, 40, 256, 257, 900)])
        feats[:, 4] += labels  # one column carries the label
        ds = make_dataset(feats, labels)
        codes = _information_table(ds, bins)[0]
        assert {c.dtype for c in codes} == {np.dtype(code_type)}
        assert max(int(c.max()) for c in codes) == bins - 1
        assert_scorers_match_oracle(ds, bins)

    @settings(max_examples=150, deadline=None)
    @given(x=st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, 5e-324])
                      | st.floats(min_value=-1e9, max_value=1e9),
                      min_size=1, max_size=60),
           bins=st.integers(min_value=2, max_value=12))
    def test_bin_column_matches_unsorted_oracle(self, x, bins):
        """Ties and signed zeros: sorting once leaves every code unchanged."""
        x = np.array(x, dtype=np.float64)
        assert np.array_equal(_bin_column(x, bins), oracle_bin_column(x, bins))

    def test_bin_codes_are_int32(self):
        x = np.linspace(0.0, 1.0, 50)
        assert _bin_column(x, 10).dtype == np.int32 and _bin_column(x, 100).dtype == np.int32

    @pytest.mark.parametrize("width", [46_340, 46_341])
    def test_joint_code_past_int32_does_not_wrap(self, width):
        """width**2 - 1 is the largest joint code of two int32 bin codes:
        2**31 - 1 or less at 46,340, past 2**31 at 46,341."""
        top = np.array([width - 1, 0], dtype=np.int32)
        assert _joint_codes(top, top, width).tolist() == [width * width - 1, 0]

    @pytest.mark.parametrize("bins", [1, 0, -3])
    def test_fewer_than_two_bins_rejected_by_every_scorer(self, bins):
        ds = normalize(make_leak_dataset(seed=1, n=40, d=3, classes=2))
        for scorer in (build_correlation_cache, ig_rank, igr_rank):
            with pytest.raises(InputError, match="at least 2 bins"):
                scorer(ds, bins)


class TestCorrelationCache:
    def test_label_copy_has_full_correlation(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 400)
        feats = rng.random((400, 3))
        feats[:, 0] = labels
        ds = normalize(make_dataset(feats, labels))
        cache = build_correlation_cache(ds, bins=10)
        assert cache.feature_class[0] == pytest.approx(1.0)

    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(7)
        n = 10_000
        labels = rng.integers(0, 2, n)
        feats = rng.random((n, 2))
        ds = normalize(make_dataset(feats, labels))
        cache = build_correlation_cache(ds, bins=10)
        assert cache.feature_class[0] < 0.05
        assert cache.feature_class[1] < 0.05

    def test_diagonal_is_one(self):
        rng = np.random.default_rng(3)
        ds = normalize(make_dataset(rng.random((100, 4)), rng.integers(0, 2, 100)))
        cache = build_correlation_cache(ds, bins=8)
        assert np.array_equal(np.diag(cache.feature_feature), np.ones(4))

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        ds = normalize(make_dataset(rng.random((200, 5)), rng.integers(0, 3, 200)))
        cache = build_correlation_cache(ds, bins=6)
        assert np.array_equal(cache.feature_feature, cache.feature_feature.T)
        assert cache.feature_feature.min() >= 0.0
        assert cache.feature_feature.max() <= 1.0


class TestCfsMerit:
    def test_single_feature(self):
        cache = make_cache([0.7, 0.2], np.eye(2))
        assert cfs_merit(FeatureSubset.from_indices([0], 2), cache) == pytest.approx(0.7)

    def test_two_uncorrelated_features(self):
        cache = make_cache([0.8, 0.8], np.eye(2))
        merit = cfs_merit(FeatureSubset.from_indices([0, 1], 2), cache)
        assert merit == pytest.approx(1.6 / math.sqrt(2), abs=1e-5)

    def test_two_fully_correlated_features(self):
        cache = make_cache([1.0, 1.0], np.ones((2, 2)))
        merit = cfs_merit(FeatureSubset.from_indices([0, 1], 2), cache)
        assert merit == pytest.approx(1.0)

    def test_empty_subset_rejected(self):
        with pytest.raises(InputError):
            FeatureSubset(mask=np.zeros(3, dtype=bool))

    @settings(max_examples=60, deadline=None)
    @given(
        r_cf=st.floats(min_value=0.05, max_value=1.0),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_zero_intercorrelation_scaling(self, r_cf, k):
        # with no inter-correlation the merit is exactly sqrt(k) * r_cf
        cache = make_cache([r_cf] * k, np.eye(k))
        merit = cfs_merit(FeatureSubset.from_indices(list(range(k)), k), cache)
        assert merit == pytest.approx(math.sqrt(k) * r_cf, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=6),
        r_cf=st.floats(min_value=0.1, max_value=1.0),
        r_ff=st.floats(min_value=0.0, max_value=1.0),
        link=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_null_feature_never_helps(self, k, r_cf, r_ff, link):
        # appending a feature with zero class correlation and positive
        # correlation to an existing member cannot increase the merit
        d = k + 1
        fc = np.array([r_cf] * k + [0.0])
        ff = np.full((d, d), r_ff)
        np.fill_diagonal(ff, 1.0)
        ff[:, k] = 0.0
        ff[k, :] = 0.0
        ff[k, k] = 1.0
        ff[0, k] = ff[k, 0] = link
        cache = make_cache(fc, ff)
        base = cfs_merit(FeatureSubset.from_indices(list(range(k)), d), cache)
        grown = cfs_merit(FeatureSubset.from_indices(list(range(d)), d), cache)
        assert grown <= base + 1e-12


class TestBinarize:
    def test_saturated_positive_sets_all(self):
        rng = np.random.default_rng(0)
        subset = binarize(np.full(6, 20.0), rng.random(6))
        assert subset.k == 6

    def test_midpoint_threshold(self):
        # sigmoid(0) = 0.5: draw below sets the bit, draw above clears it
        assert binarize(np.zeros(1), np.array([0.49])).k == 1
        subset = binarize(np.zeros(2), np.array([0.51, 0.49]))
        assert list(subset.indices) == [1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            binarize(np.zeros(2), np.array([0.5]))

    def test_empty_falls_back_to_guard(self):
        subset = binarize(np.full(5, -20.0), np.random.default_rng(1).random(5), guard=3)
        assert list(subset.indices) == [3]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), d=st.integers(min_value=1, max_value=30))
    def test_never_empty(self, seed, d):
        rng = np.random.default_rng(seed)
        subset = binarize(rng.uniform(-25, 25, d), rng.random(d), guard=d - 1)
        assert subset.k >= 1


class TestLocalWalk:
    def test_zero_epsilon(self):
        pos = np.array([1.0, -0.5])
        assert np.array_equal(local_walk(pos, np.zeros(2), 1.3), pos)

    def test_zero_loudness(self):
        pos = np.array([1.0, -0.5])
        assert np.array_equal(local_walk(pos, np.array([0.7, -0.2]), 0.0), pos)

    def test_scaled_step(self):
        out = local_walk(np.array([1.0]), np.array([0.5]), 0.8)
        assert out[0] == pytest.approx(1.4)


class TestCfsBaSelect:
    def test_leak_feature_always_selected(self):
        ds = normalize(make_leak_dataset(seed=4, n=200, d=6, classes=2))
        for seed in range(20):
            subset, _ = cfs_ba_select(ds, BatSwarmConfig(seed=seed, max_iterations=30))
            assert 0 in subset.indices

    def test_matches_exhaustive_on_small_dataset(self):
        ds = make_search_dataset(2)
        cache = build_correlation_cache(ds, 10)
        _, best_merit = exhaustive_best_subset(cache)
        subset, trace = cfs_ba_select(ds, BatSwarmConfig(seed=5))
        assert trace.best_merit == pytest.approx(best_merit, rel=1e-12)

    def test_trace_monotone(self):
        ds = make_search_dataset(3)
        _, trace = cfs_ba_select(ds, BatSwarmConfig(seed=1, max_iterations=40))
        merits = trace.best_merit_per_iteration
        assert all(b >= a for a, b in zip(merits, merits[1:]))

    def test_deterministic(self):
        ds = make_search_dataset(5)
        a_subset, a_trace = cfs_ba_select(ds, BatSwarmConfig(seed=77))
        b_subset, b_trace = cfs_ba_select(ds, BatSwarmConfig(seed=77))
        assert np.array_equal(a_subset.mask, b_subset.mask)
        assert a_trace.best_merit_per_iteration == b_trace.best_merit_per_iteration
        assert a_trace.evaluations == b_trace.evaluations

    def test_single_feature_rejected(self):
        ds = make_dataset([[0.0], [1.0], [0.5], [0.25]], [0, 1, 0, 1])
        with pytest.raises(InputError):
            cfs_ba_select(ds)


GOLDEN_DATASETS = {
    **{f"search{s}": (lambda s=s: make_search_dataset(s)) for s in range(2, 6)},
    "leak": lambda: normalize(make_leak_dataset(seed=4, n=200, d=6, classes=2)),
}
# "wide" pushes velocities past the position clamp and saturates the pulse rate
GOLDEN_CONFIGS = {
    "default": dict(max_iterations=10),
    "full": {},
    "wide": dict(n_bats=8, f_min=0.5, f_max=5.0, alpha=0.5, gamma=50.0, max_iterations=20),
}


def golden_cases():
    """Every seed 0-24 under 'default' and 'wide'; seed 0 only under 'full'
    (100 iterations of 30 bats)."""
    for name in GOLDEN_DATASETS:
        for config in ("default", "wide"):
            for seed in range(25):
                yield name, config, seed
        yield name, "full", 0


def golden_run(name, config, seed, ds):
    """A swarm run as stored in tests/data/cfs_ba_golden.json: selected indices,
    the merit trace as [merit, repeats] runs, and the evaluation count."""
    subset, trace = cfs_ba_select(ds, BatSwarmConfig(seed=seed, **GOLDEN_CONFIGS[config]))
    runs = []
    for merit in trace.best_merit_per_iteration:
        if runs and runs[-1][0] == merit:
            runs[-1][1] += 1
        else:
            runs.append([merit, 1])
    return {"selected": [int(i) for i in subset.indices], "trace": runs,
            "evaluations": trace.evaluations}


class TestCfsBaGolden:
    """The swarm's subsets, exact merit traces and evaluation counts, recorded
    from the per-bat implementation that the array swarm replaced."""

    @pytest.mark.parametrize("name", list(GOLDEN_DATASETS))
    def test_matches_recorded_runs(self, name):
        with open(os.path.join(DATA_DIR, "cfs_ba_golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        ds = GOLDEN_DATASETS[name]()
        for case in golden_cases():
            if case[0] == name:
                assert golden_run(*case, ds) == golden["/".join(map(str, case))], case


class TestFilterRankings:
    def test_label_copy_ranks_first(self):
        ds = normalize(make_leak_dataset(seed=9, n=300, d=5, classes=3))
        for rank in (ig_rank(ds), igr_rank(ds)):
            assert rank[0][0] == 0

    def test_noise_scores_near_zero(self):
        rng = np.random.default_rng(12)
        n = 10_000
        labels = rng.integers(0, 2, n)
        ds = normalize(make_dataset(rng.random((n, 2)), labels))
        assert all(score < 0.05 for _, score in ig_rank(ds))

    def test_ig_non_negative(self):
        ds = make_search_dataset(1)
        assert all(score >= 0.0 for _, score in ig_rank(ds))

    def test_igr_binary_identity_scores_one(self):
        labels = np.array([0, 1] * 50)
        feats = np.column_stack([labels.astype(float), np.random.default_rng(0).random(100)])
        ds = normalize(make_dataset(feats, labels))
        scores = dict(igr_rank(ds))
        assert scores[0] == pytest.approx(1.0)

    def test_igr_zero_entropy_guard(self):
        # a feature whose binned codes are constant must score 0, not divide by zero
        labels = np.array([0, 1] * 30)
        feats = np.column_stack([np.full(60, 0.5), labels.astype(float)])
        ds = make_dataset(feats, labels)
        scores = dict(igr_rank(ds))
        assert scores[0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_igr_at_most_one_for_binary_labels(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        labels = rng.integers(0, 2, n)
        assume(labels.min() != labels.max())
        feats = rng.random((n, 3))
        ds = make_dataset(feats, labels)
        assert all(score <= 1.0 + 1e-12 for _, score in igr_rank(ds))
