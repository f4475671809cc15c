import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsforge import trees
from idsforge.ensemble import (CombinationRule, VoteEnsemble, combine,
                               combine_stack, ensemble_predict,
                               ensemble_predict_batch)
from idsforge.errors import InputError
from idsforge.trees import Forest, TreeParams, c45_fit, forest_pa_fit, rf_fit

from conftest import leaf_tree, make_blobs, make_tied_dataset, members, oracle_mean

ALL_RULES = list(CombinationRule)


def dists(*rows):
    return [np.array(r, dtype=float) for r in rows]


def _oracle_normalized(scores):
    total = scores.sum()
    if total <= 0:
        return np.full(scores.shape, 1.0 / scores.size)
    return scores / total


def oracle_combine(stack, rule):
    """Reference per-row combination of an (l, c) stack: (label, distribution).

    The vectorised rules in combine_stack must match it bit for bit.
    """
    l, c = stack.shape
    if rule is CombinationRule.AVERAGE_OF_PROBABILITIES:
        scores = stack.mean(axis=0)
        return int(np.argmax(scores)), scores
    if rule is CombinationRule.MAJORITY_VOTING:
        votes = np.bincount(np.argmax(stack, axis=1), minlength=c)
        tied = np.flatnonzero(votes == votes.max())
        if tied.size == 1:
            label = int(tied[0])
        else:
            mean = stack.mean(axis=0)
            label = int(tied[np.argmax(mean[tied])])
        return label, votes / l
    if rule is CombinationRule.PRODUCT_OF_PROBABILITIES:
        scores = _oracle_normalized(np.prod(stack, axis=0))
    elif rule is CombinationRule.MINIMUM_PROBABILITY:
        scores = _oracle_normalized(stack.min(axis=0))
    else:
        scores = _oracle_normalized(stack.max(axis=0))
    return int(np.argmax(scores)), scores


@st.composite
def member_stacks(draw):
    """(members, rows, classes) stacks with 1-4 members and 2-11 classes,
    optionally rounded to force ties, with some all-zero class columns and
    sometimes rows normalized to distributions."""
    l = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=20))
    c = draw(st.integers(min_value=2, max_value=11))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    stack = rng.random((l, n, c))
    if draw(st.booleans()):
        stack = np.round(stack, draw(st.integers(min_value=0, max_value=1)))
    zero = draw(st.lists(st.integers(min_value=0, max_value=c - 1), max_size=c))
    stack[:, :, zero] = 0.0
    if draw(st.booleans()):
        totals = stack.sum(axis=2, keepdims=True)
        stack = np.divide(stack, totals, out=stack.copy(), where=totals > 0)
    return stack


class TestCombine:
    def test_aop_hand_worked(self):
        result = combine(dists([0.6, 0.4], [0.5, 0.5], [0.2, 0.8]),
                         CombinationRule.AVERAGE_OF_PROBABILITIES)
        assert result.label == 1
        assert result.distribution == pytest.approx([13 / 30, 17 / 30], abs=1e-9)

    def test_unanimous_members_agree_under_every_rule(self):
        same = dists([0.1, 0.7, 0.2], [0.1, 0.7, 0.2], [0.1, 0.7, 0.2])
        for rule in ALL_RULES:
            assert combine(same, rule).label == 1

    def test_majority_two_against_one(self):
        votes = dists([0.9, 0.1], [0.8, 0.2], [0.2, 0.8])
        result = combine(votes, CombinationRule.MAJORITY_VOTING)
        assert result.label == 0
        assert result.distribution == pytest.approx([2 / 3, 1 / 3])

    def test_majority_tie_falls_back_to_mean(self):
        votes = dists([0.9, 0.1], [0.1, 0.9])
        result = combine(votes, CombinationRule.MAJORITY_VOTING)
        assert result.label == 0  # mean is [0.5, 0.5]; lowest index wins

    def test_majority_warns_when_members_fewer_than_classes(self):
        votes = dists([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        result = combine(votes, CombinationRule.MAJORITY_VOTING)
        assert result.warning is not None
        assert "2 members" in result.warning

    def test_product_renormalizes(self):
        result = combine(dists([0.5, 0.5], [0.8, 0.2]),
                         CombinationRule.PRODUCT_OF_PROBABILITIES)
        assert result.distribution == pytest.approx([0.8, 0.2])
        assert result.label == 0

    def test_min_max(self):
        d = dists([0.6, 0.4], [0.3, 0.7])
        low = combine(d, CombinationRule.MINIMUM_PROBABILITY)
        assert low.distribution == pytest.approx([3 / 7, 4 / 7])
        high = combine(d, CombinationRule.MAXIMUM_PROBABILITY)
        assert high.distribution == pytest.approx([6 / 13, 7 / 13])

    def test_argmax_tie_prefers_lowest_index(self):
        result = combine(dists([0.5, 0.5]), CombinationRule.AVERAGE_OF_PROBABILITIES)
        assert result.label == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises((InputError, ValueError)):
            combine([np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])],
                    CombinationRule.AVERAGE_OF_PROBABILITIES)

    def test_rule_parsing(self):
        assert CombinationRule.from_string("majority-voting") is CombinationRule.MAJORITY_VOTING
        with pytest.raises(InputError):
            CombinationRule.from_string("plurality")

    def test_aop_matches_independent_mean_on_1000_triples(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            triple = rng.random((3, 4))
            triple /= triple.sum(axis=1, keepdims=True)
            result = combine(triple, CombinationRule.AVERAGE_OF_PROBABILITIES)
            expected = np.zeros(4)
            for row in triple:
                expected += row
            expected /= 3.0
            assert np.abs(result.distribution - expected).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_aop_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        triple = rng.random((3, 5)) + 1e-3
        triple /= triple.sum(axis=1, keepdims=True)
        base = combine(triple, CombinationRule.AVERAGE_OF_PROBABILITIES)
        for perm in ([1, 2, 0], [2, 0, 1], [2, 1, 0]):
            shuffled = combine(triple[perm], CombinationRule.AVERAGE_OF_PROBABILITIES)
            assert shuffled.label == base.label
            assert np.allclose(shuffled.distribution, base.distribution)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_single_member_all_rules_agree(self, seed):
        rng = np.random.default_rng(seed)
        single = rng.random((1, 4)) + 1e-6
        single /= single.sum()
        labels = {rule: combine(single, rule).label for rule in ALL_RULES}
        assert len(set(labels.values())) == 1

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_smoothed_inputs_never_divide_by_zero(self, seed):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0.01, 1.0, size=(3, 4))
        stack /= stack.sum(axis=1, keepdims=True)
        for rule in (CombinationRule.PRODUCT_OF_PROBABILITIES,
                     CombinationRule.MINIMUM_PROBABILITY):
            result = combine(stack, rule)
            assert np.isfinite(result.distribution).all()
            assert result.distribution.sum() == pytest.approx(1.0)


class TestCombineStack:
    @settings(max_examples=300, deadline=None)
    @given(stack=member_stacks(), rule=st.sampled_from(ALL_RULES))
    def test_matches_per_row_oracle_bit_for_bit(self, stack, rule):
        labels, scores = combine_stack(stack, rule)
        assert labels.shape == (stack.shape[1],)
        assert scores.shape == stack.shape[1:]
        for i in range(stack.shape[1]):
            label, expected = oracle_combine(stack[:, i, :], rule)
            assert labels[i] == label
            assert scores[i].tobytes() == expected.tobytes()
            single = combine(stack[:, i, :], rule)
            assert single.label == label
            assert single.distribution.tobytes() == expected.tobytes()

    def test_all_zero_rows_become_uniform(self):
        stack = np.zeros((2, 3, 4))
        for rule in (CombinationRule.PRODUCT_OF_PROBABILITIES,
                     CombinationRule.MINIMUM_PROBABILITY,
                     CombinationRule.MAXIMUM_PROBABILITY):
            labels, scores = combine_stack(stack, rule)
            assert (labels == 0).all()
            assert (scores == 0.25).all()


@pytest.fixture(scope="module")
def member_pool():
    """Trees and forests over one 3-class, 6-feature table: fitted ones, a
    single-leaf tree and a forest that mixes a leaf with a fitted tree."""
    ds = make_tied_dataset(seed=7, n=200, classes=3)
    c45 = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
    leaf = leaf_tree([0.25, 0.5, 0.25], ds.n_features)
    return {"c45": c45, "c45_pruned": c45_fit(ds, params=TreeParams(min_leaf=8)),
            "rf": rf_fit(ds, n_trees=4, seed=7), "forest_pa": forest_pa_fit(ds, n_trees=3, seed=7),
            "leaf": leaf, "mixed": Forest([leaf, c45], "random_forest", [0, 1])}


class TestVoteEnsemble:
    def test_members_must_agree_on_shape(self):
        ds_a = make_blobs(seed=0, n=60, d=4)
        ds_b = make_blobs(seed=0, n=60, d=5)
        with pytest.raises(InputError):
            VoteEnsemble(members=[c45_fit(ds_a), c45_fit(ds_b)])

    @pytest.mark.parametrize("member", [
        Forest(trees=[], kind="random_forest", bootstrap_seeds=[]),
        np.zeros((2, 2)), "c45"], ids=["empty forest", "array", "string"])
    def test_member_must_be_a_tree_or_a_forest(self, member):
        with pytest.raises(InputError):
            VoteEnsemble(members=[member])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_walk_matches_oracles_bit_for_bit(self, member_pool, data):
        """One walk over every member's trees gives each member's oracle mean
        (tree by tree, row by row), and the rule combines them as the per-row
        oracle does. A small block cap makes a batch span many blocks."""
        names = data.draw(st.lists(st.sampled_from(sorted(member_pool)), min_size=1, max_size=4))
        models = [member_pool[name] for name in names]
        thresholds = sorted({t for model in models for tree in members(model)
                             for t in tree.threshold[tree.feature >= 0]} or {0.5})
        cell = (st.sampled_from(thresholds) | st.sampled_from([math.nan, math.inf, -math.inf])
                | st.floats(-0.5, 1.5))
        d = models[0].n_features
        probes = np.array(data.draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                             max_size=12)), dtype=np.float64).reshape(-1, d)
        cap = data.draw(st.sampled_from([1, 5, 16, 40, trees.WALKERS_PER_BLOCK]))
        expected = np.stack([oracle_mean(members(model), probes) for model in models])
        with mock.patch.object(trees, "WALKERS_PER_BLOCK", cap):
            for rule in ALL_RULES:
                ens = VoteEnsemble(members=models, rule=rule)
                assert ens.stack.predict(probes).tobytes() == expected.tobytes()
                labels, dist = ensemble_predict_batch(ens, probes)
                assert labels.shape == (len(probes),)
                assert dist.shape == (len(probes), ens.n_classes)
                for i, row in enumerate(probes):
                    label, scores = oracle_combine(expected[:, i], rule)
                    assert labels[i] == label
                    assert dist[i].tobytes() == scores.tobytes()
                    single = ensemble_predict(ens, row)
                    assert single.label == label
                    assert single.distribution.tobytes() == scores.tobytes()

    def test_members_snapshot_at_construction(self):
        tree = c45_fit(make_tied_dataset(seed=7, n=200, classes=3))
        ens = VoteEnsemble(members=[tree])
        probes = np.random.default_rng(1).uniform(-0.5, 1.5, (20, tree.n_features))
        before = ensemble_predict_batch(ens, probes)[1]
        tree.value[:] = 1.0 / tree.n_classes
        assert ensemble_predict_batch(ens, probes)[1].tobytes() == before.tobytes()

    def test_training_rows_unanimous(self):
        ds = make_blobs(seed=1, n=100, d=5)
        members = [c45_fit(ds), rf_fit(ds, n_trees=5, seed=3),
                   forest_pa_fit(ds, n_trees=5, seed=3)]
        ens = VoteEnsemble(members=members)
        labels, _ = ensemble_predict_batch(ens, ds.features)
        assert (labels == ds.labels).mean() > 0.97

    def test_single_member_matches_model(self):
        ds = make_blobs(seed=2, n=80, d=4)
        tree = c45_fit(ds, params=TreeParams(min_leaf=1, min_gain=0.0))
        for rule in ALL_RULES:
            ens = VoteEnsemble(members=[tree], rule=rule)
            row = ds.features[7]
            assert ensemble_predict(ens, row).label == int(np.argmax(
                tree.predict_batch(row[None])[0]))

    def test_batch_agrees_with_single_row(self):
        ds = make_blobs(seed=3, n=80, d=4)
        members = [c45_fit(ds), c45_fit(ds, params=TreeParams(min_leaf=5)),
                   rf_fit(ds, n_trees=3, seed=4)]
        for rule in ALL_RULES:
            ens = VoteEnsemble(members=members, rule=rule)
            labels, dist = ensemble_predict_batch(ens, ds.features[:10])
            for i in range(10):
                row = ds.features[i]
                label, expected = oracle_combine(
                    np.array([m.predict_batch(row[None])[0] for m in members]), rule)
                assert labels[i] == label
                assert dist[i].tobytes() == expected.tobytes()
                single = ensemble_predict(ens, row)
                assert single.label == label
                assert single.distribution.tobytes() == expected.tobytes()
