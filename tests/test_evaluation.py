from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsforge.ensemble import CombinationRule
from idsforge.errors import InputError
from idsforge.evaluation import (ClassifierSpec, ConfusionMatrix,
                                 compute_metrics, confusion_from_predictions,
                                 cross_validate)
from idsforge.trees import TreeParams

from conftest import make_blobs, make_dataset, make_leak_dataset


class MajorityModel:
    """Test double: always predicts a fixed class."""

    def __init__(self, n_features, n_classes, winner=0):
        self.n_features = n_features
        self.n_classes = n_classes
        self.winner = winner

    def predict_batch(self, rows):
        dist = np.full((len(rows), self.n_classes), 0.1 / (self.n_classes - 1))
        dist[:, self.winner] = 0.9
        return dist


class TestComputeMetrics:
    def test_diagonal_matrix(self):
        cm = ConfusionMatrix(np.diag([30, 20, 10]), ["normal", "dos", "probe"])
        report = compute_metrics(cm, normal_class=0)
        assert report.accuracy == 1.0
        assert report.adr == 1.0
        assert report.far == 0.0
        assert report.precision_w == pytest.approx(1.0)

    def test_hand_worked_binary(self):
        cm = ConfusionMatrix(np.array([[90, 10], [20, 80]]), ["normal", "attack"])
        report = compute_metrics(cm, normal_class=0)
        assert report.accuracy == pytest.approx(0.85)
        assert report.far == pytest.approx(0.10)
        assert report.adr == pytest.approx(0.80)

    def test_all_normal_predictions(self):
        cm = ConfusionMatrix(np.array([[50, 0], [25, 0]]), ["normal", "attack"])
        report = compute_metrics(cm, normal_class=0)
        assert report.adr == 0.0
        assert report.far == 0.0
        assert report.zero_predicted == ("attack",)

    def test_exact_class_vs_binary_adr(self):
        # attack rows predicted as the wrong attack class still count in
        # binary mode but not in exact-class mode
        counts = np.array([
            [50, 0, 0],
            [0, 10, 10],
            [5, 5, 10],
        ])
        cm = ConfusionMatrix(counts, ["normal", "dos", "probe"])
        exact = compute_metrics(cm, normal_class=0, adr_mode="exact_class")
        binary = compute_metrics(cm, normal_class=0, adr_mode="binary")
        assert exact.adr == pytest.approx(20 / 40)
        assert binary.adr == pytest.approx(35 / 40)

    def test_accuracy_complements_off_diagonal(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 30, size=(4, 4))
        counts[0, 0] += 1  # ensure non-empty
        cm = ConfusionMatrix(counts, ["a", "b", "c", "d"])
        report = compute_metrics(cm, normal_class=0)
        off = counts.sum() - np.trace(counts)
        assert report.accuracy == pytest.approx(1.0 - off / counts.sum())

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_rates_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 40, size=(3, 3))
        counts[1, 1] += 1
        cm = ConfusionMatrix(counts, ["x", "y", "z"])
        report = compute_metrics(cm, normal_class=1)
        for value in (report.accuracy, report.precision_w, report.dr_w,
                      report.f_measure_w, report.adr, report.far):
            assert 0.0 <= value <= 1.0


class TestConfusionMatrix:
    def test_conservation(self):
        y_true = [0, 1, 2, 1, 0]
        y_pred = [0, 2, 2, 1, 1]
        cm = confusion_from_predictions(y_true, y_pred, ["a", "b", "c"])
        assert cm.total == 5
        assert list(cm.counts.sum(axis=1)) == [2, 2, 1]


class TestCrossValidate:
    def test_majority_classifier_on_balanced_data(self):
        ds = make_dataset(np.random.default_rng(0).random((100, 3)),
                          [0, 1] * 50)

        def fit(dataset, rows, seed):
            return MajorityModel(dataset.n_features, dataset.n_classes, winner=0)

        result = cross_validate(ds, [fit], k=5, repeats=1, seed=0)
        assert result.report.accuracy == pytest.approx(0.5, abs=0.02)

    def test_perfect_classifier_via_leak(self):
        ds = make_leak_dataset(seed=1, n=150, d=4, classes=3)
        spec = ClassifierSpec("c45", params=TreeParams(min_leaf=1, min_gain=0.0))
        result = cross_validate(ds, [spec], k=5, repeats=1, seed=2)
        assert result.report.accuracy == 1.0
        assert result.report.far == 0.0

    def test_confusion_total_is_rows_times_repeats(self):
        ds = make_blobs(seed=2, n=80, d=4)
        spec = ClassifierSpec("c45")
        result = cross_validate(ds, [spec], k=4, repeats=3, seed=0)
        assert result.confusion.total == 80 * 3
        assert len(result.per_repeat) == 3

    def test_tiny_class_error_names_class(self):
        labels = [0] * 50 + [1]
        ds = make_dataset(np.random.default_rng(1).random((51, 2)), labels,
                          class_names=["normal", "rare"])
        with pytest.raises(InputError, match="rare"):
            cross_validate(ds, [ClassifierSpec("c45")], k=5)

    def test_feature_subset_restricts_columns(self):
        ds = make_leak_dataset(seed=3, n=120, d=5, classes=2)
        spec = ClassifierSpec("c45", params=TreeParams(min_leaf=1, min_gain=0.0))
        with_leak = cross_validate(ds, [spec], k=4, seed=1, feature_indices=[0])
        without = cross_validate(ds, [spec], k=4, seed=1, feature_indices=[1, 2])
        assert with_leak.report.accuracy == 1.0
        assert without.report.accuracy < 0.75

    def test_deterministic_given_seed(self):
        ds = make_blobs(seed=5, n=90, d=5)
        spec = ClassifierSpec("rf", n_trees=5)
        a = cross_validate(ds, [spec], k=3, repeats=2, seed=4)
        b = cross_validate(ds, [spec], k=3, repeats=2, seed=4)
        assert np.array_equal(a.confusion.counts, b.confusion.counts)
        assert a.report.accuracy == b.report.accuracy

    def test_thread_count_does_not_change_results(self):
        ds = make_blobs(seed=6, n=90, d=5)
        spec = ClassifierSpec("rf", n_trees=6)
        one = cross_validate(ds, [spec], k=3, seed=1, threads=1)
        four = cross_validate(ds, [spec], k=3, seed=1, threads=4)
        assert np.array_equal(one.confusion.counts, four.confusion.counts)

    def test_ensemble_with_rule_variants(self):
        ds = make_blobs(seed=7, n=80, d=4)
        specs = [ClassifierSpec("c45"), ClassifierSpec("rf", n_trees=5)]
        for rule in CombinationRule:
            result = cross_validate(ds, specs, k=4, seed=0, rule=rule)
            assert 0.0 <= result.report.accuracy <= 1.0

    def test_mbt_positive(self):
        ds = make_blobs(seed=8, n=60, d=4)
        result = cross_validate(ds, [ClassifierSpec("c45")], k=3, seed=0)
        assert result.report.mbt_seconds > 0.0

    def test_members_match_one_member_runs(self):
        ds = make_blobs(seed=9, n=90, d=4, spread=0.3)
        specs = [ClassifierSpec("rf", n_trees=3), ClassifierSpec("c45"),
                 ClassifierSpec("forest_pa", n_trees=2)]
        for rule in (CombinationRule.MAJORITY_VOTING,
                     CombinationRule.PRODUCT_OF_PROBABILITIES):
            result = cross_validate(ds, specs, k=3, repeats=2, seed=5, rule=rule)
            assert len(result.members) == 3
            # Members at index 0 draw the seeds a one-member run draws, and
            # c45 draws none, so both match their standalone runs exactly.
            for spec, member in zip(specs[:2], result.members):
                alone = cross_validate(ds, [spec], k=3, repeats=2, seed=5, rule=rule)
                assert member.members == []
                assert np.array_equal(member.confusion.counts, alone.confusion.counts)
                for got, want in zip([member.report] + member.per_repeat,
                                     [alone.report] + alone.per_repeat):
                    assert replace(got, mbt_seconds=0.0) == replace(want, mbt_seconds=0.0)
            assert result.report.mbt_seconds == pytest.approx(
                sum(m.report.mbt_seconds for m in result.members))

    def test_each_member_fitted_once_per_fold(self):
        ds = make_dataset(np.random.default_rng(0).random((60, 3)), [0, 1] * 30)
        calls = []

        def fit(dataset, rows, seed):
            calls.append(seed)
            return MajorityModel(dataset.n_features, dataset.n_classes, winner=1)

        result = cross_validate(ds, [fit, fit], k=3, repeats=2, seed=0)
        assert len(calls) == 2 * 3 * 2
        assert [m.report.accuracy for m in result.members] == [0.5, 0.5]
