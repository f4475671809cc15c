import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsforge.dataset import (Dataset, FeatureMeta, RawTable, decode_symbol,
                              encode, filter_table, load_csv, normalize,
                              read_dataset_artifact, select_features,
                              stratified_folds, write_dataset_artifact)
from idsforge.errors import InputError

from conftest import make_dataset


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_header_and_label_by_name(self, tmp_path):
        path = write_csv(tmp_path, "a,b,class\n1,x,normal\n2,y,dos\n3,z,normal\n")
        raw = load_csv(path, label_column="class")
        assert raw.n_rows == 3
        assert raw.column_names == ["a", "b", "class"]
        assert raw.label_column == 2

    def test_byte_order_mark_not_part_of_first_name(self, tmp_path):
        path = write_csv(tmp_path, "\ufeffclass,a\nnormal,1\ndos,2\n")
        raw = load_csv(path, label_column="class")
        assert raw.column_names == ["class", "a"]
        assert raw.label_column == 0

    def test_label_by_index_without_header(self, tmp_path):
        path = write_csv(tmp_path, "1,x,normal\n2,y,dos\n")
        raw = load_csv(path, label_column=2, has_header=False)
        assert raw.column_names == ["col_0", "col_1", "col_2"]
        assert raw.label_column == 2

    def test_ragged_row_names_line(self, tmp_path):
        rows = ["c" + str(j) for j in range(41)]
        good = ",".join("1" for _ in range(41))
        bad = ",".join("1" for _ in range(40))
        path = write_csv(tmp_path, ",".join(rows) + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(path, label_column=0)

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(InputError, match="not found"):
            load_csv(path, label_column="class")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_csv(str(tmp_path / "nope.csv"), label_column=0)


class TestFilter:
    def test_duplicate_named_column_keeps_first(self, tmp_path):
        path = write_csv(
            tmp_path,
            "Fwd Header Length,x,Fwd Header Length,class\n1,5,9,a\n2,6,8,b\n3,7,7,a\n",
        )
        filtered, report = filter_table(load_csv(path, label_column="class"))
        assert filtered.column_names.count("Fwd Header Length") == 1
        assert report.dropped_duplicate_features == ("Fwd Header Length",)
        # first occurrence kept: values 1,2,3
        kept = [row[0] for row in filtered.cells]
        assert kept == ["1", "2", "3"]

    def test_constant_column_dropped(self, tmp_path):
        path = write_csv(tmp_path, "a,k,class\n1,5,x\n2,5,y\n3,5,x\n")
        filtered, report = filter_table(load_csv(path, label_column="class"))
        assert "k" not in filtered.column_names
        assert report.dropped_constant_features == ("k",)

    def test_nonfinite_and_missing_become_zero(self, tmp_path):
        path = write_csv(
            tmp_path,
            "Flow Packets/s,b,class\nInfinity,1,x\nNaN,2,y\n,3,x\n-Infinity,4,y\n7.5,5,x\n",
        )
        filtered, report = filter_table(load_csv(path, label_column="class"))
        col = [row[filtered.column_names.index("Flow Packets/s")] for row in filtered.cells]
        assert col == ["0", "0", "0", "0", "7.5"]
        assert report.nonfinite_replaced == 3
        assert report.missing_replaced == 1

    def test_all_nonfinite_column_dropped_as_constant(self, tmp_path):
        path = write_csv(tmp_path, "bad,b,class\nInfinity,1,x\nNaN,2,y\n,3,x\n")
        filtered, report = filter_table(load_csv(path, label_column="class"))
        assert "bad" not in filtered.column_names
        assert report.dropped_constant_features == ("bad",)

    def test_constant_label_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,class\n1,x\n2,x\n")
        with pytest.raises(InputError, match="single class"):
            filter_table(load_csv(path, label_column="class"))

    def test_all_features_dropped_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,class\n5,x\n5,y\n")
        with pytest.raises(InputError, match="no feature columns"):
            filter_table(load_csv(path, label_column="class"))

    def test_rows_and_label_values_preserved(self, tmp_path):
        path = write_csv(tmp_path, "a,b,class\n1,4,x\n2,5,y\n3,6,z\n")
        raw = load_csv(path, label_column="class")
        filtered, report = filter_table(raw)
        assert report.rows_in == report.rows_out == 3
        before = {row[raw.label_column] for row in raw.cells}
        after = {row[filtered.label_column] for row in filtered.cells}
        assert before == after


class TestEncode:
    def test_symbolic_first_appearance(self):
        raw = RawTable(
            column_names=["proto", "class"],
            cells=[["tcp", "a"], ["udp", "b"], ["icmp", "a"], ["tcp", "b"]],
            label_column=1,
        )
        ds = encode(raw)
        assert list(ds.features[:, 0]) == [0.0, 1.0, 2.0, 0.0]
        assert ds.feature_meta[0].symbol_codes == {"tcp": 0, "udp": 1, "icmp": 2}

    def test_numeric_column(self):
        raw = RawTable(["v", "class"], [["1.5", "a"], ["2", "b"]], 1)
        ds = encode(raw)
        assert list(ds.features[:, 0]) == [1.5, 2.0]
        assert ds.feature_meta[0].original_kind == "numeric"

    def test_label_mapping(self):
        raw = RawTable(["v", "class"], [["1", "normal"], ["2", "dos"], ["3", "normal"]], 1)
        ds = encode(raw)
        assert ds.class_names == ["normal", "dos"]
        assert list(ds.labels) == [0, 1, 0]
        assert ds.normal_class == 0

    def test_mixed_column_becomes_symbolic(self):
        raw = RawTable(["v", "class"], [["1", "a"], ["oops", "b"], ["3", "a"]], 1)
        ds = encode(raw)
        assert ds.feature_meta[0].original_kind == "symbolic"

    def test_unfiltered_nonfinite_token_becomes_symbolic(self):
        raw = RawTable(["v", "class"], [["1", "a"], ["inf", "b"]], 1)
        ds = encode(raw)
        assert ds.feature_meta[0].original_kind == "symbolic"
        assert np.isfinite(ds.features).all()

    def test_empty_table_rejected(self):
        raw = RawTable(["v", "class"], [], 1)
        with pytest.raises(InputError):
            encode(raw)

    def test_symbol_round_trip(self):
        tokens = ["tcp", "udp", "icmp", "udp", "tcp", "ssh"]
        raw = RawTable(["proto", "class"],
                       [[t, "a" if i % 2 else "b"] for i, t in enumerate(tokens)], 1)
        ds = encode(raw)
        decoded = [decode_symbol(ds.feature_meta[0], v) for v in ds.features[:, 0]]
        assert decoded == tokens


class TestNormalize:
    def test_bounds_and_midpoint(self):
        ds = make_dataset([[0.0], [5.0], [10.0]], [0, 1, 0])
        out = normalize(ds)
        assert list(out.features[:, 0]) == [0.0, 0.5, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.normal(size=(40, 3)) * 7 + 3, rng.integers(0, 2, 40))
        once = normalize(ds)
        twice = normalize(once)
        assert np.array_equal(once.features, twice.features)

    def test_constant_feature_named_in_error(self):
        ds = make_dataset([[1.0, 5.0], [2.0, 5.0]], [0, 1])
        with pytest.raises(InputError, match="f1"):
            normalize(ds)

    def test_meta_keeps_original_range(self):
        ds = make_dataset([[0.0], [10.0]], [0, 1])
        out = normalize(ds)
        assert out.feature_meta[0].observed_max == 10.0


class TestStratifiedFolds:
    def test_perfect_stratification(self):
        labels = [0] * 5 + [1] * 5
        ds = make_dataset(np.arange(10)[:, None], labels)
        folds = stratified_folds(ds, k=5, seed=3)
        for f in range(5):
            fold_labels = ds.labels[folds.test_rows(f)]
            assert sorted(fold_labels) == [0, 1]

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.random((30, 2)), rng.integers(0, 3, 30))
        a = stratified_folds(ds, k=4, seed=9)
        b = stratified_folds(ds, k=4, seed=9)
        assert np.array_equal(a.assignment, b.assignment)

    def test_eleven_instances_over_ten_folds(self):
        # 11-member minority class lands once in nine folds and twice in one
        labels = [0] * 11 + [1] * 89
        ds = make_dataset(np.arange(100)[:, None], labels)
        folds = stratified_folds(ds, k=10, seed=0)
        minority = folds.assignment[ds.labels == 0]
        sizes = sorted(np.bincount(minority, minlength=10))
        assert sizes == [1] * 9 + [2]

    def test_k_larger_than_rows_rejected(self):
        ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
        with pytest.raises(InputError):
            stratified_folds(ds, k=4, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=23), min_size=1, max_size=4),
        k=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_spread_invariants(self, sizes, k, seed):
        labels = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
        if labels.size < k:
            return
        ds = make_dataset(np.arange(labels.size)[:, None].astype(float), labels)
        folds = stratified_folds(ds, k=k, seed=seed)
        global_sizes = np.bincount(folds.assignment, minlength=k)
        assert global_sizes.sum() == labels.size
        assert global_sizes.max() - global_sizes.min() <= 1
        for cls in range(len(sizes)):
            per_class = np.bincount(folds.assignment[ds.labels == cls], minlength=k)
            assert per_class.max() - per_class.min() <= 1


class TestArtifact:
    def test_round_trip(self, tmp_path):
        raw = RawTable(
            ["proto", "v", "class"],
            [["tcp", "1.25", "normal"], ["udp", "3.5", "dos"], ["tcp", "0.0", "normal"]],
            2,
        )
        ds = normalize(encode(raw))
        write_dataset_artifact(ds, tmp_path / "art")
        back = read_dataset_artifact(str(tmp_path / "art"))
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names
        assert back.normal_class == ds.normal_class
        assert back.feature_meta[0].symbol_codes == ds.feature_meta[0].symbol_codes


class TestSelectFeatures:
    def test_projection(self):
        ds = make_dataset(np.arange(12).reshape(4, 3).astype(float), [0, 1, 0, 1])
        sub = select_features(ds, [2, 0])
        assert sub.n_features == 2
        assert sub.feature_names == ["f2", "f0"]
        assert np.array_equal(sub.features[:, 0], ds.features[:, 2])

    def test_bad_indices(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        with pytest.raises(InputError):
            select_features(ds, [5])
        with pytest.raises(InputError):
            select_features(ds, [0, 0])


class TestDatasetInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            make_dataset([[np.nan], [1.0]], [0, 1])

    def test_rejects_missing_class(self):
        with pytest.raises(InputError):
            Dataset(
                features=np.zeros((2, 1)),
                feature_meta=[FeatureMeta("f0", "numeric", 0.0, 0.0)],
                labels=np.array([0, 0]),
                class_names=["a", "b"],
                normal_class=0,
            )

    def test_immutable_arrays(self):
        ds = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
