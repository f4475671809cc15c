import csv
import io
import itertools
import json
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idsforge import dataset
from idsforge.cli import main
from idsforge.dataset import (NONFINITE_TOKENS, _ZERO_FILLED, Dataset, FeatureMeta,
                              PreprocessReport, RawTable, _parse_numeric,
                              _resolve_label_column, _resolve_normal_class, encode,
                              encode_scaled, filter_table, load_csv, normalize,
                              read_dataset_artifact, select_features, stratified_folds,
                              write_dataset_artifact)
from idsforge.errors import InputError

from conftest import column_cells, coded_table, make_dataset, traced_peak


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

    @pytest.mark.parametrize("block_rows", [1, 3, 8192])
    def test_codes_do_not_depend_on_read_block(self, tmp_path, monkeypatch, block_rows):
        """The int32 code buffer grows by doubling as blocks arrive and is
        trimmed at the end; every block size gives the same cells."""
        rng = np.random.default_rng(4)
        rows = [[str(v) for v in rng.integers(0, 5, 3)] + [str(rng.choice(["a", "b"]))]
                for _ in range(50)]
        path = write_csv(tmp_path, "x,y,z,class\n" + "".join(",".join(r) + "\n" for r in rows))
        monkeypatch.setattr(dataset, "_READ_BLOCK_ROWS", block_rows)
        raw = load_csv(path, label_column="class")
        assert [column_cells(raw, j) for j in range(4)] == [list(c) for c in zip(*rows)]
        assert all(c.dtype == np.int32 and c.shape == (50,) for c in raw.codes)


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
        kept = column_cells(filtered, 0)
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
        col = column_cells(filtered, filtered.column_names.index("Flow Packets/s"))
        assert col == ["0", "0", "0", "0", "7.5"]
        assert report.nonfinite_replaced == 3
        assert report.missing_replaced == 1

    def test_numerically_constant_columns_dropped(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,one,zero,mixed,class\n1,1,0,1,x\n2,1.0,-0,one,y\n3,1,0.0,1,x\n4,1e0,0,1,y\n",
        )
        filtered, report = filter_table(load_csv(path, label_column="class"))
        assert filtered.column_names == ["a", "mixed", "class"]
        assert report.dropped_constant_features == ("one", "zero")
        normalize(encode(filtered))

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
        before = set(column_cells(raw, raw.label_column))
        after = set(column_cells(filtered, filtered.label_column))
        assert before == after


class TestEncode:
    def test_symbolic_first_appearance(self):
        raw = coded_table(
            column_names=["proto", "class"],
            columns=[["tcp", "udp", "icmp", "tcp"], ["a", "b", "a", "b"]],
            label_column=1,
        )
        ds = encode(raw)
        assert list(ds.features[:, 0]) == [0.0, 1.0, 2.0, 0.0]
        assert ds.feature_meta[0].symbol_codes == {"tcp": 0, "udp": 1, "icmp": 2}

    def test_numeric_column(self):
        raw = coded_table(["v", "class"], [["1.5", "2"], ["a", "b"]], 1)
        ds = encode(raw)
        assert list(ds.features[:, 0]) == [1.5, 2.0]
        assert ds.feature_meta[0].original_kind == "numeric"

    def test_label_mapping(self):
        raw = coded_table(["v", "class"], [["1", "2", "3"], ["normal", "dos", "normal"]], 1)
        ds = encode(raw)
        assert ds.class_names == ["normal", "dos"]
        assert list(ds.labels) == [0, 1, 0]
        assert ds.normal_class == 0

    def test_mixed_column_becomes_symbolic(self):
        raw = coded_table(["v", "class"], [["1", "oops", "3"], ["a", "b", "a"]], 1)
        ds = encode(raw)
        assert ds.feature_meta[0].original_kind == "symbolic"

    def test_unfiltered_nonfinite_token_becomes_symbolic(self):
        raw = coded_table(["v", "class"], [["1", "inf"], ["a", "b"]], 1)
        ds = encode(raw)
        assert ds.feature_meta[0].original_kind == "symbolic"
        assert np.isfinite(ds.features).all()

    def test_empty_table_rejected(self):
        raw = coded_table(["v", "class"], [[], []], 1)
        with pytest.raises(InputError):
            encode(raw)

    def test_symbol_round_trip(self):
        tokens = ["tcp", "udp", "icmp", "udp", "tcp", "ssh"]
        raw = coded_table(["proto", "class"],
                          [tokens, ["a" if i % 2 else "b" for i in range(len(tokens))]], 1)
        ds = encode(raw)
        token_of = {code: token for token, code in ds.feature_meta[0].symbol_codes.items()}
        assert len(token_of) == len(set(tokens))
        assert [token_of[code] for code in ds.features[:, 0]] == tokens


def oracle_preprocess(path, label_column, has_header=True):
    """load_csv -> filter_table -> encode by the per-cell token lists that the
    dictionary-coded RawTable replaced. Returns the Dataset and the
    PreprocessReport, or raises InputError where that path raised it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = (row for row in reader if row)
        first = next(rows, None)
        if first is None:
            raise InputError(f"{path} is empty")
        if has_header:
            header = first
        else:
            header = [f"col_{j}" for j in range(len(first))]
            rows = itertools.chain([first], rows)
        columns = [[] for _ in header]
        for row in rows:
            if len(row) != len(header):
                raise InputError(f"ragged row at line {reader.line_num}: "
                                 f"{len(row)} cells, expected {len(header)}")
            for column, cell in zip(columns, row):
                column.append(cell)
    label_j = _resolve_label_column(header, label_column, has_header)

    if columns[label_j] and len(set(columns[label_j])) < 2:
        raise InputError("label column is constant: dataset contains a single class")
    names, kept, label_out = [], [], 0
    seen = {header[label_j]}
    dropped_dup, dropped_const = [], []
    missing = nonfinite = 0
    for j, (name, column) in enumerate(zip(header, columns)):
        if j == label_j:
            label_out = len(kept)
        elif name in seen:
            dropped_dup.append(name)
            continue
        else:
            seen.add(name)
            missing += column.count("")
            nonfinite += sum(map(column.count, NONFINITE_TOKENS))
            column = [_ZERO_FILLED.get(cell, cell) for cell in column]
            distinct = list(set(column))
            constant = len(distinct) == 1
            if len(distinct) > 1:
                try:
                    values = _parse_numeric(distinct, name)
                    constant = values.min() == values.max()
                except InputError:
                    pass
            if constant:
                dropped_const.append(name)
                continue
        names.append(name)
        kept.append(column)
    if len(kept) == 1:
        raise InputError("no feature columns remain after filtering")
    n = len(kept[label_out])
    report = PreprocessReport(tuple(dropped_const), tuple(dropped_dup), missing, nonfinite, n, n)

    if n == 0:
        raise InputError("cannot encode an empty table")
    features = np.empty((n, len(kept) - 1), dtype=np.float64)
    meta = []
    for out_j, j in enumerate(j for j in range(len(kept)) if j != label_out):
        symbols = dict(zip(dict.fromkeys(kept[j]), itertools.count()))
        codes = np.array([symbols[cell] for cell in kept[j]], dtype=np.int64)
        try:
            values = _parse_numeric(list(symbols), names[j])[codes]
            kind, symbols = "numeric", None
        except InputError:
            kind, values = "symbolic", codes
        features[:, out_j] = values
        meta.append(FeatureMeta(names[j], kind, float(values.min()), float(values.max()), symbols))
    classes = dict(zip(dict.fromkeys(kept[label_out]), itertools.count()))
    class_names = list(classes)
    ds = Dataset(features=features, feature_meta=meta,
                 labels=[classes[cell] for cell in kept[label_out]],
                 class_names=class_names,
                 normal_class=_resolve_normal_class(class_names, None))
    return ds, report


# Cells of a raw capture: blanks, the zero-filled non-finite spellings, other
# non-finite spellings, numbers that parse alike ("1"/"1.0", "0"/"-0"),
# symbols, and tokens csv must quote (a comma, a quote, a line break).
NUMERIC_CELLS = ("", "NaN", "Infinity", "-Infinity", "1", "1.0", "-0", "0", "0.0",
                 "2.5", "007", "1e308", "-1e308")
SYMBOLIC_CELLS = ("tcp", "udp", "nan", "inf", "a,b", "x\ny", 'q"', " ", "")
RAW_NAMES = ("f", "g", "class", "", "h,i")
RAW_LABELS = ("normal", "dos", "a,b", "new\nline", "")


@st.composite
def raw_csvs(draw):
    """(CSV text, label column, has_header): 0-20 rows of 1-5 feature columns
    that are numeric, symbolic or mixed, headers that repeat or name the
    label, and an optional byte-order mark."""
    n_features = draw(st.integers(1, 5))
    label_j = draw(st.integers(0, n_features))
    names = draw(st.lists(st.sampled_from(RAW_NAMES), min_size=n_features,
                          max_size=n_features))
    names.insert(label_j, "class")
    pools = [draw(st.sampled_from([NUMERIC_CELLS, SYMBOLIC_CELLS,
                                   NUMERIC_CELLS + SYMBOLIC_CELLS]))
             for _ in range(n_features)]
    pools.insert(label_j, RAW_LABELS)
    rows = draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=20))
    has_header = draw(st.booleans())
    buf = io.StringIO()
    csv.writer(buf).writerows(([names] if has_header else []) + rows)
    text = ("\ufeff" if draw(st.booleans()) else "") + buf.getvalue()
    label = draw(st.sampled_from(["class", str(label_j), label_j] if has_header
                                 else [str(label_j), label_j]))
    return text, label, has_header


def assert_same_dataset(got, expected):
    assert np.array_equal(got.features.view(np.int64), expected.features.view(np.int64))
    assert np.array_equal(got.labels, expected.labels)
    assert got.class_names == expected.class_names
    assert got.feature_meta == expected.feature_meta
    assert got.normal_class == expected.normal_class


class TestCodedTable:
    @settings(max_examples=200, deadline=None)
    @given(table=raw_csvs())
    @example(table=("\ufeffclass,v,class,w\nb,,1,tcp\na,NaN,2,\nb,7,3,tcp\n", "class", True))
    def test_matches_per_cell_oracle(self, table):
        text, label, has_header = table
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "in.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            try:
                expected, expected_report = oracle_preprocess(path, label, has_header)
            except InputError as exc:
                with pytest.raises(InputError) as got:
                    encode(filter_table(load_csv(path, label, has_header))[0])
                assert str(got.value) == str(exc)
                return
            filtered, report = filter_table(load_csv(path, label, has_header))
            ds = encode(filtered)
            assert report == expected_report
            assert_same_dataset(ds, expected)
            art = os.path.join(work, "art")
            write_dataset_artifact(normalize(ds), art, report,
                                   label_name=filtered.column_names[filtered.label_column])
            assert_same_dataset(read_dataset_artifact(art), normalize(expected))


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

    def test_range_wider_than_largest_double_scales_without_warning(self):
        # max - min of the first column overflows though every cell is finite
        ds = make_dataset([[-1e308, 0.0], [0.0, 3.0], [1e308, 10.0]], [0, 1, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize(ds)
        assert list(out.features[:, 0]) == [0.0, 0.5, 1.0]
        assert list(out.features[:, 1]) == [0.0, 0.3, 1.0]


@st.composite
def unfiltered_tables(draw):
    """RawTables that filter_table has not seen: 0-12 rows of 1-4 feature
    columns that are numeric, symbolic, mixed or -1e308..1e308, constant
    columns included, and a label column of 1-5 classes."""
    n = draw(st.integers(0, 12))
    pools = draw(st.lists(st.sampled_from([NUMERIC_CELLS[4:], SYMBOLIC_CELLS,
                                           NUMERIC_CELLS + SYMBOLIC_CELLS, ("-1e308", "1e308")]),
                          min_size=1, max_size=4))
    pools.append(RAW_LABELS)
    columns = [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) for pool in pools]
    names = [f"f{j}" for j in range(len(pools) - 1)] + ["class"]
    return coded_table(names, columns, len(pools) - 1)


class TestEncodeScaled:
    @settings(max_examples=200, deadline=None)
    @given(raw=unfiltered_tables(), normal=st.sampled_from([None, "dos", "absent"]))
    @example(raw=coded_table(["wide", "class"], [["-1e308", "0", "1e308"], ["a", "b", "a"]], 1),
             normal=None)
    def test_equals_normalize_of_encode(self, raw, normal):
        """Features to the bit, meta, labels, class names and normal class,
        or the same InputError."""
        try:
            expected = normalize(encode(raw, normal))
        except InputError as exc:
            with pytest.raises(InputError) as got:
                encode_scaled(raw, normal)
            assert str(got.value) == str(exc)
            return
        assert_same_dataset(encode_scaled(raw, normal), expected)

    def test_constant_column_named(self):
        """filter_table drops constant columns; unfiltered, 0 and -0 are one value."""
        raw = coded_table(["v", "zero", "class"],
                          [["1", "2", "3"], ["0", "-0", "0"], ["a", "b", "a"]], 2)
        for scale in (encode_scaled, lambda r: normalize(encode(r))):
            with pytest.raises(InputError,
                               match="^feature 'zero' is constant and cannot be min-max scaled$"):
                scale(raw)


def dealt_row_by_row(ds, k, seed):
    """Fold assignment by the per-row dealing loop that stratified_folds
    replaced with one vectorised step per class."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(ds.n_rows, dtype=np.int64)
    pointer = 0
    for cls in range(ds.n_classes):
        rows = np.flatnonzero(ds.labels == cls)
        rows = rows[rng.permutation(rows.size)]
        for r in rows:
            assignment[r] = pointer % k
            pointer += 1
    return assignment


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
        assert np.array_equal(folds.assignment, dealt_row_by_row(ds, k, seed))
        global_sizes = np.bincount(folds.assignment, minlength=k)
        assert global_sizes.sum() == labels.size
        assert global_sizes.max() - global_sizes.min() <= 1
        for cls in range(len(sizes)):
            per_class = np.bincount(folds.assignment[ds.labels == cls], minlength=k)
            assert per_class.max() - per_class.min() <= 1


def oracle_write_rows(ds, path, label_name):
    """dataset.csv by the per-row csv.writer loop that write_dataset_artifact
    replaced with one spelling per distinct value of a column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names + [label_name])
        # csv writes a Python float as its repr, the shortest exact spelling.
        for values, label in zip(ds.features, ds.labels.tolist()):
            row = values.tolist()
            row.append(ds.class_names[label])
            writer.writerow(row)


# Spellings at the edges of repr and of csv quoting: signed zeros, the
# smallest subnormal, the largest double, a sum with a 17-digit repr, and
# class names that are empty, hold a delimiter, a quote or a line break, or
# start with a space.
EDGE_VALUES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
EDGE_NAMES = ["", "a,b", 'q"uote', "new\nline", "cr\rx", " lead"]


@st.composite
def artifact_datasets(draw, min_features=0):
    """Datasets of 1-30 rows, min_features-4 feature columns and 1-4 classes,
    every class present."""
    d = draw(st.integers(min_features, 4))
    names = draw(st.lists(
        st.sampled_from(EDGE_NAMES)
        | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                  max_size=4),
        min_size=1, max_size=4, unique=True))
    n = draw(st.integers(len(names), 30))
    values = st.sampled_from(EDGE_VALUES) | st.sampled_from([-v for v in EDGE_VALUES]) | \
        st.floats(allow_nan=False, allow_infinity=False)
    features = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, len(names) - 1), min_size=n - len(names),
                          max_size=n - len(names)))
    labels = draw(st.permutations(list(range(len(names))) + extra))
    return make_dataset(np.array(features, dtype=np.float64).reshape(n, d), labels,
                        class_names=names)


EDGE_DATASET = make_dataset([[v, -v] for v in EDGE_VALUES] + [[1.0, 2.0]],
                            list(range(len(EDGE_NAMES))), class_names=EDGE_NAMES)


def read_rows(art):
    with open(os.path.join(art, "dataset.csv"), newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(art, rows):
    with open(os.path.join(art, "dataset.csv"), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def respellings(value):
    """Other spellings of a float that parse to the same bits: a zero added to
    the mantissa (0.5 -> 0.50), seventeen significant digits in upper-case
    exponent form, and a leading plus sign."""
    mantissa, _, exponent = repr(value).partition("e")
    padded = mantissa + ("0" if "." in mantissa else ".0") + ("e" + exponent if exponent else "")
    spelled = [padded, "%.16E" % value]
    if not mantissa.startswith("-"):
        spelled.append("+" + repr(value))
    return spelled


BAD_NUMBERS = ["abc", "", "nan", "inf", "1e999"]


class TestArtifact:
    @settings(max_examples=150, deadline=None)
    @given(ds=artifact_datasets())
    @example(ds=EDGE_DATASET)
    def test_writer_matches_per_row_oracle(self, ds):
        with tempfile.TemporaryDirectory() as work:
            write_dataset_artifact(ds, work, label_name="class")
            oracle = os.path.join(work, "oracle.csv")
            oracle_write_rows(ds, oracle, "class")
            with open(os.path.join(work, "dataset.csv"), "rb") as got, \
                    open(oracle, "rb") as expected:
                assert got.read() == expected.read()
            back = read_dataset_artifact(work)
        assert np.array_equal(back.features.view(np.int64), ds.features.view(np.int64))
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names

    @settings(max_examples=100, deadline=None)
    @given(ds=artifact_datasets(min_features=1), data=st.data())
    def test_broken_artifact_rejected(self, ds, data):
        """One bad number, a cell added to or removed from a row, or a label
        the sidecar lacks: reading raises InputError and select exits 2."""
        with tempfile.TemporaryDirectory() as work:
            art = os.path.join(work, "art")
            write_dataset_artifact(ds, art)
            rows = read_rows(art)
            row = rows[data.draw(st.integers(1, ds.n_rows))]
            defect = data.draw(st.sampled_from(["number", "added", "removed", "label"]))
            if defect == "number":
                j = data.draw(st.integers(0, ds.n_features - 1))
                row[j] = data.draw(st.sampled_from(BAD_NUMBERS))
                message = f"column {re.escape(repr(ds.feature_names[j]))}"
            elif defect == "added":
                row.insert(data.draw(st.integers(0, len(row))), data.draw(st.sampled_from(
                    ["0.5", ""])))
                message = "ragged row"
            elif defect == "removed":
                del row[data.draw(st.integers(0, len(row) - 1))]
                message = "ragged row"
            else:
                # longer than every class name, so none of them
                row[-1] = "".join(ds.class_names) + "?"
                message = "missing from sidecar class names"
            write_rows(art, rows)
            with pytest.raises(InputError, match=message):
                read_dataset_artifact(art)
            assert main(["select", "--input", art, "--selector", "none",
                         "--out", os.path.join(work, "sel")]) == 2

    @settings(max_examples=60, deadline=None)
    @given(ds=artifact_datasets(min_features=1), data=st.data())
    def test_respelled_number_reads_same_bits(self, ds, data):
        with tempfile.TemporaryDirectory() as work:
            write_dataset_artifact(ds, work)
            rows = read_rows(work)
            r = data.draw(st.integers(1, ds.n_rows))
            j = data.draw(st.integers(0, ds.n_features - 1))
            rows[r][j] = data.draw(st.sampled_from(respellings(ds.features[r - 1, j].item())))
            write_rows(work, rows)
            back = read_dataset_artifact(work)
        assert np.array_equal(back.features.view(np.int64), ds.features.view(np.int64))

    def test_deeply_nested_sidecar_rejected(self, tmp_path):
        write_dataset_artifact(make_dataset([[0.0], [1.0]], [0, 1]), tmp_path)
        (tmp_path / "dataset.meta.json").write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(InputError, match="malformed dataset sidecar"):
            read_dataset_artifact(str(tmp_path))

    def test_round_trip(self, tmp_path):
        raw = coded_table(
            ["proto", "v", "class"],
            [["tcp", "udp", "tcp"], ["1.25", "3.5", "0.0"], ["normal", "dos", "normal"]],
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


def read_csv_only(art) -> Dataset:
    """The artifact read from dataset.csv, with the companion set aside and
    put back afterwards."""
    companion = os.path.join(art, "dataset.npy")
    os.rename(companion, companion + ".away")
    try:
        return read_dataset_artifact(art)
    finally:
        os.rename(companion + ".away", companion)


def read_companion_only(art) -> Dataset:
    """The artifact read with dataset.csv's parser disabled, so only the
    companion can give the arrays."""
    with mock.patch.object(dataset, "load_csv", side_effect=AssertionError("CSV parsed")):
        return read_dataset_artifact(art)


def assert_identical(got, expected):
    """Same Dataset to the bit, layout and flags included."""
    assert np.array_equal(got.features.view(np.int64), expected.features.view(np.int64))
    assert got.features.shape == expected.features.shape
    assert np.array_equal(got.labels, expected.labels)
    assert got.class_names == expected.class_names
    assert got.feature_meta == expected.feature_meta
    assert got.normal_class == expected.normal_class
    for a, b in ((got.features, expected.features), (got.labels, expected.labels)):
        assert a.dtype == b.dtype
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert_sealed(a)
        assert_sealed(b)


def rewrite_companion(art, labels, features):
    """Replace dataset.npy with three np.save records of the given arrays,
    under the check write_dataset_artifact would give them."""
    check = dataset._companion_check(os.path.join(art, "dataset.csv"),
                                     os.path.join(art, "dataset.meta.json"))
    check += dataset._arrays_crc(np.ascontiguousarray(labels), np.ascontiguousarray(features))
    with open(os.path.join(art, "dataset.npy"), "wb") as fh:
        for array in (np.frombuffer(check, dtype=np.uint8), labels, features):
            np.save(fh, array)


class TestCompanion:
    @settings(max_examples=150, deadline=None)
    @given(ds=artifact_datasets())
    @example(ds=EDGE_DATASET)
    def test_companion_read_equals_csv_read(self, ds):
        with tempfile.TemporaryDirectory() as art:
            write_dataset_artifact(ds, art, label_name="class")
            from_companion = read_companion_only(art)
            from_csv = read_csv_only(art)
        assert_identical(from_companion, from_csv)
        assert np.array_equal(from_csv.features.view(np.int64), ds.features.view(np.int64))

    def test_written_from_the_datasets_arrays(self, tmp_path):
        ds = EDGE_DATASET
        write_dataset_artifact(ds, tmp_path)
        with open(tmp_path / "dataset.npy", "rb") as fh:
            check, labels, features = (np.load(fh) for _ in range(3))
            assert fh.read() == b""
        assert check.dtype == np.uint8 and labels.dtype == np.int64
        assert features.dtype == np.float64 and features.flags.c_contiguous
        assert np.array_equal(labels, ds.labels)
        assert np.array_equal(features.view(np.int64), ds.features.view(np.int64))
        text = check.tobytes().decode("ascii")
        assert re.fullmatch(r"dataset\.csv \d+ [0-9a-f]{8} dataset\.meta\.json \d+ [0-9a-f]{8} "
                            r"arrays [0-9a-f]{8}", text)
        assert f"dataset.csv {os.path.getsize(tmp_path / 'dataset.csv')} " in text

    def test_column_major_dataset_written_row_major(self, tmp_path):
        ds = select_features(make_dataset(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1]), [2, 0])
        assert not ds.features.flags.c_contiguous
        write_dataset_artifact(ds, tmp_path)
        assert_identical(read_companion_only(str(tmp_path)), read_csv_only(str(tmp_path)))

    def test_edited_cell_reads_back_edited(self, tmp_path):
        ds = make_dataset([[0.25, 1.0], [0.5, 2.0], [0.75, 3.0]], [0, 1, 0])
        write_dataset_artifact(ds, tmp_path)
        rows = read_rows(tmp_path)
        rows[2][0] = "0.125"
        write_rows(tmp_path, rows)
        back = read_dataset_artifact(str(tmp_path))
        assert back.features[1, 0] == 0.125
        assert np.array_equal(np.delete(back.features, 1, axis=0),
                              np.delete(ds.features, 1, axis=0))

    def test_reordered_class_names_honoured(self, tmp_path):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 2, 1],
                          class_names=["normal", "dos", "probe"])
        write_dataset_artifact(ds, tmp_path)
        meta_path = tmp_path / "dataset.meta.json"
        sidecar = json.loads(meta_path.read_text(encoding="utf-8"))
        sidecar["class_names"] = ["probe", "normal", "dos"]
        meta_path.write_text(json.dumps(sidecar), encoding="utf-8")
        back = read_dataset_artifact(str(tmp_path))
        assert back.class_names == ["probe", "normal", "dos"]
        assert [back.class_names[i] for i in back.labels] == ["normal", "dos", "probe", "dos"]

    @pytest.mark.parametrize("defect", [
        "truncated header", "truncated features", "one byte more", "empty", "garbage",
        "labels int32", "features float32", "features column-major", "stale check",
        "arrays altered"])
    def test_broken_companion_gives_csv_result(self, tmp_path, defect):
        ds = make_dataset(np.arange(15.0).reshape(5, 3) / 7, [0, 1, 2, 0, 1])
        write_dataset_artifact(ds, tmp_path)
        path = tmp_path / "dataset.npy"
        good = path.read_bytes()
        art = str(tmp_path)
        labels, features = ds.labels, ds.features
        if defect == "truncated header":
            path.write_bytes(good[:200])
        elif defect == "truncated features":
            path.write_bytes(good[:-8])
        elif defect == "one byte more":
            path.write_bytes(good + b"\0")
        elif defect == "empty":
            path.write_bytes(b"")
        elif defect == "garbage":
            path.write_bytes(np.random.default_rng(0).bytes(len(good)))
        elif defect == "labels int32":
            rewrite_companion(art, labels.astype(np.int32), features)
        elif defect == "features float32":
            rewrite_companion(art, labels, features.astype(np.float32))
        elif defect == "features column-major":
            rewrite_companion(art, labels, np.asfortranarray(features))
        elif defect == "stale check":
            # another artifact's companion
            other = make_dataset(features + 1, labels)
            write_dataset_artifact(other, tmp_path / "other")
            path.write_bytes((tmp_path / "other" / "dataset.npy").read_bytes())
        elif defect == "arrays altered":
            # the stored check with other arrays behind it
            altered = bytearray(good)
            altered[-1] ^= 1
            path.write_bytes(bytes(altered))
        with mock.patch.object(dataset, "load_csv", wraps=dataset.load_csv) as parse:
            back = read_dataset_artifact(art)
        assert parse.called
        os.remove(path)
        assert_identical(back, read_dataset_artifact(art))

    def test_companion_missing_csv_still_rejected(self, tmp_path):
        write_dataset_artifact(make_dataset([[0.0], [1.0]], [0, 1]), tmp_path)
        os.remove(tmp_path / "dataset.csv")
        with pytest.raises(InputError, match="cannot read"):
            read_dataset_artifact(str(tmp_path))

    @pytest.mark.parametrize("names, label_name", [
        (["a", "b"], "a"), (["a", "b"], "b"), (["\ufeffa", "b"], "a"), ([], "\ufeffa")])
    def test_label_name_shadowed_by_a_feature_rejected(self, tmp_path, names, label_name):
        """The reader would take another column, or none, as the label."""
        features = np.zeros((2, len(names)))
        features[1] = 1.0
        ds = Dataset(features, [FeatureMeta(n, "numeric", 0.0, 1.0) for n in names],
                     np.array([0, 1]), ["normal", "attack"], 0)
        with pytest.raises(InputError, match=f"label name {re.escape(repr(label_name))}"):
            write_dataset_artifact(ds, tmp_path / "art", label_name=label_name)
        assert not (tmp_path / "art").exists()

    def test_repeated_class_names_rejected(self, tmp_path):
        ds = make_dataset([[0.0], [1.0]], [0, 1], class_names=["x", "x"])
        with pytest.raises(InputError, match="class names are not distinct"):
            write_dataset_artifact(ds, tmp_path / "art")


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (2, 1), (4, 2)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rejects_nonfinite_anywhere(self, value, cell, order):
        """First, middle and last cell of a C- or F-ordered matrix, the
        layouts that encode and select_features hand over."""
        features = np.array(np.arange(15.0).reshape(5, 3), order=order)
        features[cell] = value
        with pytest.raises(InputError, match="NaN or infinite"):
            make_dataset(features, [0, 1, 0, 1, 0])

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

    def test_writable_input_copied(self):
        features = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
        labels = np.array([0, 1, 0])
        ds = make_dataset(features, labels)
        features[0, 0] = 9.0
        labels[0] = 1
        assert ds.features[0, 0] == 1.0 and ds.labels[0] == 0
        assert features.flags.writeable and labels.flags.writeable
        assert not np.shares_memory(ds.features, features)
        assert not np.shares_memory(ds.labels, labels)

    def test_read_only_view_of_writable_memory_copied(self):
        """A read-only view is copied when what it views can still be
        written: a writable array, or a bytearray behind np.frombuffer."""
        base = np.array([[1.0], [2.0], [3.0]])
        buffer = bytearray(base.tobytes())
        views = [base[:], np.frombuffer(buffer).reshape(3, 1)]
        for view in views:
            view.setflags(write=False)
        datasets = [make_dataset(view, [0, 1, 0]) for view in views]
        base[0, 0] = 0.0
        buffer[:8] = bytes(8)
        for view, ds in zip(views, datasets):
            assert view[0, 0] == 0.0 and ds.features[0, 0] == 1.0

    def test_other_dtype_copied(self):
        """Read-only arrays that own their memory, but of another dtype."""
        features = np.array([[1.0], [2.0]], dtype=np.float32)
        labels = np.array([0, 1], dtype=np.int32)
        features.setflags(write=False)
        labels.setflags(write=False)
        meta = [FeatureMeta("f0", "numeric", 1.0, 2.0)]
        ds = Dataset(features=features, feature_meta=meta, labels=labels,
                     class_names=["normal", "attack"], normal_class=0)
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        for kept, given in ((ds.features, features), (ds.labels, labels)):
            assert not np.shares_memory(kept, given)
            assert_sealed(kept)

    def test_slice_of_dataset_adopted(self):
        ds = make_dataset(np.arange(12.0).reshape(6, 2), [0, 1, 0, 1, 0, 1])
        part = Dataset(features=ds.features[2:5], feature_meta=ds.feature_meta,
                       labels=ds.labels[2:5], class_names=ds.class_names, normal_class=0)
        assert part.features.base is ds.features and part.labels.base is ds.labels
        assert not part.features.flags.writeable

    def test_pipeline_matrices_share_memory_with_nothing_writable(self, tmp_path):
        raw = coded_table(["proto", "v", "w", "class"],
                          [["tcp", "udp", "tcp", "icmp"], ["1.5", "3", "0", "2"],
                           ["4", "4", "5", "6"], ["normal", "dos", "normal", "dos"]], 3)
        encoded = encode(raw)
        scaled = normalize(encoded)
        picked = select_features(scaled, [2, 0])
        write_dataset_artifact(scaled, tmp_path / "art")
        back = read_dataset_artifact(str(tmp_path / "art"))
        for ds in (encoded, scaled, picked, back):
            for array in (ds.features, ds.labels):
                assert_sealed(array)
                assert not any(np.shares_memory(array, codes) for codes in raw.codes)
        assert not np.shares_memory(scaled.features, encoded.features)
        assert picked.labels is scaled.labels
        assert picked.features.flags.f_contiguous
        # kept without a copy: a transposed view of the gathered matrix
        assert picked.features.base is not None and picked.features.base.base is None


def assert_sealed(array):
    """array and every array it views are read-only, and the last of them
    owns its memory, so no writable reference reaches it."""
    while array.base is not None:
        assert isinstance(array.base, np.ndarray) and not array.flags.writeable
        array = array.base
    assert not array.flags.writeable


class TestRawTable:
    @pytest.mark.parametrize("codes", [
        [0, 5, 1], [-1, 0, 1], np.array([0, 2**32, 1]), [0, 2**64, 1],
        np.array([0, 2**63 + 1, 1], dtype=np.uint64)])
    def test_code_out_of_range_rejected(self, codes):
        """Checked before the codes narrow to int32, so 2**32 cannot wrap to 0."""
        with pytest.raises(InputError, match="'f' has a code outside"):
            RawTable(["f", "class"], [["a", "b"], ["x", "y"]], [codes, [0, 1, 0]], 1)

    def test_codes_held_as_int32(self, tmp_path):
        raw = load_csv(write_csv(tmp_path, "a,b\n1,x\n2,y\n"), "b")
        kept = np.array([0, 1], dtype=np.int32)
        assert all(c.dtype == np.int32 for c in raw.codes)
        assert all(c.dtype == np.int32 for c in filter_table(raw)[0].codes)
        assert RawTable(["a", "b"], [["1", "2"], ["x", "y"]], [kept, [1, 0]], 1).codes[0] is kept

    def test_filter_checks_only_renumbered_columns(self, tmp_path):
        """load_csv's table checked every column; filter_table's checks the
        one it renumbers (its blank became "0") and hands the others on."""
        raw = load_csv(write_csv(tmp_path, "a,b,c,d\n1,,x,n\n2,5,y,a\n3,,x,n\n"), "d")
        with mock.patch.object(dataset, "_checked_codes",
                               side_effect=dataset._checked_codes) as check:
            filtered, _ = filter_table(raw)
        assert [c.args[2] for c in check.call_args_list] == ["b"]
        assert column_cells(filtered, 1) == ["0", "5", "0"]
        kept = [filtered.column_names.index(name) for name in ("a", "c", "d")]
        assert all(filtered.codes[k] is raw.codes[k] for k in kept)


def write_traffic_csv(path, rows, seed=0):
    """A capture-like table of 40 columns: three symbolic ones, 2-decimal
    rates, counts below 512, two heavy-tailed byte counts and a skewed
    five-class label."""
    rng = np.random.default_rng(seed)
    rates = np.array([f"{i / 100:.2f}" for i in range(101)], dtype=object)
    def symbols(names):
        return np.array(names, dtype=object)[rng.integers(0, len(names), rows)]

    columns = {"protocol": symbols(["tcp", "udp", "icmp"]),
               "service": symbols([f"svc{i}" for i in range(60)]),
               "flag": symbols(["SF", "S0", "REJ", "RSTO"])}
    for j in range(22):
        columns[f"rate{j}"] = rates[rng.integers(0, 101, rows)]
    for j in range(12):
        columns[f"count{j}"] = rng.integers(0, 512, rows).astype(str)
    for j in range(2):
        columns[f"bytes{j}"] = np.floor(rng.pareto(1.5, rows) * 40).astype(np.int64).astype(str)
    columns["class"] = np.array(["normal", "dos", "probe", "r2l", "u2r"], dtype=object)[
        rng.choice(5, rows, p=[0.53, 0.37, 0.08, 0.015, 0.005])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns.values()))
    return rows * len(columns)


def scaled_table(path) -> Dataset:
    """load_csv -> filter_table -> encode -> normalize, the coded table freed
    before normalize as the preprocess command frees it."""
    filtered, _ = filter_table(load_csv(path, "class"))
    ds = encode(filtered)
    del filtered
    return normalize(ds)


class TestMemoryPerCell:
    """Peak traced bytes per input cell, numpy buffers included, of ingest
    and of reading its artifact on a 20,000 x 40 table. Holding each matrix
    once (int32 codes, then at most two float64 matrices) keeps both under
    the bound; int64 codes or a defensive copy of a matrix exceed it."""

    BOUND = 20.0
    # Reading the companion holds the float64 features and int64 labels, 8 B
    # per cell at 39 features and a label; a copy of either matrix exceeds it.
    COMPANION_BOUND = 8.5
    # load_csv -> filter_table -> encode_scaled holds the int32 codes and one
    # float64 matrix (12 B per cell) plus the distinct tokens; encode then
    # normalize holds two float64 matrices (16.8 B per cell).
    SCALED_BOUND = 13.5
    # The writer above the Dataset it writes: one block of cell spellings and
    # joined rows. 8,192-row blocks at 40 columns took 13.5-15 B per cell.
    WRITER_BOUND = 10.0

    def test_ingest_and_read_artifact(self, tmp_path):
        path = str(tmp_path / "in.csv")
        cells = write_traffic_csv(path, 20_000)
        art = str(tmp_path / "art")
        write_dataset_artifact(scaled_table(path), art, label_name="class")
        preprocess = traced_peak(lambda: scaled_table(path))
        companion = traced_peak(lambda: read_companion_only(art))
        read = traced_peak(lambda: read_csv_only(art))
        assert preprocess / cells <= self.BOUND, f"preprocess: {preprocess / cells:.1f} B per cell"
        assert companion / cells <= self.COMPANION_BOUND, \
            f"read_dataset_artifact, companion: {companion / cells:.2f} B per cell"
        assert read / cells <= self.BOUND, f"read_dataset_artifact: {read / cells:.1f} B per cell"

    def test_encode_scaled_chain(self, tmp_path):
        path = str(tmp_path / "in.csv")
        cells = write_traffic_csv(path, 20_000)
        peak = traced_peak(lambda: encode_scaled(filter_table(load_csv(path, "class"))[0]))
        assert peak / cells <= self.SCALED_BOUND, f"{peak / cells:.1f} B per cell"

    def test_writer_above_its_dataset(self, tmp_path):
        path = str(tmp_path / "in.csv")
        cells = write_traffic_csv(path, 20_000)
        ds = encode_scaled(filter_table(load_csv(path, "class"))[0])
        peak = traced_peak(lambda: write_dataset_artifact(ds, str(tmp_path / "art"),
                                                          label_name="class"))
        assert peak / cells <= self.WRITER_BOUND, f"{peak / cells:.1f} B per cell"
