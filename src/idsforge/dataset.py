"""CSV ingestion, cleaning, integer encoding, min-max scaling and fold assignment."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Tokens zero-filled during filtering; anything else that still parses to a
# non-finite float makes the whole column symbolic at encoding time.
NONFINITE_TOKENS = frozenset({"Infinity", "-Infinity", "NaN"})
_ZERO_FILLED = dict.fromkeys(("", *NONFINITE_TOKENS), "0")

ARTIFACT_VERSION = 1
# Cells of dataset.csv joined at once, so a block's rows shrink as columns
# grow. A block holds one pointer per cell into its column's spellings plus
# its joined rows; the writer keeps nothing per cell beyond one block.
_WRITE_BLOCK_CELLS = 1 << 17
# Rows of input read before their cell codes move from a list of Python ints
# into an int32 array, so no per-cell pointer list outlives one block.
_READ_BLOCK_ROWS = 8192
# Bytes of a file read at once while its CRC-32 is formed.
_CHECK_CHUNK = 1 << 16


@dataclass(frozen=True)
class RawTable:
    """A parsed CSV held column by column, every column dictionary-coded.

    tokens[j] lists the distinct tokens of column j in order of first
    appearance, each present in the column; codes[j] is an int32 array with
    row i's index into tokens[j]. Cell i of column j is tokens[j][codes[j][i]].
    A code outside [0, len(tokens[j])) is an InputError. filter_table hands
    unchanged columns on to the table it returns, so no step modifies them in
    place.
    """

    column_names: list[str]
    tokens: list[list[str]]
    codes: list[np.ndarray]
    label_column: int

    def __post_init__(self):
        self._check(range(len(self.column_names)))

    @classmethod
    def _with_checked(cls, column_names, tokens, codes, label_column, unchecked):
        """A table whose codes are those of checked tables, as they were
        there, except the columns listed in unchecked, which are checked."""
        table = cls.__new__(cls)
        for name, value in zip(("column_names", "tokens", "codes", "label_column"),
                               (column_names, tokens, codes, label_column)):
            object.__setattr__(table, name, value)
        table._check(unchecked)
        return table

    def _check(self, unchecked):
        width = len(self.column_names)
        if len(self.tokens) != width or len(self.codes) != width:
            raise InputError(f"{len(self.tokens)} token lists and {len(self.codes)} code "
                             f"arrays for {width} column names")
        codes = list(self.codes)
        for j in unchecked:
            codes[j] = _checked_codes(codes[j], len(self.tokens[j]), self.column_names[j])
        object.__setattr__(self, "codes", codes)
        if not 0 <= self.label_column < width:
            raise InputError(f"label column index {self.label_column} out of range for {width} columns")
        for name, codes in zip(self.column_names, self.codes):
            if codes.shape != (self.n_rows,):
                raise InputError(f"column {name!r} has {len(codes)} cells, expected {self.n_rows}")

    @property
    def n_rows(self) -> int:
        return len(self.codes[self.label_column])

    @property
    def n_columns(self) -> int:
        return len(self.column_names)


def _checked_codes(codes, n_tokens, name) -> np.ndarray:
    """codes as int32, checked to lie in [0, n_tokens) before they are narrowed;
    an int32 array is kept as it is."""
    outside = InputError(f"column {name!r} has a code outside [0, {n_tokens})")
    if not (isinstance(codes, np.ndarray) and codes.dtype == np.int32):
        try:
            codes = np.asarray(codes, dtype=np.int64)
        except OverflowError:
            raise outside from None
    # Read as unsigned, a negative code is at least 2**31 (2**63 in int64), so
    # one max() checks both ends of the range.
    unsigned = np.uint32 if codes.dtype == np.int32 else np.uint64
    if codes.size and codes.view(unsigned).max() >= n_tokens:
        raise outside
    return codes.astype(np.int32, copy=False)


class _FirstAppearanceCodes(dict):
    """Token -> code; a token not seen before gets the next code, 0, 1, ..."""

    def __missing__(self, token):
        self[token] = code = len(self)
        return code


@dataclass(frozen=True)
class FeatureMeta:
    """Per-feature bookkeeping kept from the encoding step.

    observed_min/observed_max are the pre-scaling value range; symbol_codes is
    the token-to-integer map for columns that were not numeric.
    """

    name: str
    original_kind: str  # "numeric" | "symbolic"
    observed_min: float
    observed_max: float
    symbol_codes: dict[str, int] | None = None

    def __post_init__(self):
        if self.original_kind not in ("numeric", "symbolic"):
            raise InputError(f"unknown feature kind {self.original_kind!r}")
        if self.observed_min > self.observed_max:
            raise InputError(f"feature {self.name!r}: min {self.observed_min} > max {self.observed_max}")
        if self.original_kind == "symbolic" and self.symbol_codes is None:
            raise InputError(f"symbolic feature {self.name!r} has no symbol codes")


@dataclass(frozen=True)
class PreprocessReport:
    """What the filtering pass changed."""

    dropped_constant_features: tuple[str, ...]
    dropped_duplicate_features: tuple[str, ...]
    missing_replaced: int
    nonfinite_replaced: int
    rows_in: int
    rows_out: int

    def to_dict(self) -> dict:
        return {
            "dropped_constant_features": list(self.dropped_constant_features),
            "dropped_duplicate_features": list(self.dropped_duplicate_features),
            "missing_replaced": self.missing_replaced,
            "nonfinite_replaced": self.nonfinite_replaced,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
        }


def _frozen(array, dtype) -> np.ndarray:
    """array itself when no writable reference can reach it, else a read-only
    copy as dtype.

    An ndarray of exactly dtype is kept when it and every array it views are
    read-only and the last of them owns its memory. Anything else, such as a
    writable array, a view of one, or a view of a foreign buffer, is copied.
    numpy lets the owner of an array's memory turn writing back on, so a kept
    array is handed over: its caller must not make it writable again.
    """
    if type(array) is np.ndarray and array.dtype == dtype:
        owner = array
        while type(owner) is np.ndarray and not owner.flags.writeable:
            if owner.base is None:
                return array
            owner = owner.base
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric matrix plus class labels and per-feature metadata.

    features and labels are kept without a copy when no writable reference
    can reach them (see _frozen), and copied otherwise; either way the
    Dataset's arrays are read-only. A read-only array that owns its memory,
    or a view of one, is adopted: the caller hands it over and must not turn
    writing back on with setflags.
    """

    features: np.ndarray  # (n_rows, n_features) float64
    feature_meta: list[FeatureMeta]
    labels: np.ndarray  # (n_rows,) int64 class indices
    class_names: list[str]
    normal_class: int

    def __post_init__(self):
        feats = _frozen(self.features, np.float64)
        labels = _frozen(self.labels, np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2:
            raise InputError("features must be a 2-d matrix")
        if labels.shape != (feats.shape[0],):
            raise InputError("labels length does not match feature rows")
        # min and max propagate NaN and reach any infinity, so together they
        # test every cell without an n x d mask; NaN raises no FP warning here.
        with np.errstate(invalid="ignore"):
            if feats.size and not (np.isfinite(feats.min()) and np.isfinite(feats.max())):
                raise InputError("features contain NaN or infinite values")
        if len(self.feature_meta) != feats.shape[1]:
            raise InputError("feature_meta length does not match feature columns")
        c = len(self.class_names)
        if c == 0 or labels.size == 0:
            raise InputError("dataset has no rows or no classes")
        if labels.min() < 0 or labels.max() >= c:
            raise InputError("label index out of range")
        if np.bincount(labels, minlength=c).min() == 0:
            raise InputError("some class in class_names has no instances")
        if not 0 <= self.normal_class < c:
            raise InputError(f"normal class index {self.normal_class} out of range")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def feature_names(self) -> list[str]:
        return [m.name for m in self.feature_meta]


@dataclass(frozen=True)
class FoldAssignment:
    """Row-to-fold map for stratified cross-validation."""

    k: int
    assignment: np.ndarray  # (n_rows,) fold index in [0, k)
    seed: int

    def __post_init__(self):
        assignment = np.array(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", assignment)
        if self.k < 2:
            raise InputError("fold count must be at least 2")
        if assignment.min() < 0 or assignment.max() >= self.k:
            raise InputError("fold index out of range")
        if np.bincount(assignment, minlength=self.k).min() == 0:
            raise InputError("empty fold in assignment")
        assignment.setflags(write=False)

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def load_csv(path, label_column, has_header: bool = True) -> RawTable:
    """Read an RFC-4180 style UTF-8 CSV into a RawTable.

    A leading UTF-8 byte-order mark is skipped, so it never becomes part of
    the first header name. Each cell is coded at the one lookup in its
    column's dict of distinct tokens.

    label_column is a column name (requires a header) or a 0-based index.
    Raises InputError for unreadable or non-UTF-8 files, ragged rows (naming
    the offending line) and missing label columns.
    """
    try:
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
            width = len(header)
            distinct = [_FirstAppearanceCodes() for _ in header]
            cells: list[int] = []
            # one buffer grown by doubling: its unused tail is never touched,
            # so it costs no resident memory, and no block outlives its copy
            matrix = np.empty(0, dtype=np.int32)
            filled = 0
            while True:
                for row in itertools.islice(rows, _READ_BLOCK_ROWS):
                    if len(row) != width:
                        raise InputError(f"ragged row at line {reader.line_num}: "
                                         f"{len(row)} cells, expected {width}")
                    cells.extend(map(dict.__getitem__, distinct, row))
                if not cells:
                    break
                if filled + len(cells) > matrix.size:
                    # no view of the buffer exists while it is being filled
                    matrix.resize(max(2 * matrix.size, filled + len(cells)), refcheck=False)
                matrix[filled:filled + len(cells)] = np.fromiter(cells, dtype=np.int32,
                                                                 count=len(cells))
                filled += len(cells)
                cells.clear()
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    matrix.resize(filled, refcheck=False)
    matrix = matrix.reshape(-1, width)
    label = _resolve_label_column(header, label_column, has_header)
    return RawTable(column_names=header, tokens=[list(d) for d in distinct],
                    codes=list(matrix.T), label_column=label)


def _resolve_label_column(header, label_column, has_header):
    if isinstance(label_column, int):
        index = label_column
    else:
        name = str(label_column)
        if has_header and name in header:
            return header.index(name)
        try:
            index = int(name)
        except ValueError:
            raise InputError(f"label column {name!r} not found") from None
    if not 0 <= index < len(header):
        raise InputError(f"label column index {index} out of range for {len(header)} columns")
    return index


def filter_table(raw: RawTable) -> tuple[RawTable, PreprocessReport]:
    """Clean a raw table before encoding.

    Duplicate-named feature columns keep their first occurrence, and a
    feature column named like the label counts as a duplicate of it. Missing
    and non-finite cells become "0", and feature columns that end up constant
    are dropped: those with one distinct token, or whose distinct tokens all
    parse to the same finite number ("1" and "1.0", "0" and "-0"). The label
    column is never rewritten or dropped.
    """
    label_j = raw.label_column
    if raw.n_rows and len(raw.tokens[label_j]) < 2:
        raise InputError("label column is constant: dataset contains a single class")

    names: list[str] = []
    tokens: list[list[str]] = []
    codes: list[np.ndarray] = []
    label_out = 0
    seen = {raw.column_names[label_j]}
    dropped_dup: list[str] = []
    dropped_const: list[str] = []
    renumbered: set[str] = set()
    missing = 0
    nonfinite = 0
    for j, (name, column, coded) in enumerate(zip(raw.column_names, raw.tokens, raw.codes)):
        if j == label_j:
            label_out = len(names)
        elif name in seen:
            dropped_dup.append(name)
            continue
        else:
            seen.add(name)
            if not _ZERO_FILLED.keys().isdisjoint(column):
                counts = dict(zip(column, np.bincount(coded, minlength=len(column)).tolist()))
                missing += counts.get("", 0)
                nonfinite += sum(counts.get(t, 0) for t in NONFINITE_TOKENS)
                # Old codes follow first appearance, so numbering the filled
                # tokens in old-code order keeps first-appearance order.
                filled = [_ZERO_FILLED.get(t, t) for t in column]
                column = list(dict.fromkeys(filled))
                renumber = dict(zip(column, itertools.count()))
                coded = np.array([renumber[t] for t in filled], dtype=np.int32)[coded]
                renumbered.add(name)
            if _is_constant(column, name):
                dropped_const.append(name)
                continue
        names.append(name)
        tokens.append(column)
        codes.append(coded)

    if len(names) == 1:
        raise InputError("no feature columns remain after filtering")
    report = PreprocessReport(
        dropped_constant_features=tuple(dropped_const),
        dropped_duplicate_features=tuple(dropped_dup),
        missing_replaced=missing,
        nonfinite_replaced=nonfinite,
        rows_in=raw.n_rows,
        rows_out=raw.n_rows,
    )
    # Only renumbered columns hold codes that raw's checks did not see.
    unchecked = [k for k, name in enumerate(names) if name in renumbered]
    return RawTable._with_checked(names, tokens, codes, label_out, unchecked), report


def _is_constant(tokens, name) -> bool:
    """Whether a column with these distinct tokens holds one value: one token,
    or tokens that all parse to the same finite number."""
    if len(tokens) < 2:
        return len(tokens) == 1
    try:
        values = _parse_numeric(tokens, name)
    except InputError:
        return False
    return values.min() == values.max()


def _parse_numeric(tokens, name) -> np.ndarray:
    """Python float() of every token; InputError naming the column when a
    token does not parse or parses to NaN or an infinity."""
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError as exc:
        raise InputError(f"column {name!r}: {exc}") from None
    if not np.isfinite(values).all():
        raise InputError(f"column {name!r} holds a non-finite value")
    return values


def encode(raw: RawTable, normal_class_name: str | None = None) -> Dataset:
    """Turn a filtered table into a numeric dataset.

    Numeric columns parse as reals; everything else gets integer codes in
    first-appearance order starting at 0. Labels map to class indices the same
    way. normal_class_name picks the benign class; when omitted, a class named
    "normal" or "benign" (case-insensitive) is used, else class 0.
    """
    features, meta, labels, class_names, normal = _encoded(raw, normal_class_name)
    return _sealed(features, meta, labels, class_names, normal)


def encode_scaled(raw: RawTable, normal_class_name: str | None = None) -> Dataset:
    """normalize(encode(raw, normal_class_name)), bit for bit, holding one
    float matrix: the encoded matrix is scaled in place before any Dataset
    holds it."""
    features, meta, labels, class_names, normal = _encoded(raw, normal_class_name)
    _scale_in_place(features, meta)
    return _sealed(features, meta, labels, class_names, normal)


def _encoded(raw: RawTable, normal_class_name):
    """encode's parts: the writable float64 feature matrix, its metadata,
    the read-only labels, the class names and the normal class index."""
    if raw.n_rows == 0:
        raise InputError("cannot encode an empty table")
    label_j = raw.label_column
    feature_cols = [j for j in range(raw.n_columns) if j != label_j]
    if not feature_cols:
        raise InputError("table has no feature columns")

    features = np.empty((raw.n_rows, len(feature_cols)), dtype=np.float64)
    meta: list[FeatureMeta] = []
    for out_j, j in enumerate(feature_cols):
        name, tokens, codes = raw.column_names[j], raw.tokens[j], raw.codes[j]
        try:
            values = _parse_numeric(tokens, name)[codes]
            kind, symbol_codes = "numeric", None
        except InputError:
            kind, values = "symbolic", codes
            symbol_codes = dict(zip(tokens, itertools.count()))
        features[:, out_j] = values
        meta.append(
            FeatureMeta(
                name=name,
                original_kind=kind,
                observed_min=float(values.min()),
                observed_max=float(values.max()),
                symbol_codes=symbol_codes,
            )
        )

    class_names = list(raw.tokens[label_j])
    normal = _resolve_normal_class(class_names, normal_class_name)
    labels = raw.codes[label_j].astype(np.int64)
    labels.setflags(write=False)
    return features, meta, labels, class_names, normal


def _sealed(features, meta, labels, class_names, normal) -> Dataset:
    """A Dataset that adopts features, which no one else holds, read-only."""
    features.setflags(write=False)
    return Dataset(
        features=features,
        feature_meta=meta,
        labels=labels,
        class_names=class_names,
        normal_class=normal,
    )


def _resolve_normal_class(class_names, normal_class_name):
    if normal_class_name is not None:
        if normal_class_name not in class_names:
            raise InputError(f"normal class {normal_class_name!r} not among classes {class_names}")
        return class_names.index(normal_class_name)
    lowered = [c.lower() for c in class_names]
    for candidate in ("normal", "benign"):
        if candidate in lowered:
            return lowered.index(candidate)
    return 0


def normalize(ds: Dataset) -> Dataset:
    """Min-max scale every feature onto [0, 1].

    Scaling uses the current column extremes, so applying it twice is the
    identity; feature_meta keeps the original observed range. The scaled
    matrix is the only new one, laid out like ds.features, and is scaled
    in place.
    """
    scaled = np.array(ds.features, order="K")
    _scale_in_place(scaled, ds.feature_meta)
    return _sealed(scaled, ds.feature_meta, ds.labels, ds.class_names, ds.normal_class)


def _scale_in_place(features: np.ndarray, meta) -> None:
    """Min-max scale each column of a writable matrix onto [0, 1] in place;
    InputError naming the first constant column."""
    mins = features.min(axis=0)
    maxs = features.max(axis=0)
    flat = np.flatnonzero(maxs == mins)
    if flat.size:
        name = meta[int(flat[0])].name
        raise InputError(f"feature {name!r} is constant and cannot be min-max scaled")
    # A range wider than the largest double (e.g. -1e308..1e308) overflows,
    # so such a column is halved first; times 1, every other column keeps its bits.
    with np.errstate(over="ignore"):
        k = np.where(np.isinf(maxs - mins), 0.5, 1.0)
    features *= k
    features -= mins * k
    features /= maxs * k - mins * k


def select_features(ds: Dataset, indices) -> Dataset:
    """Project a dataset onto a subset of feature columns."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise InputError("cannot select an empty feature set")
    if indices.min() < 0 or indices.max() >= ds.n_features:
        raise InputError("feature index out of range")
    if len(np.unique(indices)) != indices.size:
        raise InputError("duplicate feature indices")
    # Gathered as rows of the transpose, so the projection is column-major
    # (the per-feature scans of the tree learners read it by column) and
    # `columns` owns its memory.
    columns = ds.features.T[indices]
    columns.setflags(write=False)
    return Dataset(
        features=columns.T,
        feature_meta=[ds.feature_meta[int(i)] for i in indices],
        labels=ds.labels,
        class_names=ds.class_names,
        normal_class=ds.normal_class,
    )


def stratified_folds(ds: Dataset, k: int, seed: int) -> FoldAssignment:
    """Deal rows into k folds, class by class, with a seeded shuffle.

    Each class is shuffled and dealt to consecutive folds, the dealing pointer
    carrying over between classes; both per-class and global fold sizes then
    differ by at most one.
    """
    n = ds.n_rows
    if k < 2:
        raise InputError("fold count must be at least 2")
    if k > n:
        raise InputError(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int64)
    pointer = 0
    for cls in range(ds.n_classes):
        rows = np.flatnonzero(ds.labels == cls)
        rows = rows[rng.permutation(rows.size)]
        assignment[rows] = (pointer + np.arange(rows.size)) % k
        pointer += rows.size
    return FoldAssignment(k=k, assignment=assignment, seed=seed)


def decode_symbol(meta: FeatureMeta, code: float) -> str:
    """Inverse of symbolic encoding for a single cell."""
    if meta.symbol_codes is None:
        raise InputError(f"feature {meta.name!r} is numeric, nothing to decode")
    for token, value in meta.symbol_codes.items():
        if value == int(code):
            return token
    raise InputError(f"code {code} unknown for feature {meta.name!r}")


def _label_spellings(class_names, alone: bool) -> list[str]:
    """Each class name as csv.writer writes it as the last field of a row, or
    as a row's only field when alone: quoted when it holds a comma, a quote
    or a line break, and "" as nothing unless alone."""
    spelled = []
    for name in class_names:
        buf = io.StringIO()
        csv.writer(buf).writerow([name] if alone else [0, name])
        spelled.append(buf.getvalue()[0 if alone else 2:-2])
    return spelled


def write_dataset_artifact(ds: Dataset, out_dir, report: PreprocessReport | None = None,
                           label_name: str = "label") -> None:
    """Write the canonical dataset artifact: dataset.csv, a JSON sidecar and
    the binary companion dataset.npy.

    dataset.csv holds the bytes csv.writer writes for each row of Python
    floats and class name, but each distinct value of a column is spelled
    once: distinct by bits, so -0.0 keeps its own spelling. dataset.npy holds
    three np.save records: an ASCII check (the byte size and CRC-32 of
    dataset.csv and of dataset.meta.json, then the CRC-32 of the two arrays),
    the int64 labels and the C-ordered float64 features. InputError when
    dataset.csv would not read back as this dataset: class names that
    repeat, or a label name that a feature column would shadow.
    """
    if len(set(ds.class_names)) != len(ds.class_names):
        raise InputError("class names are not distinct")
    # The reader drops a leading byte-order mark and takes the first column
    # of the label's name, which has to be the last column.
    header = ds.feature_names + [label_name]
    read_back = [header[0].removeprefix("\ufeff"), *header[1:]]
    if label_name not in read_back or read_back.index(label_name) != len(header) - 1:
        raise InputError(f"label name {label_name!r} would not read back as the last "
                         f"column of dataset.csv: a feature has that name")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "dataset.csv")
    meta_path = os.path.join(out_dir, "dataset.meta.json")
    columns = [column.view(np.int64) for column in ds.features.T]
    distinct = [np.unique(bits) for bits in columns]
    # csv writes a Python float as its repr, the shortest exact spelling.
    spellings = [np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
                 for bits in distinct]
    labels = np.array(_label_spellings(ds.class_names, alone=not columns), dtype=object)
    block_rows = max(1, _WRITE_BLOCK_CELLS // (len(columns) + 1))
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, ds.n_rows, block_rows):
            block = slice(start, start + block_rows)
            cells = [spelled[np.searchsorted(values, bits[block])].tolist()
                     for spelled, values, bits in zip(spellings, distinct, columns)]
            cells.append(labels[ds.labels[block]].tolist())
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")
    sidecar = {
        "version": ARTIFACT_VERSION,
        "label_name": label_name,
        "class_names": ds.class_names,
        "normal_class": ds.normal_class,
        "feature_meta": [
            {
                "name": m.name,
                "original_kind": m.original_kind,
                "observed_min": m.observed_min,
                "observed_max": m.observed_max,
                "symbol_codes": m.symbol_codes,
            }
            for m in ds.feature_meta
        ],
        "preprocess_report": report.to_dict() if report is not None else None,
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # a column-major matrix (select_features gives one) is copied row-major
    labels = np.ascontiguousarray(ds.labels)
    features = np.ascontiguousarray(ds.features)
    check = _companion_check(csv_path, meta_path) + _arrays_crc(labels, features)
    with open(os.path.join(out_dir, "dataset.npy"), "wb") as fh:
        # on an open file, np.save writes a contiguous array with tofile, uncopied
        for array in (np.frombuffer(check, dtype=np.uint8), labels, features):
            np.save(fh, array)


def _companion_check(csv_path, meta_path) -> bytes:
    """A companion's check up to the CRC-32 of its arrays: the byte size and
    CRC-32 of dataset.csv and of dataset.meta.json."""
    files = []
    for path in (csv_path, meta_path):
        size = crc = 0
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(_CHECK_CHUNK), b""):
                size += len(chunk)
                crc = zlib.crc32(chunk, crc)
        files.append(b"%d %08x" % (size, crc))
    return b"dataset.csv %s dataset.meta.json %s arrays " % tuple(files)


def _arrays_crc(labels, features) -> bytes:
    """The CRC-32 of the labels' bytes then the features', 8 hex digits."""
    return b"%08x" % zlib.crc32(features, zlib.crc32(labels))


def _npy_header(dtype, shape) -> bytes:
    """The bytes np.save writes before the data of a C-ordered array of dtype
    and shape: the magic string, format version 1.0 and the padded header."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
        "fortran_order": False,
        "shape": shape,
    })
    return out.getvalue()


def _read_companion(path, csv_path, meta_path, n_features):
    """Read-only (labels, features) from the companion at path, or None
    unless it holds exactly the records write_dataset_artifact writes for
    the current bytes of csv_path and meta_path and for the arrays it holds."""
    with open(path, "rb") as fh:
        check = _companion_check(csv_path, meta_path)
        first = _npy_header(np.uint8, (len(check) + 8,)) + check
        if fh.read(len(first)) != first:
            return None
        arrays_crc = fh.read(8)
        size_left = os.fstat(fh.fileno()).st_size - fh.tell()
        head = fh.read(10)
        head += fh.read(int.from_bytes(head[8:], "little"))
        rows = re.search(rb"'shape': \((\d{1,18}),\)", head)
        n = int(rows[1]) if rows else 0
        tail = _npy_header(np.float64, (n, n_features))
        if (head != _npy_header(np.int64, (n,))
                or size_left != len(head) + len(tail) + 8 * n * (1 + n_features)):
            return None
        labels = np.empty(n, dtype=np.int64)
        features = np.empty((n, n_features), dtype=np.float64)
        if (fh.readinto(labels) != labels.nbytes or fh.read(len(tail)) != tail
                or fh.readinto(features) != features.nbytes):
            return None
    if _arrays_crc(labels, features) != arrays_crc:
        return None
    # no one else holds them, so the Dataset adopts them
    labels.setflags(write=False)
    features.setflags(write=False)
    return labels, features


# The JSON types of the sidecar's fields and of each feature_meta entry.
_SIDECAR_FIELDS = {"label_name": str, "class_names": list, "normal_class": int,
                   "feature_meta": list}
_FEATURE_FIELDS = {"name": str, "original_kind": str, "observed_min": (int, float),
                   "observed_max": (int, float), "symbol_codes": (dict, type(None))}


def _check_fields(doc, fields, where) -> None:
    if not isinstance(doc, dict):
        raise InputError(f"{where} is not a JSON object")
    for key, kind in fields.items():
        if key not in doc:
            raise InputError(f"{where}: missing {key!r}")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            raise InputError(f"{where}: {key!r} has the wrong type")


def read_dataset_artifact(path) -> Dataset:
    """Load a dataset written by write_dataset_artifact.

    path is the artifact directory (or the dataset.csv inside it). The
    sidecar is always parsed and checked. Labels and features come from the
    companion dataset.npy when its check matches the current bytes of
    dataset.csv and the sidecar and its arrays; otherwise, a missing, stale,
    truncated or malformed companion alike, dataset.csv is parsed.
    """
    if os.path.isdir(path):
        csv_path = os.path.join(path, "dataset.csv")
    else:
        csv_path = path
    artifact_dir = os.path.dirname(csv_path)
    meta_path = os.path.join(artifact_dir, "dataset.meta.json")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read dataset sidecar {meta_path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed dataset sidecar {meta_path}: {exc}") from exc

    _check_fields(sidecar, _SIDECAR_FIELDS, meta_path)
    for m in sidecar["feature_meta"]:
        _check_fields(m, _FEATURE_FIELDS, f"{meta_path}: feature_meta entry")
    class_names = sidecar["class_names"]
    if not all(isinstance(name, str) for name in class_names):
        raise InputError(f"{meta_path}: class_names must be strings")
    meta = [FeatureMeta(**{key: m[key] for key in _FEATURE_FIELDS})
            for m in sidecar["feature_meta"]]

    try:
        companion = _read_companion(os.path.join(artifact_dir, "dataset.npy"), csv_path,
                                    meta_path, len(meta))
    except OSError:
        companion = None
    if companion is None:
        labels, features = _read_csv_arrays(csv_path, sidecar["label_name"], class_names,
                                            len(meta))
    else:
        labels, features = companion
    return Dataset(
        features=features,
        feature_meta=meta,
        labels=labels,
        class_names=class_names,
        normal_class=sidecar["normal_class"],
    )


def _read_csv_arrays(csv_path, label_name, class_names, n_features):
    """Read-only (labels, features) parsed from an artifact's dataset.csv."""
    raw = load_csv(csv_path, label_column=label_name, has_header=True)
    if raw.n_columns != n_features + 1:
        raise InputError("dataset.csv column count does not match sidecar metadata")
    features = np.empty((raw.n_rows, n_features), dtype=np.float64)
    feature_js = [j for j in range(raw.n_columns) if j != raw.label_column]
    for out_j, j in enumerate(feature_js):
        # one parse per distinct token; the first bad token in first-appearance
        # order is the first bad cell in row order
        features[:, out_j] = _parse_numeric(raw.tokens[j], raw.column_names[j])[raw.codes[j]]
    tokens, codes = raw.tokens[raw.label_column], raw.codes[raw.label_column]
    class_index = {name: i for i, name in enumerate(class_names)}
    unknown = [tok for tok in tokens if tok not in class_index]
    if unknown:
        raise InputError(f"label {unknown[0]!r} missing from sidecar class names")
    labels = np.array([class_index[tok] for tok in tokens], dtype=np.int64)[codes]
    features.setflags(write=False)
    labels.setflags(write=False)
    return labels, features
