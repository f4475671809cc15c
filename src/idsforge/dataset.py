"""CSV ingestion, cleaning, integer encoding, min-max scaling and fold assignment."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Tokens zero-filled during filtering; anything else that still parses to a
# non-finite float makes the whole column symbolic at encoding time.
NONFINITE_TOKENS = frozenset({"Infinity", "-Infinity", "NaN"})

ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class RawTable:
    """A parsed CSV with every cell kept as text."""

    column_names: list[str]
    cells: list[list[str]]
    label_column: int

    def __post_init__(self):
        width = len(self.column_names)
        for i, row in enumerate(self.cells):
            if len(row) != width:
                raise InputError(f"row {i + 1} has {len(row)} cells, expected {width}")
        if not 0 <= self.label_column < width:
            raise InputError(f"label column index {self.label_column} out of range for {width} columns")

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_columns(self) -> int:
        return len(self.column_names)


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


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric matrix plus class labels and per-feature metadata."""

    features: np.ndarray  # (n_rows, n_features) float64
    feature_meta: list[FeatureMeta]
    labels: np.ndarray  # (n_rows,) int64 class indices
    class_names: list[str]
    normal_class: int

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2:
            raise InputError("features must be a 2-d matrix")
        if labels.shape != (feats.shape[0],):
            raise InputError("labels length does not match feature rows")
        if not np.isfinite(feats).all():
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
        feats.setflags(write=False)
        labels.setflags(write=False)

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
    the first header name.

    label_column is a column name (requires a header) or a 0-based index.
    Raises InputError for unreadable files, ragged rows (naming the offending
    line) and missing label columns.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = None
        cells = []
        width = None
        for row in reader:
            if not row:
                continue
            if has_header and header is None:
                header = row
                width = len(row)
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise InputError(
                    f"ragged row at line {reader.line_num}: {len(row)} cells, expected {width}"
                )
            cells.append(row)
    if width is None:
        raise InputError(f"{path} is empty")
    if header is None:
        header = [f"col_{j}" for j in range(width)]
    label = _resolve_label_column(header, label_column, has_header)
    return RawTable(column_names=header, cells=cells, label_column=label)


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

    Duplicate-named feature columns keep their first occurrence, missing and
    non-finite cells become "0", and feature columns that end up constant are
    dropped. The label column is never rewritten or dropped.
    """
    label_j = raw.label_column
    keep: list[int] = []
    seen: set[str] = set()
    dropped_dup: list[str] = []
    for j, name in enumerate(raw.column_names):
        if j == label_j:
            keep.append(j)
            continue
        if name in seen:
            dropped_dup.append(name)
            continue
        seen.add(name)
        keep.append(j)

    missing = 0
    nonfinite = 0
    columns: dict[int, list[str]] = {j: [] for j in keep}
    for row in raw.cells:
        for j in keep:
            tok = row[j]
            if j != label_j:
                if tok == "":
                    missing += 1
                    tok = "0"
                elif tok in NONFINITE_TOKENS:
                    nonfinite += 1
                    tok = "0"
            columns[j].append(tok)

    label_values = set(columns[label_j]) if raw.cells else set()
    if raw.cells and len(label_values) < 2:
        raise InputError("label column is constant: dataset contains a single class")

    dropped_const: list[str] = []
    final: list[int] = []
    for j in keep:
        if j != label_j and raw.cells and len(set(columns[j])) == 1:
            dropped_const.append(raw.column_names[j])
            continue
        final.append(j)

    if sum(1 for j in final if j != label_j) == 0:
        raise InputError("no feature columns remain after filtering")

    names = [raw.column_names[j] for j in final]
    cells = [[columns[j][i] for j in final] for i in range(raw.n_rows)]
    report = PreprocessReport(
        dropped_constant_features=tuple(dropped_const),
        dropped_duplicate_features=tuple(dropped_dup),
        missing_replaced=missing,
        nonfinite_replaced=nonfinite,
        rows_in=raw.n_rows,
        rows_out=len(cells),
    )
    filtered = RawTable(column_names=names, cells=cells, label_column=final.index(label_j))
    return filtered, report


def _parse_numeric(tokens):
    values = np.empty(len(tokens), dtype=np.float64)
    for i, tok in enumerate(tokens):
        try:
            v = float(tok)
        except ValueError:
            return None
        if not math.isfinite(v):
            return None
        values[i] = v
    return values


def encode(raw: RawTable, normal_class_name: str | None = None) -> Dataset:
    """Turn a filtered table into a numeric dataset.

    Numeric columns parse as reals; everything else gets integer codes in
    first-appearance order starting at 0. Labels map to class indices the same
    way. normal_class_name picks the benign class; when omitted, a class named
    "normal" or "benign" (case-insensitive) is used, else class 0.
    """
    if raw.n_rows == 0:
        raise InputError("cannot encode an empty table")
    label_j = raw.label_column
    feature_cols = [j for j in range(raw.n_columns) if j != label_j]
    if not feature_cols:
        raise InputError("table has no feature columns")

    features = np.empty((raw.n_rows, len(feature_cols)), dtype=np.float64)
    meta: list[FeatureMeta] = []
    for out_j, j in enumerate(feature_cols):
        tokens = [row[j] for row in raw.cells]
        values = _parse_numeric(tokens)
        if values is not None:
            kind, codes = "numeric", None
        else:
            kind = "symbolic"
            codes = {}
            values = np.empty(len(tokens), dtype=np.float64)
            for i, tok in enumerate(tokens):
                if tok not in codes:
                    codes[tok] = len(codes)
                values[i] = codes[tok]
        features[:, out_j] = values
        meta.append(
            FeatureMeta(
                name=raw.column_names[j],
                original_kind=kind,
                observed_min=float(values.min()),
                observed_max=float(values.max()),
                symbol_codes=codes,
            )
        )

    class_names: list[str] = []
    class_index: dict[str, int] = {}
    labels = np.empty(raw.n_rows, dtype=np.int64)
    for i, row in enumerate(raw.cells):
        tok = row[label_j]
        if tok not in class_index:
            class_index[tok] = len(class_names)
            class_names.append(tok)
        labels[i] = class_index[tok]

    normal = _resolve_normal_class(class_names, normal_class_name)
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
    identity; feature_meta keeps the original observed range.
    """
    mins = ds.features.min(axis=0)
    maxs = ds.features.max(axis=0)
    flat = np.flatnonzero(maxs == mins)
    if flat.size:
        name = ds.feature_meta[int(flat[0])].name
        raise InputError(f"feature {name!r} is constant and cannot be min-max scaled")
    scaled = (ds.features - mins) / (maxs - mins)
    return Dataset(
        features=scaled,
        feature_meta=ds.feature_meta,
        labels=ds.labels,
        class_names=ds.class_names,
        normal_class=ds.normal_class,
    )


def select_features(ds: Dataset, indices) -> Dataset:
    """Project a dataset onto a subset of feature columns."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise InputError("cannot select an empty feature set")
    if indices.min() < 0 or indices.max() >= ds.n_features:
        raise InputError("feature index out of range")
    if len(np.unique(indices)) != indices.size:
        raise InputError("duplicate feature indices")
    return Dataset(
        features=ds.features[:, indices],
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
        for r in rows:
            assignment[r] = pointer % k
            pointer += 1
    return FoldAssignment(k=k, assignment=assignment, seed=seed)


def decode_symbol(meta: FeatureMeta, code: float) -> str:
    """Inverse of symbolic encoding for a single cell."""
    if meta.symbol_codes is None:
        raise InputError(f"feature {meta.name!r} is numeric, nothing to decode")
    for token, value in meta.symbol_codes.items():
        if value == int(code):
            return token
    raise InputError(f"code {code} unknown for feature {meta.name!r}")


def write_dataset_artifact(ds: Dataset, out_dir, report: PreprocessReport | None = None,
                           label_name: str = "label") -> None:
    """Write the canonical dataset artifact: dataset.csv plus a JSON sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "dataset.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names + [label_name])
        for i in range(ds.n_rows):
            row = [repr(float(v)) for v in ds.features[i]]
            row.append(ds.class_names[int(ds.labels[i])])
            writer.writerow(row)
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
    with open(os.path.join(out_dir, "dataset.meta.json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dataset_artifact(path) -> Dataset:
    """Load a dataset written by write_dataset_artifact.

    path is the artifact directory (or the dataset.csv inside it).
    """
    if os.path.isdir(path):
        csv_path = os.path.join(path, "dataset.csv")
    else:
        csv_path = path
    meta_path = os.path.join(os.path.dirname(csv_path), "dataset.meta.json")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read dataset sidecar {meta_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed dataset sidecar {meta_path}: {exc}") from exc

    meta = [
        FeatureMeta(
            name=m["name"],
            original_kind=m["original_kind"],
            observed_min=m["observed_min"],
            observed_max=m["observed_max"],
            symbol_codes=m["symbol_codes"],
        )
        for m in sidecar["feature_meta"]
    ]
    class_names = sidecar["class_names"]
    class_index = {name: i for i, name in enumerate(class_names)}

    raw = load_csv(csv_path, label_column=sidecar["label_name"], has_header=True)
    if raw.n_columns != len(meta) + 1:
        raise InputError("dataset.csv column count does not match sidecar metadata")
    n = raw.n_rows
    features = np.empty((n, len(meta)), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    feature_js = [j for j in range(raw.n_columns) if j != raw.label_column]
    for i, row in enumerate(raw.cells):
        for out_j, j in enumerate(feature_js):
            features[i, out_j] = float(row[j])
        tok = row[raw.label_column]
        if tok not in class_index:
            raise InputError(f"label {tok!r} missing from sidecar class names")
        labels[i] = class_index[tok]
    return Dataset(
        features=features,
        feature_meta=meta,
        labels=labels,
        class_names=class_names,
        normal_class=sidecar["normal_class"],
    )
