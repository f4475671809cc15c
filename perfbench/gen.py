"""Seeded NSL-KDD-shaped traffic tables for the benchmark.

The table has the 41 NSL-KDD feature columns plus a ``class`` label:

- 38 numeric columns of mixed cardinality: binary flags, 2-decimal rates,
  small counts, connection counts capped at 255 or 511, and heavy-tailed
  durations and byte counts. One of them, ``num_outbound_cmds``, is constant,
  as in KDDTrain+.
- 3 symbolic columns: 3 protocols, 70 services and 11 connection flags.
- 5 classes with the KDDTrain+ skew (about 53/37/9/0.8/0.1 %).

How each class draws its features is fixed by ``PROFILE_SEED``, so every
seed yields a table of the same difficulty; the seed only picks the rows.
A stated share of rows ("overlap") takes its features from another class's
profile while keeping its own label; every class gives its share of those
rows and the donor classes take turns, so the mix of label noise is the same
for every seed. That label noise is what makes the
trees grow: without it the classes separate after a few dozen nodes.
"""

from __future__ import annotations

import csv

import numpy as np

CLASSES = ("normal", "dos", "probe", "r2l", "u2r")
CLASS_SHARES = (0.531, 0.367, 0.093, 0.008, 0.001)
PROFILE_SEED = 1904_01352

PROTOCOLS = ("tcp", "udp", "icmp")
SERVICES = tuple(f"svc{i:02d}" for i in range(70))
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "RSTOS0", "S3", "OTH")

# (name, kind) in NSL-KDD column order. Kinds: bytes (heavy tail), small
# (counts mostly 0), flag (0/1), count255/count511 (capped), rate (2 decimals),
# const (always 0), and the three symbolic columns.
COLUMNS = (
    ("duration", "bytes"), ("protocol_type", "protocol"), ("service", "service"),
    ("flag", "flag_sym"), ("src_bytes", "bytes"), ("dst_bytes", "bytes"),
    ("land", "flag"), ("wrong_fragment", "small"), ("urgent", "small"),
    ("hot", "small"), ("num_failed_logins", "small"), ("logged_in", "flag"),
    ("num_compromised", "small"), ("root_shell", "flag"), ("su_attempted", "small"),
    ("num_root", "small"), ("num_file_creations", "small"), ("num_shells", "small"),
    ("num_access_files", "small"), ("num_outbound_cmds", "const"),
    ("is_host_login", "flag"), ("is_guest_login", "flag"),
    ("count", "count511"), ("srv_count", "count511"),
    ("serror_rate", "rate"), ("srv_serror_rate", "rate"), ("rerror_rate", "rate"),
    ("srv_rerror_rate", "rate"), ("same_srv_rate", "rate"), ("diff_srv_rate", "rate"),
    ("srv_diff_host_rate", "rate"), ("dst_host_count", "count255"),
    ("dst_host_srv_count", "count255"), ("dst_host_same_srv_rate", "rate"),
    ("dst_host_diff_srv_rate", "rate"), ("dst_host_same_src_port_rate", "rate"),
    ("dst_host_srv_diff_host_rate", "rate"), ("dst_host_serror_rate", "rate"),
    ("dst_host_srv_serror_rate", "rate"), ("dst_host_rerror_rate", "rate"),
    ("dst_host_srv_rerror_rate", "rate"),
)
LABEL = "class"
CONSTANT_COLUMN = "num_outbound_cmds"
SYMBOLIC_COLUMNS = ("protocol_type", "service", "flag")
# Columns whose distribution depends on the class.
INFORMATIVE = frozenset((
    "protocol_type", "service", "flag", "src_bytes", "dst_bytes", "logged_in", "count",
    "srv_count", "serror_rate", "same_srv_rate", "diff_srv_rate", "dst_host_srv_count",
    "dst_host_same_srv_rate", "dst_host_serror_rate",
))


_RATE_STRINGS = np.asarray([f"{i / 100:.2f}" for i in range(101)], dtype=object)


def _draw(kind, rng):
    if kind == "bytes":
        return (rng.uniform(0.1, 0.9), rng.uniform(2.0, 9.0), rng.uniform(0.2, 0.6))
    if kind == "small":
        return (rng.uniform(0.0, 0.1), rng.uniform(0.5, 3.0))
    if kind == "flag":
        return rng.choice((0.03, 0.97)) + rng.uniform(-0.02, 0.02)
    if kind in ("count255", "count511"):
        return (rng.uniform(1.0, 300.0), rng.uniform(0.1, 0.4))
    if kind == "rate":
        return (rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.3), rng.uniform(5.0, 30.0))
    if kind == "protocol":
        return rng.dirichlet(np.full(len(PROTOCOLS), 0.5))
    if kind == "service":
        return rng.dirichlet(np.full(len(SERVICES), 0.1))
    if kind == "flag_sym":
        return rng.dirichlet(np.full(len(FLAGS), 0.3))
    return None


def _profiles() -> list[dict]:
    """Per-class, per-column distribution parameters (seed independent).

    Only the INFORMATIVE columns differ between classes; the others follow
    one shared profile. A crisp split between signal and noise makes CFS-BA
    settle on much the same subset for every seed, so the work that follows
    selection does not swing with the seed.
    """
    rng = np.random.default_rng(PROFILE_SEED)
    shared = {name: _draw(kind, rng) for name, kind in COLUMNS}
    profiles = []
    for _ in CLASSES:
        profiles.append({name: _draw(kind, rng) if name in INFORMATIVE else shared[name]
                         for name, kind in COLUMNS})
    return profiles


def class_counts(n_rows: int, min_rows: int) -> list[int]:
    """Rows per class: the KDDTrain+ shares, every class at least min_rows."""
    counts = [max(int(round(share * n_rows)), min_rows) for share in CLASS_SHARES[1:]]
    counts.insert(0, n_rows - sum(counts))
    if counts[0] < min_rows:
        raise ValueError(f"{n_rows} rows are too few for {min_rows} rows per class")
    return counts


def _column(kind, params, k, rng):
    """k values (as strings) of one column for one profile class."""
    if kind == "bytes":
        p_zero, mu, sigma = params
        v = np.where(rng.random(k) < p_zero, 0, np.floor(rng.lognormal(mu, sigma, k)))
        return np.minimum(v, 1e9).astype(np.int64).astype(str)
    if kind == "small":
        p_nonzero, lam = params
        v = np.where(rng.random(k) < p_nonzero, 1 + rng.poisson(lam, k), 0)
        return v.astype(str)
    if kind == "flag":
        return (rng.random(k) < params).astype(np.int64).astype(str)
    if kind in ("count255", "count511"):
        cap = 255 if kind == "count255" else 511
        mean, sigma = params
        v = np.clip(np.round(rng.lognormal(np.log(mean), sigma, k)), 0, cap)
        return v.astype(np.int64).astype(str)
    if kind == "rate":
        p_zero, p_one, conc = params
        u = rng.random(k)
        mid = rng.beta(conc, conc, k)
        v = np.where(u < p_zero, 0.0, np.where(u < p_zero + p_one, 1.0, mid))
        return _RATE_STRINGS[np.rint(v * 100).astype(np.int64)]
    if kind == "const":
        return np.full(k, "0")
    symbols = {"protocol": PROTOCOLS, "service": SERVICES, "flag_sym": FLAGS}[kind]
    return np.asarray(symbols)[rng.choice(len(symbols), size=k, p=params)]


def generate(n_rows: int, seed, overlap: float, min_rows: int = 10):
    """Build the table in memory.

    Returns (header, columns, labels): columns is a list of per-column string
    arrays in COLUMNS order and labels the per-row class index. A share
    ``overlap`` of the rows draws its features from another class.
    """
    rng = np.random.default_rng(seed)
    counts = np.asarray(class_counts(n_rows, min_rows))
    # One overlap row in each block of 1/overlap rows, so that every
    # contiguous slice of the table, such as score's training rows, holds its
    # share of them.
    n_swapped = int(round(overlap * n_rows))
    edges = np.linspace(0, n_rows, n_swapped + 1).astype(np.int64)
    swapped = edges[:-1] + (rng.random(n_swapped) * np.diff(edges)).astype(np.int64)
    # Each class gives its share of the overlap rows (largest remainder) and
    # within a class the donor classes take turns: which rows are noisy varies
    # with the seed, how many of each kind does not, so the trees grow about
    # as large on every seed.
    share = overlap * counts
    per_class = np.floor(share).astype(np.int64)
    per_class[np.argsort(per_class - share)[:n_swapped - per_class.sum()]] += 1
    noisy = np.repeat(np.arange(len(CLASSES)), per_class)
    shift = np.concatenate([1 + (rng.integers(len(CLASSES) - 1) + np.arange(m))
                            % (len(CLASSES) - 1) for m in per_class])
    order = rng.permutation(n_swapped)
    clean = np.repeat(np.arange(len(CLASSES)), counts - per_class)
    labels = np.empty(n_rows, dtype=np.int64)
    labels[swapped] = noisy[order]
    rest = np.ones(n_rows, dtype=bool)
    rest[swapped] = False
    labels[rest] = clean[rng.permutation(clean.size)]
    source = labels.copy()
    source[swapped] = (noisy + shift)[order] % len(CLASSES)

    profiles = _profiles()
    columns = []
    for name, kind in COLUMNS:
        col = np.empty(n_rows, dtype=object)
        for cls, profile in enumerate(profiles):
            rows = np.flatnonzero(source == cls)
            col[rows] = _column(kind, profile.get(name), rows.size, rng)
        columns.append(col)
    header = [name for name, _ in COLUMNS] + [LABEL]
    return header, columns, labels


def generate_parts(sizes, seed: int, overlap: float, min_rows: int = 10):
    """generate() once per size, from seeds derived from ``seed``, stacked
    in order. Each part has its own share of every class and of the
    overlap rows, so a model trained on the first part sees the same mix of
    label noise on every seed."""
    parts = [generate(n, [seed, i], overlap, min_rows) for i, n in enumerate(sizes)]
    columns = [np.concatenate(cols) for cols in zip(*(part[1] for part in parts))]
    return parts[0][0], columns, np.concatenate([part[2] for part in parts])


def write_csv(path, header, columns, labels) -> None:
    names = np.asarray(CLASSES, dtype=object)[labels]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns, names))


def expected_artifact(header, columns, labels):
    """What ``idsforge preprocess`` must write for this table, computed
    independently of idsforge: (feature names, scaled feature matrix, class
    names in first-appearance order, per-row class names).

    Constant columns are dropped, symbolic columns get first-appearance codes,
    numeric ones parse as floats, and every column is min-max scaled.
    """
    names, scaled = [], []
    for name, col in zip(header, columns):
        if len(set(col)) == 1:
            continue
        if name in SYMBOLIC_COLUMNS:
            codes: dict[str, int] = {}
            values = np.array([codes.setdefault(tok, len(codes)) for tok in col],
                              dtype=np.float64)
        else:
            values = col.astype(np.float64)
        lo, hi = values.min(), values.max()
        scaled.append((values - lo) / (hi - lo))
        names.append(name)
    row_classes = [CLASSES[i] for i in labels]
    return names, np.column_stack(scaled), list(dict.fromkeys(row_classes)), row_classes
