"""Rank-based comparison of algorithms over datasets: Friedman test with the
Iman-Davenport F form, and the Nemenyi post-hoc critical difference.

The F-distribution tail is computed from a continued-fraction regularized
incomplete beta, so no statistics library is required at runtime.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

ALPHAS = (0.05, 0.1)

# How far a given mean rank may sit outside [1, k], the range every mean of
# ranks 1..k lies in; allows for ranks published as rounded or truncated values.
MEAN_RANK_TOLERANCE = 0.01

# Critical values of the studentized range statistic divided by sqrt(2), for
# comparing k algorithms at the given significance level.
Q_CRITICAL = {
    0.05: {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
           7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164},
    0.1: {2: 1.645, 3: 2.052, 4: 2.291, 5: 2.459, 6: 2.589,
          7: 2.693, 8: 2.780, 9: 2.855, 10: 2.920},
}


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(x: float, a: float, b: float, tol: float, max_iter: int = 500) -> float:
    # Modified Lentz evaluation of the standard continued fraction for I_x(a, b).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    raise ArithmeticError(f"incomplete beta failed to converge for x={x}, a={a}, b={b}")


def regularized_incomplete_beta(x: float, a: float, b: float, tol: float = 1e-10) -> float:
    """I_x(a, b) with relative tolerance tol."""
    if a <= 0 or b <= 0:
        raise InputError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(x, a, b, tol) / a
    return 1.0 - front * _beta_continued_fraction(1.0 - x, b, a, tol) / b


def f_distribution_sf(f_value: float, df1: int, df2: int) -> float:
    """P(F >= f_value) for an F distribution with (df1, df2) degrees of freedom."""
    if df1 < 1 or df2 < 1:
        raise InputError("degrees of freedom must be at least 1")
    if math.isinf(f_value):
        return 0.0
    if f_value <= 0.0:
        return 1.0
    # sf = I_x(df2/2, df1/2) = 1 - I_y(df1/2, df2/2) with y = 1 - x. For x near
    # 1 (tiny F) x itself rounds to 1.0, so y is formed directly instead.
    denom = df2 + df1 * f_value
    x = df2 / denom
    if x < 0.5:
        return regularized_incomplete_beta(x, df2 / 2.0, df1 / 2.0)
    return 1.0 - regularized_incomplete_beta(df1 * f_value / denom, df1 / 2.0, df2 / 2.0)


@dataclass(frozen=True)
class RankTable:
    """Per-dataset ranks of each algorithm; rank 1 is best, ties get mid-ranks."""

    algorithms: list[str]
    datasets: list[str]
    ranks: np.ndarray  # (n_datasets, k_algorithms)
    higher_is_better: bool

    def __post_init__(self):
        ranks = np.array(self.ranks, dtype=np.float64)
        object.__setattr__(self, "ranks", ranks)
        k = len(self.algorithms)
        n = len(self.datasets)
        if ranks.shape != (n, k):
            raise InputError("rank matrix shape does not match the name lists")
        expected = k * (k + 1) / 2.0
        for i, row in enumerate(ranks):
            if row.min() < 1.0 or row.max() > k:
                raise InputError(f"rank row {i} has entries outside [1, {k}]")
            if abs(row.sum() - expected) > 1e-9:
                raise InputError(f"rank row {i} sums to {row.sum()}, expected {expected}")
        ranks.setflags(write=False)

    @property
    def k(self) -> int:
        return len(self.algorithms)

    @property
    def n(self) -> int:
        return len(self.datasets)

    def mean_ranks(self) -> np.ndarray:
        return self.ranks.mean(axis=0)


@dataclass(frozen=True)
class FriedmanResult:
    mean_ranks: np.ndarray
    chi2_f: float
    f_statistic: float
    df1: int
    df2: int
    p_value: float
    reject_at: dict[float, bool]

    def to_dict(self) -> dict:
        return {
            "mean_ranks": [float(r) for r in self.mean_ranks],
            "chi2_f": self.chi2_f,
            "f_statistic": self.f_statistic,
            "df1": self.df1,
            "df2": self.df2,
            "p_value": self.p_value,
            "reject_at": {str(alpha): flag for alpha, flag in self.reject_at.items()},
        }


@dataclass(frozen=True)
class NemenyiResult:
    cd: float
    q_alpha: float
    significant_pairs: list[tuple[str, str, float]]

    def to_dict(self) -> dict:
        return {
            "cd": self.cd,
            "q_alpha": self.q_alpha,
            "significant_pairs": [
                {"first": a, "second": b, "rank_difference": diff}
                for a, b, diff in self.significant_pairs
            ],
        }


def _mid_rank_row(values: np.ndarray, higher_is_better: bool) -> np.ndarray:
    keyed = -values if higher_is_better else values
    order = np.argsort(keyed, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and keyed[order[j + 1]] == keyed[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0  # mean of positions, 1-based
        i = j + 1
    return ranks


def rank_algorithms(metric_table, higher_is_better: bool = True,
                    algorithms=None, datasets=None) -> RankTable:
    """Rank algorithms per dataset row, best = 1, ties as mid-ranks."""
    table = np.asarray(metric_table, dtype=np.float64)
    if table.ndim != 2:
        raise InputError("metric table must be 2-d")
    n, k = table.shape
    if k < 2:
        raise InputError("need at least 2 algorithms to rank")
    if n < 1:
        raise InputError("need at least 1 dataset row")
    if np.isnan(table).any():
        raise InputError("metric table contains NaN")
    algorithms = list(algorithms) if algorithms else [f"A{j + 1}" for j in range(k)]
    datasets = list(datasets) if datasets else [f"D{i + 1}" for i in range(n)]
    ranks = np.vstack([_mid_rank_row(row, higher_is_better) for row in table])
    return RankTable(algorithms=algorithms, datasets=datasets, ranks=ranks,
                     higher_is_better=higher_is_better)


def friedman_from_mean_ranks(mean_ranks, n: int) -> FriedmanResult:
    """Friedman chi-square and Iman-Davenport F from mean ranks over n datasets.

    chi2 = 12n / (k(k+1)) * (sum R_j^2 - k(k+1)^2 / 4) and
    F = (n-1) chi2 / (n(k-1) - chi2); a zero denominator (perfectly
    consistent rankings) reports F = +inf with p = 0. Rounded published mean
    ranks are accepted, but each must lie in [1, k] within
    MEAN_RANK_TOLERANCE.
    """
    mean_ranks = np.asarray(mean_ranks, dtype=np.float64)
    k = mean_ranks.size
    if k < 2:
        raise InputError("need at least 2 algorithms")
    if n < 2:
        raise InputError("need at least 2 datasets")
    in_range = ((mean_ranks >= 1 - MEAN_RANK_TOLERANCE)
                & (mean_ranks <= k + MEAN_RANK_TOLERANCE))
    if not in_range.all():
        bad = float(mean_ranks[~in_range][0])
        raise InputError(f"mean rank {bad!r} is outside [1, {k}] for {k} algorithms")
    chi2 = 12.0 * n / (k * (k + 1)) * float((mean_ranks ** 2).sum() - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)
    df1 = k - 1
    df2 = (k - 1) * (n - 1)
    denom = n * (k - 1) - chi2
    if denom <= 1e-12:
        f_statistic = math.inf
        p_value = 0.0
    else:
        f_statistic = (n - 1) * chi2 / denom
        p_value = f_distribution_sf(f_statistic, df1, df2)
    return FriedmanResult(
        mean_ranks=mean_ranks,
        chi2_f=chi2,
        f_statistic=f_statistic,
        df1=df1,
        df2=df2,
        p_value=p_value,
        reject_at={alpha: p_value < alpha for alpha in ALPHAS},
    )


def friedman_test(ranks: RankTable) -> FriedmanResult:
    """Friedman test over a full rank table."""
    if ranks.n < 2:
        raise InputError("need at least 2 datasets")
    return friedman_from_mean_ranks(ranks.mean_ranks(), ranks.n)


def nemenyi_cd(mean_ranks, n: int, alpha: float, algorithms=None) -> NemenyiResult:
    """Critical difference q_alpha * sqrt(k(k+1) / 6n) and the pairs beyond it.

    A pair is significant when its mean-rank gap reaches the critical
    difference. The critical values cover k = 2..10 at alpha 0.05 and 0.1.
    """
    mean_ranks = np.asarray(mean_ranks, dtype=np.float64)
    k = mean_ranks.size
    if alpha not in Q_CRITICAL:
        raise InputError(f"alpha must be one of {sorted(Q_CRITICAL)}")
    if k not in Q_CRITICAL[alpha]:
        raise InputError(f"no critical value for k={k}; supported range is 2..10")
    if n < 2:
        raise InputError("need at least 2 datasets")
    algorithms = list(algorithms) if algorithms else [f"A{j + 1}" for j in range(k)]
    if len(algorithms) != k:
        raise InputError("algorithm names do not match the rank vector")
    q = Q_CRITICAL[alpha][k]
    cd = q * math.sqrt(k * (k + 1) / (6.0 * n))
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            diff = abs(float(mean_ranks[i] - mean_ranks[j]))
            if diff >= cd:
                pairs.append((algorithms[i], algorithms[j], diff))
    return NemenyiResult(cd=cd, q_alpha=q, significant_pairs=pairs)


def load_metric_table(path):
    """Read a metric table CSV: header row of algorithm names, one row per
    dataset. A non-numeric first column is treated as dataset names.

    Returns (values, algorithms, datasets).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read metric table {path}: {exc}") from exc
    if len(rows) < 2:
        raise InputError("metric table needs a header and at least one data row")
    header = rows[0]
    data = rows[1:]

    def numeric(tok):
        try:
            float(tok)
            return True
        except ValueError:
            return False

    named_rows = any(not numeric(row[0]) for row in data)
    if named_rows:
        algorithms = header[1:]
        datasets = [row[0] for row in data]
        body = [row[1:] for row in data]
    else:
        algorithms = header
        datasets = [f"D{i + 1}" for i in range(len(data))]
        body = data
    if len(algorithms) < 2:
        raise InputError("metric table needs at least 2 algorithm columns")
    values = np.empty((len(body), len(algorithms)), dtype=np.float64)
    for i, row in enumerate(body):
        if len(row) != len(algorithms):
            raise InputError(f"metric table row {i + 1} has {len(row)} values, expected {len(algorithms)}")
        for j, tok in enumerate(row):
            try:
                values[i, j] = float(tok)
            except ValueError:
                raise InputError(f"non-numeric cell {tok!r} in metric table row {i + 1}") from None
            if not math.isfinite(values[i, j]):
                raise InputError(f"non-finite cell {tok!r} in metric table row {i + 1}")
    return values, algorithms, datasets
