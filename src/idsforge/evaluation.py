"""Repeated stratified cross-validation and the confusion-matrix metric suite."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, select_features, stratified_folds
from .ensemble import CombinationRule, combine_stack
# Not called here, but perfbench/spans.py traces evaluation's lookups of it,
# so the name stays in this module's namespace.
from .ensemble import ensemble_predict_batch  # noqa: F401
from .errors import InputError
from .trees import TreeParams, c45_fit, forest_pa_fit, rf_fit

CLASSIFIER_KINDS = ("c45", "rf", "forest_pa")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed [true class, predicted class]."""

    counts: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        c = len(self.class_names)
        if counts.shape != (c, c):
            raise InputError("confusion matrix shape does not match class names")
        if (counts < 0).any():
            raise InputError("negative confusion count")
        counts.setflags(write=False)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_from_predictions(y_true, y_pred, class_names) -> ConfusionMatrix:
    c = len(class_names)
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (np.asarray(y_true, dtype=np.int64),
                       np.asarray(y_pred, dtype=np.int64)), 1)
    return ConfusionMatrix(counts=counts, class_names=list(class_names))


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate rates plus the mean model-build time in seconds.

    precision_w, dr_w and f_measure_w are one-vs-rest values weighted by class
    support; adr is the rate at which attack rows land in their own attack
    class (or, in "binary" mode, in any attack class); far is the rate at
    which normal rows are flagged as attacks. Classes that were never
    predicted get precision 0 and are listed in zero_predicted.
    """

    accuracy: float
    precision_w: float
    dr_w: float
    f_measure_w: float
    adr: float
    far: float
    mbt_seconds: float
    zero_predicted: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision_w": self.precision_w,
            "dr_w": self.dr_w,
            "f_measure_w": self.f_measure_w,
            "adr": self.adr,
            "far": self.far,
            "mbt_seconds": self.mbt_seconds,
            "zero_predicted": list(self.zero_predicted),
        }


def compute_metrics(cm: ConfusionMatrix, normal_class: int,
                    mbt_seconds: float = 0.0,
                    adr_mode: str = "exact_class") -> MetricsReport:
    """Derive the metric suite from one confusion matrix."""
    if adr_mode not in ("exact_class", "binary"):
        raise InputError(f"unknown adr mode {adr_mode!r}")
    counts = cm.counts.astype(np.float64)
    c = counts.shape[0]
    if not 0 <= normal_class < c:
        raise InputError("normal class index out of range")
    total = counts.sum()
    if total <= 0:
        raise InputError("empty confusion matrix")

    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    diag = np.diag(counts)
    accuracy = float(diag.sum() / total)

    zero_predicted = []
    precision = np.zeros(c)
    recall = np.zeros(c)
    f1 = np.zeros(c)
    for j in range(c):
        if col_sums[j] > 0:
            precision[j] = diag[j] / col_sums[j]
        elif row_sums[j] > 0:
            zero_predicted.append(cm.class_names[j])
        if row_sums[j] > 0:
            recall[j] = diag[j] / row_sums[j]
        if precision[j] + recall[j] > 0:
            f1[j] = 2 * precision[j] * recall[j] / (precision[j] + recall[j])
    support = row_sums / total
    precision_w = float((support * precision).sum())
    dr_w = float((support * recall).sum())
    f_measure_w = float((support * f1).sum())

    attack = np.array([j != normal_class for j in range(c)])
    attack_total = row_sums[attack].sum()
    if attack_total > 0:
        if adr_mode == "exact_class":
            adr = float(diag[attack].sum() / attack_total)
        else:
            into_normal = counts[attack, normal_class].sum()
            adr = float((attack_total - into_normal) / attack_total)
    else:
        adr = 0.0
    normal_total = row_sums[normal_class]
    far = float((normal_total - diag[normal_class]) / normal_total) if normal_total > 0 else 0.0

    return MetricsReport(
        accuracy=accuracy,
        precision_w=precision_w,
        dr_w=dr_w,
        f_measure_w=f_measure_w,
        adr=adr,
        far=far,
        mbt_seconds=mbt_seconds,
        zero_predicted=tuple(zero_predicted),
    )


@dataclass(frozen=True)
class ClassifierSpec:
    """How to build one ensemble member."""

    kind: str
    params: TreeParams = field(default_factory=TreeParams)
    n_trees: int = 100
    rho: float = 1e-4

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise InputError(f"unknown classifier {self.kind!r}; expected one of {CLASSIFIER_KINDS}")
        if self.n_trees < 1:
            raise InputError("n_trees must be at least 1")
        if not math.isfinite(self.rho):
            raise InputError("rho must be finite")


def make_fitter(spec: ClassifierSpec, threads: int = 1):
    """Turn a spec into a callable (dataset, rows, seed) -> trained model."""

    def fit(ds, rows, seed):
        if spec.kind == "c45":
            return c45_fit(ds, rows, spec.params)
        if spec.kind == "rf":
            return rf_fit(ds, rows, n_trees=spec.n_trees, params=spec.params,
                          seed=seed, threads=threads)
        return forest_pa_fit(ds, rows, n_trees=spec.n_trees, params=spec.params,
                             rho=spec.rho, seed=seed)

    return fit


def _derived_seed(seed: int, repeat: int, fold: int, member: int) -> int:
    return int(np.random.SeedSequence([seed, repeat, fold, member]).generate_state(1)[0])


def _mean_report(reports, mbt: float) -> MetricsReport:
    zero = sorted({name for r in reports for name in r.zero_predicted})
    return MetricsReport(
        accuracy=float(np.mean([r.accuracy for r in reports])),
        precision_w=float(np.mean([r.precision_w for r in reports])),
        dr_w=float(np.mean([r.dr_w for r in reports])),
        f_measure_w=float(np.mean([r.f_measure_w for r in reports])),
        adr=float(np.mean([r.adr for r in reports])),
        far=float(np.mean([r.far for r in reports])),
        mbt_seconds=mbt,
        zero_predicted=tuple(zero),
    )


@dataclass
class CrossValResult:
    """Metrics of one cross-validated classifier.

    For an ensemble, members holds one CrossValResult per member, in input
    order, computed from the ensemble's own fold models; it is empty for the
    member results themselves.
    """

    report: MetricsReport
    confusion: ConfusionMatrix
    per_repeat: list[MetricsReport]
    members: list["CrossValResult"] = field(default_factory=list)


def cross_validate(ds: Dataset, members, k: int = 10, repeats: int = 1,
                   seed: int = 0, rule: CombinationRule = CombinationRule.AVERAGE_OF_PROBABILITIES,
                   feature_indices=None, threads: int = 1,
                   adr_mode: str = "exact_class") -> CrossValResult:
    """Repeated stratified k-fold evaluation of a voting ensemble and its members.

    members is a list of ClassifierSpec or of callables (ds, rows, seed) ->
    model; a single member evaluates one classifier on its own. Repeat r uses
    fold seed (seed + r); each member's training seed mixes (seed, repeat,
    fold, member index), so everything except the timing fields is
    reproducible. Each member is fitted once per fold and predicts its test
    rows once; the rule combines the whole stack of member distributions for
    the ensemble and each member's own slice for that member's result. The
    confusion matrix accumulates over folds and repeats, per-repeat metric
    reports are averaged arithmetically, and mbt_seconds is the mean
    wall-clock time of one build per fold: a member's own fit, or all fits
    for the ensemble.
    """
    if k < 2:
        raise InputError("fold count must be at least 2")
    if repeats < 1:
        raise InputError("repeats must be at least 1")
    if not members:
        raise InputError("need at least one classifier")

    class_counts = np.bincount(ds.labels, minlength=ds.n_classes)
    for cls, count in enumerate(class_counts):
        if count < 2:
            raise InputError(
                f"class {ds.class_names[cls]!r} has {count} instance(s); "
                "at least 2 are needed to appear in every training split"
            )

    if feature_indices is not None:
        ds = select_features(ds, feature_indices)

    fitters = [make_fitter(m, threads) if isinstance(m, ClassifierSpec) else m
               for m in members]
    # The ensemble first, then each member on its own.
    groups = [list(range(len(fitters)))] + [[i] for i in range(len(fitters))]

    c = ds.n_classes
    aggregate = np.zeros((len(groups), c, c), dtype=np.int64)
    per_repeat: list[list[MetricsReport]] = [[] for _ in groups]
    build_times: list[list[float]] = [[] for _ in groups]
    for r in range(repeats):
        folds = stratified_folds(ds, k, seed + r)
        repeat_counts = np.zeros_like(aggregate)
        repeat_times: list[list[float]] = [[] for _ in groups]
        for f in range(k):
            train = folds.train_rows(f)
            test = folds.test_rows(f)
            models = []
            fit_seconds = []
            for i, fit in enumerate(fitters):
                t0 = time.perf_counter()
                models.append(fit(ds, train, _derived_seed(seed, r, f, i)))
                fit_seconds.append(time.perf_counter() - t0)
            test_rows = ds.features[test]
            stack = np.stack([m.predict_batch(test_rows) for m in models])
            for g, group in enumerate(groups):
                labels, _ = combine_stack(stack[group], rule)
                cm = confusion_from_predictions(ds.labels[test], labels, ds.class_names)
                repeat_counts[g] += cm.counts
                repeat_times[g].append(sum(fit_seconds[i] for i in group))
        for g in range(len(groups)):
            repeat_cm = ConfusionMatrix(repeat_counts[g], ds.class_names)
            per_repeat[g].append(compute_metrics(repeat_cm, ds.normal_class,
                                                 mbt_seconds=float(np.mean(repeat_times[g])),
                                                 adr_mode=adr_mode))
            build_times[g].extend(repeat_times[g])
        aggregate += repeat_counts

    results = [
        CrossValResult(
            report=_mean_report(per_repeat[g], mbt=float(np.mean(build_times[g]))),
            confusion=ConfusionMatrix(aggregate[g], ds.class_names),
            per_repeat=per_repeat[g],
        )
        for g in range(len(groups))
    ]
    results[0].members = results[1:]
    return results[0]
