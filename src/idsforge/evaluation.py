"""Repeated stratified cross-validation and the confusion-matrix metric suite."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dataset import Dataset, select_features, stratified_folds
from .ensemble import CombinationRule, combine_stack
# Not called here, but perfbench/spans.py traces evaluation's lookups of it,
# so the name stays in this module's namespace.
from .ensemble import ensemble_predict_batch  # noqa: F401
from .errors import InputError
from .trees import TreeParams, TreeStack, c45_fit, forest_pa_fit, rf_fit

CLASSIFIER_KINDS = ("c45", "rf", "forest_pa")
_ADR_MODES = ("exact_class", "binary")


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
        return {**asdict(self), "zero_predicted": list(self.zero_predicted)}


def compute_metrics(cm: ConfusionMatrix, normal_class: int,
                    mbt_seconds: float = 0.0,
                    adr_mode: str = "exact_class") -> MetricsReport:
    """Derive the metric suite from one confusion matrix."""
    if adr_mode not in _ADR_MODES:
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
    # A rate with a zero denominator is 0.
    precision = np.divide(diag, col_sums, out=np.zeros(c), where=col_sums > 0)
    recall = np.divide(diag, row_sums, out=np.zeros(c), where=row_sums > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(c), where=both > 0)
    support = row_sums / total

    attack = np.arange(c) != normal_class
    attack_total = row_sums[attack].sum()
    hits = (diag[attack].sum() if adr_mode == "exact_class"
            else attack_total - counts[attack, normal_class].sum())
    adr = float(hits / attack_total) if attack_total > 0 else 0.0
    normal_total = row_sums[normal_class]
    far = float((normal_total - diag[normal_class]) / normal_total) if normal_total > 0 else 0.0

    unpredicted = np.flatnonzero((col_sums == 0) & (row_sums > 0))
    return MetricsReport(
        accuracy=float(diag.sum() / total), precision_w=float((support * precision).sum()),
        dr_w=float((support * recall).sum()), f_measure_w=float((support * f1).sum()),
        adr=adr, far=far, mbt_seconds=mbt_seconds,
        zero_predicted=tuple(cm.class_names[j] for j in unpredicted))


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


def _fit(spec: ClassifierSpec, ds: Dataset, rows, seed: int, threads: int):
    """The spec's model trained on the given rows. The learners are looked up
    in this module's namespace and take rows second by position, which is
    where perfbench/spans.py wraps them and reads the rows."""
    if spec.kind == "c45":
        return c45_fit(ds, rows, spec.params)
    if spec.kind == "rf":
        return rf_fit(ds, rows, n_trees=spec.n_trees, params=spec.params,
                      seed=seed, threads=threads)
    return forest_pa_fit(ds, rows, n_trees=spec.n_trees, params=spec.params,
                         rho=spec.rho, seed=seed)


def _derived_seed(seed: int, repeat: int, fold: int, member: int) -> int:
    return int(np.random.SeedSequence([seed, repeat, fold, member]).generate_state(1)[0])


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


def _fold(ds: Dataset, members, groups, train, test, seeds, rule: CombinationRule,
          threads: int):
    """One fold: fit member i on the train rows with seeds[i], walk the test
    rows once through every member's trees, and combine each group's slice
    of that (members, rows, classes) stack by the rule. groups is a boolean
    (groups, members) matrix. Returns the groups' confusion counts
    (groups, classes, classes) and each member's fit time in seconds."""
    models, seconds = [], []
    for spec, member_seed in zip(members, seeds):
        t0 = time.perf_counter()
        models.append(_fit(spec, ds, train, member_seed, threads))
        seconds.append(time.perf_counter() - t0)
    stack = TreeStack.of(models).predict(ds.features[test])
    counts = [confusion_from_predictions(ds.labels[test], combine_stack(stack[group], rule)[0],
                                         ds.class_names).counts
              for group in groups]
    return np.stack(counts), np.array(seconds)


def _check_settings(k, repeats, threads, rule, adr_mode) -> None:
    """InputError for a cross_validate setting out of its domain; the CLI
    calls it before any feature selection runs."""
    if k < 2:
        raise InputError("fold count must be at least 2")
    if repeats < 1:
        raise InputError("repeats must be at least 1")
    if threads < 1:
        raise InputError(f"thread count must be at least 1, got {threads}")
    if not isinstance(rule, CombinationRule):
        raise InputError(f"rule must be a CombinationRule, got {rule!r}")
    if adr_mode not in _ADR_MODES:
        raise InputError(f"unknown adr mode {adr_mode!r}")


def cross_validate(ds: Dataset, members, k: int = 10, repeats: int = 1,
                   seed: int = 0, rule: CombinationRule = CombinationRule.AVERAGE_OF_PROBABILITIES,
                   feature_indices=None, threads: int = 1,
                   adr_mode: str = "exact_class") -> CrossValResult:
    """Repeated stratified k-fold evaluation of a voting ensemble and its members.

    members is a list of ClassifierSpec; a single member evaluates one
    classifier on its own. Repeat r uses fold seed (seed + r); each member's
    training seed mixes (seed, repeat, fold, member index), so everything
    except the timing fields is reproducible. Each fold is one _fold call:
    every member is fitted once, and the rule combines the whole stack for
    the ensemble and each member's own slice for that member's result. The
    confusion matrix sums the folds of every repeat, the report is the
    arithmetic mean of the per-repeat reports, and mbt_seconds is the mean
    wall-clock time of one build per fold: a member's own fit, or all fits
    for the ensemble. Every argument is checked before the first fit.
    """
    _check_settings(k, repeats, threads, rule, adr_mode)
    if not members:
        raise InputError("need at least one classifier")
    for member in members:
        if not isinstance(member, ClassifierSpec):
            raise InputError(f"cannot cross-validate a {type(member).__name__}; "
                             "members must be ClassifierSpec")

    class_counts = np.bincount(ds.labels, minlength=ds.n_classes)
    for cls, count in enumerate(class_counts):
        if count < 2:
            raise InputError(
                f"class {ds.class_names[cls]!r} has {count} instance(s); "
                "at least 2 are needed to appear in every training split"
            )

    if feature_indices is not None:
        ds = select_features(ds, feature_indices)

    # Group 0 is the ensemble, group 1 + i member i on its own.
    m, c = len(members), ds.n_classes
    groups = np.vstack([np.ones(m, dtype=bool), np.eye(m, dtype=bool)])
    counts = np.zeros((repeats, len(groups), c, c), dtype=np.int64)
    fit_seconds = np.zeros((repeats, k, m))
    for r in range(repeats):
        folds = stratified_folds(ds, k, seed + r)
        for f in range(k):
            seeds = [_derived_seed(seed, r, f, i) for i in range(m)]
            fold_counts, fit_seconds[r, f] = _fold(ds, members, groups, folds.train_rows(f),
                                                   folds.test_rows(f), seeds, rule, threads)
            counts[r] += fold_counts
    build_seconds = fit_seconds @ groups.T  # (repeats, k, groups)

    def result(g: int, group_members=()) -> CrossValResult:
        per_repeat = [compute_metrics(ConfusionMatrix(counts[r, g], ds.class_names),
                                      ds.normal_class, adr_mode=adr_mode,
                                      mbt_seconds=float(build_seconds[r, :, g].mean()))
                      for r in range(repeats)]
        means = {f.name: float(np.mean([getattr(p, f.name) for p in per_repeat]))
                 for f in fields(MetricsReport) if f.name != "zero_predicted"}
        zero = sorted({name for p in per_repeat for name in p.zero_predicted})
        return CrossValResult(report=MetricsReport(**means, zero_predicted=tuple(zero)),
                              confusion=ConfusionMatrix(counts[:, g].sum(axis=0), ds.class_names),
                              per_repeat=per_repeat, members=list(group_members))

    return result(0, [result(g) for g in range(1, m + 1)])
