"""Combine per-classifier class distributions into one decision.

Five combination rules are supported; the default pipeline uses the average
of probabilities. Members are anything exposing predict(row) -> distribution
and predict_batch(rows), plus n_classes/n_features, which both tree model
types provide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError


class CombinationRule(enum.Enum):
    AVERAGE_OF_PROBABILITIES = "average-of-probabilities"
    MAJORITY_VOTING = "majority-voting"
    PRODUCT_OF_PROBABILITIES = "product-of-probabilities"
    MINIMUM_PROBABILITY = "minimum-probability"
    MAXIMUM_PROBABILITY = "maximum-probability"

    @classmethod
    def from_string(cls, name: str) -> "CombinationRule":
        for rule in cls:
            if rule.value == name:
                return rule
        valid = ", ".join(r.value for r in cls)
        raise InputError(f"unknown combination rule {name!r}; expected one of: {valid}")


class CombineResult(NamedTuple):
    label: int
    distribution: np.ndarray
    warning: str | None


def combine_stack(stack: np.ndarray, rule: CombinationRule) -> tuple[np.ndarray, np.ndarray]:
    """Apply one combination rule to a (members, rows, classes) stack.

    Returns (labels, distributions) for every row. Argmax ties resolve to the
    lowest class index; majority-vote ties fall back to the mean-probability
    score first. The product, minimum and maximum scores are renormalized to
    sum to 1, and a row whose scores sum to 0 (only reachable with hard-zero
    inputs; smoothed members never get there) becomes uniform.
    """
    l, _, c = stack.shape
    if rule is CombinationRule.AVERAGE_OF_PROBABILITIES:
        scores = stack.mean(axis=0)
        return np.argmax(scores, axis=1), scores

    if rule is CombinationRule.MAJORITY_VOTING:
        votes = (np.argmax(stack, axis=2)[:, :, None] == np.arange(c)).sum(axis=0)
        tied = votes == votes.max(axis=1, keepdims=True)
        labels = np.argmax(np.where(tied, stack.mean(axis=0), -np.inf), axis=1)
        return labels, votes / l

    if rule is CombinationRule.PRODUCT_OF_PROBABILITIES:
        scores = np.prod(stack, axis=0)
    elif rule is CombinationRule.MINIMUM_PROBABILITY:
        scores = stack.min(axis=0)
    elif rule is CombinationRule.MAXIMUM_PROBABILITY:
        scores = stack.max(axis=0)
    else:
        raise InputError(f"unhandled combination rule {rule}")
    total = scores.sum(axis=1)
    empty = total <= 0
    scores = scores / np.where(empty, 1.0, total)[:, None]
    scores[empty] = 1.0 / c
    return np.argmax(scores, axis=1), scores


def combine(distributions, rule: CombinationRule) -> CombineResult:
    """Apply one combination rule to l member distributions of one row.

    The one-row case of combine_stack. Majority voting with fewer members than
    classes is allowed but reported in the warning field.
    """
    try:
        stack = np.asarray(distributions, dtype=np.float64)
    except ValueError:
        raise InputError("member distributions differ in length") from None
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise InputError("need a non-empty list of equal-length distributions")
    l, c = stack.shape
    warning = None
    if rule is CombinationRule.MAJORITY_VOTING and l < c:
        warning = (f"majority voting with {l} members over {c} classes; "
                   "votes cannot cover every class")
    labels, scores = combine_stack(stack[:, None, :], rule)
    return CombineResult(int(labels[0]), scores[0], warning)


@dataclass
class VoteEnsemble:
    """A fixed set of trained members sharing feature and class counts."""

    members: list
    rule: CombinationRule = CombinationRule.AVERAGE_OF_PROBABILITIES

    def __post_init__(self):
        if len(self.members) < 1:
            raise InputError("ensemble needs at least one member")
        c = self.members[0].n_classes
        d = self.members[0].n_features
        for m in self.members[1:]:
            if m.n_classes != c or m.n_features != d:
                raise InputError("ensemble members disagree on feature or class count")

    @property
    def n_classes(self) -> int:
        return self.members[0].n_classes

    @property
    def n_features(self) -> int:
        return self.members[0].n_features


def ensemble_predict(ens: VoteEnsemble, row) -> CombineResult:
    """Each member predicts the row, then the rule combines the distributions."""
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (ens.n_features,):
        raise InputError(f"row has {row.size} values, ensemble expects {ens.n_features}")
    return combine([m.predict(row) for m in ens.members], ens.rule)


def ensemble_predict_batch(ens: VoteEnsemble, rows) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized variant returning (labels, distributions) for many rows."""
    rows = np.asarray(rows, dtype=np.float64)
    return combine_stack(np.stack([m.predict_batch(rows) for m in ens.members]), ens.rule)
