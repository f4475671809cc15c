"""Combine per-classifier class distributions into one decision.

Five combination rules are supported; the default pipeline uses the average
of probabilities. A VoteEnsemble's members are DecisionTree and Forest
models; it stacks all their trees once, when it is built, and classifies a
batch in one walk over them (trees.TreeStack). ensemble_predict classifies
one row as a batch of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .trees import TreeStack


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


@dataclass(frozen=True)
class VoteEnsemble:
    """A fixed set of trained trees and forests sharing feature and class
    counts. Their node arrays are copied into one TreeStack when the
    ensemble is built; later changes to a member do not reach it."""

    members: list
    rule: CombinationRule = CombinationRule.AVERAGE_OF_PROBABILITIES
    stack: TreeStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.members) < 1:
            raise InputError("ensemble needs at least one member")
        object.__setattr__(self, "stack", TreeStack.of(self.members))

    @property
    def n_classes(self) -> int:
        return self.stack.n_classes

    @property
    def n_features(self) -> int:
        return self.stack.n_features


def ensemble_predict(ens: VoteEnsemble, row) -> CombineResult:
    """The members' distributions of one row, walked as a batch of one, then
    combined by the rule."""
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (ens.n_features,):
        raise InputError(f"row has {row.size} values, ensemble expects {ens.n_features}")
    return combine(ens.stack.predict(row[None])[:, 0], ens.rule)


def ensemble_predict_batch(ens: VoteEnsemble, rows) -> tuple[np.ndarray, np.ndarray]:
    """(labels, distributions) for many rows: one walk over every member's
    trees, then the rule over the (members, rows, classes) stack."""
    return combine_stack(ens.stack.predict(rows), ens.rule)
