"""Slack distances and the slack decision rule (paper Section IV).

Generalized values are imprecise but accurate: the original value is known
to lie in the generalized value's *specialization set*. The infimum
(``sdl``) and supremum (``sds``) of the attribute distance over the two
specialization sets bound the true distance, so:

- if ``sdl > theta_i`` for any attribute, the pair certainly mismatches
  (label ``N``);
- if ``sds <= theta_i`` for every attribute, the pair certainly matches
  (label ``M``);
- otherwise the pair is ``U`` (unknown) and goes to the SMC step.

Both directions are *sound* with respect to the exact rule ``dr``, which is
why the hybrid method never produces a false positive (Section IV: "the
most important difference is that anonymized data is not dirty but
imprecise, which is the reason why precision is 100%").

Generalized value encodings:

- categorical: a VGH node name (a leaf for ungeneralized values);
- continuous: an :class:`~repro.data.vgh.Interval`, or a raw number for
  ungeneralized values (treated as a point interval).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.data.strings import PrefixHierarchy, pattern_prefix
from repro.data.vgh import CategoricalHierarchy, Interval
from repro.errors import HierarchyError
from repro.linkage.distances import MatchAttribute, MatchRule


class Label(enum.Enum):
    """The three labels of the slack decision rule."""

    MATCH = "M"
    NONMATCH = "N"
    UNKNOWN = "U"


def as_interval(value: Interval | float | int) -> Interval:
    """Normalize a continuous generalized value to an :class:`Interval`."""
    if isinstance(value, Interval):
        return value
    return Interval.point(float(value))


def interval_bounds(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` ``float64`` arrays of continuous generalized *values*."""
    intervals = [as_interval(value) for value in values]
    return (
        np.array([interval.lo for interval in intervals], dtype=np.float64),
        np.array([interval.hi for interval in intervals], dtype=np.float64),
    )


def categorical_slack(
    hierarchy: CategoricalHierarchy, left: str, right: str
) -> tuple[float, float]:
    """``(sdl, sds)`` of the Hamming distance between two VGH nodes.

    The infimum is 0 exactly when the specialization sets intersect (some
    common original value is possible); the supremum is 0 exactly when both
    sets are the same singleton (the values are certainly equal).
    """
    left_set = hierarchy.leaf_set(left)
    right_set = hierarchy.leaf_set(right)
    if left_set.isdisjoint(right_set):
        return 1.0, 1.0
    infimum = 0.0
    if len(left_set) == 1 and left_set == right_set:
        return infimum, 0.0
    return infimum, 1.0


def continuous_slack(
    left: Interval | float | int, right: Interval | float | int
) -> tuple[float, float]:
    """``(sdl, sds)`` of the Euclidean distance between two intervals."""
    left_interval = as_interval(left)
    right_interval = as_interval(right)
    return (
        left_interval.min_distance(right_interval),
        left_interval.max_distance(right_interval),
    )


def attribute_slack(
    attribute: MatchAttribute, left, right
) -> tuple[float, float]:
    """``(sdl, sds)`` for one rule attribute, on the raw distance scale."""
    if attribute.is_continuous:
        return continuous_slack(left, right)
    hierarchy = attribute.hierarchy
    if isinstance(hierarchy, PrefixHierarchy):
        max_length = hierarchy.max_length
        return prefix_edit_slack(
            left,
            right,
            left_suffix=max_length - len(pattern_prefix(left)),
            right_suffix=max_length - len(pattern_prefix(right)),
        )
    if not isinstance(hierarchy, CategoricalHierarchy):  # pragma: no cover
        raise HierarchyError(f"attribute {attribute.name!r} misconfigured")
    return categorical_slack(hierarchy, left, right)


def slack_decision(
    rule: MatchRule,
    left_sequence: Sequence,
    right_sequence: Sequence,
) -> Label:
    """The slack decision rule ``sdr`` over two generalization sequences.

    *left_sequence* and *right_sequence* hold generalized values aligned
    with ``rule.attributes``. Short-circuits on the first attribute that
    certainly mismatches.
    """
    certain_match = True
    for attribute, left, right in zip(rule.attributes, left_sequence, right_sequence):
        threshold = attribute.effective_threshold
        infimum, supremum = attribute_slack(attribute, left, right)
        if infimum > threshold:
            return Label.NONMATCH
        if supremum > threshold:
            certain_match = False
    return Label.MATCH if certain_match else Label.UNKNOWN


# ---------------------------------------------------------------------------
# Future-work extension (paper Section VIII): alphanumeric attributes.
#
# The paper leaves string attributes as future work, noting two challenges:
# richer distance functions (edit distance) and a choice of generalization
# mechanisms. We implement the natural prefix-generalization mechanism:
# a string generalizes to a prefix pattern ``"abc*"`` whose specialization
# set is every string extending that prefix. Edit-distance slack bounds for
# prefix patterns follow from prefix alignment.
# ---------------------------------------------------------------------------


def prefix_edit_slack(
    left: str,
    right: str,
    *,
    max_suffix: int = 64,
    left_suffix: int | None = None,
    right_suffix: int | None = None,
) -> tuple[float, float]:
    """``(sdl, sds)`` of edit distance between two prefix patterns.

    A pattern either ends in ``'*'`` (any completion of the prefix, with a
    bounded number of extra characters — *left_suffix*/*right_suffix*,
    defaulting to *max_suffix*) or is a concrete string. The lower bound is
    the edit distance between the prefixes minus the slack the wildcards
    could absorb; the upper bound assumes maximally divergent completions.
    Bounds are conservative (lower <= true <= upper), which is all the
    slack rule needs for soundness.
    """
    from repro.linkage.distances import edit_distance

    left_prefix, left_open = _split_pattern(left)
    right_prefix, right_open = _split_pattern(right)
    left_budget = (left_suffix if left_suffix is not None else max_suffix) if left_open else 0
    right_budget = (right_suffix if right_suffix is not None else max_suffix) if right_open else 0
    base = edit_distance(left_prefix, right_prefix)
    if not left_open and not right_open:
        return float(base), float(base)
    # Lower bound. Any alignment of p1+s1 against p2+s2 reaches a point
    # where one prefix is fully consumed; the cost paid by then is an
    # entry of the last row (p1 exhausted) or last column (p2 exhausted)
    # of the p1-vs-p2 edit DP table, and the remainder costs >= 0. The
    # minimum over that frontier therefore soundly bounds the distance
    # from below — and it is tight whenever the suffix budgets can
    # realize the witnessing completion.
    table = _edit_table(left_prefix, right_prefix)
    frontier = min(min(table[-1]), min(row[-1] for row in table))
    # A second bound from lengths: each side's length ranges over
    # [len(prefix), len(prefix) + budget]; edit distance is at least the
    # gap between those ranges.
    left_reach = len(left_prefix) + left_budget
    right_reach = len(right_prefix) + right_budget
    length_gap = max(
        len(left_prefix) - right_reach,
        len(right_prefix) - left_reach,
        0,
    )
    lower = max(frontier, length_gap, 0)
    # Upper bound: maximally divergent completions.
    upper = base + left_budget + right_budget
    return float(lower), float(upper)


def _edit_table(left: str, right: str) -> list[list[int]]:
    """The full Levenshtein DP table of *left* vs *right*."""
    rows = len(left) + 1
    columns = len(right) + 1
    table = [[0] * columns for _ in range(rows)]
    for row in range(rows):
        table[row][0] = row
    for column in range(columns):
        table[0][column] = column
    for row in range(1, rows):
        for column in range(1, columns):
            substitution = table[row - 1][column - 1] + (
                left[row - 1] != right[column - 1]
            )
            table[row][column] = min(
                substitution,
                table[row - 1][column] + 1,
                table[row][column - 1] + 1,
            )
    return table


def _split_pattern(pattern: str) -> tuple[str, bool]:
    if pattern.endswith("*"):
        return pattern[:-1], True
    return pattern, False
