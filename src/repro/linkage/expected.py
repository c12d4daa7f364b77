"""Expected distances between generalized values (paper Section V-C).

When the SMC allowance cannot cover every unknown pair, the selection
heuristics rank class pairs by how close their records are *expected* to
be. Absent any released statistics, the paper assumes original values are
uniformly distributed over their specialization sets and derives:

- categorical (Equations 1–5):
  ``E[d] = 1 - |V ∩ W| / (|V| · |W|)``;
- continuous (Equations 6–8), expected *squared* distance for two uniform
  intervals ``[a1,b1]`` and ``[a2,b2]``::

      E[(V-W)^2] = (a1^2 + b1^2 + a2^2 + b2^2 + a1*b1 + a2*b2) / 3
                   - (a1 + b1) * (a2 + b2) / 2

Heuristics compare scores *across* attributes (``minAvgFirst`` averages
them), so :func:`normalized_expected_distance` maps both families onto a
common [0, 1] scale: categorical scores already live there, continuous
scores are reduced by ``sqrt(E[d^2]) / normFactor``. The paper does not
spell out its normalization; this choice keeps attribute scores
commensurable and is documented in DESIGN.md.

The scalar functions are the reference definitions.
:func:`pairwise_expected_distances` builds a whole ``E[i, j]`` table at
once: Equation 8 as broadcast arithmetic on ``lo``/``hi`` arrays in the
scalar code's float operation order, Equation 5 from value × leaf
membership matrices (:func:`leaf_membership`), whose product counts the
overlaps and whose row sums are the set sizes. Every entry equals the
scalar result bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, Interval
from repro.errors import HierarchyError
from repro.linkage.distances import MatchAttribute
from repro.linkage.slack import as_interval, attribute_slack, interval_bounds


def categorical_expected_distance(
    hierarchy: CategoricalHierarchy, left: str, right: str
) -> float:
    """Equation 5: ``1 - |V ∩ W| / (|V| |W|)`` under uniform assumptions."""
    left_set = hierarchy.leaf_set(left)
    right_set = hierarchy.leaf_set(right)
    overlap = len(left_set & right_set)
    return 1.0 - overlap / (len(left_set) * len(right_set))


def continuous_expected_square_distance(
    left: Interval | float | int, right: Interval | float | int
) -> float:
    """Equation 8: expected squared distance of two uniform intervals.

    Degenerate (point) intervals are handled by the same formula: with
    ``a = b`` the expectation collapses to ``E[(a - W)^2]``.
    """
    left_interval = as_interval(left)
    right_interval = as_interval(right)
    a1, b1 = left_interval.lo, left_interval.hi
    a2, b2 = right_interval.lo, right_interval.hi
    square_terms = (
        a1 * a1 + b1 * b1 + a2 * a2 + b2 * b2 + a1 * b1 + a2 * b2
    ) / 3.0
    cross_term = (a1 + b1) * (a2 + b2) / 2.0
    expected = square_terms - cross_term
    # Guard against tiny negative values from floating-point cancellation
    # when the intervals coincide.
    return max(expected, 0.0)


def normalized_expected_distance(
    attribute: MatchAttribute, left, right
) -> float:
    """Expected distance for one rule attribute on a common [0, 1] scale."""
    if attribute.is_continuous:
        expected_square = continuous_expected_square_distance(left, right)
        domain = attribute.hierarchy.domain_range
        if domain <= 0:  # pragma: no cover - degenerate hierarchy
            raise HierarchyError(
                f"attribute {attribute.name!r} has an empty domain"
            )
        return min(math.sqrt(expected_square) / domain, 1.0)
    hierarchy = attribute.hierarchy
    if isinstance(hierarchy, PrefixHierarchy):
        # Prefix patterns give no distribution over completions; score by
        # the midpoint of the slack bounds, normalized by the maximum
        # possible edit distance (a documented heuristic — the paper's
        # uniformity assumption has no string analogue).
        lower, upper = attribute_slack(attribute, left, right)
        return min((lower + upper) / (2.0 * hierarchy.max_length), 1.0)
    if not isinstance(hierarchy, CategoricalHierarchy):  # pragma: no cover
        raise HierarchyError(f"attribute {attribute.name!r} misconfigured")
    return categorical_expected_distance(hierarchy, left, right)


def expected_distance_vector(
    attributes: tuple[MatchAttribute, ...],
    left_sequence,
    right_sequence,
) -> tuple[float, ...]:
    """Per-attribute normalized expected distances for a class pair."""
    return tuple(
        normalized_expected_distance(attribute, left, right)
        for attribute, left, right in zip(attributes, left_sequence, right_sequence)
    )


def leaf_membership(
    hierarchy: CategoricalHierarchy, values: Sequence[str]
) -> np.ndarray:
    """``M[v, l] = 1`` when leaf ``l`` is in the specialization set of ``values[v]``.

    One ``int64`` row per value, one column per leaf of *hierarchy* (in
    :attr:`~repro.data.vgh.CategoricalHierarchy.leaves` order), so
    ``M_left @ M_right.T`` counts ``|V ∩ W|`` and a row sum is ``|V|``.
    """
    columns = {leaf: column for column, leaf in enumerate(hierarchy.leaves)}
    leaf_sets = [hierarchy.leaf_set(value) for value in values]
    rows = np.repeat(np.arange(len(values)), [len(leaves) for leaves in leaf_sets])
    matrix = np.zeros((len(values), len(columns)), dtype=np.int64)
    matrix[rows, [columns[leaf] for leaves in leaf_sets for leaf in leaves]] = 1
    return matrix


def pairwise_expected_distances(
    attribute: MatchAttribute,
    left_values: Sequence,
    right_values: Sequence,
    memberships: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Dense ``E[i, j]`` table over two distinct-value lists.

    The expected-distance matrix the scoring kernel gathers from (see
    :mod:`repro.linkage.codes`). Entries are exactly the values
    :func:`normalized_expected_distance` returns, so kernel scores are
    bit-identical to per-pair scalar scores. A categorical attribute may
    pass both sides' :func:`leaf_membership` matrices in *memberships*;
    prefix (string) patterns are scored one pair at a time.
    """
    hierarchy = attribute.hierarchy
    if attribute.is_continuous:
        domain = hierarchy.domain_range
        if domain <= 0:  # pragma: no cover - degenerate hierarchy
            raise HierarchyError(
                f"attribute {attribute.name!r} has an empty domain"
            )
        a1, b1 = (bound[:, None] for bound in interval_bounds(left_values))
        a2, b2 = (bound[None, :] for bound in interval_bounds(right_values))
        # The operations of continuous_expected_square_distance, in order.
        square_terms = (
            a1 * a1 + b1 * b1 + a2 * a2 + b2 * b2 + a1 * b1 + a2 * b2
        ) / 3.0
        expected = square_terms - (a1 + b1) * (a2 + b2) / 2.0
        # np.where keeps max()/min()'s choice of operand on ties.
        distance = np.sqrt(np.where(0.0 > expected, 0.0, expected)) / domain
        return np.where(1.0 < distance, 1.0, distance)
    if isinstance(hierarchy, CategoricalHierarchy):
        if memberships is None:
            memberships = (
                leaf_membership(hierarchy, left_values),
                leaf_membership(hierarchy, right_values),
            )
        left, right = memberships
        sizes = np.multiply.outer(left.sum(axis=1), right.sum(axis=1))
        return 1.0 - (left @ right.T) / sizes
    matrix = np.empty((len(left_values), len(right_values)), dtype=np.float64)
    for row, left in enumerate(left_values):
        for column, right in enumerate(right_values):
            matrix[row, column] = normalized_expected_distance(
                attribute, left, right
            )
    return matrix
