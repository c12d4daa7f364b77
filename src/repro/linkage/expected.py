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
"""

from __future__ import annotations

import math

from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, Interval
from repro.errors import HierarchyError
from repro.linkage.distances import MatchAttribute
from repro.linkage.slack import as_interval, attribute_slack


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


def pairwise_expected_distances(attribute: MatchAttribute, left_values, right_values):
    """Dense ``E[i, j]`` table over two distinct-value lists.

    The expected-distance matrix the scoring kernel gathers from (see
    :mod:`repro.linkage.codes`). Entries are exactly the values
    :func:`normalized_expected_distance` returns, so kernel scores are
    bit-identical to per-pair scalar scores.
    """
    import numpy as np

    matrix = np.empty((len(left_values), len(right_values)), dtype=np.float64)
    for row, left in enumerate(left_values):
        for column, right in enumerate(right_values):
            matrix[row, column] = normalized_expected_distance(
                attribute, left, right
            )
    return matrix
