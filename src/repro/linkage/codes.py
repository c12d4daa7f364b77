"""Integer-code tables behind the blocking and scoring kernels.

The distinct generalized values of each side are enumerated into integer
*codes*, the per-attribute decision tables become dense matrices indexed
by ``[left_code, right_code]``, and whole class-pair cross products
evaluate as fancy-indexed gathers plus boolean reductions instead of a
Python loop over class pairs.

Two matrices exist per rule attribute, built lazily because different
consumers need different ones:

- the *verdict matrix* ``V_a`` with entries in ``{0, 1, 2}`` (undecided /
  certain non-match / certainly within threshold) — drives the blocking
  kernel;
- the *expected-distance matrix* ``E_a`` of normalized expected distances
  — drives the selection heuristics and the learned leftover classifier.

Matrix sizes are ``|distinct left values| x |distinct right values|`` per
attribute, which is tiny next to the number of class pairs. Every entry
comes from the scalar :func:`~repro.linkage.slack.attribute_slack` /
:func:`~repro.linkage.expected.normalized_expected_distance` rules (or a
broadcast that reproduces them bit for bit), so each decision and score
equals the per-pair scalar computation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.anonymize.base import EquivalenceClass, GeneralizedRelation
from repro.errors import ConfigurationError
from repro.linkage.distances import MatchRule
from repro.linkage.expected import pairwise_expected_distances
from repro.linkage.slack import as_interval, attribute_slack


def _continuous_verdicts(
    left_values: Sequence, right_values: Sequence, threshold: float
) -> np.ndarray:
    """Vectorized verdict matrix for a continuous attribute.

    Broadcasts :meth:`Interval.min_distance` / :meth:`Interval.max_distance`
    (including the point-on-closed-boundary overlap rule) over the distinct
    value grid. All arithmetic is float64 subtraction/maximum, so every
    entry is bit-identical to the scalar :func:`continuous_slack` path.
    """
    left_intervals = [as_interval(value) for value in left_values]
    right_intervals = [as_interval(value) for value in right_values]
    l_lo = np.array([i.lo for i in left_intervals], dtype=np.float64)[:, None]
    l_hi = np.array([i.hi for i in left_intervals], dtype=np.float64)[:, None]
    r_lo = np.array([i.lo for i in right_intervals], dtype=np.float64)[None, :]
    r_hi = np.array([i.hi for i in right_intervals], dtype=np.float64)[None, :]
    l_point = l_lo == l_hi
    r_point = r_lo == r_hi
    lo = np.maximum(l_lo, r_lo)
    hi = np.minimum(l_hi, r_hi)
    # Interval.overlaps: open interiors intersect, or a point interval sits
    # on a value the other side actually contains (closed lower end).
    right_contains_l_lo = np.where(
        r_point, l_lo == r_lo, (r_lo <= l_lo) & (l_lo < r_hi)
    )
    left_contains_r_lo = np.where(
        l_point, r_lo == l_lo, (l_lo <= r_lo) & (r_lo < l_hi)
    )
    touching = (lo == hi) & (
        (l_point & right_contains_l_lo) | (r_point & left_contains_r_lo)
    )
    overlap = (lo < hi) | touching
    infimum = np.where(
        overlap, 0.0, np.maximum(np.maximum(l_lo - r_hi, r_lo - l_hi), 0.0)
    )
    supremum = np.maximum(np.maximum(l_hi - r_lo, r_hi - l_lo), 0.0)
    verdicts = np.where(
        infimum > threshold, 1, np.where(supremum <= threshold, 2, 0)
    )
    return verdicts.astype(np.uint8)


def _encode_column(
    classes: Sequence[EquivalenceClass], position: int
) -> tuple[np.ndarray, list]:
    """Integer codes (first-seen order) for one attribute of *classes*.

    Returns ``(codes, values)`` where ``codes[i]`` indexes into ``values``,
    the list of distinct generalized values at sequence *position*.
    """
    mapping: dict = {}
    codes = np.empty(len(classes), dtype=np.intp)
    values: list = []
    for index, eq_class in enumerate(classes):
        value = eq_class.sequence[position]
        code = mapping.get(value)
        if code is None:
            code = len(values)
            mapping[value] = code
            values.append(value)
        codes[index] = code
    return codes, values


def _class_ids(classes: Sequence) -> np.ndarray:
    return np.array(
        [
            getattr(eq_class, "class_id", position)
            for position, eq_class in enumerate(classes)
        ],
        dtype=np.int64,
    )


class CodeTables:
    """Shared integer encodings for one ``(rule, left, right)`` triple.

    *left* and *right* need only ``.qids`` and ``.classes`` whose classes
    carry ``.sequence`` and ``.size``: a
    :class:`~repro.anonymize.base.GeneralizedRelation` or a published
    view (:class:`repro.protocol.PublishedView`) alike.

    ``left_codes[a]`` / ``right_codes[a]`` map class index to value code
    for rule attribute ``a``; :meth:`verdict_matrix` and
    :meth:`expected_matrix` expose the dense per-attribute decision tables.
    ``left_ids`` / ``right_ids`` map class index to class id: a published
    class's ``class_id``, or the index itself for a relation's classes.
    """

    def __init__(
        self,
        rule: MatchRule,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ):
        self.rule = rule
        self.left = left
        self.right = right
        left_positions = [left.qids.index(name) for name in rule.names]
        right_positions = [right.qids.index(name) for name in rule.names]
        self.left_codes: list[np.ndarray] = []
        self.right_codes: list[np.ndarray] = []
        self._left_values: list[list] = []
        self._right_values: list[list] = []
        for attr_position in range(len(rule)):
            codes, values = _encode_column(
                left.classes, left_positions[attr_position]
            )
            self.left_codes.append(codes)
            self._left_values.append(values)
            codes, values = _encode_column(
                right.classes, right_positions[attr_position]
            )
            self.right_codes.append(codes)
            self._right_values.append(values)
        self.left_sizes = np.array(
            [eq_class.size for eq_class in left.classes], dtype=np.int64
        )
        self.right_sizes = np.array(
            [eq_class.size for eq_class in right.classes], dtype=np.int64
        )
        self.left_ids = _class_ids(left.classes)
        self.right_ids = _class_ids(right.classes)
        self._verdicts: list[np.ndarray | None] = [None] * len(rule)
        self._expected: list[np.ndarray | None] = [None] * len(rule)
        self._left_index: dict[EquivalenceClass, int] | None = None
        self._right_index: dict[EquivalenceClass, int] | None = None

    def verdict_matrix(self, attr_position: int) -> np.ndarray:
        """``V_a[left_code, right_code] in {0, 1, 2}`` for one attribute.

        0 = undecided, 1 = certain non-match, 2 = certainly within
        threshold.
        """
        matrix = self._verdicts[attr_position]
        if matrix is None:
            attribute = self.rule.attributes[attr_position]
            threshold = attribute.effective_threshold
            left_values = self._left_values[attr_position]
            right_values = self._right_values[attr_position]
            if attribute.is_continuous:
                matrix = _continuous_verdicts(
                    left_values, right_values, threshold
                )
                self._verdicts[attr_position] = matrix
                return matrix
            matrix = np.empty(
                (len(left_values), len(right_values)), dtype=np.uint8
            )
            for row, left_value in enumerate(left_values):
                for column, right_value in enumerate(right_values):
                    infimum, supremum = attribute_slack(
                        attribute, left_value, right_value
                    )
                    if infimum > threshold:
                        matrix[row, column] = 1
                    elif supremum <= threshold:
                        matrix[row, column] = 2
                    else:
                        matrix[row, column] = 0
            self._verdicts[attr_position] = matrix
        return matrix

    def expected_matrix(self, attr_position: int) -> np.ndarray:
        """``E_a[left_code, right_code]`` normalized expected distances."""
        matrix = self._expected[attr_position]
        if matrix is None:
            matrix = pairwise_expected_distances(
                self.rule.attributes[attr_position],
                self._left_values[attr_position],
                self._right_values[attr_position],
            )
            self._expected[attr_position] = matrix
        return matrix

    def pair_positions(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Class indices ``(left_idx, right_idx)`` for a ClassPair sequence.

        Raises :class:`ConfigurationError` when some pair references a
        class that is not part of the relations these tables were built
        from.
        """
        if self._left_index is None:
            self._left_index = {
                eq_class: index for index, eq_class in enumerate(self.left.classes)
            }
            self._right_index = {
                eq_class: index
                for index, eq_class in enumerate(self.right.classes)
            }
        left_idx = np.empty(len(pairs), dtype=np.intp)
        right_idx = np.empty(len(pairs), dtype=np.intp)
        for position, pair in enumerate(pairs):
            left_position = self._left_index.get(pair.left)
            right_position = self._right_index.get(pair.right)
            if left_position is None or right_position is None:
                raise ConfigurationError(
                    f"class pair {pair.describe()} names a class outside "
                    "the given relations"
                )
            left_idx[position] = left_position
            right_idx[position] = right_position
        return left_idx, right_idx

    def expected_for_pairs(
        self, left_idx: np.ndarray, right_idx: np.ndarray
    ) -> np.ndarray:
        """Expected-distance matrix of shape ``(len(pairs), len(rule))``.

        Row ``n`` is the per-attribute expected-distance vector of the
        class pair ``(left_idx[n], right_idx[n])``.
        """
        columns = [
            self.expected_matrix(attr_position)[
                self.left_codes[attr_position][left_idx],
                self.right_codes[attr_position][right_idx],
            ]
            for attr_position in range(len(self.rule))
        ]
        return np.stack(columns, axis=1)
