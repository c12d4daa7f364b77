"""Ground-truth match oracle over the raw relations.

Evaluation needs the exact set of record pairs satisfying the decision
rule ``dr`` — both the paper's planted matches (the shared partition d3)
and any coincidental matches the thresholds admit. Materializing
|D1 x D2| pairs is infeasible at paper scale (404 million), so the oracle
groups records:

- categorical rule attributes with ``theta < 1`` require exact equality and
  become a hash key (attributes with ``theta >= 1`` never constrain and are
  ignored); string attributes with ``theta < 1`` likewise (edit distance 0
  is equality);
- the first continuous attribute narrows each key group to a sorted-array
  window (O(n log n) overall), widened by a few ulps so rounding in the
  window's bounds never drops a pair;
- every continuous attribute, the first included, is then tested exactly
  as the rule and every oracle test it, ``abs(l - r) <= t``, per
  candidate, as are string attributes with a real edit budget.

The same machinery also counts matches inside arbitrary index subsets,
which the hybrid pipeline uses to score SMC-step coverage of a class pair
without enumerating every record pair.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence

from repro.data.schema import Relation
from repro.linkage.distances import MatchRule


class GroundTruth:
    """Precomputed index over *right* for repeated match queries."""

    def __init__(self, rule: MatchRule, left: Relation, right: Relation):
        self.rule = rule
        self.left = left
        self.right = right
        self._key_positions: list[int] = []
        self._window_positions: list[int] = []
        self._window_thresholds: list[float] = []
        self._predicates: list[tuple] = []
        for attribute in rule:
            position = right.schema.position(attribute.name)
            if attribute.is_continuous:
                self._window_positions.append(position)
                self._window_thresholds.append(attribute.effective_threshold)
            elif attribute.is_string and attribute.threshold >= 1:
                # Edit distance with a real budget: verified per candidate.
                self._predicates.append((attribute, position))
            elif attribute.threshold < 1:
                self._key_positions.append(position)

    # -- indexing ----------------------------------------------------------

    def _key(self, record) -> tuple:
        return tuple(record[position] for position in self._key_positions)

    def _build_index(self, right_indices: Sequence[int] | None) -> dict:
        """Key -> (sorted primary window values, aligned right indices)."""
        if right_indices is None:
            right_indices = range(len(self.right))
        index: dict[tuple, list[tuple[float, int]]] = {}
        primary = self._window_positions[0] if self._window_positions else None
        for right_index in right_indices:
            record = self.right[right_index]
            value = record[primary] if primary is not None else 0.0
            index.setdefault(self._key(record), []).append((value, right_index))
        for entries in index.values():
            entries.sort()
        return index

    # -- queries -----------------------------------------------------------

    def count_matches(
        self,
        left_indices: Sequence[int] | None = None,
        right_indices: Sequence[int] | None = None,
    ) -> int:
        """Number of matching pairs within the given index subsets."""
        count = 0
        for _ in self.iter_matches(left_indices, right_indices):
            count += 1
        return count

    def iter_matches(
        self,
        left_indices: Sequence[int] | None = None,
        right_indices: Sequence[int] | None = None,
    ) -> Iterator[tuple[int, int]]:
        """Yield matching (left_index, right_index) pairs."""
        index = self._build_index(right_indices)
        if left_indices is None:
            left_indices = range(len(self.left))
        primary_threshold = (
            self._window_thresholds[0] if self._window_positions else None
        )
        continuous = list(zip(self._window_positions, self._window_thresholds))
        predicates = self._predicates
        for left_index in left_indices:
            record = self.left[left_index]
            entries = index.get(self._key(record))
            if not entries:
                continue
            if primary_threshold is None:
                candidates = entries
            else:
                value = record[self._window_positions[0]]
                # ``value ± threshold`` rounds, and so does ``l - r`` in the
                # exact test below; the margin keeps every pair that test
                # admits inside the window.
                reach = primary_threshold + 8 * math.ulp(
                    abs(value) + primary_threshold
                )
                lo = bisect_left(entries, (value - reach, -1))
                hi = bisect_right(entries, (value + reach, len(self.right)))
                candidates = entries[lo:hi]
            for _, right_index in candidates:
                right_record = self.right[right_index]
                if self._continuous_ok(record, right_record, continuous) and (
                    self._predicates_ok(record, right_record, predicates)
                ):
                    yield left_index, right_index

    @staticmethod
    def _continuous_ok(left_record, right_record, continuous) -> bool:
        for position, threshold in continuous:
            if abs(left_record[position] - right_record[position]) > threshold:
                return False
        return True

    @staticmethod
    def _predicates_ok(left_record, right_record, predicates) -> bool:
        for attribute, position in predicates:
            if not attribute.within_threshold(
                left_record[position], right_record[position]
            ):
                return False
        return True

    def total_matches(self) -> int:
        """|{(r, s) : dr(r, s)}| over the full cross product."""
        return self.count_matches(None, None)


def count_true_matches(rule: MatchRule, left: Relation, right: Relation) -> int:
    """Convenience wrapper: total true matches between two relations."""
    return GroundTruth(rule, left, right).total_matches()
