"""Ground-truth match oracle over the raw relations.

Evaluation needs the exact set of record pairs satisfying the decision
rule ``dr``: the paper's planted matches (the shared partition d3) and any
coincidental matches the thresholds admit. The 404 million pairs of the
paper's scale are never materialized: every query (the cross product,
index subsets, or a batch of class pairs) becomes full-take budget leases
answered by the counting oracle's sort-join, the SMC step's own kernel,
which forms only pairs agreeing on every constraining categorical
attribute and tests those as the rule does.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.crypto.smc.oracle import CountingPlaintextOracle
from repro.data.schema import Relation
from repro.errors import ConfigurationError
from repro.linkage.columns import BlockLease, RecordColumns
from repro.linkage.distances import MatchRule

#: A lease compares at most this many left rows with its block's right rows.
_LEASE_ROWS = 1 << 10

#: Leased pairs per ``compare_block`` call (a call ends with the lease that
#: reaches it), so memory holds one call's matches at most.
_CALL_PAIRS = 1 << 22


class GroundTruth:
    """Exact match queries between two relations.

    Building one encodes both relations and its first
    :meth:`total_matches` counts every match, so callers evaluating
    several runs over the same pair share one (:func:`ground_truth_for`).
    """

    def __init__(self, rule: MatchRule, left: Relation, right: Relation):
        self.rule = rule
        self.left = left
        self.right = right
        self._oracle = CountingPlaintextOracle(rule, left.schema)
        self._columns = (
            RecordColumns.from_relation(left, rule.names),
            RecordColumns.from_relation(right, rule.names),
        )
        self._total: int | None = None

    def count_block_matches(self, blocks: Iterable[tuple]) -> int:
        """Number of matching pairs over all of *blocks*, ``(left indices,
        right indices)`` pairs such as a batch of class pairs."""
        return sum(len(offsets) for _, offsets in self._leased(blocks))

    def count_matches(
        self,
        left_indices: Sequence[int] | None = None,
        right_indices: Sequence[int] | None = None,
    ) -> int:
        """Number of matching pairs within the given index subsets."""
        return self.count_block_matches([self._block(left_indices, right_indices)])

    def iter_matches(
        self,
        left_indices: Sequence[int] | None = None,
        right_indices: Sequence[int] | None = None,
    ) -> Iterator[tuple[int, int]]:
        """Yield matching (left_index, right_index) pairs, row-major."""
        for lease, offsets in self._leased([self._block(left_indices, right_indices)]):
            yield from zip(
                lease.left_rows[offsets[:, 0]].tolist(),
                lease.right_rows[offsets[:, 1]].tolist(),
            )

    def match_codes(self) -> np.ndarray:
        """Every match ``(l, r)`` as one ``int64`` ``l * |right| + r``, ascending."""
        width = len(self.right)
        codes = [np.empty(0, dtype=np.int64)]
        for lease, offsets in self._leased([self._block(None, None)]):
            codes.append(
                lease.left_rows[offsets[:, 0]] * width + lease.right_rows[offsets[:, 1]]
            )
        return np.concatenate(codes)

    def total_matches(self) -> int:
        """|{(r, s) : dr(r, s)}| over the full cross product (counted once)."""
        if self._total is None:
            self._total = self.count_matches()
        return self._total

    def _block(self, left_indices, right_indices) -> tuple:
        """The block of a query; ``None`` stands for every record."""
        return (
            np.arange(len(self.left)) if left_indices is None else left_indices,
            np.arange(len(self.right)) if right_indices is None else right_indices,
        )

    def _leased(self, blocks: Iterable[tuple]) -> Iterator[tuple]:
        """Each lease covering *blocks*, with its ``(m, 2)`` matched offsets."""
        for leases in _batches(blocks):
            yield from zip(leases, self._oracle.compare_block(*self._columns, leases))


def ground_truth_for(
    rule: MatchRule,
    left: Relation,
    right: Relation,
    ground_truth: GroundTruth | None = None,
) -> GroundTruth:
    """*ground_truth* when given, which must answer for *rule* over *left*
    and *right* (:class:`ConfigurationError` otherwise); else a new one."""
    if ground_truth is None:
        return GroundTruth(rule, left, right)
    if (
        ground_truth.left is not left
        or ground_truth.right is not right
        or ground_truth.rule.attributes != rule.attributes
    ):
        raise ConfigurationError(
            "the ground truth was built for another rule or other relations"
        )
    return ground_truth


def _batches(blocks: Iterable[tuple]) -> Iterator[list[BlockLease]]:
    """Full-take leases covering *blocks*, one ``compare_block`` call at a time."""
    leases: list[BlockLease] = []
    pairs = 0
    for left_indices, right_indices in blocks:
        left_rows = np.asarray(left_indices, dtype=np.int64)
        right_rows = np.asarray(right_indices, dtype=np.int64)
        if not len(right_rows):
            continue
        for start in range(0, len(left_rows), _LEASE_ROWS):
            rows = left_rows[start : start + _LEASE_ROWS]
            leases.append(BlockLease(rows, right_rows, len(rows) * len(right_rows)))
            pairs += leases[-1].take
            if pairs >= _CALL_PAIRS:
                yield leases
                leases, pairs = [], 0
    if leases:
        yield leases
