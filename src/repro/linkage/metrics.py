"""Evaluation of linkage results against ground truth.

The paper's measures (Section VI):

- **precision** — always 100% for the hybrid method with strategy 1, since
  blocking-M decisions are sound and SMC answers are exact; strategies 2
  and 3 claim unverified pairs, and this module prices those claims;
- **recall** — "the percentage of record pairs correctly labeled as match
  among all pairs satisfying the decision rule";
- **blocking efficiency** — fraction of record pairs permanently decided
  in the blocking step (carried on the result object itself).

Verification of claimed leftover class pairs never enumerates record
pairs: the ground-truth oracle counts matches inside the claimed class
pairs, and the SMC step's observed matches within its compared prefix are
subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.schema import Relation
from repro.linkage.distances import MatchRule
from repro.linkage.ground_truth import GroundTruth, ground_truth_for
from repro.linkage.hybrid import LinkageResult


@dataclass(frozen=True)
class Evaluation:
    """Precision/recall accounting for one linkage run."""

    true_matches: int
    verified_matches: int
    claimed_pairs: int
    claimed_true_matches: int

    @property
    def reported_pairs(self) -> int:
        """Pairs reported as matches (verified plus claimed)."""
        return self.verified_matches + self.claimed_pairs

    @property
    def true_positives(self) -> int:
        """Reported pairs that really match."""
        return self.verified_matches + self.claimed_true_matches

    @property
    def precision(self) -> float:
        """TP / reported; 1.0 when nothing is reported."""
        if self.reported_pairs == 0:
            return 1.0
        return self.true_positives / self.reported_pairs

    @property
    def recall(self) -> float:
        """TP / true matches; 1.0 when there is nothing to find."""
        if self.true_matches == 0:
            return 1.0
        return self.true_positives / self.true_matches

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        denominator = self.precision + self.recall
        if denominator == 0:
            return 0.0
        return 2 * self.precision * self.recall / denominator

    def summary(self) -> str:
        """One-line report."""
        return (
            f"precision={self.precision:.2%} recall={self.recall:.2%} "
            f"(true={self.true_matches}, verified={self.verified_matches}, "
            f"claimed={self.claimed_pairs})"
        )


def evaluate(
    result: LinkageResult,
    rule: MatchRule,
    left: Relation,
    right: Relation,
    ground_truth: GroundTruth | None = None,
) -> Evaluation:
    """Score *result* against exact ground truth.

    Verified matches (blocking-M and SMC hits) are true by construction —
    an invariant the test suite checks independently — so only claimed
    leftover class pairs need ground-truth counting. Pass *ground_truth*
    for *rule* over *left* and *right* to reuse one across evaluations.
    """
    ground_truth = ground_truth_for(rule, left, right, ground_truth)
    tables = result.blocking.tables
    left_rows, right_rows = tables.left.class_rows, tables.right.class_rows
    claimed_true = ground_truth.count_block_matches(
        (left_rows.of(i), right_rows.of(j)) for i, j in result.claimed.tolist()
    )
    claimed_true -= result.claimed_partial()[1]
    return Evaluation(
        true_matches=ground_truth.total_matches(),
        verified_matches=result.verified_match_pairs,
        claimed_pairs=result.claimed_pairs,
        claimed_true_matches=claimed_true,
    )
