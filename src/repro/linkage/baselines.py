"""The two baseline families the paper positions itself against.

- **Pure cryptographic linkage** (Section I: "attains both privacy and
  high accuracy under heavy communication and computation costs"): every
  record pair goes through the SMC protocol. Perfect precision and recall;
  cost is |D1 x D2| invocations — the yardstick for the hybrid method's
  savings.
- **Pure sanitization linkage** ("achieves privacy by perturbing sensitive
  data at the expense of degrading matching accuracy"): only the
  anonymized views are available and *every* pair must be labeled from
  them. Certain pairs are labeled by the slack rule; undecidable pairs are
  guessed from the anonymized data alone by comparing class
  representatives (interval midpoints, generalized node equality) — the
  natural thing to do with sanitized data, and exactly where its accuracy
  collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anonymize.base import GeneralizedRelation
from repro.data.schema import Relation
from repro.data.vgh import CategoricalHierarchy
from repro.linkage.blocking import block
from repro.linkage.distances import MatchRule
from repro.linkage.ground_truth import GroundTruth, ground_truth_for
from repro.linkage.metrics import Evaluation
from repro.linkage.slack import as_interval


@dataclass(frozen=True)
class BaselineOutcome:
    """Result of a baseline linkage run."""

    name: str
    evaluation: Evaluation
    smc_invocations: int

    def summary(self) -> str:
        """One-line report."""
        return (
            f"{self.name}: {self.evaluation.summary()}, "
            f"SMC invocations={self.smc_invocations}"
        )


def pure_smc_linkage(
    rule: MatchRule,
    left: Relation,
    right: Relation,
    ground_truth: GroundTruth | None = None,
) -> BaselineOutcome:
    """The cryptographic baseline: SMC over the full cross product.

    Exact by construction, so the evaluation is computed analytically (all
    true matches verified) while the invoice charges every pair.
    *ground_truth* may pass one already built for *rule*, *left* and
    *right*.
    """
    true_matches = ground_truth_for(rule, left, right, ground_truth).total_matches()
    evaluation = Evaluation(
        true_matches=true_matches,
        verified_matches=true_matches,
        claimed_pairs=0,
        claimed_true_matches=0,
    )
    return BaselineOutcome(
        name="pure-SMC",
        evaluation=evaluation,
        smc_invocations=len(left) * len(right),
    )


def pure_sanitization_linkage(
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    ground_truth: GroundTruth | None = None,
) -> BaselineOutcome:
    """The sanitization baseline: label every pair from anonymized data.

    Slack-decidable pairs keep their (sound) labels. Undecidable class
    pairs are guessed by comparing representatives: interval midpoints for
    continuous attributes, node equality for categorical ones. Guessed
    matches can be false positives — this is the accuracy the paper's
    hybrid method recovers. *ground_truth* may pass one already built for
    *rule* over the two sources.
    """
    blocking = block(rule, left, right)
    ground_truth = ground_truth_for(rule, left.source, right.source, ground_truth)
    left_positions = [left.qids.index(name) for name in rule.names]
    right_positions = [right.qids.index(name) for name in rule.names]
    claimed = [
        (i, j)
        for i, j in blocking.unknown.tolist()
        if _representatives_match(
            rule, left.classes[i], right.classes[j], left_positions, right_positions
        )
    ]
    evaluation = Evaluation(
        true_matches=ground_truth.total_matches(),
        verified_matches=blocking.matched_pairs,
        claimed_pairs=sum(
            left.classes[i].size * right.classes[j].size for i, j in claimed
        ),
        claimed_true_matches=ground_truth.count_block_matches(
            (left.class_rows.of(i), right.class_rows.of(j)) for i, j in claimed
        ),
    )
    return BaselineOutcome(
        name="pure-sanitization",
        evaluation=evaluation,
        smc_invocations=0,
    )


def _representatives_match(
    rule: MatchRule, left_class, right_class, left_positions, right_positions
) -> bool:
    """Compare class representatives attribute by attribute."""
    for attribute, left_position, right_position in zip(
        rule, left_positions, right_positions
    ):
        left_value = left_class.sequence[left_position]
        right_value = right_class.sequence[right_position]
        if attribute.is_continuous:
            left_mid = as_interval(left_value).midpoint
            right_mid = as_interval(right_value).midpoint
            if abs(left_mid - right_mid) > attribute.effective_threshold:
                return False
        else:
            hierarchy = attribute.hierarchy
            assert isinstance(hierarchy, CategoricalHierarchy)
            if attribute.threshold < 1:
                # Representatives agree when the generalized nodes overlap.
                left_set = hierarchy.leaf_set(left_value)
                right_set = hierarchy.leaf_set(right_value)
                if left_set.isdisjoint(right_set):
                    return False
    return True
