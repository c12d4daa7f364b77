"""Test-only scalar reference for the querying party's blocking pass.

The querying party blocks and orders published views on the library's
numpy kernel (``repro.linkage.blocking.block_positions``). This module
keeps the plain loop it replaced: per class pair, the slack decision on
the two generalization sequences, then the heuristic's score of the
expected-distance vector for the pairs the rule leaves undecided. The
unknown class pairs are sorted by ``(score, class-pair size, left
class_id, right class_id)`` and the allowance becomes greedy prefix
budget leases over that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.linkage.expected import expected_distance_vector
from repro.linkage.slack import Label, slack_decision
from repro.pipeline.shards import plan_leases
from repro.protocol import Lease


@dataclass
class ReferenceLink:
    """What the scalar loop decides over two published views."""

    blocked_match_pairs: int = 0
    blocked_nonmatch_pairs: int = 0
    unknown_pairs: int = 0
    matched_class_pairs: list[tuple[int, int]] = field(default_factory=list)
    #: ``(score, size, left class_id, right class_id)`` in consumption order.
    ordered_unknown: list[tuple[float, int, int, int]] = field(
        default_factory=list
    )
    leases: list[Lease] = field(default_factory=list)


def reference_link(rule, heuristic, left_view, right_view, allowance) -> ReferenceLink:
    """Block, score, order and lease two views with the scalar loop."""
    left_positions = [left_view.qids.index(name) for name in rule.names]
    right_positions = [right_view.qids.index(name) for name in rule.names]
    link = ReferenceLink()
    unknown = []
    for left_class in left_view.classes:
        left_sequence = [left_class.sequence[p] for p in left_positions]
        for right_class in right_view.classes:
            right_sequence = [right_class.sequence[p] for p in right_positions]
            label = slack_decision(rule, left_sequence, right_sequence)
            size = left_class.size * right_class.size
            if label is Label.MATCH:
                link.blocked_match_pairs += size
                link.matched_class_pairs.append(
                    (left_class.class_id, right_class.class_id)
                )
            elif label is Label.NONMATCH:
                link.blocked_nonmatch_pairs += size
            else:
                link.unknown_pairs += size
                score = heuristic.score(
                    expected_distance_vector(
                        rule.attributes, left_sequence, right_sequence
                    )
                )
                unknown.append(
                    (score, size, left_class.class_id, right_class.class_id)
                )
    unknown.sort()
    link.ordered_unknown = unknown
    total_pairs = left_view.record_count * right_view.record_count
    takes, _ = plan_leases(
        [size for _, size, _, _ in unknown],
        math.floor(allowance * total_pairs),
    )
    link.leases = [
        Lease(left_id, right_id, take)
        for (_, _, left_id, right_id), take in zip(unknown, takes)
    ]
    return link
