"""Test-only scalar references the production kernels are checked against.

Blocking. The library and the querying party block and order classes on
the numpy kernel (``repro.linkage.blocking.block``). This module
keeps the plain loop it replaced: per class pair, the slack decision on
the two generalization sequences, then the heuristic's score of the
expected-distance vector for the pairs the rule leaves undecided. The
unknown class pairs are sorted by ``(score, class-pair size, left
class_id, right class_id)`` and the allowance becomes greedy prefix
budget leases over that order. Classes without a ``class_id`` (those of a
``GeneralizedRelation``) are keyed by their position instead.

Anonymization. ``TopDownSpecializer`` (TDS, MaxEntropyTDS, l-diversity)
and Mondrian's categorical cuts count child sizes over integer value
codes and per-node child tables. :func:`reference_topdown` and
:class:`ReferenceMondrian` keep the loop that replaced: per (partition,
attribute) candidate, group the partition's indices into a dict of lists
keyed by child node, then check validity and score over those lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.anonymize import TDS, Mondrian
from repro.anonymize.maxent import branch_entropy
from repro.anonymize.tds import class_entropy
from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.errors import AnonymizationError
from repro.linkage.columns import plan_leases
from repro.linkage.expected import expected_distance_vector
from repro.linkage.slack import Label, slack_decision


@dataclass
class ReferenceLink:
    """What the scalar loop decides over two published views."""

    blocked_match_pairs: int = 0
    blocked_nonmatch_pairs: int = 0
    unknown_pairs: int = 0
    matched_class_pairs: list[tuple[int, int]] = field(default_factory=list)
    #: ``(left class_id, right class_id)`` of the unknown pairs, row-major.
    unknown_class_pairs: list[tuple[int, int]] = field(default_factory=list)
    #: ``(score, size, left class_id, right class_id)`` in consumption order.
    ordered_unknown: list[tuple[float, int, int, int]] = field(
        default_factory=list
    )
    #: ``(left class_id, right class_id, take)`` budget leases, in order.
    leases: list[tuple[int, int, int]] = field(default_factory=list)


def reference_link(rule, heuristic, left_view, right_view, allowance) -> ReferenceLink:
    """Block, score, order and lease two views with the scalar loop."""
    left_positions = [left_view.qids.index(name) for name in rule.names]
    right_positions = [right_view.qids.index(name) for name in rule.names]
    link = ReferenceLink()
    unknown = []
    for left_position, left_class in enumerate(left_view.classes):
        left_id = getattr(left_class, "class_id", left_position)
        left_sequence = [left_class.sequence[p] for p in left_positions]
        for right_position, right_class in enumerate(right_view.classes):
            right_id = getattr(right_class, "class_id", right_position)
            right_sequence = [right_class.sequence[p] for p in right_positions]
            label = slack_decision(rule, left_sequence, right_sequence)
            size = left_class.size * right_class.size
            if label is Label.MATCH:
                link.blocked_match_pairs += size
                link.matched_class_pairs.append((left_id, right_id))
            elif label is Label.NONMATCH:
                link.blocked_nonmatch_pairs += size
            else:
                link.unknown_pairs += size
                link.unknown_class_pairs.append((left_id, right_id))
                score = heuristic.score(
                    expected_distance_vector(
                        rule.attributes, left_sequence, right_sequence
                    )
                )
                unknown.append((score, size, left_id, right_id))
    unknown.sort()
    link.ordered_unknown = unknown
    total_pairs = sum(c.size for c in left_view.classes) * sum(
        c.size for c in right_view.classes
    )
    takes, _ = plan_leases(
        [size for _, size, _, _ in unknown],
        math.floor(allowance * total_pairs),
    )
    link.leases = [
        (left_id, right_id, take)
        for (_, _, left_id, right_id), take in zip(unknown, takes)
    ]
    return link


class ReferenceChildLookup:
    """Maps (current node, record value) to the child node under that node."""

    def __init__(self, hierarchy, specialize_points: bool):
        self.hierarchy = hierarchy
        self.specialize_points = specialize_points
        self._leaf_to_child: dict = {}
        if isinstance(hierarchy, CategoricalHierarchy):
            for node in hierarchy.nodes:
                for child in hierarchy.children_of(node):
                    for leaf in hierarchy.leaf_set(child):
                        self._leaf_to_child[(node, leaf)] = child

    def split(self, node, indices, column) -> dict | None:
        """Group *indices* by the child of *node* their value falls under.

        Returns ``None`` when *node* cannot be specialized further.
        """
        hierarchy = self.hierarchy
        groups: dict = {}
        if isinstance(hierarchy, CategoricalHierarchy):
            if hierarchy.is_leaf(node):
                return None
            for index in indices:
                child = self._leaf_to_child[(node, column[index])]
                groups.setdefault(child, []).append(index)
            return groups
        if isinstance(hierarchy, PrefixHierarchy):
            if hierarchy.is_leaf(node):
                return None
            for index in indices:
                child = hierarchy.child_for(node, column[index])
                groups.setdefault(child, []).append(index)
            return groups
        if isinstance(node, Interval) and node.is_point:
            return None
        assert isinstance(hierarchy, IntervalHierarchy)
        children = hierarchy.children_of(node) if hierarchy.is_node(node) else ()
        if children:
            for index in indices:
                child = _containing(children, float(column[index]))
                groups.setdefault(child, []).append(index)
            return groups
        if not self.specialize_points:
            return None
        for index in indices:
            point = Interval.point(float(column[index]))
            groups.setdefault(point, []).append(index)
        if len(groups) == 1 and next(iter(groups)) == node:
            return None
        return groups


def _containing(children, value: float):
    for child in children:
        if child.contains(value):
            return child
    last = max(children, key=lambda interval: interval.hi)
    if value == last.hi:
        return last
    raise AnonymizationError(
        f"value {value!r} not covered by child intervals {children}"
    )


def _reference_score(anonymizer, labels, indices, groups) -> float | None:
    """TDS's information gain, or MaxEntropyTDS's branch entropy."""
    if not isinstance(anonymizer, TDS):
        return branch_entropy([len(group) for group in groups.values()])
    parent_entropy = class_entropy([labels[index] for index in indices])
    if parent_entropy == 0.0:
        return None
    total = len(indices)
    children_entropy = 0.0
    for group in groups.values():
        weight = len(group) / total
        children_entropy += weight * class_entropy(
            [labels[index] for index in group]
        )
    gain = parent_entropy - children_entropy
    if gain <= 1e-12:
        return None
    return gain


def reference_topdown(anonymizer, relation, qids, k):
    """*anonymizer*'s ``(sequence, indices)`` classes from the scalar loop.

    *anonymizer* is a ``TDS`` or ``MaxEntropyTDS``; its hierarchies,
    ``specialize_points``, ``diversity`` and attributes configure the loop.
    """
    positions = relation.schema.positions(qids)
    hierarchies = [anonymizer.hierarchies[name] for name in qids]
    columns = [[record[position] for record in relation] for position in positions]
    lookups = [
        ReferenceChildLookup(hierarchy, anonymizer.specialize_points)
        for hierarchy in hierarchies
    ]
    labels = sensitive = None
    if isinstance(anonymizer, TDS):
        labels = relation.column(anonymizer.class_attribute)
    if anonymizer.diversity > 1:
        sensitive = relation.column(anonymizer.sensitive_attribute)
    stack = [(list(range(len(relation))), [h.root for h in hierarchies])]
    classes = []
    while stack:
        indices, sequence = stack.pop()
        best_score = None
        best = None
        for attr_position, lookup in enumerate(lookups):
            groups = lookup.split(
                sequence[attr_position], indices, columns[attr_position]
            )
            if groups is None:
                continue
            if any(len(group) < k for group in groups.values()):
                continue
            if sensitive is not None and any(
                len({sensitive[index] for index in group}) < anonymizer.diversity
                for group in groups.values()
            ):
                continue
            score = _reference_score(anonymizer, labels, indices, groups)
            if score is None:
                continue
            if best_score is None or score > best_score:
                best_score = score
                best = (attr_position, groups)
        if best is None:
            classes.append((tuple(sequence), tuple(indices)))
            continue
        attr_position, groups = best
        for child, group in groups.items():
            child_sequence = list(sequence)
            child_sequence[attr_position] = child
            stack.append((group, child_sequence))
    classes.sort(key=lambda eq_class: eq_class[1])
    return classes


class ReferenceMondrian(Mondrian):
    """Mondrian whose categorical and prefix cuts use the scalar split."""

    def __init__(self, hierarchies):
        super().__init__(hierarchies)
        self._reference_lookups = {
            id(hierarchy): ReferenceChildLookup(hierarchy, False)
            for hierarchy in self.hierarchies.values()
        }

    def _cut(self, node, indices, column, hierarchy, lookup, k):
        if isinstance(hierarchy, IntervalHierarchy):
            return Mondrian._cut(node, indices, column, hierarchy, lookup, k)
        groups = self._reference_lookups[id(hierarchy)].split(
            node, list(indices), column
        )
        if groups is None:
            return None
        if any(len(group) < k for group in groups.values()):
            return None
        return groups
