"""Mondrian multidimensional k-anonymity (LeFevre et al. [24]).

The paper discusses Mondrian as related work ("quasi-identifier attributes
generalized to different levels of VGH appear together in the anonymized
data set"); we include it as an extension because the blocking step is
agnostic to where generalized values come from — any interval or VGH node
works with the slack decision rule.

This is the greedy median-split variant:

- continuous attributes split at the median into two sub-intervals (cut
  points need not align with the VGH — the output intervals are arbitrary);
- categorical attributes split along their VGH children (the standard
  hierarchy-respecting variant for unordered domains);
- at every step the partition is split on the allowable attribute with the
  widest normalized range, until no allowable split keeps every side at
  size >= k.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.anonymize.base import (
    Anonymizer,
    EquivalenceClass,
    GeneralizedRelation,
)
from repro.anonymize.topdown import ChildLookup, tally
from repro.data.schema import Relation
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy


class Mondrian(Anonymizer):
    """Greedy multidimensional partitioning with median cuts."""

    def anonymize(
        self, relation: Relation, qids: Sequence[str], k: int
    ) -> GeneralizedRelation:
        """Split the record space until no valid cut remains."""
        self._check_arguments(relation, qids, k)
        positions = relation.schema.positions(qids)
        hierarchy_list = [self.hierarchies[name] for name in qids]
        columns = [
            [record[position] for record in relation] for position in positions
        ]
        lookups = [
            ChildLookup(hierarchy, column, specialize_points=False)
            for hierarchy, column in zip(hierarchy_list, columns)
        ]
        root_sequence = [hierarchy.root for hierarchy in hierarchy_list]
        stack = [(list(range(len(relation))), list(root_sequence))]
        classes: list[EquivalenceClass] = []
        while stack:
            indices, sequence = stack.pop()
            split = self._best_split(
                indices, sequence, columns, hierarchy_list, lookups, k
            )
            if split is None:
                classes.append(
                    EquivalenceClass(
                        tuple(self._tighten(sequence, indices, columns, hierarchy_list)),
                        tuple(sorted(indices)),
                    )
                )
                continue
            attr_position, groups = split
            for node, group in groups.items():
                child_sequence = list(sequence)
                child_sequence[attr_position] = node
                stack.append((group, child_sequence))
        classes.sort(key=lambda eq_class: eq_class.indices)
        return GeneralizedRelation(
            relation, qids, {name: self.hierarchies[name] for name in qids},
            classes, k=k,
        )

    def _best_split(self, indices, sequence, columns, hierarchies, lookups, k):
        """Choose the widest-spread attribute with a valid cut."""
        scored = []
        for attr_position, hierarchy in enumerate(hierarchies):
            spread = self._normalized_spread(
                sequence[attr_position], indices, columns[attr_position], hierarchy
            )
            scored.append((spread, attr_position))
        scored.sort(reverse=True)
        for spread, attr_position in scored:
            if spread <= 0.0:
                continue
            groups = self._cut(
                sequence[attr_position],
                indices,
                columns[attr_position],
                hierarchies[attr_position],
                lookups[attr_position],
                k,
            )
            if groups is not None:
                return attr_position, groups
        return None

    @staticmethod
    def _normalized_spread(node, indices, column, hierarchy) -> float:
        if isinstance(hierarchy, IntervalHierarchy):
            values = [float(column[index]) for index in indices]
            lo, hi = min(values), max(values)
            return (hi - lo) / hierarchy.domain_range
        distinct = {column[index] for index in indices}
        if isinstance(hierarchy, CategoricalHierarchy):
            return len(distinct) / len(hierarchy.leaves)
        # Prefix hierarchies have no fixed leaf set; normalize by the
        # partition size instead.
        return len(distinct) / max(len(indices), 1)

    @staticmethod
    def _cut(node, indices, column, hierarchy, lookup, k):
        """Return a valid split of *indices*, or ``None``."""
        if isinstance(hierarchy, IntervalHierarchy):
            interval = node if isinstance(node, Interval) else hierarchy.root
            values = sorted(float(column[index]) for index in indices)
            median = values[len(values) // 2]
            if median == values[0]:
                # Degenerate low side; cut above the minimum instead.
                higher = [value for value in values if value > values[0]]
                if not higher:
                    return None
                median = higher[0]
            left = Interval(interval.lo, median)
            right = Interval(median, interval.hi)
            groups = {left: [], right: []}
            for index in indices:
                side = left if float(column[index]) < median else right
                groups[side].append(index)
            if any(len(group) < k for group in groups.values()):
                return None
            return groups
        table = lookup.table(node)
        if table is None:
            return None
        sizes = tally(lookup.slots(table, indices))
        if min(sizes.values()) < k:
            return None
        return lookup.groups(table, indices, sizes)

    @staticmethod
    def _tighten(sequence, indices, columns, hierarchies):
        """Shrink continuous nodes to the partition's actual value range.

        Mondrian publishes the bounding box of each final partition, which
        is what makes it *multidimensional*: the same attribute ends up
        generalized to different, data-dependent intervals in different
        classes.
        """
        tightened = []
        for attr_position, node in enumerate(sequence):
            hierarchy = hierarchies[attr_position]
            if isinstance(hierarchy, IntervalHierarchy):
                values = [float(columns[attr_position][index]) for index in indices]
                lo, hi = min(values), max(values)
                if lo == hi:
                    tightened.append(Interval.point(lo))
                else:
                    # Half-open cover of the observed range.
                    tightened.append(Interval(lo, hi + 1.0))
            else:
                tightened.append(node)
        return tightened
