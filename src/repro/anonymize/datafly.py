"""The DataFly algorithm of Sweeney [8].

As the paper summarizes (Section VI-A): "records are generalized according
to the attribute that has the most number of distinct values. When the
anonymity requirement is met, or can be met by suppressing at most k
records, the algorithm terminates."

DataFly performs bottom-up *full-domain* generalization: one global level
per attribute, applied to every record. We start continuous attributes at
the raw-value level (point intervals) so that k=1 publishes the original
relation, and climb the hierarchy one level at a time.

Suppression: records still violating k-anonymity at termination (at most k
of them) are generalized to the all-roots sequence rather than deleted.
Deleting records would silently change |D1 x D2| and every percentage in
the evaluation; the all-roots sequence is the most general statement
possible about a record, so publishing it reveals nothing an empty release
would not. These records join the all-roots equivalence class like any
other, so every record belongs to exactly one published class.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.anonymize.base import (
    Anonymizer,
    GeneralizedRelation,
    generalize_value,
    group_by_sequence,
    max_generalization_depth,
)
from repro.anonymize.topdown import ChildLookup
from repro.data.schema import Relation


class DataFly(Anonymizer):
    """Bottom-up full-domain generalization with outlier suppression."""

    def anonymize(
        self, relation: Relation, qids: Sequence[str], k: int
    ) -> GeneralizedRelation:
        """Generalize until at most k records violate k-anonymity."""
        self._check_arguments(relation, qids, k)
        positions = relation.schema.positions(qids)
        hierarchy_list = [self.hierarchies[name] for name in qids]
        depths = [max_generalization_depth(hierarchy) for hierarchy in hierarchy_list]
        # One lookup per QID: it checks the domain and numbers the distinct
        # values, so each level generalizes every distinct value once.
        lookups = [
            ChildLookup(
                hierarchy,
                [record[position] for record in relation],
                specialize_points=False,
            )
            for position, hierarchy in zip(positions, hierarchy_list)
        ]
        generalized = [
            _generalize_column(lookup, depth)
            for lookup, depth in zip(lookups, depths)
        ]
        while True:
            sequences = list(zip(*generalized))
            violating = self._violating_count(sequences, k)
            if violating <= k:
                break
            attr_position = self._most_distinct_attribute(generalized, depths)
            if attr_position is None:
                # Everything is at the root; no further generalization exists.
                break
            depths[attr_position] -= 1
            generalized[attr_position] = _generalize_column(
                lookups[attr_position], depths[attr_position]
            )
        sequences = list(zip(*generalized))
        counts = Counter(sequences)
        root_sequence = tuple(hierarchy.root for hierarchy in hierarchy_list)
        final_sequences = [
            root_sequence if counts[sequence] < k else sequence
            for sequence in sequences
        ]
        classes = group_by_sequence(relation, final_sequences)
        return GeneralizedRelation(
            relation, qids, {name: self.hierarchies[name] for name in qids},
            classes, k=k,
        )

    @staticmethod
    def _violating_count(sequences, k: int) -> int:
        counts = Counter(sequences)
        return sum(
            count for count in counts.values() if count < k
        )

    @staticmethod
    def _most_distinct_attribute(generalized, depths) -> int | None:
        """The still-generalizable attribute with the most distinct values."""
        best = None
        best_distinct = -1
        for attr_position, column in enumerate(generalized):
            if depths[attr_position] == 0:
                continue
            distinct = len(set(column))
            if distinct > best_distinct:
                best_distinct = distinct
                best = attr_position
        return best


def _generalize_column(lookup: ChildLookup, depth: int) -> list:
    """Every record's value of *lookup*'s column generalized to *depth*."""
    hierarchy = lookup.hierarchy
    generalized = [generalize_value(hierarchy, value, depth) for value in lookup.values]
    return list(map(generalized.__getitem__, lookup.codes))
