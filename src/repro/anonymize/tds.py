"""Top-Down Specialization (TDS) of Fung, Wang and Yu [7].

As described in the paper's Section VI-A: starting from the most general
state, "at each step, for each partition of specialized records, among the
attributes that respect the k-anonymity requirement and that are beneficial
for classification (i.e. information gain should not be 0), the one that
maximizes information gain is selected."

Information gain is computed against a class attribute (``income`` for the
Adult data set, the classification task of [7]). The paper highlights why
this metric blocks poorly: non-beneficial specializations are never
performed, and maximizing information gain minimizes class-conditional
entropy rather than maximizing the number of distinct sequences.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from itertools import repeat
from operator import add, mul

from repro.anonymize.topdown import TopDownSpecializer, tally
from repro.data.schema import Relation
from repro.errors import AnonymizationError

#: Gains below this are treated as zero (floating-point guard).
_GAIN_EPSILON = 1e-12


def class_entropy(labels: Sequence) -> float:
    """Shannon entropy (bits) of a class-label multiset."""
    return _entropy(Counter(labels).values(), len(labels))


def _entropy(counts, total: int) -> float:
    """Shannon entropy (bits) of *counts* summing to *total*."""
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy


class TDS(TopDownSpecializer):
    """Information-gain-driven top-down specialization.

    Parameters
    ----------
    hierarchies:
        Hierarchy catalog keyed by attribute name.
    class_attribute:
        The classification target whose predictability the algorithm
        preserves (``income`` in the Adult experiments).
    """

    def __init__(
        self, hierarchies, *, class_attribute: str = "income", **kwargs
    ):
        super().__init__(hierarchies, **kwargs)
        self.class_attribute = class_attribute
        #: Per-record class-label codes, and how many labels there are.
        self._labels: list[int] = []
        self._label_count = 1

    def _prepare(self, relation: Relation, qids) -> None:
        if self.class_attribute not in relation.schema:
            raise AnonymizationError(
                f"TDS needs class attribute {self.class_attribute!r} in the relation"
            )
        position = relation.schema.position(self.class_attribute)
        code_of: dict = {}
        self._labels = [
            code_of.setdefault(record[position], len(code_of)) for record in relation
        ]
        self._label_count = len(code_of)

    def _may_benefit(self, indices):
        """A partition with one class label has no information to gain."""
        labels = self._labels
        first = labels[indices[0]]
        return any(labels[index] != first for index in indices)

    def _count(self, lookup, table, indices):
        """Count ``(child, label)`` pairs, keyed ``slot * labels + label``.

        Child sizes are summed from the pairs. Pairs are met in record
        order, so children and, within each child, labels keep their order
        of first appearance.
        """
        width = self._label_count
        pairs = tally(
            map(
                add,
                map(mul, lookup.slots(table, indices), repeat(width)),
                map(self._labels.__getitem__, indices),
            )
        )
        sizes: dict[int, int] = {}
        for key, count in pairs.items():
            slot = key // width
            sizes[slot] = sizes.get(slot, 0) + count
        return sizes, pairs

    def _score(self, indices, sizes, pairs):
        """Information gain of the split; ``None`` when not beneficial.

        Labels are summed in order of first appearance, in the partition
        and within each child, so every entropy adds the same floats in the
        same order as it would over the label lists themselves.
        """
        width = self._label_count
        parent: dict[int, int] = {}
        per_child: dict[int, list[int]] = {}
        for key, count in pairs.items():
            slot, label = divmod(key, width)
            parent[label] = parent.get(label, 0) + count
            per_child.setdefault(slot, []).append(count)
        total = len(indices)
        children_entropy = 0.0
        for slot, size in sizes.items():
            weight = size / total
            children_entropy += weight * _entropy(per_child[slot], size)
        gain = _entropy(parent.values(), total) - children_entropy
        if gain <= _GAIN_EPSILON:
            return None
        return gain
