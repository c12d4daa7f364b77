"""Top-down specialization framework shared by TDS and MaxEntropyTDS.

Both algorithms follow the same recursion (paper Section VI-A): start with
every record generalized to the hierarchy roots, then repeatedly pick, for
each partition, a *valid* (every resulting non-empty child partition keeps
at least k records) and *beneficial* specialization, replace the partition's
node with its children and recurse. They differ only in what "beneficial"
means and how candidates are scored:

- TDS [7]: beneficial = positive information gain with respect to a class
  attribute; score = the information gain;
- the paper's method: every specialization is beneficial; score = the
  entropy of the attribute within the partition, so partitions "can
  withstand more specializations until the validity condition is violated".

Subclasses implement :meth:`_score`, returning ``None`` for non-beneficial
candidates.

Because sibling partitions always differ in the attribute that split them,
the leaf partitions of the recursion are exactly the equivalence classes of
the output and all carry distinct sequences.
"""

from __future__ import annotations

from collections import _count_elements
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.anonymize.base import (
    Anonymizer,
    EquivalenceClass,
    GeneralizedRelation,
    Hierarchy,
)
from repro.data.schema import Relation
from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.errors import AnonymizationError


@dataclass
class _Partition:
    """A group of record indices sharing a (mutable) sequence."""

    indices: list[int]
    sequence: list


class TopDownSpecializer(Anonymizer):
    """Common recursion for top-down specialization algorithms.

    Parameters
    ----------
    hierarchies:
        Hierarchy catalog keyed by attribute name.
    specialize_points:
        When true (the default), continuous leaf intervals may take one
        final specialization step down to the raw values (as point
        intervals) whenever that step is valid — required for the paper's
        k=1 scenario, in which the anonymized relation equals the original.
    diversity, sensitive_attribute:
        Optional l-diversity extension (Machanavajjhala et al. [10], the
        paper's Section VII): with ``diversity = l > 1``, a specialization
        is valid only when every non-empty child partition also contains
        at least l distinct values of *sensitive_attribute*. The output is
        then simultaneously k-anonymous and l-diverse.
    """

    def __init__(
        self,
        hierarchies,
        *,
        specialize_points: bool = True,
        diversity: int = 1,
        sensitive_attribute: str = "income",
    ):
        super().__init__(hierarchies)
        self.specialize_points = specialize_points
        if diversity < 1:
            raise AnonymizationError("diversity must be at least 1")
        self.diversity = diversity
        self.sensitive_attribute = sensitive_attribute
        self._sensitive_column: list = []

    def anonymize(
        self, relation: Relation, qids: Sequence[str], k: int
    ) -> GeneralizedRelation:
        """Run the top-down recursion and group the leaf partitions."""
        self._check_arguments(relation, qids, k)
        positions = relation.schema.positions(qids)
        hierarchy_list = [self.hierarchies[name] for name in qids]
        lookups = [
            ChildLookup(
                hierarchy,
                [record[position] for record in relation],
                self.specialize_points,
            )
            for position, hierarchy in zip(positions, hierarchy_list)
        ]
        if self.diversity > 1:
            if self.sensitive_attribute not in relation.schema:
                raise AnonymizationError(
                    f"l-diversity needs attribute {self.sensitive_attribute!r}"
                )
            sensitive_position = relation.schema.position(
                self.sensitive_attribute
            )
            self._sensitive_column = [
                record[sensitive_position] for record in relation
            ]
            root_diversity = len(set(self._sensitive_column))
            if root_diversity < self.diversity:
                raise AnonymizationError(
                    f"the relation only has {root_diversity} distinct "
                    f"{self.sensitive_attribute!r} values; l="
                    f"{self.diversity} is unattainable"
                )
        self._prepare(relation, qids)
        root_sequence = [hierarchy.root for hierarchy in hierarchy_list]
        stack = [_Partition(list(range(len(relation))), list(root_sequence))]
        classes: list[EquivalenceClass] = []
        while stack:
            partition = stack.pop()
            best = self._best_split(partition, lookups, k)
            if best is None:
                classes.append(
                    EquivalenceClass(
                        tuple(partition.sequence), tuple(partition.indices)
                    )
                )
                continue
            attr_position, groups = best
            for child_node, indices in groups.items():
                child_sequence = list(partition.sequence)
                child_sequence[attr_position] = child_node
                stack.append(_Partition(indices, child_sequence))
        classes.sort(key=lambda eq_class: eq_class.indices)
        return GeneralizedRelation(
            relation, qids, {name: self.hierarchies[name] for name in qids},
            classes, k=k,
        )

    def _best_split(self, partition, lookups, k):
        """The winning ``(attr_position, {child: indices})``, or ``None``.

        Each candidate is judged from counts over integer codes: its child
        sizes, plus whatever :meth:`_count` adds for the score. Index lists
        are built for the winner alone.
        """
        indices = partition.indices
        if not self._may_benefit(indices):
            return None
        best_score = None
        best = None
        for attr_position, lookup in enumerate(lookups):
            table = lookup.table(partition.sequence[attr_position])
            if table is None:
                continue
            sizes, counts = self._count(lookup, table, indices)
            if min(sizes.values()) < k:
                continue
            if self.diversity > 1 and not self._diverse_enough(
                lookup.slots(table, indices), indices
            ):
                continue
            score = self._score(indices, sizes, counts)
            if score is None:
                continue
            if best_score is None or score > best_score:
                best_score = score
                best = (attr_position, lookup, table, sizes)
        if best is None:
            return None
        attr_position, lookup, table, sizes = best
        return attr_position, lookup.groups(table, indices, sizes)

    def _diverse_enough(self, slots: Iterator[int], indices: list[int]) -> bool:
        """l-diversity validity: each child keeps >= l sensitive values."""
        pairs = set(zip(slots, map(self._sensitive_column.__getitem__, indices)))
        per_child = tally(slot for slot, _ in pairs)
        return min(per_child.values()) >= self.diversity

    def _prepare(self, relation: Relation, qids: Sequence[str]) -> None:
        """Hook for subclasses that need per-run precomputation."""

    def _may_benefit(self, indices: list[int]) -> bool:
        """``False`` when no specialization of the partition can score."""
        return True

    def _count(
        self, lookup: "ChildLookup", table: "_ChildTable", indices: list[int]
    ) -> tuple[dict[int, int], object]:
        """One candidate's child sizes and any extra counts :meth:`_score` reads.

        *sizes* maps child slot to record count in order of first
        appearance in *indices*, so float sums over it run in the order
        the children are met.
        """
        return tally(lookup.slots(table, indices)), None

    def _score(
        self, indices: list[int], sizes: dict[int, int], counts: object
    ) -> float | None:
        """Score a candidate specialization; ``None`` = not beneficial."""
        raise NotImplementedError


def tally(keys: Iterable) -> dict:
    """How often each key occurs, keys in order of first appearance.

    ``collections.Counter(keys)`` without the Python-level set-up it
    pays on every call, which dominates when thousands of tiny partitions
    are counted at small k.
    """
    counts: dict = {}
    _count_elements(counts, keys)
    return counts


class _ChildTable(dict):
    """Value code -> child slot under one node, filled on first lookup.

    Slots number the node's children in the order their first value was
    looked up; ``children[slot]`` is the child node itself.
    """

    def __init__(self, child_of: Callable, values: list):
        super().__init__()
        self.children: list = []
        self._slot_of: dict = {}
        self._child_of = child_of
        self._values = values

    def __missing__(self, code: int) -> int:
        child = self._child_of(self._values[code])
        slot = self._slot_of.get(child)
        if slot is None:
            slot = self._slot_of[child] = len(self.children)
            self.children.append(child)
        self[code] = slot
        return slot


class ChildLookup:
    """One QID column as integer value codes, with a child table per node.

    ``codes[i]`` numbers record *i*'s raw value (distinct values in
    first-seen order). :meth:`table` gives, for a node, the map from value
    code to the slot of the child that value falls under: a categorical
    node's child on the path to the leaf, a prefix pattern's one-character
    extension (:meth:`PrefixHierarchy.child_for`), the child interval
    holding a continuous value, or — below a leaf interval, with
    *specialize_points* — the value's point interval. Each (node, value)
    pair is resolved once; a split then hashes only small integers.

    Every distinct value is checked against the hierarchy's domain on
    construction, so each anonymizer built on the lookup refuses the same
    out-of-domain values with :class:`AnonymizationError`.
    """

    def __init__(
        self, hierarchy: Hierarchy, column: Sequence, specialize_points: bool
    ):
        self.hierarchy = hierarchy
        self.specialize_points = specialize_points
        code_of: dict = {}
        self.codes = [code_of.setdefault(value, len(code_of)) for value in column]
        self.values = list(code_of)
        for value in self.values:
            _check_domain(hierarchy, value)
        self._tables: dict = {}

    def table(self, node) -> _ChildTable | None:
        """The child table of *node*; ``None`` when it cannot be specialized."""
        try:
            return self._tables[node]
        except KeyError:
            child_of = self._child_rule(node)
            table = None if child_of is None else _ChildTable(child_of, self.values)
            self._tables[node] = table
            return table

    def slots(self, table: _ChildTable, indices: list[int]) -> Iterator[int]:
        """Each record's child slot under *table*, in *indices* order."""
        return map(table.__getitem__, map(self.codes.__getitem__, indices))

    def groups(
        self, table: _ChildTable, indices: list[int], sizes: dict[int, int]
    ) -> dict:
        """*indices* grouped by child node, children in *sizes*' order."""
        children = table.children
        if len(sizes) == 1:
            (slot,) = sizes
            return {children[slot]: indices}
        grouped: dict[int, list[int]] = {slot: [] for slot in sizes}
        for index, slot in zip(indices, self.slots(table, indices)):
            grouped[slot].append(index)
        return {children[slot]: group for slot, group in grouped.items()}

    def _child_rule(self, node) -> Callable | None:
        hierarchy = self.hierarchy
        if isinstance(hierarchy, CategoricalHierarchy):
            if hierarchy.is_leaf(node):
                return None
            children = hierarchy.children_of(node)
            return lambda value: next(
                child for child in children if value in hierarchy.leaf_set(child)
            )
        if isinstance(hierarchy, PrefixHierarchy):
            if hierarchy.is_leaf(node):
                return None
            return lambda value: hierarchy.child_for(node, value)
        # Continuous attribute.
        if isinstance(node, Interval) and node.is_point:
            return None
        assert isinstance(hierarchy, IntervalHierarchy)
        children = hierarchy.children_of(node) if hierarchy.is_node(node) else ()
        if children:
            return lambda value: _containing(children, float(value))
        if not self.specialize_points:
            return None
        # Leaf interval -> raw point values.
        return lambda value: Interval.point(float(value))


def _check_domain(hierarchy: Hierarchy, value) -> None:
    """Refuse a raw value outside *hierarchy*'s domain.

    Categorical values must be VGH leaves, prefix strings must fit the
    maximum length, and continuous values must lie in the root interval,
    whose upper bound is absorbed as in ``IntervalHierarchy.leaf_for``.
    """
    if isinstance(hierarchy, CategoricalHierarchy):
        if not hierarchy.is_leaf(value):
            raise AnonymizationError(
                f"value {value!r} of {hierarchy.name!r} is not a leaf of its VGH"
            )
    elif isinstance(hierarchy, PrefixHierarchy):
        if not hierarchy.is_node(value):
            raise AnonymizationError(
                f"value {value!r} of {hierarchy.name!r} exceeds the prefix "
                f"hierarchy's maximum length"
            )
    else:
        root = hierarchy.root
        if not (root.contains(float(value)) or float(value) == root.hi):
            raise AnonymizationError(
                f"value {value!r} of {hierarchy.name!r} is outside its "
                f"domain {root}"
            )


def _containing(children: tuple[Interval, ...], value: float) -> Interval:
    for child in children:
        if child.contains(value):
            return child
    # Domain upper bound: the last child absorbs it.
    last = max(children, key=lambda interval: interval.hi)
    if value == last.hi:
        return last
    raise AnonymizationError(
        f"value {value!r} not covered by child intervals {children}"
    )
