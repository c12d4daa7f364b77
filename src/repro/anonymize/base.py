"""Shared anonymization machinery.

Generalization model
--------------------

Each quasi-identifier (QID) value is replaced by a node of the attribute's
hierarchy: a VGH node name for categorical attributes, an interval for
continuous ones. A record's QID projection becomes its *generalization
sequence*; records sharing a sequence form an *equivalence class*, and
k-anonymity requires every class to hold at least k records.

One refinement beyond the tree structure: the paper's scenario (1) in
Section III requires that with ``k = 1`` "the anonymized relation is
actually the original relation". Continuous VGH *leaves* are still
intervals (8 years wide for age), so we model one extra specialization
level below the leaf intervals — the raw values themselves, encoded as
point intervals. Top-down algorithms may take that last step whenever it is
valid (it usually is only for very small k), and DataFly starts from it.

Depth convention: depth 0 is the hierarchy root; for a continuous attribute
with tree height ``h``, depth ``h + 1`` addresses the raw point values.
"""

from __future__ import annotations

import abc
import functools
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.data.schema import Relation
from repro.data.strings import PrefixHierarchy
from repro.data.vgh import (
    CategoricalHierarchy,
    GeneralizedValue,
    Interval,
    IntervalHierarchy,
)
from repro.errors import AnonymizationError

if TYPE_CHECKING:
    from repro.linkage.columns import RecordColumns

Hierarchy = CategoricalHierarchy | IntervalHierarchy | PrefixHierarchy
Sequence_ = tuple[GeneralizedValue, ...]


def max_generalization_depth(hierarchy: Hierarchy) -> int:
    """The deepest specialization level for *hierarchy* (see module doc)."""
    if isinstance(hierarchy, IntervalHierarchy):
        return hierarchy.height + 1
    return hierarchy.height


def generalize_value(
    hierarchy: Hierarchy, raw_value, depth: int
) -> GeneralizedValue:
    """Generalize *raw_value* to *depth* (clamped at the most specific level).

    For continuous hierarchies a depth beyond the tree height yields the
    raw value as a point interval.
    """
    if isinstance(hierarchy, IntervalHierarchy):
        if depth > hierarchy.height:
            return Interval.point(float(raw_value))
        return hierarchy.generalize(float(raw_value), depth)
    return hierarchy.generalize(raw_value, depth)


def node_depth(hierarchy: Hierarchy, node: GeneralizedValue) -> int:
    """Depth of a generalized value, honoring the point-value extension."""
    if isinstance(hierarchy, IntervalHierarchy):
        if isinstance(node, Interval) and not hierarchy.is_node(node):
            if node.is_point:
                return hierarchy.height + 1
            raise AnonymizationError(f"{node} is not a node of {hierarchy.name!r}")
        return hierarchy.depth_of(node)  # type: ignore[arg-type]
    return hierarchy.depth_of(node)  # type: ignore[arg-type]


@dataclass(frozen=True)
class EquivalenceClass:
    """A group of records sharing one generalization sequence.

    ``sequence`` is aligned with the QID order of the owning
    :class:`GeneralizedRelation`; ``indices`` point into the source
    relation.
    """

    sequence: Sequence_
    indices: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of records in the class."""
        return len(self.indices)

    def describe(self) -> str:
        """Human-readable rendering of the sequence."""
        return "(" + ", ".join(str(value) for value in self.sequence) + ")"


class ClassRows(NamedTuple):
    """Every class's source row indices in one ``intp`` array.

    Class ``c`` holds ``rows[starts[c]:starts[c + 1]]``, in the order of
    its ``indices``; ``starts`` has one entry more than there are classes.
    """

    rows: np.ndarray
    starts: np.ndarray

    def of(self, position: int) -> np.ndarray:
        """The row indices of the class at *position* (a view)."""
        return self.rows[self.starts[position] : self.starts[position + 1]]


class GeneralizedRelation:
    """A k-anonymized view of a relation.

    The *published* artifact is the list of ``(sequence, size)`` pairs —
    what another party may see. The link back to ``source`` records exists
    only so the owning data holder can answer SMC queries about its own
    records; it must never cross the party boundary (the protocol layer in
    :mod:`repro.crypto.smc` enforces that by construction).

    A generalized relation and its source never change, so the holder's
    SMC inputs derived from them, :attr:`class_rows` and
    :attr:`qid_columns`, are built on first use and kept.
    """

    def __init__(
        self,
        source: Relation,
        qids: Sequence[str],
        hierarchies: Mapping[str, Hierarchy],
        classes: Sequence[EquivalenceClass],
        *,
        k: int,
    ):
        self.source = source
        self.qids = tuple(qids)
        self.hierarchies = dict(hierarchies)
        self.classes = tuple(classes)
        self.k = k
        covered = Counter()
        for eq_class in self.classes:
            covered.update(eq_class.indices)
        if sorted(covered) != list(range(len(source))):
            raise AnonymizationError(
                "equivalence classes do not exactly cover the source relation"
            )
        if any(count > 1 for count in covered.values()):
            raise AnonymizationError("a record appears in two equivalence classes")

    def __len__(self) -> int:
        return len(self.source)

    @functools.cached_property
    def class_rows(self) -> ClassRows:
        """Each class's source row indices, class by class."""
        sizes = [eq_class.size for eq_class in self.classes]
        starts = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, dtype=np.intp, out=starts[1:])
        rows = np.fromiter(
            (index for eq_class in self.classes for index in eq_class.indices),
            dtype=np.intp,
            count=int(starts[-1]),
        )
        # Shared by every holder and link that uses this relation.
        rows.flags.writeable = starts.flags.writeable = False
        return ClassRows(rows, starts)

    @functools.cached_property
    def qid_columns(self) -> RecordColumns:
        """The source's QID columns, encoded once."""
        # Imported here: repro.linkage's package imports this module.
        from repro.linkage.columns import RecordColumns

        return RecordColumns.from_relation(self.source, self.qids)

    @property
    def distinct_sequences(self) -> int:
        """Figure 2's y-axis: the number of distinct generalizations."""
        return len({eq_class.sequence for eq_class in self.classes})

    @property
    def minimum_class_size(self) -> int:
        """Size of the smallest equivalence class."""
        if not self.classes:
            return 0
        return min(eq_class.size for eq_class in self.classes)

    def is_k_anonymous(self, k: int | None = None) -> bool:
        """Check the anonymity requirement (default: the requested k)."""
        requirement = self.k if k is None else k
        return all(eq_class.size >= requirement for eq_class in self.classes)

    def __repr__(self) -> str:
        return (
            f"GeneralizedRelation({len(self.source)} records, "
            f"{len(self.classes)} classes, k={self.k})"
        )


class Anonymizer(abc.ABC):
    """Interface shared by every anonymization algorithm.

    Instances are configured with the hierarchy catalog once and can then
    anonymize any relation whose QIDs are covered by that catalog.
    """

    def __init__(self, hierarchies: Mapping[str, Hierarchy]):
        self.hierarchies = dict(hierarchies)

    @abc.abstractmethod
    def anonymize(
        self, relation: Relation, qids: Sequence[str], k: int
    ) -> GeneralizedRelation:
        """Return a k-anonymous generalization of *relation* over *qids*."""

    def _check_arguments(
        self, relation: Relation, qids: Sequence[str], k: int
    ) -> None:
        if k < 1:
            raise AnonymizationError(f"anonymity requirement k={k} must be >= 1")
        if k > len(relation):
            raise AnonymizationError(
                f"k={k} exceeds the relation size {len(relation)}"
            )
        for name in qids:
            if name not in self.hierarchies:
                raise AnonymizationError(f"no hierarchy for QID {name!r}")
            if name not in relation.schema:
                raise AnonymizationError(f"relation has no attribute {name!r}")


def group_by_sequence(
    relation: Relation,
    sequences: Sequence[Sequence_],
) -> list[EquivalenceClass]:
    """Group record indices by their generalization sequences."""
    if len(sequences) != len(relation):
        raise AnonymizationError("one sequence per record is required")
    grouped: dict[Sequence_, list[int]] = {}
    for index, sequence in enumerate(sequences):
        grouped.setdefault(sequence, []).append(index)
    return [
        EquivalenceClass(sequence, tuple(indices))
        for sequence, indices in grouped.items()
    ]


def identity_generalization(
    relation: Relation,
    qids: Sequence[str],
    hierarchies: Mapping[str, Hierarchy],
) -> GeneralizedRelation:
    """The k=1 degenerate anonymization: publish original values.

    Categorical values stay themselves (VGH leaves); continuous values
    become point intervals. Useful as a baseline and in tests of the
    paper's scenario (1).
    """
    positions = relation.schema.positions(qids)
    sequences = []
    for record in relation:
        sequence = []
        for name, position in zip(qids, positions):
            hierarchy = hierarchies[name]
            if isinstance(hierarchy, IntervalHierarchy):
                sequence.append(Interval.point(float(record[position])))
            else:
                sequence.append(record[position])
        sequences.append(tuple(sequence))
    classes = group_by_sequence(relation, sequences)
    return GeneralizedRelation(
        relation, qids, hierarchies, classes, k=1
    )
