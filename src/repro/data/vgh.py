"""Value generalization hierarchies (VGHs) and interval hierarchies.

Section IV of the paper builds everything on *specialization sets*: the set
of original values a generalized value can stand for. For a categorical
attribute the generalized value is a node of a value generalization
hierarchy (VGH) and its specialization set is the set of leaves below it;
for a continuous attribute the generalized value is an interval and its
specialization set is the interval itself.

This module provides:

- :class:`Interval` — half-open numeric intervals ``[lo, hi)`` with the
  infimum / supremum distance geometry the slack decision rule needs;
- :class:`CategoricalHierarchy` — a rooted tree of string-valued nodes
  (possibly unbalanced, like the paper's Education VGH in Figure 1);
- :class:`IntervalHierarchy` — a rooted tree of intervals, either custom
  (the Work-Hrs VGH of Figure 1) or equi-width (the paper's 4-level,
  8-unit-leaf hierarchy for ``age``).

Both hierarchy classes expose the same navigation vocabulary (``root``,
``parent_of``, ``children_of``, ``depth_of``, ``generalize``) so the
anonymizers in :mod:`repro.anonymize` can treat them uniformly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Union

from repro.errors import HierarchyError


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open numeric interval ``[lo, hi)``.

    A *degenerate* interval with ``lo == hi`` represents the single point
    ``lo`` (the specialization set of an ungeneralized continuous value).
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise HierarchyError(f"interval bounds out of order: [{self.lo}, {self.hi})")

    @staticmethod
    def point(value: float) -> "Interval":
        """The degenerate interval holding exactly *value*."""
        return Interval(value, value)

    @property
    def is_point(self) -> bool:
        """True when the interval holds a single value."""
        return self.lo == self.hi

    @property
    def width(self) -> float:
        """The length ``hi - lo`` of the interval."""
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        """The center of the interval."""
        return (self.lo + self.hi) / 2.0

    def contains(self, value: float) -> bool:
        """True when *value* lies in ``[lo, hi)`` (or equals a point)."""
        if self.is_point:
            return value == self.lo
        return self.lo <= value < self.hi

    def covers(self, other: "Interval") -> bool:
        """True when *other* is entirely inside this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """True when some value could lie in both intervals.

        Point intervals are treated as single values, so ``[35,35]`` overlaps
        ``[35,37)`` but not ``[1,35)``.
        """
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            return True
        # Touching boundaries: only a point interval sitting exactly on the
        # *closed* lower end of the other interval actually shares a value.
        if lo == hi:
            return (self.is_point and other.contains(self.lo)) or (
                other.is_point and self.contains(other.lo)
            )
        return False

    def min_distance(self, other: "Interval") -> float:
        """Infimum of ``|v - w|`` over ``v`` in self, ``w`` in other.

        This is the continuous instantiation of the paper's slack distance
        ``sdl``: zero when the intervals overlap, otherwise the gap between
        them.
        """
        if self.overlaps(other):
            return 0.0
        return max(self.lo - other.hi, other.lo - self.hi, 0.0)

    def max_distance(self, other: "Interval") -> float:
        """Supremum of ``|v - w|`` over ``v`` in self, ``w`` in other.

        The continuous instantiation of the paper's slack distance ``sds``.
        """
        return max(self.hi - other.lo, other.hi - self.lo, 0.0)

    def __str__(self) -> str:
        if self.is_point:
            return f"{self.lo:g}"
        return f"[{self.lo:g}-{self.hi:g})"


GeneralizedValue = Union[str, Interval]


class CategoricalHierarchy:
    """A value generalization hierarchy over string values.

    Built from a nested specification whose internal nodes are mappings and
    whose leaf groups are sequences, e.g. the paper's Figure 1 Education
    VGH::

        CategoricalHierarchy("education", {
            "ANY": {
                "Secondary": {
                    "Junior Sec.": ["9th", "10th"],
                    "Senior Sec.": ["11th", "12th"],
                },
                "University": {
                    "Bachelors": [],
                    "Grad School": ["Masters", "Doctorate"],
                },
            },
        })

    A node with an empty child sequence (``"Bachelors"`` above) is itself a
    leaf, which lets hierarchies be unbalanced exactly as in the paper.
    Node names double as values: the specialization set of a node is the set
    of leaves below it, and the specialization set of a leaf is itself.
    """

    def __init__(self, name: str, spec: Mapping[str, object]):
        if len(spec) != 1:
            raise HierarchyError(f"VGH {name!r} must have exactly one root")
        self.name = name
        self._parent: dict[str, str | None] = {}
        self._children: dict[str, tuple[str, ...]] = {}
        self._depth: dict[str, int] = {}
        self._leaf_set: dict[str, frozenset[str]] = {}
        (self._root,) = spec
        self._build(self._root, spec[self._root], parent=None, depth=0)
        self._leaves = tuple(
            node for node in self._children if not self._children[node]
        )
        for node in self._topological_bottom_up():
            children = self._children[node]
            if children:
                merged: set[str] = set()
                for child in children:
                    merged.update(self._leaf_set[child])
                self._leaf_set[node] = frozenset(merged)
            else:
                self._leaf_set[node] = frozenset({node})
        self.height = max(self._depth.values())

    def _build(
        self, node: str, spec: object, parent: str | None, depth: int
    ) -> None:
        if node in self._parent:
            raise HierarchyError(
                f"VGH {self.name!r}: node {node!r} appears more than once"
            )
        self._parent[node] = parent
        self._depth[node] = depth
        if isinstance(spec, Mapping):
            self._children[node] = tuple(spec)
            for child, child_spec in spec.items():
                self._build(child, child_spec, node, depth + 1)
        elif isinstance(spec, Sequence) and not isinstance(spec, str):
            self._children[node] = tuple(spec)
            for child in spec:
                self._build(child, (), node, depth + 1)
        elif spec == ():
            self._children[node] = ()
        else:
            raise HierarchyError(
                f"VGH {self.name!r}: bad spec under {node!r}: {spec!r}"
            )

    def _topological_bottom_up(self) -> list[str]:
        return sorted(self._depth, key=lambda node: -self._depth[node])

    @property
    def root(self) -> str:
        """The most general value (``ANY`` in the paper's hierarchies)."""
        return self._root

    @property
    def leaves(self) -> tuple[str, ...]:
        """All leaf values, in specification order."""
        return self._leaves

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node names."""
        return tuple(self._parent)

    def is_node(self, value: str) -> bool:
        """True when *value* names a node of this hierarchy."""
        return value in self._parent

    def is_leaf(self, value: str) -> bool:
        """True when *value* is a leaf (an original domain value)."""
        return value in self._parent and not self._children[value]

    def parent_of(self, node: str) -> str | None:
        """The parent of *node* (``None`` for the root)."""
        self._require(node)
        return self._parent[node]

    def children_of(self, node: str) -> tuple[str, ...]:
        """The children of *node* (empty for leaves)."""
        self._require(node)
        return self._children[node]

    def depth_of(self, node: str) -> int:
        """Distance of *node* from the root (root has depth 0)."""
        self._require(node)
        return self._depth[node]

    def leaf_set(self, node: str) -> frozenset[str]:
        """The specialization set of *node*: all leaves at or below it."""
        self._require(node)
        return self._leaf_set[node]

    def path_to_root(self, node: str) -> list[str]:
        """The chain ``[node, parent, ..., root]``."""
        self._require(node)
        path = [node]
        while (parent := self._parent[path[-1]]) is not None:
            path.append(parent)
        return path

    def generalize(self, leaf: str, depth: int) -> str:
        """Generalize *leaf* to its ancestor at *depth* (clamped to the leaf).

        ``depth=0`` yields the root; a depth at or below the leaf's own depth
        yields the leaf itself.
        """
        if depth < 0:
            raise HierarchyError(f"negative generalization depth {depth}")
        node = leaf
        self._require(node)
        while self._depth[node] > depth:
            node = self._parent[node]  # type: ignore[assignment] -- depth>0 ⇒ parent exists
        return node

    def _require(self, node: str) -> None:
        if node not in self._parent:
            raise HierarchyError(
                f"VGH {self.name!r} has no node {node!r}"
            )

    def __repr__(self) -> str:
        return (
            f"CategoricalHierarchy({self.name!r}, {len(self._parent)} nodes, "
            f"{len(self._leaves)} leaves, height {self.height})"
        )


class IntervalHierarchy:
    """A generalization hierarchy over a continuous domain.

    Nodes are :class:`Interval` objects; the root spans the attribute's full
    domain (its width is the paper's ``normFactor``). Two constructors cover
    the paper's usages:

    - :meth:`from_tree` builds an explicit, possibly irregular tree — the
      Work-Hrs VGH of Figure 1;
    - :meth:`equi_width` builds the regular hierarchy used for ``age`` in
      the experiments ("4 levels and equi-width leaf nodes cover 8-unit
      intervals").
    """

    def __init__(
        self,
        name: str,
        root: Interval,
        children: Mapping[Interval, tuple[Interval, ...]],
    ):
        self.name = name
        self._root = root
        self._children = dict(children)
        self._parent: dict[Interval, Interval | None] = {root: None}
        self._depth: dict[Interval, int] = {root: 0}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in self._children.get(node, ()):
                if not node.covers(child):
                    raise HierarchyError(
                        f"interval VGH {name!r}: child {child} escapes parent {node}"
                    )
                if child in self._parent:
                    raise HierarchyError(
                        f"interval VGH {name!r}: node {child} appears twice"
                    )
                self._parent[child] = node
                self._depth[child] = self._depth[node] + 1
                frontier.append(child)
        for node in self._children:
            if node not in self._parent:
                raise HierarchyError(
                    f"interval VGH {name!r}: node {node} is unreachable from root"
                )
        self._leaves = tuple(
            sorted(node for node in self._parent if not self._children.get(node))
        )
        self.height = max(self._depth.values())

    @classmethod
    def from_tree(cls, name: str, spec: Sequence) -> "IntervalHierarchy":
        """Build from a nested spec ``(lo, hi, [child_spec, ...])``.

        Children may be omitted for leaves: ``(35, 37)``.
        """
        children: dict[Interval, tuple[Interval, ...]] = {}

        def walk(node_spec: Sequence) -> Interval:
            lo, hi = node_spec[0], node_spec[1]
            node = Interval(float(lo), float(hi))
            child_specs = node_spec[2] if len(node_spec) > 2 else ()
            children[node] = tuple(walk(child) for child in child_specs)
            return node

        root = walk(spec)
        return cls(name, root, children)

    @classmethod
    def equi_width(
        cls,
        name: str,
        lo: float,
        hi: float,
        leaf_width: float,
        levels: int,
    ) -> "IntervalHierarchy":
        """Build a regular hierarchy with *levels* levels above the root.

        The leaf level tiles ``[lo, hi)`` with intervals of *leaf_width*
        (the last leaf absorbs any remainder); each level above merges pairs
        of nodes until a single root remains after *levels* merges. With
        ``levels=3`` and ``leaf_width=8`` this reproduces the paper's
        four-level age hierarchy (leaves, two internal levels, root).
        """
        if leaf_width <= 0:
            raise HierarchyError("leaf_width must be positive")
        if levels < 1:
            raise HierarchyError("need at least one level above the leaves")
        leaf_count = max(1, int((hi - lo) // leaf_width))
        bounds = [lo + index * leaf_width for index in range(leaf_count)] + [hi]
        level = [
            Interval(bounds[index], bounds[index + 1]) for index in range(leaf_count)
        ]
        children: dict[Interval, tuple[Interval, ...]] = {
            node: () for node in level
        }
        for _ in range(levels - 1):
            if len(level) == 1:
                break
            merged = []
            for index in range(0, len(level), 2):
                group = tuple(level[index : index + 2])
                if len(group) == 1 and merged:
                    # A lone trailing node would become its own parent;
                    # fold it into the previous parent instead so every
                    # level strictly generalizes.
                    previous = merged.pop()
                    group = children.pop(previous) + group
                parent = Interval(group[0].lo, group[-1].hi)
                children[parent] = group
                merged.append(parent)
            level = merged
        root = Interval(float(lo), float(hi))
        if len(level) > 1:
            children[root] = tuple(level)
        return cls(name, root, children)

    @property
    def root(self) -> Interval:
        """The full-domain interval; its width is the ``normFactor``."""
        return self._root

    @property
    def leaves(self) -> tuple[Interval, ...]:
        """All leaf intervals, sorted by lower bound."""
        return self._leaves

    @property
    def nodes(self) -> tuple[Interval, ...]:
        """All intervals in the hierarchy."""
        return tuple(self._parent)

    @property
    def domain_range(self) -> float:
        """The normalization factor: width of the root interval."""
        return self._root.width

    def is_node(self, interval: Interval) -> bool:
        """True when *interval* is a node of this hierarchy."""
        return interval in self._parent

    def is_leaf(self, interval: Interval) -> bool:
        """True when *interval* is a leaf of this hierarchy."""
        return interval in self._parent and not self._children.get(interval)

    def parent_of(self, node: Interval) -> Interval | None:
        """The parent of *node* (``None`` for the root)."""
        self._require(node)
        return self._parent[node]

    def children_of(self, node: Interval) -> tuple[Interval, ...]:
        """The children of *node* (empty for leaves)."""
        self._require(node)
        return self._children.get(node, ())

    def depth_of(self, node: Interval) -> int:
        """Distance of *node* from the root."""
        self._require(node)
        return self._depth[node]

    def leaf_for(self, value: float) -> Interval:
        """The leaf interval containing *value*.

        Values at the upper domain bound land in the last leaf, so loading
        real data never fails on the boundary.
        """
        for leaf in self._leaves:
            if leaf.contains(value):
                return leaf
        last = self._leaves[-1]
        if value == last.hi == self._root.hi:
            return last
        raise HierarchyError(
            f"value {value!r} outside the domain of interval VGH {self.name!r}"
        )

    def generalize(self, value: float, depth: int) -> Interval:
        """Generalize *value* to the interval at *depth* that contains it."""
        if depth < 0:
            raise HierarchyError(f"negative generalization depth {depth}")
        node = self.leaf_for(value)
        while self._depth[node] > depth:
            node = self._parent[node]  # type: ignore[assignment]
        return node

    def path_to_root(self, node: Interval) -> list[Interval]:
        """The chain ``[node, parent, ..., root]``."""
        self._require(node)
        path = [node]
        while (parent := self._parent[path[-1]]) is not None:
            path.append(parent)
        return path

    def _require(self, node: Interval) -> None:
        if node not in self._parent:
            raise HierarchyError(
                f"interval VGH {self.name!r} has no node {node}"
            )

    def __repr__(self) -> str:
        return (
            f"IntervalHierarchy({self.name!r}, root={self._root}, "
            f"{len(self._leaves)} leaves, height {self.height})"
        )
