"""Explicit three-party protocol simulation.

The paper's cast (Section I): "We assume three participants in our method.
These are two data holders, with the data sets to be linked, and the
querying party, who provides the classifier that determines matching
record pairs."

The library layers below (:mod:`repro.linkage.hybrid` and friends) pass
:class:`~repro.anonymize.base.GeneralizedRelation` objects around, which
carry a back-reference to the raw source relation for the SMC simulation.
That is convenient for experiments but blurs the party boundary. This
module makes the boundary explicit:

- :class:`DataHolder` owns a private relation and *publishes* only a
  :class:`PublishedView` — generalization sequences and class sizes, the
  exact artifact the paper assumes is public;
- :class:`QueryingParty` sees two published views and a
  :class:`SMCBridge`; it drives blocking, selection and the SMC step
  without ever holding a raw record. The SMC work it hands the bridge is
  a list of budget leases, :class:`Lease` ``(left class_id, right
  class_id, take)``: compare the first ``take`` record pairs of that class
  pair in row-major order;
- :class:`SMCBridge` stands for the cryptographic protocol execution: it
  runs each lease over the holders' columnar records privately and
  returns only the matching ``(left_offset, right_offset)`` positions to
  the querying party (with the real Paillier backend, not even the bridge
  sees plaintext in a deployment — here it is the simulation point, as
  in DESIGN.md §4 substitution 3).

The result identifies matches by ``(class_id, offset)`` handles; each
holder resolves its own side back to record indices locally
(:meth:`DataHolder.resolve`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.anonymize.base import Anonymizer, GeneralizedRelation
from repro.crypto.smc.oracle import CountingPlaintextOracle, SMCOracle
from repro.data.schema import Relation
from repro.errors import ConfigurationError, ProtocolError
from repro.linkage.blocking import (
    block_positions,
    check_rule_covers_qids,
    publish_blocking_metrics,
)
from repro.linkage.codes import CodeTables
from repro.linkage.columns import BlockLease, RecordColumns, plan_leases
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import MinAvgFirst, SelectionHeuristic
from repro.linkage.strategies import (
    LeftoverStrategy,
    MaximizePrecision,
    SMCSample,
    check_selection,
)
from repro.obs import NOOP_TELEMETRY, Telemetry

#: A record handle the querying party may hold: (class_id, offset).
Handle = tuple[int, int]


class Lease(NamedTuple):
    """One budget lease: compare the first *take* pairs of a class pair.

    Record pairs of the class pair ``(left_class, right_class)`` are taken
    in row-major order: left offset ``take // right size`` is the last
    row touched, and only the first ``min(take, right size)`` right
    records are ever read.
    """

    left_class: int
    right_class: int
    take: int


@dataclass(frozen=True)
class PublishedClass:
    """One equivalence class as the outside world sees it."""

    class_id: int
    sequence: tuple
    size: int


@dataclass(frozen=True)
class PublishedView:
    """A holder's public artifact: anonymized classes, nothing else."""

    holder: str
    qids: tuple[str, ...]
    classes: tuple[PublishedClass, ...]

    @property
    def record_count(self) -> int:
        """Total records behind the view."""
        return sum(published.size for published in self.classes)


class DataHolder:
    """A party owning a private relation.

    The relation is intentionally name-mangled; everything other parties
    may learn flows through :meth:`publish` and the SMC bridge. At
    :meth:`publish` the holder encodes its QID columns once
    (:class:`~repro.linkage.columns.RecordColumns`) and keeps each class as
    an array of row indices, so a handle ``(class_id, offset)`` resolves to
    ``class_rows[class_id][offset]``.
    """

    def __init__(self, name: str, relation: Relation):
        self.name = name
        self.__relation = relation
        self.__class_rows: list[np.ndarray] = []
        self.__columns: RecordColumns | None = None
        self.__published: PublishedView | None = None

    def publish(
        self,
        anonymizer: Anonymizer,
        qids: Sequence[str],
        k: int,
    ) -> PublishedView:
        """Anonymize the private relation and return the public view.

        The holder chooses its own anonymizer, QID set and k — "participants
        can choose different anonymization methods, anonymity levels,
        quasi-identifier attribute sets" (Section I).
        """
        return self._adopt(anonymizer.anonymize(self.__relation, qids, k))

    @classmethod
    def adopt(cls, name: str, generalized: GeneralizedRelation) -> DataHolder:
        """A holder of *generalized*'s source that publishes *generalized*.

        This is how the in-process library hands relations it anonymized
        itself to the protocol: class ``i`` of *generalized* is published
        with ``class_id`` ``i``.
        """
        holder = cls(name, generalized.source)
        holder._adopt(generalized)
        return holder

    def _adopt(self, generalized: GeneralizedRelation) -> PublishedView:
        qids = generalized.qids
        self.__class_rows = [
            np.array(eq_class.indices, dtype=np.intp)
            for eq_class in generalized.classes
        ]
        self.__columns = RecordColumns.from_relation(self.__relation, qids)
        self.__published = PublishedView(
            holder=self.name,
            qids=tuple(qids),
            classes=tuple(
                PublishedClass(class_id, eq_class.sequence, eq_class.size)
                for class_id, eq_class in enumerate(generalized.classes)
            ),
        )
        return self.__published

    @property
    def schema(self):
        """The relation's schema (assumed public, as in the paper)."""
        return self.__relation.schema

    def _columns(self) -> RecordColumns:
        """The encoded QID columns (only the SMC bridge may call this)."""
        if self.__columns is None:
            raise ProtocolError(f"holder {self.name!r} has not published yet")
        return self.__columns

    def _class_rows(self, class_id: int) -> np.ndarray:
        """Row indices of class *class_id* (only the SMC bridge may call this)."""
        if not 0 <= class_id < len(self.__class_rows):
            raise ProtocolError(
                f"holder {self.name!r} has no class {class_id}"
            )
        return self.__class_rows[class_id]

    def _class_values(
        self, class_id: int, count: int, names: Sequence[str]
    ) -> list[list]:
        """The *names* values of the first *count* records of a class.

        This is the plaintext the holder-to-holder link carries (see
        docs/SECURITY.md): only the rows a lease touches.
        """
        positions = self.schema.positions(names)
        relation = self.__relation
        return [
            [relation[row][position] for position in positions]
            for row in self._class_rows(class_id)[:count].tolist()
        ]

    def resolve(self, handles: Sequence[Handle]) -> list[int]:
        """Map this holder's handles back to its own record indices."""
        indices = []
        for class_id, offset in handles:
            rows = self._class_rows(class_id)
            if not 0 <= offset < len(rows):
                raise ProtocolError(
                    f"holder {self.name!r} has no record for handle "
                    f"{(class_id, offset)}"
                )
            indices.append(int(rows[offset]))
        return indices


class SMCBridge:
    """The protocol-execution stand-in between the three parties.

    ``compare_many`` runs budget leases over both holders' columnar
    records through the SMC oracle; only the matching offsets leave the
    bridge.
    """

    def __init__(
        self,
        left: DataHolder,
        right: DataHolder,
        rule: MatchRule,
        oracle_factory=CountingPlaintextOracle,
    ):
        if left.schema != right.schema:
            raise ConfigurationError("holders must share a schema")
        self._left = left
        self._right = right
        self.oracle: SMCOracle = oracle_factory(rule, left.schema)

    def compare_many(
        self, leases: Sequence[Lease]
    ) -> list[list[tuple[int, int]]]:
        """Run *leases*; per lease, its matching offsets in row-major order.

        Each result lists the ``(left_offset, right_offset)`` positions,
        within the two classes, of the record pairs that matched among the
        lease's first ``take``. An unknown class id or a take outside
        ``1..`` the class pair's size raises :class:`ProtocolError` before
        any pair is compared.
        """
        block_leases = [
            BlockLease(
                self._left._class_rows(lease.left_class),
                self._right._class_rows(lease.right_class),
                lease.take,
            )
            for lease in leases
        ]
        return self.oracle.compare_block(
            self._left._columns(), self._right._columns(), block_leases
        )

    @property
    def invocations(self) -> int:
        """Protocol invocations so far (the paper's cost unit)."""
        return self.oracle.invocations


@dataclass
class ProtocolOutcome:
    """What the querying party ends up with."""

    total_pairs: int
    blocked_match_pairs: int
    blocked_nonmatch_pairs: int
    unknown_pairs: int
    smc_invocations: int
    matched_handles: list[tuple[Handle, Handle]]
    matched_class_pairs: list[tuple[int, int]]
    leftover_pairs: int = 0
    claimed_class_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def blocking_efficiency(self) -> float:
        """Fraction of pairs the blocking step decided."""
        if self.total_pairs == 0:
            return 1.0
        decided = self.blocked_match_pairs + self.blocked_nonmatch_pairs
        return decided / self.total_pairs

    @property
    def reported_match_pairs(self) -> int:
        """Verified pairs: blocked-match cross products plus SMC hits."""
        return self.blocked_match_pairs + len(self.matched_handles)


def verified_match_handles(
    outcome: ProtocolOutcome,
    left_view: PublishedView,
    right_view: PublishedView,
) -> list[tuple[Handle, Handle]]:
    """Every verified matching handle pair of *outcome*.

    Blocking-M class pairs expand to their full cross product (sound by
    the slack rule, hence true matches); SMC hits are appended as-is.
    Each holder can resolve its side of these handles locally — this is
    exactly the artifact the networked querying party ships to the
    holders at the end of a remote run.
    """
    left_sizes = {c.class_id: c.size for c in left_view.classes}
    right_sizes = {c.class_id: c.size for c in right_view.classes}
    handles: list[tuple[Handle, Handle]] = []
    for left_id, right_id in outcome.matched_class_pairs:
        for left_offset in range(left_sizes[left_id]):
            for right_offset in range(right_sizes[right_id]):
                handles.append(
                    ((left_id, left_offset), (right_id, right_offset))
                )
    handles.extend(outcome.matched_handles)
    return handles


@dataclass
class UnknownLink:
    """What :func:`link_unknown` decided about the unknown class pairs.

    ``order`` lists row indices of the unknown positions in consumption
    order. Its first ``len(leases)`` entries were leased, with
    ``offsets[i]`` the matching ``(left_offset, right_offset)`` positions
    of ``leases[i]``. The leftovers are ``order[leftover_start:]`` (the
    partially leased class pair, if any, then those the allowance never
    reached), and ``claimed`` lists the row indices of the leftovers the
    strategy claims, in leftover order.
    """

    order: np.ndarray
    leases: list[Lease]
    offsets: list[list[tuple[int, int]]]
    leftover_start: int
    claimed: np.ndarray
    invocations: int


def link_unknown(
    tables: CodeTables,
    unknown: np.ndarray,
    bridge: SMCBridge,
    heuristic: SelectionHeuristic,
    strategy: LeftoverStrategy,
    allowance_pairs: int,
    telemetry: Telemetry = NOOP_TELEMETRY,
) -> UnknownLink:
    """The hybrid method after blocking (paper Sections V-B and V-C).

    *unknown* holds the ``(left, right)`` class positions into *tables*
    that blocking left undecided. The heuristic orders them; the allowance
    becomes greedy prefix budget leases over that order
    (:func:`~repro.linkage.columns.plan_leases`), which go to *bridge* in
    one ``compare_many`` call; the strategy then labels the leftovers.
    Record pairs inside a class pair are indistinguishable from the
    anonymized views, so a lease compares the first ``take`` of them in
    row-major order and the remainder becomes leftovers.

    The bridge's ``invocations`` must grow by exactly the leased record
    pairs, or the call raises :class:`ProtocolError`; a bridge may be
    reused across calls.
    """
    with telemetry.span("select", heuristic=heuristic.name, pairs=len(unknown)):
        order = heuristic.order(unknown, tables, telemetry=telemetry)
    ordered = unknown[order]
    sizes = tables.left_sizes[ordered[:, 0]] * tables.right_sizes[ordered[:, 1]]
    takes, granted = plan_leases(sizes.tolist(), allowance_pairs)
    leased = ordered[: len(takes)]
    leases = [Lease(*ids, take) for ids, take in zip(_id_pairs(tables, leased), takes)]
    with telemetry.span("linkage.smc", leases=len(leases)) as smc_span:
        billed = bridge.invocations
        offsets = bridge.compare_many(leases)
        billed = bridge.invocations - billed
        if len(offsets) != len(leases):
            raise ProtocolError(
                f"bridge answered {len(offsets)} of {len(leases)} leases"
            )
        matches = [len(lease_offsets) for lease_offsets in offsets]
        spent = matched = 0
        for position, (take, count) in enumerate(zip(takes, matches)):
            spent += take
            matched += count
            telemetry.histogram("smc.class_pair_take").observe(take)
            telemetry.emit_progress(
                "smc",
                spent,
                allowance_pairs,
                unit="pairs",
                matches=matched,
                class_pairs=position + 1,
            )
        smc_span.annotate(invocations=billed, matches=matched)
    if billed != granted:
        raise ProtocolError(
            f"the bridge billed {billed} invocations for leases of "
            f"{granted} record pairs"
        )
    telemetry.counter("smc.allowance_pairs").add(allowance_pairs)
    telemetry.counter("smc.matched_pairs").add(matched)
    leftover_start = len(takes)
    if takes and takes[-1] < sizes[leftover_start - 1]:
        leftover_start -= 1  # the partially leased class pair
    leftovers = order[leftover_start:]
    sample = SMCSample(
        leased, np.array(takes, dtype=np.int64), np.array(matches, dtype=np.int64)
    )
    with telemetry.span("linkage.leftovers", strategy=strategy.name):
        claimed = leftovers[
            strategy.claim_matches(
                unknown[leftovers], sample, tables, telemetry=telemetry
            )
        ]
    telemetry.counter("leftovers.class_pairs").add(len(leftovers))
    telemetry.counter("leftovers.claimed_class_pairs").add(len(claimed))
    return UnknownLink(order, leases, offsets, leftover_start, claimed, billed)


class QueryingParty:
    """The party that provides the classifier and receives the join.

    It operates exclusively on published views and the SMC bridge: it
    hands the bridge budget leases and gets back matching offsets, so
    there is no code path from here to a raw record.
    """

    def __init__(
        self,
        rule: MatchRule,
        *,
        allowance: float = 0.015,
        heuristic: SelectionHeuristic | None = None,
        strategy: LeftoverStrategy = MaximizePrecision(),
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        self.rule = rule
        self.allowance = allowance
        self.heuristic = heuristic or MinAvgFirst()
        #: Labels the leftovers (paper Section V-B); strategy 1 by default.
        self.strategy = strategy
        check_selection(allowance, self.heuristic, self.strategy)
        #: Receives the ``blocking``, ``select``, ``linkage.smc`` and
        #: ``linkage.leftovers`` spans and the counters the library
        #: publishes.
        self.telemetry = telemetry

    def link(
        self,
        left_view: PublishedView,
        right_view: PublishedView,
        bridge: SMCBridge,
    ) -> ProtocolOutcome:
        """Run the hybrid method over two published views.

        Blocking runs the library's numpy kernel
        (:func:`~repro.linkage.blocking.block_positions`) on the views;
        :func:`link_unknown` then orders the unknown class pairs, spends
        the allowance through *bridge* and labels the leftovers, exactly
        as :class:`~repro.linkage.hybrid.HybridLinkage` does. Handles are
        built only for the matches that come back, and claimed class pairs
        are reported by id.

        ``smc_invocations`` is what this call spent: the bridge's count
        grows by exactly the leased record pairs, or the call raises
        :class:`ProtocolError`. A bridge may be reused across calls.
        """
        check_rule_covers_qids(self.rule, left_view, right_view)
        telemetry = self.telemetry
        class_pairs = len(left_view.classes) * len(right_view.classes)
        with telemetry.span("blocking", class_pairs=class_pairs):
            verdicts = block_positions(
                self.rule, left_view, right_view, telemetry=telemetry
            )
        publish_blocking_metrics(telemetry, verdicts)
        total_pairs = left_view.record_count * right_view.record_count
        tables = verdicts.tables
        unknown = verdicts.unknown
        link = link_unknown(
            tables,
            unknown,
            bridge,
            self.heuristic,
            self.strategy,
            math.floor(self.allowance * total_pairs),
            telemetry,
        )
        handles = []
        right_sizes = tables.right_sizes[unknown[link.order[: len(link.leases)], 1]]
        for (left_id, right_id, take), right_size, offsets in zip(
            link.leases, right_sizes.tolist(), link.offsets
        ):
            # One (class_id, offset) tuple per record the lease reads,
            # shared by its matches: a match then allocates one tuple, not
            # three, which keeps the collector's work down.
            left = [(left_id, offset) for offset in range(-(-take // right_size))]
            right = [(right_id, offset) for offset in range(min(take, right_size))]
            handles += [
                (left[left_offset], right[right_offset])
                for left_offset, right_offset in offsets
            ]
        return ProtocolOutcome(
            total_pairs=total_pairs,
            blocked_match_pairs=verdicts.matched_pairs,
            blocked_nonmatch_pairs=verdicts.nonmatch_pairs,
            unknown_pairs=verdicts.unknown_pairs,
            smc_invocations=link.invocations,
            matched_handles=handles,
            matched_class_pairs=_id_pairs(tables, verdicts.matched),
            leftover_pairs=verdicts.unknown_pairs - link.invocations,
            claimed_class_pairs=_id_pairs(tables, unknown[link.claimed]),
        )


def _id_pairs(tables: CodeTables, positions: np.ndarray) -> list[tuple[int, int]]:
    """``(left class_id, right class_id)`` of each class-position row."""
    return list(
        zip(
            tables.left_ids[positions[:, 0]].tolist(),
            tables.right_ids[positions[:, 1]].tolist(),
        )
    )
