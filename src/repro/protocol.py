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
  budget leases, one ``(n, 3)`` ``int64`` array of ``[left class_id, right
  class_id, take]`` rows: compare the first ``take`` record pairs of each
  class pair in row-major order;
- :class:`SMCBridge` stands for the cryptographic protocol execution: it
  runs each lease over the holders' columnar records privately and
  returns only the matching ``(left_offset, right_offset)`` positions to
  the querying party, one ``(m, 2)`` array per lease (with the real
  Paillier backend, not even the bridge sees plaintext in a deployment —
  here it is the simulation point, as in DESIGN.md §4 substitution 3).

The result identifies matches by ``(class_id, offset)`` handles, kept as
one ``(m, 2, 2)`` :data:`~repro.linkage.columns.OFFSET_DTYPE` array
indexed ``[match, side, (class_id, offset)]`` from :func:`link_unknown`
to :class:`ProtocolOutcome`; each holder resolves its own side,
``handles[:, side]``, back to record indices locally
(:meth:`DataHolder.resolve`). Class pairs are ``(n, 2)`` ``int64`` arrays of
``(left class_id, right class_id)`` rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from repro.anonymize.base import Anonymizer, ClassRows, GeneralizedRelation
from repro.crypto.smc.oracle import CountingPlaintextOracle, SMCOracle
from repro.data.schema import Relation
from repro.errors import ConfigurationError, ProtocolError
from repro.linkage.blocking import block
from repro.linkage.codes import CodeTables
from repro.linkage.columns import (
    OFFSET_DTYPE,
    LeaseBatch,
    RecordColumns,
    cross_offsets,
    plan_leases,
)
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import MinAvgFirst, SelectionHeuristic
from repro.linkage.strategies import (
    LeftoverStrategy,
    MaximizePrecision,
    SMCSample,
    check_selection,
)
from repro.obs import NOOP_TELEMETRY, Telemetry


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

    def class_sizes(self, class_ids) -> np.ndarray:
        """The published size of each of *class_ids*, as ``int64``; an id
        the view lacks raises :class:`ProtocolError` naming the first."""
        ids = np.asarray(class_ids, dtype=np.int64)
        known, sizes = self._sizes_by_id
        at = np.searchsorted(known, ids)
        found = at < len(known)
        found[found] = known[at[found]] == ids[found]
        if not found.all():
            missing = ids[found.argmin()]
            raise ProtocolError(f"{self.holder!r} publishes no class {missing}")
        return sizes[at]

    @cached_property
    def _sizes_by_id(self) -> tuple[np.ndarray, np.ndarray]:
        """The class ids, ascending, and their sizes (built on first use)."""
        ids, sizes = np.array(
            [(published.class_id, published.size) for published in self.classes],
            dtype=np.int64,
        ).reshape(-1, 2).T
        order = np.argsort(ids)
        return ids[order], sizes[order]


class DataHolder:
    """A party owning a private relation.

    The relation is intentionally name-mangled; everything other parties
    may learn flows through :meth:`publish` and the SMC bridge. The
    published relation's encoded QID columns
    (:attr:`~repro.anonymize.base.GeneralizedRelation.qid_columns`) and
    class row indices (:attr:`~repro.anonymize.base.GeneralizedRelation
    .class_rows`) are built once per generalized relation and shared by
    every holder that adopts it; a handle ``(class_id, offset)`` resolves
    to row ``offset`` of class ``class_id``.
    """

    def __init__(self, name: str, relation: Relation):
        self.name = name
        self.__relation = relation
        self.__class_rows = ClassRows(
            np.empty(0, dtype=np.intp), np.zeros(1, dtype=np.intp)
        )
        self.__columns: RecordColumns | None = None

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
        generalized = anonymizer.anonymize(self.__relation, qids, k)
        self._adopt(generalized)
        return PublishedView(
            holder=self.name,
            qids=generalized.qids,
            classes=tuple(
                PublishedClass(class_id, eq_class.sequence, eq_class.size)
                for class_id, eq_class in enumerate(generalized.classes)
            ),
        )

    @classmethod
    def adopt(cls, name: str, generalized: GeneralizedRelation) -> DataHolder:
        """A holder of *generalized*'s source that publishes *generalized*.

        This is how the in-process library hands relations it anonymized
        itself to the protocol: class ``i`` of *generalized* is published
        with ``class_id`` ``i``. Adopting the same relation again reuses
        its encoded columns; no view is built.
        """
        holder = cls(name, generalized.source)
        holder._adopt(generalized)
        return holder

    def _adopt(self, generalized: GeneralizedRelation) -> None:
        self.__class_rows = generalized.class_rows
        self.__columns = generalized.qid_columns

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
        rows, starts, sizes = self._classes_rows([class_id])
        return rows[starts[0] : starts[0] + sizes[0]]

    def _classes_rows(self, class_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the rows of each class in *class_ids* lie (only the SMC
        bridge may call this): ``(rows, starts, sizes)``, class ``i``'s
        row indices being ``rows[starts[i]:starts[i] + sizes[i]]``.

        Every id is checked first: an unknown or negative one raises
        :class:`ProtocolError` naming the first.
        """
        ids = np.asarray(class_ids, dtype=np.int64)
        starts = self.__class_rows.starts
        bad = np.flatnonzero((ids < 0) | (ids >= len(starts) - 1))
        if len(bad):
            raise ProtocolError(
                f"holder {self.name!r} has no class {ids[bad[0]]}"
            )
        return self.__class_rows.rows, starts[ids], starts[ids + 1] - starts[ids]

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

    def resolve(self, handles) -> np.ndarray:
        """Map ``(class_id, offset)`` handles, any ``(n, 2)`` integer
        array-like, to this holder's record indices (``intp``); if a handle
        names no record, :class:`ProtocolError` names the first such one."""
        handles = np.asarray(handles)
        if handles.size == 0:
            return np.empty(0, dtype=np.intp)
        if handles.ndim != 2 or handles.shape[1] != 2 or handles.dtype.kind not in "iu":
            raise ProtocolError(f"handles must be (n, 2) integers, not {handles!r:.60}")
        class_ids, offsets = handles[:, 0], handles[:, 1]
        starts = self.__class_rows.starts
        count = len(starts) - 1
        # An unknown class id reads the size 0 appended after the last class.
        rows = class_ids.astype(np.intp)
        rows[(rows < 0) | (rows > count)] = count
        sizes = np.append(np.diff(starts), 0).astype(OFFSET_DTYPE)
        bad = (offsets < 0) | (offsets >= sizes[rows])
        if bad.any():
            handle = tuple(handles[bad.argmax()].tolist())
            raise ProtocolError(f"holder {self.name!r}: no record for handle {handle}")
        # Both gathers write in place: every index is in bounds.
        np.take(starts, rows, out=rows, mode="clip")
        rows += offsets
        return np.take(self.__class_rows.rows, rows, out=rows, mode="clip")


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

    def compare_many(self, leases: np.ndarray) -> list[np.ndarray]:
        """Run *leases*, an ``(n, 3)`` ``int64`` array of ``[left class_id,
        right class_id, take]`` rows; per lease, its matching offsets in
        row-major order.

        Each result is an ``(m, 2)``
        :data:`~repro.linkage.columns.OFFSET_DTYPE` array of the
        ``(left_offset, right_offset)`` positions, within the two classes,
        of the record pairs that matched among the lease's first ``take``
        (see :meth:`~repro.crypto.smc.oracle.SMCOracle.compare_block`).
        An unknown class id or a take outside
        ``1..`` the class pair's size raises :class:`ProtocolError` before
        any pair is compared.
        """
        batch = LeaseBatch(
            *self._left._classes_rows(leases[:, 0]),
            *self._right._classes_rows(leases[:, 1]),
            leases[:, 2],
        )
        return self.oracle.compare_block(
            self._left._columns(), self._right._columns(), batch
        )

    @property
    def invocations(self) -> int:
        """Protocol invocations so far (the paper's cost unit)."""
        return self.oracle.invocations


@dataclass(eq=False)
class ProtocolOutcome:
    """What the querying party ends up with.

    ``matched_handles`` holds the SMC step's matches as one ``(m, 2, 2)``
    :data:`~repro.linkage.columns.OFFSET_DTYPE` array indexed ``[match,
    side, (class_id, offset)]``, lease by lease in consumption order and
    row-major within a lease; a holder resolves its side with
    ``holder.resolve(matched_handles[:, side])``. ``matched_class_pairs``
    (blocking-M, in blocking order) and ``claimed_class_pairs`` (in
    leftover order) are ``(n, 2)`` ``int64`` arrays of ``(left class_id,
    right class_id)`` rows. The ``repr`` prints every field and every row
    of every array, and ``==`` compares the ``repr``.
    """

    total_pairs: int
    blocked_match_pairs: int
    blocked_nonmatch_pairs: int
    unknown_pairs: int
    smc_invocations: int
    matched_handles: np.ndarray
    matched_class_pairs: np.ndarray
    leftover_pairs: int = 0
    claimed_class_pairs: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )

    @property
    def blocking_efficiency(self) -> float:
        """Fraction of pairs the blocking step decided."""
        if self.total_pairs == 0:
            return 1.0
        decided = self.blocked_match_pairs + self.blocked_nonmatch_pairs
        return decided / self.total_pairs

    @property
    def verified_match_pairs(self) -> int:
        """Verified pairs: blocked-match cross products plus SMC hits."""
        return self.blocked_match_pairs + len(self.matched_handles)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return repr(self) == repr(other)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{item.name}={_full_repr(getattr(self, item.name))}"
            for item in fields(self)
        )
        return f"{type(self).__name__}({body})"


def _full_repr(value) -> str:
    """``repr`` of *value*, an array written as the nested list of all its
    rows."""
    if not isinstance(value, np.ndarray):
        return repr(value)
    # numpy's repr elides arrays of over 1,000 elements, and one nested
    # list of every row takes ~300 bytes a handle: 256 rows at a time.
    rows = ", ".join(
        repr(value[at : at + 256].tolist())[1:-1]
        for at in range(0, len(value), 256)
    )
    return f"[{rows}]"


def verified_match_handles(
    outcome: ProtocolOutcome,
    left_view: PublishedView,
    right_view: PublishedView,
) -> np.ndarray:
    """Every verified matching handle pair of *outcome*.

    An ``(n, 2, 2)`` array like ``outcome.matched_handles``: blocking-M
    class pairs first, each expanded to its full cross product in
    row-major order (sound by the slack rule, hence true matches), then
    the SMC hits. Each holder can resolve its side locally — this is the
    artifact the networked querying party ships to the holders at the
    end of a remote run.
    """
    pairs = outcome.matched_class_pairs
    left_sizes = left_view.class_sizes(pairs[:, 0])
    right_sizes = right_view.class_sizes(pairs[:, 1])
    offsets = cross_offsets(left_sizes, right_sizes)
    blocked = np.empty((len(offsets), 2, 2), dtype=OFFSET_DTYPE)
    blocked[:, :, 0] = np.repeat(pairs, left_sizes * right_sizes, axis=0)
    blocked[:, :, 1] = offsets
    return np.concatenate((blocked, outcome.matched_handles))


@dataclass
class UnknownLink:
    """What :func:`link_unknown` decided about the unknown class pairs.

    ``order`` lists row indices of the unknown positions in consumption
    order. Its first ``len(sample.pairs)`` entries were leased; ``sample``
    holds those leased class positions with each lease's compared and
    matched counts, and ``handles`` the matches as one ``(m, 2, 2)``
    :data:`~repro.linkage.columns.OFFSET_DTYPE` array indexed ``[match,
    side, (class_id, offset)]``, lease by lease, each lease's rows in the
    bridge's row-major order.
    The leftovers are ``order[leftover_start:]`` (the partially leased
    class pair, if any, then those the allowance never reached), and
    ``claimed`` lists the row indices of the leftovers the strategy
    claims, in leftover order.
    """

    order: np.ndarray
    handles: np.ndarray
    sample: SMCSample
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
    one ``compare_many`` call as an ``(n, 3)`` ``int64`` array of ``[left
    class_id, right class_id, take]`` rows; the strategy then labels the
    leftovers.
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
    takes, granted = plan_leases(sizes, allowance_pairs)
    leased = ordered[: len(takes)]
    ids = tables.id_pairs(leased)
    if ids.size and ids.max() > np.iinfo(OFFSET_DTYPE).max:
        raise ProtocolError(f"class id {ids.max()} does not fit an int32 handle")
    leases = np.column_stack((ids, np.array(takes, dtype=np.int64)))
    with telemetry.span("linkage.smc", leases=len(leases)) as smc_span:
        billed = bridge.invocations
        offsets = bridge.compare_many(leases)
        billed = bridge.invocations - billed
        if len(offsets) != len(leases):
            raise ProtocolError(
                f"bridge answered {len(offsets)} of {len(leases)} leases"
            )
        matches = [len(lease_offsets) for lease_offsets in offsets]
        matched = sum(matches)
        if telemetry.enabled:
            spent = progress = 0
            for position, (take, count) in enumerate(zip(takes, matches)):
                spent += take
                progress += count
                telemetry.histogram("smc.class_pair_take").observe(take)
                telemetry.emit_progress(
                    "smc",
                    spent,
                    allowance_pairs,
                    unit="pairs",
                    matches=progress,
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
    handles = np.empty((matched, 2, 2), dtype=OFFSET_DTYPE)
    handles[:, :, 0] = np.repeat(ids.astype(OFFSET_DTYPE), matches, axis=0)
    if offsets:
        np.concatenate(offsets, out=handles[:, :, 1])
    leftover_start = len(takes)
    if takes and takes[-1] < sizes[leftover_start - 1]:
        leftover_start -= 1  # the partially leased class pair
    leftovers = order[leftover_start:]
    sample = SMCSample(leased, leases[:, 2], np.array(matches, dtype=np.int64))
    with telemetry.span("linkage.leftovers", strategy=strategy.name):
        claimed = leftovers[
            strategy.claim_matches(
                unknown[leftovers], sample, tables, telemetry=telemetry
            )
        ]
    telemetry.counter("leftovers.class_pairs").add(len(leftovers))
    telemetry.counter("leftovers.claimed_class_pairs").add(len(claimed))
    return UnknownLink(order, handles, sample, leftover_start, claimed, billed)


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

        Blocking runs the library's
        :func:`~repro.linkage.blocking.block` on the views;
        :func:`link_unknown` then orders the unknown class pairs, spends
        the allowance through *bridge* and labels the leftovers, exactly
        as :class:`~repro.linkage.hybrid.HybridLinkage` does. The outcome's
        ``matched_handles`` is the link's handle array, and matched and
        claimed class pairs are reported by id.

        ``smc_invocations`` is what this call spent: the bridge's count
        grows by exactly the leased record pairs, or the call raises
        :class:`ProtocolError`. A bridge may be reused across calls.
        """
        blocking = block(
            self.rule, left_view, right_view, telemetry=self.telemetry
        )
        tables = blocking.tables
        unknown = blocking.unknown
        link = link_unknown(
            tables,
            unknown,
            bridge,
            self.heuristic,
            self.strategy,
            math.floor(self.allowance * blocking.total_pairs),
            self.telemetry,
        )
        return ProtocolOutcome(
            total_pairs=blocking.total_pairs,
            blocked_match_pairs=blocking.matched_pairs,
            blocked_nonmatch_pairs=blocking.nonmatch_pairs,
            unknown_pairs=blocking.unknown_pairs,
            smc_invocations=link.invocations,
            matched_handles=link.handles,
            matched_class_pairs=tables.id_pairs(blocking.matched),
            leftover_pairs=blocking.unknown_pairs - link.invocations,
            claimed_class_pairs=tables.id_pairs(unknown[link.claimed]),
        )
