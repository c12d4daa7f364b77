"""The hybrid private record linkage orchestrator (the paper's method).

:class:`HybridLinkage` wires the whole pipeline together:

1. run the blocking step over the two anonymized relations;
2. order the unknown class pairs with the configured selection heuristic;
3. spend the SMC allowance comparing record pairs inside those class
   pairs, in order, through the configured :class:`SMCOracle`;
4. hand whatever the allowance never reached to the leftover strategy.

Steps 2–4 are the querying party's :func:`repro.protocol.link_unknown`,
run in-process: the library and the three-party protocol share them.

Record pairs inside one class pair are indistinguishable from the
anonymized view, so they are consumed in deterministic row-major order;
when the allowance runs out mid-class-pair, the remainder of that pair
joins the leftovers.

The result object keeps *verified* matches (blocking-M pairs and SMC hits,
all true matches by soundness/exactness) separate from *claimed* matches
(leftover class pairs a strategy labels match without verification) so the
evaluation in :mod:`repro.linkage.metrics` can price each strategy's
precision honestly.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.anonymize.base import GeneralizedRelation
from repro.crypto.smc.oracle import CountingPlaintextOracle, SMCOracle
from repro.data.schema import Schema
from repro.errors import ConfigurationError, PipelineError, ProtocolError
from repro.linkage.blocking import BlockingResult, block
from repro.linkage.columns import cross_offsets, run_offsets
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import MinAvgFirst, SelectionHeuristic
from repro.linkage.strategies import (
    LeftoverStrategy,
    MaximizePrecision,
    SMCSample,
    check_selection,
)
from repro.obs import NOOP_TELEMETRY, Telemetry
from repro.protocol import DataHolder, SMCBridge, link_unknown

__all__ = [
    "HybridLinkage",
    "LinkageConfig",
    "LinkageResult",
    "OracleFactory",
]

OracleFactory = Callable[[MatchRule, Schema], SMCOracle]

#: Verified pairs built and turned into tuples at a time when iterating.
_CHUNK_ROWS = 4096


@dataclass
class LinkageConfig:
    """Everything the querying party and the holders agree on.

    Parameters
    ----------
    rule:
        The match classifier (distance functions and thresholds).
    allowance:
        The SMC allowance as a fraction of |D1 x D2| (the paper's default
        test cases use 0.015, i.e. 1.5%).
    heuristic:
        Selection heuristic for unknown class pairs (Section V-C).
    strategy:
        Leftover labeling strategy (Section V-B); the default maximizes
        precision, as the paper chooses.
    oracle_factory:
        Builds the SMC backend; defaults to the counted plaintext oracle
        (exact answers, real invoices — see DESIGN.md §4).
    telemetry:
        A :class:`repro.obs.Telemetry` that records every phase as a
        span and fills the metrics registry (blocking verdict tallies,
        heuristic scoring, SMC and channel costs). Defaults to the
        zero-overhead no-op; telemetry never influences decisions.
    """

    rule: MatchRule
    allowance: float = 0.015
    heuristic: SelectionHeuristic = field(default_factory=MinAvgFirst)
    strategy: LeftoverStrategy = field(default_factory=MaximizePrecision)
    oracle_factory: OracleFactory = CountingPlaintextOracle
    telemetry: Telemetry = field(default=NOOP_TELEMETRY, repr=False)

    def __post_init__(self) -> None:
        check_selection(self.allowance, self.heuristic, self.strategy)


@dataclass
class LinkageResult:
    """Outcome of one hybrid linkage run.

    Class pairs are ``(left, right)`` class positions into
    ``blocking.tables.left.classes`` / ``blocking.tables.right.classes``.
    ``sample`` lists the leased class pairs in consumption order with the
    record pairs compared and matched in each (the last one may be only
    partially compared). ``leftovers`` holds the class pairs the
    allowance did not finish — the partially leased one first, if any —
    and ``claimed`` those of them the strategy labels match, in leftover
    order; both are ``(n, 2)`` arrays. ``smc_matches`` holds the record
    pairs the SMC step verified as one ``(m, 2)`` array of ``(left_index,
    right_index)`` rows, lease by lease in consumption order and row-major
    within a lease.
    """

    total_pairs: int
    blocking: BlockingResult
    allowance_pairs: int
    smc_invocations: int
    smc_matches: np.ndarray
    sample: SMCSample
    leftovers: np.ndarray
    claimed: np.ndarray
    attribute_comparisons: int = 0
    elapsed_seconds: float = 0.0

    @property
    def blocked_match_pairs(self) -> int:
        """Record pairs matched by blocking (sound, hence true matches)."""
        return self.blocking.matched_pairs

    @property
    def smc_matched_pairs(self) -> list[tuple[int, int]]:
        """``smc_matches`` as a new list of ``(left_index, right_index)``
        tuples, in the same order."""
        return list(zip(*self.smc_matches.T.tolist()))

    @property
    def smc_match_count(self) -> int:
        """Matches the SMC step verified."""
        return len(self.smc_matches)

    @property
    def verified_match_pairs(self) -> int:
        """All matches known to be true: blocking-M plus SMC hits."""
        return self.blocked_match_pairs + self.smc_match_count

    @property
    def leftover_pairs(self) -> int:
        """Record pairs never compared nor decided by blocking."""
        return self.blocking.unknown_pairs - self.smc_invocations

    def claimed_partial(self) -> tuple[int, int]:
        """``(compared, matches)`` of the partially leased class pair.

        ``(0, 0)`` unless the allowance ran out inside a class pair and the
        strategy claims that pair, whose compared prefix is then verified
        rather than claimed. A fully compared class pair is never a
        leftover, so a claimed pair equal to the last leased one is the
        partial one.
        """
        sample = self.sample
        if (
            len(sample.pairs)
            and len(self.claimed)
            and (self.claimed[0] == sample.pairs[-1]).all()
        ):
            return int(sample.compared[-1]), int(sample.matches[-1])
        return 0, 0

    @property
    def claimed_pairs(self) -> int:
        """Unverified record pairs the strategy claims as matches."""
        return (
            self.blocking.record_pairs(self.claimed)
            - self.claimed_partial()[0]
        )

    @property
    def reported_match_pairs(self) -> int:
        """What the querying party receives: verified plus claimed."""
        return self.verified_match_pairs + self.claimed_pairs

    def iter_verified_matches(self) -> Iterator[tuple[int, int]]:
        """Yield verified matching ``(left_index, right_index)`` pairs: the
        blocked-M class pairs' record pairs, in blocking order and row-major
        within a class pair, then ``smc_matches``; about ``_CHUNK_ROWS``
        pairs (or one left record's row) are built at a time."""
        tables = self.blocking.tables
        left, right = tables.left.class_rows, tables.right.class_rows
        classes = self.blocking.matched
        left_sizes = tables.left_sizes[classes[:, 0]]
        right_sizes = tables.right_sizes[classes[:, 1]]
        # Cut each class pair into pieces of whole left rows, up to
        # _CHUNK_ROWS record pairs each, and take the pieces in chunks.
        step = np.maximum(_CHUNK_ROWS // right_sizes, 1)
        pieces = -(-left_sizes // step)
        owner = np.repeat(np.arange(len(classes)), pieces)
        first = run_offsets(pieces) * step[owner]
        rows = np.minimum(step[owner], left_sizes[owner] - first)
        widths = right_sizes[owner]
        left_starts = left.starts[classes[owner, 0]] + first
        right_starts = right.starts[classes[owner, 1]]
        counts = rows * widths
        chunks = (np.cumsum(counts) - counts) // _CHUNK_ROWS
        bounds = np.flatnonzero(np.diff(chunks)) + 1
        for chunk in np.split(np.arange(len(owner)), bounds):
            offsets = cross_offsets(rows[chunk], widths[chunk])
            lefts = np.repeat(left_starts[chunk], counts[chunk]) + offsets[:, 0]
            rights = np.repeat(right_starts[chunk], counts[chunk]) + offsets[:, 1]
            yield from zip(left.rows[lefts].tolist(), right.rows[rights].tolist())
        matches = self.smc_matches
        for start in range(0, len(matches), _CHUNK_ROWS):
            chunk = matches[start : start + _CHUNK_ROWS]
            yield from zip(chunk[:, 0].tolist(), chunk[:, 1].tolist())

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"total pairs          : {self.total_pairs}",
            f"blocking efficiency  : {self.blocking.blocking_efficiency:.4%}",
            f"  matched by blocking: {self.blocked_match_pairs}",
            f"  mismatched         : {self.blocking.nonmatch_pairs}",
            f"  unknown            : {self.blocking.unknown_pairs}",
            f"SMC allowance (pairs): {self.allowance_pairs}",
            f"SMC invocations      : {self.smc_invocations}",
            f"  matches found      : {self.smc_match_count}",
            f"leftover pairs       : {self.leftover_pairs}",
            f"claimed (unverified) : {self.claimed_pairs}",
            f"reported matches     : {self.reported_match_pairs}",
        ]
        return "\n".join(lines)


class HybridLinkage:
    """Run the paper's hybrid method end to end."""

    def __init__(self, config: LinkageConfig):
        self.config = config

    def run(
        self, left: GeneralizedRelation, right: GeneralizedRelation
    ) -> LinkageResult:
        """Link two anonymized relations.

        *left* and *right* carry their sources for the SMC simulation (each
        holder answers protocol queries about its own records); only the
        generalized views influence blocking and selection.

        With a recording :class:`~repro.obs.Telemetry` configured the
        whole run lands in the trace as ``linkage.run`` with a
        ``blocking`` child and a ``linkage.link`` child that holds the
        ``select``, ``linkage.smc`` and ``linkage.leftovers`` spans.
        """
        if left.source.schema != right.source.schema:
            raise ConfigurationError("input relations must share a schema")
        config = self.config
        with config.telemetry.span("linkage.run", allowance=config.allowance):
            blocking = block(
                config.rule, left, right, telemetry=config.telemetry
            )
            return self.run_from_blocking(blocking, left, right)

    def run_from_blocking(
        self,
        blocking: BlockingResult,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> LinkageResult:
        """Run the selection, SMC and leftover steps on a blocking result.

        Parameter sweeps reuse one blocking result across heuristics and
        allowances (blocking does not depend on either), which is also how
        the paper structures its experiments; its code tables, and so
        their expected-distance matrices, are shared by every such run.
        *blocking* must come from :func:`~repro.linkage.blocking.block` on
        *left* and *right* under a rule with the configured rule's
        attributes, or :class:`ConfigurationError` is raised.

        Both relations are adopted by in-process
        :class:`~repro.protocol.DataHolder` objects, which reuse each
        relation's encoded columns across runs, and the querying party's
        :func:`~repro.protocol.link_unknown` runs the steps through an
        in-process :class:`~repro.protocol.SMCBridge`; each holder then
        resolves its side of the matched handles into ``smc_matches``. The
        oracle must bill exactly the leased record pairs; anything else is
        a :class:`PipelineError`.
        """
        config = self.config
        telemetry = config.telemetry
        tables = blocking.tables
        if tables.left is not left or tables.right is not right:
            raise ConfigurationError(
                "the blocking result was computed for other relations"
            )
        if tables.rule.attributes != config.rule.attributes:
            raise ConfigurationError(
                f"the blocking result was computed under {tables.rule!r}, "
                f"not the configured {config.rule!r}"
            )
        allowance_pairs = math.floor(config.allowance * blocking.total_pairs)
        with telemetry.span(
            "linkage.link",
            heuristic=config.heuristic.name,
            strategy=config.strategy.name,
            allowance_pairs=allowance_pairs,
        ) as link_span:
            holders = DataHolder.adopt("left", left), DataHolder.adopt("right", right)
            bridge = SMCBridge(*holders, config.rule, config.oracle_factory)
            oracle = bridge.oracle
            if telemetry.enabled:
                oracle.attach_telemetry(telemetry)
            try:
                link = link_unknown(
                    tables,
                    blocking.unknown,
                    bridge,
                    config.heuristic,
                    config.strategy,
                    allowance_pairs,
                    telemetry,
                )
            except ProtocolError as error:
                raise PipelineError(str(error)) from error
            if telemetry.enabled:
                oracle.publish_metrics()
        unknown = blocking.unknown
        matches = np.empty((len(link.handles), 2), dtype=np.intp)
        for side, holder in enumerate(holders):
            matches[:, side] = holder.resolve(link.handles[:, side])
        return LinkageResult(
            total_pairs=blocking.total_pairs,
            blocking=blocking,
            allowance_pairs=allowance_pairs,
            smc_invocations=link.invocations,
            smc_matches=matches,
            sample=link.sample,
            leftovers=unknown[link.order[link.leftover_start :]],
            claimed=unknown[link.claimed],
            attribute_comparisons=oracle.attribute_comparisons,
            elapsed_seconds=link_span.duration,
        )

