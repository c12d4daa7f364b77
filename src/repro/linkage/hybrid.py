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
from repro.linkage.blocking import BlockingResult, ClassPair, block
from repro.linkage.codes import CodeTables
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import MinAvgFirst, SelectionHeuristic
from repro.linkage.strategies import (
    LeftoverStrategy,
    MaximizePrecision,
    check_selection,
)
from repro.obs import NOOP_TELEMETRY, Telemetry
from repro.protocol import DataHolder, SMCBridge, link_unknown

__all__ = [
    "HybridLinkage",
    "LinkageConfig",
    "LinkageResult",
    "OracleFactory",
    "SMCObservation",
]

OracleFactory = Callable[[MatchRule, Schema], SMCOracle]


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


@dataclass(frozen=True)
class SMCObservation:
    """What the SMC step learned about one class pair.

    ``compared`` record pairs were run through the protocol (possibly fewer
    than ``pair.size`` when the allowance ran out mid-pair) and ``matches``
    of them matched.
    """

    pair: ClassPair
    compared: int
    matches: int


@dataclass
class LinkageResult:
    """Outcome of one hybrid linkage run."""

    total_pairs: int
    blocking: BlockingResult
    allowance_pairs: int
    smc_invocations: int
    smc_matched_pairs: list[tuple[int, int]]
    observations: list[SMCObservation]
    leftovers: list[ClassPair]
    claimed: list[ClassPair]
    attribute_comparisons: int = 0
    elapsed_seconds: float = 0.0
    _observations_by_id: dict[int, SMCObservation] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._observations_by_id = {
            id(observation.pair): observation
            for observation in self.observations
        }

    @property
    def blocked_match_pairs(self) -> int:
        """Record pairs matched by blocking (sound, hence true matches)."""
        return self.blocking.matched_pairs

    @property
    def smc_match_count(self) -> int:
        """Matches the SMC step verified."""
        return len(self.smc_matched_pairs)

    @property
    def verified_match_pairs(self) -> int:
        """All matches known to be true: blocking-M plus SMC hits."""
        return self.blocked_match_pairs + self.smc_match_count

    def _observation_index(self) -> dict[int, SMCObservation]:
        return self._observations_by_id

    def compared_in(self, pair: ClassPair) -> int:
        """Record pairs of *pair* the SMC step actually compared."""
        observation = self._observation_index().get(id(pair))
        return observation.compared if observation else 0

    def observed_matches_in(self, pair: ClassPair) -> int:
        """Matches the SMC step found inside *pair*."""
        observation = self._observation_index().get(id(pair))
        return observation.matches if observation else 0

    @property
    def leftover_pairs(self) -> int:
        """Record pairs never compared nor decided by blocking."""
        return sum(pair.size - self.compared_in(pair) for pair in self.leftovers)

    @property
    def claimed_pairs(self) -> int:
        """Unverified record pairs the strategy claims as matches."""
        return sum(pair.size - self.compared_in(pair) for pair in self.claimed)

    @property
    def reported_match_pairs(self) -> int:
        """What the querying party receives: verified plus claimed."""
        return self.verified_match_pairs + self.claimed_pairs

    def iter_verified_matches(self) -> Iterator[tuple[int, int]]:
        """Yield verified matching (left_index, right_index) pairs."""
        for pair in self.blocking.matched:
            for left_index in pair.left.indices:
                for right_index in pair.right.indices:
                    yield left_index, right_index
        yield from self.smc_matched_pairs

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
        the paper structures its experiments.

        Both relations are adopted by in-process
        :class:`~repro.protocol.DataHolder` objects, and the querying party's
        :func:`~repro.protocol.link_unknown` runs the steps through an
        in-process :class:`~repro.protocol.SMCBridge`. The oracle must bill
        exactly the leased record pairs; anything else is a
        :class:`PipelineError`.
        """
        config = self.config
        telemetry = config.telemetry
        allowance_pairs = math.floor(config.allowance * blocking.total_pairs)
        with telemetry.span(
            "linkage.link",
            heuristic=config.heuristic.name,
            strategy=config.strategy.name,
            allowance_pairs=allowance_pairs,
        ) as link_span:
            tables = CodeTables(config.rule, left, right)
            unknown = np.column_stack(tables.pair_positions(blocking.unknown))
            bridge = SMCBridge(
                DataHolder.adopt("left", left),
                DataHolder.adopt("right", right),
                config.rule,
                config.oracle_factory,
            )
            oracle = bridge.oracle
            if telemetry.enabled:
                oracle.attach_telemetry(telemetry)
            try:
                link = link_unknown(
                    tables,
                    unknown,
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
        ordered = [blocking.unknown[row] for row in link.order.tolist()]
        observations = []
        smc_matched = []
        for pair, lease, offsets in zip(ordered, link.leases, link.offsets):
            left_indices = pair.left.indices
            right_indices = pair.right.indices
            smc_matched.extend(
                (left_indices[left_offset], right_indices[right_offset])
                for left_offset, right_offset in offsets
            )
            observations.append(SMCObservation(pair, lease.take, len(offsets)))
            # Free each lease's offsets once mapped: they and the record
            # pairs built from them are then never all alive at once.
            offsets.clear()
        return LinkageResult(
            total_pairs=blocking.total_pairs,
            blocking=blocking,
            allowance_pairs=allowance_pairs,
            smc_invocations=link.invocations,
            smc_matched_pairs=smc_matched,
            observations=observations,
            leftovers=ordered[link.leftover_start :],
            claimed=[blocking.unknown[row] for row in link.claimed.tolist()],
            attribute_comparisons=oracle.attribute_comparisons,
            elapsed_seconds=link_span.duration,
        )
