"""The hybrid private record linkage orchestrator (the paper's method).

:class:`HybridLinkage` wires the whole pipeline together:

1. run the blocking step over the two anonymized relations;
2. order the unknown class pairs with the configured selection heuristic;
3. spend the SMC allowance comparing record pairs inside those class
   pairs, in order, through the configured :class:`SMCOracle`;
4. hand whatever the allowance never reached to the leftover strategy.

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
from repro.errors import ConfigurationError, PipelineError
from repro.linkage.blocking import BlockingResult, ClassPair, block
from repro.linkage.columns import BlockLease, RecordColumns, plan_leases
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import MinAvgFirst, SelectionHeuristic
from repro.linkage.strategies import (
    LeftoverStrategy,
    MaximizePrecision,
    SMCObservation,
)
from repro.obs import NOOP_TELEMETRY, Telemetry

__all__ = [
    "HybridLinkage",
    "LinkageConfig",
    "LinkageResult",
    "OracleFactory",
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
        if not 0.0 <= self.allowance <= 1.0:
            raise ConfigurationError(
                f"SMC allowance {self.allowance} must be a fraction in [0, 1]"
            )
        if (
            self.strategy.requires_random_selection
            and self.heuristic.name != "random"
        ):
            raise ConfigurationError(
                f"strategy {self.strategy.name!r} trains on the SMC sample and "
                "requires the 'random' selection heuristic (paper Section V-B)"
            )


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
        whole run lands in the trace as ``linkage.run`` with one child
        span per phase (blocking, selection, SMC, leftovers) and kernel-
        or oracle-level grandchildren below those.
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
            with telemetry.span(
                "linkage.select", heuristic=config.heuristic.name
            ):
                ordered = config.heuristic.order(
                    blocking.unknown, config.rule, left, right,
                    telemetry=telemetry,
                )
            smc = _compare_leases(config, ordered, allowance_pairs, left, right)
            claimed = _claim_leftovers(
                config, smc.leftovers, smc.observations, left, right
            )
        return LinkageResult(
            total_pairs=blocking.total_pairs,
            blocking=blocking,
            allowance_pairs=allowance_pairs,
            smc_invocations=smc.invocations,
            smc_matched_pairs=smc.smc_matched,
            observations=smc.observations,
            leftovers=smc.leftovers,
            claimed=list(claimed),
            attribute_comparisons=smc.attribute_comparisons,
            elapsed_seconds=link_span.duration,
        )


@dataclass
class _SMCOutcome:
    """What the SMC step hands the leftover step and the result."""

    observations: list[SMCObservation] = field(default_factory=list)
    smc_matched: list[tuple[int, int]] = field(default_factory=list)
    leftovers: list[ClassPair] = field(default_factory=list)
    invocations: int = 0
    attribute_comparisons: int = 0


def _compare_leases(
    config: LinkageConfig,
    ordered: list[ClassPair],
    allowance_pairs: int,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
) -> _SMCOutcome:
    """Spend the allowance comparing record pairs, in order.

    The allowance becomes greedy prefix budget leases over the ordered
    class pairs (:func:`~repro.linkage.columns.plan_leases`); both sources
    are encoded once into columns and the oracle runs the leases in order,
    one ``compare_block`` call each. The oracle must bill exactly the
    leased record pairs; anything else is a :class:`PipelineError`.
    """
    telemetry = config.telemetry
    takes, granted = plan_leases([pair.size for pair in ordered], allowance_pairs)
    leased = ordered[: len(takes)]
    outcome = _SMCOutcome()
    # Leftover order: the one possibly-partial pair (always the last
    # lease), then the class pairs the allowance never reached.
    if takes and takes[-1] < leased[-1].size:
        outcome.leftovers.append(leased[-1])
    outcome.leftovers.extend(ordered[len(takes):])
    left_columns = RecordColumns.from_relation(left.source, config.rule.names)
    right_columns = RecordColumns.from_relation(right.source, config.rule.names)
    leases = [
        BlockLease(
            np.array(pair.left.indices, dtype=np.intp),
            np.array(pair.right.indices, dtype=np.intp),
            take,
        )
        for pair, take in zip(leased, takes)
    ]
    oracle = config.oracle_factory(config.rule, left.source.schema)
    if telemetry.enabled:
        oracle.attach_telemetry(telemetry)
    backend = type(oracle).__name__
    with telemetry.span("linkage.smc", backend=backend) as smc_span:
        with telemetry.span("oracle.compare", backend=backend):
            # One lease per call: only one lease's offsets are alive at a
            # time.
            matched = (
                oracle.compare_block(left_columns, right_columns, [lease])[0]
                for lease in leases
            )
            spent = 0
            for position, (pair, take, offsets) in enumerate(
                zip(leased, takes, matched)
            ):
                left_indices = pair.left.indices
                right_indices = pair.right.indices
                outcome.smc_matched.extend(
                    (left_indices[left_offset], right_indices[right_offset])
                    for left_offset, right_offset in offsets
                )
                outcome.observations.append(
                    SMCObservation(pair, take, len(offsets))
                )
                spent += take
                telemetry.histogram("smc.class_pair_take").observe(take)
                telemetry.emit_progress(
                    "smc",
                    spent,
                    allowance_pairs,
                    unit="pairs",
                    matches=len(outcome.smc_matched),
                    class_pairs=position + 1,
                )
        outcome.invocations = oracle.invocations
        outcome.attribute_comparisons = oracle.attribute_comparisons
        smc_span.annotate(
            invocations=outcome.invocations,
            matches=len(outcome.smc_matched),
        )
    if outcome.invocations != granted:
        raise PipelineError(
            f"the oracle billed {outcome.invocations} invocations but the "
            f"budget leases granted {granted} record pairs"
        )
    if telemetry.enabled:
        oracle.publish_metrics()
        telemetry.counter("smc.allowance_pairs").add(allowance_pairs)
        telemetry.counter("smc.matched_pairs").add(len(outcome.smc_matched))
    return outcome


def _claim_leftovers(
    config: LinkageConfig,
    leftovers: list[ClassPair],
    observations: list[SMCObservation],
    left: GeneralizedRelation,
    right: GeneralizedRelation,
) -> list[ClassPair]:
    """Hand what the allowance never reached to the leftover strategy."""
    telemetry = config.telemetry
    strategy = config.strategy
    with telemetry.span("linkage.leftovers", strategy=strategy.name):
        claimed = strategy.claim_matches(
            leftovers, observations, config.rule, left, right,
            telemetry=telemetry,
        )
    if telemetry.enabled:
        telemetry.counter("leftovers.class_pairs").add(len(leftovers))
        telemetry.counter("leftovers.claimed_class_pairs").add(len(claimed))
    return claimed
