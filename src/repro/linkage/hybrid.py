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

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.anonymize.base import GeneralizedRelation
from repro.crypto.smc.oracle import CountingPlaintextOracle, SMCOracle
from repro.data.schema import Schema
from repro.errors import ConfigurationError
from repro.linkage.blocking import (
    BlockingResult,
    ClassPair,
    validate_engine,
)
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import MinAvgFirst, SelectionHeuristic
from repro.linkage.strategies import (
    LeftoverStrategy,
    MaximizePrecision,
    SMCObservation,
)
from repro.obs import NOOP_TELEMETRY, Telemetry
from repro.pipeline import Pipeline, validate_executor, validate_shards

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
    engine:
        Cross-product evaluation engine for blocking and class-pair
        scoring: ``"auto"`` (default; numpy above a workload threshold),
        ``"python"`` (scalar reference), or ``"numpy"`` (vectorized
        kernel). Engines are decision- and score-equivalent.
    telemetry:
        A :class:`repro.obs.Telemetry` that records every phase as a
        span and fills the metrics registry (blocking verdict tallies,
        heuristic scoring, SMC and channel costs). Defaults to the
        zero-overhead no-op; telemetry never influences decisions.
    executor:
        Shard execution backend: ``"serial"`` (default), ``"thread"``,
        or ``"process"`` (see :data:`repro.pipeline.EXECUTORS`). Only
        consulted when ``shards > 1``; every backend produces results
        bit-identical to the serial path.
    shards:
        How many shards the pipeline splits the class-pair space into
        (default 1, i.e. the classic serial run).
    """

    rule: MatchRule
    allowance: float = 0.015
    heuristic: SelectionHeuristic = field(default_factory=MinAvgFirst)
    strategy: LeftoverStrategy = field(default_factory=MaximizePrecision)
    oracle_factory: OracleFactory = CountingPlaintextOracle
    engine: str = "auto"
    telemetry: Telemetry = field(default=NOOP_TELEMETRY, repr=False)
    executor: str = "serial"
    shards: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.allowance <= 1.0:
            raise ConfigurationError(
                f"SMC allowance {self.allowance} must be a fraction in [0, 1]"
            )
        validate_engine(self.engine)
        validate_executor(self.executor)
        validate_shards(self.shards)
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
    """Run the paper's hybrid method end to end.

    A thin facade over :class:`repro.pipeline.Pipeline`: every call
    builds a pipeline from the config (which fixes the executor and
    shard count alongside the engine) and delegates. Results are
    bit-identical for every execution plan, so callers can treat this
    class exactly as before the pipeline existed.
    """

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
        return Pipeline.from_config(self.config).run(left, right)

    def run_from_blocking(
        self,
        blocking: BlockingResult,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> LinkageResult:
        """Run the SMC and leftover steps on a precomputed blocking result.

        Parameter sweeps reuse one blocking result across heuristics and
        allowances (blocking does not depend on either), which is also how
        the paper structures its experiments.
        """
        return Pipeline.from_config(self.config).run_from_blocking(
            blocking, left, right
        )
