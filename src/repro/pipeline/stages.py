"""The pipeline's stages: block, select, SMC, leftovers.

Each stage wraps one phase of the paper's hybrid method behind a
``run(context, ...)`` method. With ``shards == 1`` a stage executes the
exact serial code path the library has always had — same kernels, same
spans, same counters — so the pipeline refactor is invisible to
single-shard callers. With ``shards > 1`` it slices its work through the
context's :class:`~repro.pipeline.partition.Partitioner`, maps the
module-level workers of :mod:`repro.pipeline.shards` over the context's
executor, and merges in shard order.

The reconciliation invariant (DESIGN.md §9): for a fixed configuration,
every ``(executor, shards)`` combination produces a bit-identical
result. The pieces that guarantee it:

- shards are contiguous, in-order slices, so concatenating shard outputs
  reproduces the serial row-major orders exactly;
- engines are resolved once from the global workload, never per shard;
- scores are engine- and shard-independent bit for bit, and the parent
  applies the serial sort key to the merged scores;
- the SMC budget is granted as greedy prefix leases
  (:func:`~repro.pipeline.shards.plan_leases`) and the
  :class:`~repro.pipeline.context.BudgetLedger` cross-checks the shard
  oracles' invoices against the grants after the merge.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.anonymize.base import GeneralizedRelation
from repro.errors import PipelineError
from repro.linkage.blocking import (
    DEFAULT_CHUNK_CELLS,
    BlockingResult,
    ClassPair,
    apply_synthetic_slowdown,
    block,
    check_rule_covers_qids,
    publish_blocking_metrics,
    resolve_engine,
)
from repro.linkage.columns import BlockLease, RecordColumns
from repro.linkage.heuristics import MinAvgFirst, average_expected_scores
from repro.linkage.strategies import SMCObservation

from .context import RunContext
from .shards import (
    BlockShardTask,
    ScoreShardTask,
    SMCShardTask,
    plan_leases,
    relation_view,
    run_block_shard,
    run_score_shard,
    run_smc_shard,
)


class Stage(abc.ABC):
    """One phase of the hybrid method, serial- and shard-capable."""

    name: str = "abstract"

    @abc.abstractmethod
    def run(self, context: RunContext, *args, **kwargs):
        """Execute the stage under *context*'s execution plan."""


class BlockStage(Stage):
    """The blocking step over two anonymized relations."""

    name = "block"

    def run(
        self,
        context: RunContext,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> BlockingResult:
        config = context.config
        if not context.sharded or len(left.classes) < 2:
            return block(
                config.rule, left, right,
                engine=config.engine, telemetry=context.telemetry,
            )
        return self._run_sharded(context, left, right)

    def _run_sharded(
        self,
        context: RunContext,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> BlockingResult:
        config = context.config
        telemetry = context.telemetry
        rule = config.rule
        check_rule_covers_qids(rule, left, right)
        class_pairs = len(left.classes) * len(right.classes)
        resolved = resolve_engine(config.engine, class_pairs)
        result = BlockingResult(
            rule=rule,
            total_pairs=len(left.source) * len(right.source),
            engine=resolved,
        )
        with telemetry.span(
            "blocking",
            engine=resolved,
            class_pairs=class_pairs,
            executor=context.executor_name,
            shards=context.shards,
        ) as span:
            with telemetry.span(f"blocking.kernel.{resolved}"):
                right_view = relation_view(right)
                tasks = [
                    BlockShardTask(
                        rule=rule,
                        left=relation_view(left, left.classes[start:stop]),
                        right=right_view,
                        left_start=start,
                        engine=resolved,
                        chunk_cells=DEFAULT_CHUNK_CELLS,
                    )
                    for start, stop in context.partitioner.slices(
                        len(left.classes)
                    )
                ]
                shard_results = context.executor.map(run_block_shard, tasks)
                left_classes = left.classes
                right_classes = right.classes
                for shard_index, shard in enumerate(shard_results):
                    result.matched.extend(
                        ClassPair(left_classes[li], right_classes[ri])
                        for li, ri in shard.matched
                    )
                    result.unknown.extend(
                        ClassPair(left_classes[li], right_classes[ri])
                        for li, ri in shard.unknown
                    )
                    result.nonmatch_pairs += shard.nonmatch_pairs
                    telemetry.histogram(
                        "pipeline.block.shard_seconds"
                    ).observe(shard.seconds)
                    telemetry.emit_progress(
                        "blocking", shard_index + 1, len(tasks), unit="shards"
                    )
            apply_synthetic_slowdown(span)
        result.elapsed_seconds = span.duration
        publish_blocking_metrics(telemetry, result, class_pairs, resolved)
        return result


def sharded_scores(
    context: RunContext,
    rule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    pair_positions: list[tuple[int, int]],
    scorer,
    resolved: str,
) -> list[float]:
    """Score class pairs (given as class-index pairs) across shards.

    *scorer* is a stateless :class:`SelectionHeuristic`; *resolved* the
    globally resolved engine. Scores come back concatenated in input
    order and are bit-identical to the serial scoring paths.
    """
    left_view = relation_view(left)
    right_view = relation_view(right)
    tasks = [
        ScoreShardTask(
            rule=rule,
            left=left_view,
            right=right_view,
            pair_indices=chunk,
            heuristic=scorer,
            engine=resolved,
        )
        for chunk in context.partitioner.split(pair_positions)
    ]
    scores: list[float] = []
    for shard in context.executor.map(run_score_shard, tasks):
        scores.extend(shard.scores)
        context.telemetry.histogram(
            "pipeline.select.shard_seconds"
        ).observe(shard.seconds)
    return scores


def _class_positions(
    pairs,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
) -> list[tuple[int, int]] | None:
    """Class-index pairs for *pairs*, or ``None`` on foreign classes."""
    left_index = {eq_class: i for i, eq_class in enumerate(left.classes)}
    right_index = {eq_class: i for i, eq_class in enumerate(right.classes)}
    positions: list[tuple[int, int]] = []
    for pair in pairs:
        left_position = left_index.get(pair.left)
        right_position = right_index.get(pair.right)
        if left_position is None or right_position is None:
            return None
        positions.append((left_position, right_position))
    return positions


class SelectStage(Stage):
    """Order the unknown class pairs for SMC consumption."""

    name = "select"

    def run(
        self,
        context: RunContext,
        unknown: list[ClassPair],
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> list[ClassPair]:
        config = context.config
        heuristic = config.heuristic
        telemetry = context.telemetry
        if (
            not context.sharded
            or len(unknown) < 2
            or not getattr(heuristic, "shardable", False)
        ):
            return heuristic.order(
                unknown, config.rule, left, right,
                engine=config.engine, telemetry=telemetry,
            )
        positions = _class_positions(unknown, left, right)
        if positions is None:
            # Foreign classes: no stable shard-addressable positions, so
            # the serial path (with its rendering tie-break) takes over.
            return heuristic.order(
                unknown, config.rule, left, right,
                engine=config.engine, telemetry=telemetry,
            )
        resolved = resolve_engine(config.engine, len(unknown))
        with telemetry.span(
            f"select.score.{resolved}",
            heuristic=heuristic.name,
            pairs=len(unknown),
            executor=context.executor_name,
            shards=context.shards,
        ):
            telemetry.counter("select.pairs_scored").add(len(unknown))
            telemetry.emit_progress(
                "select", 0, len(unknown), unit="pairs", heuristic=heuristic.name
            )
            scores = sharded_scores(
                context, config.rule, left, right, positions, heuristic,
                resolved,
            )
            decorated = [
                (score, pair.size, position, pair)
                for score, position, pair in zip(scores, positions, unknown)
            ]
            decorated.sort(key=lambda item: item[:3])
            telemetry.emit_progress(
                "select",
                len(unknown),
                len(unknown),
                unit="pairs",
                heuristic=heuristic.name,
            )
            return [item[3] for item in decorated]


@dataclass
class SMCOutcome:
    """What the SMC stage hands the leftover stage and the result."""

    observations: list[SMCObservation] = field(default_factory=list)
    smc_matched: list[tuple[int, int]] = field(default_factory=list)
    leftovers: list[ClassPair] = field(default_factory=list)
    invocations: int = 0
    attribute_comparisons: int = 0


class SMCStage(Stage):
    """Spend the allowance comparing record pairs, in order.

    The allowance becomes greedy prefix budget leases over the ordered
    class pairs (:func:`~repro.pipeline.shards.plan_leases`); both sources
    are encoded once into columns and the oracle runs the leases in order,
    one ``compare_block`` call each (one call per shard when sharded).
    """

    name = "smc"

    def run(
        self,
        context: RunContext,
        ordered: list[ClassPair],
        allowance_pairs: int,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> SMCOutcome:
        config = context.config
        telemetry = context.telemetry
        ledger = context.open_ledger(allowance_pairs)
        takes, _ = plan_leases([pair.size for pair in ordered], allowance_pairs)
        ledger.grant(takes)
        leased = ordered[: len(takes)]
        outcome = SMCOutcome()
        # Leftover order: the one possibly-partial pair (always the last
        # lease), then the class pairs the allowance never reached.
        if takes and takes[-1] < leased[-1].size:
            outcome.leftovers.append(leased[-1])
        outcome.leftovers.extend(ordered[len(takes):])
        left_columns = RecordColumns.from_relation(left.source, config.rule.names)
        right_columns = RecordColumns.from_relation(
            right.source, config.rule.names
        )
        leases = [
            BlockLease(
                np.array(pair.left.indices, dtype=np.intp),
                np.array(pair.right.indices, dtype=np.intp),
                take,
            )
            for pair, take in zip(leased, takes)
        ]
        if context.sharded:
            backend = getattr(
                config.oracle_factory,
                "__name__",
                type(config.oracle_factory).__name__,
            )
            attrs = {"executor": context.executor_name, "shards": context.shards}
        else:
            oracle = config.oracle_factory(config.rule, left.source.schema)
            if telemetry.enabled:
                oracle.attach_telemetry(telemetry)
            backend = type(oracle).__name__
            attrs = {}
        with telemetry.span("linkage.smc", backend=backend, **attrs) as smc_span:
            with telemetry.span("oracle.compare", backend=backend):
                if context.sharded:
                    matched = self._compare_sharded(
                        context, ledger, outcome, left.source.schema,
                        left_columns, right_columns, leases,
                    )
                else:
                    # One lease per call: only one lease's offsets are
                    # alive at a time.
                    matched = (
                        oracle.compare_block(
                            left_columns, right_columns, [lease]
                        )[0]
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
            if not context.sharded:
                ledger.bill(oracle.invocations)
                outcome.invocations = oracle.invocations
                outcome.attribute_comparisons = oracle.attribute_comparisons
            smc_span.annotate(
                invocations=outcome.invocations,
                matches=len(outcome.smc_matched),
            )
        ledger.reconcile()
        if telemetry.enabled:
            if context.sharded:
                # Mirror SMCOracle.publish_metrics for the summed shard
                # oracles.
                telemetry.counter("smc.record_pair_comparisons").set(
                    outcome.invocations
                )
                telemetry.counter("smc.attribute_comparisons").set(
                    outcome.attribute_comparisons
                )
            else:
                oracle.publish_metrics()
            telemetry.counter("smc.allowance_pairs").add(allowance_pairs)
            telemetry.counter("smc.matched_pairs").add(len(outcome.smc_matched))
        return outcome

    def _compare_sharded(
        self, context, ledger, outcome, schema, left_columns, right_columns,
        leases,
    ) -> list[list[tuple[int, int]]]:
        """Run contiguous groups of *leases* on the executor, in order."""
        config = context.config
        tasks = [
            SMCShardTask(
                oracle_factory=config.oracle_factory,
                rule=config.rule,
                schema=schema,
                left=left_columns,
                right=right_columns,
                leases=tuple(group),
            )
            for group in context.partitioner.split(leases)
        ]
        matched: list[list[tuple[int, int]]] = []
        for shard in context.executor.map(run_smc_shard, tasks):
            outcome.invocations += shard.invocations
            outcome.attribute_comparisons += shard.attribute_comparisons
            ledger.bill(shard.invocations)
            context.telemetry.histogram(
                "pipeline.smc.shard_seconds"
            ).observe(shard.seconds)
            matched.extend(shard.matched)
        if len(matched) != len(leases):
            raise PipelineError(
                f"shards answered {len(matched)} of {len(leases)} granted "
                "leases"
            )
        return matched


class LeftoverStage(Stage):
    """Hand what the allowance never reached to the leftover strategy."""

    name = "leftovers"

    def run(
        self,
        context: RunContext,
        leftovers: list[ClassPair],
        observations: list[SMCObservation],
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> list[ClassPair]:
        config = context.config
        telemetry = context.telemetry
        strategy = config.strategy
        kwargs = {}
        if context.sharded and getattr(strategy, "uses_scoring", False):
            kwargs["scorer"] = self._sharded_scorer(context, left, right)
        with telemetry.span("linkage.leftovers", strategy=strategy.name):
            claimed = strategy.claim_matches(
                leftovers, observations, config.rule, left, right,
                engine=config.engine, telemetry=telemetry, **kwargs,
            )
        if telemetry.enabled:
            telemetry.counter("leftovers.class_pairs").add(len(leftovers))
            telemetry.counter("leftovers.claimed_class_pairs").add(
                len(claimed)
            )
        return claimed

    def _sharded_scorer(self, context, left, right):
        """A drop-in for ``average_expected_scores`` that shards the work."""
        config = context.config

        def scorer(pairs) -> list[float]:
            if not pairs:
                return []
            positions = _class_positions(pairs, left, right)
            if positions is None:
                return average_expected_scores(
                    pairs, config.rule, left, right,
                    config.engine, context.telemetry,
                )
            context.telemetry.counter("select.pairs_scored").add(len(pairs))
            resolved = resolve_engine(config.engine, len(pairs))
            return sharded_scores(
                context, config.rule, left, right, positions, MinAvgFirst(),
                resolved,
            )

        return scorer
