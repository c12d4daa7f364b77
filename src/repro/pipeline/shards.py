"""Picklable shard tasks and their worker functions.

Every sharded stage boils down to the same shape: the parent slices its
work with the :class:`~repro.pipeline.partition.Partitioner`, builds one
frozen task object per slice, maps a module-level worker function over
the tasks through an :class:`~repro.pipeline.executors.Executor`, and
merges the results in shard order. Tasks and workers live here, at
module level, so the ``process`` backend can pickle them by reference.

Two rules keep every merge bit-identical to the serial path:

- workers return **positional** data (class indices, record indices,
  plain floats/ints) — never live ``ClassPair``/``EquivalenceClass``
  objects. Crossing a process boundary would otherwise hand the parent
  *copies*, and the library addresses observations by object identity
  (``LinkageResult`` indexes by ``id(pair)``). The parent rebuilds rich
  objects from its own class lists.
- workers are handed a pre-resolved engine (``"python"``/``"numpy"``),
  decided once by the parent from the *global* workload size, so a shard
  never flips engines just because its slice is small. (The engines are
  bit-identical anyway — this keeps the decision observable and single.)

Workers run with no telemetry (the span stack is not thread-safe) and
instead self-time with ``perf_counter``; the parent folds the seconds
into shard histograms after the gather.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.linkage.blocking import (
    BlockingResult,
    ClassPair,
    ExpectedDistanceCache,
    _block_numpy,
    _block_python,
)
from repro.linkage.columns import BlockLease, RecordColumns


@dataclass(frozen=True)
class ShardRelationView:
    """The slice of a relation a blocking shard actually reads.

    The kernels touch only ``.qids`` and ``.classes`` of a
    :class:`~repro.anonymize.base.GeneralizedRelation`; shipping just
    those keeps process-executor pickles small and sidesteps
    ``GeneralizedRelation``'s exact-coverage validation (a shard view
    deliberately covers only its slice of records).
    """

    qids: tuple[str, ...]
    classes: tuple


def relation_view(relation, classes=None) -> ShardRelationView:
    """Build a :class:`ShardRelationView` over *relation* (or a slice)."""
    return ShardRelationView(
        qids=tuple(relation.qids),
        classes=tuple(relation.classes if classes is None else classes),
    )


# --------------------------------------------------------------------------
# Blocking shards (HybridLinkage path: GeneralizedRelation class pairs)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockShardTask:
    """One contiguous slice of left classes against all right classes."""

    rule: object
    left: ShardRelationView
    right: ShardRelationView
    left_start: int
    engine: str
    chunk_cells: int


@dataclass(frozen=True)
class BlockShardResult:
    """Positional blocking verdicts for one shard."""

    matched: list[tuple[int, int]]
    unknown: list[tuple[int, int]]
    nonmatch_pairs: int
    seconds: float


def run_block_shard(task: BlockShardTask) -> BlockShardResult:
    """Run one blocking shard and translate its verdicts to indices.

    The shard reuses the serial kernels verbatim on its left-class slice;
    because both kernels emit matched/unknown pairs in row-major order
    and shards are contiguous left slices, concatenating shard outputs in
    shard order reproduces the serial append order exactly.
    """
    started = time.perf_counter()
    scratch = BlockingResult(rule=task.rule, total_pairs=0, engine=task.engine)
    if task.engine == "numpy":
        _block_numpy(
            task.rule, task.left, task.right, scratch, task.chunk_cells
        )
    else:
        _block_python(task.rule, task.left, task.right, scratch)
    left_index = {
        id(eq_class): task.left_start + offset
        for offset, eq_class in enumerate(task.left.classes)
    }
    right_index = {
        id(eq_class): offset
        for offset, eq_class in enumerate(task.right.classes)
    }
    return BlockShardResult(
        matched=[
            (left_index[id(pair.left)], right_index[id(pair.right)])
            for pair in scratch.matched
        ],
        unknown=[
            (left_index[id(pair.left)], right_index[id(pair.right)])
            for pair in scratch.unknown
        ],
        nonmatch_pairs=scratch.nonmatch_pairs,
        seconds=time.perf_counter() - started,
    )


# --------------------------------------------------------------------------
# Selection shards (score a slice of the unknown pair list)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreShardTask:
    """Score a contiguous slice of unknown class pairs.

    Pairs travel as ``(left_class_index, right_class_index)`` into the
    full views, so the worker never depends on ``ClassPair`` object
    identity surviving a pickle round trip.
    """

    rule: object
    left: ShardRelationView
    right: ShardRelationView
    pair_indices: list[tuple[int, int]]
    heuristic: object
    engine: str


@dataclass(frozen=True)
class ScoreShardResult:
    """Scores for one slice, in slice order."""

    scores: list[float]
    seconds: float


def run_score_shard(task: ScoreShardTask) -> ScoreShardResult:
    """Score one slice of class pairs with the pre-resolved engine.

    Scores are engine-independent bit for bit (see
    :mod:`repro.linkage.codes`), so the parent can sort merged shard
    scores with the exact serial sort key.
    """
    started = time.perf_counter()
    if task.engine == "numpy":
        import numpy as np

        from repro.linkage.codes import CodeTables

        tables = CodeTables(task.rule, task.left, task.right)
        left_idx = np.array(
            [pair[0] for pair in task.pair_indices], dtype=np.intp
        )
        right_idx = np.array(
            [pair[1] for pair in task.pair_indices], dtype=np.intp
        )
        matrix = tables.expected_for_pairs(left_idx, right_idx)
        scores = task.heuristic.score_array(matrix).tolist()
    else:
        cache = ExpectedDistanceCache(task.rule, task.left, task.right)
        left_classes = task.left.classes
        right_classes = task.right.classes
        scores = [
            task.heuristic.score(
                cache.vector(
                    ClassPair(left_classes[left_pos], right_classes[right_pos])
                )
            )
            for left_pos, right_pos in task.pair_indices
        ]
    return ScoreShardResult(
        scores=scores, seconds=time.perf_counter() - started
    )


# --------------------------------------------------------------------------
# SMC shards (compare leased record pairs through a per-shard oracle)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SMCShardTask:
    """A contiguous run of leases plus everything an oracle needs."""

    oracle_factory: Callable
    rule: object
    schema: object
    left: RecordColumns
    right: RecordColumns
    leases: tuple[BlockLease, ...]


@dataclass(frozen=True)
class SMCShardResult:
    """Per-lease matching offsets plus the shard oracle's invoice."""

    #: Per lease, in lease order: the matching (left, right) offsets
    #: within the lease's rows, in row-major order.
    matched: list[list[tuple[int, int]]]
    invocations: int
    attribute_comparisons: int
    seconds: float


def run_smc_shard(task: SMCShardTask) -> SMCShardResult:
    """Run one shard's leases through a freshly built oracle.

    Each shard bills its own oracle; the parent sums the invoices, which
    equals the serial single-oracle invoice exactly because
    ``compare_block`` charges per record pair taken.
    """
    started = time.perf_counter()
    oracle = task.oracle_factory(task.rule, task.schema)
    matched = oracle.compare_block(task.left, task.right, list(task.leases))
    return SMCShardResult(
        matched=matched,
        invocations=oracle.invocations,
        attribute_comparisons=oracle.attribute_comparisons,
        seconds=time.perf_counter() - started,
    )


def plan_leases(
    sized_items: Sequence[int], budget: int
) -> tuple[list[int], int]:
    """Greedy prefix budget leases over item sizes.

    Returns ``(takes, consumed)`` where ``takes[i] = min(remaining,
    sized_items[i])`` stops as soon as the budget is exhausted —
    ``len(takes)`` items received a (possibly partial, only ever the
    last) lease and the rest received nothing. This is exactly the
    serial loop's spending order, expressed as data so shards can spend
    the grants independently.
    """
    takes: list[int] = []
    remaining = budget
    for size in sized_items:
        if remaining <= 0:
            break
        take = min(remaining, size)
        takes.append(take)
        remaining -= take
    return takes, budget - remaining
