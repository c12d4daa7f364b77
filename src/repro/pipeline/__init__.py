"""Staged pipeline core: stages, sharding, and pluggable executors.

The package factors the hybrid method's orchestration out of
:class:`repro.linkage.hybrid.HybridLinkage` into explicit pieces:

- :class:`RunContext` — config + telemetry + execution plan + budget
  ledger, shared by all stages of one run;
- :class:`BlockStage` / :class:`SelectStage` / :class:`SMCStage` /
  :class:`LeftoverStage` — the paper's four phases, each serial- and
  shard-capable;
- :class:`Pipeline` — composes the stages; ``HybridLinkage`` is a thin
  facade over it;
- :class:`Partitioner` — deterministic contiguous sharding of the
  class-pair space;
- executors ``serial`` / ``thread`` / ``process`` — pluggable backends
  with an order-preserving ``map``, so every executor × shard-count
  combination reconciles to a bit-identical result (see DESIGN.md §9).
"""

from .context import BudgetLedger, RunContext
from .executors import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
    validate_executor,
    validate_shards,
)
from .partition import Partitioner
from .runner import Pipeline
from .stages import (
    BlockStage,
    LeftoverStage,
    SelectStage,
    SMCOutcome,
    SMCStage,
    Stage,
)

__all__ = [
    "EXECUTORS",
    "BlockStage",
    "BudgetLedger",
    "Executor",
    "LeftoverStage",
    "Partitioner",
    "Pipeline",
    "ProcessExecutor",
    "RunContext",
    "SMCOutcome",
    "SMCStage",
    "SelectStage",
    "SerialExecutor",
    "Stage",
    "ThreadExecutor",
    "resolve_executor",
    "validate_executor",
    "validate_shards",
]
