"""Sharded parallel analysis engine.

Splits a dataset into shards (:mod:`repro.engine.shard`), maps each
shard to a mergeable partial state (:mod:`repro.engine.state`),
runs the map phase on a serial/thread/process backend and folds the
states back together in deterministic plan order
(:mod:`repro.engine.executor`), checkpointing partials so interrupted
runs resume (:mod:`repro.engine.checkpoint`).

See ``docs/engine.md`` for the flow diagram and error bounds.
"""

from .checkpoint import CheckpointError, CheckpointStore
from .executor import (
    BACKENDS,
    EngineError,
    RunReport,
    ShardExecutor,
    ShardResult,
    run_shards,
)
from .flowstate import FlowCollectionState, PeriodicityDetectionState
from .ngramstate import NgramEvalState, NgramSequenceState
from .shard import (
    FileShard,
    ItemShard,
    MemoryShard,
    Shard,
    plan_directory_shards,
    plan_item_shards,
    plan_memory_shards,
)
from .sketches import HyperLogLog, stable_hash64
from .state import CharacterizationState

__all__ = [
    "BACKENDS",
    "CharacterizationState",
    "CheckpointError",
    "CheckpointStore",
    "EngineError",
    "FileShard",
    "FlowCollectionState",
    "HyperLogLog",
    "ItemShard",
    "MemoryShard",
    "NgramEvalState",
    "NgramSequenceState",
    "PeriodicityDetectionState",
    "RunReport",
    "Shard",
    "ShardExecutor",
    "ShardResult",
    "plan_directory_shards",
    "plan_item_shards",
    "plan_memory_shards",
    "run_shards",
    "stable_hash64",
]
