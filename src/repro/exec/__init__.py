"""repro.exec — pluggable execution backends for the platform.

The coordinator plans each round (all randomness serialized, see
``repro.exec.plan``), a backend executes it (serial or process;
see ``repro.exec.backends``), and sharded collectors ship
batched traces plus execution-tree edge deltas back for hive ingest
(``repro.exec.batch``, ``repro.exec.shard``). Coordinator state reaches
the shards as epoch-stamped ``publish(SyncDelta)`` calls — the
session-oriented protocol in ``repro.exec.session``. Reports are
bit-identical across backends for a fixed seed; see
``docs/PARALLEL.md``.
"""

from repro.exec.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    make_backend,
    resolve_backend_name,
    resolve_workers,
)
from repro.exec.batch import (
    BatchAccumulator,
    BatchEntry,
    ReplayProduct,
    RunRecord,
    ShardResult,
    TraceBatch,
    decode_batch,
    encode_batch,
)
from repro.exec.plan import PlannedRun, RoundPlan, partition_runs
from repro.exec.session import (
    SessionLog,
    SyncDelta,
    pack_result,
    pack_runs,
    unpack_result,
    unpack_runs,
)
from repro.exec.shard import Shard

__all__ = [
    "BACKEND_NAMES", "ExecutorBackend",
    "SerialBackend", "ProcessBackend",
    "make_backend", "resolve_backend_name", "resolve_workers",
    "BatchAccumulator", "BatchEntry", "ReplayProduct", "RunRecord",
    "ShardResult", "TraceBatch", "encode_batch", "decode_batch",
    "PlannedRun", "RoundPlan", "partition_runs",
    "SessionLog", "SyncDelta",
    "pack_runs", "unpack_runs", "pack_result", "unpack_result",
    "Shard",
]
