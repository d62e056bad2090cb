"""repro.exec — pluggable execution backends for the platform.

The coordinator plans each round (all randomness serialized, see
``repro.exec.plan``), a backend executes it (serial or process;
see ``repro.exec.backends``), and sharded collectors ship one trace
batch back per window of the round for the hive to replay and ingest
(``repro.exec.batch``, ``repro.exec.shard``,
``repro.exec.plan.WINDOWS``). Coordinator state reaches
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
    WindowSink,
    make_backend,
    resolve_backend_name,
    resolve_workers,
)
from repro.exec.batch import (
    BatchEntry,
    RunRecord,
    ShardResult,
    TraceBatch,
    decode_batch,
    encode_batch,
    merge_windows,
)
from repro.exec.plan import (
    WINDOWS, PlannedRun, RoundPlan, partition_runs, partition_windows,
)
from repro.exec.session import (
    ResultPacker,
    ResultUnpacker,
    SyncDelta,
    pack_runs,
    unpack_runs,
)
from repro.exec.shard import Shard

__all__ = [
    "BACKEND_NAMES", "ExecutorBackend", "WindowSink",
    "SerialBackend", "ProcessBackend",
    "make_backend", "resolve_backend_name", "resolve_workers",
    "BatchEntry", "RunRecord",
    "ShardResult", "TraceBatch", "encode_batch", "decode_batch",
    "merge_windows",
    "PlannedRun", "RoundPlan", "WINDOWS", "partition_runs",
    "partition_windows",
    "SyncDelta", "ResultPacker", "ResultUnpacker",
    "pack_runs", "unpack_runs",
    "Shard",
]
