"""The session-oriented executor protocol: epochs, deltas, and the
compact wire the process backend speaks.

An executor backend hosts a *session*. Full state crosses the
process boundary exactly once — when a worker (re)spawns — and only
**deltas** cross afterwards:

* coordinator → worker: :class:`SyncDelta`, stamped with a monotonic
  **epoch** by ``publish()``. A delta carries any combination of a new
  hive program, a staged rollout, and constraint-cache facts. The
  process backend keeps every payload it broadcast, in epoch order; a
  worker (re)spawned after a crash applies them all, through the same
  ``Shard.apply_sync`` a live publish takes, and rejoins at the
  current epoch.
* worker → coordinator: a round streams back in windows (see below),
  each a packed :class:`~repro.exec.batch.ShardResult`
  (:class:`ResultPacker` / :class:`ResultUnpacker`): run records as
  flat rows over an interned outcome table, and trace payloads
  interned by value into a payload table (encoded once on the
  worker). Both tables are round-scoped: a window ships only the rows
  no earlier window of the round shipped. Nothing replayed crosses the
  pipe: the hive replays every shipped payload itself.

The messages, in order:

* ``("publish", (epoch, hive_blob, rollout, cache))`` — coordinator →
  worker, between rounds: one stamped delta, its programs encoded.
* ``("round", epoch, packed_runs, ctx, sizes)`` — coordinator → worker:
  the shard's runs in plan order, cut into ``len(sizes)`` windows of
  ``sizes[w]`` runs each (``repro.exec.plan.partition_windows``).
* ``("window", packed_result, counter_deltas)`` — worker → coordinator,
  once per window, empty windows included, sent as soon as the
  window's runs finish. Records, entries, spans, cache facts and the
  worker's counter deltas all ride with their window, so a
  window the coordinator has received is complete on its own, and the
  round is done when the last of the ``len(sizes)`` windows arrives.
* ``("error", traceback)`` — instead of the next window when the
  worker raised.

A worker that dies mid-round (EOF on the pipe) is respawned at the
current epoch and sent only the windows not yet received; see
docs/CHAOS.md for the real-crash contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.batch import BatchEntry, RunRecord, ShardResult, TraceBatch
from repro.exec.plan import PlannedRun
from repro.progmodel.interpreter import Outcome
from repro.progmodel.ir import Program

__all__ = [
    "SyncDelta", "ResultPacker", "ResultUnpacker",
    "pack_runs", "unpack_runs",
]


@dataclass
class SyncDelta:
    """One coordinator-side state change, published to every shard.

    ``epoch`` is 0 when handed to ``publish()``; the backend stamps the
    session's next epoch before applying/broadcasting. Fields are
    orthogonal and may be combined in one publish (one epoch):

    * ``hive_program`` — the hive deployed a fix; shards stamp their
      batches with its version and recycle runs against it.
    * ``rollout`` — ``(program, pod_indices)``: staged rollout onto the
      named pods (version-guarded at the pod, like always).
    * ``cache_entries`` — content-keyed constraint-cache facts
      (``repro.symbolic.cache`` delta) redistributed to every shard.
    """

    epoch: int = 0
    hive_program: Optional[Program] = None
    rollout: Optional[Tuple[Program, Tuple[int, ...]]] = None
    cache_entries: Sequence = ()

    def is_empty(self) -> bool:
        return (self.hive_program is None and self.rollout is None
                and not self.cache_entries)


# -- plan packing --------------------------------------------------------------
#
# A round plan repeats a small set of input dicts over thousands of
# runs (the population is finite); interning them turns the plan pickle
# into a table + index rows. Directives are rare (guidance only) and
# ride in a sparse side table.

def pack_runs(runs: Sequence[PlannedRun]) -> tuple:
    inputs_table: List[Dict[str, int]] = []
    inputs_index: Dict[tuple, int] = {}
    rows: List[tuple] = []
    directives: Dict[int, object] = {}
    for run in runs:
        # Item order is the program's input order for every sampled
        # dict; an equal dict in another order just takes its own slot.
        inputs = run.inputs
        key = tuple(inputs.items())
        slot = inputs_index.get(key)
        if slot is None:
            slot = inputs_index[key] = len(inputs_table)
            inputs_table.append(inputs)
        rows.append((run.global_index, run.pod_index, slot, run.ship))
        if run.directive is not None:
            directives[run.global_index] = run.directive
    return (inputs_table, rows, directives)


def unpack_runs(packed: tuple) -> List[PlannedRun]:
    inputs_table, rows, directives = packed
    # Positional fields: (global_index, pod_index, inputs, directive,
    # ship). Thousands per round, so the keyword form's cost shows.
    return [
        PlannedRun(gi, pod, inputs_table[slot], directives.get(gi), ship)
        for gi, pod, slot, ship in rows
    ]


# -- result packing ------------------------------------------------------------

class ResultPacker:
    """Flattens one round's :class:`ShardResult` windows for the pipe.

    Outcomes intern into a value table and trace payloads by value into
    a payload table. The tables live for the round, so each row crosses
    the pipe once per round: a packed window carries only the rows it
    added. Record failure details ship sparsely.
    """

    def __init__(self) -> None:
        self._outcomes: Dict[str, int] = {}
        self._payloads: Dict[bytes, int] = {}

    def pack(self, result: ShardResult) -> tuple:
        outcomes: List[str] = []
        record_rows: List[tuple] = []
        failures: Dict[int, tuple] = {}
        for rec in result.records:
            value = rec.outcome.value
            slot = self._outcomes.get(value)
            if slot is None:
                slot = self._outcomes[value] = len(self._outcomes)
                outcomes.append(value)
            flags = (rec.guided | (rec.failed << 1)
                     | (rec.has_failure << 2))
            record_rows.append((rec.global_index, flags, slot))
            if (rec.failure_message is not None
                    or rec.failure_block is not None):
                failures[rec.global_index] = (rec.failure_message,
                                              rec.failure_block)

        payloads: List[bytes] = []
        batch_rows: List[tuple] = []
        for batch in result.batches:
            entry_rows: List[tuple] = []
            for entry in batch.entries:
                if entry.heartbeat is not None:
                    entry_rows.append((entry.global_index, -1,
                                       entry.heartbeat))
                    continue
                payload = self._payloads.get(entry.payload)
                if payload is None:
                    payload = self._payloads[entry.payload] = \
                        len(self._payloads)
                    payloads.append(entry.payload)
                entry_rows.append((entry.global_index, payload, None))
            batch_rows.append((batch.sequence, batch.program_name,
                               batch.program_version, batch.trace_context,
                               entry_rows))

        return (
            result.shard_id,
            (outcomes, record_rows, failures),
            (payloads, batch_rows),
            result.busy_seconds,
            result.spans,
            result.cache_delta,
            result.recycle_walks,
        )


_NO_FAILURE = (None, None)


class ResultUnpacker:
    """The coordinator's side of one worker's round: the inverse of
    :class:`ResultPacker`, holding the same round-scoped tables."""

    def __init__(self) -> None:
        self._outcomes: List[Outcome] = []
        self._payloads: List[bytes] = []

    def unpack(self, packed: tuple) -> ShardResult:
        (shard_id, (outcomes, record_rows, failures),
         (payloads, batch_rows), busy_seconds, spans, cache_delta,
         recycle_walks) = packed
        outcome_table = self._outcomes
        outcome_table.extend(Outcome(value) for value in outcomes)
        payload_table = self._payloads
        payload_table.extend(payloads)
        # Positional fields, as in unpack_runs: (global_index, guided,
        # failed, outcome, has_failure, failure_message, failure_block)
        # and (global_index, payload, heartbeat).
        records = [
            RunRecord(gi, bool(flags & 1), bool(flags & 2),
                      outcome_table[slot], bool(flags & 4),
                      *failures.get(gi, _NO_FAILURE))
            for gi, flags, slot in record_rows
        ]
        batches: List[TraceBatch] = []
        for sequence, name, version, context, entry_rows in batch_rows:
            entries = [
                BatchEntry(gi,
                           payload_table[payload] if payload >= 0 else b"",
                           heartbeat)
                for gi, payload, heartbeat in entry_rows
            ]
            batches.append(TraceBatch(
                shard_id=shard_id, program_name=name,
                program_version=version, sequence=sequence,
                entries=entries, trace_context=context))
        return ShardResult(
            shard_id=shard_id, records=records, batches=batches,
            busy_seconds=busy_seconds, spans=spans,
            cache_delta=cache_delta, recycle_walks=recycle_walks,
        )
