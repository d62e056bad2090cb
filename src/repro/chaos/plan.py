"""The seeded fault schedule: chaos as a pure function of coordinates.

Determinism across execution backends (and across repeated runs) hinges
on one rule, mirroring ``repro.exec.plan``: **every fault decision is a
pure function of (seed, fault kind, logical coordinates)** — never of
wall-clock time, thread interleaving, or which OS process hosts a pod.
A :class:`FaultPlan` therefore holds no mutable state at all; each
query derives a child RNG via :func:`repro.rng.make_rng` keyed by the
fault kind and its coordinates (round index, virtual shard, frame
index, attempt number, pod index, ...), so:

* the same seed always injects the same faults, in the same places;
* serial and process backends see the *identical* fault
  schedule, because the coordinates are backend-invariant (virtual
  shards are ``pod_index % virtual_workers``, frames are numbered in
  global-execution order);
* adding a new fault kind with a fresh label never perturbs the
  schedule of existing kinds.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.chaos.profiles import FaultProfile
from repro.rng import make_rng

__all__ = ["FaultPlan"]


class FaultPlan:
    """Stateless, seeded oracle for every injection point."""

    def __init__(self, profile: FaultProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed

    def _rng(self, kind: str, *coords: object) -> random.Random:
        return make_rng(self.seed, "chaos", kind, *coords)

    def _fires(self, rate: float, kind: str, *coords: object) -> bool:
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._rng(kind, *coords).random() < rate

    # -- worker / shard faults ----------------------------------------------

    def dead_virtual_shards(self, round_index: int) -> Tuple[int, ...]:
        """Virtual shards whose round results are lost (worker death)."""
        return tuple(
            shard for shard in range(self.profile.virtual_workers)
            if self._fires(self.profile.worker_death_rate,
                           "worker_death", round_index, shard))

    def retry_wave_dies(self, round_index: int, attempt: int) -> bool:
        """The ``attempt``-th recovery wave crashes as well."""
        return self._fires(self.profile.retry_death_rate,
                           "retry_death", round_index, attempt)

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff for the ``attempt``-th retry
        (attempt numbering starts at 1)."""
        return min(self.profile.backoff_cap,
                   self.profile.backoff_base * (2 ** max(0, attempt - 1)))

    # -- uplink frame faults ------------------------------------------------

    def frame_corrupted(self, round_index: int, frame_index: int) -> bool:
        return self._fires(self.profile.frame_corrupt_rate,
                           "frame_corrupt", round_index, frame_index)

    def frame_dropped(self, round_index: int, frame_index: int) -> bool:
        return self._fires(self.profile.frame_drop_rate,
                           "frame_drop", round_index, frame_index)

    def frame_duplicated(self, round_index: int, frame_index: int) -> bool:
        return self._fires(self.profile.frame_duplicate_rate,
                           "frame_dup", round_index, frame_index)

    def delivery_order(self, round_index: int, n_frames: int) -> List[int]:
        """The order frames reach the hive (shuffled under reorder)."""
        order = list(range(n_frames))
        if self.profile.reorder and n_frames > 1:
            self._rng("frame_order", round_index).shuffle(order)
        return order

    def corrupt_bytes(self, data: bytes, round_index: int,
                      frame_index: int) -> bytes:
        """Deterministically mangle a wire frame: truncate it or flip a
        byte. The frame checksum is expected to catch either."""
        if not data:
            return data
        rng = self._rng("corrupt_bytes", round_index, frame_index)
        if rng.random() < 0.5 and len(data) > 1:
            return data[:rng.randrange(1, len(data))]
        position = rng.randrange(len(data))
        flipped = data[position] ^ (rng.randrange(1, 256))
        return data[:position] + bytes([flipped]) + data[position + 1:]

    # -- hive ingest faults -------------------------------------------------

    def ingest_fails(self, round_index: int, frame_index: int,
                     attempt: int) -> bool:
        """The hive's ingest transiently fails on this attempt."""
        return self._fires(self.profile.ingest_failure_rate,
                           "ingest_fail", round_index, frame_index, attempt)

    # -- networked-platform faults -------------------------------------------

    def pod_crashes(self, pod_index: int, run_index: int) -> bool:
        """The pod crashes mid-trace on its ``run_index``-th execution:
        the execution happened but its trace is lost, and the pod stays
        down for ``profile.crash_downtime`` virtual seconds."""
        return self._fires(self.profile.pod_crash_rate,
                           "pod_crash", pod_index, run_index)

    def uplink_dropped(self, pod_index: int, message_index: int) -> bool:
        """Message loss beyond what the Link models (e.g. a proxy
        black-holing an entire send before it reaches the network)."""
        return self._fires(self.profile.frame_drop_rate,
                           "uplink_drop", pod_index, message_index)

    def uplink_duplicated(self, pod_index: int, message_index: int) -> bool:
        return self._fires(self.profile.frame_duplicate_rate,
                           "uplink_dup", pod_index, message_index)

    def uplink_corrupted(self, pod_index: int, message_index: int) -> bool:
        return self._fires(self.profile.frame_corrupt_rate,
                           "uplink_corrupt", pod_index, message_index)

    def clock_skew(self, pod_index: int) -> float:
        """Constant per-pod clock-skew factor in
        ``[1 - skew_max, 1 + skew_max]``, applied to think time."""
        skew_max = self.profile.clock_skew_max
        if not skew_max:
            return 1.0
        offset = self._rng("clock_skew", pod_index).uniform(
            -skew_max, skew_max)
        return 1.0 + offset
