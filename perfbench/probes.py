"""Light outside-in probes, active in every run, traced or not.

The end-to-end metrics and output checks need a few observations the
program's reports do not carry: when each loop iteration started, when
each fix deployed and whether it had passed validation, and what every
executor round planned, returned and shipped. Each probe wraps one
public entry point with a timestamp and a little bookkeeping; the
repo's own tracer and metrics registry stay off.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from perfbench.layers import Patcher, resolve

__all__ = ["Probes", "POD_RAISED"]

#: Prefix of the failure message a shard records for a pod run that
#: raised (``repro.exec.shard``); such runs are failed operations.
POD_RAISED = "pod execution raised"

_RUN_ROUND = ("repro.exec.backends:SerialBackend.run_round",
              "repro.exec.backends:ProcessBackend.run_round")


class Probes:
    """What one episode's probes observed."""

    def __init__(self, loop_entry: str):
        #: Entry point called once per loop iteration; the intervals
        #: between successive calls are the loop-latency sample.
        self.loop_entry = loop_entry
        self.loop_starts: List[float] = []
        self.fix_times: List[float] = []
        self.deploys_unvalidated = 0
        self.planned = 0
        self.misrecorded_rounds = 0
        self.shipped = 0
        self.pod_raised = 0
        self.framed = 0
        self.busy_s = 0.0
        self.transport_s = 0.0
        self._validated: Dict[int, Tuple[object, bool]] = {}

    # -- installation -----------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        clock = time.perf_counter
        sites = set()
        for target in _RUN_ROUND:
            sites.update(resolve(target))
        for owner, attr in sites:
            patcher.replace(owner, attr,
                            self._round_probe(owner.__dict__[attr], clock))
        (hive, attr), = resolve("repro.hive.hive:Hive.maybe_fix")
        patcher.replace(hive, attr,
                        self._fix_probe(hive.__dict__[attr], clock))
        (validator, attr), = resolve(
            "repro.fixes.validation:FixValidator.validate")
        patcher.replace(validator, attr,
                        self._validate_probe(validator.__dict__[attr]))
        (pump, attr), = resolve("repro.serve.pump:IngestPump.frame_entries")
        patcher.replace(pump, attr, self._frame_probe(pump.__dict__[attr]))
        if self.loop_entry not in _RUN_ROUND:
            (owner, attr), = resolve(self.loop_entry)
            patcher.replace(owner, attr,
                            self._loop_probe(owner.__dict__[attr], clock))

    def _loop_probe(self, fn, clock):
        starts = self.loop_starts

        def loop_probe(*args, **kwargs):
            starts.append(clock())
            return fn(*args, **kwargs)
        return loop_probe

    def _round_probe(self, fn, clock):
        probes = self
        loop = self.loop_entry in _RUN_ROUND

        def round_probe(backend, plan, *args, **kwargs):
            started = clock()
            if loop:
                probes.loop_starts.append(started)
            results = fn(backend, plan, *args, **kwargs)
            wall = clock() - started
            planned = sorted(run.global_index for run in plan.runs)
            recorded = []
            for result in results:
                for record in result.records:
                    recorded.append(record.global_index)
                    if (record.failure_message or "").startswith(POD_RAISED):
                        probes.pod_raised += 1
                for batch in result.batches:
                    probes.shipped += len(batch.entries)
            recorded.sort()
            probes.planned += len(planned)
            if recorded != planned:
                probes.misrecorded_rounds += 1
            busy = [result.busy_seconds for result in results]
            probes.busy_s += sum(busy)
            probes.transport_s += wall - max(busy, default=0.0)
            return results
        return round_probe

    def _fix_probe(self, fn, clock):
        probes = self

        def fix_probe(hive, *args, **kwargs):
            program = fn(hive, *args, **kwargs)
            if program is not None:
                probes.fix_times.append(clock())
                fix = hive.deployed_fixes[-1]
                seen = probes._validated.get(id(fix))
                if hive.validate_fixes and not (seen and seen[0] is fix
                                                and seen[1]):
                    probes.deploys_unvalidated += 1
            return program
        return fix_probe

    def _validate_probe(self, fn):
        validated = self._validated

        def validate_probe(validator, fix, *args, **kwargs):
            report = fn(validator, fix, *args, **kwargs)
            validated[id(fix)] = (fix, report.deployable)
            return report
        return validate_probe

    def _frame_probe(self, fn):
        probes = self

        def frame_probe(pump, entries, *args, **kwargs):
            probes.framed += len(entries)
            return fn(pump, entries, *args, **kwargs)
        return frame_probe
