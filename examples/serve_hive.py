#!/usr/bin/env python
"""The hive as a continuous service: burst load, elastic fleet,
streaming ingest, live fix rollout.

A million-user Zipf population (derived lazily — only active users are
ever materialized) sends a base arrival rate that bursts 5x for a
stretch of the run. Watch the control loop respond, one virtual-clock
tick at a time:

* the pod autoscaler rides the burst up and, after its hysteresis
  window, back down; the control plane warms pods before they serve;
* every executed trace crosses a bounded ingest pump as CRC-framed
  wire bytes — the hive's ingest-worker pool is autoscaled against the
  pump's backlog, keeping ingest lag under the configured bound;
* mid-run, the hive synthesizes and validates a fix and rolls it out
  to the whole live fleet at once.

Deterministic throughout: the same seed replays the identical scaling
story on the serial or process backend.

Run:  python examples/serve_hive.py
"""

from repro.api import Service, ServiceConfig, crash_scenario
from repro.metrics.report import render_table


def main() -> None:
    config = ServiceConfig(
        ticks=90,
        users=1_000_000,           # lazily-derived Zipf population
        base_arrivals_per_tick=8,
        burst_arrivals_per_tick=40,
        burst_start_tick=20,
        burst_end_tick=45,
        seed=5,
    )
    scenario = crash_scenario(seed=config.seed)
    print(f"Serving {scenario.program.name} to"
          f" {config.users:,} users for {config.ticks} ticks"
          f" (burst x5 during ticks"
          f" {config.burst_start_tick}-{config.burst_end_tick})")
    print()

    service = Service(scenario, config)
    report = service.run()

    rows = []
    for stats in report.ticks:
        if stats.tick % 10 != 0:
            continue
        rows.append([
            stats.tick, stats.arrivals, stats.admitted, stats.backlog,
            stats.ready_pods, stats.desired_pods, stats.ingest_workers,
            stats.pump_depth, round(stats.ingest_lag_ticks, 2),
        ])
    print(render_table(
        ["tick", "arrive", "admit", "backlog", "ready", "want",
         "ingestw", "pump", "lag"],
        rows, title="Service history (every 10th tick)"))

    print()
    pods = service.pod_scaler.summary()
    ingest = service.ingest_scaler.summary()
    print("Scaling story:")
    for event in (service.pod_scaler.events
                  + service.ingest_scaler.events):
        print(f"  tick {event.tick:3d}  {event.pool:<14s}"
              f" {event.direction:>4s}  {event.from_replicas} ->"
              f" {event.to_replicas}  (load {event.load})")

    snapshot = service.snapshot()
    lag = snapshot["ingest_lag"]
    print()
    print(f"Executions       : {report.total_executions}"
          f"  (failure rate {report.failure_rate():.4f})")
    print(f"Pod fleet        : {pods['scale_ups']} scale-ups,"
          f" {pods['scale_downs']} scale-downs")
    print(f"Ingest workers   : {ingest['scale_ups']} scale-ups,"
          f" {ingest['scale_downs']} scale-downs")
    print(f"Ingest lag       : max {lag['max_ticks']:.2f} ticks"
          f" (bound {lag['bound_ticks']:.1f})"
          f" -> {'OK' if lag['ok'] else 'VIOLATED'}")
    print(f"Fixes deployed   : {report.fixes or 'none'}")
    print(f"Wire traffic     : {snapshot['pump']['wire_bytes']:,} bytes"
          f" in {snapshot['pump']['entries_drained']} entries")


if __name__ == "__main__":
    main()
