"""Continuous-service mode: the hive as a long-running control plane.

``repro serve`` keeps one program's hive alive indefinitely, ingesting
trace and cache-delta streams from an elastically scaled pod fleet:

* :mod:`repro.serve.control` — API-server-style fleet state (desired
  vs. ready replicas, per-pod phase/heartbeat/lag/restarts);
* :mod:`repro.serve.autoscaler` — HPA-style scaling with warm-up-aware
  hysteresis, driven by the virtual clock;
* :mod:`repro.serve.balance` — pluggable run-to-pod assignment
  (round-robin, least-backlog, consistent-hash);
* :mod:`repro.serve.pump` — the bounded, backpressuring frame queue
  between the fleet's wire uplink and ``Hive.ingest_batch``;
* :mod:`repro.serve.service` — the tick loop tying it together.

Everything runs on integer virtual-clock ticks: a service run is a
pure function of (config, seed) and snapshots byte-identically across
the serial and process backends.
"""

from repro.serve.autoscaler import (
    Autoscaler, AutoscalerConfig, ScaleDecision, ScaleEvent,
)
from repro.serve.balance import (
    BALANCE_POLICIES, BalancePolicy, ConsistentHashBalancer,
    LeastBacklogBalancer, RoundRobinBalancer, make_balancer,
)
from repro.serve.control import ControlPlane, FleetEvent, PodPhase, PodRecord
from repro.serve.pump import IngestPump
from repro.serve.service import (
    SERVE_SCHEMA_VERSION, Service, ServiceConfig, ServiceReport, TickStats,
)
from repro.serve.slos import default_serve_slos

__all__ = [
    "Autoscaler", "AutoscalerConfig", "ScaleDecision", "ScaleEvent",
    "BalancePolicy", "RoundRobinBalancer", "LeastBacklogBalancer",
    "ConsistentHashBalancer", "make_balancer", "BALANCE_POLICIES",
    "ControlPlane", "FleetEvent", "PodPhase", "PodRecord",
    "IngestPump",
    "Service", "ServiceConfig", "ServiceReport", "TickStats",
    "SERVE_SCHEMA_VERSION", "default_serve_slos",
]
