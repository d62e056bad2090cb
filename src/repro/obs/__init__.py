"""repro.obs — the platform's own observability layer.

Counters, gauges, histograms, and timers behind a process-local
:class:`Registry` with a zero-overhead no-op mode and deterministic
snapshot export. See ``docs/API.md`` ("repro.obs — observability").
"""

from repro.obs.health import (
    HEALTH_SCHEMA_VERSION,
    AlertRule,
    HealthConfig,
    HealthPlane,
    Incident,
    SloSpec,
    TickEvidence,
    burn_rate,
    parse_slo_overrides,
)
from repro.obs.instrument import Instrumented
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Registry,
    Span,
    Timer,
    disable,
    enable,
    get_registry,
    reset,
    set_registry,
)
from repro.obs.trace import (
    FixedClock,
    FlightRecorder,
    SpanContext,
    SpanRecord,
    SpanRecorder,
    TraceLog,
    Tracer,
    derive_trace_id,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "Timer", "Span", "Registry",
    "Instrumented", "NULL_REGISTRY",
    "get_registry", "set_registry", "enable", "disable", "reset",
    "Tracer", "TraceLog", "SpanRecord", "SpanContext", "SpanRecorder",
    "FlightRecorder", "FixedClock", "derive_trace_id",
    "get_tracer", "set_tracer", "enable_tracing", "disable_tracing",
    "HealthPlane", "HealthConfig", "SloSpec", "AlertRule", "Incident",
    "TickEvidence", "burn_rate", "parse_slo_overrides",
    "HEALTH_SCHEMA_VERSION",
]
