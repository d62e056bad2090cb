"""Exporters: the trace log and metrics registry in standard formats.

Three output shapes, all deterministic for a deterministic input:

* :func:`chrome_trace` — the Chrome trace-event JSON format
  (``chrome://tracing`` / Perfetto): complete ``"X"`` events for
  spans, instant ``"i"`` events for span events, microsecond
  timestamps. Spans are emitted in canonical order — a depth-first
  walk from the roots with siblings sorted by
  ``(start, end, name, key, span_id)`` — so serial and process runs
  of the same seed under a pinned clock export byte-identical
  documents.
* :func:`spans_jsonl` — one JSON object per completed span, same
  canonical order; the grep-friendly shape.
* :func:`prometheus_text` — the metrics registry in Prometheus text
  exposition format (metric names with dots mapped to underscores,
  histogram percentiles as ``quantile`` labels, ``# HELP`` / ``# TYPE``
  per metric, label values escaped per the exposition spec). Pass a
  :class:`~repro.obs.health.HealthPlane` to append its SLI series and
  alert/incident states as labelled gauges.
* :func:`health_jsonl` — the health plane's raw SLI points, alert
  states, and incidents as grep-friendly JSON lines.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.trace import SpanRecord, TraceLog

__all__ = [
    "TRACE_FORMATS", "canonical_spans", "chrome_trace", "spans_jsonl",
    "prometheus_text", "health_jsonl", "export_trace",
]

TRACE_FORMATS = ("chrome", "jsonl", "prom")


def _span_list(spans) -> List[SpanRecord]:
    if isinstance(spans, TraceLog):
        return list(spans.spans)
    return list(spans)


def canonical_spans(spans) -> List[SpanRecord]:
    """Depth-first span order from the roots, siblings in
    ``SpanRecord.sort_key`` order — the backend-invariant ordering all
    exporters share. Spans whose parent is absent from the set (e.g. a
    standalone shard recorder) count as roots."""
    records = _span_list(spans)
    known = {record.span_id for record in records}
    children: Dict[Optional[str], List[SpanRecord]] = {}
    for record in records:
        parent = (record.parent_id
                  if record.parent_id in known else None)
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda record: record.sort_key())
    ordered: List[SpanRecord] = []

    def walk(parent: Optional[str]) -> None:
        for record in children.get(parent, ()):
            ordered.append(record)
            walk(record.span_id)

    walk(None)
    return ordered


def _micros(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace(spans, trace_id: Optional[str] = None,
                 ) -> Dict[str, object]:
    """The Chrome trace-event document (a JSON-ready dict)."""
    records = canonical_spans(spans)
    if trace_id is None and records:
        trace_id = records[0].trace_id
    events: List[Dict[str, object]] = [{
        "ph": "M", "name": "process_name", "pid": 1, "tid": 1,
        "args": {"name": "repro"},
    }]
    for record in records:
        args: Dict[str, object] = {
            "span_id": record.span_id,
            "parent_id": record.parent_id,
            "key": record.key,
        }
        args.update(record.attrs)
        events.append({
            "ph": "X",
            "name": record.name,
            "cat": record.name.split(".", 1)[0],
            "ts": _micros(record.start),
            "dur": _micros(record.duration),
            "pid": 1,
            "tid": 1,
            "args": args,
        })
        for event in record.events:
            events.append({
                "ph": "i",
                "s": "t",
                "name": event["name"],
                "cat": "event",
                "ts": _micros(event["ts"]),
                "pid": 1,
                "tid": 1,
                "args": dict(event.get("attrs", {})),
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id or "", "spans": len(records)},
    }


def spans_jsonl(spans) -> str:
    """One canonical-order JSON object per line (trailing newline when
    non-empty)."""
    lines = [json.dumps(record.as_dict(), sort_keys=True)
             for record in canonical_spans(spans)]
    return "\n".join(lines) + ("\n" if lines else "")


# -- Prometheus text exposition -----------------------------------------------

def _prom_name(name: str, suffix: str = "") -> str:
    cleaned = "".join(ch if (ch.isalnum() or ch == "_") else "_"
                      for ch in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"repro_{cleaned}{suffix}"


def _prom_value(value: object) -> str:
    number = float(value)
    if number != number:                                   # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _prom_escape(value: object) -> str:
    """Escape a label value per the exposition format: backslash,
    double quote, and newline (in that order — backslash first, or the
    other escapes would be double-escaped)."""
    return (str(value).replace("\\", "\\\\")
            .replace('"', '\\"').replace("\n", "\\n"))


def _prom_labels(labels: Dict[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_prom_escape(labels[key])}"'
                     for key in labels)
    return "{" + inner + "}"


def _prom_help(metric: str, text: str) -> str:
    # HELP text escapes backslash and newline only (no quote escape —
    # the exposition format differs from label values here).
    escaped = text.replace("\\", "\\\\").replace("\n", "\\n")
    return f"# HELP {metric} {escaped}"


def _emit(lines: List[str], metric: str, kind: str, help_text: str,
          samples: Sequence) -> None:
    """One metric family: HELP, TYPE, then its sample lines — every
    metric kind gets all three (the exposition-format contract)."""
    lines.append(_prom_help(metric, help_text))
    lines.append(f"# TYPE {metric} {kind}")
    for suffix, labels, value in samples:
        lines.append(f"{metric}{suffix}{_prom_labels(labels)}"
                     f" {_prom_value(value)}")


def prometheus_text(registry=None, health=None) -> str:
    """Render the registry snapshot in Prometheus text exposition
    format: ``# HELP`` and ``# TYPE`` for every metric family,
    ``quantile`` labels for the windowed percentiles, label values
    escaped per the spec. ``health`` (a
    :class:`~repro.obs.health.HealthPlane`) appends SLI series
    aggregates and alert/incident states as labelled gauges."""
    if registry is None:
        from repro.obs import get_registry
        registry = get_registry()
    snapshot = registry.snapshot()
    lines: List[str] = []

    for name, value in snapshot.get("counters", {}).items():
        _emit(lines, _prom_name(name, "_total"), "counter",
              f"repro counter {name}", [("", {}, value)])
    for name, value in snapshot.get("gauges", {}).items():
        _emit(lines, _prom_name(name), "gauge",
              f"repro gauge {name}", [("", {}, value)])
    for section in ("histograms", "timers"):
        for name, entry in snapshot.get(section, {}).items():
            metric = _prom_name(name)
            samples = []
            for field, value in entry.items():
                if field.startswith("p") and field[1:].replace(
                        ".", "", 1).isdigit():
                    quantile = float(field[1:]) / 100.0
                    samples.append(
                        ("", {"quantile": f"{quantile:g}"}, value))
            samples.append(("_sum", {}, entry["sum"]))
            samples.append(("_count", {}, entry["count"]))
            _emit(lines, metric, "summary",
                  f"repro {section[:-1]} {name}", samples)
    if health is not None:
        _append_health_prom(lines, health)
    return "\n".join(lines) + ("\n" if lines else "")


def _append_health_prom(lines: List[str], health) -> None:
    """The health plane's exposition families (deterministic order)."""
    _emit(lines, "repro_health_ok", "gauge",
          "health plane SLO gate (1 = nothing firing, no open incident)",
          [("", {}, 1.0 if health.ok else 0.0)])
    sli_samples = []
    for name in sorted(health.series):
        summary = health.series[name].summary()
        for stat in ("last", "mean", "min", "max"):
            sli_samples.append(
                ("", {"sli": name, "stat": stat}, summary[stat]))
    if sli_samples:
        _emit(lines, "repro_health_sli", "gauge",
              "SLI series aggregates over retained points", sli_samples)
    firing, fires, values = [], [], []
    for state in health.states:
        labels = {"slo": state.slo.name, "rule_id": state.rule_id,
                  "severity": state.rule.severity}
        firing.append(("", labels, 1.0 if state.state == "firing"
                       else 0.0))
        fires.append(("", labels, state.fires))
        values.append(("", labels, state.last_value))
    if firing:
        _emit(lines, "repro_health_alert_firing", "gauge",
              "alert rule state (1 = firing)", firing)
        _emit(lines, "repro_health_alert_fires_total", "counter",
              "ok->firing transitions of the rule", fires)
        _emit(lines, "repro_health_alert_value", "gauge",
              "last evaluated rule value (burn rate or windowed mean)",
              values)
    _emit(lines, "repro_health_incidents_open", "gauge",
          "incidents currently open",
          [("", {}, len(health.open_incidents()))])
    _emit(lines, "repro_health_incidents_total", "counter",
          "incidents ever opened", [("", {}, len(health.incidents))])


def health_jsonl(health) -> str:
    """The health plane as JSON lines: every retained SLI point, every
    alert state, every incident — sorted, canonical, greppable."""
    lines: List[str] = []
    for name in sorted(health.series):
        for x, y in health.series[name].points:
            lines.append(json.dumps(
                {"kind": "sli", "series": name, "x": x, "y": y},
                sort_keys=True))
    for state in health.states:
        lines.append(json.dumps({"kind": "alert", **state.as_dict()},
                                sort_keys=True))
    for incident in health.incidents:
        lines.append(json.dumps(
            {"kind": "incident", **incident.as_dict()}, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def export_trace(spans, fmt: str, registry=None) -> str:
    """Render ``spans`` (or, for ``prom``, the registry) as the named
    format's document text."""
    if fmt == "chrome":
        return json.dumps(chrome_trace(spans), sort_keys=True, indent=2)
    if fmt == "jsonl":
        return spans_jsonl(spans)
    if fmt == "prom":
        return prometheus_text(registry)
    raise ValueError(
        f"unknown trace format {fmt!r}; expected one of"
        f" {', '.join(TRACE_FORMATS)}")
