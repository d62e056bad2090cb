"""Process-local metrics registry: the platform's observability spine.

SoftBorg's thesis is that by-products of execution are worth
collecting; ``repro.obs`` applies that thesis to the platform itself.
Every layer (pods, capture, transport, hive, solvers, symbolic engine)
registers *handles* — counters, gauges, histograms, timers — on a
process-local :class:`Registry` and bumps them on the hot path. A run
can then answer "traces/sec ingested, p50/p95 round latency, where did
the wall-clock go" from one deterministic snapshot.

Design constraints, in order:

1. **Cheap when on.** A handle is resolved once (at component
   construction) and updating it is one attribute add. No string
   formatting, no locks, no allocation on the counter path.
2. **Free when off.** ``disable()`` swaps handle *creation* to shared
   no-op singletons whose methods do nothing; components built while
   the registry is disabled carry zero bookkeeping. Benchmarks run in
   this mode so measured numbers are not polluted by metrology.
3. **Deterministic export.** ``snapshot()`` orders every metric by
   name; value-histograms over seeded workloads reproduce bit-for-bit.
   Span timings use an injectable clock so tests can pin time itself.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "Counter", "Gauge", "Histogram", "Timer", "Span",
    "Registry", "NULL_REGISTRY",
    "get_registry", "set_registry", "enable", "disable", "reset",
]

Clock = Callable[[], float]

_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def _percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1,
                      int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {"value": self.value}


class Gauge:
    """Last-write-wins instantaneous level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> Dict[str, object]:
        return {"value": self.value}


class Histogram:
    """Streaming aggregates plus a bounded value window for percentiles.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    percentiles come from the retained window (a deterministic ring
    buffer of the most recent ``window`` values), which is the standard
    bounded-memory trade-off.
    """

    __slots__ = ("name", "unit", "count", "total", "min", "max",
                 "_window", "_values", "_cursor")

    def __init__(self, name: str, unit: str = "", window: int = 4096):
        self.name = name
        self.unit = unit
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._window = window
        self._values: List[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._values) < self._window:
            self._values.append(value)
        else:
            self._values[self._cursor] = value
            self._cursor = (self._cursor + 1) % self._window

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        return _percentile(sorted(self._values), pct)

    def as_dict(self) -> Dict[str, object]:
        ordered = sorted(self._values)
        entry: Dict[str, object] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            # Provenance of the percentiles below: they are computed
            # over the retained ring of the last ``window_count``
            # observations (<= ``window``), while count/sum/min/max are
            # exact over all of them.
            "window": self._window,
            "window_count": len(self._values),
        }
        for pct in _PERCENTILES:
            entry[f"p{pct:g}"] = _percentile(ordered, pct)
        if self.unit:
            entry["unit"] = self.unit
        return entry


class Span:
    """One timed section; ``with timer.time(): ...`` on the hot path."""

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram: "Histogram", clock: Clock):
        self._histogram = histogram
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = self._clock()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(self._clock() - self._start)


class Timer:
    """A histogram of elapsed seconds with a span factory."""

    __slots__ = ("name", "histogram", "_clock")

    def __init__(self, name: str, clock: Clock):
        self.name = name
        self.histogram = Histogram(name, unit="seconds")
        self._clock = clock

    def time(self) -> Span:
        return Span(self.histogram, self._clock)

    def observe(self, seconds: float) -> None:
        self.histogram.observe(seconds)

    def as_dict(self) -> Dict[str, object]:
        return self.histogram.as_dict()


class _NullCounter:
    """Shared do-nothing stand-ins handed out by a disabled registry."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def as_dict(self) -> Dict[str, object]:
        return {"value": 0}


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def as_dict(self) -> Dict[str, object]:
        return {"value": 0.0}


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    unit = ""
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, pct: float) -> float:
        return 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"count": 0}


class _NullTimer:
    __slots__ = ()
    name = "null"
    histogram = _NullHistogram()

    def time(self) -> _NullSpan:
        return _NULL_SPAN

    def observe(self, seconds: float) -> None:
        pass

    def as_dict(self) -> Dict[str, object]:
        return {"count": 0}


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMER = _NullTimer()


class Registry:
    """Get-or-create named metrics; export one deterministic snapshot."""

    def __init__(self, enabled: bool = True,
                 clock: Optional[Clock] = None):
        self._enabled = enabled
        self._clock: Clock = clock or time.perf_counter
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        """Hand out no-op handles from now on.

        Metrics already resolved keep recording into this registry (a
        handle is just an object reference); components constructed
        after ``disable()`` pay nothing.
        """
        self._enabled = False

    def reset(self) -> None:
        """Drop every metric (new handles required afterwards)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._timers.clear()

    # -- handle resolution --------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self._enabled:
            return _NULL_COUNTER
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        if not self._enabled:
            return _NULL_GAUGE
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, unit: str = "",
                  window: int = 4096) -> Histogram:
        if not self._enabled:
            return _NULL_HISTOGRAM
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, unit=unit, window=window)
        return metric

    def timer(self, name: str) -> Timer:
        if not self._enabled:
            return _NULL_TIMER
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = Timer(name, self._clock)
        return metric

    # -- export -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Every counter's value, name-sorted (the cheap slice of
        :meth:`snapshot`: no distribution is summarized)."""
        return {name: self._counters[name].value
                for name in sorted(self._counters)}

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every metric, name-sorted, as plain JSON-ready dicts."""
        return {
            "counters": self.counters(),
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].as_dict()
                           for name in sorted(self._histograms)},
            "timers": {name: self._timers[name].as_dict()
                       for name in sorted(self._timers)},
        }

    def as_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)

    def render(self) -> str:
        """The snapshot as monospace tables (CLI ``repro stats``)."""
        from repro.metrics.report import render_table
        snapshot = self.snapshot()
        sections: List[str] = []
        scalar_rows = (
            [[name, value] for name, value in snapshot["counters"].items()]
            + [[name, float(value)]
               for name, value in snapshot["gauges"].items()])
        if scalar_rows:
            sections.append(render_table(
                ["metric", "value"], scalar_rows, title="counters/gauges"))
        dist_rows = []
        for section in ("histograms", "timers"):
            for name, entry in snapshot[section].items():
                dist_rows.append([
                    name, entry.get("count", 0),
                    float(entry.get("mean", 0.0)),
                    float(entry.get("p50", 0.0)),
                    float(entry.get("p95", 0.0)),
                    float(entry.get("max", 0.0)),
                    entry.get("unit", "seconds"
                              if section == "timers" else ""),
                ])
        if dist_rows:
            sections.append(render_table(
                ["distribution", "count", "mean", "p50", "p95", "max",
                 "unit"],
                dist_rows, title="histograms/timers"))
        return "\n\n".join(sections) if sections else "(no metrics)"


NULL_REGISTRY = Registry(enabled=False)

_default_registry = Registry()


def get_registry() -> Registry:
    """The process-local registry every component resolves handles on."""
    return _default_registry


def set_registry(registry: Registry) -> Registry:
    """Swap the process-local registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enable() -> None:
    _default_registry.enable()


def disable() -> None:
    _default_registry.disable()


def reset() -> None:
    _default_registry.reset()
