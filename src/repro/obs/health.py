"""The health plane: deterministic SLOs, burn-rate alerts, incidents.

``repro.obs`` answers *how much*, ``repro.obs.trace`` answers *where*;
this module answers **"is the service healthy, and if not, what broke
and when"** — the layer an always-on SoftBorg deployment operates by.
Three pieces, all driven by the virtual clock (integer ticks in serve
mode, round indices in batch mode), all pure functions of their
inputs:

1. **SLI time-series.** Each service-level indicator is a bounded
   :class:`~repro.metrics.series.Series` (rolling retention, tumbling
   rollups) fed one sample per tick by the host loop — ingest lag,
   admission reject ratio, pump backpressure and drop ratios,
   pod-ready ratio, hive solver hit rate, per-family detection rate.
   When the health plane is disabled nothing is constructed: the host
   pays one ``is None`` per tick and the obs registry gains zero
   metrics (the E22 benchmark pins this).

2. **A declarative alert engine.** An :class:`SloSpec` names an SLI
   and an objective; its :class:`AlertRule`\\ s are either *threshold*
   rules (windowed mean compared against the objective) or
   multi-window *error-budget burn-rate* rules (the Google-SRE
   construction: with budget ``1 - objective``, the burn rate over a
   window is ``window_mean(bad_ratio) / budget``; the rule fires when
   both the long and the short window burn faster than the rule's
   multiplier). Rules evaluate every tick in a fixed order (SLO name,
   then rule id); rule ids, alert ids, and incident ids are
   **content-derived** blake2b digests of their coordinates, so
   serial/process runs at a fixed seed — chaos included —
   produce byte-identical health reports.

3. **Incident timelines.** The first rule of an SLO to transition
   ``ok -> firing`` opens an :class:`Incident` (stable content-derived
   id) that snapshots the correlating in-window evidence handed in by
   the host loop: chaos injections, autoscaler decisions,
   control-plane phase transitions, fired invariants, a
   flight-recorder slice, and the worst tick's stats and span id. The
   incident closes with a resolution record when every rule of the
   SLO has recovered.

See docs/OBSERVABILITY.md ("The health plane") for the SLO spec
format, the burn-rate math, and the determinism guarantees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.metrics.series import Series, bounded_mean

__all__ = [
    "HEALTH_SCHEMA_VERSION", "ALERT_OK", "ALERT_FIRING",
    "AlertRule", "SloSpec", "AlertState", "Incident", "TickEvidence",
    "HealthConfig", "HealthPlane", "burn_rate",
    "parse_slo_overrides",
]

#: Version of the ``health`` snapshot block (serve schema v2 embeds
#: v1; the platform snapshot adds it additively under schema v3).
HEALTH_SCHEMA_VERSION = 1

ALERT_OK = "ok"
ALERT_FIRING = "firing"

_RULE_KINDS = ("threshold", "burn_rate")
_DIRECTIONS = ("upper", "lower")


def _content_id(*parts: object) -> str:
    """Stable 16-hex-char id from a coordinate path (mirrors the span
    id construction in :mod:`repro.obs.trace`)."""
    digest = hashlib.blake2b(
        "|".join(repr(part) for part in parts).encode("utf-8"),
        digest_size=8)
    return digest.hexdigest()


def burn_rate(values: Sequence[float], budget: float) -> float:
    """Error-budget burn rate of a window of bad-event ratios.

    ``mean(values) / budget``: 1.0 means the window consumes budget
    exactly as fast as the objective allows; N means N times faster.
    Scale-invariant in the budget (``burn(v, k*b) == burn(v, b) / k``,
    pinned by a hypothesis property). An empty window burns nothing; a
    zero/negative budget burns infinitely fast as soon as anything is
    bad at all.
    """
    if not values:
        return 0.0
    mean = bounded_mean(values)
    if budget <= 0.0:
        return float("inf") if mean > 0.0 else 0.0
    return mean / budget


@dataclass(frozen=True)
class AlertRule:
    """One deterministic alerting rule attached to an SLO.

    ``threshold`` rules fire when the windowed SLI mean violates the
    SLO objective (scaled by ``threshold``, default 1.0 — set 0.8 for
    an early-warning ticket rule). ``burn_rate`` rules treat the SLI
    as a bad-event ratio in [0, 1] and fire when the error budget
    (``1 - objective``) burns at ``threshold``\\ x or faster over the
    long window **and** (when ``short_window_ticks`` > 0) the short
    window — the multi-window construction that keeps a recovered
    service from paging on stale badness.
    """

    kind: str = "threshold"
    window_ticks: int = 8
    threshold: float = 1.0
    short_window_ticks: int = 0
    min_samples: int = 1
    severity: str = "page"

    def validate(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise ConfigError(
                f"alert rule kind must be one of {', '.join(_RULE_KINDS)}")
        if self.window_ticks < 1:
            raise ConfigError("window_ticks must be >= 1")
        if self.short_window_ticks < 0:
            raise ConfigError("short_window_ticks must be >= 0")
        if self.short_window_ticks > self.window_ticks:
            raise ConfigError(
                "short_window_ticks must be <= window_ticks")
        if self.threshold <= 0:
            raise ConfigError("rule threshold must be > 0")
        if self.min_samples < 1:
            raise ConfigError("min_samples must be >= 1")

    def rule_id(self, slo_name: str) -> str:
        """Content-derived: identical rule coordinates => identical id
        on every backend, in every process."""
        return _content_id("rule", slo_name, self.kind,
                           self.window_ticks, self.short_window_ticks,
                           self.threshold, self.min_samples,
                           self.severity)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "window_ticks": self.window_ticks,
            "short_window_ticks": self.short_window_ticks,
            "threshold": self.threshold,
            "min_samples": self.min_samples,
            "severity": self.severity,
        }


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over one SLI series.

    ``direction`` gives the healthy side of ``objective`` for
    threshold rules: ``upper`` means the SLI must stay <= objective
    (ingest lag), ``lower`` means >= (pod-ready ratio). Burn-rate
    rules ignore direction — their SLI is a bad-event ratio and
    ``objective`` is the good fraction (0 < objective < 1).
    """

    name: str
    sli: str
    objective: float
    direction: str = "upper"
    description: str = ""
    rules: Tuple[AlertRule, ...] = (AlertRule(),)

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("an SLO needs a name")
        if not self.sli:
            raise ConfigError(f"SLO {self.name!r} needs an SLI series")
        if self.direction not in _DIRECTIONS:
            raise ConfigError(
                f"SLO direction must be one of {', '.join(_DIRECTIONS)}")
        if not self.rules:
            raise ConfigError(f"SLO {self.name!r} needs >= 1 alert rule")
        for rule in self.rules:
            rule.validate()
            if rule.kind == "burn_rate" and not 0.0 < self.objective < 1.0:
                raise ConfigError(
                    f"SLO {self.name!r} has a burn-rate rule, so its"
                    f" objective must be a good fraction in (0, 1)")

    @property
    def budget(self) -> float:
        """The error budget burn-rate rules consume (1 - objective)."""
        return 1.0 - self.objective

    def with_objective(self, objective: float) -> "SloSpec":
        """The same SLO at a different target (``--slo NAME=TARGET``)."""
        return replace(self, objective=objective)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "sli": self.sli,
            "objective": self.objective,
            "direction": self.direction,
            "description": self.description,
            "rules": [rule.as_dict() for rule in self.rules],
        }


def parse_slo_overrides(pairs: Sequence[str]) -> Dict[str, float]:
    """Parse repeated ``NAME=TARGET`` CLI arguments into overrides."""
    overrides: Dict[str, float] = {}
    for pair in pairs:
        name, sep, target = pair.partition("=")
        if not sep or not name:
            raise ConfigError(
                f"--slo expects NAME=TARGET, got {pair!r}")
        try:
            overrides[name] = float(target)
        except ValueError:
            raise ConfigError(
                f"--slo {name}: target {target!r} is not a number")
    return overrides


@dataclass
class TickEvidence:
    """What the host loop observed this tick, kept for correlation.

    The health plane retains the last ``evidence_window_ticks`` of
    these; when an incident opens, the in-window lists are merged into
    its evidence block. All fields are plain JSON-ready data the host
    already produced — building one is list copies, no recomputation.
    """

    tick: int
    chaos: List[Dict[str, object]] = field(default_factory=list)
    scaling: List[Dict[str, object]] = field(default_factory=list)
    fleet: List[Dict[str, object]] = field(default_factory=list)
    invariants: List[Dict[str, object]] = field(default_factory=list)
    span_id: str = ""
    stats: Dict[str, object] = field(default_factory=dict)


@dataclass
class AlertState:
    """The evaluated state of one (SLO, rule) pair."""

    slo: SloSpec
    rule: AlertRule
    rule_id: str
    state: str = ALERT_OK
    alert_id: str = ""            # of the currently-firing alert
    fires: int = 0
    last_value: float = 0.0
    transitions: List[Dict[str, object]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "slo": self.slo.name,
            "rule_id": self.rule_id,
            "rule": self.rule.as_dict(),
            "state": self.state,
            "alert_id": self.alert_id,
            "fires": self.fires,
            "last_value": self.last_value,
            "transitions": [dict(t) for t in self.transitions],
        }


@dataclass
class Incident:
    """One named outage window with its correlated evidence."""

    incident_id: str
    slo: str
    sli: str
    rule_id: str
    alert_id: str
    severity: str
    opened_tick: int
    value: float
    threshold: float
    evidence: Dict[str, object] = field(default_factory=dict)
    closed_tick: Optional[int] = None
    resolution: Optional[Dict[str, object]] = None

    @property
    def open(self) -> bool:
        return self.closed_tick is None

    def as_dict(self) -> Dict[str, object]:
        return {
            "incident_id": self.incident_id,
            "slo": self.slo,
            "sli": self.sli,
            "rule_id": self.rule_id,
            "alert_id": self.alert_id,
            "severity": self.severity,
            "opened_tick": self.opened_tick,
            "value": self.value,
            "threshold": self.threshold,
            "open": self.open,
            "closed_tick": self.closed_tick,
            "resolution": (dict(self.resolution)
                           if self.resolution else None),
            "evidence": dict(self.evidence),
        }


@dataclass
class HealthConfig:
    """Knobs of the health plane (serve defaults on, bare runs off)."""

    enabled: bool = True
    #: Retention bound per SLI series (rolling; evictions counted).
    series_max_points: int = 512
    #: Ticks of host evidence retained for incident correlation.
    evidence_window_ticks: int = 16
    #: Flight-recorder events snapshotted into incident evidence.
    flight_slice_limit: int = 32
    #: ``{slo_name: objective}`` replacing default targets
    #: (``repro serve --slo NAME=TARGET``).
    slo_overrides: Dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        if self.series_max_points < 1:
            raise ConfigError("series_max_points must be >= 1")
        if self.evidence_window_ticks < 1:
            raise ConfigError("evidence_window_ticks must be >= 1")
        if self.flight_slice_limit < 0:
            raise ConfigError("flight_slice_limit must be >= 0")


class HealthPlane:
    """SLI store + alert engine + incident log for one host loop.

    The host calls :meth:`observe` once per tick with that tick's SLI
    samples (and optionally a :class:`TickEvidence`); everything else
    — rule evaluation, alert transitions, incident lifecycle — happens
    inside, deterministically. ``flight`` may be the host tracer's
    :class:`~repro.obs.trace.FlightRecorder` (or ``None``); incidents
    snapshot its tail when present.
    """

    def __init__(self, slos: Sequence[SloSpec],
                 config: Optional[HealthConfig] = None,
                 flight=None):
        self.config = config or HealthConfig()
        self.config.validate()
        self.flight = flight
        resolved: List[SloSpec] = []
        seen = set()
        for slo in slos:
            if slo.name in seen:
                raise ConfigError(f"duplicate SLO name {slo.name!r}")
            seen.add(slo.name)
            override = self.config.slo_overrides.get(slo.name)
            if override is not None:
                slo = slo.with_objective(override)
            slo.validate()
            resolved.append(slo)
        unknown = set(self.config.slo_overrides) - seen
        if unknown:
            raise ConfigError(
                f"--slo names no known SLO: {', '.join(sorted(unknown))}"
                f" (have: {', '.join(sorted(seen))})")
        #: Evaluation order is part of the contract: SLO name, then
        #: rule id — never construction or dict order.
        self.slos: List[SloSpec] = sorted(resolved,
                                          key=lambda slo: slo.name)
        self.states: List[AlertState] = []
        for slo in self.slos:
            states = [AlertState(slo=slo, rule=rule,
                                 rule_id=rule.rule_id(slo.name))
                      for rule in slo.rules]
            states.sort(key=lambda state: state.rule_id)
            self.states.extend(states)
        self.series: Dict[str, Series] = {}
        self.incidents: List[Incident] = []
        self._open_by_slo: Dict[str, Incident] = {}
        self._evidence: List[TickEvidence] = []
        self._worst: Dict[str, Tuple[float, int]] = {}
        self.ticks_observed = 0

    # -- feeding ------------------------------------------------------------

    def _series(self, name: str) -> Series:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(
                name, max_points=self.config.series_max_points)
        return series

    def observe(self, tick: int, sample: Mapping[str, float],
                evidence: Optional[TickEvidence] = None) -> None:
        """Feed one tick: record SLIs, evaluate rules, update incidents."""
        self.ticks_observed += 1
        for name in sorted(sample):
            self._series(name).record(tick, sample[name])
        for slo in self.slos:
            if slo.sli not in sample:
                continue
            value = float(sample[slo.sli])
            worst = self._worst.get(slo.name)
            lower = slo.direction == "lower"
            if (worst is None
                    or ((value < worst[0]) if lower
                        else (value > worst[0]))):
                self._worst[slo.name] = (value, tick)
        self._evidence.append(evidence if evidence is not None
                              else TickEvidence(tick=tick))
        if len(self._evidence) > self.config.evidence_window_ticks:
            del self._evidence[0]
        self._evaluate(tick)

    # -- rule evaluation ----------------------------------------------------

    def _rule_value(self, slo: SloSpec, rule: AlertRule,
                    series: Series) -> Tuple[float, float, bool]:
        """(value, effective threshold, violated) for one rule."""
        if rule.kind == "burn_rate":
            long_burn = burn_rate(series.window(rule.window_ticks),
                                  slo.budget)
            violated = long_burn >= rule.threshold
            if violated and rule.short_window_ticks:
                short_burn = burn_rate(
                    series.window(rule.short_window_ticks), slo.budget)
                violated = short_burn >= rule.threshold
            return long_burn, rule.threshold, violated
        value = series.window_mean(rule.window_ticks)
        bound = slo.objective * rule.threshold
        if slo.direction == "upper":
            return value, bound, value > bound
        return value, bound, value < bound

    def _evaluate(self, tick: int) -> None:
        for state in self.states:
            series = self.series.get(state.slo.sli)
            if series is None or len(series) < state.rule.min_samples:
                continue
            value, bound, violated = self._rule_value(
                state.slo, state.rule, series)
            state.last_value = value
            if violated and state.state == ALERT_OK:
                state.state = ALERT_FIRING
                state.fires += 1
                state.alert_id = _content_id("alert", state.rule_id, tick)
                state.transitions.append({
                    "tick": tick, "to": ALERT_FIRING,
                    "alert_id": state.alert_id, "value": value,
                    "threshold": bound,
                })
                self._maybe_open_incident(state, tick, value, bound)
            elif not violated and state.state == ALERT_FIRING:
                state.state = ALERT_OK
                state.transitions.append({
                    "tick": tick, "to": ALERT_OK,
                    "alert_id": state.alert_id, "value": value,
                    "threshold": bound,
                })
                state.alert_id = ""
        self._maybe_close_incidents(tick)

    # -- incidents ----------------------------------------------------------

    def _maybe_open_incident(self, state: AlertState, tick: int,
                             value: float, bound: float) -> None:
        slo = state.slo
        if slo.name in self._open_by_slo:
            return
        incident = Incident(
            incident_id=_content_id("incident", slo.name, state.rule_id,
                                    state.alert_id, tick),
            slo=slo.name,
            sli=slo.sli,
            rule_id=state.rule_id,
            alert_id=state.alert_id,
            severity=state.rule.severity,
            opened_tick=tick,
            value=value,
            threshold=bound,
            evidence=self._collect_evidence(slo, state.rule, tick),
        )
        self.incidents.append(incident)
        self._open_by_slo[slo.name] = incident

    def _maybe_close_incidents(self, tick: int) -> None:
        for slo_name in sorted(self._open_by_slo):
            if any(state.state == ALERT_FIRING for state in self.states
                   if state.slo.name == slo_name):
                continue
            incident = self._open_by_slo.pop(slo_name)
            series = self.series.get(incident.sli)
            incident.closed_tick = tick
            incident.resolution = {
                "closed_tick": tick,
                "duration_ticks": tick - incident.opened_tick,
                "recovered_value": (series.last()[1]
                                    if series is not None and len(series)
                                    else 0.0),
            }

    def _collect_evidence(self, slo: SloSpec, rule: AlertRule,
                          tick: int) -> Dict[str, object]:
        """Merge the retained in-window host context into one block."""
        window_start = tick - self.config.evidence_window_ticks + 1
        chaos: List[Dict[str, object]] = []
        scaling: List[Dict[str, object]] = []
        fleet: List[Dict[str, object]] = []
        invariants: List[Dict[str, object]] = []
        span_by_tick: Dict[int, str] = {}
        stats_by_tick: Dict[int, Dict[str, object]] = {}
        for entry in self._evidence:
            chaos.extend(dict(event) for event in entry.chaos)
            scaling.extend(dict(event) for event in entry.scaling)
            fleet.extend(dict(event) for event in entry.fleet)
            invariants.extend(dict(event) for event in entry.invariants)
            if entry.span_id:
                span_by_tick[entry.tick] = entry.span_id
            if entry.stats:
                stats_by_tick[entry.tick] = entry.stats
        worst_tick, worst_value = self._worst_in_window(slo, rule, tick)
        evidence: Dict[str, object] = {
            "window": {"from_tick": window_start, "to_tick": tick},
            "chaos": chaos,
            "scaling": scaling,
            "fleet": fleet,
            "invariants": invariants,
            "worst_tick": {
                "tick": worst_tick,
                "value": worst_value,
                "span_id": span_by_tick.get(worst_tick, ""),
                "stats": dict(stats_by_tick.get(worst_tick, {})),
            },
        }
        if self.flight is not None:
            evidence["flight_recorder"] = self.flight.slice(
                limit=self.config.flight_slice_limit)
        return evidence

    def _worst_in_window(self, slo: SloSpec, rule: AlertRule,
                         tick: int) -> Tuple[int, float]:
        """The (tick, value) of the worst SLI sample in the rule's
        window — ties break toward the earliest tick."""
        series = self.series.get(slo.sli)
        if series is None or not len(series):
            return tick, 0.0
        points = series.window_points(rule.window_ticks)
        lower = slo.direction == "lower"
        worst_x, worst_y = points[0]
        for x, y in points[1:]:
            if (y < worst_y) if lower else (y > worst_y):
                worst_x, worst_y = x, y
        return int(worst_x), worst_y

    # -- export -------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """The SLO gate: nothing firing, no incident still open."""
        return (not self._open_by_slo
                and all(state.state == ALERT_OK for state in self.states))

    def open_incidents(self) -> List[Incident]:
        return [incident for incident in self.incidents if incident.open]

    def slo_rows(self) -> List[Dict[str, object]]:
        rows = []
        for slo in self.slos:
            states = [state for state in self.states
                      if state.slo.name == slo.name]
            worst = self._worst.get(slo.name)
            rows.append({
                **slo.as_dict(),
                "ok": all(state.state == ALERT_OK for state in states),
                "fires": sum(state.fires for state in states),
                "worst": ({"value": worst[0], "tick": worst[1]}
                          if worst else None),
            })
        return rows

    def report(self) -> Dict[str, object]:
        """The deterministic ``health`` snapshot block (JSON-ready)."""
        return {
            "health_schema_version": HEALTH_SCHEMA_VERSION,
            "ok": self.ok,
            "ticks_observed": self.ticks_observed,
            "slos": self.slo_rows(),
            "alerts": [state.as_dict() for state in self.states],
            "incidents": [incident.as_dict()
                          for incident in self.incidents],
            "series": {name: self.series[name].summary()
                       for name in sorted(self.series)},
        }
