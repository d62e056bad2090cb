"""Time-series helpers: bounded (x, y) series with windows and rollups.

:class:`Series` started as a tiny experiment convenience; the health
plane (``repro.obs.health``) turned it into the platform's SLI store,
so it grew the two things an always-on service needs:

* a **bound** — ``max_points`` caps retention FIFO (oldest evicted,
  evictions counted in :attr:`Series.evicted`) so a million-tick serve
  run holds O(window) memory per SLI;
* **windows and rollups** — rolling tail windows (``window``,
  ``window_mean``/``window_max``/...) feed threshold and burn-rate
  alert rules, while :meth:`Series.rollup` buckets the retained points
  into tumbling x-width groups (each point in exactly one bucket — the
  partition invariant ``tests/test_health_properties.py`` pins).

Everything stays deterministic: values in, values out, no clocks, and
the same bits on every supported Python: sums add left to right (see
:func:`repro.floats.left_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.floats import left_sum

__all__ = ["Series", "bounded_mean"]


def bounded_mean(values: Sequence[float]) -> float:
    """``sum / len`` clamped into ``[min, max]``, 0.0 when empty.

    The true mean always lies there, but the float sum may round one
    ulp past it; clamping keeps a constant window's mean exactly its
    constant, so an alert bound cannot flap on a steady signal.
    """
    if not values:
        return 0.0
    return min(max(left_sum(values) / len(values), min(values)), max(values))


@dataclass
class Series:
    """An (x, y) series with small statistical conveniences.

    ``max_points`` (``None`` = unbounded, the historical behaviour)
    bounds retention: recording past the cap evicts the oldest point
    and bumps :attr:`evicted`, so aggregates over :attr:`points` are
    windowed once the cap is hit — exactly what rolling SLI windows
    want, and flagged honestly for everyone else.
    """

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)
    max_points: Optional[int] = None
    evicted: int = 0

    def record(self, x: float, y: float) -> None:
        if self.max_points is not None and self.max_points > 0 \
                and len(self.points) >= self.max_points:
            del self.points[0]
            self.evicted += 1
        self.points.append((float(x), float(y)))

    def __len__(self) -> int:
        return len(self.points)

    def ys(self) -> List[float]:
        return [y for _x, y in self.points]

    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def mean_y(self) -> float:
        ys = self.ys()
        return left_sum(ys) / len(ys) if ys else 0.0

    def max_y(self) -> float:
        ys = self.ys()
        return max(ys) if ys else 0.0

    def min_y(self) -> float:
        ys = self.ys()
        return min(ys) if ys else 0.0

    def first_x_where(self, predicate) -> Optional[float]:
        """The smallest x whose y satisfies ``predicate``."""
        for x, y in self.points:
            if predicate(y):
                return x
        return None

    # -- rolling windows (the alert-rule surface) ---------------------------

    def window(self, last_n: int) -> List[float]:
        """The y values of the trailing ``last_n`` points (fewer while
        the series is still shorter than the window)."""
        if last_n <= 0:
            return []
        return [y for _x, y in self.points[-last_n:]]

    def window_points(self, last_n: int) -> List[Tuple[float, float]]:
        """The trailing ``last_n`` (x, y) points."""
        if last_n <= 0:
            return []
        return list(self.points[-last_n:])

    def window_mean(self, last_n: int) -> float:
        return bounded_mean(self.window(last_n))

    def window_sum(self, last_n: int) -> float:
        return left_sum(self.window(last_n))

    def window_max(self, last_n: int) -> float:
        ys = self.window(last_n)
        return max(ys) if ys else 0.0

    def window_min(self, last_n: int) -> float:
        ys = self.window(last_n)
        return min(ys) if ys else 0.0

    # -- tumbling rollups ---------------------------------------------------

    def rollup(self, bucket_width: float) -> List[Dict[str, float]]:
        """Aggregate retained points into tumbling x-buckets.

        Bucket ``i`` covers ``[i * width, (i + 1) * width)``; every
        retained point lands in **exactly one** bucket (the partition
        invariant), buckets are emitted in ascending x order, and empty
        buckets are omitted. Each bucket reports ``start``/``end``/
        ``count``/``sum``/``mean``/``min``/``max``.
        """
        if bucket_width <= 0:
            raise ValueError("bucket_width must be > 0")
        buckets: Dict[int, List[float]] = {}
        for x, y in self.points:
            index = int(x // bucket_width)
            # Float `//` can land next to the true bucket for non-integer
            # widths (e.g. x=4.0, width=0.8 floors to 4 while 5*0.8 == 4.0);
            # nudge until membership agrees with the emitted bounds, which
            # are computed as index * width below.
            while x >= (index + 1) * bucket_width:
                index += 1
            while x < index * bucket_width:
                index -= 1
            buckets.setdefault(index, []).append(y)
        rows: List[Dict[str, float]] = []
        for index in sorted(buckets):
            ys = buckets[index]
            total = left_sum(ys)
            rows.append({
                "start": index * bucket_width,
                "end": (index + 1) * bucket_width,
                "count": float(len(ys)),
                "sum": total,
                "mean": total / len(ys),
                "min": min(ys),
                "max": max(ys),
            })
        return rows

    def summary(self) -> Dict[str, float]:
        """JSON-ready aggregate row (snapshots embed this, never the
        raw points — the full series stays behind the exporters)."""
        last = self.last()
        return {
            "count": float(len(self.points)),
            "evicted": float(self.evicted),
            "last": last[1] if last else 0.0,
            "mean": self.mean_y(),
            "min": self.min_y() if self.points else 0.0,
            "max": self.max_y(),
        }
