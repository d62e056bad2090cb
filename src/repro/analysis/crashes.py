"""WER-style crash bucketing (the paper's Sec. 5 ancestor/baseline).

Windows Error Reporting aggregates billions of failure dumps by
hashing them into buckets and triaging by volume. Our failure dumps are
a trace's ``(outcome, failure_site, failure_message)``; the bucketer
groups and ranks them. This is deliberately *report-only*: it names the
top crashers but neither localizes the predicate that predicts them nor
fixes anything — the gap SoftBorg's closed loop is measured against
(experiment E12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.tracing.trace import Trace

__all__ = ["CrashBucket", "CrashBucketer"]

BucketKey = Tuple[str, Optional[Tuple[int, str, str]], str]


@dataclass
class CrashBucket:
    """One equivalence class of failure reports.

    ``path_variants`` counts the distinct decision paths observed to
    reach this bucket (when the ingesting side supplies them): WER's
    bucket-splitting signal — one site reached via many paths suggests
    a shared root cause upstream, via one path a local defect.
    """

    key: BucketKey
    count: int = 0
    first_seen_index: int = -1
    _paths: set = field(default_factory=set)

    @property
    def path_variants(self) -> int:
        return len(self._paths)

    @property
    def outcome(self) -> str:
        return self.key[0]

    @property
    def site(self) -> Optional[Tuple[int, str, str]]:
        return self.key[1]

    @property
    def message(self) -> str:
        return self.key[2]


class CrashBucketer:
    """Streams failure traces into ranked buckets."""

    def __init__(self):
        self._buckets: Dict[BucketKey, CrashBucket] = {}
        self._seen = 0
        self._failures = 0

    def add(self, trace: Trace,
            path: Optional[Tuple] = None) -> Optional[CrashBucket]:
        """Add one trace; returns its bucket for failures, else None.

        ``path`` (optional) is the replayed decision path; when given,
        the bucket tracks how many distinct paths reach it.
        """
        self._seen += 1
        if not trace.outcome.is_failure:
            return None
        self._failures += 1
        key: BucketKey = (trace.outcome.value, trace.failure_site,
                          trace.failure_message or "")
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = CrashBucket(key=key, first_seen_index=self._seen - 1)
            self._buckets[key] = bucket
        bucket.count += 1
        if path is not None:
            bucket._paths.add(tuple(path))
        return bucket

    def buckets(self) -> List[CrashBucket]:
        """All buckets, highest volume first (WER's triage order)."""
        return sorted(self._buckets.values(),
                      key=lambda b: (-b.count, b.first_seen_index))

    @property
    def total_reports(self) -> int:
        return self._seen

    @property
    def total_failures(self) -> int:
        return self._failures

    def failure_rate(self) -> float:
        if self._seen == 0:
            return 0.0
        return self._failures / self._seen
