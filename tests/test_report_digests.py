"""The repo benchmark's three workloads end to end, pinned by digest.

``perfbench.workloads.report_digest`` hashes everything deterministic
a workload run produced (report, hive stats, tree, epoch; serve's whole
snapshot). Each workload runs in its small mode on the serial backend
at seeds 1 and 2, and must reproduce the digest recorded before the
interpreter's step loop was made cheaper. Fleet, which the benchmark
runs on one worker process, must reproduce the same digests there too.
The values are the same on every supported Python: serve's series sum
left to right, not with the compensated ``sum()`` of floats that
CPython 3.12 introduced.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.workloads import WORKLOADS, report_digest  # noqa: E402

DIGESTS = {
    ("fleet", 1):
        "2200212a6046974904cf526319bde9dd9ec72b3b907b5454e54e35abe469dc0f",
    ("fleet", 2):
        "7a32e64342b4970ba02d1ce779f4410031fedcc7fe1a8750d71fa57b2fae2f1d",
    ("repair", 1):
        "e6ace749d216e954d336d8351f45afcd86f694439fe6fd3de925127bb4b2571b",
    ("repair", 2):
        "d19ad804fd0567935b53db20751f7887a0467a7fc1c870db2404991961884fa2",
    ("serve", 1):
        "d96db23f2133fbd0439d7315a1b8120d7f8bb831650bb8cf40d63c8227dbaf38",
    ("serve", 2):
        "8a03bf8c576f9a33852a0a3414a1fdff58f863b3dd8d13af213f4524f86e0209",
}


@pytest.mark.parametrize("name,seed", sorted(DIGESTS),
                         ids=[f"{name}-{seed}" for name, seed in
                              sorted(DIGESTS)])
def test_small_workload_digest(name, seed):
    from repro import obs
    obs.reset()
    workload = WORKLOADS[name]
    subject = workload.build(seed, True, backend="serial")
    subject.run()
    assert report_digest(subject, workload.service) == DIGESTS[name, seed]


@pytest.mark.parametrize("seed", [1, 2])
def test_small_fleet_digest_on_one_worker_process(seed):
    from repro import obs
    obs.reset()
    workload = WORKLOADS["fleet"]
    subject = workload.build(seed, True, backend="process")
    try:
        subject.run()
    finally:
        subject.backend.close()
    assert report_digest(subject, workload.service) == DIGESTS["fleet", seed]
