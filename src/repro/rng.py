"""Deterministic randomness utilities.

Every stochastic component in the library (schedulers, workload
generators, WalkSAT, the network simulator) draws from a seeded
:class:`random.Random` instance that is threaded through explicitly.
This module centralises seed derivation so that independent components
get independent-looking streams from one master seed, and so that the
same master seed always reproduces the same end-to-end run.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, List, Sequence

__all__ = ["derive_seed", "make_rng", "spawn", "choice_weighted",
           "running_sums", "weighted_index"]


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a child seed from ``master_seed`` and a label path.

    The derivation hashes the master seed together with the labels, so
    ``derive_seed(1, "pod", 3)`` and ``derive_seed(1, "pod", 4)`` are
    uncorrelated, and adding a new component with a fresh label never
    perturbs the streams of existing components.
    """
    digest = hashlib.sha256(
        ("|".join([str(master_seed)] + [repr(label) for label in labels])).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(master_seed: int, *labels: object) -> random.Random:
    """Return a ``random.Random`` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(master_seed, *labels))


def spawn(rng: random.Random, count: int) -> Iterator[random.Random]:
    """Yield ``count`` independent child RNGs derived from ``rng``."""
    for _ in range(count):
        yield random.Random(rng.getrandbits(64))


def choice_weighted(rng: random.Random, items, weights) -> object:
    """Pick one element of ``items`` with the given positive weights:
    the element ``random.choices(items, weights)[0]`` picks, from the
    same single ``random()`` call, with the weights summed left to
    right on every Python. It sums the weights on every call; for
    weights that do not change, build :func:`running_sums` once and
    draw with :func:`weighted_index` instead.
    """
    return items[weighted_index(rng, running_sums(weights))]


def running_sums(weights: Sequence[float]) -> List[float]:
    """The running sums of ``weights``, added left to right on every
    Python (see :mod:`repro.floats`), for :func:`weighted_index`.
    Build them once for weights that do not change."""
    running = list(accumulate(weights))
    if not running or running[-1] <= 0.0:
        raise ValueError("weights must sum to a positive value")
    return running


def weighted_index(rng: random.Random, running: Sequence[float]) -> int:
    """One weighted draw over the :func:`running_sums` of the weights:
    the first index whose running sum exceeds ``rng.random()`` times
    the total, or the last index for a point at or past it. One
    ``random()`` call and a bisection, like ``random.choices`` with
    ``cum_weights``; the weights are never re-summed or re-scanned."""
    return bisect_right(running, rng.random() * running[-1], 0,
                        len(running) - 1)
