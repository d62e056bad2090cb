"""Portfolio-theoretic allocation of hive nodes to subtrees.

Paper Sec. 4: "we build upon modern portfolio theory [20]. [...] In
SoftBorg, equities correspond to roots of subtrees in the execution
tree, and the capital invested in each equity corresponds to the hive
nodes allocated to analyze them."

Each subtree's *return* is its observed discovery rate (paths found per
unit of work); its *risk* is the variance of that rate across completed
tasks. :func:`markowitz_weights` computes mean-variance weights — a
diagonal-covariance Markowitz solution where the weight of asset i is
proportional to its risk-adjusted excess return, floored at an
exploration minimum so no subtree is starved (an unexplored subtree's
return estimate is exactly the kind of uncertainty diversification
hedges against).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import HiveError
from repro.floats import left_sum

__all__ = ["SubtreeStats", "markowitz_weights"]


@dataclass
class SubtreeStats:
    """Online return statistics for one subtree (Welford)."""

    key: object
    samples: int = 0
    _mean: float = 0.0
    _m2: float = 0.0

    def record(self, rate: float) -> None:
        self.samples += 1
        delta = rate - self._mean
        self._mean += delta / self.samples
        self._m2 += delta * (rate - self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        if self.samples < 2:
            return 1.0  # maximal uncertainty until evidence accrues
        return max(1e-9, self._m2 / (self.samples - 1))


def markowitz_weights(stats: Sequence[SubtreeStats],
                      risk_aversion: float = 1.0,
                      exploration_floor: float = 0.05) -> List[float]:
    """Mean-variance weights over subtrees, normalised to sum to 1.

    With a diagonal covariance matrix, maximising
    ``w . mu - (risk_aversion/2) w' Sigma w`` over the simplex gives
    weights proportional to ``mu_i / (risk_aversion * sigma_i^2)``
    (clipped at zero). ``exploration_floor`` guarantees each subtree a
    minimum share, then the remainder follows the Markowitz solution.
    """
    if not stats:
        raise HiveError("markowitz_weights needs at least one subtree")
    if risk_aversion <= 0:
        raise HiveError("risk_aversion must be positive")
    n = len(stats)
    if exploration_floor * n > 1.0:
        raise HiveError("exploration_floor too large for subtree count")
    raw = [max(0.0, s.mean) / (risk_aversion * s.variance) for s in stats]
    total = left_sum(raw)
    if total <= 0.0:
        # No evidence anywhere: uniform diversification.
        return [1.0 / n] * n
    spendable = 1.0 - exploration_floor * n
    return [exploration_floor + spendable * r / total for r in raw]
