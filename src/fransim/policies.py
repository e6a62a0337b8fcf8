"""Cache replacement policy names, knobs and the rate-refresh rule.

Three replacement schemes are provided, all implemented by the engine.
``fifo`` and ``lru`` are the classic baselines: they always admit new
content and evict the oldest or least recently used entry.
``rate-hop`` is selective: each node tracks a demand rate per content
name, smooths it periodically with a weighted average of the current
observation window and the previous estimate, and only evicts when the
incoming content scores higher than the weakest cached entry.  An
entry's score is its tracked rate times the hop distance its data
travelled when it was fetched, so content that is both popular and
expensive to re-fetch is retained.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError

POLICY_NAMES = ("fifo", "lru", "rate-hop")

# Window counts and rates stay at most MAX_RATE (``seed_rate`` refuses
# more), so weights at most MAX_RATE_WEIGHT keep both products of a
# refresh at most half the largest float, and its sums finite.
MAX_RATE = 2.0 ** 53
MAX_RATE_WEIGHT = sys.float_info.max / 2 ** 54


class ScoreRule(Enum):
    """How a cached entry is valued when choosing an eviction victim."""

    RATE_TIMES_FETCH_HOPS = "rate-times-fetch-hops"
    RATE_ONLY = "rate-only"


@dataclass(frozen=True)
class PolicyConfig:
    tau: float = 100.0
    alpha: float = 1.0
    beta: float = 1.0
    score_rule: ScoreRule = ScoreRule.RATE_TIMES_FETCH_HOPS

    def __post_init__(self):
        if not math.isfinite(self.tau) or self.tau <= 0:
            raise ConfigError("refresh period tau must be finite and positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ConfigError("rate weights must be finite")
        if max(self.alpha, self.beta) > MAX_RATE_WEIGHT:
            raise ConfigError(
                f"rate weights must be at most {MAX_RATE_WEIGHT} "
                "(the largest float / 2**54), or a refresh can overflow"
            )
        # With a subnormal sum the refresh rounds so coarsely that the
        # rate can leave its inputs' range.
        total = self.alpha + self.beta
        if self.alpha < 0 or self.beta < 0 or total < sys.float_info.min:
            raise ConfigError(
                "rate weights must be non-negative with a positive sum "
                f"that is a normal float (at least {sys.float_info.min})"
            )


def refreshed_rate(
    alpha: float, beta: float, window_count: float, old_rate: float
) -> float:
    """Weighted average of the fresh observation and the old estimate.

    Returns ``(alpha * window_count + beta * old_rate) / (alpha + beta)``.
    For weights ``PolicyConfig`` accepts and inputs at most ``MAX_RATE``
    this is a convex combination, so the result lies between the two
    inputs and scales linearly with them.
    """
    return (alpha * window_count + beta * old_rate) / (alpha + beta)

