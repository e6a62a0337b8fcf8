"""Synthetic request workload: Zipf-distributed content popularity.

Every user device issues interests at a fixed cadence for contents
drawn from a shared Zipf popularity law over the catalog.  Each device
samples from its own seeded substream, so draws are independent across
devices and adding devices never perturbs existing ones.

numpy draws the ranks, and this module imports it only inside the
functions that draw: numpy loads when the first schedule is built, so
a command that builds none (``fransim oracle``) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError
from .topology import Catalog, NodeId

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ZipfSpec:
    exponent: float = 0.8
    catalog_size: int = 100
    seed: int = 0
    interests_per_fue: int = 2000
    inter_arrival: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.exponent) or self.exponent < 0:
            raise ConfigError("zipf exponent must be finite and non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.catalog_size < 1:
            raise ConfigError("catalog size must be positive")
        if self.interests_per_fue < 1:
            raise ConfigError("interests per device must be positive")
        if not math.isfinite(self.inter_arrival) or self.inter_arrival <= 0:
            raise ConfigError("inter-arrival time must be finite and positive")
        try:
            last = float((self.interests_per_fue - 1) * self.inter_arrival)
        except OverflowError:  # an int beyond the float range
            last = math.inf
        if not math.isfinite(last):
            raise ConfigError(
                "the last arrival time, (interests per device - 1) x "
                "inter-arrival time, must be finite"
            )


def zipf_pmf(exponent: float, catalog_size: int) -> np.ndarray:
    """Probability of each rank 1..K, p(r) proportional to r**-exponent."""
    import numpy as np
    weights = np.arange(1, catalog_size + 1, dtype=np.float64) ** -float(exponent)
    return weights / weights.sum()


def sample_ranks(
    exponent: float, catalog_size: int, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw ``count`` ranks in 1..K by inverting the cumulative pmf."""
    import numpy as np
    cdf = np.cumsum(zipf_pmf(exponent, catalog_size))
    u = rng.random(count)
    ranks = np.searchsorted(cdf, u, side="right") + 1
    return np.minimum(ranks, catalog_size)


def fue_rng(seed: int, fue: NodeId) -> np.random.Generator:
    """The dedicated random substream for one device."""
    import numpy as np
    return np.random.default_rng([seed, fue])


def build_schedule(
    spec: ZipfSpec, fue_ids: list[NodeId]
) -> list[tuple[float, NodeId, str]]:
    """All request arrivals for a run, sorted by (time, device id).

    Each row is ``(time, fue, name)``.  The schedule depends only on
    the spec and the device ids, never on caching behaviour, so paired
    experiments see identical request streams.
    """
    names = Catalog(spec.catalog_size).names
    n = spec.interests_per_fue
    fues = sorted(fue_ids)
    columns = [
        [names[r - 1] for r in sample_ranks(
            spec.exponent, spec.catalog_size, fue_rng(spec.seed, fue), n
        ).tolist()]
        for fue in fues
    ]
    # Every row of a step shares that step's one time object.
    times = (i * spec.inter_arrival for i in range(n))
    return [
        (t, fue, name)
        for t, draws in zip(times, zip(*columns))
        for fue, name in zip(fues, draws)
    ]
