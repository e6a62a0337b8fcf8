"""Synthetic request workload: Zipf-distributed content popularity.

Every user device issues interests at a fixed cadence for contents
drawn from a shared Zipf popularity law over the catalog.  Each device
samples from its own seeded substream, so draws are independent across
devices and adding devices never perturbs existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .topology import Catalog, NodeId


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
        if self.catalog_size < 1:
            raise ConfigError("catalog size must be positive")
        if self.interests_per_fue < 1:
            raise ConfigError("interests per device must be positive")
        if not math.isfinite(self.inter_arrival) or self.inter_arrival <= 0:
            raise ConfigError("inter-arrival time must be finite and positive")


def zipf_pmf(exponent: float, catalog_size: int) -> np.ndarray:
    """Probability of each rank 1..K, p(r) proportional to r**-exponent."""
    weights = np.arange(1, catalog_size + 1, dtype=np.float64) ** -float(exponent)
    return weights / weights.sum()


def sample_ranks(
    exponent: float, catalog_size: int, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw ``count`` ranks in 1..K by inverting the cumulative pmf."""
    cdf = np.cumsum(zipf_pmf(exponent, catalog_size))
    u = rng.random(count)
    ranks = np.searchsorted(cdf, u, side="right") + 1
    return np.minimum(ranks, catalog_size)


def fue_rng(seed: int, fue: NodeId) -> np.random.Generator:
    """The dedicated random substream for one device."""
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
    per_fue: dict[NodeId, list[str]] = {}
    for fue in fue_ids:
        ranks = sample_ranks(
            spec.exponent,
            spec.catalog_size,
            fue_rng(spec.seed, fue),
            spec.interests_per_fue,
        )
        per_fue[fue] = [names[r - 1] for r in ranks.tolist()]
    ordered_fues = sorted(fue_ids)
    rows: list[tuple[float, NodeId, str]] = []
    for i in range(spec.interests_per_fue):
        t = i * spec.inter_arrival
        for fue in ordered_fues:
            rows.append((t, fue, per_fue[fue][i]))
    return rows
