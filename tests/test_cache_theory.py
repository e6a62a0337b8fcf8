"""The device stores against closed-form cache theory.

With D2D off, an F-UE's own store sees only that device's requests,
and each request is drawn independently from one fixed Zipf law (the
independent reference model).  A FIFO or LRU store of two slots under
that model has an exact stationary hit ratio, so the simulated
own-store hit ratio is checked against numbers that share no logic
with the engine:

- FIFO (Gelenbe 1973): the set S of cached contents has stationary
  probability proportional to the product of p_i over S;
- LRU (King 1971): the ordered pair (i, j), i the most recent, has
  stationary probability p_i p_j / (1 - p_i).

The check runs at two Zipf exponents.  At 0.8 the FIFO and LRU values
lie about 2 standard errors apart, so an LRU that never refreshed on a
hit would pass as FIFO; at 1.2 they lie about 16 apart, and that LRU
fails.
"""

import itertools
import math
import statistics

import numpy as np
import pytest

from fransim.engine import Simulation
from fransim.topology import Capacities, Catalog, build_topology
from fransim.workload import ZipfSpec, build_schedule, zipf_pmf

WARMUP = 200  # requests before this time fill the stores; not counted
# Allowed distance from the exact value, in standard errors of the
# sample mean: a correct engine fails this two-sided check with
# probability 0.3 %.
Z_BOUND = 3.0


def exact_hit_ratio(policy: str, p: np.ndarray) -> float:
    """Stationary hit ratio of a two-slot store under IRM demand p."""
    pairs = np.outer(p, p)
    np.fill_diagonal(pairs, 0.0)
    if policy == "fifo":
        weight = pairs / pairs.sum()
    else:
        weight = pairs / (1.0 - p)[:, None]
    return float((weight * (p[:, None] + p[None, :])).sum())


def chain_hit_ratio(policy: str, p: np.ndarray) -> float:
    """The same ratio from the store's Markov chain, solved numerically.

    A state is an ordered pair of distinct contents: (older, newer) in
    insertion order for FIFO, (older, newer) in use order for LRU.
    """
    states = list(itertools.permutations(range(len(p)), 2))
    index = {s: n for n, s in enumerate(states)}
    moves = np.zeros((len(states), len(states)))
    for (a, b), row in index.items():
        for i, p_i in enumerate(p):
            if i == b or (i == a and policy == "fifo"):
                nxt = (a, b)
            elif i == a:
                nxt = (b, a)
            else:
                nxt = (b, i)
            moves[row, index[nxt]] += p_i
    # The stationary law solves pi (P - I) = 0 with pi summing to one.
    system = np.vstack([moves.T - np.eye(len(states)), np.ones(len(states))])
    rhs = np.zeros(len(states) + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return float(sum(pi[n] * (p[a] + p[b]) for (a, b), n in index.items()))


@pytest.mark.parametrize("policy", ["fifo", "lru"])
def test_closed_forms_match_the_store_chain(policy):
    p = np.array(zipf_pmf(0.8, 6))
    assert exact_hit_ratio(policy, p) == pytest.approx(
        chain_hit_ratio(policy, p), rel=1e-12
    )


@pytest.mark.parametrize(
    "policy,exponent",
    [
        pytest.param("fifo", 0.8, id="fifo"),
        pytest.param("lru", 0.8, id="lru"),
        pytest.param("fifo", 1.2, id="fifo-steep"),
        pytest.param("lru", 1.2, id="lru-steep"),
    ],
)
def test_device_store_hit_ratio_matches_irm_theory(policy, exponent):
    caps = Capacities(bbu=8, fap=4, fue=2)
    topo = build_topology(5, 6, caps, d2d_enabled=False)
    devices = set(topo.fues())
    ratios = []
    for seed in range(10):
        spec = ZipfSpec(exponent=exponent, catalog_size=100, seed=seed)
        requests = dict.fromkeys(devices, 0)
        hits = dict.fromkeys(devices, 0)
        # FIFO and LRU keep no rates, so refresh ticks change nothing and
        # the schedule can be replayed request by request.
        sim = Simulation(topo, Catalog(spec.catalog_size), policy)
        for t, fue, name in build_schedule(spec, topo.fues()):
            if t >= WARMUP:
                requests[fue] += 1
                hits[fue] += name in sim.cs_contents(fue)
            sim.request(fue, name, t)
        ratios += [hits[u] / requests[u] for u in sorted(devices)]

    exact = exact_hit_ratio(policy, np.array(zipf_pmf(exponent, 100)))
    mean = statistics.fmean(ratios)
    stderr = statistics.stdev(ratios) / math.sqrt(len(ratios))
    print(
        f"{policy} at exponent {exponent}: simulated {mean:.5f}, "
        f"exact {exact:.5f}, standard error {stderr:.5f}, "
        f"z {(mean - exact) / stderr:+.2f}"
    )
    assert abs(mean - exact) <= Z_BOUND * stderr
