"""Golden regression for the seven-node replacement scenario.

Two access points with two devices each, store capacities 2/2/1, and
the request sequence C1 C2 C1 C2 C3 C3.  The golden files in
``tests/data`` hold the hand-traced final stores and metrics:

- FIFO: the BBU evicts its oldest entry (c1) when c3 arrives, and
  access point 1 then serves the second c3 from its own store.
- Rate-and-hop, with BBU rates seeded at 4 for c1 and c2: each
  incumbent's data arrival lifts it to 5 x 1 at the BBU, where c3
  scores only 1 x 1 and then 2 x 1, so the BBU keeps c1/c2.  Access
  point 1 rejects the first c3 (a tie, 1 x 2 vs 1 x 2) and admits the
  second (2 x 2 > 1 x 2), evicting its earliest insert, c1.
"""

import json
from pathlib import Path

import pytest

from fransim.engine import Simulation
from fransim.policies import PolicyConfig
from fransim.topology import Capacities, Catalog, build_topology

from _reference import ReferenceSimulation

DATA = Path(__file__).parent / "data"


def load_case(slug):
    with open(DATA / f"walkthrough_{slug}.json", encoding="utf-8") as handle:
        return json.load(handle)


def build(case):
    spec = case["topology"]
    return build_topology(
        spec["n_faps"],
        spec["fues_per_fap"],
        Capacities(**spec["capacities"]),
    )


def metrics_dict(report):
    return {
        "total_interests": report.total_interests,
        "total_hops": report.total_hops,
        "in_network_cache_hits": report.in_network_cache_hits,
        "hits_by_tier": report.hits_by_tier,
        "fronthaul_packets": report.fronthaul_packets,
    }


@pytest.fixture(params=["fifo", "ratehop"])
def case(request):
    return load_case(request.param)


def test_engine_reproduces_the_golden(case):
    topo = build(case)
    sim = Simulation(
        topo, Catalog(case["catalog_size"]), case["policy"],
        PolicyConfig(), debug=True,
    )
    for label, rates in case["seed_rates"].items():
        for name, rate in rates.items():
            sim.seed_rate(topo.label_to_id[label], name, rate)
    for t, label, name in case["requests"]:
        sim.request(topo.label_to_id[label], name, t)
    stores = {
        label: sorted(sim.cs_contents(topo.label_to_id[label]))
        for label in case["final_stores"]
    }
    assert stores == case["final_stores"]
    assert metrics_dict(sim.report()) == case["metrics"]


def test_packet_level_reference_reproduces_the_golden(case):
    topo = build(case)
    ref = ReferenceSimulation(
        topo, Catalog(case["catalog_size"]), case["policy"], PolicyConfig()
    )
    for label, rates in case["seed_rates"].items():
        node = ref.nodes[topo.label_to_id[label]]
        for name, rate in rates.items():
            node.policy.table.rates[name] = rate
    for t, label, name in case["requests"]:
        ref.request(topo.label_to_id[label], name, t)
    stores = {
        label: sorted(ref.cs_contents(topo.label_to_id[label]))
        for label in case["final_stores"]
    }
    assert stores == case["final_stores"]
    assert metrics_dict(ref.report()) == case["metrics"]


def test_the_policies_disagree_exactly_where_intended():
    fifo = load_case("fifo")
    ratehop = load_case("ratehop")
    # FIFO loses the popular content at the BBU to the one-off c3 ...
    assert "c1" not in fifo["final_stores"]["bbu"]
    assert "c3" in fifo["final_stores"]["bbu"]
    # ... while the rate-weighted policy keeps it and lets the edge
    # store take c3 once its demand justifies an eviction there.
    assert ratehop["final_stores"]["bbu"] == ["c1", "c2"]
    assert "c3" in ratehop["final_stores"]["fap1"]
    # both saw the same six requests
    assert fifo["requests"] == ratehop["requests"]
