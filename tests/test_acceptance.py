"""End-to-end acceptance checks, one test per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion plus a printed summary with the measured numbers.
The factorial-grid criteria share two module-scoped sweeps (one fast,
one with runtime consistency checks enabled), so the whole file costs
roughly two full grid runs.
"""

import json
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from fransim.cli import EXIT_OK, main
from fransim.config import ScenarioConfig
from fransim.engine import Simulation, sweep
from fransim.oracle import (
    DemandSpec,
    brute_force_optimal,
    linearize,
    verify_linearization,
)
from fransim.policies import POLICY_NAMES, PolicyConfig, refreshed_rate
from fransim.topology import Capacities, Catalog, build_topology
from fransim.workload import pcg64, sample_ranks, zipf_pmf

GRID_COUNTS = (5, 10, 15, 20, 25, 30)
GRID_SEEDS = range(10)


@pytest.fixture(scope="module")
def paper_grid():
    start = time.perf_counter()
    rows = sweep(ScenarioConfig(seeds=list(GRID_SEEDS)), GRID_COUNTS)
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.fixture(scope="module")
def debug_grid():
    return sweep(
        ScenarioConfig(seeds=list(GRID_SEEDS)), GRID_COUNTS, debug=True
    )


def seed_mean(rows, metric, policy, n_fues, d2d):
    values = [
        row[metric]
        for row in rows
        if row["policy"] == policy
        and row["n_fues"] == n_fues
        and row["d2d"] == d2d
    ]
    assert len(values) == len(GRID_SEEDS)
    return sum(values) / len(values)


def test_criterion_1_cache_hit_trend_and_grid_runtime(paper_grid):
    rows, elapsed = paper_grid
    assert len(rows) == 6 * 3 * 2 * 10
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    for d2d in (False, True):
        for n in (15, 20, 25, 30):
            rh = seed_mean(rows, "cache_hits", "rate-hop", n, d2d)
            fifo = seed_mean(rows, "cache_hits", "fifo", n, d2d)
            lru = seed_mean(rows, "cache_hits", "lru", n, d2d)
            assert rh >= fifo, (n, d2d, rh, fifo)
            assert rh >= lru, (n, d2d, rh, lru)
    print(
        f"PASS criterion 1: rate-hop mean cache hits >= fifo and lru at "
        f"every count >= 15, both d2d settings; 360-run grid in "
        f"{elapsed:.1f}s (< 60s)"
    )


def test_criterion_2_average_hops_at_full_load(paper_grid):
    rows, _ = paper_grid
    for d2d in (False, True):
        rh = seed_mean(rows, "avg_hops", "rate-hop", 30, d2d)
        fifo = seed_mean(rows, "avg_hops", "fifo", 30, d2d)
        assert rh <= fifo, (d2d, rh, fifo)
    off = (
        seed_mean(rows, "avg_hops", "rate-hop", 30, False),
        seed_mean(rows, "avg_hops", "fifo", 30, False),
    )
    on = (
        seed_mean(rows, "avg_hops", "rate-hop", 30, True),
        seed_mean(rows, "avg_hops", "fifo", 30, True),
    )
    print(
        f"PASS criterion 2: rate-hop mean avg_hops <= fifo at 30 devices "
        f"(d2d off {off[0]:.3f} <= {off[1]:.3f}, on {on[0]:.3f} <= "
        f"{on[1]:.3f})"
    )


def test_criterion_3_d2d_reduces_fronthaul(paper_grid):
    rows, _ = paper_grid
    for policy in POLICY_NAMES:
        for n in GRID_COUNTS:
            with_d2d = seed_mean(rows, "fronthaul_packets", policy, n, True)
            without = seed_mean(rows, "fronthaul_packets", policy, n, False)
            assert with_d2d <= without, (policy, n, with_d2d, without)
    print(
        "PASS criterion 3: mean fronthaul packets with d2d <= without, "
        "for every policy and device count"
    )


def test_criterion_4_runtime_invariants_hold_over_the_grid(
    paper_grid, debug_grid
):
    """The debug grid runs every cell's request kernel under the
    observer with its checks on; the fast grid runs the bare kernels.
    Equal rows show over 360 runs that the debug instrumentation changes
    no metric, as well as that the invariants hold."""
    rows, _ = paper_grid
    assert debug_grid == rows
    print(
        "PASS criterion 4: full grid re-run with consistency checks on "
        "(store capacities, holder counts, flow conservation) raised "
        "nothing and matched the fast rows: debug instrumentation "
        "changed no metric"
    )


def test_criterion_5_oracle_exactness_and_verified_linearization():
    start = time.perf_counter()
    topo = build_topology(2, [1, 1], Capacities(bbu=2, fap=1, fue=0))
    u1, u2 = topo.fues()
    a1, a2 = topo.faps()
    demand = DemandSpec({("c1", u1): 1.0, ("c2", u2): 1.0})
    placement, value = brute_force_optimal(topo, demand)
    assert value == 4.0
    assert placement == {("c1", a1): 1, ("c2", a2): 1}
    full = verify_linearization(topo, demand)
    assert full.ok
    compact = linearize(topo, demand, drop_zero_capacity=True)
    small = verify_linearization(topo, demand, compact)
    assert small.ok
    assert small.checked == 2 ** 6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle took {elapsed:.2f}s"
    print(
        f"PASS criterion 5: optimum 4.0 at {{c1@fap1, c2@fap2}}, "
        f"linearization exact over {full.checked} and {small.checked} "
        f"assignments, in {elapsed * 1000:.0f}ms (< 1s)"
    )


def test_criterion_6_rate_refresh_property_suite():
    rng = np.random.default_rng(20240817)
    tol = 1e-12
    for _ in range(10_000):
        alpha = float(rng.uniform(0.0, 10.0))
        beta = float(rng.uniform(0.0, 10.0))
        if alpha + beta == 0.0:
            alpha = 1.0
        new = float(rng.uniform(0.0, 100.0))
        old = float(rng.uniform(0.0, 100.0))
        mixed = refreshed_rate(alpha, beta, new, old)
        lo, hi = min(new, old), max(new, old)
        slack = tol * max(1.0, hi)
        assert lo - slack <= mixed <= hi + slack, (alpha, beta, new, old)
        scale = float(rng.uniform(0.1, 10.0))
        scaled = refreshed_rate(alpha, beta, scale * new, scale * old)
        assert abs(scaled - scale * mixed) <= tol * max(
            1.0, abs(scale * mixed)
        ), (alpha, beta, new, old, scale)
    print(
        "PASS criterion 6: 10,000 random refresh tuples satisfy the "
        "convex-combination bounds and scale equivariance at 1e-12 "
        "relative tolerance"
    )


def test_criterion_7_zipf_sampler_goodness_of_fit():
    results = []
    for exponent, catalog in ((0.8, 100), (1.0, 50)):
        # pcg64(424242) is numpy's default_rng(424242) stream.
        rng = pcg64(424242)
        n = 1_000_000
        ranks = sample_ranks(exponent, catalog, rng, n)
        observed = np.bincount(ranks, minlength=catalog + 1)[1:]
        expected = np.array(zipf_pmf(exponent, catalog)) * n
        _, p_value = scipy.stats.chisquare(observed, expected)
        assert p_value > 0.001, (exponent, catalog, p_value)
        results.append(f"s={exponent}, k={catalog}: p={p_value:.3f}")
    print(
        "PASS criterion 7: chi-square fit of 1e6 samples against the "
        "exact pmf passes (" + "; ".join(results) + ")"
    )


def test_criterion_8_byte_level_determinism(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(textwrap.dedent("""\
        topology:
          n_faps: 2
          fues_per_fap: 2
          capacities: {bbu: 4, fap: 2, fue: 1}
          d2d_enabled: true
        workload:
          catalog_size: 30
          interests_per_fue: 300
        run:
          seeds: [0, 1]
        """), encoding="utf-8")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["run", str(config), "--output", a]) == EXIT_OK
    assert main(["run", str(config), "--output", b]) == EXIT_OK
    assert Path(a).read_bytes() == Path(b).read_bytes()

    serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    sweep_args = ["sweep", str(config), "--fues", "2,4"]
    assert main(sweep_args + ["--output", serial]) == EXIT_OK
    assert main(sweep_args + ["--output", parallel, "--jobs", "2"]) == EXIT_OK
    assert Path(serial).read_bytes() == Path(parallel).read_bytes()
    print(
        "PASS criterion 8: repeated runs byte-identical; serial and "
        "parallel sweeps byte-identical"
    )


def test_criterion_9_walkthrough_goldens():
    data = Path(__file__).parent / "data"
    cases = {}
    for slug in ("fifo", "ratehop"):
        with open(data / f"walkthrough_{slug}.json", encoding="utf-8") as fh:
            case = json.load(fh)
        spec = case["topology"]
        topo = build_topology(
            spec["n_faps"], spec["fues_per_fap"],
            Capacities(**spec["capacities"]),
        )
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
        assert stores == case["final_stores"], case["policy"]
        report = sim.report()
        assert report.total_hops == case["metrics"]["total_hops"]
        assert report.hits_by_tier == case["metrics"]["hits_by_tier"]
        assert (
            report.fronthaul_packets == case["metrics"]["fronthaul_packets"]
        )
        cases[slug] = case
    assert "c1" not in cases["fifo"]["final_stores"]["bbu"]
    assert cases["ratehop"]["final_stores"]["bbu"] == ["c1", "c2"]
    assert "c3" in cases["ratehop"]["final_stores"]["fap1"]
    print(
        "PASS criterion 9: seven-node walkthrough matches the hand-traced "
        "goldens (fifo drops c1 at the BBU; rate-hop keeps it and moves "
        "c3 to access point 1)"
    )
