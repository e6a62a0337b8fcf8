import gc
import json
import math
import multiprocessing
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fransim import engine
from fransim.config import MAX_TICKS_PER_STEP, ScenarioConfig
from fransim.engine import (
    MetricsReport, Simulation, metrics_row, run_single, sweep,
)
from fransim.errors import ConfigError, InvariantViolation
from fransim.policies import (
    MAX_RATE, POLICY_NAMES, PolicyConfig, ScoreRule, refreshed_rate,
)
from fransim.topology import (
    Capacities, Catalog, build_topology, distribute_fues,
)
from fransim.workload import ZipfSpec, build_schedule

from _reference import ReferenceSimulation


def chain(caps, d2d=False):
    return build_topology(1, [1], Capacities(*caps), d2d)


def repeat_schedule(fue, names, start=0.0):
    return [(start + i, fue, name) for i, name in enumerate(names)]


# -- scripted single-chain scenarios --------------------------------------

def test_no_caching_all_requests_reach_origin():
    topo = chain((0, 0, 0))
    sim = Simulation(topo, Catalog(5), "fifo", debug=True)
    fue = topo.fues()[0]
    report = sim.run_schedule(repeat_schedule(fue, ["c1"] * 10))
    assert report.hits_by_tier == {
        "own_cs": 0, "d2d": 0, "fap": 0, "bbu": 0, "producer": 10,
    }
    assert report.avg_hops == 6.0
    assert report.fronthaul_packets == 20
    assert report.in_network_cache_hits == 0


def test_device_store_absorbs_repeats():
    topo = chain((0, 0, 1))
    sim = Simulation(topo, Catalog(5), "fifo", debug=True)
    fue = topo.fues()[0]
    report = sim.run_schedule(repeat_schedule(fue, ["c1"] * 10))
    assert report.hits_by_tier["producer"] == 1
    assert report.hits_by_tier["own_cs"] == 9
    assert report.avg_hops == 0.6
    assert report.fronthaul_packets == 2


def test_every_tier_serves_at_its_hop_cost():
    topo = build_topology(1, [2], Capacities(bbu=1, fap=1, fue=1))
    sim = Simulation(topo, Catalog(5), "lru", debug=True)
    u1, u2 = topo.fues()
    sim.request(u1, "c1", 0.0)  # producer, 6 hops; cached everywhere
    sim.request(u1, "c1", 1.0)  # own store, 0 hops
    sim.request(u2, "c1", 2.0)  # access point, 2 hops
    sim.request(u2, "c2", 3.0)  # producer again, evicting c1 en route
    sim.request(u1, "c1", 4.0)  # own store still holds c1
    sim.request(u2, "c1", 5.0)  # went to the BBU? no: BBU holds c2 now
    report = sim.report()
    assert report.hits_by_tier["own_cs"] == 2
    assert report.hits_by_tier["fap"] == 1
    assert report.total_interests == 6


def test_bbu_tier_hit_costs_four_hops():
    topo = build_topology(2, [1, 1], Capacities(bbu=1, fap=0, fue=0))
    sim = Simulation(topo, Catalog(3), "fifo", debug=True)
    u1, u2 = topo.fues()
    sim.request(u1, "c1", 0.0)  # producer; BBU caches c1
    sim.request(u2, "c1", 1.0)  # sibling subtree hits the BBU copy
    report = sim.report()
    assert report.hits_by_tier == {
        "own_cs": 0, "d2d": 0, "fap": 0, "bbu": 1, "producer": 1,
    }
    assert report.total_hops == 6 + 4
    assert report.fronthaul_packets == 4


def test_d2d_serves_nearby_copy_when_enabled():
    for d2d in (False, True):
        topo = build_topology(1, [2], Capacities(bbu=0, fap=0, fue=1), d2d)
        sim = Simulation(topo, Catalog(3), "fifo", debug=True)
        u1, u2 = topo.fues()
        sim.request(u2, "c1", 0.0)  # producer; only u2 caches c1
        sim.request(u1, "c1", 1.0)
        report = sim.report()
        if d2d:
            assert report.hits_by_tier["d2d"] == 1
            assert report.total_hops == 6 + 2
            assert report.fronthaul_packets == 2
        else:
            assert report.hits_by_tier["d2d"] == 0
            assert report.hits_by_tier["producer"] == 2
            assert report.total_hops == 12
            assert report.fronthaul_packets == 4


def test_d2d_delivery_skips_requester_store_by_default():
    topo = build_topology(1, [2], Capacities(bbu=0, fap=0, fue=1), True)
    for cache_d2d, expect in ((False, set()), (True, {"c1"})):
        sim = Simulation(
            topo, Catalog(3), "fifo", debug=True, cache_d2d_data=cache_d2d
        )
        u1, u2 = topo.fues()
        sim.request(u2, "c1", 0.0)
        sim.request(u1, "c1", 1.0)
        assert sim.cs_contents(u1) == expect
        assert sim.cs_contents(u2) == {"c1"}


def test_fifo_and_lru_diverge_on_reuse():
    results = {}
    for policy in ("fifo", "lru"):
        topo = chain((0, 0, 2))
        sim = Simulation(topo, Catalog(4), policy, debug=True)
        fue = topo.fues()[0]
        sim.run_schedule(repeat_schedule(fue, ["c1", "c2", "c1", "c3"]))
        results[policy] = sim.cs_contents(fue)
    assert results["fifo"] == {"c2", "c3"}  # c1 was the oldest insert
    assert results["lru"] == {"c1", "c3"}  # the re-use saved c1


def test_rate_policy_keeps_hot_content():
    topo = chain((0, 0, 1))
    sim = Simulation(topo, Catalog(3), "rate-hop", debug=True)
    fue = topo.fues()[0]
    sim.seed_rate(fue, "c1", 5.0)
    sim.run_schedule(repeat_schedule(fue, ["c1", "c2"]))
    assert sim.cs_contents(fue) == {"c1"}  # c2's score 1x3 < c1's 6x3
    assert sim.rate_of(fue, "c1") == 6.0


def test_seed_rate_requires_rate_policy():
    # FIFO and LRU keep no rates, even after requests and refreshes.
    topo = build_topology(2, [2, 2], Capacities(bbu=2, fap=1, fue=2), True)
    catalog = Catalog(4)
    u1, u2, u3, _ = topo.fues()
    # u2's c1 misses its access point, which holds c2, and comes from u1.
    rounds = [(u1, "c1"), (u1, "c2"), (u2, "c1"), (u3, "c3"), (u3, "c4")]
    for policy in ("fifo", "lru"):
        sim = Simulation(topo, catalog, policy, PolicyConfig(tau=2.0))
        sim.run_schedule([(float(t), *rounds[t % 5]) for t in range(15)])
        assert sim.report().hits_by_tier["d2d"] > 0
        for node in range(len(topo)):
            for name in catalog.names:
                assert sim.rate_of(node, name) == 0.0
        with pytest.raises(ValueError, match="only the rate-tracking"):
            sim.seed_rate(topo.bbu(), "c1", 1.0)


@pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
def test_seed_rate_must_be_nonnegative(rate):
    topo = chain((1, 1, 1))
    sim = Simulation(topo, Catalog(2), "rate-hop")
    with pytest.raises(ValueError, match="non-negative"):
        sim.seed_rate(topo.bbu(), "c1", rate)


# -- refresh ticks ---------------------------------------------------------

def test_ticks_fire_before_same_time_arrivals():
    topo = chain((2, 2, 2))
    trace: list[str] = []
    config = PolicyConfig(tau=1.0)
    sim = Simulation(topo, Catalog(3), "rate-hop", config, trace=trace)
    fue = topo.fues()[0]
    sim.run_schedule(repeat_schedule(fue, ["c1", "c1", "c2"]))
    records = [json.loads(line) for line in trace]
    events = [
        (r["time"], r["kind"]) for r in records if r["node"] in (None, fue)
    ]
    assert events.index((1.0, "tick")) < events.index((1.0, "interest"))
    assert events.index((2.0, "tick")) < events.index((2.0, "interest"))
    assert sim.seq == 3 + 2  # three arrivals, two refreshes


def test_tick_times_do_not_drift():
    topo = chain((1, 1, 1))
    trace: list[str] = []
    config = PolicyConfig(tau=0.3)
    sim = Simulation(topo, Catalog(2), "rate-hop", config, trace=trace)
    fue = topo.fues()[0]
    sim.run_schedule(repeat_schedule(fue, ["c1"] * 4))
    records = [json.loads(line) for line in trace]
    ticks = [r["time"] for r in records if r["kind"] == "tick"]
    assert ticks == [0.3 * k for k in range(1, 11)]


def test_a_replay_refuses_a_row_that_would_tick_past_its_bound(monkeypatch):
    # Reaching 1e308 at tau = 100 takes 1e306 ticks: the replay raises
    # before its first one.
    ticks = []

    def counted_tick(sim, now):
        ticks.append(now)
        if len(ticks) > 10:
            raise AssertionError("the replay kept ticking")

    monkeypatch.setattr(Simulation, "tick", counted_tick)
    topo = ScenarioConfig(fues_per_fap=[1], policy="fifo",
                          seeds=[0]).topology()
    sim = Simulation(topo, Catalog(2), "fifo")
    fue = topo.fues()[0]
    with pytest.raises(ValueError, match="policy tau 100.0 is too short"):
        sim.run_schedule([(0.0, fue, "c1"), (1e308, fue, "c2")])
    assert ticks == [] and sim.report().total_interests == 1


@pytest.mark.parametrize("last, ok", [
    (2000.0, True),   # 2000 ticks for 2 rows: at the bound
    (2000.5, True),
    (2001.0, False),  # tick 2001 would fire
])
def test_a_replay_fires_at_most_the_tick_bound_per_row(last, ok):
    topo = chain((1, 1, 1))
    sim = Simulation(topo, Catalog(2), "fifo", PolicyConfig(tau=1.0))
    fue = topo.fues()[0]
    schedule = [(0.0, fue, "c1"), (last, fue, "c2")]
    if ok:
        assert sim.run_schedule(schedule).total_interests == 2
        assert sim.seq == 2 + 2000
    else:
        with pytest.raises(ValueError, match="refresh ticks per row"):
            sim.run_schedule(schedule)
        assert sim.seq == 1


@settings(max_examples=40, deadline=None)
@given(
    steps=st.integers(2, 5),
    tau=st.floats(1e-3, 1e3),
    nudge=st.integers(-3, 3),
)
def test_every_accepted_config_replays_within_the_tick_bound(
    steps, tau, nudge
):
    # One device, so one row per arrival step: the tightest case, with
    # the inter-arrival time at the config's tick bound give or take a
    # few floats.
    gap = tau * MAX_TICKS_PER_STEP * steps / (steps - 1)
    for _ in range(abs(nudge)):
        gap = math.nextafter(gap, math.inf if nudge > 0 else 0.0)
    try:
        cfg = ScenarioConfig(
            fues_per_fap=[1], policy="fifo",
            policy_config=PolicyConfig(tau=tau),
            zipf=ZipfSpec(catalog_size=2, interests_per_fue=steps,
                          inter_arrival=gap),
            seeds=[0],
        )
    except ConfigError:
        assume(False)
    assert run_single(cfg, 0).total_interests == steps


def test_refresh_halves_idle_rates():
    topo = chain((0, 0, 1))
    sim = Simulation(topo, Catalog(2), "rate-hop", PolicyConfig(tau=10.0))
    fue = topo.fues()[0]
    sim.request(fue, "c1", 0.0)  # miss chain: window 1, bump to 1 on data
    sim.tick(10.0)  # (1*1 + 1*1)/2 = 1.0
    assert sim.rate_of(fue, "c1") == 1.0
    sim.tick(20.0)  # idle window: (0 + 1)/2
    assert sim.rate_of(fue, "c1") == 0.5


def test_idle_rate_decays_to_exactly_zero_then_is_tracked_again():
    topo = chain((0, 0, 0))
    sim = Simulation(topo, Catalog(2), "rate-hop", debug=True)
    fue = topo.fues()[0]
    sim.seed_rate(fue, "c1", 1.0)
    expected = 1.0
    for step in range(1, 1101):  # halving 1.0 underflows after 1075
        sim.tick(float(step))
        expected = refreshed_rate(1.0, 1.0, 0, expected)
        assert sim.rate_of(fue, "c1").hex() == expected.hex()
    assert expected == 0.0
    sim.request(fue, "c1", 1100.5)  # window 1 and a bump to 1 everywhere
    sim.tick(1101.0)
    for node in topo.upstream_path(fue)[:3]:  # device, F-AP, BBU
        assert sim.rate_of(node, "c1") == refreshed_rate(1.0, 1.0, 1, 1.0)


# -- metrics identities -----------------------------------------------------

def test_metric_identities_hold():
    cfg = ScenarioConfig(fues_per_fap=[3, 3], d2d_enabled=True,
                         zipf=ZipfSpec(interests_per_fue=200))
    report = run_single(cfg, seed=1)
    tiers = report.hits_by_tier
    assert sum(tiers.values()) == report.total_interests == 1200
    assert report.in_network_cache_hits == (
        report.total_interests - tiers["producer"]
    )
    assert report.avg_hops == report.total_hops / report.total_interests
    assert report.fronthaul_packets == 2 * (
        tiers["bbu"] + tiers["producer"]
    )


def test_empty_report_avg_hops():
    topo = chain((1, 1, 1))
    sim = Simulation(topo, Catalog(2), "fifo")
    assert sim.report().avg_hops == 0.0


# -- determinism and sweep --------------------------------------------------

def test_identical_runs_identical_reports_and_traces():
    cfg = ScenarioConfig(fues_per_fap=[1] * 5, d2d_enabled=True,
                         zipf=ZipfSpec(interests_per_fue=150))
    traces = []
    reports = []
    for _ in range(2):
        trace: list[str] = []
        reports.append(run_single(cfg, seed=3, trace=trace))
        traces.append(trace)
    assert reports[0] == reports[1]
    assert traces[0] == traces[1]


TRACE_TIMES = (
    st.integers()
    | st.floats(min_value=0, allow_nan=False, allow_infinity=False)
    | st.sampled_from([5e-324, 1e16, 0.1 * 3])
)
EVENT_RECORDS = st.fixed_dictionaries({
    "kind": st.sampled_from(["interest", "data"]),
    "outcome": st.sampled_from([
        "own-hit", "d2d", "cs-hit", "forwarded", "origin", "arrived",
        "delivered",
    ]),
    "name": st.integers(min_value=1).map(lambda k: f"c{k}"),
    "node": st.integers(min_value=0),
    "seq": st.integers(),
    "time": TRACE_TIMES,
})
TICK_RECORDS = st.fixed_dictionaries({
    "kind": st.just("tick"),
    "outcome": st.just("refresh"),
    "name": st.none(),
    "node": st.none(),
    "seq": st.integers(),
    "time": TRACE_TIMES,
})


@given(st.lists(EVENT_RECORDS | TICK_RECORDS, max_size=5))
def test_trace_lines_equal_sorted_json_dumps(records):
    lines = [
        engine._TICK_LINE % (r["seq"], r["time"]) if r["kind"] == "tick"
        else engine._EVENT_LINE % (
            r["kind"], r["name"], r["node"], r["outcome"], r["seq"], r["time"]
        )
        for r in records
    ]
    assert lines == [
        json.dumps(record, sort_keys=True) + "\n" for record in records
    ]


def test_scripted_numpy_times_write_json_trace_lines():
    topo = chain((1, 1, 1))
    lines: list[str] = []
    sim = Simulation(topo, Catalog(3), "fifo", trace=lines)
    fue = topo.fues()[0]
    sim.request(fue, "c1", np.float64(1.5))  # 7 records up and down
    sim.tick(np.int64(3))
    sim.request(fue, "c1", 4)  # an own hit: 1 record
    times = [json.loads(line)["time"] for line in lines]
    assert times == [1.5] * 7 + [3, 4]
    assert lines[7].endswith('"time": 3}\n')
    assert lines[8].endswith('"time": 4}\n')  # an int stays an int
    # A replayed schedule converts its times the same way.
    replayed: list[str] = []
    Simulation(topo, Catalog(3), "fifo", trace=replayed).run_schedule(
        [(np.float64(1.5), fue, "c1")]
    )
    assert replayed == lines[:7]


@pytest.mark.parametrize("now", ["1", None, True, np.bool_(True), 1j])
def test_times_that_are_not_numbers_are_refused(now):
    topo = chain((1, 1, 1))
    lines: list[str] = []
    sim = Simulation(topo, Catalog(3), "fifo", trace=lines)
    with pytest.raises(TypeError, match="time must be an int or a float"):
        sim.request(topo.fues()[0], "c1", now)
    with pytest.raises(TypeError, match="time must be an int or a float"):
        sim.tick(now)
    with pytest.raises(TypeError, match="time must be an int or a float"):
        sim.run_schedule([(now, topo.fues()[0], "c1")])
    assert lines == [] and sim.seq == 0


@pytest.mark.parametrize("now", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    np.float32("inf"),
], ids=["nan", "inf", "-inf", "np-nan", "np-inf"])
def test_non_finite_times_are_refused(now):
    # NaN and the infinities have no JSON form for the trace line.
    topo = chain((1, 1, 1))
    lines: list[str] = []
    sim = Simulation(topo, Catalog(3), "fifo", trace=lines)
    with pytest.raises(ValueError, match="time must be finite"):
        sim.request(topo.fues()[0], "c1", now)
    with pytest.raises(ValueError, match="time must be finite"):
        sim.tick(now)
    # A replay refuses the time before it fires the ticks up to it.
    with pytest.raises(ValueError, match="time must be finite"):
        sim.run_schedule([(now, topo.fues()[0], "c1")])
    assert lines == [] and sim.seq == 0 and sim.report().total_interests == 0


def small(seeds):
    return ScenarioConfig(zipf=ZipfSpec(interests_per_fue=100),
                          seeds=list(seeds))


def test_sweep_grid_shape_and_order():
    rows = sweep(small(range(2)), [5, 10], ("fifo", "rate-hop"),
                 (False, True))
    assert len(rows) == 2 * 2 * 2 * 2
    keys = [(r["policy"], r["n_fues"], r["d2d"], r["seed"]) for r in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_single_cell_sweep_matches_direct_run():
    rows = sweep(small([4]), [6], ("lru",), (True,))
    cfg = replace(small([4]), policy="lru", fues_per_fap=[2, 1, 1, 1, 1],
                  d2d_enabled=True)
    report = run_single(cfg, 4)
    assert rows == [metrics_row(cfg, 4, report)]


def test_sweep_policy_order_is_irrelevant():
    a = sweep(small([0]), [5], ("fifo", "lru"), (False,))
    b = sweep(small([0]), [5], ("lru", "fifo"), (False,))
    assert a == b


def test_sweep_takes_its_axes_as_any_iterables():
    rows = sweep(small([0]), iter([5]), iter(("lru", "fifo")), iter((False,)))
    assert rows == sweep(small([0]), [5], ("fifo", "lru"), (False,))


@pytest.mark.parametrize("fues_per_fap, grid, message", [
    ([1], ([], ("fifo",), (False,)), "the grid names no device count"),
    ([1], ([1], (), (False,)), "the grid names no policy"),
    ([1], ([1], ("fifo",), ()), "the grid names no D2D setting"),
    ([1], ([1, 1], ("fifo", "fifo"), (False,)), "lists device count 1 twice"),
    ([1], ([1], ("fifo", "lru", "fifo"), (False,)),
     "lists policy 'fifo' twice"),
    ([1], ([1], ("fifo",), (True, True)), "lists D2D setting True twice"),
    ([1, 1], ([4, 1], ("fifo",), (False,)),
     "device count 1 cannot cover 2 access points"),
    ([1], ([1], ("fifo", "mru"), (False,)), "unknown policy 'mru'"),
    ([1], ([7.5], ("fifo",), (False,)), "device count 7.5 is not an int"),
    ([1], ([2, True], ("fifo",), (False,)),
     "device count True is not an int"),
], ids=["no-count", "no-policy", "no-d2d", "repeated-count",
        "repeated-policy", "repeated-d2d", "below-faps", "unknown-policy",
        "float-count", "bool-count"])
def test_sweep_checks_its_grid_before_any_cell_runs(
    monkeypatch, fues_per_fap, grid, message
):
    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(engine, "run_single", no_run)
    cfg = ScenarioConfig(fues_per_fap=fues_per_fap,
                         zipf=ZipfSpec(interests_per_fue=10), seeds=[0])
    with pytest.raises(ConfigError, match=message):
        sweep(cfg, *grid)


def fake_pool(monkeypatch, cpus):
    """Run the sweep's pool tasks in this process on ``cpus`` CPUs; return
    the worker counts pools were started with and the tasks they ran."""
    started, tasks = [], []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            tasks.extend(items)
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    return started, tasks


@pytest.mark.parametrize("jobs,cpus,seeds,workers", [
    (64, 2, 4, 2),     # capped by the CPU count
    (64, 8, 3, 3),     # capped by the number of cells
    (3, 8, 4, 3),      # under both caps: as asked
    (4, None, 4, 0),   # CPU count unknown: serial, no pool
    (8, 8, 1, 0),      # one cell: serial, no pool
])
def test_sweep_bounds_its_pool(monkeypatch, jobs, cpus, seeds, workers):
    started, _ = fake_pool(monkeypatch, cpus)
    rows = sweep(small(range(seeds)), [5], ("fifo",), (False,), n_jobs=jobs)
    assert len(rows) == seeds
    assert started == ([workers] if workers else [])


def test_sweep_builds_each_schedule_once(monkeypatch):
    builds = []

    def counted_build(spec, fue_ids):
        builds.append((spec.seed, len(fue_ids)))
        return build_schedule(spec, fue_ids)

    monkeypatch.setattr(engine, "build_schedule", counted_build)
    rows = sweep(small([0, 1]), [5, 6])
    assert sorted(builds) == [(0, 5), (0, 6), (1, 5), (1, 6)]
    assert len(rows) == 2 * 2 * 3 * 2
    # Each row is its cell's own run, with a schedule built for it alone.
    for row in rows:
        cfg = replace(small([0]), policy=row["policy"], d2d_enabled=row["d2d"],
                      fues_per_fap=distribute_fues(row["n_fues"], 5))
        report = run_single(cfg, row["seed"])
        assert row == metrics_row(cfg, row["seed"], report)


@pytest.mark.parametrize("counts, seeds, tasks_cells", [
    # One group, two workers: the group is split in two.
    ([5], [0], [(5, 3), (5, 3)]),
    # Four groups: one task each, the largest device count first.
    ([5, 6], [0, 1], [(6, 6), (6, 6), (5, 6), (5, 6)]),
])
def test_sweep_balances_its_groups_over_the_workers(
    monkeypatch, counts, seeds, tasks_cells
):
    started, tasks = fake_pool(monkeypatch, 2)
    rows = sweep(small(seeds), counts, n_jobs=2)
    assert started == [2]
    assert [
        (sum(task[0][0].fues_per_fap), len(task)) for task in tasks
    ] == tasks_cells
    assert rows == sweep(small(seeds), counts, n_jobs=1)


def test_parallel_sweep_matches_serial():
    grid = dict(cfg=small([0, 1]), fue_counts=[5, 6],
                policies=("fifo", "rate-hop"), d2d_options=(False, True))
    serial = sweep(**grid, n_jobs=1)
    parallel = sweep(**grid, n_jobs=2)
    assert serial == parallel


# -- what one request writes to the trace ---------------------------------

# (capacities bbu/fap/fue, devices, D2D, cache_d2d_data) for a tree in
# which a request by the first device for c1, once the last device has
# fetched it, is served at one tier; and the records that request
# writes, with nodes named u (the asker), a (its F-AP), b (the BBU) and
# p (the producer).
SERVE_RECORDS = {
    "own": (((0, 0, 1), 1, False, False), [
        ("interest", "u", "own-hit"),
    ]),
    "fap": (((0, 1, 0), 1, False, False), [
        ("interest", "u", "forwarded"),
        ("interest", "a", "cs-hit"),
        ("data", "u", "arrived"),
    ]),
    "d2d": (((0, 0, 1), 2, True, False), [
        ("interest", "u", "forwarded"),
        ("interest", "a", "d2d"),
        ("data", "u", "delivered"),
    ]),
    "d2d-recache": (((0, 0, 1), 2, True, True), [
        ("interest", "u", "forwarded"),
        ("interest", "a", "d2d"),
        ("data", "u", "delivered"),
    ]),
    "bbu": (((1, 0, 0), 1, False, False), [
        ("interest", "u", "forwarded"),
        ("interest", "a", "forwarded"),
        ("interest", "b", "cs-hit"),
        ("data", "a", "arrived"),
        ("data", "u", "arrived"),
    ]),
    "producer": (((0, 0, 0), 1, False, False), [
        ("interest", "u", "forwarded"),
        ("interest", "a", "forwarded"),
        ("interest", "b", "forwarded"),
        ("interest", "p", "origin"),
        ("data", "b", "arrived"),
        ("data", "a", "arrived"),
        ("data", "u", "arrived"),
    ]),
}
SERVE_TIER = {"own": "own_cs", "fap": "fap", "d2d": "d2d",
              "d2d-recache": "d2d", "bbu": "bbu", "producer": "producer"}


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("serve", SERVE_RECORDS)
def test_one_request_writes_the_records_of_its_serving_tier(serve, policy):
    (caps, devices, d2d, cache_d2d), expected = SERVE_RECORDS[serve]
    topo = build_topology(1, [devices], Capacities(*caps), d2d)
    lines: list[str] = []
    sim = Simulation(topo, Catalog(3), policy, debug=True,
                     cache_d2d_data=cache_d2d, trace=lines)
    asker = topo.fues()[0]
    sim.request(topo.fues()[-1], "c1", 0.0)
    del lines[:]
    sim.request(asker, "c1", 1.0)
    nodes = {"u": asker, "a": topo.parent[asker], "b": topo.bbu(),
             "p": topo.producer()}
    records = [json.loads(line) for line in lines]
    assert [(r["kind"], r["node"], r["outcome"]) for r in records] == [
        (kind, nodes[node], outcome) for kind, node, outcome in expected
    ]
    assert {(r["name"], r["seq"], r["time"]) for r in records} == {
        ("c1", 2, 1.0)
    }
    # The warming request is the only other, served by the producer.
    assert sim.report().hits_by_tier[SERVE_TIER[serve]] == (
        2 if serve == "producer" else 1
    )
    if d2d:  # only a re-caching asker keeps the data a peer served
        assert sim.cs_contents(asker) == ({"c1"} if cache_d2d else set())


# Each tier slot's records, in ``TIER_KEYS`` order.
SLOT_RECORDS = [
    SERVE_RECORDS[serve][1] for serve in ("own", "d2d", "fap", "bbu", "producer")
]


@settings(max_examples=50, deadline=None)
@given(
    fues_per_fap=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    d2d=st.booleans(),
    k=st.integers(min_value=1),
    seq=st.integers(),
    now=TRACE_TIMES,
)
def test_walk_templates_fill_to_their_records_lines(
    fues_per_fap, d2d, k, seq, now
):
    # Each walk's pieces, joined by a name with every "\0" replaced by
    # the shared tail, are the lines of its records one by one.
    topo = build_topology(len(fues_per_fap), fues_per_fap,
                          Capacities(1, 1, 1), d2d)
    sim = Simulation(topo, Catalog(1), "fifo", trace=[])
    name = f"c{k}"
    tail = engine._EVENT_TAIL % (seq, now)
    for fue in topo.fues():
        nodes = {"u": fue, "a": topo.parent[fue], "b": topo.bbu(),
                 "p": topo.producer()}
        for slot, records in enumerate(SLOT_RECORDS):
            pieces = sim._walks[fue][slot]
            assert name.join(pieces).replace("\0", tail) == "".join(
                engine._EVENT_LINE % (kind, name, nodes[node], outcome, seq,
                                      now)
                for kind, node, outcome in records
            ), (fue, slot)


def paper_cell(policy, d2d):
    """A small cell of the paper's scenario, with refresh ticks."""
    topo = build_topology(2, [2, 2], Capacities(), d2d)
    schedule = build_schedule(ZipfSpec(interests_per_fue=100), topo.fues())
    return topo, schedule, (topo, Catalog(100), policy, PolicyConfig(tau=10))


@pytest.mark.parametrize("debug", [False, True], ids=["nodebug", "debug"])
@pytest.mark.parametrize("d2d", [False, True], ids=["d2d-off", "d2d-on"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_callable_sink_gets_one_call_per_event(policy, d2d, debug):
    topo, schedule, args = paper_cell(policy, d2d)
    calls: list[str] = []
    entries: list[str] = []
    for sink in (calls.append, entries):
        sim = Simulation(*args, debug=debug, trace=sink)
        report = sim.run_schedule(schedule)
    # One call per request and per tick, each the lines of one event.
    events = [{json.loads(line)["seq"] for line in call.splitlines()}
              for call in calls]
    assert events == [{seq} for seq in range(1, sim.seq + 1)]
    ticks = [call for call in calls if call.startswith('{"kind": "tick"')]
    assert len(calls) - len(ticks) == report.total_interests == len(schedule)
    assert ticks and all(call.count("\n") == 1 for call in ticks)
    # A list gets the same bytes, one line per entry.
    assert "".join(calls) == "".join(entries)
    assert all(entry.count("\n") == 1 and entry.endswith("\n")
               for entry in entries)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_debug_stop_leaves_the_records_before_the_failing_request(
    tmp_path, policy
):
    topo, schedule, args = paper_cell(policy, True)
    whole: list[str] = []
    Simulation(*args, trace=whole).run_schedule(schedule)
    requests = {}  # seq -> record count, per request in order
    for line in whole:
        record = json.loads(line)
        if record["kind"] != "tick":
            requests[record["seq"]] = requests.get(record["seq"], 0) + 1
    assert len(requests) == len(schedule)
    # The failing row: the first past the middle that is not an own hit,
    # so the check looks at its device's store, overfilled just before,
    # and that no tick precedes, since a tick checks every store.
    seqs = list(requests)
    fail = next(i for i, count in enumerate(requests.values())
                if i >= len(schedule) // 2 and count > 1
                and seqs[i] == seqs[i - 1] + 1)
    failing_seq = seqs[fail]
    _, fue, name = schedule[fail]

    def planted(sim):
        for i, row in enumerate(schedule):
            if i == fail:
                extra = [r for r in range(100) if r != sim.catalog.index[name]]
                store, held = sim._cs[fue], sim._held[fue]
                if held is not None:  # rate-hop counts its group's holders
                    for r in extra[:3]:
                        if r not in store:
                            held[r] = held.get(r, 0) + 1
                store.update(dict.fromkeys(extra[:3], 1))
            yield row

    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        sim = Simulation(*args, debug=True, trace=handle.write)
        with pytest.raises(
            InvariantViolation,
            match=rf"capacity exceeded at node {fue} \(event {failing_seq}\)",
        ):
            sim.run_schedule(planted(sim))
    written = path.read_text(encoding="utf-8")
    first = next(i for i, line in enumerate(whole)
                 if json.loads(line)["seq"] == failing_seq)
    assert written == "".join(whole[:first])
    assert f'"seq": {failing_seq},' not in written


def metrics_from_trace(lines, topo) -> dict:
    """Every metrics field of a run, counted from its trace records: the
    outcome of the interest record that serves a request gives its tier,
    each record of an interest or data moving one link is one hop, and
    each such record at an F-AP is one fronthaul packet."""
    faps = set(topo.faps())
    tiers = dict.fromkeys(engine.TIER_KEYS, 0)
    served_by = {"own-hit": "own_cs", "d2d": "d2d", "origin": "producer"}
    requests = set()
    hops = fronthaul = 0
    for line in lines:
        record = json.loads(line)
        if record["kind"] == "tick":
            continue
        requests.add(record["seq"])
        outcome, node = record["outcome"], record["node"]
        if outcome in ("forwarded", "arrived", "delivered"):
            hops += 1
            if outcome != "delivered" and node in faps:
                fronthaul += 1
        elif outcome == "cs-hit":
            assert node in faps or node == topo.bbu()
            tiers["fap" if node in faps else "bbu"] += 1
        else:
            tiers[served_by[outcome]] += 1
    return {
        "avg_hops": hops / len(requests),
        "cache_hits": sum(tiers.values()) - tiers["producer"],
        "hits_own": tiers["own_cs"],
        "hits_d2d": tiers["d2d"],
        "hits_fap": tiers["fap"],
        "hits_bbu": tiers["bbu"],
        "hits_producer": tiers["producer"],
        "fronthaul_packets": fronthaul,
        "total_interests": len(requests),
    }


@settings(max_examples=100, deadline=None)
@given(
    fues_per_fap=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    caps=st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2)),
    policy=st.sampled_from(POLICY_NAMES),
    d2d=st.booleans(),
    cache_d2d=st.booleans(),
    tau=st.floats(0.5, 50),
    catalog_size=st.integers(1, 60),
    exponent=st.sampled_from([0.0, 0.8, 1.5]),
    interests=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
def test_the_trace_explains_every_metric(
    fues_per_fap, caps, policy, d2d, cache_d2d, tau, catalog_size,
    exponent, interests, seed,
):
    cfg = ScenarioConfig(
        fues_per_fap=fues_per_fap, capacities=Capacities(*caps),
        d2d_enabled=d2d, cache_d2d_data=cache_d2d,
        zipf=ZipfSpec(exponent=exponent, catalog_size=catalog_size,
                      interests_per_fue=interests),
        policy=policy, policy_config=PolicyConfig(tau=tau),
    )
    lines: list[str] = []
    row = metrics_row(cfg, seed, run_single(cfg, seed, trace=lines))
    counted = metrics_from_trace(lines, cfg.topology())
    assert {key: row[key] for key in counted} == counted
    assert set(row) - set(counted) == {"policy", "n_fues", "d2d", "seed"}


# -- equivalence with the packet-level reference ----------------------------

# The engine as the grid and ``fransim run`` build it, with ``--debug``,
# and with a trace sink, as traced runs do: each is compared with the
# reference.
KERNEL_MODES = ("plain", "debug", "traced")


def mode_kwargs(mode):
    """The ``Simulation`` keywords of one of ``KERNEL_MODES``."""
    kwargs = {"plain": {}, "debug": {"debug": True}, "traced": {"trace": []}}
    return kwargs[mode]


def run_pair(policy, modes=KERNEL_MODES, **kw):
    n_faps = kw.pop("n_faps", 2)
    fues_per_fap = kw.pop("fues_per_fap", [2, 3])
    caps = Capacities(*kw.pop("caps", (3, 2, 1)))
    d2d = kw.pop("d2d", False)
    cache_d2d = kw.pop("cache_d2d", False)
    catalog_size = kw.pop("catalog_size", 6)
    config = PolicyConfig(
        tau=kw.pop("tau", 7.5),
        alpha=kw.pop("alpha", 1.0),
        beta=kw.pop("beta", 1.0),
        score_rule=kw.pop("rule", ScoreRule.RATE_TIMES_FETCH_HOPS),
    )
    spec = ZipfSpec(
        exponent=kw.pop("exponent", 0.9),
        catalog_size=catalog_size,
        seed=kw.pop("seed", 0),
        interests_per_fue=kw.pop("interests", 60),
    )
    assert not kw, kw
    topo = build_topology(n_faps, fues_per_fap, caps, d2d)
    catalog = Catalog(catalog_size)
    schedule = build_schedule(spec, topo.fues())
    ref = ReferenceSimulation(topo, catalog, policy, config,
                              cache_d2d_data=cache_d2d)
    ref_report = ref.run_schedule(schedule)
    for mode in modes:
        fast = Simulation(topo, catalog, policy, config,
                          cache_d2d_data=cache_d2d, **mode_kwargs(mode))
        assert fast.run_schedule(schedule) == ref_report, mode
        for node in range(len(topo)):
            assert fast.cs_contents(node) == ref.cs_contents(node), (
                f"{mode}: store mismatch at node {node}"
            )
        if policy == "rate-hop":
            for node in range(len(topo)):
                ref_rates = ref.rates_of(node)
                for name in catalog.names:
                    assert fast.rate_of(node, name) == ref_rates.get(
                        name, 0.0
                    ), (mode, node, name)


WIDE_GROUPS = {"n_faps": 2, "fues_per_fap": [12, 30], "d2d": True,
               "catalog_size": 40, "interests": 30}

EQUIVALENCE_CASES = [
    pytest.param("fifo", {}, id="fifo-base"),
    pytest.param("lru", {}, id="lru-base"),
    pytest.param("rate-hop", {}, id="ratehop-base"),
    pytest.param("fifo", {"d2d": True}, id="fifo-d2d"),
    pytest.param("lru", {"d2d": True, "seed": 2}, id="lru-d2d"),
    pytest.param("rate-hop", {"d2d": True}, id="ratehop-d2d"),
    pytest.param(
        "rate-hop", {"d2d": True, "cache_d2d": True}, id="ratehop-d2d-cache"
    ),
    pytest.param(
        "lru", {"d2d": True, "cache_d2d": True, "seed": 5}, id="lru-d2d-cache"
    ),
    # Two-slot device stores make the serving peer's LRU refresh
    # observable, which pins the D2D tie-break to the lowest-id holder.
    pytest.param(
        "lru", {"d2d": True, "cache_d2d": True, "caps": (3, 2, 2)},
        id="lru-d2d-cache-two-slot",
    ),
    pytest.param("rate-hop", {"rule": ScoreRule.RATE_ONLY}, id="rate-only"),
    pytest.param("rate-hop", {"alpha": 1.0, "beta": 0.0, "tau": 3.0},
                 id="alpha-only"),
    pytest.param("rate-hop", {"alpha": 0.0, "beta": 1.0}, id="beta-only"),
    pytest.param("rate-hop", {"caps": (2, 0, 1), "d2d": True},
                 id="no-fap-store"),
    pytest.param("fifo", {"caps": (0, 0, 2)}, id="device-only"),
    pytest.param("rate-hop", {"caps": (8, 4, 2), "catalog_size": 4},
                 id="stores-exceed-catalog"),
    pytest.param("rate-hop",
                 {"n_faps": 1, "fues_per_fap": [4], "d2d": True, "seed": 7},
                 id="one-big-group"),
    # Wide D2D groups, with a catalog that makes the device stores
    # evict: rate-hop asks its holder count, and LRU still asks the
    # stores in turn, whose lowest-id holder the refresh pins.
    pytest.param("rate-hop", WIDE_GROUPS, id="ratehop-wide-groups"),
    pytest.param("rate-hop", {**WIDE_GROUPS, "cache_d2d": True},
                 id="ratehop-wide-groups-cache"),
    pytest.param("lru", {**WIDE_GROUPS, "caps": (3, 2, 2)},
                 id="lru-wide-groups"),
    pytest.param("lru", {"exponent": 0.0, "interests": 120, "seed": 11},
                 id="uniform-churn"),
    pytest.param("rate-hop", {"tau": 1000.0, "seed": 13}, id="no-ticks"),
    pytest.param("fifo", {"tau": 2.0, "seed": 17}, id="dense-ticks"),
]


@pytest.mark.parametrize("policy,kw", EQUIVALENCE_CASES)
def test_engine_matches_packet_level_reference(policy, kw):
    run_pair(policy, **kw)


RATE_WEIGHTS = st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]) | (
    st.tuples(st.floats(0, 4), st.floats(0, 4)).filter(
        lambda w: sum(w) >= sys.float_info.min  # PolicyConfig refuses less
    )
)


@settings(max_examples=150, deadline=None)
@given(
    fues_per_fap=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    caps=st.tuples(*[st.integers(0, 3)] * 3),
    policy=st.sampled_from(POLICY_NAMES),
    rule=st.sampled_from(ScoreRule),
    d2d=st.booleans(),
    cache_d2d=st.booleans(),
    tau=st.floats(0.25, 40),
    weights=RATE_WEIGHTS,
    catalog_size=st.integers(2, 8),
    exponent=st.sampled_from([0.0, 0.8, 1.5]),
    interests=st.integers(1, 25),
    seed=st.integers(0, 2**16),
)
def test_engine_matches_reference_on_drawn_scenarios(
    fues_per_fap, caps, policy, rule, d2d, cache_d2d, tau, weights,
    catalog_size, exponent, interests, seed,
):
    alpha, beta = weights
    run_pair(
        policy, modes=("plain", "debug"), n_faps=len(fues_per_fap),
        fues_per_fap=fues_per_fap, caps=caps, d2d=d2d, cache_d2d=cache_d2d,
        catalog_size=catalog_size, tau=tau, alpha=alpha, beta=beta,
        rule=rule, exponent=exponent, seed=seed, interests=interests,
    )


@settings(max_examples=100, deadline=None)
@given(
    weights=RATE_WEIGHTS,
    old=st.floats(0, MAX_RATE),
    k=st.integers(0, 12),
)
def test_engine_refresh_is_refreshed_rate_bit_for_bit(weights, old, k):
    # With every store at capacity 0 each request climbs to the producer,
    # so the device, the F-AP and the BBU each count it once and bump
    # their rate once as its data passes on the way down.
    alpha, beta = weights
    topo = chain((0, 0, 0))
    config = PolicyConfig(alpha=alpha, beta=beta)
    sim = Simulation(topo, Catalog(2), "rate-hop", config)
    fue = topo.fues()[0]
    nodes = (fue, topo.parent[fue], topo.bbu())
    for node in nodes:
        sim.seed_rate(node, "c1", old)
    for i in range(k):
        sim.request(fue, "c1", i)
    sim.tick(k)
    rate = old
    for _ in range(k):
        rate += 1.0  # one bump per delivery, as the engine adds them
    expected = refreshed_rate(alpha, beta, k, rate).hex()
    for node in nodes:
        assert sim.rate_of(node, "c1").hex() == expected, node


# -- the replay loops -------------------------------------------------------

KERNELS = {"fifo": Simulation._replay_plain, "lru": Simulation._replay_plain,
           "rate-hop": Simulation._replay_ratehop}


def test_the_kernel_is_chosen_once_per_run():
    # The policy picks the replay loop, whatever debug or a trace asks;
    # it is stored as a plain function, not a bound method.  Only a
    # trace precomputes the walks.
    topo = chain((1, 1, 1))
    for policy, loop in KERNELS.items():
        for kw in ({}, {"debug": True}, {"trace": []}, {"trace": print}):
            sim = Simulation(topo, Catalog(2), policy, **kw)
            assert sim._replay is loop
            assert (sim._walks is None) == ("trace" not in kw)


def kernel_state(sim):
    """What a run leaves: its report, its event count, every store as an
    ordered list of (rank, weight) entries, and every node's rate map as
    an ordered list of (rank, rate, window count) entries."""
    return (
        sim.report(), sim.seq,
        [list(store.items()) for store in sim._cs],
        [[(rank, *entry) for rank, entry in demand.items()]
         for demand in sim._demand],
    )


KERNEL_SCENARIOS = dict(
    fues_per_fap=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    caps=st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2)),
    policy=st.sampled_from(POLICY_NAMES),
    rule=st.sampled_from(ScoreRule),
    d2d=st.booleans(),
    cache_d2d=st.booleans(),
    catalog_size=st.integers(1, 60),
)


def kernel_sims(fues_per_fap, caps, policy, rule, d2d, cache_d2d,
                catalog_size, tau=100.0):
    """A plain run, then one under a trace and one under ``debug``, on
    one scenario."""
    topo = build_topology(len(fues_per_fap), fues_per_fap, Capacities(*caps),
                          d2d)
    config = PolicyConfig(tau=tau, score_rule=rule)
    sims = [
        Simulation(topo, Catalog(catalog_size), policy, config,
                   cache_d2d_data=cache_d2d, **mode_kwargs(mode))
        for mode in ("plain", "traced", "debug")
    ]
    assert all(sim._replay is KERNELS[policy] for sim in sims)
    return topo, sims


@settings(max_examples=100, deadline=None)
@given(
    **KERNEL_SCENARIOS,
    tau=st.floats(0.5, 50),
    exponent=st.sampled_from([0.0, 0.8, 1.5]),
    interests=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
def test_observed_runs_replay_as_the_bare_kernel(
    fues_per_fap, caps, policy, rule, d2d, cache_d2d, catalog_size, tau,
    exponent, interests, seed,
):
    topo, sims = kernel_sims(fues_per_fap, caps, policy, rule, d2d,
                             cache_d2d, catalog_size, tau)
    schedule = build_schedule(
        ZipfSpec(exponent=exponent, catalog_size=catalog_size, seed=seed,
                 interests_per_fue=interests),
        topo.fues(),
    )
    for sim in sims:
        sim.run_schedule(schedule)
    plain, traced, debug = map(kernel_state, sims)
    assert plain == traced == debug


@settings(max_examples=100, deadline=None)
@given(
    **KERNEL_SCENARIOS,
    steps=st.lists(
        st.none() | st.tuples(st.integers(0, 8), st.integers(1, 60)),
        max_size=60,
    ),
)
def test_observed_calls_answer_as_the_bare_kernel(
    fues_per_fap, caps, policy, rule, d2d, cache_d2d, catalog_size, steps,
):
    # Each step is a tick (None) or a request by one device, both picked
    # modulo what the scenario has; the three runs agree after every call.
    topo, sims = kernel_sims(fues_per_fap, caps, policy, rule, d2d,
                             cache_d2d, catalog_size)
    fues = topo.fues()
    for now, step in enumerate(steps):
        for sim in sims:
            if step is None:
                sim.tick(now)
            else:
                device, rank = step
                sim.request(fues[device % len(fues)],
                            f"c{rank % catalog_size + 1}", now)
        plain, traced, debug = map(kernel_state, sims)
        assert plain == traced == debug


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_request_from_a_non_device_changes_nothing(policy, mode):
    topo = chain((1, 1, 1))
    sim = Simulation(topo, Catalog(2), policy, **mode_kwargs(mode))
    fap = topo.faps()[0]
    with pytest.raises(ValueError, match=f"node {fap} is not a device"):
        sim.request(fap, "c1", 0.0)
    assert sim.seq == 0
    assert sim.report() == MetricsReport()
    assert not any(sim._cs)


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_simulation_is_freed_without_the_cycle_collector(policy, mode):
    topo = chain((1, 1, 1))
    gc.disable()
    try:
        sim = Simulation(topo, Catalog(2), policy, **mode_kwargs(mode))
        sim.run_schedule(repeat_schedule(topo.fues()[0], ["c1", "c2", "c1"]))
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
    finally:
        gc.enable()


def scripted(sim, rows, tau):
    """Replay ``rows`` by hand: each tick due by a row's time, then the
    row's request, as ``run_schedule`` orders them."""
    tick_no = 1
    for t, fue, name in rows:
        while tau * tick_no <= t:
            sim.tick(tau * tick_no)
            tick_no += 1
        sim.request(fue, name, t)


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("d2d", [False, True], ids=["d2d-off", "d2d-on"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_schedule_its_rows_and_scripted_calls_run_alike(policy, d2d, mode):
    # The schedule's rank rows, the same rows by name, and the public
    # calls one by one leave the same state and write the same trace.
    topo, schedule, args = paper_cell(policy, d2d)
    runs = []
    for drive in ("schedule", "rows", "calls"):
        lines: list[str] = []
        kwargs = mode_kwargs(mode)
        if mode == "traced":
            kwargs = {"trace": lines}
        sim = Simulation(*args, cache_d2d_data=d2d, **kwargs)
        if drive == "schedule":
            sim.run_schedule(schedule)
        elif drive == "rows":
            sim.run_schedule(list(schedule))
        else:
            scripted(sim, schedule, args[3].tau)
        runs.append((kernel_state(sim), lines))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0][0].total_interests == len(schedule)
    assert (mode == "traced") == bool(runs[0][1])


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_replayed_row_from_a_non_device_applies_nothing(policy, mode):
    # A tick is due at the bad row's time: it does not fire either.
    topo = chain((1, 1, 1))
    fue, fap = topo.fues()[0], topo.faps()[0]
    args = (topo, Catalog(3), policy, PolicyConfig(tau=1.0))
    runs = []
    for rows in ([(0.0, fue, "c1")], [(0.0, fue, "c1"), (1.0, fap, "c2")]):
        lines: list[str] = []
        kwargs = {"trace": lines} if mode == "traced" else mode_kwargs(mode)
        sim = Simulation(*args, **kwargs)
        if len(rows) == 1:
            sim.run_schedule(rows)
        else:
            with pytest.raises(ValueError, match=f"node {fap} is not a device"):
                sim.run_schedule(rows)
        runs.append((kernel_state(sim), lines))
    assert runs[0] == runs[1]
    assert runs[1][0][1] == 1  # one request, no tick


@settings(max_examples=100, deadline=None)
@given(
    **{k: v for k, v in KERNEL_SCENARIOS.items() if k != "policy"},
    mode=st.sampled_from(KERNEL_MODES),
    steps=st.lists(
        st.none() | st.tuples(st.integers(0, 8), st.integers(1, 60)),
        max_size=80,
    ),
)
def test_every_cached_minimum_is_its_stores_minimum(
    fues_per_fap, caps, rule, d2d, cache_d2d, catalog_size, mode, steps,
):
    # After every call, a store whose minimum score is cached is full,
    # and the cached value is the least rate x weight over its entries.
    topo = build_topology(len(fues_per_fap), fues_per_fap, Capacities(*caps),
                          d2d)
    sim = Simulation(topo, Catalog(catalog_size), "rate-hop",
                     PolicyConfig(score_rule=rule), cache_d2d_data=cache_d2d,
                     **mode_kwargs(mode))
    fues = topo.fues()
    for now, step in enumerate(steps):
        if step is None:
            sim.tick(now)
        else:
            device, rank = step
            sim.request(fues[device % len(fues)],
                        f"c{rank % catalog_size + 1}", now)
        for node, low in enumerate(sim._min_score):
            if low is not None:
                store = sim._cs[node]
                assert len(store) == topo.capacity[node] > 0, node
                assert low == min(
                    sim._demand[node][r][0] * w for r, w in store.items()
                ), node


def holder_counts(sim, topo):
    """Per access point, how many of its devices' stores hold each rank,
    rebuilt from the stores."""
    counts = {}
    for fap in topo.faps():
        counted = {}
        for fue in topo.children(fap):
            for rank in sim._cs[fue]:
                counted[rank] = counted.get(rank, 0) + 1
        counts[fap] = counted
    return counts


@settings(max_examples=100, deadline=None)
@given(
    **{k: v for k, v in KERNEL_SCENARIOS.items() if k != "policy"},
    mode=st.sampled_from(KERNEL_MODES),
    # Few contents, so that rates build up and device stores evict.
    steps=st.lists(
        st.none() | st.tuples(st.integers(0, 8), st.integers(1, 6)),
        max_size=80,
    ),
)
def test_every_holder_count_is_its_groups_stores(
    fues_per_fap, caps, rule, d2d, cache_d2d, catalog_size, mode, steps,
):
    # After every call, with D2D on, each access point's devices share
    # one holder count, equal to the count rebuilt from their stores and
    # with no zero entries; with D2D off no device keeps one.
    topo = build_topology(len(fues_per_fap), fues_per_fap, Capacities(*caps),
                          d2d)
    sim = Simulation(topo, Catalog(catalog_size), "rate-hop",
                     PolicyConfig(score_rule=rule), cache_d2d_data=cache_d2d,
                     **mode_kwargs(mode))
    fues = topo.fues()
    for now, step in enumerate(steps):
        if step is None:
            sim.tick(now)
        else:
            device, rank = step
            sim.request(fues[device % len(fues)],
                        f"c{rank % catalog_size + 1}", now)
        if not d2d:
            assert sim._held == [None] * len(topo)
            continue
        for fap, counted in holder_counts(sim, topo).items():
            group = topo.children(fap)
            held = sim._held[group[0]]
            assert all(sim._held[fue] is held for fue in group), fap
            assert held == counted, fap
            assert 0 not in held.values(), fap
        assert all(sim._held[node] is None
                   for node in (topo.bbu(), *topo.faps())), "upper node"


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("policy,d2d", [
    ("fifo", False), ("fifo", True), ("lru", False), ("lru", True),
    ("rate-hop", False),
])
def test_only_ratehop_with_d2d_keeps_a_holder_count(policy, d2d, mode):
    topo, schedule, args = paper_cell(policy, d2d)
    sim = Simulation(*args, **mode_kwargs(mode))
    report = sim.run_schedule(schedule)
    assert report.hits_by_tier["d2d"] > 0 or not d2d
    assert sim._held == [None] * len(topo)


# -- debug instrumentation --------------------------------------------------

def debug_sim():
    topo = build_topology(1, [2], Capacities(bbu=1, fap=1, fue=1), True)
    sim = Simulation(topo, Catalog(3), "fifo", debug=True)
    return topo, sim


def test_debug_detects_capacity_breach():
    topo, sim = debug_sim()
    sim._cs[topo.bbu()] = {0: None, 1: None}  # capacity is 1
    with pytest.raises(InvariantViolation, match="capacity"):
        sim.tick(1.0)


# Per serving tier, the requester's path stores that the data of a
# request served there may have reached, from the device up to the
# serving node; an own-store hit reaches none.
REACHED = {
    "own": (),
    "d2d": ("own", "fap"),
    "fap": ("own", "fap"),
    "bbu": ("own", "fap", "bbu"),
    "producer": ("own", "fap", "bbu", "producer"),
}


@pytest.mark.parametrize("overfilled", ["own", "fap", "bbu", "producer"])
@pytest.mark.parametrize("serve", REACHED)
def test_debug_checks_the_stores_a_request_reached(serve, overfilled):
    # FIFO keeps no holder count, so only the stores decide the tier.
    topo, sim = debug_sim()
    u1, u2 = topo.fues()
    nodes = {"own": u1, "d2d": u2, "fap": topo.parent[u1],
             "bbu": topo.bbu(), "producer": topo.producer()}
    if serve != "producer":
        sim._cs[nodes[serve]][0] = 1  # c1 is held where it is served
    # Every capacity is 1, and the producer's 0: two more entries
    # overfill any store, and an offer on the way down, which evicts one
    # entry for one, leaves it overfilled.
    sim._cs[nodes[overfilled]].update({1: 1, 2: 1})
    breach = f"capacity exceeded at node {nodes[overfilled]} "
    if overfilled in REACHED[serve]:
        with pytest.raises(InvariantViolation, match=breach):
            sim.request(u1, "c1", 0.0)
    else:
        sim.request(u1, "c1", 0.0)
        with pytest.raises(InvariantViolation, match=breach):
            sim.tick(1.0)
    assert sim.report().hits_by_tier[SERVE_TIER[serve]] == 1


def ratehop_group_sim():
    """A debug rate-hop run on one three-device D2D group, after c1 was
    fetched to its first device: the group's holder count is {c1: 1}."""
    topo = build_topology(1, [3], Capacities(bbu=1, fap=1, fue=1), True)
    sim = Simulation(topo, Catalog(4), "rate-hop", debug=True)
    sim.request(topo.fues()[0], "c1", 0.0)
    fap = topo.faps()[0]
    held = sim._held[topo.fues()[0]]
    assert held == {0: 1}
    return topo, sim, fap, held


@pytest.mark.parametrize("drift", ["phantom", "dropped"])
def test_debug_detects_holder_count_drift_at_the_next_tick(drift):
    topo, sim, fap, held = ratehop_group_sim()
    if drift == "phantom":
        held[3] = 1  # no device holds c4
    else:
        del held[0]  # the first device still holds c1
    sim.request(topo.fues()[1], "c2", 1.0)  # no check before the tick
    with pytest.raises(InvariantViolation,
                       match=f"holder count of access point {fap}"):
        sim.tick(2.0)


def test_final_check_flags_holder_count_drift():
    topo, sim, fap, held = ratehop_group_sim()
    held[0] += 1  # counted twice, held once
    with pytest.raises(InvariantViolation,
                       match=f"holder count of access point {fap}"):
        sim._check_final()


def test_debug_detects_a_d2d_serve_from_no_peer():
    topo, sim, fap, held = ratehop_group_sim()
    held[2] = 1  # a phantom holder of c3 makes the kernel serve it D2D
    u2 = topo.fues()[1]
    with pytest.raises(
        InvariantViolation,
        match=rf"node {u2} got c3 from a peer, but no other device of "
              rf"access point {fap} holds it \(event 2\)",
    ):
        sim.request(u2, "c3", 1.0)


def test_final_check_flags_unanswered_interests():
    topo, sim = debug_sim()
    u1 = topo.fues()[0]
    sim.request(u1, "c1", 0.0)
    sim._n += 1
    with pytest.raises(InvariantViolation, match="answered"):
        sim._check_final()


def test_unknown_policy_rejected():
    topo = chain((1, 1, 1))
    with pytest.raises(ValueError):
        Simulation(topo, Catalog(2), "mru")
