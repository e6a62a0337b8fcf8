"""Fixed-input drives for the layers no public command isolates.

Each drive calls public fransim functions on inputs it builds itself and
returns plain numbers.  The request path costs a few microseconds per
call, so drives time batches of calls, never single ones, and take the
median of several batches.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

clock = time.perf_counter


def _repeat(fn, *, min_runs: int = 3, max_runs: int = 9, budget: float = 0.3):
    """Run ``fn`` until ``min_runs`` and ``budget`` seconds are both
    reached (at most ``max_runs``); return each run's host time."""
    times = []
    start = clock()
    while len(times) < max_runs and (
        len(times) < min_runs or clock() - start < budget
    ):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return times


# -- engine: request cost by serving tier ------------------------------

# (capacities bbu/fap/fue, devices, D2D) for a tree where every request
# for c1 after the first is served at one tier.
TIER_TREES = {
    "own": ((0, 0, 1), 1, False),
    "d2d": ((0, 0, 1), 2, True),
    "fap": ((0, 1, 0), 1, False),
    "bbu": ((1, 0, 0), 1, False),
    "producer": ((0, 0, 0), 1, False),
}
HIT_INDEX = {"own": "own_cs", "d2d": "d2d", "fap": "fap", "bbu": "bbu",
             "producer": "producer"}


def request_us(fs, tier: str, batch: int = 20000) -> float:
    """Median microseconds of one ``Simulation.request`` served at ``tier``.

    The D2D tree has two devices: the second holds c1 and the first asks
    for it; without ``cache_d2d_data`` the asker never keeps a copy.
    """
    (bbu, fap, fue), devices, d2d = TIER_TREES[tier]
    topo = fs.topology.build_topology(
        1, [devices], fs.topology.Capacities(bbu=bbu, fap=fap, fue=fue), d2d
    )
    sim = fs.engine.Simulation(
        topo, fs.topology.Catalog(10), "rate-hop", fs.policies.PolicyConfig()
    )
    fues = topo.fues()
    sim.request(fues[-1], "c1", 0.0)  # warm: places c1 at its tier
    asker = fues[0]
    before = sim.report().hits_by_tier[HIT_INDEX[tier]]
    request = sim.request

    def run():
        for _ in range(batch):
            request(asker, "c1", 0.0)

    times = _repeat(run, min_runs=5, max_runs=5)
    served = sim.report().hits_by_tier[HIT_INDEX[tier]] - before
    if served != batch * len(times):
        raise RuntimeError(f"{tier} drive served {served} of "
                           f"{batch * len(times)} requests at its tier")
    return statistics.median(times) / batch * 1e6


# -- engine: refresh tick, plain / debug / traced replay, admission ----


def tick_ms(fs, topo, k: int, config) -> float:
    """Median milliseconds of one rate-hop ``Simulation.tick`` over
    every node x ``k`` contents."""
    sim = fs.engine.Simulation(topo, fs.topology.Catalog(k), "rate-hop",
                               config)
    now = iter(range(1, 10**6))
    times = _repeat(lambda: sim.tick(float(next(now))), min_runs=5,
                    max_runs=200, budget=0.2)
    return statistics.median(times) * 1e3


def replay(fs, topo, spec, schedule, policy, config, cache_d2d_data,
           **kwargs):
    """(host seconds, report) of one ``run_schedule`` on a fresh
    simulation: every cache starts empty."""
    sim = fs.engine.Simulation(
        topo, fs.topology.Catalog(spec.catalog_size), policy, config,
        cache_d2d_data=cache_d2d_data, **kwargs,
    )
    t0 = clock()
    report = sim.run_schedule(schedule)
    return clock() - t0, report


def replay_ratios(fs, topo, spec, schedule, config, cache_d2d_data,
                  rounds: int = 3):
    """Debug and trace-list replays against the plain one, on the same
    schedule, as ratios of medians over interleaved rounds.  Their
    reports must equal the plain report."""
    args = (fs, topo, spec, schedule, "rate-hop", config, cache_d2d_data)
    times = {"plain": [], "debug": [], "trace": []}
    for _ in range(rounds):
        seconds, plain = replay(*args)
        times["plain"].append(seconds)
        seconds, debug = replay(*args, debug=True)
        times["debug"].append(seconds)
        seconds, traced = replay(*args, trace=[])
        times["trace"].append(seconds)
        if not (plain == debug == traced):
            raise RuntimeError("debug or trace changed the simulated result")
    plain_s = statistics.median(times["plain"])
    return {"debug_ratio": statistics.median(times["debug"]) / plain_s,
            "trace_ratio": statistics.median(times["trace"]) / plain_s}


def admission(fs, topo, spec, schedule, config, cache_d2d_data,
              limit: int = 30000):
    """Rate-hop offers to full stores and how many it refused.

    Replays the first ``limit`` requests through the public
    ``tick``/``request`` calls and compares ``cs_contents`` along the
    path before and after each request.  The content is offered to
    every store below the tier that served it; an offer to a full store
    that does not leave the content cached is a reject.
    """
    catalog = fs.topology.Catalog(spec.catalog_size)
    sim = fs.engine.Simulation(topo, catalog, "rate-hop", config,
                               cache_d2d_data=cache_d2d_data)
    cap = topo.capacity
    parent = topo.parent
    children = topo.children
    contents = sim.cs_contents
    tau = config.tau
    tick_no, next_tick = 1, tau
    offers = rejects = 0
    part = schedule[:limit]
    for t, fue, name in part:
        while next_tick <= t:
            sim.tick(next_tick)
            tick_no += 1
            next_tick = tau * tick_no
        fap = parent[fue]
        bbu = parent[fap]
        # Stores the data will pass, lowest first, by where it is found.
        if name in contents(fue):
            below = []
        elif name in contents(fap):
            below = [fue]
        elif topo.d2d_enabled and any(
            name in contents(peer) for peer in children(fap)
        ):
            below = [fue] if cache_d2d_data else []
        elif name in contents(bbu):
            below = [fue, fap]
        else:
            below = [fue, fap, bbu]
        full = [n for n in below if cap[n] and len(contents(n)) >= cap[n]]
        sim.request(fue, name, t)
        offers += len(full)
        rejects += sum(1 for n in full if name not in contents(n))
    plain = replay(fs, topo, spec, part, "rate-hop", config,
                   cache_d2d_data)[1]
    if sim.report() != plain:
        raise RuntimeError("admission drive diverged from run_schedule")
    return offers, rejects


def schedule_mb(fs, spec, fue_ids) -> float:
    """Peak traced allocation of one ``build_schedule``, in MB."""
    tracemalloc.start()
    try:
        schedule = fs.workload.build_schedule(spec, fue_ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del schedule
    return peak / 1e6


# -- oracle ------------------------------------------------------------


def objective_us(fs, topo, demand, evaluations: int = 2000) -> float:
    """Median microseconds of one ``oracle.objective_value`` on a
    feasible placement: one copy of each content at the BBU and at the
    first access point, up to their capacities."""
    nodes = [topo.bbu(), topo.faps()[0]]
    placement = {}
    for node in nodes:
        for name in demand.contents()[: topo.capacity[node]]:
            placement[(name, node)] = 1
    objective = fs.oracle.objective_value

    def run():
        for _ in range(evaluations):
            objective(topo, demand, placement)

    return statistics.median(_repeat(run, min_runs=5, max_runs=5)) \
        / evaluations * 1e6


def program_size(fs, topo, demand) -> tuple[int, int]:
    """(auxiliary variables, constraints) of the linearized program."""
    program = fs.oracle.linearize(topo, demand)
    return len(program.z_vars), len(program.constraints)
