"""Deterministic simulation engine.

The engine replays a request schedule against a topology under one
replacement policy and reports hop and hit metrics.  Transmission is
modelled as instantaneous, so each interest is processed to completion
(up the tree to wherever it is served, data back down with caching)
before the next arrival.  Events are totally ordered by (time, kind,
sequence) with rate-refresh ticks firing before same-time arrivals;
processing is single-threaded and uses no randomness, so a run is a
pure function of (topology, schedule, policy, knobs).

The request kernel is chosen once per run.  FIFO and LRU without
``debug`` or a trace run ``_request_plain``, which serves, counts and
admits in one flat function.  Rate-hop, ``debug`` and tracing run the
general ``_request``, which only finds the depth on the consumer's path
that serves a request: each serve but a D2D one runs ``_serve`` (tier
count, interest record, data walk down with caching) and each miss runs
``_forward`` (PIT check under ``debug``, record when tracing).  Both
kernels leave the same stores, in the same order, with the same
weights, and the same counters.

For speed the hot path keys all per-node state by integer content
rank rather than by name and relies on two exact shortcuts: victims
are taken from dict order, and the selective policy caches each
store's minimum entry score so the common reject decision is O(1).
Only LRU reorders a store on a hit, so FIFO and rate-hop stores keep
insertion order: FIFO and LRU evict the first entry, and rate-hop the
first (so oldest) entry whose score is the minimum.
The cached minimum is invalidated whenever rates are refreshed or the
store mutates; data arrivals only bump the rate of content that is not
in the store, which cannot lower the minimum.  Pending-interest state
collapses within one processed chain, so the PIT bookkeeping runs only
under ``debug``, where it feeds the single-forward and flow
conservation checks.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from .config import MAX_TICKS_PER_STEP, ScenarioConfig, first_repeat, is_int
from .errors import ConfigError, InvariantViolation
from .policies import MAX_RATE, PolicyConfig, ScoreRule, POLICY_NAMES
from .topology import Catalog, Topology, distribute_fues
from .workload import build_schedule

TIER_KEYS = ("own_cs", "d2d", "fap", "bbu", "producer")

# Per served depth (own store, F-AP, BBU, producer): tier slot, outcome.
_SERVED = ((0, "own-hit"), (2, "cs-hit"), (3, "cs-hit"), (4, "origin"))

# One trace record as its JSON line, keys in sorted order.  Each line is
# byte-identical to ``json.dumps(record, sort_keys=True)``: kinds,
# outcomes and the catalog's ``c<k>`` names need no escaping, nodes and
# sequence numbers are ints, and ``%r`` of a finite Python int or float
# time is its JSON form.
_EVENT_LINE = (
    '{"kind": "%s", "name": "%s", "node": %d, "outcome": "%s", "seq": %d, '
    '"time": %r}\n'
)
_TICK_LINE = (
    '{"kind": "tick", "name": null, "node": null, "outcome": "refresh", '
    '"seq": %d, "time": %r}\n'
)


def _plain_time(now):
    """``now`` as the Python int or float whose ``%r`` is its JSON form:
    a numpy scalar becomes its Python number, anything else that is not
    exactly an int or a float (a bool included) raises ``TypeError``, and
    NaN or an infinity, which JSON cannot hold, raises ``ValueError``."""
    if isinstance(now, np.generic):
        now = now.item()
    if type(now) is not int and type(now) is not float:
        raise TypeError(
            f"time must be an int or a float, got {type(now).__name__}"
        )
    if not math.isfinite(now):
        raise ValueError(f"time must be finite, got {now}")
    return now


def _offer(store: dict, cap: int, rank: int, weight: int) -> None:
    """Admit ``rank``, which ``store`` does not hold, to a FIFO or LRU
    store of capacity ``cap``, evicting its first entry when full."""
    if cap:
        if len(store) >= cap:
            del store[next(iter(store))]
        store[rank] = weight


@dataclass
class MetricsReport:
    total_interests: int = 0
    total_hops: int = 0
    in_network_cache_hits: int = 0
    hits_by_tier: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(TIER_KEYS, 0)
    )
    fronthaul_packets: int = 0

    @property
    def avg_hops(self) -> float:
        if self.total_interests == 0:
            return 0.0
        return self.total_hops / self.total_interests


class Simulation:
    """One run's mutable state plus the request-processing kernel.

    Drive it either with :meth:`run_schedule` or by calling
    :meth:`tick` and :meth:`request` by hand for scripted scenarios.
    A request is served by the first store up its path that holds the
    content (with D2D on, a group peer's before the BBU's), else by the
    producer, and its data is offered to each store on the way down.

    ``trace``, if given, receives every event record as its finished
    JSON line, newline included: a list gets each line appended, any
    other value is called with it.  :meth:`request`, :meth:`tick` and
    :meth:`run_schedule` take times as Python or numpy ints and floats
    and write a numpy time as its Python number (``np.int64(3)`` as
    ``3``, ``np.float64(1.5)`` as ``1.5``); any other time raises
    ``TypeError``, and a NaN or infinite one ``ValueError``.
    """

    def __init__(
        self,
        topo: Topology,
        catalog: Catalog,
        policy: str,
        policy_config: PolicyConfig | None = None,
        *,
        debug: bool = False,
        cache_d2d_data: bool = False,
        trace=None,
    ):
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r}")
        self.topo = topo
        self.catalog = catalog
        self.config = policy_config or PolicyConfig()
        self.debug = debug
        self.cache_d2d_data = cache_d2d_data
        if trace is None:
            self._emit = None
        else:
            self._emit = trace.append if isinstance(trace, list) else trace
        # Whether a miss has anything to do: check the PIT or write a record.
        self._forwards = debug or self._emit is not None

        n = len(topo)
        self._is_lru = policy == "lru"
        self._is_ratehop = policy == "rate-hop"
        self._rate_only = self.config.score_rule is ScoreRule.RATE_ONLY

        # Per-node state, indexed by NodeId.  Stores map content rank
        # (0-based) to the weight its data was fetched with (1 under the
        # rate-only rule); rate-hop scores an entry rate * weight, and
        # FIFO/LRU only need dict order.
        self._cs: list[dict] = [{} for _ in range(n)]
        self._pit: list[set] = [set() for _ in range(n)]
        # Each node maps every rank it has seen to [smoothed rate, window
        # count]; only rate-hop writes here.  A window count creates the
        # entry before any rate bump or admission at that node reads it.
        # An unseen rank has rate 0.0, which a refresh keeps, so refreshing
        # the entries gives the rates a whole-catalog refresh would.
        self._demand: list[defaultdict[int, list]] = [
            defaultdict([0.0, 0].copy) for _ in range(n)
        ]
        self._min_score: list[float | None] = [None] * n
        # With D2D on, each device refers to its access point's group:
        # the stores of the access point's devices in device-id order,
        # so a D2D lookup that asks them in turn finds the lowest-id
        # holder.  Stores are mutated in place and never replaced, so
        # the tuple stays current.  None everywhere without D2D.
        self._group_of: list[tuple[dict, ...] | None] = [None] * n
        if topo.d2d_enabled:
            for fap in topo.faps():
                group = topo.children(fap)
                stores = tuple(self._cs[fue] for fue in group)
                for fue in group:
                    self._group_of[fue] = stores
        self._paths = {
            fue: tuple(topo.upstream_path(fue)) for fue in topo.fues()
        }

        self.seq = 0
        self._n = 0
        self._hits = [0] * len(TIER_KEYS)  # one count per tier, in order

        if not (self._is_ratehop or self._forwards):
            # Per device: its own, F-AP and BBU stores and capacities, and
            # its D2D group; data fetched over 2 and 3 hops is weighted so.
            capacity = topo.capacity
            self._plain = {
                fue: (
                    self._cs[fue], capacity[fue],
                    self._cs[path[1]], capacity[path[1]],
                    self._cs[path[2]], capacity[path[2]],
                    self._group_of[fue],
                )
                for fue, path in self._paths.items()
            }
            self._far_weights = (1, 1) if self._rate_only else (2, 3)
            self._request = self._request_plain

    # -- public inspection / scripting helpers ------------------------

    def cs_contents(self, node: int) -> set[str]:
        """Names currently cached at a node."""
        names = self.catalog.names
        return {names[r] for r in self._cs[node]}

    def seed_rate(self, node: int, name: str, rate: float) -> None:
        """Warm-start the tracked demand rate at one node.  ``rate`` must
        be non-negative and at most ``MAX_RATE`` (2**53), under which a
        refresh with any accepted weights stays finite."""
        if not self._is_ratehop:
            raise ValueError("only the rate-tracking policy keeps rates")
        if not 0 <= rate <= MAX_RATE:
            raise ValueError(
                "demand rate must be non-negative and at most 2**53, "
                f"got {rate}"
            )
        self._demand[node][self.catalog.index[name]][0] = float(rate)
        self._min_score[node] = None

    def rate_of(self, node: int, name: str) -> float:
        """The tracked rate, 0.0 if unseen; reading creates no entry."""
        return self._demand[node].get(self.catalog.index[name], (0.0,))[0]

    def report(self) -> MetricsReport:
        # Every tier's cost is fixed: a round trip of two hops per tree
        # level climbed (a D2D serve is brokered by the access point),
        # and a serve above the access point crosses the fronthaul twice.
        own, d2d, fap, bbu, prod = self._hits
        return MetricsReport(
            total_interests=self._n,
            total_hops=2 * (d2d + fap) + 4 * bbu + 6 * prod,
            in_network_cache_hits=own + d2d + fap + bbu,
            hits_by_tier=dict(zip(TIER_KEYS, self._hits)),
            fronthaul_packets=2 * (bbu + prod),
        )

    # -- event processing ---------------------------------------------

    def tick(self, now: float) -> None:
        """Refresh every node's demand estimates (window -> smoothed)."""
        now = _plain_time(now)
        self.seq += 1
        alpha = self.config.alpha
        beta = self.config.beta
        denom = alpha + beta
        for demand in self._demand:
            for entry in demand.values():
                entry[0] = (alpha * entry[1] + beta * entry[0]) / denom
                entry[1] = 0
        self._min_score = [None] * len(self._demand)
        if self._emit is not None:
            self._emit(_TICK_LINE % (self.seq, now))
        if self.debug:
            self._check_capacity(range(len(self.topo)))

    def request(self, fue: int, name: str, now: float) -> None:
        """Process one consumer request to completion."""
        self._request(fue, self.catalog.index[name], _plain_time(now))

    def _request(self, fue: int, rank: int, now: float) -> None:
        self.seq += 1
        seq = self.seq
        self._n += 1
        path = self._paths[fue]
        cs = self._cs
        ratehop = self._is_ratehop
        forwards = self._forwards

        # Tier 0: the device's own store.
        if rank in cs[fue]:
            self._serve(rank, now, seq, path, 0)
            return
        if ratehop:
            self._demand[fue][rank][1] += 1
        if forwards:
            self._forward(now, seq, fue, rank)

        # Tier 1: the access point (which may broker a D2D serve).
        fap = path[1]
        if ratehop:
            self._demand[fap][rank][1] += 1
        if rank in cs[fap]:
            self._serve(rank, now, seq, path, 1)
            return
        group = self._group_of[fue]
        if group is not None:
            # The requester's own store is in the group but has missed.
            for peer_store in group:
                if rank not in peer_store:
                    continue
                if self._is_lru:
                    peer_store[rank] = peer_store.pop(rank)
                self._hits[1] += 1
                if ratehop:
                    self._demand[fue][rank][0] += 1.0
                if self._emit is not None:
                    name = self.catalog.names[rank]
                    self._emit(_EVENT_LINE % ("interest", name, fap, "d2d",
                                              seq, now))
                    self._emit(_EVENT_LINE % ("data", name, fue, "delivered",
                                              seq, now))
                if self.cache_d2d_data:
                    self._cache(fue, rank, 1)
                if self.debug:
                    self._consume(fue, rank)
                    self._check_capacity(path[:2])
                return
        if forwards:
            self._forward(now, seq, fap, rank)

        # Tier 2: the BBU pool.
        bbu = path[2]
        if ratehop:
            self._demand[bbu][rank][1] += 1
        if rank in cs[bbu]:
            self._serve(rank, now, seq, path, 2)
            return
        if forwards:
            self._forward(now, seq, bbu, rank)

        # Tier 3: the producer always serves.
        self._serve(rank, now, seq, path, 3)

    def _request_plain(self, fue: int, rank: int, now: float) -> None:
        """``_request`` for FIFO and LRU without debug or trace, with
        ``_serve`` and ``_cache`` inlined: the tiers are asked in the
        same order and data is offered from the serving node down."""
        self.seq += 1
        self._n += 1
        hits = self._hits
        own, own_cap, fap, fap_cap, bbu, bbu_cap, group = self._plain[fue]
        lru = self._is_lru
        if rank in own:
            if lru:
                own[rank] = own.pop(rank)
            hits[0] += 1
            return
        if rank in fap:
            if lru:
                fap[rank] = fap.pop(rank)
            hits[2] += 1
            _offer(own, own_cap, rank, 1)
            return
        if group is not None:
            for peer_store in group:
                if rank in peer_store:
                    if lru:
                        peer_store[rank] = peer_store.pop(rank)
                    hits[1] += 1
                    if self.cache_d2d_data:
                        _offer(own, own_cap, rank, 1)
                    return
        two, three = self._far_weights
        if rank in bbu:
            if lru:
                bbu[rank] = bbu.pop(rank)
            hits[3] += 1
            _offer(fap, fap_cap, rank, 1)
            _offer(own, own_cap, rank, two)
            return
        hits[4] += 1
        _offer(bbu, bbu_cap, rank, 1)
        _offer(fap, fap_cap, rank, two)
        _offer(own, own_cap, rank, three)

    def _serve(
        self, rank: int, now: float, seq: int, path: tuple, served_depth: int
    ) -> None:
        """Serve a request at path[served_depth]: count its tier, write
        its interest record, then walk the data down to the consumer,
        bumping rates and offering the content to each store."""
        node = path[served_depth]
        # The producer's store is empty: it has no order to touch.
        if self._is_lru and served_depth < 3:
            store = self._cs[node]
            store[rank] = store.pop(rank)
        slot, outcome = _SERVED[served_depth]
        self._hits[slot] += 1
        emit = self._emit
        if emit is not None:
            name = self.catalog.names[rank]
            emit(_EVENT_LINE % ("interest", name, node, outcome, seq, now))
        if not served_depth:  # an own-store hit moves no data
            return
        ratehop = self._is_ratehop
        debug = self.debug
        for j in range(served_depth - 1, -1, -1):
            node = path[j]
            if debug:
                self._consume(node, rank)
            if ratehop:
                self._demand[node][rank][0] += 1.0
            self._cache(node, rank, served_depth - j)
            if emit is not None:
                emit(_EVENT_LINE % ("data", name, node, "arrived", seq, now))
        if debug:
            self._check_capacity(path[:served_depth + 1])

    def _forward(self, now: float, seq: int, node: int, rank: int) -> None:
        """A miss at ``node``: the single-forward check under ``debug``,
        then the ``forwarded`` record when tracing."""
        if self.debug:
            pit = self._pit[node]
            if rank in pit:
                raise InvariantViolation(
                    f"node {node} forwarded {self.catalog.names[rank]} twice "
                    f"while pending (event {self.seq})"
                )
            pit.add(rank)
        if self._emit is not None:
            self._emit(_EVENT_LINE % ("interest", self.catalog.names[rank],
                                      node, "forwarded", seq, now))

    def _cache(self, node: int, rank: int, fetch_hops: int) -> None:
        cap = self.topo.capacity[node]
        if cap == 0:
            return
        store = self._cs[node]
        ratehop = self._is_ratehop
        weight = 1 if self._rate_only else fetch_hops
        if len(store) >= cap:
            if ratehop:
                demand = self._demand[node]
                incoming = demand[rank][0] * weight
                low = self._min_score[node]
                if low is None:
                    low = min(demand[r][0] * w for r, w in store.items())
                    self._min_score[node] = low
                if not low < incoming:
                    return
                # ``low`` is the exact current minimum of these products.
                victim = next(
                    r for r, w in store.items() if demand[r][0] * w == low
                )
            else:
                victim = next(iter(store))
            del store[victim]
        store[rank] = weight
        if ratehop:
            self._min_score[node] = None

    # -- debug instrumentation ----------------------------------------

    def _consume(self, node: int, rank: int) -> None:
        pit = self._pit[node]
        if rank not in pit:
            raise InvariantViolation(
                f"unsolicited data for {self.catalog.names[rank]} at node "
                f"{node} (event {self.seq})"
            )
        pit.discard(rank)

    def _check_capacity(self, nodes) -> None:
        cs = self._cs
        capacity = self.topo.capacity
        for node in nodes:
            if len(cs[node]) > capacity[node]:
                raise InvariantViolation(
                    f"capacity exceeded at node {node} (event {self.seq})"
                )

    def _check_final(self) -> None:
        for node, pit in enumerate(self._pit):
            if pit:
                raise InvariantViolation(
                    f"pending interests left at node {node}: "
                    f"{sorted(pit)}"
                )
        answered = sum(self._hits)
        if answered != self._n:
            raise InvariantViolation(
                f"{self._n} interests issued but {answered} answered"
            )
        self._check_capacity(range(len(self.topo)))

    # -- schedule replay ----------------------------------------------

    def run_schedule(self, schedule) -> MetricsReport:
        """Replay arrivals in order, firing refresh ticks every tau.

        Ticks land at tau, 2 tau, ... and take effect before arrivals
        that share the same time.  Times are checked and converted as
        :meth:`request` does, once per time object.  A row that would
        take the run past ``MAX_TICKS_PER_STEP`` ticks per row replayed
        so far, itself included, raises ``ValueError`` before any of
        its ticks fire; every run a ``ScenarioConfig`` admits stays
        within that bound.
        """
        tau = self.config.tau
        tick_no = 1
        next_tick = tau
        index = self.catalog.index
        request = self._request
        start = self._n
        last = object()  # no row's time is this object
        for t, fue, name in schedule:
            if t is not last:
                last, now = t, _plain_time(t)
            # Tick k fires at tau * k, so the run passes its tick limit
            # iff the next tick past it is due; a float product cannot
            # raise, and an overflow to inf is simply never due.
            if next_tick <= now and tau * (
                MAX_TICKS_PER_STEP * (self._n - start + 1) + 1
            ) <= now:
                raise ValueError(
                    f"policy tau {tau!r} is too short for this schedule: "
                    f"reaching time {now!r} would fire more than "
                    f"{MAX_TICKS_PER_STEP} refresh ticks per row replayed"
                )
            while next_tick <= now:
                self.tick(next_tick)
                tick_no += 1
                next_tick = tau * tick_no
            request(fue, index[name], now)
        if self.debug:
            self._check_final()
        return self.report()


def run_single(
    cfg: ScenarioConfig,
    seed: int,
    *,
    debug: bool = False,
    trace=None,
    schedules: dict | None = None,
) -> MetricsReport:
    """Build the scenario ``cfg`` describes and replay it at ``seed``.

    ``schedules``, if given, memoizes the request schedule by workload
    and device ids across calls, so runs that share both build it once.
    """
    topo = cfg.topology()
    zipf = replace(cfg.zipf, seed=seed)
    fues = topo.fues()
    if schedules is None:
        schedules = {}
    key = (zipf, tuple(fues))
    if key not in schedules:
        schedules[key] = build_schedule(zipf, fues)
    schedule = schedules[key]
    sim = Simulation(
        topo,
        Catalog(zipf.catalog_size),
        cfg.policy,
        cfg.policy_config,
        debug=debug,
        cache_d2d_data=cfg.cache_d2d_data,
        trace=trace,
    )
    return sim.run_schedule(schedule)


def metrics_row(cfg: ScenarioConfig, seed: int, report: MetricsReport) -> dict:
    tiers = report.hits_by_tier
    return {
        "policy": cfg.policy,
        "n_fues": sum(cfg.fues_per_fap),
        "d2d": cfg.d2d_enabled,
        "seed": seed,
        "avg_hops": report.avg_hops,
        "cache_hits": report.in_network_cache_hits,
        "hits_own": tiers["own_cs"],
        "hits_d2d": tiers["d2d"],
        "hits_fap": tiers["fap"],
        "hits_bbu": tiers["bbu"],
        "hits_producer": tiers["producer"],
        "fronthaul_packets": report.fronthaul_packets,
        "total_interests": report.total_interests,
    }


def _run_group(cells) -> list[dict]:
    """The metrics rows of cells that share one (seed, device count),
    and so one schedule, built once."""
    schedules: dict = {}
    return [
        metrics_row(
            cfg, seed, run_single(cfg, seed, debug=debug, schedules=schedules)
        )
        for cfg, seed, debug in cells
    ]


def sweep(
    cfg: ScenarioConfig,
    fue_counts,
    policies=POLICY_NAMES,
    d2d_options=(False, True),
    *,
    debug: bool = False,
    n_jobs: int = 1,
) -> list[dict]:
    """Run the factorial grid around ``cfg`` and return one metrics row
    per run.

    Each cell is ``cfg`` with its policy, device count (spread evenly
    over ``cfg``'s access points) and D2D setting replaced, run at each
    of ``cfg.seeds``.  The grid is checked before any cell runs: an
    empty axis, a value an axis repeats, a device count that is not an
    int or is below ``cfg.n_faps``, or an unknown policy raises
    ``ConfigError``.  The request schedule for a cell depends only on
    (seed, device count), so every policy and D2D setting sees
    identical workloads: the cells are grouped by (seed, device count)
    and each group builds its schedule once.  Groups run largest device
    count first, one task each; when there are fewer groups than
    workers, each group is split so that every worker has a task.  Rows
    come back sorted by (policy, n_fues, d2d, seed) regardless of
    n_jobs.  The pool never has more workers than cells or CPUs; with
    one, the grid runs serially in this process.
    """
    grid = tuple(map(tuple, (fue_counts, policies, d2d_options)))
    fue_counts, policies, d2d_options = grid
    for noun, values in zip(("device count", "policy", "D2D setting"), grid):
        if not values:
            raise ConfigError(f"the grid names no {noun}")
        repeat = first_repeat(values)
        if repeat is not None:
            raise ConfigError(f"the grid lists {noun} {repeat!r} twice")
    for n_fues in fue_counts:
        if not is_int(n_fues):
            raise ConfigError(f"device count {n_fues!r} is not an int")
    if min(fue_counts) < cfg.n_faps:
        raise ConfigError(
            f"device count {min(fue_counts)} cannot cover "
            f"{cfg.n_faps} access points with one device each"
        )
    groups = [
        [
            (
                replace(
                    cfg,
                    policy=policy,
                    fues_per_fap=distribute_fues(n_fues, cfg.n_faps),
                    d2d_enabled=d2d,
                ),
                seed,
                debug,
            )
            for policy, d2d in itertools.product(policies, d2d_options)
        ]
        for n_fues, seed in sorted(
            itertools.product(fue_counts, cfg.seeds), key=lambda g: -g[0]
        )
    ]
    n_cells = len(groups) * len(groups[0])
    n_jobs = min(n_jobs, n_cells, os.cpu_count() or 1)
    if n_jobs > 1:
        # One task per group, unless there are fewer groups than workers.
        parts = min(-(-n_jobs // len(groups)), len(groups[0]))
        tasks = [group[i::parts] for group in groups for i in range(parts)]
        with multiprocessing.Pool(n_jobs) as pool:
            done = pool.map(_run_group, tasks, chunksize=1)
    else:
        done = map(_run_group, groups)
    rows = [row for task in done for row in task]
    rows.sort(key=lambda r: (r["policy"], r["n_fues"], r["d2d"], r["seed"]))
    return rows
