"""Deterministic simulation engine.

The engine replays a request schedule against a topology under one
replacement policy and reports hop and hit metrics.  Transmission is
modelled as instantaneous, so each interest is processed to completion
(up the tree to wherever it is served, data back down with caching)
before the next arrival.  Events are totally ordered by (time, kind,
sequence) with rate-refresh ticks firing before same-time arrivals;
processing is single-threaded and uses no randomness, so a run is a
pure function of (topology, schedule, policy, knobs).

A replay is one loop over ``(time, device, rank)`` rows, chosen once
per run by policy: ``_replay_plain`` for FIFO and LRU and
``_replay_ratehop`` for rate-hop, whose misses also count window
demand, whose deliveries bump rates and whose stores admit by score
(``_admit``).  The loop converts each new time object once and fires
the refresh ticks due before it, then serves each request inline: it
asks the tiers in order, counts the request at the one that serves it
and offers the data to each store on the way down.  Under ``debug``,
``_observed`` then checks the capacity of each store the data reached,
read off the device's path from the serving tier's depth; with a
trace, the loop writes the walk's records, precomputed per device and
tier, in one call.  Each walk's records are kept as their text split
at the content-name holes, with a ``"\\0"`` where each record's shared
seq/time tail goes, so a request's lines are one join and one replace.
``run_schedule`` feeds the loop a ``Schedule``'s rank rows, or maps
any other ``(time, device, name)`` rows to ranks on the way in;
``request`` is a one-row replay.

For speed the hot path keys all per-node state by integer content
rank rather than by name and relies on two exact shortcuts: victims
are taken from dict order, and the selective policy caches each full
store's minimum entry score so the common reject decision is O(1)
and made in the loop, without a call.
Only LRU reorders a store on a hit, so FIFO and rate-hop stores keep
insertion order: FIFO and LRU evict the first entry, and rate-hop the
first (so oldest) entry whose score is the minimum.  An admission
finds that entry, the minimum and the runner-up in one pass over the
store and caches the store's new minimum; a refresh clears the cache.
Data arrivals only bump the rate of content that is not in the store,
which cannot change the minimum.  With D2D on, rate-hop's access point
keeps a count of what its devices hold (rank -> holders), updated by
``_admit`` on each device insert and eviction, so a miss in the
requester's store is a D2D hit iff the rank is counted; rate-hop
device stores rarely change, and a D2D serve changes no peer's store.
FIFO and LRU device stores change on almost every miss, so their
access point asks the stores in turn, lowest device id first, and
does not keep a count.  Under ``debug`` each tick and the final check
recount every group's holders from its stores, and a D2D serve checks
that a peer holds the rank; a miss is not checked, so a drifted count
is caught at the next tick.  The final check also asks that every
request was answered at some tier.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace

from .config import MAX_TICKS_PER_STEP, ScenarioConfig, first_repeat, is_int
from .errors import ConfigError, InvariantViolation
from .policies import MAX_RATE, PolicyConfig, ScoreRule, POLICY_NAMES
from .topology import Catalog, Topology, distribute_fues
from .workload import Schedule, build_schedule

TIER_KEYS = ("own_cs", "d2d", "fap", "bbu", "producer")

# Per tier slot, in ``TIER_KEYS`` order: the depth on the consumer's
# path of the node that serves, and its interest record's outcome.
_SERVING = (
    (0, "own-hit"), (1, "d2d"), (1, "cs-hit"), (2, "cs-hit"), (3, "origin"),
)

# One trace record as its JSON line, keys in sorted order.  Each line is
# byte-identical to ``json.dumps(record, sort_keys=True)``: kinds,
# outcomes and the catalog's ``c<k>`` names need no escaping, nodes and
# sequence numbers are ints, and ``%r`` of a finite Python int or float
# time is its JSON form.  A line is its record's fields, then the tail
# that every record of one event shares.
_EVENT_FIELDS = '{"kind": "%s", "name": "%s", "node": %d, "outcome": "%s"'
_EVENT_TAIL = ', "seq": %d, "time": %r}\n'
_EVENT_LINE = _EVENT_FIELDS + _EVENT_TAIL
_TICK_LINE = (
    '{"kind": "tick", "name": null, "node": null, "outcome": "refresh"'
    + _EVENT_TAIL
)


def _plain_time(now):
    """``now`` as the Python int or float whose ``%r`` is its JSON form:
    a numpy scalar becomes its Python number, anything else that is not
    exactly an int or a float (a bool included) raises ``TypeError``, and
    NaN or an infinity, which JSON cannot hold, raises ``ValueError``.
    A numpy scalar exists only once numpy is loaded, so numpy is looked
    up in ``sys.modules``, never imported, and only for a time that is
    not exactly an int or a float."""
    if type(now) is not int and type(now) is not float:
        np = sys.modules.get("numpy")
        if np is not None and isinstance(now, np.generic):
            now = now.item()
        if type(now) is not int and type(now) is not float:
            raise TypeError(
                f"time must be an int or a float, got {type(now).__name__}"
            )
    if not math.isfinite(now):
        raise ValueError(f"time must be finite, got {now}")
    return now


def _not_a_device(node) -> ValueError:
    return ValueError(f"node {node!r} is not a device")


def _offer(store: dict, cap: int, rank: int, weight: int) -> None:
    """Admit ``rank``, which ``store`` does not hold, to a FIFO or LRU
    store of capacity ``cap``, evicting its first entry when full."""
    if cap:
        if len(store) >= cap:
            del store[next(iter(store))]
        store[rank] = weight


def _walks(path: tuple) -> tuple:
    """Per tier slot, the trace records of a request from ``path[0]``
    served there, as their text split at the content-name holes, each
    record ending in a ``"\\0"`` where the shared ``_EVENT_TAIL`` goes."""
    walks = []
    for depth, outcome in _SERVING:
        below = path[:depth]
        arrival = "delivered" if outcome == "d2d" else "arrived"
        records = (
            [("interest", node, "forwarded") for node in below]
            + [("interest", path[depth], outcome)]
            + [("data", node, arrival) for node in reversed(below)]
        )
        walks.append(tuple("".join(
            _EVENT_FIELDS % (kind, "%s", node, result) + "\0"
            for kind, node, result in records
        ).split("%s")))
    return tuple(walks)


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
    """One run's mutable state plus the request-processing loop.

    Drive it either with :meth:`run_schedule` or by calling
    :meth:`tick` and :meth:`request` by hand for scripted scenarios.
    A request is served by the first store up its path that holds the
    content (with D2D on, a group peer's before the BBU's), else by the
    producer, and its data is offered to each store on the way down.

    ``trace``, if given, receives the event records as finished JSON
    lines, newline included: a list gets each line appended as one
    entry, any other value is called once per request with all of that
    request's lines and once per tick with its line.  :meth:`request`,
    :meth:`tick` and :meth:`run_schedule` take times as Python or numpy
    ints and floats and write a numpy time as its Python number
    (``np.int64(3)`` as ``3``, ``np.float64(1.5)`` as ``1.5``); any
    other time raises ``TypeError``, and a NaN or infinite one
    ``ValueError``.  The engine never imports numpy.
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
        if isinstance(trace, list):
            # Not a method of ``self``: that would hold it in a cycle.
            self._emit = lambda text: trace.extend(text.splitlines(True))
        else:
            self._emit = trace

        n = len(topo)
        self._is_lru = policy == "lru"
        self._is_ratehop = policy == "rate-hop"

        # Per-node state, indexed by NodeId.  Stores map content rank
        # (0-based) to the weight its data was fetched with (1 under the
        # rate-only rule); rate-hop scores an entry rate * weight, and
        # FIFO/LRU only need dict order.
        self._cs: list[dict] = [{} for _ in range(n)]
        # Each node maps every rank it has seen to [smoothed rate, window
        # count]; only rate-hop writes here.  A window count creates the
        # entry before any rate bump or admission at that node reads it.
        # An unseen rank has rate 0.0, which a refresh keeps, so refreshing
        # the entries gives the rates a whole-catalog refresh would.
        self._demand: list[defaultdict[int, list]] = [
            defaultdict([0.0, 0].copy) for _ in range(n)
        ]
        # Per node, its full store's minimum score, or None if unknown.
        # The list is cleared in place, never replaced, so a replay may
        # hold it in a local.
        self._min_score: list[float | None] = [None] * n
        # With D2D on, each device refers to its access point's group:
        # under rate-hop the group's holder count (rank -> how many of
        # its devices hold it), shared by its devices and kept current
        # by ``_admit``; under FIFO and LRU the devices' stores in
        # device-id order, so asking them in turn finds the lowest-id
        # holder.  Stores are mutated in place and never replaced, so
        # the tuple stays current.  ``_held`` is None and ``group_of``
        # empty where neither is kept.
        self._held: list[dict | None] = [None] * n
        group_of: list[tuple[dict, ...]] = [()] * n
        if topo.d2d_enabled:
            for fap in topo.faps():
                group = topo.children(fap)
                if self._is_ratehop:
                    held: dict[int, int] = {}
                    for fue in group:
                        self._held[fue] = held
                else:
                    stores = tuple(self._cs[fue] for fue in group)
                    for fue in group:
                        group_of[fue] = stores
        paths = {fue: tuple(topo.upstream_path(fue)) for fue in topo.fues()}
        # Data fetched over 2 and 3 hops is weighted so.
        rate_only = self.config.score_rule is ScoreRule.RATE_ONLY
        self._far_weights = (1, 1) if rate_only else (2, 3)

        self.seq = 0
        self._n = 0
        self._hits = [0] * len(TIER_KEYS)  # one count per tier, in order

        # Per device, for its loop: its own, F-AP and BBU stores, and its
        # D2D group (for rate-hop its holder count, or an empty tuple
        # without D2D); for FIFO and LRU each store's capacity, for
        # rate-hop each node's demand map and the upper nodes' ids.
        cs = self._cs
        # The loops are kept as plain functions, not bound methods: a
        # bound method on the instance would hold it in a reference
        # cycle that only the cycle collector frees.
        if self._is_ratehop:
            demand = self._demand
            self._table = {
                fue: (
                    cs[fue], demand[fue],
                    fap, cs[fap], demand[fap],
                    bbu, cs[bbu], demand[bbu],
                    () if self._held[fue] is None else self._held[fue],
                )
                for fue, (_, fap, bbu, _) in paths.items()
            }
            self._replay = Simulation._replay_ratehop
        else:
            capacity = topo.capacity
            self._table = {
                fue: (
                    cs[fue], capacity[fue],
                    cs[fap], capacity[fap],
                    cs[bbu], capacity[bbu],
                    group_of[fue],
                )
                for fue, (_, fap, bbu, _) in paths.items()
            }
            self._replay = Simulation._replay_plain
        self._walks = {
            fue: _walks(path) for fue, path in paths.items()
        } if trace is not None else None
        # Under ``debug``, each device's path, whose stores a request's
        # data reached up to the serving depth, and its peers' stores,
        # against which a D2D serve from the holder count is checked.
        self._paths = paths if debug else None
        self._peers = {
            fue: tuple(cs[peer] for peer in topo.children(fap) if peer != fue)
            for fue, (_, fap, _, _) in paths.items()
        } if debug and self._is_ratehop and topo.d2d_enabled else None

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
        # Only rate-hop keeps demand: FIFO and LRU maps stay empty.
        if self._is_ratehop:
            alpha = self.config.alpha
            beta = self.config.beta
            denom = alpha + beta
            for demand in self._demand:
                for entry in demand.values():
                    entry[0] = (alpha * entry[1] + beta * entry[0]) / denom
                    entry[1] = 0
            self._min_score[:] = [None] * len(self._min_score)
        if self._emit is not None:
            self._emit(_TICK_LINE % (self.seq, now))
        if self.debug:
            self._check_capacity(range(len(self.topo)))
            self._check_held()

    def request(self, fue: int, name: str, now: float) -> None:
        """Process one consumer request to completion, as a one-row
        replay that fires no tick.  A ``fue`` that is not a device
        raises ``ValueError`` and changes nothing."""
        self._replay(self, ((now, fue, self.catalog.index[name]),), math.inf)

    def run_schedule(self, schedule) -> MetricsReport:
        """Replay arrivals in order, firing refresh ticks every tau.

        ``schedule`` is a :class:`~fransim.workload.Schedule` or any
        iterable of ``(time, device, name)`` rows.  Ticks land at tau,
        2 tau, ... and take effect before arrivals that share the same
        time.  Times are checked and converted as :meth:`request` does,
        once per time object.  A row that would take the run past
        ``MAX_TICKS_PER_STEP`` ticks per row replayed so far, itself
        included, raises ``ValueError`` before any of its ticks fire;
        every run a ``ScenarioConfig`` admits stays within that bound.
        A row from a node that is not a device raises ``ValueError``
        before anything of it, its ticks included, is applied.
        """
        if (isinstance(schedule, Schedule)
                and schedule.catalog_size <= len(self.catalog)):
            rows = schedule.ranked()
        else:
            index = self.catalog.index
            rows = ((t, fue, index[name]) for t, fue, name in schedule)
        self._replay(self, rows, self.config.tau)
        if self.debug:
            self._check_final()
        return self.report()

    def _tick_until(self, now, tau: float, tick_no: int, start: int) -> int:
        """Fire refresh ticks ``tick_no``, ``tick_no + 1``, ... while
        they are due by ``now``, and return the number of the next one.
        If that would pass the tick bound for a replay that began at
        request count ``start``, raise ``ValueError`` before any fires.
        """
        # Tick k fires at tau * k, so the run passes its tick limit iff
        # the next tick past it is due; a float product cannot raise,
        # and an overflow to inf is simply never due.
        if tau * (MAX_TICKS_PER_STEP * (self._n - start + 1) + 1) <= now:
            raise ValueError(
                f"policy tau {tau!r} is too short for this schedule: "
                f"reaching time {now!r} would fire more than "
                f"{MAX_TICKS_PER_STEP} refresh ticks per row replayed"
            )
        next_tick = tau * tick_no
        while next_tick <= now:
            self.tick(next_tick)
            tick_no += 1
            next_tick = tau * tick_no
        return tick_no

    def _replay_plain(self, rows, tau: float) -> None:
        """The FIFO and LRU loop over ``(time, device, rank)`` rows,
        with ticks every ``tau``: each request asks the own store, the
        F-AP, the D2D group and the BBU in turn, is counted at the one
        that serves it, and offers its data to each store below."""
        table = self._table
        hits = self._hits
        lru = self._is_lru
        cache_d2d = self.cache_d2d_data
        two, three = self._far_weights
        debug = self.debug
        emit = self._emit
        observed = debug or emit is not None
        walks = self._walks
        names = self.catalog.names
        start = self._n
        tick_no = 1
        next_tick = tau
        last = object()  # no row's time is this object
        for t, fue, rank in rows:
            try:
                own, own_cap, fap, fap_cap, bbu, bbu_cap, group = table[fue]
            except KeyError:
                raise _not_a_device(fue) from None
            if t is not last:
                now = _plain_time(t)
                if next_tick <= now:
                    tick_no = self._tick_until(now, tau, tick_no, start)
                    next_tick = tau * tick_no
                last = t
                if emit is not None:
                    step_tail = _EVENT_TAIL.replace("%r", repr(now))
            self.seq += 1
            self._n += 1
            if rank in own:
                if lru:
                    own[rank] = own.pop(rank)
                slot = 0
            elif rank in fap:
                if lru:
                    fap[rank] = fap.pop(rank)
                slot = 2
                _offer(own, own_cap, rank, 1)
            else:
                for peer_store in group:
                    if rank in peer_store:
                        if lru:
                            peer_store[rank] = peer_store.pop(rank)
                        slot = 1
                        if cache_d2d:
                            _offer(own, own_cap, rank, 1)
                        break
                else:
                    if rank in bbu:
                        if lru:
                            bbu[rank] = bbu.pop(rank)
                        slot = 3
                        _offer(fap, fap_cap, rank, 1)
                        _offer(own, own_cap, rank, two)
                    else:
                        slot = 4
                        _offer(bbu, bbu_cap, rank, 1)
                        _offer(fap, fap_cap, rank, two)
                        _offer(own, own_cap, rank, three)
            hits[slot] += 1
            if observed:
                if debug:
                    self._observed(fue, rank, slot)
                if emit is not None:
                    emit(names[rank].join(walks[fue][slot])
                         .replace("\0", step_tail % self.seq))

    def _replay_ratehop(self, rows, tau: float) -> None:
        """The rate-hop loop: ``_replay_plain``'s walk, where the D2D
        group is asked through its holder count, every node the request
        misses counts it in its window, every node the data passes bumps
        its rate, and ``_admit`` decides what each store keeps.

        Most offers to a full store lose, and they lose here, without
        the call: only a full store has its minimum score cached, so an
        offer goes to ``_admit`` only when that minimum is unknown or
        the offer beats it."""
        table = self._table
        hits = self._hits
        low = self._min_score
        admit = self._admit
        cache_d2d = self.cache_d2d_data
        two, three = self._far_weights
        debug = self.debug
        emit = self._emit
        observed = debug or emit is not None
        walks = self._walks
        names = self.catalog.names
        start = self._n
        tick_no = 1
        next_tick = tau
        last = object()  # no row's time is this object
        for t, fue, rank in rows:
            try:
                (own, own_demand, fap, fap_cs, fap_demand,
                 bbu, bbu_cs, bbu_demand, held) = table[fue]
            except KeyError:
                raise _not_a_device(fue) from None
            if t is not last:
                now = _plain_time(t)
                if next_tick <= now:
                    tick_no = self._tick_until(now, tau, tick_no, start)
                    next_tick = tau * tick_no
                last = t
                if emit is not None:
                    step_tail = _EVENT_TAIL.replace("%r", repr(now))
            self.seq += 1
            self._n += 1
            if rank in own:
                slot = 0
            else:
                own_rate = own_demand[rank]
                own_rate[1] += 1
                fap_rate = fap_demand[rank]
                fap_rate[1] += 1
                if rank in fap_cs:
                    slot = 2
                    own_rate[0] += 1.0
                    if (m := low[fue]) is None or m < own_rate[0]:
                        admit(fue, rank, 1)
                elif rank in held:
                    # Own store missed, so a peer holds it; which one
                    # serves does not matter, as its store is unchanged.
                    slot = 1
                    own_rate[0] += 1.0
                    if cache_d2d and (
                        (m := low[fue]) is None or m < own_rate[0]
                    ):
                        admit(fue, rank, 1)
                else:
                    bbu_rate = bbu_demand[rank]
                    bbu_rate[1] += 1
                    if rank in bbu_cs:
                        slot = 3
                    else:
                        slot = 4
                        bbu_rate[0] += 1.0
                        if (m := low[bbu]) is None or m < bbu_rate[0]:
                            admit(bbu, rank, 1)
                    # The weight of data from the BBU, or from the
                    # producer through it, at the F-AP and device.
                    near, far = (1, two) if slot == 3 else (two, three)
                    fap_rate[0] += 1.0
                    if (m := low[fap]) is None or m < fap_rate[0] * near:
                        admit(fap, rank, near)
                    own_rate[0] += 1.0
                    if (m := low[fue]) is None or m < own_rate[0] * far:
                        admit(fue, rank, far)
            hits[slot] += 1
            if observed:
                if debug:
                    self._observed(fue, rank, slot)
                if emit is not None:
                    emit(names[rank].join(walks[fue][slot])
                         .replace("\0", step_tail % self.seq))

    def _admit(self, node: int, rank: int, weight: int) -> None:
        """Offer ``rank``, which the store at ``node`` does not hold, at
        fetch weight ``weight``: a full store takes it only if its score
        beats the store's minimum, evicting the first entry at it.  One
        pass finds that entry, the minimum and the runner-up, so a full
        store leaves with its minimum cached.  A device's group holder
        count, if it has one, follows each insert and eviction."""
        cap = self.topo.capacity[node]
        if cap == 0:
            return
        store = self._cs[node]
        held = self._held[node]
        if len(store) < cap:
            store[rank] = weight
            if held is not None:
                held[rank] = held.get(rank, 0) + 1
            return
        demand = self._demand[node]
        incoming = demand[rank][0] * weight
        low = second = math.inf
        for r, w in store.items():
            score = demand[r][0] * w
            if score < low:
                second = low
                low = score
                victim = r
            elif score < second:
                second = score
        if low < incoming:
            del store[victim]
            store[rank] = weight
            low = min(second, incoming)
            if held is not None:
                if held[victim] == 1:
                    del held[victim]
                else:
                    held[victim] -= 1
                held[rank] = held.get(rank, 0) + 1
        self._min_score[node] = low

    def _observed(self, fue: int, rank: int, slot: int) -> None:
        """The debug checks after serving ``rank`` to ``fue`` at tier
        ``slot``: every store from the device up to the serving node,
        which the data may have reached, is within its capacity (none,
        for an own-store hit).  Under rate-hop, a D2D serve also checks
        that a peer's store holds ``rank``."""
        depth = _SERVING[slot][0]
        if depth:
            self._check_capacity(self._paths[fue][:depth + 1])
        if slot == 1 and self._peers is not None:
            for store in self._peers[fue]:
                if rank in store:
                    break
            else:
                raise InvariantViolation(
                    f"node {fue} got {self.catalog.names[rank]} from a "
                    f"peer, but no other device of access point "
                    f"{self.topo.parent[fue]} holds it (event {self.seq})"
                )

    # -- debug instrumentation ----------------------------------------

    def _check_capacity(self, nodes) -> None:
        cs = self._cs
        capacity = self.topo.capacity
        for node in nodes:
            if len(cs[node]) > capacity[node]:
                raise InvariantViolation(
                    f"capacity exceeded at node {node} (event {self.seq})"
                )

    def _check_held(self) -> None:
        """Recount each kept group holder count from its devices'
        stores; a count that disagrees names its access point."""
        cs = self._cs
        for fap in self.topo.faps():
            group = self.topo.children(fap)
            held = self._held[group[0]]
            if held is None:
                continue
            counted: dict[int, int] = {}
            for fue in group:
                for rank in cs[fue]:
                    counted[rank] = counted.get(rank, 0) + 1
            if counted != held:
                raise InvariantViolation(
                    f"the holder count of access point {fap} disagrees "
                    f"with its devices' stores (event {self.seq})"
                )

    def _check_final(self) -> None:
        answered = sum(self._hits)
        if answered != self._n:
            raise InvariantViolation(
                f"{self._n} interests issued but {answered} answered"
            )
        self._check_capacity(range(len(self.topo)))
        self._check_held()


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


def grid_groups(
    cfg: ScenarioConfig,
    fue_counts,
    policies=POLICY_NAMES,
    d2d_options=(False, True),
    *,
    debug: bool = False,
) -> list[list[tuple]]:
    """The cells of the factorial grid around ``cfg``, as (config, seed,
    debug), grouped by (device count, seed), largest count first.

    Each cell is ``cfg`` with its policy, device count (spread evenly
    over ``cfg``'s access points) and D2D setting replaced, at one of
    ``cfg.seeds``.  An empty axis, a value an axis repeats, a device
    count that is not an int or is below ``cfg.n_faps``, or an unknown
    policy raises ``ConfigError``.
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
    return [
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

    The grid is checked by :func:`grid_groups` before any cell runs.
    The request schedule for a cell depends only on (seed, device
    count), so every policy and D2D setting sees identical workloads:
    each group of cells builds its schedule once.  Groups run largest
    device count first, one task each; when there are fewer groups than
    workers, each group is split so that every worker has a task.  Rows
    come back sorted by (policy, n_fues, d2d, seed) regardless of
    n_jobs.  The pool never has more workers than cells or CPUs; with
    one, the grid runs serially in this process and multiprocessing is
    never imported.
    """
    groups = grid_groups(cfg, fue_counts, policies, d2d_options, debug=debug)
    n_cells = len(groups) * len(groups[0])
    n_jobs = min(n_jobs, n_cells, os.cpu_count() or 1)
    if n_jobs > 1:
        # One task per group, unless there are fewer groups than workers.
        parts = min(-(-n_jobs // len(groups)), len(groups[0]))
        tasks = [group[i::parts] for group in groups for i in range(parts)]
        import multiprocessing  # loaded only when a pool starts
        with multiprocessing.Pool(n_jobs) as pool:
            done = pool.map(_run_group, tasks, chunksize=1)
    else:
        done = map(_run_group, groups)
    rows = [row for task in done for row in task]
    rows.sort(key=lambda r: (r["policy"], r["n_fues"], r["d2d"], r["seed"]))
    return rows
