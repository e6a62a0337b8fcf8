"""Packet-level named-data nodes and per-node replacement policies.

This is the reference half of the differential check: ``_reference.py``
drives these objects with explicit Interest/Data packets, and the tests
compare the outcome with the flattened ``fransim.engine``.

Each node owns a content store (CS), a pending-interest table (PIT)
and a default upstream route.  Interests walk up the tree until some
node can serve them; data walks back down the reverse path, getting
cached along the way subject to the node's replacement policy.  Access
points additionally keep a directory of what their attached user
devices cache, so a request that misses the access point's own store
can be brokered to a nearby device instead of travelling further up.

Entry timestamps (``inserted_at``, ``last_used_at``) are monotone event
stamps supplied by the caller, which keeps FIFO/LRU ordering and tie
breaks exact even when many events share one simulation time.

Three replacement schemes are provided.  ``fifo`` and ``lru`` always
admit new content and evict the oldest or least recently used entry.
``rate-hop`` keeps a demand-rate table per node and only evicts when
the incoming content scores higher than the weakest cached entry.
"""

from __future__ import annotations

from fransim.errors import ConfigError
from fransim.policies import PolicyConfig, ScoreRule
from fransim.topology import NodeId, NodeRole

# Sentinel downstream id meaning "the consumer application on this node".
APP: NodeId = -1

# handle_interest outcomes.
SERVE_FROM_CS = 0
SERVE_VIA_D2D = 1
AGGREGATED = 2
FORWARDED = 3


# -- replacement policies ------------------------------------------------


class RateTable:
    """Per-node demand estimates: smoothed rates plus the raw counts
    observed in the current refresh window.

    Names with a zero estimate are dropped so the table only holds
    content the node has actually seen demand for.
    """

    __slots__ = ("rates", "window_counts")

    def __init__(self):
        self.rates: dict[str, float] = {}
        self.window_counts: dict[str, int] = {}

    def record_request(self, name: str, satisfied_locally: bool) -> None:
        """Count one request observation unless the node itself already
        had the content, in which case no demand escapes to be counted."""
        if not satisfied_locally:
            wc = self.window_counts
            wc[name] = wc.get(name, 0) + 1

    def bump(self, name: str) -> None:
        """Raise the tracked rate by one, on a data arrival."""
        rates = self.rates
        rates[name] = rates.get(name, 0.0) + 1.0

    def rate(self, name: str) -> float:
        return self.rates.get(name, 0.0)

    def refresh(self, alpha: float, beta: float) -> None:
        """Fold the window counts into the smoothed rates and reset the
        window.  Applies to every name with either a count or a rate."""
        rates = self.rates
        wc = self.window_counts
        denom = alpha + beta
        new_rates: dict[str, float] = {}
        for name in rates.keys() | wc.keys():
            value = (alpha * wc.get(name, 0) + beta * rates.get(name, 0.0)) / denom
            if value > 0.0:
                new_rates[name] = value
        self.rates = new_rates
        wc.clear()


class Policy:
    """Hook interface a node drives during simulation.

    The base class is a valid do-nothing policy except that
    ``select_victim`` must be overridden.  One instance serves exactly
    one node.
    """

    name = "none"

    def on_request(self, content: str, satisfied_locally: bool) -> None:
        """A request for ``content`` was observed at this node."""

    def on_data(self, content: str) -> None:
        """Data for ``content`` arrived at this node."""

    def on_tick(self, now: float) -> None:
        """A periodic refresh boundary passed."""

    def incoming_rate(self, content: str) -> float:
        """Tracked demand rate used to value content arriving for
        insertion; policies without rate state report zero."""
        return 0.0

    def select_victim(self, entries, incoming) -> str | None:
        """Choose which cached name to evict for the incoming content.

        ``entries`` maps name -> CsEntry for a full store; ``incoming``
        is a ``(name, rate, fetch_hops)`` triple.  Returning ``None``
        rejects the insertion and leaves the store unchanged.
        """
        raise NotImplementedError


class FifoPolicy(Policy):
    """Always admit; evict the entry that has been cached longest."""

    name = "fifo"

    def select_victim(self, entries, incoming) -> str | None:
        return min(entries, key=lambda n: entries[n].inserted_at)


class LruPolicy(Policy):
    """Always admit; evict the least recently used entry."""

    name = "lru"

    def select_victim(self, entries, incoming) -> str | None:
        return min(entries, key=lambda n: entries[n].last_used_at)


class RateHopPolicy(Policy):
    """Admit selectively by comparing demand-rate scores.

    The weakest entry (lowest score, oldest first on ties) is evicted
    only when its score is strictly below the incoming content's score;
    otherwise the incoming content is not cached.
    """

    name = "rate-hop"

    __slots__ = ("config", "table")

    def __init__(self, config: PolicyConfig):
        self.config = config
        self.table = RateTable()

    def on_request(self, content: str, satisfied_locally: bool) -> None:
        self.table.record_request(content, satisfied_locally)

    def on_data(self, content: str) -> None:
        self.table.bump(content)

    def on_tick(self, now: float) -> None:
        self.table.refresh(self.config.alpha, self.config.beta)

    def incoming_rate(self, content: str) -> float:
        return self.table.rate(content)

    def _score(self, rate: float, fetch_hops: int) -> float:
        if self.config.score_rule is ScoreRule.RATE_ONLY:
            return rate
        return rate * fetch_hops

    def select_victim(self, entries, incoming) -> str | None:
        name_in, rate_in, hops_in = incoming
        incoming_score = self._score(rate_in, hops_in)
        rates = self.table.rates
        rate_only = self.config.score_rule is ScoreRule.RATE_ONLY
        victim = None
        victim_key = None
        for name, entry in entries.items():
            rate = rates.get(name, 0.0)
            score = rate if rate_only else rate * entry.fetch_hops
            key = (score, entry.inserted_at)
            if victim_key is None or key < victim_key:
                victim = name
                victim_key = key
        if victim_key is not None and victim_key[0] < incoming_score:
            return victim
        return None


_POLICY_KINDS = {
    "fifo": FifoPolicy,
    "lru": LruPolicy,
    "rate-hop": RateHopPolicy,
}


def make_policy(kind: str, config: PolicyConfig) -> Policy:
    """Create a fresh policy instance for one node."""
    try:
        cls = _POLICY_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown policy {kind!r}; expected one of {sorted(_POLICY_KINDS)}"
        ) from None
    if cls is RateHopPolicy:
        return RateHopPolicy(config)
    return cls()


# -- packets, stores and nodes -------------------------------------------


class InterestPacket:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class DataPacket:
    __slots__ = ("name", "hops_from_source", "via_d2d")

    def __init__(
        self,
        name: str,
        hops_from_source: int = 0,
        via_d2d: bool = False,
    ):
        self.name = name
        self.hops_from_source = hops_from_source
        self.via_d2d = via_d2d


class CsEntry:
    __slots__ = ("inserted_at", "last_used_at", "fetch_hops")

    def __init__(self, inserted_at: int, fetch_hops: int):
        self.inserted_at = inserted_at
        self.last_used_at = inserted_at
        self.fetch_hops = fetch_hops


class ContentStore:
    """Fixed-capacity name -> CsEntry map."""

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: dict[str, CsEntry] = {}

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)


class Node:
    """One network node with its forwarding and caching state."""

    __slots__ = (
        "node_id",
        "upstream",
        "cs",
        "pit",
        "policy",
        "directory",
        "fap_directory",
        "d2d_serve",
        "cache_d2d_data",
        "is_origin",
        "unsolicited_drops",
    )

    def __init__(
        self,
        node_id: NodeId,
        role: NodeRole,
        upstream: NodeId | None,
        capacity: int,
        policy: Policy,
    ):
        self.node_id = node_id
        self.upstream = upstream
        self.cs = ContentStore(capacity)
        self.pit: dict[str, list[NodeId]] = {}
        self.policy = policy
        # Access points carry the D2D directory for their group; user
        # devices hold a reference to their access point's directory.
        self.directory: dict[str, set[NodeId]] | None = (
            {} if role is NodeRole.FAP else None
        )
        self.fap_directory: dict[str, set[NodeId]] | None = None
        self.d2d_serve = False
        self.cache_d2d_data = False
        self.is_origin = role is NodeRole.PRODUCER
        self.unsolicited_drops = 0

    def handle_interest(
        self, interest: InterestPacket, downstream: NodeId, now: float, stamp: int
    ) -> tuple[int, NodeId | None]:
        """Process one arriving interest.

        ``downstream`` is the node the interest came from (APP when the
        node's own consumer issued it).  Returns an outcome kind plus
        the node the outcome concerns: the D2D peer for SERVE_VIA_D2D,
        the upstream next hop for FORWARDED, None otherwise.
        """
        if self.is_origin:
            return SERVE_FROM_CS, None
        name = interest.name
        entry = self.cs.entries.get(name)
        if entry is not None:
            self.policy.on_request(name, downstream == APP)
            entry.last_used_at = stamp
            return SERVE_FROM_CS, None
        self.policy.on_request(name, False)
        if self.d2d_serve and self.directory is not None:
            holders = self.directory.get(name)
            if holders:
                return SERVE_VIA_D2D, min(holders)
        pending = self.pit.get(name)
        if pending is not None:
            if downstream not in pending:
                pending.append(downstream)
            return AGGREGATED, None
        self.pit[name] = [downstream]
        return FORWARDED, self.upstream

    def serve_peer(self, name: str, stamp: int) -> None:
        """Mark a D2D serve from this node's store (recency)."""
        self.cs.entries[name].last_used_at = stamp

    def handle_data(
        self, data: DataPacket, now: float, stamp: int
    ) -> tuple[list[NodeId], str | None]:
        """Consume the PIT entry for arriving data and maybe cache it.

        Returns the pending downstream requesters (empty for
        unsolicited data, which is dropped and counted) and the name
        evicted to make room, if any.
        """
        name = data.name
        requesters = self.pit.pop(name, None)
        if requesters is None:
            self.unsolicited_drops += 1
            return [], None
        self.policy.on_data(name)
        evicted = self._maybe_cache(data, stamp)
        return requesters, evicted

    def _maybe_cache(self, data: DataPacket, stamp: int) -> str | None:
        cs = self.cs
        if cs.capacity == 0 or data.name in cs.entries:
            return None
        if data.via_d2d and not self.cache_d2d_data:
            return None
        name = data.name
        evicted = None
        if len(cs.entries) >= cs.capacity:
            incoming = (name, self.policy.incoming_rate(name), data.hops_from_source)
            victim = self.policy.select_victim(cs.entries, incoming)
            if victim is None:
                return None
            del cs.entries[victim]
            self._directory_remove(victim)
            evicted = victim
        cs.entries[name] = CsEntry(stamp, data.hops_from_source)
        self._directory_add(name)
        return evicted

    def _directory_add(self, name: str) -> None:
        directory = self.fap_directory
        if directory is not None:
            directory.setdefault(name, set()).add(self.node_id)

    def _directory_remove(self, name: str) -> None:
        directory = self.fap_directory
        if directory is not None:
            holders = directory.get(name)
            if holders is not None:
                holders.discard(self.node_id)
                if not holders:
                    del directory[name]
