"""Packet-level reference simulator used as a differential oracle.

Drives the per-node state machines in ``_ndn`` with explicit
Interest/Data packets, following the same event semantics as the fast
engine: one interest is processed to completion before the next
arrival, refresh ticks fire at tau, 2 tau, ... before same-time
arrivals, and every content-store stamp is the chain's sequence
number.  The engine flattens all of this into rank-indexed state for
speed; this driver keeps the packet objects and per-node policies, so
agreement between the two is a real end-to-end check rather than the
same code run twice.
"""

import _ndn as ndn
from _ndn import APP, DataPacket, InterestPacket, make_policy
from fransim.engine import MetricsReport
from fransim.policies import PolicyConfig
from fransim.topology import Catalog, Topology


class ReferenceSimulation:
    def __init__(
        self,
        topo: Topology,
        catalog: Catalog,
        policy: str,
        policy_config: PolicyConfig | None = None,
        *,
        cache_d2d_data: bool = False,
    ):
        self.topo = topo
        self.catalog = catalog
        self.config = policy_config or PolicyConfig()
        self.policy_name = policy
        self.nodes = {
            node_id: ndn.Node(
                node_id,
                role,
                topo.parent[node_id],
                topo.capacity[node_id],
                make_policy(policy, self.config),
            )
            for node_id, role in enumerate(topo.roles)
        }
        for fap in topo.faps():
            self.nodes[fap].d2d_serve = topo.d2d_enabled
        for fue in topo.fues():
            self.nodes[fue].fap_directory = self.nodes[topo.parent[fue]].directory
            self.nodes[fue].cache_d2d_data = cache_d2d_data
        self.seq = 0
        self.n = 0
        self.hops = 0
        self.fronthaul = 0
        self.hits = {"own_cs": 0, "d2d": 0, "fap": 0, "bbu": 0, "producer": 0}

    # -- inspection -----------------------------------------------------

    def cs_contents(self, node: int) -> set[str]:
        return set(self.nodes[node].cs.entries)

    def rates_of(self, node: int) -> dict[str, float]:
        """Nonzero tracked rates at a node (empty for rate-free policies)."""
        table = getattr(self.nodes[node].policy, "table", None)
        if table is None:
            return {}
        return {name: r for name, r in table.rates.items() if r != 0.0}

    def unsolicited_drops(self) -> int:
        return sum(node.unsolicited_drops for node in self.nodes.values())

    def report(self) -> MetricsReport:
        # Every data packet this driver sends answers a pending interest.
        assert self.unsolicited_drops() == 0
        hits = dict(self.hits)
        return MetricsReport(
            total_interests=self.n,
            total_hops=self.hops,
            in_network_cache_hits=self.n - hits["producer"],
            hits_by_tier=hits,
            fronthaul_packets=self.fronthaul,
        )

    # -- event processing -----------------------------------------------

    def tick(self, now: float) -> None:
        self.seq += 1
        for node in self.nodes.values():
            node.policy.on_tick(now)

    def request(self, fue_id: int, name: str, now: float) -> None:
        self.seq += 1
        seq = self.seq
        self.n += 1
        path = self.topo.upstream_path(fue_id)
        interest = InterestPacket(name)

        fue = self.nodes[fue_id]
        kind, _ = fue.handle_interest(interest, APP, now, seq)
        if kind == ndn.SERVE_FROM_CS:
            self.hits["own_cs"] += 1
            return
        assert kind == ndn.FORWARDED

        fap = self.nodes[path[1]]
        kind, info = fap.handle_interest(interest, fue_id, now, seq)
        if kind == ndn.SERVE_FROM_CS:
            self.hits["fap"] += 1
            self.hops += 2
            self._deliver(path, 1, name, now, seq)
            return
        if kind == ndn.SERVE_VIA_D2D:
            self.nodes[info].serve_peer(name, seq)
            self.hits["d2d"] += 1
            self.hops += 2
            data = DataPacket(name, hops_from_source=1, via_d2d=True)
            requesters, _ = fue.handle_data(data, now, seq)
            assert requesters == [APP]
            return
        assert kind == ndn.FORWARDED

        self.fronthaul += 2
        bbu = self.nodes[path[2]]
        kind, info = bbu.handle_interest(interest, path[1], now, seq)
        if kind == ndn.SERVE_FROM_CS:
            self.hits["bbu"] += 1
            self.hops += 4
            self._deliver(path, 2, name, now, seq)
            return
        assert kind == ndn.FORWARDED

        producer = self.nodes[path[3]]
        kind, _ = producer.handle_interest(interest, path[2], now, seq)
        assert kind == ndn.SERVE_FROM_CS
        self.hits["producer"] += 1
        self.hops += 6
        self._deliver(path, 3, name, now, seq)

    def _deliver(self, path, served_depth, name, now, seq) -> None:
        hops = 0
        for j in range(served_depth - 1, -1, -1):
            hops += 1
            node = self.nodes[path[j]]
            data = DataPacket(name, hops_from_source=hops)
            requesters, _ = node.handle_data(data, now, seq)
            assert requesters == [APP if j == 0 else path[j - 1]]

    def run_schedule(self, schedule) -> MetricsReport:
        tau = self.config.tau
        tick_no = 1
        next_tick = tau
        for t, fue, name in schedule:
            while next_tick <= t:
                self.tick(next_tick)
                tick_no += 1
                next_tick = tau * tick_no
            self.request(fue, name, t)
        return self.report()
