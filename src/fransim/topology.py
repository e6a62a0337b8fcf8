"""Network model for a fog radio access network with in-network caching.

The network is a strict tree with four tiers: a content producer at the
core, a baseband-unit pool below it, fog access points below that, and
fog user equipment at the leaves.  Every user device attached to the
same access point belongs to that access point's device-to-device
group.  Node identifiers are dense integers so that per-node state can
live in flat lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

NodeId = int


class NodeRole(Enum):
    PRODUCER = "producer"
    BBU_POOL = "bbu"
    FAP = "fap"
    FUE = "fue"


# Hop distance from the core for each tier.  The producer sits at the
# core; every tier below it is one hop further out.
HOP_FROM_CORE = {
    NodeRole.PRODUCER: 0,
    NodeRole.BBU_POOL: 1,
    NodeRole.FAP: 2,
    NodeRole.FUE: 3,
}


@dataclass(frozen=True)
class Capacities:
    """Content-store sizes per tier (the producer stores everything)."""

    bbu: int = 8
    fap: int = 4
    fue: int = 2

    def for_role(self, role: NodeRole) -> int:
        if role is NodeRole.BBU_POOL:
            return self.bbu
        if role is NodeRole.FAP:
            return self.fap
        if role is NodeRole.FUE:
            return self.fue
        return 0


class Catalog:
    """The set of content names a producer can serve, c1..cK."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("catalog size must be positive")
        self.names = [f"c{i}" for i in range(1, size + 1)]
        self.index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __iter__(self):
        return iter(self.names)


class Topology:
    """A four-tier tree; an access point's children are its D2D group.

    All per-node attributes are lists indexed by NodeId.  The tree is
    immutable after construction.
    """

    def __init__(
        self,
        roles: list[NodeRole],
        parent: list[NodeId | None],
        capacity: list[int],
        d2d_enabled: bool,
    ):
        n = len(roles)
        if not (len(parent) == len(capacity) == n):
            raise ValueError("per-node lists must have equal length")
        self.roles = roles
        self.parent = parent
        self.capacity = capacity
        self.d2d_enabled = d2d_enabled
        self.hop_from_core = [HOP_FROM_CORE[r] for r in roles]

        self._children: list[list[NodeId]] = [[] for _ in range(n)]
        for node, par in enumerate(parent):
            if par is not None:
                self._children[par].append(node)

        self.labels = self._make_labels()
        self.label_to_id = {lab: i for i, lab in enumerate(self.labels)}
        self._validate()

    def _make_labels(self) -> list[str]:
        labels = []
        counts = {NodeRole.FAP: 0, NodeRole.FUE: 0}
        for role in self.roles:
            if role is NodeRole.PRODUCER:
                labels.append("producer")
            elif role is NodeRole.BBU_POOL:
                labels.append("bbu")
            else:
                counts[role] += 1
                labels.append(f"{role.value}{counts[role]}")
        return labels

    def _validate(self) -> None:
        expected_parent_role = {
            NodeRole.BBU_POOL: NodeRole.PRODUCER,
            NodeRole.FAP: NodeRole.BBU_POOL,
            NodeRole.FUE: NodeRole.FAP,
        }
        for node, role in enumerate(self.roles):
            par = self.parent[node]
            if role is NodeRole.PRODUCER:
                if par is not None:
                    raise ValueError("producer must be the tree root")
                continue
            if par is None:
                raise ValueError(f"node {node} ({role.value}) has no parent")
            if self.roles[par] is not expected_parent_role[role]:
                raise ValueError(
                    f"node {node} ({role.value}) attached to a "
                    f"{self.roles[par].value} node"
                )
        if sum(1 for r in self.roles if r is NodeRole.PRODUCER) != 1:
            raise ValueError("exactly one producer required")
        if sum(1 for r in self.roles if r is NodeRole.BBU_POOL) != 1:
            raise ValueError("exactly one BBU pool required")
        for cap in self.capacity:
            if cap < 0:
                raise ValueError("capacities must be non-negative")

    def __len__(self) -> int:
        return len(self.roles)

    def children(self, node: NodeId) -> list[NodeId]:
        return self._children[node]

    def producer(self) -> NodeId:
        return self.roles.index(NodeRole.PRODUCER)

    def bbu(self) -> NodeId:
        return self.roles.index(NodeRole.BBU_POOL)

    def faps(self) -> list[NodeId]:
        return [i for i, r in enumerate(self.roles) if r is NodeRole.FAP]

    def fues(self) -> list[NodeId]:
        return [i for i, r in enumerate(self.roles) if r is NodeRole.FUE]

    def upstream_path(self, node: NodeId) -> list[NodeId]:
        """Nodes from `node` up to and including the producer."""
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path


def distribute_fues(n_fues: int, n_faps: int) -> list[int]:
    """Spread a device count over access points as evenly as possible."""
    if n_fues < 1 or n_faps < 1:
        raise ValueError("device and access point counts must be positive")
    base, extra = divmod(n_fues, n_faps)
    return [base + (1 if i < extra else 0) for i in range(n_faps)]


def build_topology(
    n_faps: int,
    fues_per_fap: int | list[int],
    capacities: Capacities,
    d2d_enabled: bool = False,
) -> Topology:
    """Build the standard tree: producer, one BBU pool, F-APs, F-UEs.

    Node ids are assigned breadth first: producer 0, BBU 1, then the
    access points, then all user devices grouped by access point.
    """
    if isinstance(fues_per_fap, int):
        fues_per_fap = [fues_per_fap] * n_faps
    if len(fues_per_fap) != n_faps:
        raise ValueError("fues_per_fap must list one count per access point")
    if n_faps < 1 or any(k < 1 for k in fues_per_fap):
        raise ValueError(
            "need at least one access point and one device per access point"
        )

    roles: list[NodeRole] = [NodeRole.PRODUCER, NodeRole.BBU_POOL]
    parent: list[NodeId | None] = [None, 0]
    roles += [NodeRole.FAP] * n_faps
    parent += [1] * n_faps
    fap_ids = list(range(2, 2 + n_faps))
    for fap, count in zip(fap_ids, fues_per_fap):
        roles += [NodeRole.FUE] * count
        parent += [fap] * count

    capacity = [capacities.for_role(r) for r in roles]
    return Topology(roles, parent, capacity, d2d_enabled)
