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


@dataclass(frozen=True)
class Capacities:
    """Content-store sizes per tier (the producer stores everything)."""

    bbu: int = 8
    fap: int = 4
    fue: int = 2

    def __post_init__(self):
        if min(self.bbu, self.fap, self.fue) < 0:
            raise ValueError("capacities must be non-negative")


class Catalog:
    """The set of content names a producer can serve, c1..cK."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("catalog size must be positive")
        self.names = [f"c{i}" for i in range(1, size + 1)]
        self.index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)


class Topology:
    """The four-tier tree; an access point's children are its D2D group.

    ``fues_per_fap`` lists the device count of each access point.  Node
    ids are assigned breadth first: producer 0, BBU pool 1, then the
    access points, then all user devices grouped by access point.  All
    per-node attributes are lists indexed by NodeId.  The tree is
    immutable after construction.
    """

    def __init__(
        self,
        fues_per_fap: list[int],
        capacities: Capacities,
        d2d_enabled: bool,
    ):
        n_faps = len(fues_per_fap)
        if n_faps < 1 or any(k < 1 for k in fues_per_fap):
            raise ValueError(
                "need at least one access point and one device per access point"
            )
        self.d2d_enabled = d2d_enabled
        n_fues = sum(fues_per_fap)
        self._faps = list(range(2, 2 + n_faps))
        self._fues = list(range(2 + n_faps, 2 + n_faps + n_fues))
        self.roles = (
            [NodeRole.PRODUCER, NodeRole.BBU_POOL]
            + [NodeRole.FAP] * n_faps
            + [NodeRole.FUE] * n_fues
        )
        # The producer serves every content itself and keeps no store.
        self.capacity = (
            [0, capacities.bbu]
            + [capacities.fap] * n_faps
            + [capacities.fue] * n_fues
        )
        # Hops from the core: each tier is one further out.
        self.hop_from_core = [0, 1] + [2] * n_faps + [3] * n_fues
        self.parent: list[NodeId | None] = [None, 0] + [1] * n_faps
        self._children: list[list[NodeId]] = [[1], list(self._faps)]
        first = self._fues[0]
        for fap, count in zip(self._faps, fues_per_fap):
            self.parent += [fap] * count
            self._children.append(list(range(first, first + count)))
            first += count
        self._children += [[] for _ in self._fues]
        self.labels = (
            ["producer", "bbu"]
            + [f"fap{i}" for i in range(1, n_faps + 1)]
            + [f"fue{i}" for i in range(1, n_fues + 1)]
        )
        self.label_to_id = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.roles)

    def children(self, node: NodeId) -> list[NodeId]:
        return self._children[node]

    def producer(self) -> NodeId:
        return 0

    def bbu(self) -> NodeId:
        return 1

    def faps(self) -> list[NodeId]:
        return list(self._faps)

    def fues(self) -> list[NodeId]:
        return list(self._fues)

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

    An int ``fues_per_fap`` gives every access point that many devices.
    """
    if isinstance(fues_per_fap, int):
        fues_per_fap = [fues_per_fap] * n_faps
    if len(fues_per_fap) != n_faps:
        raise ValueError("fues_per_fap must list one count per access point")
    return Topology(fues_per_fap, capacities, d2d_enabled)
