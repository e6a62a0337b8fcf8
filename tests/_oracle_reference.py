"""The subset search that ``oracle.brute_force_optimal`` replaced.

It enumerates every combination of subsets at the BBU and the access
points, values each placement with the oracle's own evaluator, and
keeps the best, ties going to the lexicographically smallest
assignment vector over (content, node id).  It is exponential in the
number of placement variables, so it serves only as the reference the
content-wise solver is compared with on small instances.
"""

from __future__ import annotations

import itertools

from fransim import oracle
from fransim.topology import NodeRole


def subset_search(topo, demand):
    """Return ``(placement, value)`` exactly as the subset search did:
    the placement's keys in node-major order (node id, then content)."""
    walk = oracle._tree_walk(topo, demand)
    contents = walk[0]
    nodes = [n for n in oracle.caching_nodes(topo) if topo.capacity[n] > 0]
    per_node_choices = []
    for node in nodes:
        if topo.roles[node] is NodeRole.FUE:
            continue
        cap = min(topo.capacity[node], len(contents))
        keys = [(name, node) for name in contents]
        subsets = []
        for size in range(cap + 1):
            subsets.extend(itertools.combinations(keys, size))
        per_node_choices.append(subsets)
    order = [(name, node) for name in contents for node in nodes]

    best_value = -1.0
    best_vec = None
    best_placement = {}
    for combo in itertools.product(*per_node_choices):
        placement = dict.fromkeys(itertools.chain.from_iterable(combo), 1)
        value = oracle._objective(walk, placement)
        if value < best_value:
            continue
        vec = tuple([placement.get(key, 0) for key in order])
        if value > best_value or (value == best_value and vec < best_vec):
            best_value = value
            best_vec = vec
            best_placement = placement
    return best_placement, best_value
