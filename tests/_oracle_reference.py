"""The exhaustive searches the oracle's content-wise walks replaced.

``subset_search`` is the search ``oracle.brute_force_optimal``
replaced.  It enumerates every combination of subsets at the BBU and
the access points, values each placement with the oracle's own
evaluator, and keeps the best, ties going to the lexicographically
smallest assignment vector over (content, node id).

``scan`` is the verifier ``oracle.verify_linearization`` replaced.  It
makes the verifier's three checks at every assignment of the x
variables in product order.

Both are exponential in the number of placement variables, so they
serve only as references the content-wise walks are compared with on
small instances.
"""

from __future__ import annotations

import itertools

from fransim import oracle
from fransim.oracle import (
    VerificationReport, _TOL, _free, _objective, _pinned, _total,
)
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


def scan(topo, demand, program=None):
    """The verifier's report from checking every assignment in product
    order; a falsy report names the first counterexample."""
    walk, x_vars, keys, terms, limits, stores = oracle._verification(
        topo, demand, program)
    best_direct = None
    best_linear = None
    checked = 0
    for bits in itertools.product((0, 1), repeat=len(x_vars)):
        direct = _objective(
            walk, dict.fromkeys(itertools.compress(keys, bits), 1)
        )
        pinned = _pinned(terms, bits)
        linear = _total(pinned)
        checked += 1
        if abs(linear - direct) > _TOL * max(
                1.0, direct, _total(map(abs, pinned))):
            return VerificationReport(
                False,
                checked,
                f"pinned objective {linear!r} != direct {direct!r}",
                dict(zip(x_vars, bits)),
            )

        feasible = all(
            sum([bits[i] for i in idx]) <= cap for cap, idx in stores
        )
        admitted = all(
            sum([c * bits[i] for c, i in xs]) <= limit
            for _, limit, xs in limits
        )
        if admitted != feasible:
            return VerificationReport(
                False,
                checked,
                "program rows "
                + ("admit an assignment over" if admitted
                   else "reject an assignment within")
                + " the store capacities",
                dict(zip(x_vars, bits)),
            )
        if not feasible:
            continue
        free = _total(_free(terms, bits))
        if best_direct is None or direct > best_direct:
            best_direct = direct
        if best_linear is None or free > best_linear:
            best_linear = free

    # The all-zero assignment comes first and fits every store: both are set.
    if abs(best_linear - best_direct) > _TOL * max(1.0, abs(best_direct)):
        return VerificationReport(
            False,
            checked,
            f"optimum mismatch: linear {best_linear!r} vs direct "
            f"{best_direct!r}",
        )
    return VerificationReport(True, checked)
