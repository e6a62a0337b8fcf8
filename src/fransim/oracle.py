"""Exact offline evaluation of the cache-placement objective.

Given exogenous per-device demand rates, a placement assigns contents
to content stores.  Demand thins as it climbs the tree: a node only
sees the requests its subtree could not satisfy, each hop applying a
(1 - x) factor.  The objective credits each placed copy with the
demand reaching it weighted by the node's hop distance from the core,
so popular content placed far from the core scores highest.

This module provides the placement evaluator, an exact solver for
small instances, and a zero-one linearization of the objective with an
exhaustive verifier that it is exact.  The objective sums over
contents, coupled only by store capacities.  The solver tabulates each
content's best per load on the binding stores and walks the contents
keeping the best per load vector, a multiple-choice knapsack.  The
verifier walks each block of contents that the program's terms tie
together once, every assignment of it, and combines the blocks' tables
the same way.  Placements are ``{(name, node): 0|1}``; missing keys
mean 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import InstanceTooLarge
from .topology import NodeId, NodeRole, Topology

# Exhaustive-search guard: contents x cache-capable nodes.
ENUMERATION_LIMIT = 24

Placement = dict  # (name, NodeId) -> 0 | 1


@dataclass(frozen=True)
class DemandSpec:
    """Exogenous request rates, one per (content name, device)."""

    base_rate: dict[tuple[str, NodeId], float]

    def contents(self) -> list[str]:
        return sorted({name for name, _ in self.base_rate})

    def validate(self, topo: Topology) -> None:
        for (name, fue), rate in self.base_rate.items():
            check_row(name, fue, rate, topo)
        # Every rate, sum and objective the evaluator forms is at most
        # this total, so a finite total keeps them all finite.
        hop = topo.hop_from_core
        total = sum(
            rate * sum(hop[node] for node in topo.upstream_path(fue))
            for (_, fue), rate in self.base_rate.items()
        )
        if not math.isfinite(total):
            raise ValueError(
                f"the demand's hop-weighted total is not finite ({total}): "
                "rates this large overflow the objective"
            )


def check_row(name: str, node: NodeId, rate: float, topo: Topology) -> None:
    """Raise ``ValueError`` unless ``name`` is not blank, ``node`` is a
    device of ``topo`` and ``rate`` is finite and non-negative."""
    if not name.strip():
        raise ValueError(f"demand at node {node} has an empty content name")
    if not 0 <= node < len(topo):
        raise ValueError(
            f"demand for {name!r} at node {node}, which is not in "
            f"the topology (node ids 0..{len(topo) - 1})"
        )
    if topo.roles[node] is not NodeRole.FUE:
        raise ValueError(
            f"demand for {name!r} at node {node}, which is not "
            "user equipment"
        )
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(
            f"demand rate for {name!r} at {node} must be finite and "
            f"non-negative, got {rate}"
        )


def caching_nodes(topo: Topology) -> list[NodeId]:
    """Nodes that may hold placements: every node except the producer."""
    return [
        n for n, role in enumerate(topo.roles) if role is not NodeRole.PRODUCER
    ]


def check_feasible(topo: Topology, placement: Placement) -> None:
    """Raise if the placement violates any store capacity."""
    used: dict[NodeId, int] = {}
    for (name, node), x in placement.items():
        if x not in (0, 1):
            raise ValueError(f"placement value for ({name}, {node}) not binary")
        if x:
            used[node] = used.get(node, 0) + 1
    for node, count in used.items():
        if count > topo.capacity[node]:
            raise ValueError(
                f"placement infeasible: node {node} holds {count} contents "
                f"but has capacity {topo.capacity[node]}"
            )


def propagate_rates(
    topo: Topology, demand: DemandSpec, placement: Placement
) -> dict[tuple[str, NodeId], float]:
    """Effective demand at every caching node under a placement.

    At a device the base rate is thinned by the device's own copy; at
    aggregation tiers each child contributes its rate thinned by the
    child's copy.  Computed leaf to root in one pass.
    """
    check_feasible(topo, placement)
    return _propagate(_tree_walk(topo, demand), placement)


def objective_value(
    topo: Topology, demand: DemandSpec, placement: Placement
) -> float:
    """Hop-weighted demand captured by a feasible placement."""
    check_feasible(topo, placement)
    return _objective(_tree_walk(topo, demand), placement)


def _tree_walk(topo: Topology, demand: DemandSpec):
    """Validate the demand against the tree, then read once what no
    placement changes: the sorted contents, their base rates, the
    devices, each access point with its children, the BBU and the hop
    weights.  Every oracle entry point reads its instance through this,
    so each validates exactly once; callers that evaluate many
    placements or expand the objective reuse the walk."""
    demand.validate(topo)
    return (
        demand.contents(),
        demand.base_rate,
        topo.fues(),
        [(fap, topo.children(fap)) for fap in topo.faps()],
        topo.bbu(),
        topo.hop_from_core,
    )


def _propagate(walk, placement):
    contents, base, fues, faps, bbu, _ = walk
    x = placement.get
    rates: dict[tuple[str, NodeId], float] = {}
    for name in contents:
        for fue in fues:
            key = (name, fue)
            rates[key] = base.get(key, 0.0) * (1 - x(key, 0))
        up = 0.0  # the BBU sees each access point's rate thinned by its copy
        for fap, children in faps:
            total = 0.0
            for child in children:
                key = (name, child)
                total += rates[key] * (1 - x(key, 0))
            key = (name, fap)
            rates[key] = total
            up += total * (1 - x(key, 0))
        rates[(name, bbu)] = up
    return rates


def _objective(walk, placement):
    return _total(_earnings(walk, placement))


def _earnings(walk, placement):
    """The summands of ``_objective``: each placed copy's hop-weighted
    demand, in placement order."""
    rates = _propagate(walk, placement)
    hop = walk[-1]
    return [
        rates.get(key, 0.0) * hop[key[1]]
        for key, x in placement.items() if x
    ]


def brute_force_optimal(
    topo: Topology, demand: DemandSpec
) -> tuple[Placement, float]:
    """Return a maximizer over every feasible placement without device
    copies, found by one walk over the contents.

    Ties go to the lexicographically smallest assignment vector, with
    variables ordered by (content, node id), so the result is unique.
    It holds no device copy: a device copy earns its device's demand
    thinned by itself, 0, and only thins the rates above it, so as
    IEEE ``+`` and ``*`` are monotone, dropping it never lowers the
    value, and it makes the vector smaller.  The guard still counts
    device stores with room.

    An entry is (value, -code, earnings), the code reading the vector
    as one integer.  Given its BBU bit x_b, a content is worth
    x_b h_b R + sum_f x_f r_f (h_f - x_b h_b), so each access point's
    bit counts on its own.  Unless all sums are exact, an entry keeps
    each candidate within ``slack`` of its best, one per node-major
    sequence of nonzero earnings; ``_objective`` ranks the finalists.
    """
    walk = _tree_walk(topo, demand)
    contents, base, _, faps, bbu, hop = walk
    nodes = [n for n in caching_nodes(topo) if topo.capacity[n] > 0]
    if len(contents) * len(nodes) > ENUMERATION_LIMIT:
        raise InstanceTooLarge(
            f"{len(contents)} contents x {len(nodes)} caching nodes = "
            f"{len(contents) * len(nodes)} binary variables exceeds the "
            f"exhaustive-search limit of {ENUMERATION_LIMIT}"
        )
    binding = [n for n in nodes if topo.capacity[n] < len(contents)
               and topo.roles[n] is not NodeRole.FUE]
    caps = [topo.capacity[n] for n in binding]
    load = {n: tuple(int(n == b) for b in binding) for n in nodes}
    zero, nil = (0,) * len(binding), [(0.0, 0, ())]
    code = {(name, n): 1 << (len(contents) - i) * len(nodes) - 1 - j
            for j, n in enumerate(nodes) for i, name in enumerate(contents)}
    # No value or partial sum here or in _objective exceeds `most`.
    most = (hop[bbu] + max(hop)) * _total(base.values())
    grid = max([1] + [float(r).as_integer_ratio()[1] for r in base.values()])
    slack = 0.0 if grid <= 2 ** 52 / max(most, 1.0) else (
        most * 2.0 ** -48 * len(topo) * (len(contents) + 2))

    def pick(a, b):  # per earnings sequence, the least vector near the top
        top, kept = max(a + b), {}
        for c in a + b if slack else [top]:
            if c[0] >= top[0] - slack and c[1] >= kept.get(c[2], c)[1]:
                kept[c[2]] = c
        return list(kept.values())

    def join(a, b):
        return pick([(va + vb, na + nb, tuple(sorted(sa + sb, key=by_node)))
                     for va, na, sa in a for vb, nb, sb in b], [])

    by_node, tables = operator.itemgetter(0), [{zero: nil}]
    flow = _propagate(walk, {})  # each store's demand with no copies
    for name in contents:
        rates = [flow[(name, fap)] for fap, _ in faps]
        both = []  # the entries of both BBU bits, picked per load below
        for xb in range(1 + ((name, bbu) in code)):
            lost = xb * hop[bbu]
            states = {load[bbu] if xb else zero: [(
                lost * flow[(name, bbu)], -xb * code.get((name, bbu), 0), ())]}
            for (fap, _), rate in zip(faps, rates):
                if (name, fap) in code:
                    gain = [(rate * (hop[fap] - lost), -code[(name, fap)],
                             ((fap, rate * hop[fap]),) * bool(slack and rate))]
                    states = _grow(states, [(zero, nil), (load[fap], gain)],
                                   caps, join, pick)
            for key, entry in states.items():
                for value, neg, seq in entry:  # the BBU earns what is left
                    up = xb and hop[bbu] * _total(
                        [r for (f, _), r in zip(faps, rates)
                         if not -neg & code.get((name, f), 0)])
                    seq = ((bbu, up),) * bool(slack and up) + seq
                    both.append((key, [(value, neg, seq)]))
        tables.append(_grow({zero: nil}, both, caps, join, pick))

    value, _, placement = max(
        (_objective(walk, p), neg, p)
        for _, neg, _ in _best_feasible(tables, caps, nil, join, pick)
        for p in [{key: 1 for key, bit in code.items() if -neg & bit}])
    return placement, value


# -- zero-one linearization -------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """Linear inequality: sum(coeffs[v] * v) <= rhs."""

    coeffs: dict[str, float]
    rhs: float


@dataclass
class LinearizedProgram:
    """The objective polynomial rewritten with one auxiliary variable
    per distinct product of binary placement variables."""

    x_vars: list[str]
    z_vars: list[str]
    x_key: dict[str, tuple[str, NodeId]]
    monomials: dict[str, frozenset[str]]  # z name -> its x-variable factors
    objective: dict[str, float]
    constraints: list[Constraint] = field(default_factory=list)

    def to_text(self) -> str:
        lines = ["maximize:"]
        terms = [
            f"  {coeff:+g} {var}"
            for var, coeff in self.objective.items()
            if coeff
        ]
        lines.extend(terms or ["  0"])
        lines.append("subject to:")
        for con in self.constraints:
            left = " ".join(
                f"{coeff:+g} {var}" for var, coeff in con.coeffs.items()
            )
            lines.append(f"  {left} <= {con.rhs:g}")
        for z, factors in self.monomials.items():
            lines.append(f"  # {z} stands for {' * '.join(sorted(factors))}")
        lines.append("binary: " + " ".join(self.x_vars))
        return "\n".join(lines)


def _x_name(topo: Topology, name: str, node: NodeId) -> str:
    return f"x[{name},{topo.labels[node]}]"


def linearize(
    topo: Topology,
    demand: DemandSpec,
    *,
    drop_zero_capacity: bool = False,
) -> LinearizedProgram:
    """Expand the objective into multilinear monomials and linearize.

    Binary idempotence makes device self-placement terms vanish, so the
    expansion only produces access-point and BBU terms.  Each distinct
    monomial of degree >= 2 gets one auxiliary variable constrained by
    z <= factor (each), z >= sum(factors) - (arity - 1), z >= 0, which
    pins z to the exact product at binary points.  With
    ``drop_zero_capacity`` the variables of zero-capacity stores are
    pre-substituted to 0 and their monomials dropped.
    """
    return _expand(topo, _tree_walk(topo, demand), drop_zero_capacity)


def _expand(topo: Topology, walk, drop_zero_capacity: bool):
    contents, base, _, faps, bbu, hop = walk
    kept = [
        node for node in caching_nodes(topo)
        if not drop_zero_capacity or topo.capacity[node] > 0
    ]
    keep = set(kept)

    # Accumulate monomial -> coefficient.  Iteration order (content,
    # then device id) fixes the auxiliary numbering deterministically.
    # A monomial's terms all share one sign, so no coefficient sums to 0.
    coeffs: dict[frozenset[str], float] = {}
    for name in contents:
        for fap, children in faps:
            for fue in children:
                rate = base.get((name, fue), 0.0)
                if rate == 0.0:
                    continue
                # Each copy earns its hop weight times the rate thinned
                # by (1 - x) at every kept store below it; the product
                # expands to one signed term per subset of those stores.
                for node, below in ((fap, (fue,)), (bbu, (fap, fue))):
                    if node not in keep:
                        continue
                    own = _x_name(topo, name, node)
                    thin = [_x_name(topo, name, n) for n in below if n in keep]
                    for k in range(len(thin) + 1):
                        coeff = (-1) ** k * hop[node] * rate
                        for subset in itertools.combinations(thin, k):
                            term = frozenset((own, *subset))
                            coeffs[term] = coeffs.get(term, 0.0) + coeff

    x_vars = []
    x_key = {}
    for name in contents:
        for node in kept:
            var = _x_name(topo, name, node)
            x_vars.append(var)
            x_key[var] = (name, node)

    objective: dict[str, float] = {}
    monomials: dict[str, frozenset[str]] = {}
    z_vars: list[str] = []
    constraints: list[Constraint] = []
    for term, coeff in coeffs.items():
        if len(term) == 1:
            (var,) = term
            objective[var] = objective.get(var, 0.0) + coeff
            continue
        z = f"z{len(z_vars) + 1}"
        z_vars.append(z)
        monomials[z] = term
        objective[z] = coeff
        for factor in sorted(term):
            constraints.append(Constraint({z: 1.0, factor: -1.0}, 0.0))
        lower = {z: -1.0}
        lower.update({factor: 1.0 for factor in sorted(term)})
        constraints.append(Constraint(lower, len(term) - 1.0))
        constraints.append(Constraint({z: -1.0}, 0.0))

    for node in kept:
        coeffs_cap = {
            _x_name(topo, name, node): 1.0
            for name in contents
        }
        constraints.append(Constraint(coeffs_cap, float(topo.capacity[node])))

    return LinearizedProgram(
        x_vars, z_vars, x_key, monomials, objective, constraints
    )


@dataclass
class VerificationReport:
    ok: bool
    checked: int
    message: str = ""
    counterexample: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


# Relative tolerance of every comparison the verifier makes.
_TOL = 1e-9


def _index_program(program: LinearizedProgram):
    """Read the program once into position-based form.

    Zero coefficients are dropped, so a variable listed with
    coefficient 0 is not in its row.  Returns one entry per objective
    term, (coefficient, factor positions, rows): an x variable is its
    own single factor and has rows None; an auxiliary's rows are its
    own constraints that bound it on the side its coefficient pushes it
    to, each as (its coefficient, rhs, [(coefficient, x position)]).
    Also returns the rows that hold no auxiliary, each as (constraint
    number, limit, [(coefficient, x position)]), the limit being the
    rhs within the verifier's tolerance.  A coefficient or rhs
    that is not finite, or an objective whose absolute coefficients sum
    past the float range, raises ``ValueError``.
    """
    pos = {var: i for i, var in enumerate(program.x_vars)}

    def position(var: str, where: str) -> int:
        if var not in pos:
            raise ValueError(f"{where} names unknown variable {var!r}")
        return pos[var]

    def finite(value: float, what: str) -> None:
        if not math.isfinite(value):
            raise ValueError(f"{what} is not finite ({value})")

    for var, coeff in program.objective.items():
        finite(coeff, f"the objective coefficient of {var!r}")
    finite(_total(map(abs, program.objective.values())),
           "the objective's absolute coefficient sum")

    aux_rows: dict[str, list] = {z: [] for z in program.monomials}
    plain_rows = []
    for n, con in enumerate(program.constraints, start=1):
        finite(con.rhs, f"constraint {n}'s rhs")
        for var, c in con.coeffs.items():
            finite(c, f"constraint {n}'s coefficient of {var!r}")
        own = [(var, c) for var, c in con.coeffs.items()
               if c and var in aux_rows]
        xs = [(c, position(var, f"constraint {n}"))
              for var, c in con.coeffs.items()
              if c and var not in aux_rows]
        if not own:
            limit = con.rhs + _TOL * max(1.0, abs(con.rhs))
            plain_rows.append((n, limit, xs))
        elif len(own) == 1:
            (z, cz), = own
            aux_rows[z].append((cz, con.rhs, xs))
        else:
            raise ValueError(
                f"constraint {n} couples auxiliaries "
                f"{', '.join(z for z, _ in own)}; each must be bounded "
                "by x variables alone"
            )

    terms = []
    for var, coeff in program.objective.items():
        if var in aux_rows:
            factors = [position(f, f"{var}'s product")
                       for f in sorted(program.monomials[var])]
            side = [row for row in aux_rows[var]
                    if (row[0] > 0) == (coeff > 0)]
            terms.append((coeff, factors, side))
        else:
            terms.append((coeff, [position(var, "objective")], None))
    return terms, plain_rows


def verify_linearization(
    topo: Topology,
    demand: DemandSpec,
    program: LinearizedProgram | None = None,
) -> VerificationReport:
    """Exhaustively confirm the linearization is exact.

    Three checks over every binary assignment of the x variables: the
    linear objective with each auxiliary set to its defining product
    must equal the direct objective, within 1e-9 times the largest of
    1, the direct value and the pinned summands' magnitudes; the rows
    without an auxiliary must admit exactly the assignments that fit
    every store; and the maxima over those assignments must agree
    within a relative 1e-9 when each auxiliary instead ranges freely
    within its own rows.

    The rows are checked where a disagreement would first show
    (``_row_failures``, which refuses rows it cannot read so).
    The objective is checked block by block (``_blocks``): both
    objectives are sums over blocks, so each block's assignments are
    walked once with the others at 0 (``_tabulate``), and the optima
    combine the blocks' tables over store loads.  A falsy report names
    the first counterexample in product order, and ``checked`` is its
    position in that order, counting from 1, or 2^n.
    """
    walk, x_vars, keys, terms, limits, stores = _verification(
        topo, demand, program)
    # At each assignment the pointwise check comes first.
    failures = [(bits, _pinned_miss(walk, keys, terms, bits)[1] or message)
                for bits, message in _row_failures(
                    limits, stores, len(x_vars))]
    binding = [(cap, idx) for cap, idx in stores if cap < len(idx)]
    tables = []
    for where, own in _blocks(keys, terms):
        table, failure = _tabulate(walk, keys, where, own, binding)
        tables.append(table)
        if failure is not None:
            failures.append(failure)
    if failures:
        bits, message = min(failures)  # bit lists sort in product order
        position = sum(bit << k for k, bit in enumerate(reversed(bits)))
        return VerificationReport(
            False, position + 1, message, dict(zip(x_vars, bits)))

    # A program without variables or terms has no blocks and optima 0.
    best_direct, best_linear = _best_feasible(
        tables or [{(): (0.0, 0.0)}], [cap for cap, _ in binding])
    ok = abs(best_linear - best_direct) <= _TOL * max(1.0, abs(best_direct))
    return VerificationReport(ok, 2 ** len(x_vars), "" if ok else (
        f"optimum mismatch: linear {best_linear!r} vs direct "
        f"{best_direct!r}"))


def _verification(topo, demand, program):
    """Validate and read what the verifier needs: the tree walk, the x
    variables with their (content, node) keys, the indexed objective
    terms and plain rows, and each store as (capacity, [x positions])."""
    walk = _tree_walk(topo, demand)
    if program is None:
        program = _expand(topo, walk, False)
    # Guard on the program's own width: it may list zero-capacity
    # stores' variables, so it can be wider than the placement search.
    if len(program.x_vars) > ENUMERATION_LIMIT:
        raise InstanceTooLarge(
            f"program has {len(program.x_vars)} binary variables, "
            f"exceeding the exhaustive-search limit of "
            f"{ENUMERATION_LIMIT}"
        )
    terms, limits = _index_program(program)
    keys = [program.x_key[var] for var in program.x_vars]
    held: dict[NodeId, list[int]] = {}
    for i, (_, node) in enumerate(keys):
        held.setdefault(node, []).append(i)
    stores = [(topo.capacity[node], idx) for node, idx in held.items()]
    return walk, program.x_vars, keys, terms, limits, stores


def _total(values) -> float:
    """The left-to-right float sum, as the objective forms it."""
    total = 0.0
    for value in values:
        total += value
    return total


def _pinned(terms, bits) -> list[float]:
    """The pinned linear value's summands: each auxiliary is 1 exactly
    when all its factors are."""
    held = []
    for coeff, factors, _ in terms:
        for j in factors:
            if not bits[j]:
                break
        else:
            held.append(coeff)
    return held


def _free(terms, bits) -> list[float]:
    """The free linear value's summands: each auxiliary takes the bound
    of its own rows that its coefficient favours."""
    parts = []
    for coeff, factors, side in terms:
        if side is None:
            parts.append(coeff * bits[factors[0]])
            continue
        bounds = []
        for cz, rhs, xs in side:
            rest = 0
            for c, j in xs:
                rest += c * bits[j]
            bounds.append((rhs - rest) / cz)
        if coeff > 0:
            parts.append(coeff * min(bounds, default=math.inf))
        else:
            parts.append(coeff * max(bounds, default=-math.inf))
    return parts


def _pinned_miss(walk, keys, terms, bits):
    """The direct objective at ``bits``, and a message if the pinned
    linear value misses it, else "".  The pinned sum rounds with its
    summands, which stay large where copies cancel to a direct 0."""
    direct = _objective(
        walk, dict.fromkeys(itertools.compress(keys, bits), 1))
    pinned = _pinned(terms, bits)
    linear = _total(pinned)
    if abs(linear - direct) > _TOL * max(
            1.0, direct, _total(map(abs, pinned))):
        return direct, f"pinned objective {linear!r} != direct {direct!r}"
    return direct, ""


def _row_failures(limits, stores, width):
    """Assignments at which the rows without an auxiliary disagree with
    the store capacities, as (bits, message), among them the first such
    assignment in product order if there is one.

    Each row must repeat a store's capacity row (coefficient 1 on
    exactly its variables), hold at every assignment (integral
    coefficients, summed exactly, whose positive sum is within its
    limit) or reject the empty assignment, else ``ValueError``.  Then
    the first disagreement sets one store's last variables with the
    other stores empty, and only those assignments are tried.
    """
    stored = {tuple(idx) for _, idx in stores}
    for n, limit, xs in limits:
        repeat = (tuple(sorted(j for _, j in xs)) in stored
                  and all(c == 1 for c, _ in xs))
        holds = (all(float(c).is_integer() for c, _ in xs)
                 and sum(abs(c) for c, _ in xs) <= 2 ** 53
                 and sum(c for c, _ in xs if c > 0) <= limit)
        if not (repeat or holds or limit < 0):
            raise ValueError(
                f"constraint {n} neither repeats a store's capacity row, "
                "nor holds at every assignment, nor rejects the empty one"
            )
    failures = []
    for cap, idx in stores or [(0, [])]:  # the empty assignment, at least
        for load in range(len(idx) + 1):
            ones = idx[len(idx) - load:]
            bits = [int(i in ones) for i in range(width)]
            admitted = all(sum([c * bits[i] for c, i in xs]) <= limit
                           for _, limit, xs in limits)
            if admitted != (load <= cap):  # the other stores are empty
                failures.append((bits, "program rows " + (
                    "admit an assignment over" if admitted else
                    "reject an assignment within") + " the store capacities"))
    return failures


def _blocks(keys, terms):
    """The x positions grouped into blocks, each with its objective
    terms in program order: two contents share a block when a term,
    with the rows that bound it, reads both.  Terms that read no
    variable make a block without positions."""
    owner = [name for name, _ in keys]
    parent = {name: name for name in owner}

    def root(name):
        while parent[name] != name:
            name = parent[name]
        return name

    reads = [[owner[j] for j in factors]
             + [owner[j] for _, _, xs in side or () for _, j in xs]
             for _, factors, side in terms]
    for read in reads:
        for name in read[1:]:
            parent[root(name)] = root(read[0])
    blocks: dict[str | None, tuple[list[int], list]] = {}
    for i, name in enumerate(owner):
        blocks.setdefault(root(name), ([], []))[0].append(i)
    for term, read in zip(terms, reads):
        at = root(read[0]) if read else None
        blocks.setdefault(at, ([], []))[1].append(term)
    return list(blocks.values())


def _tabulate(walk, keys, where, terms, binding):
    """Walk every assignment of one block's x positions ``where`` in
    product order, the other positions at 0, making the pointwise check
    at each.  Returns the block's table, its best direct and free value
    per load on the binding stores, and its first failure as (bits,
    message), or None."""
    walk = (sorted({keys[i][0] for i in where}), *walk[1:])
    store_of = {i: k for k, (_, idx) in enumerate(binding) for i in idx}
    bits = [0] * len(keys)
    table: dict[tuple[int, ...], tuple[float, float]] = {}
    for choice in itertools.product((0, 1), repeat=len(where)):
        loads = [0] * len(binding)
        for i, bit in zip(where, choice):
            bits[i] = bit
            if i in store_of:
                loads[store_of[i]] += bit
        direct, miss = _pinned_miss(walk, keys, terms, bits)
        if miss:
            return table, (bits, miss)
        linear = _total(_free(terms, bits))
        key = tuple(loads)
        best = table.get(key, (direct, linear))
        table[key] = (max(best[0], direct), max(best[1], linear))
    return table, None


def _grow(states, steps, caps, join, pick):
    """Every state joined with every (loads, entry) step within ``caps``,
    keeping the ``pick`` of the entries that reach one load vector."""
    grown = {}
    for key, entry in states.items():
        for step, more in steps:
            loads = tuple(map(operator.add, key, step))
            if any(map(operator.gt, loads, caps)):
                continue
            new = join(entry, more)
            grown[loads] = pick(grown[loads], new) if loads in grown else new
    return grown


def _best_feasible(tables, caps, unit=(0.0, 0.0),
                   join=lambda a, b: (a[0] + b[0], a[1] + b[1]),
                   pick=lambda a, b: (max(a[0], b[0]), max(a[1], b[1]))):
    """The ``pick`` over every choice of one entry per table whose loads
    fit ``caps``, combined by ``join``, walking from ``unit`` at no load
    and keeping one entry per load vector; by default, the verifier's."""
    states = {(0,) * len(caps): unit}
    for table in tables[:-1]:
        states = _grow(states, table.items(), caps, join, pick)
    # The last table joins by lookup: per room left, the pick of its
    # entries that fit, a running best along each axis in turn.
    fits = dict(tables[-1])
    top = [max(col) for col in zip(*fits)]
    for j in range(len(top)):  # in product order, b's lower neighbour is done
        for b in itertools.product(*(range(t + 1) for t in top)):
            below = fits.get(b[:j] + (b[j] - 1,) + b[j + 1:]) if b[j] else None
            if below is not None:
                fits[b] = pick(fits[b], below) if b in fits else below
    return functools.reduce(pick, [
        join(entry, fits[tuple(map(min, map(operator.sub, caps, key), top))])
        for key, entry in states.items()
    ])
