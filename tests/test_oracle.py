import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fransim import oracle
from fransim.errors import InstanceTooLarge
from fransim.oracle import (
    Constraint,
    DemandSpec,
    LinearizedProgram,
    brute_force_optimal,
    caching_nodes,
    check_feasible,
    linearize,
    objective_value,
    propagate_rates,
    verify_linearization,
)
from fransim.topology import Capacities, NodeRole, build_topology

from _oracle_reference import scan, subset_search


@pytest.fixture
def open_topo():
    """Same shape as two_fap_topo but with room at the devices, so
    device placements are feasible."""
    return build_topology(2, [1, 1], Capacities(bbu=2, fap=1, fue=1))


def ids(topo):
    u1, u2 = topo.fues()
    a1, a2 = topo.faps()
    return topo.bbu(), a1, a2, u1, u2


# -- demand validation -------------------------------------------------

def test_demand_must_sit_at_devices(two_fap_topo):
    bad = DemandSpec({("c1", two_fap_topo.bbu()): 1.0})
    with pytest.raises(ValueError, match="not user equipment"):
        bad.validate(two_fap_topo)


def test_demand_whose_sums_overflow_is_rejected():
    topo = build_topology(1, [2], Capacities(bbu=1, fap=1, fue=1))
    u1, u2 = topo.fues()
    demand = DemandSpec({("c1", u1): 1e308, ("c1", u2): 1e308})
    with pytest.raises(ValueError, match="hop-weighted total is not finite"):
        demand.validate(topo)
    with pytest.raises(ValueError, match="not finite"):
        brute_force_optimal(topo, demand)
    # A total just inside the float range still evaluates finitely.
    demand = DemandSpec({("c1", u1): 1e307, ("c1", u2): 1e307})
    assert math.isfinite(brute_force_optimal(topo, demand)[1])


@pytest.mark.parametrize("name", ["", "  "])
def test_demand_needs_a_content_name(two_fap_topo, name):
    u1 = two_fap_topo.fues()[0]
    bad = DemandSpec({(name, u1): 1.0})
    with pytest.raises(ValueError, match="empty content name"):
        bad.validate(two_fap_topo)
    with pytest.raises(ValueError, match="empty content name"):
        brute_force_optimal(two_fap_topo, bad)


def test_demand_rates_must_be_nonnegative(two_fap_topo):
    u1 = two_fap_topo.fues()[0]
    bad = DemandSpec({("c1", u1): -0.5})
    with pytest.raises(ValueError, match="negative"):
        bad.validate(two_fap_topo)


@pytest.mark.parametrize("evaluator", [objective_value, propagate_rates])
@pytest.mark.parametrize("case", [
    "sums-overflow", "outside-the-tree", "access-point-as-device",
])
def test_public_evaluators_reject_invalid_demand(evaluator, case):
    topo = build_topology(1, [2], Capacities(bbu=1, fap=1, fue=1))
    u1, u2 = topo.fues()
    fap = topo.faps()[0]
    rates, placement, message = {
        "sums-overflow": (
            {("c1", u1): 1e308, ("c1", u2): 1e308},
            {("c1", fap): 1, ("c1", topo.bbu()): 1},
            "hop-weighted total is not finite",
        ),
        "outside-the-tree": (
            {("c1", u1): 1.0, ("c1", len(topo)): 1.0}, {},
            "not in the topology",
        ),
        "access-point-as-device": (
            {("c1", u1): 1.0, ("c1", fap): 1.0}, {}, "not user equipment",
        ),
    }[case]
    with pytest.raises(ValueError, match=message):
        evaluator(topo, DemandSpec(rates), placement)


def test_caching_nodes_excludes_producer(two_fap_topo):
    nodes = caching_nodes(two_fap_topo)
    assert two_fap_topo.producer() not in nodes
    assert len(nodes) == len(two_fap_topo) - 1


# -- feasibility --------------------------------------------------------

def test_placement_values_must_be_binary(two_fap_topo):
    u1 = two_fap_topo.fues()[0]
    with pytest.raises(ValueError, match="not binary"):
        check_feasible(two_fap_topo, {("c1", two_fap_topo.bbu()): 2})
    check_feasible(two_fap_topo, {("c1", u1): 0})  # a zero takes no room


def test_overfull_placement_names_the_node(two_fap_topo):
    a1 = two_fap_topo.faps()[0]
    placement = {("c1", a1): 1, ("c2", a1): 1}  # capacity is 1
    with pytest.raises(ValueError, match=f"node {a1} holds 2"):
        check_feasible(two_fap_topo, placement)


# -- demand propagation --------------------------------------------------

def test_empty_placement_passes_demand_through(two_fap_topo, unit_demand):
    b, a1, a2, u1, u2 = ids(two_fap_topo)
    rates = propagate_rates(two_fap_topo, unit_demand, {})
    assert rates[("c1", u1)] == 1.0
    assert rates[("c1", a1)] == 1.0
    assert rates[("c1", b)] == 1.0
    assert rates[("c1", a2)] == 0.0  # u2 never asks for c1
    assert rates[("c2", a2)] == 1.0


def test_device_copy_starves_the_whole_chain(open_topo):
    b, a1, a2, u1, u2 = ids(open_topo)
    demand = DemandSpec({("c1", u1): 1.0})
    rates = propagate_rates(open_topo, demand, {("c1", u1): 1})
    assert rates[("c1", u1)] == 0.0
    assert rates[("c1", a1)] == 0.0
    assert rates[("c1", b)] == 0.0


def test_access_point_copy_starves_only_upstream(two_fap_topo, unit_demand):
    b, a1, a2, u1, u2 = ids(two_fap_topo)
    rates = propagate_rates(two_fap_topo, unit_demand, {("c1", a1): 1})
    assert rates[("c1", a1)] == 1.0  # the copy still sees the demand
    assert rates[("c1", b)] == 0.0


def test_propagation_rejects_infeasible_placement(two_fap_topo, unit_demand):
    u1 = two_fap_topo.fues()[0]  # capacity 0
    with pytest.raises(ValueError, match="infeasible"):
        propagate_rates(two_fap_topo, unit_demand, {("c1", u1): 1})


def test_sibling_demands_sum_at_the_bbu(open_topo):
    b, a1, a2, u1, u2 = ids(open_topo)
    demand = DemandSpec({("c1", u1): 2.0, ("c1", u2): 3.0})
    rates = propagate_rates(open_topo, demand, {})
    assert rates[("c1", b)] == 5.0
    rates = propagate_rates(open_topo, demand, {("c1", a2): 1})
    assert rates[("c1", b)] == 2.0


# -- objective ------------------------------------------------------------

def test_empty_placement_scores_zero(two_fap_topo, unit_demand):
    assert objective_value(two_fap_topo, unit_demand, {}) == 0.0


def test_access_point_pair_scores_four(two_fap_topo, unit_demand):
    _, a1, a2, _, _ = ids(two_fap_topo)
    placement = {("c1", a1): 1, ("c2", a2): 1}
    assert objective_value(two_fap_topo, unit_demand, placement) == 4.0


def test_bbu_pair_scores_two(two_fap_topo, unit_demand):
    b = two_fap_topo.bbu()
    placement = {("c1", b): 1, ("c2", b): 1}
    assert objective_value(two_fap_topo, unit_demand, placement) == 2.0


def test_mixed_placement_sums_tier_values(two_fap_topo, unit_demand):
    b, a1, _, _, _ = ids(two_fap_topo)
    placement = {("c1", a1): 1, ("c2", b): 1}
    assert objective_value(two_fap_topo, unit_demand, placement) == 3.0


def test_shadowed_bbu_copy_adds_nothing(two_fap_topo, unit_demand):
    b, a1, a2, _, _ = ids(two_fap_topo)
    placement = {("c1", a1): 1, ("c1", b): 1, ("c2", a2): 1}
    assert objective_value(two_fap_topo, unit_demand, placement) == 4.0


def test_device_self_placement_contributes_zero(open_topo):
    b, a1, a2, u1, u2 = ids(open_topo)
    demand = DemandSpec({("c1", u1): 5.0})
    assert objective_value(open_topo, demand, {("c1", u1): 1}) == 0.0


# -- exhaustive search ------------------------------------------------------

def test_optimal_placement_prefers_edge_copies(two_fap_topo, unit_demand):
    _, a1, a2, _, _ = ids(two_fap_topo)
    placement, value = brute_force_optimal(two_fap_topo, unit_demand)
    assert value == 4.0
    assert placement == {("c1", a1): 1, ("c2", a2): 1}


def test_zero_demand_yields_empty_optimum(two_fap_topo):
    u1 = two_fap_topo.fues()[0]
    for demand in (DemandSpec({}), DemandSpec({("c1", u1): 0.0})):
        placement, value = brute_force_optimal(two_fap_topo, demand)
        assert value == 0.0
        assert placement == {}


def test_no_capacity_forces_empty_optimum():
    topo = build_topology(1, [1], Capacities(0, 0, 0))
    demand = DemandSpec({("c1", topo.fues()[0]): 1.0})
    placement, value = brute_force_optimal(topo, demand)
    assert placement == {}
    assert value == 0.0


def test_oversized_instance_is_refused():
    topo = build_topology(5, [1] * 5, Capacities(2, 1, 1))
    u = topo.fues()[0]
    demand = DemandSpec({(f"c{i}", u): 1.0 for i in range(1, 4)})
    # 3 contents x 11 stores = 33 variables
    with pytest.raises(InstanceTooLarge, match="limit of 24"):
        brute_force_optimal(topo, demand)


# Rates that are multiples of 1/64 add up exactly, so a value does not
# depend on summation order; the small pool makes equal rates, and with
# them tied optima, common.
RATES = st.integers(0, 6400).map(lambda k: k / 64) | st.sampled_from(
    [0.0, 1.0, 2.5]
)


@st.composite
def small_instances(draw, rates=RATES):
    """A tree of at most 2 F-APs x 2 devices and demand over at most 12
    placement variables (contents x stores with room)."""
    faps = draw(st.integers(1, 2))
    topo = build_topology(
        faps,
        draw(st.lists(st.integers(1, 2), min_size=faps, max_size=faps)),
        Capacities(*draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))),
    )
    stores = sum(1 for n in caching_nodes(topo) if topo.capacity[n] > 0)
    k = draw(st.integers(1, max(1, 12 // max(stores, 1))))
    demand = {}
    for c in range(1, k + 1):
        for fue in topo.fues():
            rate = draw(st.none() | rates)
            if rate is not None:
                demand[(f"c{c}", fue)] = rate
    return topo, DemandSpec(demand)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_brute_force_matches_a_naive_search(instance):
    topo, demand = instance
    nodes = [n for n in caching_nodes(topo) if topo.capacity[n] > 0]
    keys = [(name, node) for name in demand.contents() for node in nodes]
    assert len(keys) <= 12
    best = None
    for vec in itertools.product((0, 1), repeat=len(keys)):
        placement = {key: 1 for key, x in zip(keys, vec) if x}
        try:
            check_feasible(topo, placement)
        except ValueError:
            continue
        value = objective_value(topo, demand, placement)
        # Vectors come in ascending order, so a tie keeps the smaller.
        if best is None or value > best[0]:
            best = (value, placement)
    placement, value = brute_force_optimal(topo, demand)
    assert value == best[0]
    assert placement == best[1]


# Rate families for the solver property: dyadic rates sum exactly;
# k/7 and k/10 do not, and their small pools make near-ties common.
RATE_FAMILIES = [
    st.integers(0, 640).map(lambda k: k / 64),
    st.integers(0, 14).map(lambda k: k / 7),
    st.integers(0, 20).map(lambda k: k / 10),
    st.floats(0, 1e4),
]


def subset_search_size(topo, k):
    """Placements the reference enumerates for k contents."""
    size = 1
    for node in caching_nodes(topo):
        if topo.roles[node] is not NodeRole.FUE:
            size *= sum(math.comb(k, s)
                        for s in range(min(topo.capacity[node], k) + 1))
    return size


@st.composite
def solver_instances(draw):
    """A tree of 1-3 F-APs x 1-3 devices with capacities 0-3 and demand
    for 1-5 contents within the guard, from one rate family.  The
    content count is lowered until the reference's search stays small."""
    faps = draw(st.integers(1, 3))
    topo = build_topology(
        faps,
        draw(st.lists(st.integers(1, 3), min_size=faps, max_size=faps)),
        Capacities(*draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))),
    )
    stores = sum(1 for n in caching_nodes(topo) if topo.capacity[n] > 0)
    k = draw(st.integers(1, 5))
    while k > 1 and (k * stores > oracle.ENUMERATION_LIMIT
                     or subset_search_size(topo, k) > 4096):
        k -= 1
    rates = draw(st.sampled_from(RATE_FAMILIES))
    demand = {}
    for c in range(1, k + 1):
        for fue in topo.fues():
            rate = draw(st.none() | rates)
            if rate is not None:
                demand[(f"c{c}", fue)] = rate
    return topo, DemandSpec(demand)


@settings(max_examples=200, deadline=None)
@given(solver_instances())
def test_solver_matches_the_subset_search(instance):
    topo, demand = instance
    placement, value = brute_force_optimal(topo, demand)
    expected, best = subset_search(topo, demand)
    assert list(placement.items()) == list(expected.items())
    assert repr(value) == repr(best)


def counted(monkeypatch, names, cap):
    """Patch each named oracle function to count its calls in the list
    returned, raising once they pass ``cap`` together."""
    calls = [0]
    for name in names:
        def counting(*args, _real=getattr(oracle, name)):
            calls[0] += 1
            if calls[0] > cap:
                raise AssertionError(f"more than {cap} evaluator calls")
            return _real(*args)
        monkeypatch.setattr(oracle, name, counting)
    return calls


def worst_shapes(rate):
    """The guard's worst shapes, each as (topology, demand, the optimal
    placement that its demand makes plain)."""
    # 12 contents at the BBU and one F-AP, devices without room: every
    # content goes to the F-AP, where it earns twice its rate.
    topo = build_topology(1, [1], Capacities(bbu=12, fap=12, fue=0))
    (a,), (u,) = topo.faps(), topo.fues()
    demand = {(f"c{c:02d}", u): rate(c) for c in range(1, 13)}
    yield topo, demand, {(name, a): 1 for name, _ in demand}
    # One content over the BBU and 23 F-APs: every F-AP takes it, and a
    # BBU copy would add nothing.
    topo = build_topology(23, [1] * 23, Capacities(bbu=1, fap=1, fue=0))
    demand = {("c1", u): rate(k) for k, u in enumerate(topo.fues(), 1)}
    yield topo, demand, {("c1", a): 1 for a in topo.faps()}
    # Two contents over the BBU and 11 F-APs, room for one everywhere:
    # c1 wins the first 6 F-APs and c2 the other 5, and the BBU takes
    # c2, whose demand left for it (rates 1-6) beats c1's (rates 1-5).
    topo = build_topology(11, [1] * 11, Capacities(bbu=1, fap=1, fue=0))
    demand = {}
    for k, u in enumerate(topo.fues()):
        demand[("c1", u)] = rate(12 + k if k < 6 else k - 5)
        demand[("c2", u)] = rate(6 - k if k < 6 else 12 + k)
    placement = {("c2", topo.bbu()): 1}
    for k, a in enumerate(topo.faps()):
        placement[("c1" if k < 6 else "c2", a)] = 1
    yield topo, demand, placement


WORST_SHAPES = ["12-contents", "24-stores", "2x12-stores"]
RATE_KINDS = {"integer": float, "tenths": lambda k: k / 10}


@pytest.mark.parametrize("shape", range(3), ids=WORST_SHAPES)
@pytest.mark.parametrize("rate", RATE_KINDS.values(), ids=RATE_KINDS)
def test_the_worst_shapes_take_few_evaluations(monkeypatch, shape, rate):
    # The subset search evaluated 4^12, 2^24 and 3^12 placements here.
    topo, rates, expected = list(worst_shapes(rate))[shape]
    demand = DemandSpec(rates)
    value = objective_value(topo, demand, expected)
    calls = counted(monkeypatch, ["_objective", "_earnings"], 2 * 2 ** 12)
    placement, best = brute_force_optimal(topo, demand)
    assert 0 < calls[0] <= 2 * 2 ** 12
    assert sorted(placement) == sorted(expected)
    assert best == pytest.approx(value, rel=1e-12)


def test_rates_near_the_float_limit_keep_few_finalists(monkeypatch):
    # Floats this large are integers but their sums round, so the walk
    # keeps candidates within a slack, which must itself stay finite.
    topo = build_topology(1, [1], Capacities(bbu=6, fap=6, fue=0))
    (a,), (u,) = topo.faps(), topo.fues()
    demand = DemandSpec({(f"c{c:02d}", u): c * 3.1e305 for c in range(1, 13)})
    calls = counted(monkeypatch, ["_objective", "_earnings"], 2 * 2 ** 12)
    placement, best = brute_force_optimal(topo, demand)
    assert calls[0] <= 2 * 2 ** 12
    assert math.isfinite(best)
    assert sorted(placement) == sorted(
        [(f"c{c:02d}", a) for c in range(7, 13)]
        + [(f"c{c:02d}", topo.bbu()) for c in range(1, 7)])


@pytest.mark.parametrize("shape", range(3), ids=WORST_SHAPES)
def test_the_worst_shapes_take_few_walk_steps(monkeypatch, shape):
    topo, rates, _ = list(worst_shapes(float))[shape]
    real, steps = oracle._grow, [0]

    def grow(states, moves, *rest):
        moves = list(moves)
        steps[0] += len(states) * len(moves)
        return real(states, moves, *rest)

    monkeypatch.setattr(oracle, "_grow", grow)
    brute_force_optimal(topo, DemandSpec(rates))
    assert steps[0] <= 2 ** 16


def random_feasible_placement(rng, topo, contents):
    placement = {}
    for node in caching_nodes(topo):
        cap = topo.capacity[node]
        if cap == 0:
            continue
        k = rng.integers(0, min(cap, len(contents)) + 1)
        for name in rng.choice(contents, size=k, replace=False):
            placement[(name, node)] = 1
    return placement


def test_no_feasible_placement_beats_the_optimum(open_topo):
    b, a1, a2, u1, u2 = ids(open_topo)
    rng = np.random.default_rng(7)
    demand = DemandSpec({
        ("c1", u1): 1.5, ("c2", u1): 0.25,
        ("c1", u2): 0.5, ("c2", u2): 2.0,
    })
    _, best = brute_force_optimal(open_topo, demand)
    contents = demand.contents()
    for _ in range(200):
        placement = random_feasible_placement(rng, open_topo, contents)
        value = objective_value(open_topo, demand, placement)
        assert value <= best + 1e-12


def test_demand_scaling_scales_value_and_keeps_argmax(open_topo):
    b, a1, a2, u1, u2 = ids(open_topo)
    demand = DemandSpec({("c1", u1): 1.25, ("c2", u2): 0.75})
    scaled = DemandSpec({k: 3.7 * v for k, v in demand.base_rate.items()})
    place_a, value_a = brute_force_optimal(open_topo, demand)
    place_b, value_b = brute_force_optimal(open_topo, scaled)
    assert place_a == place_b
    assert value_b == pytest.approx(3.7 * value_a, rel=1e-12)


def test_dropping_device_placements_never_hurts(open_topo):
    rng = np.random.default_rng(13)
    b, a1, a2, u1, u2 = ids(open_topo)
    demand = DemandSpec({
        ("c1", u1): 2.0, ("c2", u1): 1.0,
        ("c1", u2): 0.5, ("c2", u2): 1.5,
    })
    fues = set(open_topo.fues())
    contents = demand.contents()
    for _ in range(100):
        placement = random_feasible_placement(rng, open_topo, contents)
        stripped = {
            key: x for key, x in placement.items() if key[1] not in fues
        }
        full = objective_value(open_topo, demand, placement)
        bare = objective_value(open_topo, demand, stripped)
        assert full <= bare


@st.composite
def placed_instances(draw):
    """A tree of 1-3 F-APs x 1-3 devices with room at every tier, demand
    at arbitrary finite non-negative rates, and a feasible placement
    that may hold device copies."""
    faps = draw(st.integers(1, 3))
    topo = build_topology(
        faps,
        draw(st.lists(st.integers(1, 3), min_size=faps, max_size=faps)),
        Capacities(*draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))),
    )
    contents = [f"c{c}" for c in range(1, draw(st.integers(1, 3)) + 1)]
    rates = st.floats(0, 1e300, allow_subnormal=True)
    demand = {(name, fue): draw(rates)
              for name in contents for fue in topo.fues()}
    placement = {}
    for node in caching_nodes(topo):
        room = min(topo.capacity[node], len(contents))
        for name in draw(st.lists(st.sampled_from(contents), max_size=room,
                                  unique=True)):
            placement[(name, node)] = 1
    return topo, DemandSpec(demand), placement


@settings(max_examples=200, deadline=None)
@given(placed_instances())
def test_dropping_device_copies_never_lowers_the_value(instance):
    # brute_force_optimal searches no device store on the strength of
    # this exact inequality, so it holds without slack.
    topo, demand, placement = instance
    fues = set(topo.fues())
    stripped = {key: x for key, x in placement.items() if key[1] not in fues}
    full = objective_value(topo, demand, placement)
    bare = objective_value(topo, demand, stripped)
    assert full <= bare


# -- zero-one linearization ---------------------------------------------

def xname(name, label):
    return f"x[{name},{label}]"


def test_linearized_variables_cover_the_caching_nodes(
    two_fap_topo, unit_demand
):
    prog = linearize(two_fap_topo, unit_demand)
    assert len(prog.x_vars) == 10  # 2 contents x 5 stores
    assert xname("c1", "bbu") in prog.x_vars
    assert xname("c2", "fue2") in prog.x_vars
    assert prog.x_key[xname("c1", "fap1")] == ("c1", two_fap_topo.faps()[0])


def test_auxiliaries_match_the_product_terms(two_fap_topo, unit_demand):
    prog = linearize(two_fap_topo, unit_demand)
    assert len(prog.z_vars) == 8
    per_content = {
        name: sorted(
            tuple(sorted(prog.monomials[z]))
            for z in prog.z_vars
            if any(f"[{name}," in var for var in prog.monomials[z])
        )
        for name in ("c1", "c2")
    }
    expected_c1 = sorted([
        (xname("c1", "fap1"), xname("c1", "fue1")),
        (xname("c1", "bbu"), xname("c1", "fap1")),
        (xname("c1", "bbu"), xname("c1", "fue1")),
        (xname("c1", "bbu"), xname("c1", "fap1"), xname("c1", "fue1")),
    ])
    assert per_content["c1"] == expected_c1
    assert len(per_content["c2"]) == 4


def test_linear_coefficients_follow_hop_weights(two_fap_topo, unit_demand):
    prog = linearize(two_fap_topo, unit_demand)
    assert prog.objective[xname("c1", "fap1")] == 2.0
    assert prog.objective[xname("c1", "bbu")] == 1.0
    by_monomial = {
        tuple(sorted(prog.monomials[z])): prog.objective[z]
        for z in prog.z_vars
    }
    assert by_monomial[
        (xname("c1", "fap1"), xname("c1", "fue1"))
    ] == -2.0
    assert by_monomial[
        (xname("c1", "bbu"), xname("c1", "fap1"), xname("c1", "fue1"))
    ] == 1.0


def test_every_auxiliary_carries_full_bounds(two_fap_topo, unit_demand):
    prog = linearize(two_fap_topo, unit_demand)
    for z in prog.z_vars:
        factors = prog.monomials[z]
        uppers = [
            c for c in prog.constraints
            if c.coeffs.get(z) == 1.0 and len(c.coeffs) == 2
        ]
        assert {next(v for v in c.coeffs if v != z) for c in uppers} == set(
            factors
        )
        lower = [
            c for c in prog.constraints
            if c.coeffs.get(z) == -1.0 and len(c.coeffs) == len(factors) + 1
        ]
        assert len(lower) == 1
        assert lower[0].rhs == len(factors) - 1.0
        assert any(
            c.coeffs == {z: -1.0} and c.rhs == 0.0 for c in prog.constraints
        )


def test_capacity_constraints_carried_over(two_fap_topo, unit_demand):
    prog = linearize(two_fap_topo, unit_demand)
    cap_cons = [
        c for c in prog.constraints
        if all(v in prog.x_vars for v in c.coeffs)
    ]
    assert len(cap_cons) == 5
    bbu_con = next(
        c for c in cap_cons if xname("c1", "bbu") in c.coeffs
    )
    assert bbu_con.rhs == 2.0
    assert set(bbu_con.coeffs) == {xname("c1", "bbu"), xname("c2", "bbu")}


def test_zero_capacity_stores_can_be_pre_substituted(
    two_fap_topo, unit_demand
):
    prog = linearize(two_fap_topo, unit_demand, drop_zero_capacity=True)
    assert len(prog.x_vars) == 6
    assert not any("fue" in var for var in prog.x_vars)
    assert len(prog.z_vars) == 2  # only the fap x bbu products survive
    for z in prog.z_vars:
        assert len(prog.monomials[z]) == 2
        assert not any("fue" in var for var in prog.monomials[z])


def reference_linearize(topo, demand, *, drop_zero_capacity=False):
    """The objective's product linearization with every term of the
    expansion written out by hand: an access-point copy thinned by its
    device's copy, a BBU copy thinned by both lower copies."""
    demand.validate(topo)
    contents = demand.contents()
    bbu = topo.bbu()
    hop = topo.hop_from_core
    h_bbu = hop[bbu]

    def keep(node):
        return not drop_zero_capacity or topo.capacity[node] > 0

    coeffs = {}

    def add(term, coeff):
        coeffs[term] = coeffs.get(term, 0.0) + coeff

    for name in contents:
        xb = xname(name, topo.labels[bbu])
        for fue in topo.fues():
            rate = demand.base_rate.get((name, fue), 0.0)
            if rate == 0.0:
                continue
            fap = topo.parent[fue]
            xu = xname(name, topo.labels[fue])
            xa = xname(name, topo.labels[fap])
            ok_u, ok_a, ok_b = keep(fue), keep(fap), keep(bbu)
            h_fap = hop[fap]
            if ok_a:
                add(frozenset([xa]), h_fap * rate)
                if ok_u:
                    add(frozenset([xa, xu]), -h_fap * rate)
            if ok_b:
                add(frozenset([xb]), h_bbu * rate)
                if ok_a:
                    add(frozenset([xa, xb]), -h_bbu * rate)
                if ok_u:
                    add(frozenset([xu, xb]), -h_bbu * rate)
                if ok_a and ok_u:
                    add(frozenset([xu, xa, xb]), h_bbu * rate)

    x_vars, x_key = [], {}
    for name in contents:
        for node in caching_nodes(topo):
            if keep(node):
                var = xname(name, topo.labels[node])
                x_vars.append(var)
                x_key[var] = (name, node)

    objective, monomials, z_vars, constraints = {}, {}, [], []
    for term, coeff in coeffs.items():
        if coeff == 0.0:
            continue
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
    for node in caching_nodes(topo):
        if keep(node):
            constraints.append(Constraint(
                {xname(name, topo.labels[node]): 1.0 for name in contents},
                float(topo.capacity[node]),
            ))
    return LinearizedProgram(
        x_vars, z_vars, x_key, monomials, objective, constraints
    )


@st.composite
def linearizable_instances(draw):
    """Trees of 1-3 F-APs x 1-3 devices with capacities 0-2, and demand
    over 1-4 contents with zero, tied and arbitrary rates."""
    faps = draw(st.integers(1, 3))
    topo = build_topology(
        faps,
        draw(st.lists(st.integers(1, 3), min_size=faps, max_size=faps)),
        Capacities(*draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))),
    )
    rates = st.none() | RATES | st.floats(0, 1e6)
    demand = {}
    for c in range(1, draw(st.integers(1, 4)) + 1):
        for fue in topo.fues():
            rate = draw(rates)
            if rate is not None:
                demand[(f"c{c}", fue)] = rate
    return topo, DemandSpec(demand)


@settings(max_examples=150, deadline=None)
@given(linearizable_instances())
def test_linearize_matches_the_written_out_expansion(instance):
    topo, demand = instance
    for drop in (False, True):
        shipped = linearize(topo, demand, drop_zero_capacity=drop)
        reference = reference_linearize(topo, demand, drop_zero_capacity=drop)
        assert shipped.to_text().encode() == reference.to_text().encode()
        assert list(shipped.objective.items()) == list(
            reference.objective.items()
        )
        assert shipped.x_vars == reference.x_vars
        assert shipped.x_key == reference.x_key
        assert shipped.z_vars == reference.z_vars
        assert shipped.monomials == reference.monomials
        assert shipped.constraints == reference.constraints


def test_chain_expansion_has_three_pair_terms_and_one_triple():
    # One content on one branch: the bbu term is thinned by both lower
    # stores, so the expansion needs every pairing plus the full triple.
    topo = build_topology(1, [1], Capacities(2, 1, 1))
    demand = DemandSpec({("c1", topo.fues()[0]): 1.0})
    prog = linearize(topo, demand)
    degrees = sorted(len(prog.monomials[z]) for z in prog.z_vars)
    assert degrees == [2, 2, 2, 3]
    factor_sets = {tuple(sorted(prog.monomials[z])) for z in prog.z_vars}
    assert factor_sets == {
        (xname("c1", "fap1"), xname("c1", "fue1")),
        (xname("c1", "bbu"), xname("c1", "fap1")),
        (xname("c1", "bbu"), xname("c1", "fue1")),
        (xname("c1", "bbu"), xname("c1", "fap1"), xname("c1", "fue1")),
    }


def test_program_renders_as_text(two_fap_topo, unit_demand):
    text = linearize(two_fap_topo, unit_demand).to_text()
    assert text.startswith("maximize:")
    assert "subject to:" in text
    assert "+2 x[c1,fap1]" in text
    assert "# z1 stands for" in text
    assert text.splitlines()[-1].startswith("binary: ")


def test_zero_rate_demand_linearizes_to_constant_zero(two_fap_topo):
    u1 = two_fap_topo.fues()[0]
    prog = linearize(two_fap_topo, DemandSpec({("c1", u1): 0.0}))
    assert prog.z_vars == []
    assert prog.objective == {}


# -- linearization verification ----------------------------------------

def test_linearization_is_exact_on_the_reference_instance(
    two_fap_topo, unit_demand
):
    report = verify_linearization(two_fap_topo, unit_demand)
    assert report
    assert report.ok
    assert report.checked == 2 ** 10
    assert report.counterexample is None


def test_pre_substituted_program_verifies_over_fewer_points(
    two_fap_topo, unit_demand
):
    prog = linearize(two_fap_topo, unit_demand, drop_zero_capacity=True)
    report = verify_linearization(two_fap_topo, unit_demand, prog)
    assert report.ok
    assert report.checked == 2 ** 6


def test_zero_demand_verifies_trivially(two_fap_topo):
    report = verify_linearization(two_fap_topo, DemandSpec({}))
    assert report.ok


def test_verifier_is_exact_on_uneven_demand(open_topo):
    b, a1, a2, u1, u2 = ids(open_topo)
    demand = DemandSpec({
        ("c1", u1): 2.0, ("c1", u2): 0.5, ("c2", u2): 1.0,
    })
    report = verify_linearization(open_topo, demand)
    assert report.ok


def test_verifier_refuses_programs_too_wide_to_enumerate():
    # 4 contents over a 7-store tree: only 12 variables sit at stores
    # with capacity, but the full program lists 28, so enumerating it
    # must be refused rather than attempted.
    topo = build_topology(2, [2, 2], Capacities(bbu=4, fap=2, fue=0))
    fues = topo.fues()
    demand = DemandSpec({
        (f"c{i}", fue): 1.0 for i, fue in enumerate(fues, start=1)
    })
    with pytest.raises(InstanceTooLarge, match="28 binary variables"):
        verify_linearization(topo, demand)
    compact = linearize(topo, demand, drop_zero_capacity=True)
    report = verify_linearization(topo, demand, compact)
    assert report.ok
    assert report.checked == 2 ** 12


def test_missing_lower_bound_is_caught(two_fap_topo, unit_demand):
    prog = linearize(two_fap_topo, unit_demand)
    z = next(
        z for z in prog.z_vars
        if prog.objective[z] < 0
        and any("fue" in var for var in prog.monomials[z])
        and len(prog.monomials[z]) == 2
    )
    kept = [c for c in prog.constraints if c.coeffs != {z: -1.0}]
    assert len(kept) == len(prog.constraints) - 1
    broken = replace(prog, constraints=kept)
    report = verify_linearization(two_fap_topo, unit_demand, broken)
    assert not report
    assert "optimum mismatch" in report.message


def test_wrong_coefficient_yields_a_counterexample(
    two_fap_topo, unit_demand
):
    prog = linearize(two_fap_topo, unit_demand)
    prog.objective[prog.z_vars[0]] = 0.0
    report = verify_linearization(two_fap_topo, unit_demand, prog)
    assert not report.ok
    assert report.counterexample is not None
    assert "pinned objective" in report.message


def test_pinned_and_direct_agree_pointwise_by_hand(open_topo):
    # independent spot check of one assignment on the open instance
    b, a1, a2, u1, u2 = ids(open_topo)
    demand = DemandSpec({("c1", u1): 1.0})
    prog = linearize(open_topo, demand)
    x_val = {var: 0 for var in prog.x_vars}
    x_val[xname("c1", "bbu")] = 1
    x_val[xname("c1", "fue1")] = 1
    pinned = dict(x_val)
    for z, factors in prog.monomials.items():
        pinned[z] = int(all(x_val[f] for f in factors))
    linear = sum(
        coeff * pinned[var] for var, coeff in prog.objective.items()
    )
    placement = {prog.x_key[var]: v for var, v in x_val.items()}
    # direct: device copy kills the chain, so the bbu copy earns 0
    assert objective_value(open_topo, demand, placement) == 0.0
    assert linear == pytest.approx(0.0)


@pytest.mark.parametrize("caps, rate", [
    ((4, 4, 4), float),
    ((2, 2, 1), float),
    ((4, 4, 4), lambda k: k * 1000 / 7),
    ((2, 2, 1), lambda k: k * 1000 / 7),
], ids=["roomy", "binding", "roomy-k*1000/7", "binding-k*1000/7"])
def test_the_widest_program_the_guard_admits_verifies(caps, rate):
    # 4 contents over 6 stores: 24 variables, 2^24 assignments.
    topo = build_topology(2, [1, 2], Capacities(*caps))
    fues = topo.fues()
    demand = DemandSpec({
        (f"c{c}", fue): rate(1 + (7 * c + 3 * k) % 20)
        for c in range(1, 5) for k, fue in enumerate(fues)
    })
    report = verify_linearization(topo, demand)
    assert report.ok
    assert report.checked == 2 ** 24
    placement, value = brute_force_optimal(topo, demand)
    assert not any(node in fues for _, node in placement)
    assert value == objective_value(topo, demand, placement)


# -- the verifier reads the program's rows ------------------------------

@pytest.fixture
def unit_store_topo():
    """2 F-APs x 1 device with room for one content in every store."""
    return build_topology(2, [1, 1], Capacities(bbu=1, fap=1, fue=1))


@pytest.fixture
def split_demand(unit_store_topo):
    u1, u2 = unit_store_topo.fues()
    return DemandSpec({("c1", u1): 1.0, ("c1", u2): 2.0, ("c2", u2): 1.5})


@pytest.mark.parametrize("mutate, verdict", [
    (lambda con: None, "admit"),
    (lambda con: Constraint(con.coeffs, con.rhs + 5), "admit"),
    (lambda con: Constraint(con.coeffs, con.rhs - 1), "reject"),
], ids=["dropped", "loosened", "tightened"])
def test_capacity_rows_must_match_the_stores(
    unit_store_topo, split_demand, mutate, verdict
):
    prog = linearize(unit_store_topo, split_demand)
    assert len(prog.constraints) == 56
    rows = []
    for con in prog.constraints:
        if all(var in prog.x_key for var in con.coeffs):  # a capacity row
            con = mutate(con)
        if con is not None:
            rows.append(con)
    report = verify_linearization(
        unit_store_topo, split_demand, replace(prog, constraints=rows)
    )
    assert not report
    assert report.message.startswith(f"program rows {verdict}")
    placement = {
        prog.x_key[var]: x for var, x in report.counterexample.items()
    }
    if verdict == "admit":
        with pytest.raises(ValueError, match="infeasible"):
            check_feasible(unit_store_topo, placement)
    else:
        check_feasible(unit_store_topo, placement)


def test_scaled_auxiliary_rows_still_verify(unit_store_topo, split_demand):
    prog = linearize(unit_store_topo, split_demand)
    z = prog.z_vars[0]
    rows = [
        Constraint({v: 2 * c for v, c in con.coeffs.items()}, 2 * con.rhs)
        if z in con.coeffs else con
        for con in prog.constraints
    ]
    assert any(con.coeffs.get(z) == 2.0 for con in rows)  # 2z - 2x <= 0
    report = verify_linearization(
        unit_store_topo, split_demand, replace(prog, constraints=rows)
    )
    assert report.ok
    assert report.checked == 2 ** 10


def test_auxiliary_listed_with_zero_coefficient_is_ignored(
    unit_store_topo, split_demand
):
    prog = linearize(unit_store_topo, split_demand)
    z1, z2 = prog.z_vars[:2]
    rows = [
        Constraint({**con.coeffs, z2: 0.0}, con.rhs)
        if z1 in con.coeffs else con
        for con in prog.constraints
    ]
    rows.append(Constraint({z1: 0.0}, 0.0))
    report = verify_linearization(
        unit_store_topo, split_demand, replace(prog, constraints=rows)
    )
    assert report.ok
    assert report.checked == 2 ** 10


def test_missing_upper_bounds_are_caught(unit_store_topo, split_demand):
    prog = linearize(unit_store_topo, split_demand)
    z = next(z for z in prog.z_vars if prog.objective[z] > 0)
    rows = [con for con in prog.constraints if con.coeffs.get(z, 0) <= 0]
    assert len(rows) == len(prog.constraints) - len(prog.monomials[z])
    report = verify_linearization(
        unit_store_topo, split_demand, replace(prog, constraints=rows)
    )
    assert not report
    assert "optimum mismatch" in report.message


@pytest.mark.parametrize("extra, match", [
    (lambda z1, z2: Constraint({z1: 1.0, z2: 1.0}, 1.0), "couples"),
    (lambda z1, z2: Constraint({"x[c9,bbu]": 1.0}, 1.0), "names unknown"),
    (lambda z1, z2: Constraint({"x[c1,bbu]": 2.0, "x[c2,bbu]": 2.0}, 2.0),
     "neither repeats a store's capacity row"),
], ids=["coupled", "unknown", "scaled-capacity"])
def test_rows_the_verifier_cannot_read_are_refused(
    unit_store_topo, split_demand, extra, match
):
    prog = linearize(unit_store_topo, split_demand)
    rows = prog.constraints + [extra(*prog.z_vars[:2])]
    with pytest.raises(ValueError, match=f"constraint {len(rows)} {match}"):
        verify_linearization(
            unit_store_topo, split_demand, replace(prog, constraints=rows)
        )


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("place", ["objective", "row", "rhs"])
def test_non_finite_programs_are_refused(
    unit_store_topo, split_demand, place, value
):
    prog = linearize(unit_store_topo, split_demand)
    z = prog.z_vars[0]
    con = prog.constraints[0]
    assert z in con.coeffs
    match = {
        "objective": f"the objective coefficient of '{z}' is not finite",
        "row": f"constraint 1's coefficient of '{z}' is not finite",
        "rhs": "constraint 1's rhs is not finite",
    }[place]
    if place == "objective":
        prog.objective[z] = value
    else:
        prog.constraints[0] = (
            Constraint({**con.coeffs, z: value}, con.rhs)
            if place == "row" else Constraint(con.coeffs, value)
        )
    with pytest.raises(ValueError, match=match):
        verify_linearization(unit_store_topo, split_demand, prog)


def test_an_objective_whose_coefficients_overflow_is_refused(
    unit_store_topo, split_demand
):
    prog = linearize(unit_store_topo, split_demand)
    for var in prog.z_vars[:2]:
        prog.objective[var] = 1e308
    with pytest.raises(ValueError, match="absolute coefficient sum is not"):
        verify_linearization(unit_store_topo, split_demand, prog)


# -- the content-wise verifier agrees with the scan -----------------------

def program_mutations(prog):
    """Named variants of a program: an objective coefficient changed, an
    auxiliary's bound dropped, a capacity row loosened, tightened or
    dropped, and a row tying an auxiliary to another content."""
    variants = {"unchanged": prog}
    if prog.objective:
        var = sorted(prog.objective)[0]
        objective = dict(prog.objective)
        objective[var] += 1.0
        variants["coefficient"] = replace(prog, objective=objective)
    caps = [n for n, con in enumerate(prog.constraints)
            if all(var in prog.x_key for var in con.coeffs)]
    bounds = [n for n in range(len(prog.constraints)) if n not in caps]
    if bounds:
        n = bounds[len(bounds) // 2]
        variants["bound-dropped"] = replace(
            prog, constraints=prog.constraints[:n] + prog.constraints[n + 1:]
        )
    if caps:
        n = caps[0]
        con = prog.constraints[n]
        for kind, row in (
            ("capacity-loosened", Constraint(con.coeffs, con.rhs + 1)),
            ("capacity-tightened", Constraint(con.coeffs, con.rhs - 1)),
            ("capacity-dropped", None),
        ):
            rows = list(prog.constraints)
            rows[n:n + 1] = [] if row is None else [row]
            variants[kind] = replace(prog, constraints=rows)
    for z in prog.z_vars:
        name = prog.x_key[min(prog.monomials[z])][0]
        other = next((var for var in prog.x_vars
                      if prog.x_key[var][0] != name), None)
        if other is not None:
            # On the side the auxiliary's coefficient favours, so the
            # free maximum reads it.
            sign = 1.0 if prog.objective[z] > 0 else -1.0
            extra = Constraint({z: sign, other: -sign}, 0.0)
            variants["spanning"] = replace(
                prog, constraints=prog.constraints + [extra]
            )
            break
    return variants


def optimum_numbers(message):
    """The two values an ``optimum mismatch`` message names, or None."""
    prefix = "optimum mismatch: linear "
    if not message.startswith(prefix):
        return None
    linear, direct = message[len(prefix):].split(" vs direct ")
    return float(linear), float(direct)


@settings(max_examples=60, deadline=None)
@given(small_instances() | small_instances(st.floats(0, 1e4)))
def test_content_wise_verifier_reports_what_the_scan_reports(instance):
    # Dyadic rates sum exactly; float rates round.
    topo, demand = instance
    for drop in (False, True):
        prog = linearize(topo, demand, drop_zero_capacity=drop)
        if len(prog.x_vars) > 12:
            continue  # keeps the scan's 2^n within a test's time
        for kind, variant in program_mutations(prog).items():
            fast = verify_linearization(topo, demand, variant)
            slow = scan(topo, demand, variant)
            assert (fast.ok, fast.checked, fast.counterexample) == (
                slow.ok, slow.checked, slow.counterexample), kind
            # The block sums associate differently from the scan's, so
            # the optima it names may differ in their last digits.
            numbers = optimum_numbers(fast.message)
            if numbers is None:
                assert fast.message == slow.message, kind
            else:
                assert numbers == pytest.approx(
                    optimum_numbers(slow.message), rel=1e-12, abs=0), kind
            if kind == "spanning":
                _, _, keys, terms, _, _ = oracle._verification(
                    topo, demand, variant)
                assert any(len({keys[i][0] for i in where}) == 2
                           for where, _ in oracle._blocks(keys, terms))
