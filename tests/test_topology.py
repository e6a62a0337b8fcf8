import pytest

from fransim.topology import (
    Capacities,
    Catalog,
    NodeRole,
    Topology,
    build_topology,
    distribute_fues,
)

CAPS = Capacities(bbu=8, fap=4, fue=2)


def test_paper_shape():
    topo = build_topology(5, [6] * 5, CAPS, d2d_enabled=True)
    assert len(topo.faps()) == 5
    assert len(topo.fues()) == 30
    assert topo.roles.count(NodeRole.BBU_POOL) == 1
    assert topo.roles.count(NodeRole.PRODUCER) == 1
    assert topo.d2d_enabled


def test_chain_hop_distances():
    topo = build_topology(1, [1], CAPS)
    assert len(topo) == 4
    assert topo.hop_from_core == [0, 1, 2, 3]


def test_two_fap_shape(two_fap_topo):
    topo = two_fap_topo
    b = topo.bbu()
    a1, a2 = topo.faps()
    assert topo.children(b) == [a1, a2]
    assert topo.labels[a1] == "fap1"
    assert topo.labels[topo.fues()[0]] == "fue1"


def test_children_inverts_parent():
    topo = build_topology(3, [2, 1, 3], CAPS)
    for node in range(len(topo)):
        for child in topo.children(node):
            assert topo.parent[child] == node
    for fue in topo.fues():
        assert topo.children(fue) == []


def test_hop_recurrence():
    topo = build_topology(4, [1, 2, 3, 4], CAPS)
    for node in range(len(topo)):
        parent = topo.parent[node]
        if parent is None:
            assert topo.hop_from_core[node] == 0
        else:
            assert topo.hop_from_core[node] == topo.hop_from_core[parent] + 1


def test_d2d_groups_partition_fues():
    topo = build_topology(3, [2, 3, 1], CAPS)
    seen = []
    for fap, size in zip(topo.faps(), [2, 3, 1]):
        group = topo.children(fap)
        assert len(group) == size
        seen.extend(group)
        assert {topo.parent[f] for f in group} == {fap}
    assert sorted(seen) == topo.fues()


def test_upstream_path():
    topo = build_topology(2, [1, 1], CAPS)
    u2 = topo.fues()[1]
    path = topo.upstream_path(u2)
    assert path[0] == u2
    assert path[-1] == topo.producer()
    assert [topo.roles[n] for n in path] == [
        NodeRole.FUE, NodeRole.FAP, NodeRole.BBU_POOL, NodeRole.PRODUCER,
    ]


def test_capacities_by_role():
    topo = build_topology(1, [1], Capacities(bbu=7, fap=3, fue=1))
    assert topo.capacity[topo.producer()] == 0
    assert topo.capacity[topo.bbu()] == 7
    assert topo.capacity[topo.faps()[0]] == 3
    assert topo.capacity[topo.fues()[0]] == 1


def test_build_is_pure():
    a = build_topology(2, [2, 1], CAPS, d2d_enabled=True)
    b = build_topology(2, [2, 1], CAPS, d2d_enabled=True)
    assert a.roles == b.roles
    assert a.parent == b.parent
    assert a.capacity == b.capacity
    assert a.labels == b.labels


def test_rejects_bad_tier_sizes():
    with pytest.raises(ValueError):
        build_topology(0, [], CAPS)
    with pytest.raises(ValueError):
        build_topology(2, [1, 0], CAPS)
    with pytest.raises(ValueError):
        build_topology(2, [1], CAPS)
    with pytest.raises(ValueError):
        Topology([], CAPS, False)
    with pytest.raises(ValueError):
        Topology([1, 0], CAPS, False)


def test_rejects_negative_capacity():
    with pytest.raises(ValueError):
        build_topology(1, [1], Capacities(bbu=-1, fap=0, fue=0))


def test_distribute_fues_even_spread():
    assert distribute_fues(30, 5) == [6, 6, 6, 6, 6]
    assert distribute_fues(7, 3) == [3, 2, 2]
    assert distribute_fues(5, 5) == [1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        distribute_fues(0, 3)


def test_catalog_names_and_order():
    catalog = Catalog(3)
    assert catalog.names == ["c1", "c2", "c3"]
    assert catalog.index == {"c1": 0, "c2": 1, "c3": 2}
    assert len(catalog) == 3
    with pytest.raises(ValueError):
        Catalog(0)
