import _ndn as ndn
from _ndn import APP, DataPacket, InterestPacket, Node, make_policy
from fransim.policies import PolicyConfig
from fransim.topology import NodeRole


def make_node(role=NodeRole.FAP, capacity=2, policy="fifo", upstream=1):
    return Node(5, role, upstream, capacity, make_policy(policy, PolicyConfig()))


def put(node, name, stamp, fetch_hops=1):
    """Install content via the normal data path."""
    node.pit[name] = [APP]
    node.handle_data(DataPacket(name, fetch_hops), float(stamp), stamp)


def test_cs_hit_serves_locally():
    node = make_node()
    put(node, "c1", 1)
    kind, info = node.handle_interest(InterestPacket("c1"), 7, 2.0, 2)
    assert kind == ndn.SERVE_FROM_CS
    assert info is None
    assert node.cs.entries["c1"].last_used_at == 2


def test_miss_forwards_upstream_and_opens_pit():
    node = make_node(upstream=3)
    kind, info = node.handle_interest(InterestPacket("c1"), 7, 1.0, 1)
    assert (kind, info) == (ndn.FORWARDED, 3)
    assert node.pit == {"c1": [7]}


def test_pit_aggregates_second_requester():
    node = make_node()
    node.handle_interest(InterestPacket("c2"), 7, 1.0, 1)
    kind, info = node.handle_interest(InterestPacket("c2"), 8, 1.0, 2)
    assert (kind, info) == (ndn.AGGREGATED, None)
    assert node.pit == {"c2": [7, 8]}
    # The same downstream asking again must not be queued twice.
    node.handle_interest(InterestPacket("c2"), 7, 1.0, 3)
    assert node.pit == {"c2": [7, 8]}


def test_origin_always_serves():
    producer = make_node(role=NodeRole.PRODUCER, capacity=0, upstream=None)
    kind, info = producer.handle_interest(InterestPacket("c9"), 1, 0.0, 1)
    assert (kind, info) == (ndn.SERVE_FROM_CS, None)
    assert producer.pit == {}


def test_d2d_brokered_to_lowest_peer():
    fap = make_node(role=NodeRole.FAP)
    fap.d2d_serve = True
    fap.directory["c3"] = {9, 8}
    kind, info = fap.handle_interest(InterestPacket("c3"), 7, 1.0, 1)
    assert (kind, info) == (ndn.SERVE_VIA_D2D, 8)
    assert fap.pit == {}  # brokered, nothing forwarded


def test_d2d_disabled_ignores_directory():
    fap = make_node(role=NodeRole.FAP)
    fap.directory["c3"] = {9}
    kind, _ = fap.handle_interest(InterestPacket("c3"), 8, 1.0, 1)
    assert kind == ndn.FORWARDED


def test_data_satisfies_all_requesters_and_clears_pit():
    node = make_node()
    node.handle_interest(InterestPacket("c1"), 7, 1.0, 1)
    node.handle_interest(InterestPacket("c1"), 8, 1.0, 2)
    requesters, evicted = node.handle_data(DataPacket("c1", 2), 1.0, 3)
    assert requesters == [7, 8]
    assert evicted is None
    assert node.pit == {}
    assert "c1" in node.cs


def test_unsolicited_data_dropped_and_counted():
    node = make_node()
    requesters, evicted = node.handle_data(DataPacket("c1", 1), 1.0, 1)
    assert (requesters, evicted) == ([], None)
    assert "c1" not in node.cs
    assert node.unsolicited_drops == 1


def test_cache_with_space_never_evicts():
    node = make_node(capacity=1)
    put(node, "c1", 1)
    assert node.cs.entries["c1"].fetch_hops == 1
    assert len(node.cs) == 1


def test_fifo_evicts_oldest_on_overflow():
    node = make_node(capacity=2, policy="fifo")
    put(node, "c1", 1)
    put(node, "c2", 2)
    node.pit["c3"] = [7]
    _, evicted = node.handle_data(DataPacket("c3", 1), 3.0, 3)
    assert evicted == "c1"
    assert set(node.cs.entries) == {"c2", "c3"}


def test_zero_capacity_never_caches():
    node = make_node(capacity=0)
    put(node, "c1", 1)
    assert len(node.cs) == 0


def test_rate_policy_evicts_dominated_entry():
    # Cached c1 scores 1x1; arriving c3 was requested often enough that
    # its tracked rate reaches 5, so it displaces c1.
    node = make_node(capacity=1, policy="rate-hop")
    node.policy.table.rates["c1"] = 1.0
    node.policy.table.rates["c3"] = 4.0
    put(node, "c1", 1, fetch_hops=1)
    node.pit["c3"] = [7]
    _, evicted = node.handle_data(DataPacket("c3", 1), 2.0, 2)
    assert evicted == "c1"
    assert set(node.cs.entries) == {"c3"}
    assert node.policy.table.rates["c3"] == 5.0  # arrival bumped it


def test_rate_policy_rejects_weak_arrival():
    node = make_node(capacity=1, policy="rate-hop")
    node.policy.table.rates["c1"] = 9.0
    put(node, "c1", 1, fetch_hops=1)
    node.pit["c3"] = [7]
    requesters, evicted = node.handle_data(DataPacket("c3", 1), 2.0, 2)
    assert requesters == [7]  # still delivered downstream
    assert evicted is None
    assert set(node.cs.entries) == {"c1"}  # store unchanged


def test_d2d_data_not_cached_by_default():
    fue = make_node(role=NodeRole.FUE, capacity=2)
    fue.pit["c1"] = [APP]
    data = DataPacket("c1", 1, via_d2d=True)
    requesters, evicted = fue.handle_data(data, 1.0, 1)
    assert requesters == [APP]
    assert "c1" not in fue.cs
    fue.cache_d2d_data = True
    fue.pit["c1"] = [APP]
    fue.handle_data(DataPacket("c1", 1, via_d2d=True), 2.0, 2)
    assert "c1" in fue.cs


def test_fue_keeps_fap_directory_in_sync():
    fap = make_node(role=NodeRole.FAP)
    fue = make_node(role=NodeRole.FUE, capacity=1, upstream=fap.node_id)
    fue.fap_directory = fap.directory
    put(fue, "c1", 1)
    assert fap.directory == {"c1": {fue.node_id}}
    put(fue, "c2", 2)  # overflow evicts c1
    assert fap.directory == {"c2": {fue.node_id}}


def test_serve_peer_refreshes_recency():
    peer = make_node(role=NodeRole.FUE, capacity=1, policy="lru")
    put(peer, "c1", 1)
    peer.serve_peer("c1", 5)
    assert peer.cs.entries["c1"].last_used_at == 5
