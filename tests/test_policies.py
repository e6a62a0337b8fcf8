import math
import sys

import pytest
from hypothesis import example, given, strategies as st

from _ndn import (
    CsEntry,
    FifoPolicy,
    LruPolicy,
    RateHopPolicy,
    RateTable,
    make_policy,
)
from fransim.errors import ConfigError
from fransim.policies import (
    MAX_RATE_WEIGHT, PolicyConfig, ScoreRule, refreshed_rate,
)


def entry(inserted_at, fetch_hops, last_used_at=None):
    e = CsEntry(inserted_at, fetch_hops)
    if last_used_at is not None:
        e.last_used_at = last_used_at
    return e


# -- config validation --------------------------------------------------

def test_config_rejects_bad_weights():
    with pytest.raises(ConfigError):
        PolicyConfig(alpha=0.0, beta=0.0)
    with pytest.raises(ConfigError):
        PolicyConfig(alpha=-1.0)
    with pytest.raises(ConfigError):
        PolicyConfig(tau=0.0)
    PolicyConfig(alpha=0.0, beta=2.0)  # one-sided weights are fine
    with pytest.raises(ConfigError, match="normal float"):
        PolicyConfig(alpha=1e-308, beta=1e-308)  # a subnormal sum
    PolicyConfig(alpha=0.0, beta=sys.float_info.min)  # the smallest normal


def test_make_policy_rejects_unknown():
    with pytest.raises(ConfigError):
        make_policy("mru", PolicyConfig())


# -- rate refresh (the smoothing rule) -----------------------------------

def test_refreshed_rate_examples():
    assert refreshed_rate(1, 1, 4, 2) == 3  # equal weights: plain mean
    assert refreshed_rate(1, 1, 2, 4) == 3
    assert refreshed_rate(1, 0, 7, 99) == 7  # beta 0: full replacement
    assert refreshed_rate(3, 1, 8, 4) == 7  # (24 + 4) / 4


def test_rate_table_refresh_and_reset():
    table = RateTable()
    table.rates["c1"] = 2.0
    table.window_counts["c1"] = 4
    table.window_counts["c2"] = 1
    table.refresh(1.0, 1.0)
    assert table.rates == {"c1": 3.0, "c2": 0.5}
    assert table.window_counts == {}
    table.refresh(1.0, 1.0)  # empty window halves everything
    assert table.rates == {"c1": 1.5, "c2": 0.25}


def test_rate_table_drops_zero_estimates():
    table = RateTable()
    table.rates["c1"] = 5.0
    table.refresh(1.0, 0.0)  # alpha-only with empty window zeroes it
    assert "c1" not in table.rates


def test_record_request_counts_only_misses():
    table = RateTable()
    table.record_request("c1", satisfied_locally=True)
    assert table.window_counts == {}
    for _ in range(4):
        table.record_request("c1", satisfied_locally=False)
    assert table.window_counts == {"c1": 4}


def test_parent_counts_children_misses_not_local_serves():
    # Two children ask a shared parent for c2: one forwards three
    # misses, the other satisfied its requests locally and forwards
    # nothing, so the parent's window holds exactly the three.
    table = RateTable()
    for _ in range(3):
        table.record_request("c2", satisfied_locally=False)
    assert table.window_counts == {"c2": 3}


@given(
    alpha=st.floats(min_value=0),
    beta=st.floats(min_value=0),
    window=st.floats(0, 1e9),
    old=st.floats(0, 1e9),
)
@example(alpha=0.0, beta=5e-324, window=0.0, old=1.5)
@example(alpha=1e308, beta=1e308, window=1.0, old=1.0)
@example(alpha=1e300, beta=0.0, window=1e9, old=0.0)
def test_refresh_is_convex_combination(alpha, beta, window, old):
    # A subnormal weight sum can leave the range (the first example gives
    # 2.0), and weights near the largest float overflow (the second gives
    # nan, the third inf), so the config refuses both and nothing else;
    # every weight pair it accepts must stay in range.
    if alpha + beta < sys.float_info.min:
        with pytest.raises(ConfigError):
            PolicyConfig(alpha=alpha, beta=beta)
        return
    try:
        PolicyConfig(alpha=alpha, beta=beta)
    except ConfigError:
        assert max(alpha, beta) > MAX_RATE_WEIGHT  # an infinity included
        return
    value = refreshed_rate(alpha, beta, window, old)
    lo, hi = min(window, old), max(window, old)
    assert lo - 1e-9 * max(1.0, hi) <= value <= hi + 1e-9 * max(1.0, hi)


@given(
    alpha=st.floats(0.001, 1e3),
    beta=st.floats(0.001, 1e3),
    window=st.floats(0, 1e6),
    old=st.floats(0, 1e6),
    scale=st.floats(1e-3, 1e3),
)
def test_refresh_scale_equivariance(alpha, beta, window, old, scale):
    direct = refreshed_rate(alpha, beta, scale * window, scale * old)
    scaled = scale * refreshed_rate(alpha, beta, window, old)
    assert math.isclose(direct, scaled, rel_tol=1e-12, abs_tol=1e-12)


# -- victim selection ----------------------------------------------------

def test_fifo_evicts_oldest_regardless_of_rates():
    policy = FifoPolicy()
    entries = {"c1": entry(1, 3), "c2": entry(2, 1)}
    assert policy.select_victim(entries, ("c3", 0.0, 1)) == "c1"


def test_lru_evicts_least_recently_used():
    policy = LruPolicy()
    entries = {"c1": entry(1, 1, last_used_at=9), "c2": entry(2, 1)}
    assert policy.select_victim(entries, ("c3", 0.0, 1)) == "c2"


def rate_hop(rates, score_rule=ScoreRule.RATE_TIMES_FETCH_HOPS):
    policy = RateHopPolicy(PolicyConfig(score_rule=score_rule))
    policy.table.rates.update(rates)
    return policy


def test_rate_hop_rejects_weaker_incoming():
    # Cached scores are 2 (c1) and 3 (c2); incoming scores 1.
    policy = rate_hop({"c1": 2.0, "c2": 1.0})
    entries = {"c1": entry(1, 1), "c2": entry(2, 3)}
    assert policy.select_victim(entries, ("c3", 1.0, 1)) is None


def test_rate_hop_evicts_weakest_when_dominated():
    policy = rate_hop({"c1": 2.0, "c2": 1.0})
    entries = {"c1": entry(1, 1), "c2": entry(2, 3)}
    assert policy.select_victim(entries, ("c3", 4.0, 1)) == "c1"


def test_rate_hop_equal_score_keeps_incumbent():
    policy = rate_hop({"c1": 2.0, "c3": 2.0})
    entries = {"c1": entry(1, 1)}
    assert policy.select_victim(entries, ("c3", 2.0, 1)) is None


def test_rate_hop_victim_tie_breaks_by_insertion():
    # Both cached entries score 2; the earlier insert goes first.
    policy = rate_hop({"c1": 2.0, "c2": 1.0, "c3": 9.0})
    entries = {"c2": entry(5, 2), "c1": entry(3, 1)}
    assert policy.select_victim(entries, ("c3", 9.0, 1)) == "c1"


def test_rate_only_rule_ignores_fetch_distance():
    policy = rate_hop(
        {"c1": 2.0, "c2": 1.0, "c3": 1.5}, score_rule=ScoreRule.RATE_ONLY
    )
    entries = {"c1": entry(1, 9), "c2": entry(2, 9)}
    assert policy.select_victim(entries, ("c3", 1.5, 1)) == "c2"


def test_never_seen_content_scores_zero():
    policy = rate_hop({})
    entries = {"c1": entry(1, 3)}
    assert policy.incoming_rate("c9") == 0.0
    assert policy.select_victim(entries, ("c9", 0.0, 5)) is None


@given(
    rates=st.lists(st.floats(0, 100), min_size=2, max_size=6),
    hops=st.lists(st.integers(1, 3), min_size=6, max_size=6),
    incoming=st.floats(0, 100),
    stronger=st.floats(0.001, 100),
)
def test_rate_hop_eviction_is_monotone(rates, hops, incoming, stronger):
    # If the incumbent falls to some incoming score, it also falls to
    # any strictly larger incoming score.
    names = [f"c{i}" for i in range(1, len(rates) + 1)]
    policy = rate_hop(dict(zip(names, rates)))
    entries = {
        name: entry(i, hops[i % len(hops)]) for i, name in enumerate(names)
    }
    weak = policy.select_victim(entries, ("cx", incoming, 1))
    strong = policy.select_victim(entries, ("cx", incoming + stronger, 1))
    if weak is not None:
        assert strong == weak


def test_fifo_lru_agree_when_nothing_is_reused():
    # Capacity-1 store cycling distinct names: both baselines always
    # evict the sole (oldest == least recently used) entry.
    fifo, lru = FifoPolicy(), LruPolicy()
    store: dict[str, CsEntry] = {}
    fifo_evictions, lru_evictions = [], []
    for stamp, name in enumerate(["c1", "c2", "c3", "c1", "c2", "c3"]):
        if store:
            fifo_evictions.append(fifo.select_victim(store, (name, 0.0, 1)))
            lru_evictions.append(lru.select_victim(store, (name, 0.0, 1)))
            store.clear()
        store[name] = CsEntry(stamp, 1)
    assert fifo_evictions == lru_evictions == ["c1", "c2", "c3", "c1", "c2"]


def test_victim_scan_is_single_pass():
    # The decision must touch each entry at most once.
    policy = rate_hop({"c1": 1.0, "c2": 2.0, "c3": 3.0})
    looked_up = []

    class Probe(dict):
        def items(self):
            for key, value in super().items():
                looked_up.append(key)
                yield key, value

    entries = Probe(c1=entry(1, 1), c2=entry(2, 1), c3=entry(3, 1))
    policy.select_victim(entries, ("c4", 10.0, 1))
    assert sorted(looked_up) == ["c1", "c2", "c3"]
