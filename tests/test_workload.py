import numpy as np
import pytest

from fransim.errors import ConfigError
from fransim.workload import (
    ZipfSpec,
    build_schedule,
    fue_rng,
    sample_ranks,
    zipf_pmf,
)


def test_pmf_normalizes():
    for s, k in [(0.0, 10), (0.8, 100), (1.0, 50), (2.5, 7)]:
        pmf = zipf_pmf(s, k)
        assert pmf.shape == (k,)
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert np.all(np.diff(pmf) <= 0)  # popularity never increases


def test_pmf_two_rank_harmonic():
    pmf = zipf_pmf(1.0, 2)
    assert abs(pmf[0] - 2 / 3) < 1e-12
    assert abs(pmf[1] - 1 / 3) < 1e-12


def test_pmf_exponent_zero_is_uniform():
    pmf = zipf_pmf(0.0, 8)
    assert np.allclose(pmf, 1 / 8)


def test_sample_ranks_within_range_and_deterministic():
    a = sample_ranks(0.8, 100, np.random.default_rng(42), 5000)
    b = sample_ranks(0.8, 100, np.random.default_rng(42), 5000)
    assert np.array_equal(a, b)
    assert a.min() >= 1 and a.max() <= 100


def test_sample_frequencies_track_pmf():
    # Rank-1 frequency within 3 sigma of its exact probability.
    n = 200_000
    ranks = sample_ranks(0.8, 100, np.random.default_rng(7), n)
    p1 = zipf_pmf(0.8, 100)[0]
    sigma = (p1 * (1 - p1) / n) ** 0.5
    assert abs((ranks == 1).mean() - p1) < 3 * sigma


def test_spec_validation():
    with pytest.raises(ConfigError):
        ZipfSpec(exponent=-0.1)
    with pytest.raises(ConfigError):
        ZipfSpec(catalog_size=0)
    with pytest.raises(ConfigError):
        ZipfSpec(interests_per_fue=0)
    with pytest.raises(ConfigError):
        ZipfSpec(inter_arrival=0.0)


def test_schedule_shape_and_order():
    spec = ZipfSpec(catalog_size=10, interests_per_fue=10, seed=1)
    fues = [4, 5, 6, 7, 8]
    schedule = build_schedule(spec, fues)
    assert len(schedule) == 50
    assert schedule == sorted(schedule, key=lambda row: (row[0], row[1]))
    times = {t for t, _, _ in schedule}
    assert times == {float(i) for i in range(10)}
    assert all(name.startswith("c") for _, _, name in schedule)


def test_schedule_deterministic():
    spec = ZipfSpec(catalog_size=20, interests_per_fue=50, seed=9)
    assert build_schedule(spec, [3, 4]) == build_schedule(spec, [3, 4])


def test_substreams_independent_of_other_fues():
    # Adding a device never perturbs an existing device's draws.
    spec = ZipfSpec(catalog_size=20, interests_per_fue=30, seed=5)
    solo = [row for row in build_schedule(spec, [4]) if row[1] == 4]
    joint = [row for row in build_schedule(spec, [4, 5]) if row[1] == 4]
    assert solo == joint


def test_substreams_differ_between_fues():
    spec = ZipfSpec(catalog_size=50, interests_per_fue=100, seed=5)
    schedule = build_schedule(spec, [4, 5])
    seq4 = [name for _, fue, name in schedule if fue == 4]
    seq5 = [name for _, fue, name in schedule if fue == 5]
    assert seq4 != seq5


def test_fue_rng_keyed_by_seed_and_node():
    a = fue_rng(0, 4).random(5)
    b = fue_rng(0, 4).random(5)
    c = fue_rng(1, 4).random(5)
    d = fue_rng(0, 5).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_inter_arrival_spacing():
    spec = ZipfSpec(catalog_size=5, interests_per_fue=4, inter_arrival=2.5)
    schedule = build_schedule(spec, [4])
    assert [t for t, _, _ in schedule] == [0.0, 2.5, 5.0, 7.5]
