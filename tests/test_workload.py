import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fransim.errors import ConfigError
from fransim.topology import Catalog
from fransim.workload import (
    Schedule,
    ZipfSpec,
    build_schedule,
    fue_rng,
    pcg64,
    sample_ranks,
    zipf_cdf,
    zipf_pmf,
)


def test_pmf_normalizes():
    for s, k in [(0.0, 10), (0.8, 100), (1.0, 50), (2.5, 7)]:
        pmf = zipf_pmf(s, k)
        assert len(pmf) == k
        assert abs(math.fsum(pmf) - 1.0) < 1e-12
        # popularity never increases
        assert all(later <= p for p, later in zip(pmf, pmf[1:]))


def test_pmf_two_rank_harmonic():
    pmf = zipf_pmf(1.0, 2)
    assert abs(pmf[0] - 2 / 3) < 1e-12
    assert abs(pmf[1] - 1 / 3) < 1e-12


def test_pmf_exponent_zero_is_uniform():
    pmf = zipf_pmf(0.0, 8)
    assert pmf == [1 / 8] * 8


def test_sample_ranks_within_range_and_deterministic():
    a = sample_ranks(0.8, 100, pcg64(42), 5000)
    b = sample_ranks(0.8, 100, pcg64(42), 5000)
    assert a == b
    assert min(a) >= 1 and max(a) <= 100


def test_sample_frequencies_track_pmf():
    # Rank-1 frequency within 3 sigma of its exact probability.
    n = 200_000
    ranks = sample_ranks(0.8, 100, pcg64(7), n)
    p1 = zipf_pmf(0.8, 100)[0]
    sigma = (p1 * (1 - p1) / n) ** 0.5
    assert abs(ranks.count(1) / n - p1) < 3 * sigma


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
    a = list(islice(fue_rng(0, 4), 5))
    b = list(islice(fue_rng(0, 4), 5))
    c = list(islice(fue_rng(1, 4), 5))
    d = list(islice(fue_rng(0, 5), 5))
    assert a == b
    assert a != c
    assert a != d


def test_inter_arrival_spacing():
    spec = ZipfSpec(catalog_size=5, interests_per_fue=4, inter_arrival=2.5)
    schedule = build_schedule(spec, [4])
    assert [t for t, _, _ in schedule] == [0.0, 2.5, 5.0, 7.5]


# -- the schedule as a sequence of rows -------------------------------------

def rows_drawn_one_by_one(spec, fue_ids):
    """The schedule's rows as a list of ``(time, fue, name)`` tuples,
    each device's names drawn with ``sample_ranks``, rows sorted by
    (time, device id)."""
    names = Catalog(spec.catalog_size).names
    fues = sorted(fue_ids)
    n = spec.interests_per_fue
    columns = [
        [names[rank - 1] for rank in sample_ranks(
            spec.exponent, spec.catalog_size, fue_rng(spec.seed, fue), n)]
        for fue in fues
    ]
    return [
        (i * spec.inter_arrival, fue, column[i])
        for i in range(n)
        for fue, column in zip(fues, columns)
    ]


SCHEDULE_SPECS = st.builds(
    ZipfSpec,
    exponent=st.sampled_from([0.0, 0.6, 0.8, 1.5]),
    catalog_size=st.integers(1, 300),
    seed=st.integers(0, 2**16),
    interests_per_fue=st.integers(1, 20),
    inter_arrival=st.sampled_from([1.0, 2.5, 0.1, 1, 3]),
)


@settings(max_examples=100, deadline=None)
@given(
    spec=SCHEDULE_SPECS,
    fues=st.lists(st.integers(3, 40), min_size=1, max_size=6, unique=True),
    data=st.data(),
)
def test_the_schedule_reads_as_its_rows(spec, fues, data):
    schedule = build_schedule(spec, fues)
    rows = rows_drawn_one_by_one(spec, fues)
    assert isinstance(schedule, Schedule)
    assert list(schedule) == rows
    assert len(schedule) == len(rows)
    assert [(t, fue, f"c{rank + 1}") for t, fue, rank in schedule.ranked()] \
        == rows
    for i in range(-len(rows), len(rows)):
        assert schedule[i] == rows[i], i
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            schedule[i]
    cut = data.draw(st.slices(len(rows)))
    assert schedule[cut] == rows[cut]
    assert schedule == rows and rows == schedule
    assert schedule == build_schedule(spec, list(reversed(fues)))
    assert schedule != rows[:-1] and rows[:-1] != schedule
    assert schedule != rows[:-1] + [(rows[-1][0], rows[-1][1], "c0")]
    # Every row of a step shares one time object, a new one per step.
    times = [t for t, _, _ in schedule]
    width = len(fues)
    steps = [times[i:i + width] for i in range(0, len(times), width)]
    assert all(all(t is step[0] for t in step) for step in steps)
    assert len({id(step[0]) for step in steps}) == len(steps)
    if type(spec.inter_arrival) is int:
        assert all(type(t) is int for t in times)


def test_ranks_beyond_two_bytes_keep_their_value():
    spec = ZipfSpec(exponent=0.0, catalog_size=70_000, interests_per_fue=40)
    schedule = build_schedule(spec, [4, 5])
    assert list(schedule) == rows_drawn_one_by_one(spec, [4, 5])
    assert max(rank for _, _, rank in schedule.ranked()) >= 1 << 16


@pytest.mark.parametrize("spec,n_fues", [
    (ZipfSpec(), 30),
    (ZipfSpec(exponent=0.6, catalog_size=10_000, interests_per_fue=400), 150),
], ids=["paper", "wide"])
def test_a_schedule_holds_under_a_megabyte(spec, n_fues):
    fues = list(range(7, 7 + n_fues))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        schedule = build_schedule(spec, fues)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(schedule) == 60_000
    assert held < 1_000_000


# -- the pure-Python draws against numpy, their reference -----------------

# Ints of one, two to three and four or more 32-bit words, so that
# entropy spans one to eight or more words and words beyond the pool's
# four are mixed in.
ENTROPY_INT = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**96 - 1),
    st.integers(2**96, 2**200),
)


def doubles(stream, count):
    return [m * 2.0**-53 for m in islice(stream, count)]


@settings(max_examples=200, deadline=None)
@given(seed=ENTROPY_INT, fue=ENTROPY_INT, count=st.integers(1, 40))
def test_the_stream_is_numpys_default_rng(seed, fue, count):
    expected = np.random.default_rng([seed, fue]).random(count).tolist()
    assert doubles(pcg64([seed, fue]), count) == expected
    assert doubles(fue_rng(seed, fue), count) == expected


@pytest.mark.parametrize(
    "entropy", [0, 424242, 2**64 + 3, [], [5], [1, 2, 3, 4, 5, 6]]
)
def test_the_stream_takes_numpys_entropy_forms(entropy):
    expected = np.random.default_rng(entropy).random(1000).tolist()
    assert doubles(pcg64(entropy), 1000) == expected


def test_the_stream_refuses_negative_entropy():
    with pytest.raises(ValueError):
        next(pcg64([0, -1]))


def numpy_cdf(exponent, catalog_size):
    """numpy's cumsum of the pmf, from the weights ``zipf_pmf`` uses."""
    weights = np.array(
        [float(r) ** -float(exponent) for r in range(1, catalog_size + 1)]
    )
    return np.cumsum(weights / weights.sum())


CDF_CASES = [
    (s, k) for s in (0.0, 0.6, 0.8, 1.0, 1.7) for k in range(1, 201)
] + [(0.8, 100), (0.6, 10_000)]


def test_the_cdf_is_numpys_cumsum():
    for exponent, catalog_size in CDF_CASES:
        cdf = numpy_cdf(exponent, catalog_size)
        assert zipf_cdf(exponent, catalog_size) == cdf.tolist(), (
            exponent, catalog_size)
        # numpy's own vectorized pow may round a weight the other way,
        # so against numpy's weights the cdf agrees to a few ulps.
        weights = np.arange(1, catalog_size + 1, dtype=np.float64) ** -exponent
        native = np.cumsum(weights / weights.sum())
        assert np.allclose(cdf, native, rtol=1e-14, atol=0)


def test_the_ranks_are_numpys_searchsorted():
    for exponent, catalog_size in CDF_CASES:
        cdf = numpy_cdf(exponent, catalog_size)
        # 500 drawn doubles, then the doubles on each side of every cdf
        # value: 53-bit draws m with m * 2**-53 just below and at it.
        at = [math.ceil(c * 2**53) for c in cdf.tolist()]
        draws = list(islice(pcg64(catalog_size), 500)) + [
            m for a in at for m in (a - 1, a) if m < 2**53
        ]
        u = np.array(draws, dtype=np.float64) * 2.0**-53
        expected = np.minimum(
            np.searchsorted(cdf, u, side="right") + 1, catalog_size
        )
        ranks = sample_ranks(exponent, catalog_size, iter(draws), len(draws))
        assert ranks == expected.tolist(), (exponent, catalog_size)
        assert ranks[:500] == sample_ranks(
            exponent, catalog_size, pcg64(catalog_size), 500
        )


@pytest.mark.parametrize("exponent,catalog_size", [(0.8, 100), (0.6, 10_000)])
def test_the_benchmark_ranks_match_numpys_own_pipeline(exponent, catalog_size):
    # The sampler as numpy ran it: numpy's pow, sum, cumsum and
    # searchsorted over default_rng([seed, fue]).
    weights = np.arange(1, catalog_size + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights / weights.sum())
    u = np.random.default_rng([0, 7]).random(20_000)
    expected = np.minimum(
        np.searchsorted(cdf, u, side="right") + 1, catalog_size
    )
    ranks = sample_ranks(exponent, catalog_size, fue_rng(0, 7), 20_000)
    assert ranks == expected.tolist()


def test_a_draw_at_or_beyond_the_last_cdf_value_is_the_last_rank():
    exponent, k = next(
        (s, k) for s in (0.6, 0.8, 1.0) for k in range(2, 200)
        if zipf_cdf(s, k)[-1] < 1.0
    )
    cdf = zipf_cdf(exponent, k)
    top = math.ceil(cdf[-1] * 2**53)  # the least draw at or beyond cdf[-1]
    edge = math.ceil(cdf[-2] * 2**53)  # the least draw at or beyond cdf[-2]
    draws = [top - 1, top, 2**53 - 1, edge - 1, edge]
    assert top < 2**53
    assert sample_ranks(exponent, k, iter(draws), 5) == [k, k, k, k - 1, k]
    u = np.array(draws) * 2.0**-53
    assert (
        np.minimum(np.searchsorted(cdf, u, side="right") + 1, k).tolist()
        == [k, k, k, k - 1, k]
    )
