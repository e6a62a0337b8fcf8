"""Synthetic request workload: Zipf-distributed content popularity.

Every user device issues interests at a fixed cadence for contents
drawn from a shared Zipf popularity law over the catalog.  Each device
samples from its own seeded substream, so draws are independent across
devices and adding devices never perturbs existing ones.

The draws are numpy's, made without numpy: a device's substream is
``numpy.random.default_rng([seed, fue])``, whose ``SeedSequence`` hash
and PCG64 generator (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905) are ported here bit for bit, and the
Zipf cdf is summed in numpy's order.  So the schedules are the ones
numpy's ``searchsorted`` over ``cumsum`` of the pmf drew, but for the
weights ``r ** -s``: they come from the C library's ``pow``, which may
differ from numpy's vectorized one in the last bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, cycle, islice, repeat
from operator import eq, index

from .errors import ConfigError
from .topology import Catalog, NodeId

_MASK32 = (1 << 32) - 1
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
_TWO_COPIES = (1 << 64) + 1  # x * _TWO_COPIES is x beside a copy of x


@dataclass(frozen=True)
class ZipfSpec:
    exponent: float = 0.8
    catalog_size: int = 100
    seed: int = 0
    interests_per_fue: int = 2000
    inter_arrival: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.exponent) or self.exponent < 0:
            raise ConfigError("zipf exponent must be finite and non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.catalog_size < 1:
            raise ConfigError("catalog size must be positive")
        if self.interests_per_fue < 1:
            raise ConfigError("interests per device must be positive")
        if not math.isfinite(self.inter_arrival) or self.inter_arrival <= 0:
            raise ConfigError("inter-arrival time must be finite and positive")
        try:
            last = float((self.interests_per_fue - 1) * self.inter_arrival)
        except OverflowError:  # an int beyond the float range
            last = math.inf
        if not math.isfinite(last):
            raise ConfigError(
                "the last arrival time, (interests per device - 1) x "
                "inter-arrival time, must be finite"
            )


def _seed_words(entropy: int | Iterable[int]) -> list[int]:
    """``entropy`` as the 32-bit words numpy's ``SeedSequence`` reads:
    each int split into words, least significant first, 0 as one word."""
    words = []
    for n in [entropy] if isinstance(entropy, int) else entropy:
        if n < 0:
            raise ValueError(f"entropy must be non-negative, got {n}")
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


def _seed_pool(entropy: int | Iterable[int]) -> list[int]:
    """The four-word pool of ``SeedSequence(entropy)``: numpy's
    ``mix_entropy``, words beyond the fourth mixed in after the rest."""
    words = _seed_words(entropy)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def pcg64(entropy: int | Iterable[int]) -> Iterator[int]:
    """The endless stream of ``numpy.random.default_rng(entropy)``, as
    the 53-bit ints behind its ``random()`` doubles: each double is its
    int times 2**-53.  ``entropy`` is a non-negative int or a sequence
    of them, as numpy takes it."""
    # SeedSequence.generate_state(4, uint64): eight hashed pool words,
    # paired little-endian into the 128-bit seed and stream.
    hash_const = 0x8B51F9DD
    words = []
    for word in islice(cycle(_seed_pool(entropy)), 8):
        word ^= hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        word = word * hash_const & _MASK32
        words.append(word ^ word >> 16)
    w0, w1, w2, w3 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    # PCG's seeding: step from 0, add the seed, step again.
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        # XSL-RR: the xor of the two halves, rotated right by the top
        # six bits, read off a doubled copy of it; its top 53 bits.
        low = (state ^ state >> 64) & _MASK64
        yield (low * _TWO_COPIES >> (state >> 122) + 11) & _MASK53


def fue_rng(seed: int, fue: NodeId) -> Iterator[int]:
    """The dedicated random substream for one device."""
    return pcg64([seed, fue])


def _pairwise_sum(values: list[float], lo: int, hi: int) -> float:
    """``values[lo:hi]`` summed in numpy's ``pairwise_sum`` order: under
    8 values one by one; up to 128 in 8 interleaved partial sums, then
    the rest one by one; beyond, the two halves (cut at a multiple of
    8) each so."""
    n = hi - lo
    if n < 8:
        total = -0.0
        for value in values[lo:hi]:
            total += value
        return total
    if n <= 128:
        part = values[lo:lo + 8]
        end = hi - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                part[j] += values[i + j]
        total = ((part[0] + part[1]) + (part[2] + part[3])) + (
            (part[4] + part[5]) + (part[6] + part[7])
        )
        for value in values[end:hi]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, lo + half) + _pairwise_sum(
        values, lo + half, hi
    )


def zipf_pmf(exponent: float, catalog_size: int) -> list[float]:
    """Probability of each rank 1..K, p(r) proportional to r**-exponent."""
    power = -float(exponent)
    weights = [float(r) ** power for r in range(1, catalog_size + 1)]
    total = _pairwise_sum(weights, 0, catalog_size)
    return [weight / total for weight in weights]


def zipf_cdf(exponent: float, catalog_size: int) -> list[float]:
    """The running sum of :func:`zipf_pmf`, added as ``numpy.cumsum`` adds."""
    return list(accumulate(zipf_pmf(exponent, catalog_size)))


def _thresholds(exponent: float, catalog_size: int) -> list[int]:
    """Per rank r < K, the least 53-bit draw whose double reaches
    cdf(r): so a draw's rank is one more than the thresholds it reaches,
    as ``searchsorted(cdf, u, side="right") + 1`` is, and a draw at or
    beyond cdf(K), which may fall short of 1, is still rank K."""
    cdf = zipf_cdf(exponent, catalog_size)
    return [math.ceil(c * 2.0**53) for c in cdf[:-1]]


def sample_ranks(
    exponent: float, catalog_size: int, rng: Iterable[int], count: int
) -> list[int]:
    """Draw ``count`` ranks in 1..K from ``rng``'s 53-bit draws (a
    :func:`pcg64` stream) by inverting the cumulative pmf."""
    thresholds = _thresholds(exponent, catalog_size)
    return [bisect_right(thresholds, m) + 1 for m in islice(rng, count)]


class Schedule(Sequence):
    """All request arrivals of a run, sorted by (time, device id): a
    read-only sequence of ``(time, fue, name)`` rows.

    It holds the sorted device ids, one time object per arrival step
    (every row of a step shares it) and, per device, a compact column
    of its 0-based content ranks.  Names are made only when rows are
    read by name; a replay reads :meth:`ranked` instead.  A schedule
    equals another schedule, or a list, with the same rows.
    """

    __slots__ = ("fues", "times", "columns", "catalog_size")

    def __init__(self, fues: list[NodeId], times: list, columns: list,
                 catalog_size: int):
        self.fues = fues
        self.times = times
        self.columns = columns
        self.catalog_size = catalog_size

    def __len__(self) -> int:
        return len(self.times) * len(self.fues)

    def ranked(self) -> Iterator[tuple]:
        """The rows as ``(time, fue, rank)``, ``rank`` 0-based."""
        width = len(self.fues)
        return zip(
            chain.from_iterable(map(repeat, self.times, repeat(width))),
            cycle(self.fues),
            chain.from_iterable(zip(*self.columns)),
        )

    def __iter__(self) -> Iterator[tuple]:
        names = Catalog(self.catalog_size).names
        for t, fue, rank in self.ranked():
            yield t, fue, names[rank]

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step > 0:
                return list(islice(self, start, stop, step))
            return list(self)[key]
        size = len(self)
        i = index(key)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("schedule index out of range")
        step, j = divmod(i, len(self.fues))
        return self.times[step], self.fues[j], f"c{self.columns[j][step] + 1}"

    def __eq__(self, other):
        if isinstance(other, Schedule):
            return (self.fues, self.times, self.columns) == (
                other.fues, other.times, other.columns)
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None


def build_schedule(spec: ZipfSpec, fue_ids: list[NodeId]) -> Schedule:
    """All request arrivals for a run, sorted by (time, device id).

    Each row of the :class:`Schedule` is ``(time, fue, name)``, and
    each device's names are its own substream's draws in order; time
    ``i * spec.inter_arrival`` is step ``i``.  The schedule depends only on
    the spec and the device ids, never on caching behaviour, so paired
    experiments see identical request streams.
    """
    thresholds = _thresholds(spec.exponent, spec.catalog_size)
    n = spec.interests_per_fue
    fues = sorted(fue_ids)
    typecode = "H" if spec.catalog_size <= 1 << 16 else "q"
    columns = [
        array(typecode, map(bisect_right, repeat(thresholds),
                            islice(fue_rng(spec.seed, fue), n)))
        for fue in fues
    ]
    times = [i * spec.inter_arrival for i in range(n)]
    return Schedule(fues, times, columns, spec.catalog_size)
