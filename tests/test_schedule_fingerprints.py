"""The request schedules the benchmark and the paper grid replay, pinned.

Each digest is SHA-256 over the schedules' rows, one ``time device
name`` line per row, with a header line per schedule.  The digests were
recorded when numpy drew the schedules, so any change to the stream,
the Zipf cdf or the rank lookup that moves a single draw fails here.
"""

import hashlib

from fransim.workload import ZipfSpec, build_schedule

FIRST_DEVICE = 7  # node ids 0-6 are the producer, the BBU and 5 F-APs

PAPER_GRID = "5f8599759d24737ebbb501984a16128710c5c19ef567af72cb8f62b2fb6ea7bd"
WIDE_DEBUG = "1ff81b8189ddf5c46851099951ac20cc7abf5547825454f3c21fbe9ede2cdd8a"


def fingerprint(cases) -> str:
    digest = hashlib.sha256()
    for spec, n_fues in cases:
        fues = list(range(FIRST_DEVICE, FIRST_DEVICE + n_fues))
        digest.update(f"{spec!r} {n_fues}\n".encode())
        digest.update("".join(
            f"{t!r} {fue} {name}\n" for t, fue, name in build_schedule(spec, fues)
        ).encode())
    return digest.hexdigest()


def test_paper_grid_schedules_are_pinned():
    # The default workload at seeds 0-9 and 5, 10, ..., 30 devices.
    cases = [
        (ZipfSpec(seed=seed), n_fues)
        for seed in range(10)
        for n_fues in range(5, 31, 5)
    ]
    assert fingerprint(cases) == PAPER_GRID


def test_wide_debug_schedule_is_pinned():
    spec = ZipfSpec(exponent=0.6, catalog_size=10_000, interests_per_fue=400)
    assert fingerprint([(spec, 150)]) == WIDE_DEBUG
