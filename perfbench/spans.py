"""Spans around fransim's public calls, recorded from outside the package.

The benchmark patches each traced name at the place the caller looks it
up (a module attribute or a class attribute) and restores it afterwards,
so no code under ``src/`` changes.  Spans are kept in memory: one list
entry per call with its name, start, end, parent span and an optional
key derived from the call's arguments.  Tracing is single-process, so
the traced pass of a sweep runs with one job.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Recorder:
    """In-memory span list for one traced command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, key]
        self._open: list[int] = []

    def wrap(self, name, fn, key=None):
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [
                name, clock(), None, stack[-1] if stack else -1,
                key(*args, **kwargs) if key else None,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover.

        Children of one span never overlap: every traced call runs in
        this process, one at a time.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _key in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - covered
            for (_n, start, end, _p, _k), covered in zip(self.spans, child)
        ]

    def layer_self(self) -> dict[str, float]:
        """Self time summed by layer, the span name's first component."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _n, start, end, p, _k in self.spans if p < 0)


def _schedule_key(spec, fue_ids):
    return (spec, tuple(fue_ids))


def targets(fs):
    """(owner, attribute, span name, key) for every traced lookup site.

    ``fs`` is the namespace of imported fransim modules.  Names imported
    into ``cli`` with ``from ... import`` are patched in ``cli``; the
    oracle's own call to ``linearize`` is patched in ``oracle``.
    """
    cli, engine, oracle, plotting = fs.cli, fs.engine, fs.oracle, fs.plotting
    sim = engine.Simulation
    return [
        (cli, "cmd_run", "cli.cmd_run", None),
        (cli, "cmd_sweep", "cli.cmd_sweep", None),
        (cli, "cmd_oracle", "cli.cmd_oracle", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "build_schedule", "workload.build_schedule", _schedule_key),
        (engine, "build_schedule", "workload.build_schedule", _schedule_key),
        (engine, "sweep", "engine.sweep", None),
        (engine, "run_single", "engine.run_single", None),
        (sim, "run_schedule", "engine.Simulation.run_schedule", None),
        (sim, "tick", "engine.Simulation.tick", None),
        (plotting, "sweep_charts", "plotting.sweep_charts", None),
        (cli, "brute_force_optimal", "oracle.brute_force_optimal", None),
        (cli, "linearize", "oracle.linearize", None),
        (oracle, "linearize", "oracle.linearize", None),
        (cli, "verify_linearization", "oracle.verify_linearization", None),
    ]


@contextmanager
def patched(fs, recorder: Recorder):
    """Route every traced name through ``recorder`` until exit."""
    saved = []
    try:
        for owner, attr, name, key in targets(fs):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, key))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def timed_calls(owner, names, totals: dict[str, float]):
    """Accumulate the host time of whole calls, for untraced runs.

    Two clock reads per call: used only around calls that take seconds.
    """
    saved = {}
    clock = time.perf_counter

    def timing(attr, fn):
        def call(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[attr] = totals.get(attr, 0.0) + clock() - start
        return call

    try:
        for attr in names:
            saved[attr] = owner.__dict__[attr]
            setattr(owner, attr, timing(attr, saved[attr]))
        yield totals
    finally:
        for attr, original in saved.items():
            setattr(owner, attr, original)
