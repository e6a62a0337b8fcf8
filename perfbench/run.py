#!/usr/bin/env python3
"""fransim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload's command, untraced, until
``--seconds`` have passed and reports the end-to-end metrics listed in
BENCHMARK.json.  ``--trace 1`` is the separate traced pass: it runs the
command once with spans around fransim's public calls, once untraced,
plus the fixed-input layer drives, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give provenance and a readable summary.

The package is imported from ``src/`` of the checkout, never from an
installed copy, so the benchmark fails (exit code 2, no result) in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import drives
import spans
from workloads import WORKLOADS, Oracle, SmallGrid, SmallOracle, placements

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
clock = time.perf_counter


def load_fransim():
    src = ROOT / "src"
    if not (src / "fransim" / "__init__.py").is_file():
        print(f"error: no fransim package under {src}; run from the root "
              "of a fransim checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fransim
    from fransim import (cli, config, engine, errors, oracle, plotting,
                         policies, topology, workload)
    if not Path(fransim.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: fransim imported from {fransim.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(
        cli=cli, config=config, engine=engine, errors=errors, oracle=oracle,
        plotting=plotting, policies=policies, topology=topology,
        workload=workload,
    )


def max_rss_mb() -> float:
    """High-water resident memory of this process and of its waited-for
    children (pool workers, set-up probes), whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    import numpy
    import yaml
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "pyyaml": yaml.__version__, "platform": platform.platform(),
        "git_rev": git_rev(),
    }


# -- running commands ----------------------------------------------------


def run_command(fs, argv: list[str]) -> tuple[int, str]:
    """``fransim.cli.main(argv)`` in-process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fs.cli.main(argv)
    except Exception:  # a crash is a failed operation, not a lost run
        traceback.print_exc()
        code = -1
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


class Checker:
    """Counts operations and failures across repetitions.

    Every repetition's outputs are checked.  At the default seed each
    operation must match the fingerprint recorded at the seed commit;
    at every seed, repetitions must agree with the first one.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.golden = None
        if seed == DEFAULT_SEED and GOLDEN.is_file():
            self.golden = json.loads(GOLDEN.read_text()).get(workload.name)
        self.first: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, fs, commands, tamper=False) -> tuple[float, list[str]]:
        """Clean, run ``commands`` timed, check; (host seconds, stdouts)."""
        self.workload.clean()
        t0 = clock()
        results = [run_command(fs, argv) for argv in commands]
        wall = clock() - t0
        codes = [code for code, _ in results]
        stdouts = [out for _, out in results]
        if tamper and all(code == 0 for code in codes):
            stdouts = self.workload.tamper(stdouts)
        self.record(self.workload.check(codes, stdouts))
        return wall, stdouts

    def record(self, ops) -> None:
        prints = {op.id: op.fingerprint for op in ops}
        if self.first is None:
            self.first = prints
        for op in ops:
            if self.golden is not None and self.golden.get(op.id) != op.fingerprint:
                op.problems.append("differs from the output recorded at "
                                   "the seed commit")
            if self.first.get(op.id) != op.fingerprint:
                op.problems.append("differs from the first repetition")
            self.attempted += 1
            if op.problems:
                self.failed += 1
                self.problems.append(f"{op.id}: {'; '.join(op.problems)}")


# -- end-to-end pass -------------------------------------------------------


def setup_once(fs, workload) -> None:
    """Input generation and warm-up before the first timed call."""
    shutil.rmtree(workload.work, ignore_errors=True)
    workload.prepare()
    for argv in workload.warmup_commands():
        code, _ = run_command(fs, argv)
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited {code}")


def setup_sample(args) -> float:
    """Host seconds of one whole set-up in a fresh interpreter: start,
    import, input generation and warm-up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    t0 = clock()
    # No timeout: Popen.wait with one polls in steps of up to 50 ms,
    # which would quantize the measurement.
    subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return clock() - t0


def end_to_end(fs, workload, args, checker) -> dict:
    """Repeat the command for ``args.seconds``; the time metrics are
    means over the repetitions.

    The host's speed is bimodal: a fixed loop runs at one of two speeds
    about 35 % apart, in episodes of seconds to minutes.  The median or
    the fastest of a run's repetitions jumps between the two modes from
    run to run; the mean moves with the share of time spent in each.
    Set-up samples are spread over the run for the same reason.
    """
    setup_once(fs, workload)
    setups: list[float] = []
    walls: list[float] = []
    parts: dict[str, list[float]] = {}
    start = clock()
    while not walls or clock() - start < args.seconds:
        totals: dict[str, float] = {}
        with spans.timed_calls(fs.cli, workload.timed_calls, totals):
            wall, _ = checker.run(fs, workload.commands(), args.tamper)
        walls.append(wall)
        for name, value in totals.items():
            parts.setdefault(name, []).append(value)
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    wall = statistics.fmean(walls)
    peak = max_rss_mb()
    setup = statistics.median(setups)
    work = workload.work_units()
    metrics = {"wall_s": wall, "work_per_s": work / wall,
               "peak_rss_mb": peak, "setup_s": setup}
    # The per-workload form of the issue's end-to-end table.
    table = {"wall_s": (wall, "s")}
    if isinstance(workload, Oracle):
        table["solve_s"] = (statistics.fmean(parts["brute_force_optimal"]), "s")
        table["verify_s"] = (statistics.fmean(parts["verify_linearization"]), "s")
    else:
        table["req_per_s"] = (work / wall, "req/s")
    table["peak_rss_mb"] = (peak, "MB")
    table["setup_s"] = (setup, "s")
    table["failed_frac"] = (checker.failed / checker.attempted, "ratio")
    print("summary " + json.dumps({
        "workload": workload.name, "repetitions": len(walls),
        "wall_s_median": statistics.median(walls), "wall_s_samples": walls,
        "setup_s_samples": setups,
        "work_per_repetition": work,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
    }))
    return metrics


# -- traced pass -----------------------------------------------------------


class Probe:
    """One command run untraced, traced, then untraced again, in this
    process.

    The first run grows the heap to the command's peak, which is
    measured, so that the traced and the second untraced run, compared
    for the tracing overhead, start from the same warm state.
    """

    def __init__(self, fs, checker, traced_cmds, parallel_cmds=None, jobs=1):
        rss0 = max_rss_mb()
        checker.run(fs, traced_cmds)
        self.rss_rise_mb = max_rss_mb() - rss0
        self.rec = spans.Recorder()
        with spans.patched(fs, self.rec):
            self.traced_s, self.stdouts = checker.run(fs, traced_cmds)
        self.rows = checker.workload.rows()
        traces = checker.workload.trace_files()
        self.trace_bytes = sum(p.stat().st_size for p in traces)
        self.trace_records = 0
        for path in traces:
            with open(path, "rb") as handle:
                self.trace_records += sum(1 for _ in handle)
        self.untraced_s = checker.run(fs, traced_cmds)[0]
        self.parallel_s = self.untraced_s
        if parallel_cmds:
            self.parallel_s = checker.run(fs, parallel_cmds)[0]
        self.jobs = jobs

    def durations(self, name: str) -> list[float]:
        return [end - start for _n, start, end, _p, _k in self.rec.named(name)]

    def self_time(self, prefix: str) -> float:
        return sum(own for span, own in zip(self.rec.spans, self.rec.self_times())
                   if span[0].startswith(prefix))


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def sweep_group(p: Probe) -> dict:
    cells = p.durations("engine.run_single")
    return {
        "sweep.cells": len(cells),
        "sweep.cell_s_p50": statistics.median(cells),
        "sweep.cell_s_p95": _p95(cells),
        "sweep.parallel_eff": sum(cells) / (p.jobs * p.parallel_s),
    }


def workload_group(p: Probe) -> dict:
    builds = p.rec.named("workload.build_schedule")
    return {
        "workload.schedule_builds": len(builds),
        "workload.distinct_schedules": len({b[4] for b in builds}),
        "workload.build_s": statistics.median(b[2] - b[1] for b in builds),
        "workload.build_share": p.self_time("workload.") / p.traced_s,
    }


def engine_group(p: Probe) -> dict:
    out = {
        "engine.ticks": len(p.rec.named("engine.Simulation.tick")),
        "engine.tick_share": p.self_time("engine.Simulation.tick") / p.traced_s,
    }
    for tier in ("own", "d2d", "fap", "bbu", "producer"):
        out[f"engine.hits.{tier}"] = sum(int(r[f"hits_{tier}"]) for r in p.rows)
    return out


def oracle_group(fs, p: Probe, oracle: Oracle) -> dict:
    assignments = 0
    for out in p.stdouts:
        found = re.search(r"over (\d+) assignments", out)
        if found:
            assignments += int(found.group(1))
    verified = oracle.verified_instance()
    z_vars, constraints = drives.program_size(fs, *verified)
    return {
        "oracle.placements": sum(placements(oracle.caps, k)
                                 for k in oracle.contents),
        "oracle.brute_force_s": sum(p.durations("oracle.brute_force_optimal")),
        "oracle.objective_us": drives.objective_us(fs, *verified),
        "oracle.linearize_ms": statistics.median(
            p.durations("oracle.linearize")) * 1e3,
        "oracle.z_vars": z_vars,
        "oracle.constraints": constraints,
        "oracle.verify_assignments": assignments,
        "oracle.verify_us": sum(p.durations("oracle.verify_linearization"))
        / assignments * 1e6,
    }


def drive_metrics(fs, workload) -> dict:
    """The fixed-input drives, at the workload's scenario."""
    topo, spec, config, cache_d2d = workload.scenario()
    schedule = fs.workload.build_schedule(spec, topo.fues())
    out = {f"engine.request_us.{tier}": drives.request_us(fs, tier)
           for tier in drives.TIER_TREES}
    for policy in fs.policies.POLICY_NAMES:
        seconds = statistics.median(
            drives.replay(fs, topo, spec, schedule, policy, config,
                          cache_d2d)[0] for _ in range(3))
        out[f"engine.req_per_s.{policy}"] = len(schedule) / seconds
    out["engine.tick_ms"] = drives.tick_ms(fs, topo, spec.catalog_size, config)
    ratios = drives.replay_ratios(fs, topo, spec, schedule, config, cache_d2d)
    out["engine.debug_ratio"] = ratios["debug_ratio"]
    out["engine.trace_ratio"] = ratios["trace_ratio"]
    offers, rejects = drives.admission(fs, topo, spec, schedule, config,
                                       cache_d2d)
    out["engine.admit_offers"] = offers
    out["engine.admit_rejects"] = rejects
    out["engine.admit_reject_ratio"] = rejects / offers if offers else 0.0
    out["workload.schedule_mb"] = drives.schedule_mb(fs, spec, topo.fues())
    return out


def command_metrics(main: Probe) -> dict:
    """Metrics every command has: the CLI verb, config, trace output and
    the layer self-time shares of the traced wall time."""
    cli_self = main.self_time("cli.")
    out = {
        "engine.trace_records": main.trace_records,
        "cli.run_self_s": cli_self,
        "cli.trace_bytes": main.trace_bytes,
        "cli.trace_mb_per_s": main.trace_bytes / 1e6 / cli_self,
        "cli.trace_peak_mb": main.rss_rise_mb,
        "config.load_ms": statistics.median(
            main.durations("config.load_config")) * 1e3,
        "bench.trace_overhead": main.traced_s / main.untraced_s,
    }
    layers = main.rec.layer_self()
    for layer in ("engine", "workload", "cli", "config", "plotting", "oracle"):
        out[f"bench.self_share.{layer}"] = layers.get(layer, 0.0) / main.traced_s
    out["bench.self_share.root"] = (
        main.traced_s - main.rec.top_level_time()) / main.traced_s
    out["bench.accounted"] = sum(
        v for k, v in out.items() if k.startswith("bench.self_share."))
    return out


def span_table(rec: spans.Recorder) -> dict:
    table: dict[str, dict] = {}
    for span, own in zip(rec.spans, rec.self_times()):
        entry = table.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return table


def traced_pass(fs, workload, args, checker) -> tuple[dict, dict, dict]:
    """(per-layer metrics, source of each metric, span layout)."""
    setup_once(fs, workload)
    main = Probe(fs, checker, workload.traced_commands(),
                 parallel_cmds=workload.commands() if workload.jobs > 1 else None,
                 jobs=workload.jobs)
    metrics: dict = {}
    sources: dict = {}

    def take(group: dict, source: str) -> None:
        metrics.update(group)
        sources.update(dict.fromkeys(group, source))

    def stand_in(kind):
        small = kind(fs, WORK / kind.name, args.seed)
        shutil.rmtree(small.work, ignore_errors=True)
        small.prepare()
        small_checker = Checker(small, -1)
        probe = Probe(fs, small_checker, small.traced_commands())
        checker.attempted += small_checker.attempted
        checker.failed += small_checker.failed
        checker.problems += small_checker.problems
        return probe, small

    # The sweep cells and the schedule builds come from the same command:
    # paper-grid's own, or the small sweep when the command has no cells.
    if main.rec.named("engine.run_single"):
        grid, grid_source = main, "command"
    else:
        grid, grid_source = stand_in(SmallGrid)[0], "small sweep"
    take(sweep_group(grid), grid_source)
    take({"plotting.charts_s": sum(grid.durations("plotting.sweep_charts"))},
         grid_source)
    if main.rec.named("engine.Simulation.run_schedule"):
        runs, runs_source = main, "command"
    else:
        runs, runs_source = grid, grid_source
    take(workload_group(runs), runs_source)
    take(engine_group(runs), runs_source)
    if main.rec.named("oracle.brute_force_optimal"):
        take(oracle_group(fs, main, workload), "command")
    else:
        take(oracle_group(fs, *stand_in(SmallOracle)), "small oracle")
    take(command_metrics(main), "command")
    take(drive_metrics(fs, workload), "drive")
    layout = {"traced_wall_s": main.traced_s, "untraced_wall_s": main.untraced_s,
              "parallel_wall_s": main.parallel_s, "spans": span_table(main.rec)}
    return metrics, sources, layout


# -- entry point -----------------------------------------------------------


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(metrics: dict, names: list[dict], checker) -> None:
    units = {m["name"]: m["unit"] for m in names}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json"
        )
    out = {name: {"value": float(metrics[name]), "unit": units[name]}
           for name in units}
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": out,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one output per repetition; the run "
                        "must then report it as failed")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="store the default seed's output fingerprints")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    fs = load_fransim()
    name = args.workload
    if args.setup_only:
        setup_once(fs, WORKLOADS[name](fs, WORK / f"{name}-setup", args.seed))
        return 0
    workload = WORKLOADS[name](fs, WORK / name, args.seed)
    checker = Checker(workload, args.seed)
    print("provenance " + json.dumps(provenance(args)))
    try:
        if args.record_golden:
            if args.seed != DEFAULT_SEED:
                parser.error("--record-golden needs the default seed")
            checker.golden = None
            setup_once(fs, workload)
            checker.run(fs, workload.commands())
            if checker.failed:
                print("\n".join(checker.problems), file=sys.stderr)
                return 1
            golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
            golden[name] = checker.first
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print(f"recorded {len(checker.first)} fingerprints for {name}")
            return 0
        spec = declared()
        if args.trace:
            metrics, sources, layout = traced_pass(fs, workload, args, checker)
            print("layers " + json.dumps({"sources": sources, **layout}))
            names = spec["per_layer"]
        else:
            metrics = end_to_end(fs, workload, args, checker)
            names = spec["end_to_end"]
        for problem in checker.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        emit(metrics, names, checker)
    finally:
        for path in (workload.work, WORK / SmallGrid.name,
                     WORK / SmallOracle.name, WORK / f"{name}-setup"):
            shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
