"""The benchmark's lookup sites and drives work against the package.

``perfbench/spans.py`` times fransim's calls by replacing names in the
module or class that looks them up, reading each original from
``owner.__dict__``; untraced runs time each workload's ``timed_calls``
the same way in ``cli``.  A renamed or dropped name would only surface
as a ``KeyError`` in a benchmark run, so check every target here, and
run one traced sweep to check that the spans the traced pass reads are
recorded where it expects them.
``perfbench/drives.py`` builds simulations and oracle inputs itself;
running each drive on tiny inputs catches a break in the engine or
oracle surface it uses before a benchmark pass does.  Each workload's
command also runs here once at the default seed, so output that no
longer matches ``perfbench/golden.json`` fails the suite, not only a
benchmark pass.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from fransim import (
    cli, config, engine, errors, oracle, plotting, policies, topology, workload,
)
from fransim.oracle import DemandSpec
from fransim.policies import POLICY_NAMES, PolicyConfig
from fransim.topology import Capacities, build_topology
from fransim.workload import ZipfSpec, build_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_defined_where_it_is_looked_up():
    fs = SimpleNamespace(cli=cli, engine=engine, oracle=oracle,
                         plotting=plotting)
    targets = load("spans").targets(fs)
    assert targets
    for owner, attr, name, _key in targets:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"
        assert callable(owner.__dict__[attr]), name


def test_every_timed_call_is_a_cli_function():
    workloads = load("workloads").WORKLOADS.values()
    timed = {name for workload in workloads for name in workload.timed_calls}
    assert timed
    for name in timed:
        assert callable(cli.__dict__.get(name)), f"cli.{name}"


def test_every_drive_runs_on_tiny_inputs():
    drives = load("drives")
    fs = SimpleNamespace(engine=engine, oracle=oracle, policies=policies,
                         topology=topology, workload=workload)
    for tier in drives.TIER_TREES:
        assert drives.request_us(fs, tier, batch=20) > 0

    topo = build_topology(2, [2, 3], Capacities(bbu=3, fap=2, fue=1), True)
    spec = ZipfSpec(catalog_size=20, interests_per_fue=40)
    config = PolicyConfig(tau=5.0)
    schedule = build_schedule(spec, topo.fues())
    assert drives.tick_ms(fs, topo, spec.catalog_size, config) > 0
    for policy in POLICY_NAMES:
        seconds, report = drives.replay(fs, topo, spec, schedule, policy,
                                        config, True)
        assert seconds > 0
        assert report.total_interests == len(schedule)
    ratios = drives.replay_ratios(fs, topo, spec, schedule, config, True,
                                  rounds=1)
    assert set(ratios) == {"debug_ratio", "trace_ratio"}
    offers, rejects = drives.admission(fs, topo, spec, schedule, config,
                                       True, limit=100)
    assert 0 <= rejects <= offers and offers > 0
    assert drives.schedule_mb(fs, spec, topo.fues()) > 0

    small = build_topology(2, [1, 1], Capacities(bbu=2, fap=1, fue=0))
    u1, u2 = small.fues()
    demand = DemandSpec({("c1", u1): 1.0, ("c2", u2): 2.0, ("c1", u2): 0.5})
    assert drives.objective_us(fs, small, demand, evaluations=20) > 0
    z_vars, constraints = drives.program_size(fs, small, demand)
    assert z_vars > 0 and constraints > 0


def test_traced_sweep_records_the_spans_the_benchmark_reads(tmp_path):
    # ``perfbench/run.py`` takes medians over these spans, which raises
    # when a traced pass records none of them.
    spans = load("spans")
    fs = SimpleNamespace(cli=cli, engine=engine, oracle=oracle,
                         plotting=plotting)
    cfg = tmp_path / "s.yaml"
    cfg.write_text(
        "topology: {n_faps: 2}\n"
        "workload: {catalog_size: 10, interests_per_fue: 20}\n"
        "policy: {tau: 5}\n"
        "run: {seeds: [0]}\n",
        encoding="utf-8",
    )
    argv = ["sweep", str(cfg), "--fues", "2", "--d2d", "on",
            "--output", str(tmp_path / "m.csv")]
    with spans.patched(fs, spans.Recorder()) as rec:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == cli.EXIT_OK
    for name in ("engine.run_single", "workload.build_schedule",
                 "engine.Simulation.run_schedule", "engine.Simulation.tick"):
        assert rec.named(name), name
    for build in rec.named("workload.build_schedule"):
        assert rec.spans[build[3]][0] == "engine.run_single"


@pytest.mark.parametrize("name", sorted(load("workloads").WORKLOADS))
def test_workload_output_matches_the_golden_fingerprints(
    tmp_path, monkeypatch, name
):
    fs = SimpleNamespace(cli=cli, config=config, engine=engine, errors=errors,
                         oracle=oracle, plotting=plotting, policies=policies,
                         topology=topology, workload=workload)
    # Printed paths are part of the output: use the benchmark's own
    # relative work directory, as ``perfbench/run.py`` does.
    monkeypatch.chdir(tmp_path)
    work = Path(".perfbench_work") / name
    bench = load("workloads").WORKLOADS[name](fs, work, 0)
    bench.prepare()
    codes, stdouts = [], []
    for argv in bench.commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(cli.main(argv))
        stdouts.append(out.getvalue())
    ops = bench.check(codes, stdouts)
    assert [(op.id, op.problems) for op in ops if op.problems] == []
    golden = json.loads((PERFBENCH / "golden.json").read_text())[name]
    assert {op.id: op.fingerprint for op in ops} == golden
