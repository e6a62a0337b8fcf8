"""The benchmark's lookup sites exist in the package.

``perfbench/spans.py`` times fransim's calls by replacing names in the
module or class that looks them up, reading each original from
``owner.__dict__``; untraced runs time each workload's ``timed_calls``
the same way in ``cli``.  A renamed or dropped name would only surface
as a ``KeyError`` in a benchmark run, so check every target here.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from fransim import cli, engine, oracle, plotting

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
