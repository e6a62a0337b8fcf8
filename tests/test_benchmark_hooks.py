"""The benchmark's lookup sites exist in the package.

``perfbench/spans.py`` times fransim's calls by replacing names in the
module or class that looks them up, reading each original from
``owner.__dict__``.  A renamed or dropped name would only surface as a
``KeyError`` in a traced benchmark run, so check every target here.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from fransim import cli, engine, oracle, plotting

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_defined_where_it_is_looked_up():
    fs = SimpleNamespace(cli=cli, engine=engine, oracle=oracle,
                         plotting=plotting)
    targets = load_spans().targets(fs)
    assert targets
    for owner, attr, name, _key in targets:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"
        assert callable(owner.__dict__[attr]), name
