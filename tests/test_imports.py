"""The import graph follows the work: no command loads numpy, which the
schedules do not need, and multiprocessing loads only when ``sweep``
starts a pool.

Each case runs ``python -X importtime -m fransim`` in a fresh
interpreter and reads the modules it loaded from standard error.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

FILES = {
    "o.yaml": """\
        topology:
          n_faps: 2
          fues_per_fap: 1
          capacities: {bbu: 2, fap: 1, fue: 0}
        workload:
          catalog_size: 5
        """,
    "d.csv": """\
        name,fue,rate
        c1,fue1,3
        c2,fue2,1
        """,
    "s.yaml": """\
        topology:
          n_faps: 2
          capacities: {bbu: 4, fap: 2, fue: 1}
        workload:
          catalog_size: 20
          interests_per_fue: 40
        run:
          seeds: [0]
        """,
}


def python(tmp_path, *argv):
    """Run ``python *argv`` on this checkout's ``src``, in ``tmp_path``;
    return the finished process."""
    for name, text in FILES.items():
        (tmp_path / name).write_text(textwrap.dedent(text), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )


def imported(tmp_path, *argv) -> set[str]:
    """The top-level packages ``python -X importtime *argv`` loads."""
    done = python(tmp_path, "-X", "importtime", *argv)
    assert done.returncode == 0, done.stderr
    return {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


ORACLE = ["oracle", "o.yaml", "--demand", "d.csv",
          "--verify-linearization", "--lp-out", "p.lp"]
SWEEP = ["sweep", "s.yaml", "--fues", "2", "--policies", "fifo", "--d2d",
         "off", "--jobs", "1", "--output", "m.csv"]
RUN = ["run", "s.yaml", "--output", "m.csv"]


@pytest.mark.parametrize("argv,loads,skips", [
    (["-c", "import fransim"], set(), {"numpy", "multiprocessing"}),
    (["-m", "fransim", *ORACLE], set(), {"numpy", "multiprocessing"}),
    # Building schedules needs neither numpy nor, serially, a pool.
    (["-m", "fransim", *SWEEP], set(), {"numpy", "multiprocessing"}),
    (["-m", "fransim", *RUN], set(), {"numpy", "multiprocessing"}),
], ids=["import", "oracle", "sweep-serial", "run"])
def test_commands_load_only_what_they_use(tmp_path, argv, loads, skips):
    modules = imported(tmp_path, *argv)
    assert "fransim" in modules
    assert loads <= modules
    assert not skips & modules


def test_a_scripted_simulation_never_loads_numpy(tmp_path):
    script = textwrap.dedent("""\
        import sys
        from fransim import Simulation, Catalog, build_topology, Capacities
        topo = build_topology(1, 2, Capacities(2, 1, 1))
        lines = []
        sim = Simulation(topo, Catalog(3), "fifo", trace=lines)
        fue = topo.fues()[0]
        sim.request(fue, "c1", 0)
        sim.tick(1.5)
        sim.run_schedule([(2.0, fue, "c2"), (2.0, fue + 1, "c1")])
        assert lines
        assert "numpy" not in sys.modules
        """)
    done = python(tmp_path, "-c", script)
    assert done.returncode == 0, done.stderr


def test_python_dash_m_runs_the_command_line(tmp_path):
    done = python(tmp_path, "-m", "fransim", *ORACLE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "optimal = 8"
    assert done.stdout.splitlines()[-1] == (
        "linearization over 1024 assignments: exact"
    )
    assert (tmp_path / "p.lp").read_text().startswith("maximize:")
    usage = python(tmp_path, "-m", "fransim")
    assert usage.returncode == 2
    assert usage.stderr.startswith("usage: fransim ")
