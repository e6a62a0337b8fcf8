"""Discrete-event simulator for named-data caching in fog radio
access networks, with an exact offline placement oracle."""

from .config import ScenarioConfig
from .engine import MetricsReport, Simulation, run_single, sweep
from .policies import PolicyConfig, ScoreRule
from .topology import Capacities, Catalog, Topology, build_topology
from .workload import ZipfSpec

__all__ = [
    "Capacities",
    "Catalog",
    "MetricsReport",
    "PolicyConfig",
    "ScenarioConfig",
    "ScoreRule",
    "Simulation",
    "Topology",
    "ZipfSpec",
    "build_topology",
    "run_single",
    "sweep",
]

__version__ = "0.1.0"
