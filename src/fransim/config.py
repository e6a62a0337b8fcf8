"""Scenario configuration: one YAML file drives a whole experiment.

The file has four blocks (topology, workload, policy, run), each
mapping 1:1 onto the owning module's parameters.  Parsing is strict:
unknown keys anywhere are rejected so typos in sweep scripts fail fast
instead of silently running the default.

Example:

    topology:
      n_faps: 5
      fues_per_fap: 6
      capacities: {bbu: 8, fap: 4, fue: 2}
      d2d_enabled: true
    workload:
      exponent: 0.8
      catalog_size: 100
      interests_per_fue: 2000
      inter_arrival: 1.0
    policy:
      name: rate-hop
      tau: 100.0
      alpha: 1.0
      beta: 1.0
      score_rule: rate-times-fetch-hops
    run:
      seeds: [0, 1, 2]
      trace: false
      output: metrics.csv
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

import yaml

from .errors import ConfigError
from .policies import POLICY_NAMES, PolicyConfig
from .topology import Capacities, Topology
from .workload import ZipfSpec

_TOPOLOGY_KEYS = {
    "n_faps", "fues_per_fap", "capacities", "d2d_enabled", "cache_d2d_data",
}
_RUN_KEYS = {"seeds", "trace", "output", "trace_output"}
_TOP_KEYS = {"topology", "workload", "policy", "run"}
# A run fires one refresh tick per tau until its last arrival; more than
# this many per arrival step is refused, as a tau far shorter than the
# inter-arrival time would spend the run ticking.
MAX_TICKS_PER_STEP = 1000


@dataclass
class ScenarioConfig:
    """One scenario's settings, checked when built (``ConfigError``);
    with a seed, the unit of every run."""

    fues_per_fap: list[int] = field(default_factory=lambda: [6] * 5)
    capacities: Capacities = field(default_factory=Capacities)
    d2d_enabled: bool = False
    cache_d2d_data: bool = False
    zipf: ZipfSpec = field(default_factory=ZipfSpec)
    policy: str = "rate-hop"
    policy_config: PolicyConfig = field(default_factory=PolicyConfig)
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    trace: bool = False
    output: str = "metrics.csv"
    trace_output: str = "trace.jsonl"

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; policy.name must be one "
                f"of {', '.join(POLICY_NAMES)}"
            )
        fues = self.fues_per_fap
        if not isinstance(fues, list) or not all(map(is_int, fues)):
            raise ConfigError("topology.fues_per_fap must be a list of ints")
        seeds = self.seeds
        if not isinstance(seeds, list) or not seeds or not all(
            map(is_int, seeds)
        ):
            raise ConfigError("run.seeds must be a non-empty list of ints")
        low = min(seeds)
        if low < 0:
            raise ConfigError(f"run.seeds must be non-negative, got {low}")
        repeat = first_repeat(seeds)
        if repeat is not None:
            raise ConfigError(f"run.seeds lists seed {repeat} twice")
        steps = self.zipf.interests_per_fue
        tau, gap = self.policy_config.tau, self.zipf.inter_arrival
        # The quotient itself, not its floor: with a tiny tau it is inf.
        if (steps - 1) * gap / tau > MAX_TICKS_PER_STEP * steps:
            raise ConfigError(
                f"policy.tau {tau!r} is too short for workload.inter_arrival "
                f"{gap!r}: the run would fire more than {MAX_TICKS_PER_STEP} "
                "refresh ticks per arrival step"
            )
        try:
            self.topology()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def n_faps(self) -> int:
        return len(self.fues_per_fap)

    def topology(self) -> Topology:
        """The tree; ``ValueError`` if the device counts make none."""
        return Topology(self.fues_per_fap, self.capacities, self.d2d_enabled)


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}"
        )


def _typed(block: dict, key: str, default, where: str):
    """``block[key]`` if present, else ``default``, whose type decides
    what is accepted: an int may stand for a float, a boolean never
    stands for a number, and an enum member is given by its value."""
    if key not in block:
        return default
    value = block[key]
    kind = type(default)
    if isinstance(default, Enum):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(
                f"{where}.{key} must be one of "
                f"{', '.join(member.value for member in kind)}"
            ) from None
    if isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}.{key} must not be a boolean")
    if not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where}.{key} has the wrong type")
    return kind(value)


def _read_block(cls, raw, where: str):
    """Build dataclass ``cls`` from a YAML block keyed by its field
    names, taking each missing value from the class default."""
    block = _require_mapping(raw, where)
    _reject_unknown(block, {f.name for f in fields(cls)}, where)
    defaults = cls()
    values = {
        key: _typed(block, key, getattr(defaults, key), where) for key in block
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def first_repeat(values):
    """The first value in ``values`` that repeats an earlier one, or None."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return parse_config(raw if raw is not None else {})


def parse_config(raw: dict) -> ScenarioConfig:
    raw = _require_mapping(raw, "config")
    _reject_unknown(raw, _TOP_KEYS, "config")
    defaults = ScenarioConfig()

    topo = _require_mapping(raw.get("topology"), "topology")
    _reject_unknown(topo, _TOPOLOGY_KEYS, "topology")
    # The default device counts are uniform, so an access-point count
    # alone repeats the first of them.
    fues = topo.get("fues_per_fap", defaults.fues_per_fap[0])
    if isinstance(fues, bool) or not isinstance(fues, (int, list)):
        raise ConfigError("topology.fues_per_fap must be an int or a list")
    # A list of device counts, unless empty, implies the access points.
    implied = len(fues) if isinstance(fues, list) and fues else defaults.n_faps
    n_faps = _typed(topo, "n_faps", implied, "topology")
    if n_faps < 1:
        raise ConfigError("topology.n_faps must be positive")
    if isinstance(fues, int):
        fues = [fues] * n_faps
    elif len(fues) != n_faps or not all(map(is_int, fues)):
        raise ConfigError(
            "topology.fues_per_fap must list one int per access point"
        )

    wl = _require_mapping(raw.get("workload"), "workload")
    zipf = _read_block(ZipfSpec, wl, "workload")

    pol = dict(_require_mapping(raw.get("policy"), "policy"))
    policy = _typed(pol, "name", defaults.policy, "policy")
    pol.pop("name", None)

    run = _require_mapping(raw.get("run"), "run")
    _reject_unknown(run, _RUN_KEYS, "run")
    seeds = [zipf.seed] if "seed" in wl else defaults.seeds
    return ScenarioConfig(
        fues_per_fap=list(fues),
        capacities=_read_block(
            Capacities, topo.get("capacities"), "topology.capacities"
        ),
        zipf=zipf,
        policy=policy,
        policy_config=_read_block(PolicyConfig, pol, "policy"),
        seeds=run.get("seeds", seeds),
        **{key: _typed(topo, key, getattr(defaults, key), "topology")
           for key in ("d2d_enabled", "cache_d2d_data")},
        **{key: _typed(run, key, getattr(defaults, key), "run")
           for key in ("trace", "output", "trace_output")},
    )
