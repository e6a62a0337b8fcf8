"""The four benchmark workloads: inputs, commands and output checks.

Each workload writes its scenario YAML (and, for the oracle, demand
CSVs) from the workload seed into its own work directory, then drives
``fransim.cli.main`` in-process.  Every simulated cache starts empty:
each command builds fresh ``Simulation`` objects, so no state carries
over between repetitions.  Simulated statistics are checked, never
timed: they must stay byte-identical, so they are correctness checks.

An operation is a grid cell (paper-grid, plus one for the charts), a
seed run (traced-run, wide-debug) or an oracle instance.  It fails if
its command raised or returned non-zero, or if its output fails a check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from math import comb
from pathlib import Path

# Hop cost of a request by serving tier, as the README defines avg_hops.
HOPS = {"hits_own": 0, "hits_d2d": 2, "hits_fap": 2, "hits_bbu": 4,
        "hits_producer": 6}
TIERS = tuple(HOPS)


@dataclass
class Op:
    """One checked operation: its id, what is wrong, and a fingerprint
    compared with the value recorded at the default seed."""

    id: str
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_rows(path: Path) -> tuple[list[dict], list[str]]:
    """CSV rows as dicts, and each data line as written."""
    text = path.read_text(encoding="utf-8")
    rows = list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()[1:]
    return rows, lines


def row_problems(row: dict, interests: int) -> list[str]:
    """Invariants every metrics row satisfies, computed without fransim."""
    tiers = [int(row[k]) for k in TIERS]
    total = int(row["total_interests"])
    problems = []
    if total != int(row["n_fues"]) * interests:
        problems.append(f"total_interests {total} != devices x interests")
    if sum(tiers) != total:
        problems.append(f"tier hits sum {sum(tiers)} != {total}")
    if int(row["cache_hits"]) != sum(tiers[:4]):
        problems.append("cache_hits != in-network tier hits")
    hops = sum(HOPS[k] * int(row[k]) for k in TIERS)
    if total and row["avg_hops"] != repr(hops / total):
        problems.append(f"avg_hops {row['avg_hops']} != {hops}/{total}")
    if int(row["fronthaul_packets"]) != 2 * (tiers[3] + tiers[4]):
        problems.append("fronthaul != 2 x (bbu + producer hits)")
    if row["d2d"] == "off" and tiers[1]:
        problems.append("D2D hits with D2D off")
    return problems


def _yaml(topology: str, workload: str, policy: str, run: str) -> str:
    return (f"topology: {topology}\nworkload: {workload}\n"
            f"policy: {policy}\nrun: {run}\n")


class Workload:
    name = ""
    why = ""
    jobs = 1  # worker processes of the timed command
    timed_calls: tuple[str, ...] = ()  # cli names timed in untraced runs

    def __init__(self, fs, work: Path, seed: int):
        self.fs = fs
        self.work = work
        self.seed = seed
        self.config = work / "scenario.yaml"

    # -- inputs -------------------------------------------------------

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(self.scenario_yaml(), encoding="utf-8")
        warm = self.work / "warmup.yaml"
        warm.write_text(self.warmup_yaml(), encoding="utf-8")

    def scenario_yaml(self) -> str:
        raise NotImplementedError

    def warmup_yaml(self) -> str:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        """The timed command: one or more ``fransim`` argument lists."""
        raise NotImplementedError

    def traced_commands(self) -> list[list[str]]:
        """The same command, run in one process for the traced pass."""
        return self.commands()

    def warmup_commands(self) -> list[list[str]]:
        raise NotImplementedError

    def clean(self) -> None:
        for path in self.outputs():
            path.unlink(missing_ok=True)

    def outputs(self) -> list[Path]:
        return []

    def trace_files(self) -> list[Path]:
        return []

    # -- results ------------------------------------------------------

    def work_units(self) -> int:
        """Operations' work per repetition: simulated requests, or
        placements searched plus assignments verified."""
        raise NotImplementedError

    def check(self, codes: list[int], stdouts: list[str]) -> list[Op]:
        raise NotImplementedError

    def rows(self) -> list[dict]:
        return []

    def tamper(self, stdouts: list[str]) -> list[str]:
        """Corrupt the first operation's output (``--tamper``)."""
        raise NotImplementedError

    def scenario(self):
        """(topology, ZipfSpec, policy config, cache_d2d_data) of one
        representative run, with D2D on, for the fixed-input drives."""
        cfg = self.fs.config.load_config(str(self.config))
        topo = self.fs.topology.build_topology(
            cfg.n_faps, cfg.fues_per_fap, cfg.capacities, True
        )
        spec = replace(cfg.zipf, seed=cfg.seeds[0])
        return topo, spec, cfg.policy_config, cfg.cache_d2d_data


class _RowsWorkload(Workload):
    """Shared checks for the workloads that write a metrics CSV."""

    interests = 2000

    @property
    def csv_path(self) -> Path:
        return self.work / "metrics.csv"

    def outputs(self) -> list[Path]:
        return [self.csv_path]

    def rows(self) -> list[dict]:
        try:
            return read_rows(self.csv_path)[0]
        except OSError:
            return []

    def _row_ops(self, expected: list[str], codes: list[int]) -> list[Op]:
        """One operation per expected row key, "policy/devices/d2d/seed"."""
        try:
            rows, lines = read_rows(self.csv_path)
        except (OSError, KeyError, ValueError) as exc:
            rows, lines = [], []
            missing = f"unreadable CSV: {exc}"
        else:
            missing = "row missing"
        found = {}
        for row, line in zip(rows, lines):
            key = f"{row['policy']}/{row['n_fues']}/{row['d2d']}/{row['seed']}"
            try:
                problems = row_problems(row, self.interests)
            except (KeyError, ValueError) as exc:
                problems = [f"malformed row: {exc}"]
            found[key] = Op(key, problems, line)
        ops = [found.get(key, Op(key, [missing])) for key in expected]
        if any(codes):
            for op in ops:
                op.problems.append(f"exit codes {codes}")
        return ops

    def tamper(self, stdouts):
        rows, lines = read_rows(self.csv_path)
        header = self.csv_path.read_text(encoding="utf-8").splitlines()[0]
        cells = lines[0].split(",")
        cells[6] = str(int(cells[6]) + 1)  # hits_own
        lines[0] = ",".join(cells)
        self.csv_path.write_text(
            "\r\n".join([header] + lines) + "\r\n", encoding="utf-8"
        )
        return stdouts


class PaperGrid(_RowsWorkload):
    name = "paper-grid"
    why = ("the paper's own factorial (3 policies x D2D off/on x 5..30:5 "
           "devices, catalog 100, Zipf 0.8), hit-heavy; only workload "
           "with the worker pool, repeated schedule builds and plotting")
    jobs = 2
    fues = (5, 10, 15, 20, 25, 30)
    policies = ("fifo", "lru", "rate-hop")

    def scenario_yaml(self) -> str:
        return _yaml(
            "{n_faps: 5, fues_per_fap: 6, capacities: {bbu: 8, fap: 4, fue: 2}}",
            "{exponent: 0.8, catalog_size: 100, "
            f"interests_per_fue: {self.interests}}}",
            "{name: rate-hop}",
            f"{{seeds: [{self.seed}], output: {self.csv_path}}}",
        )

    def warmup_yaml(self) -> str:
        return _yaml(
            "{n_faps: 5, fues_per_fap: 1}",
            "{catalog_size: 100, interests_per_fue: 50}",
            "{name: rate-hop}",
            f"{{seeds: [0], output: {self.work / 'warmup.csv'}}}",
        )

    def _argv(self, jobs: int) -> list[str]:
        return ["sweep", str(self.config), "--fues", ",".join(map(str, self.fues)),
                "--policies", ",".join(self.policies), "--d2d", "both",
                "--jobs", str(jobs), "--plot"]

    def commands(self):
        return [self._argv(self.jobs)]

    def traced_commands(self):
        return [self._argv(1)]

    def warmup_commands(self):
        return [["sweep", str(self.work / "warmup.yaml"), "--fues", "5",
                 "--d2d", "on", "--jobs", "1", "--plot"]]

    def charts(self) -> list[Path]:
        return [self.work / f"{metric}_d2d_{side}.svg"
                for metric in ("avg_hops", "cache_hits", "fronthaul_packets")
                for side in ("off", "on")]

    def outputs(self):
        return [self.csv_path] + self.charts()

    def work_units(self) -> int:
        return sum(self.fues) * self.interests * 2 * len(self.policies)

    def check(self, codes, stdouts):
        expected = [f"{p}/{n}/{d}/{self.seed}" for p in self.policies
                    for n in self.fues for d in ("off", "on")]
        ops = self._row_ops(expected, codes)
        plot = Op("charts")
        digest = hashlib.sha256()
        for chart in self.charts():
            try:
                root = ET.parse(chart).getroot()
            except (OSError, ET.ParseError) as exc:
                plot.problems.append(f"{chart.name}: {exc}")
                continue
            if not root.tag.endswith("svg") or len(root) < 3:
                plot.problems.append(f"{chart.name}: not a drawn chart")
            digest.update(chart.read_bytes())
        plot.fingerprint = digest.hexdigest()
        if any(codes):
            plot.problems.append(f"exit codes {codes}")
        return ops + [plot]


class _RunWorkload(_RowsWorkload):
    debug = False

    def commands(self):
        argv = ["run", str(self.config)]
        return [argv + ["--debug"] if self.debug else argv]

    def warmup_commands(self):
        argv = ["run", str(self.work / "warmup.yaml")]
        return [argv + ["--debug"] if self.debug else argv]

    def work_units(self) -> int:
        return self.devices * self.interests

    def check(self, codes, stdouts):
        return self._row_ops([f"rate-hop/{self.devices}/on/{self.seed}"],
                             codes)


class TracedRun(_RunWorkload):
    name = "traced-run"
    why = ("fransim run with the event trace on, 30-device paper scenario "
           "(rate-hop, D2D on); trace emission and per-record json.dumps "
           "dominate, so trace streaming and encoders show here")
    devices = 30

    def __init__(self, fs, work, seed):
        super().__init__(fs, work, seed)
        self._parsed: set[str] = set()

    def scenario_yaml(self) -> str:
        return _yaml(
            "{n_faps: 5, fues_per_fap: 6, capacities: {bbu: 8, fap: 4, fue: 2}, "
            "d2d_enabled: true}",
            "{exponent: 0.8, catalog_size: 100, interests_per_fue: 2000}",
            "{name: rate-hop}",
            f"{{seeds: [{self.seed}], trace: true, output: {self.csv_path}, "
            f"trace_output: {self.trace_files()[0]}}}",
        )

    def warmup_yaml(self) -> str:
        return _yaml(
            "{n_faps: 5, fues_per_fap: 1, d2d_enabled: true}",
            "{catalog_size: 100, interests_per_fue: 50}",
            "{name: rate-hop}",
            f"{{seeds: [0], trace: true, output: {self.work / 'warmup.csv'}, "
            f"trace_output: {self.work / 'warmup.jsonl'}}}",
        )

    def trace_files(self):
        return [self.work / "trace.jsonl"]

    def outputs(self):
        return [self.csv_path] + self.trace_files()

    def check(self, codes, stdouts):
        ops = super().check(codes, stdouts)
        for op, path in zip(ops, self.trace_files()):
            try:
                digest = sha256_file(path)
            except OSError as exc:
                op.problems.append(f"no trace: {exc}")
                continue
            op.fingerprint = hashlib.sha256(
                (op.fingerprint + "\n" + digest).encode()
            ).hexdigest()
            # Identical bytes need parsing once: later repetitions are
            # held to the first one's fingerprint.
            if digest not in self._parsed:
                op.problems += self._trace_problems(path)
                self._parsed.add(digest)
        return ops

    def _trace_problems(self, path: Path) -> list[str]:
        """``cli.demand_from_trace`` must count every scheduled request."""
        topo = self.scenario()[0]
        try:
            demand = self.fs.cli.demand_from_trace(str(path), topo)
        except self.fs.errors.ConfigError as exc:
            return [f"trace unreadable: {exc}"]
        issued: dict[int, float] = {}
        for (_name, fue), count in demand.base_rate.items():
            issued[fue] = issued.get(fue, 0.0) + count
        if issued != {fue: float(self.interests) for fue in topo.fues()}:
            return ["trace request counts per device differ from the "
                    "schedule"]
        return []

    def tamper(self, stdouts):
        with open(self.trace_files()[0], "a", encoding="utf-8") as handle:
            handle.write('{"kind": "interest", "name": "c1", "node": 7, '
                         '"outcome": "forwarded", "seq": 0, "time": 0.0}\n')
        return stdouts


class WideDebug(_RunWorkload):
    name = "wide-debug"
    why = ("fransim run --debug, 5 F-APs x 30 devices, catalog 10000, "
           "Zipf 0.6, rate-hop with D2D re-caching: miss-heavy, with "
           "wide refresh ticks and whole-group debug checks")
    debug = True
    devices = 150
    interests = 400

    def scenario_yaml(self) -> str:
        return _yaml(
            "{n_faps: 5, fues_per_fap: 30, capacities: {bbu: 8, fap: 4, fue: 2}, "
            "d2d_enabled: true, cache_d2d_data: true}",
            f"{{exponent: 0.6, catalog_size: 10000, "
            f"interests_per_fue: {self.interests}}}",
            "{name: rate-hop}",
            f"{{seeds: [{self.seed}], output: {self.csv_path}}}",
        )

    def warmup_yaml(self) -> str:
        return _yaml(
            "{n_faps: 5, fues_per_fap: 2, d2d_enabled: true, "
            "cache_d2d_data: true}",
            "{exponent: 0.6, catalog_size: 10000, interests_per_fue: 20}",
            "{name: rate-hop}",
            f"{{seeds: [0], output: {self.work / 'warmup.csv'}}}",
        )


class Oracle(Workload):
    name = "oracle"
    why = ("fransim oracle on two seed-made 2 F-AP x 1 device instances "
           "(20 variables solved; 15 solved, linearized and verified); "
           "runs no engine code")
    timed_calls = ("brute_force_optimal", "verify_linearization")
    caps = {"bbu": 2, "fap": 2, "fue": 1}
    # Contents per instance; the last instance is also linearized and
    # verified.  Both stay under oracle.ENUMERATION_LIMIT (24 variables)
    # on purpose: the guard admits 24, but verifying that many takes hours.
    contents = (4, 3)

    def demand_path(self, i: int) -> Path:
        return self.work / f"demand{i + 1}.csv"

    @property
    def lp_path(self) -> Path:
        return self.work / "program.txt"

    def scenario_yaml(self) -> str:
        caps = ", ".join(f"{tier}: {n}" for tier, n in self.caps.items())
        return _yaml(
            f"{{n_faps: 2, fues_per_fap: 1, capacities: {{{caps}}}}}",
            "{}", "{}", "{}",
        )

    def warmup_yaml(self) -> str:
        return self.scenario_yaml()

    def demands(self, seed: int) -> list[dict[tuple[str, str], int]]:
        rng = random.Random(seed)
        return [
            {(f"c{c}", f"fue{u}"): rng.randint(1, 20)
             for c in range(1, k + 1) for u in (1, 2)}
            for k in self.contents
        ]

    def prepare(self) -> None:
        super().prepare()
        for i, table in enumerate(self.demands(self.seed)):
            lines = ["name,fue,rate"] + [
                f"{name},{fue},{rate}" for (name, fue), rate in table.items()
            ]
            self.demand_path(i).write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
        warm = self.work / "warmup_demand.csv"
        warm.write_text("name,fue,rate\nc1,fue1,1\n", encoding="utf-8")

    def commands(self):
        argvs = [["oracle", str(self.config), "--demand",
                  str(self.demand_path(i))] for i in range(len(self.contents))]
        argvs[-1] += ["--verify-linearization", "--lp-out", str(self.lp_path)]
        return argvs

    def warmup_commands(self):
        return [["oracle", str(self.work / "warmup.yaml"), "--demand",
                 str(self.work / "warmup_demand.csv"),
                 "--verify-linearization"]]

    def outputs(self):
        return [self.lp_path]

    def work_units(self) -> int:
        return (sum(placements(self.caps, k) for k in self.contents)
                + 2 ** variables(self.contents[-1]))

    def check(self, codes, stdouts):
        ops = []
        for i, (table, code, out) in enumerate(
            zip(self.demands(self.seed), codes, stdouts)
        ):
            op = Op(f"instance{i + 1}", [], hashlib.sha256(out.encode()).hexdigest())
            if code != 0:
                op.problems.append(f"exit code {code}")
            op.problems += self._solution_problems(table, out)
            if i == len(self.contents) - 1:
                n = 2 ** variables(self.contents[-1])
                if f"linearization over {n} assignments: exact" not in out:
                    op.problems.append("verifier did not report exact over "
                                       f"{n} assignments")
                try:
                    text = self.lp_path.read_text(encoding="utf-8")
                except OSError as exc:
                    op.problems.append(f"no LP file: {exc}")
                else:
                    if not text.startswith("maximize:"):
                        op.problems.append("LP file is not a program")
                    op.fingerprint = hashlib.sha256(
                        (op.fingerprint + text).encode()
                    ).hexdigest()
            ops.append(op)
        return ops

    def _solution_problems(self, table, out: str) -> list[str]:
        """Check the printed placement is feasible and scores the printed
        optimum, with an objective written here from the paper's model."""
        lines = out.splitlines()
        if not lines or not lines[0].startswith("optimal = "):
            return ["no optimum printed"]
        placed = set()
        for line in lines[1:]:
            if " @ " in line:
                name, label = line.strip().split(" @ ")
                placed.add((name, label))
        used: dict[str, int] = {}
        for _name, label in placed:
            used[label] = used.get(label, 0) + 1
        problems = [f"{label} over capacity" for label, n in used.items()
                    if n > self.caps[label.rstrip("0123456789")]]
        value = _placement_value(table, placed)
        if f"optimal = {value:g}" != lines[0]:
            problems.append(f"{lines[0]!r} but the placement scores {value:g}")
        if not placed and value == 0 and table:
            problems.append("empty placement")
        return problems

    def tamper(self, stdouts):
        first = stdouts[0].splitlines()
        first[0] = first[0] + "1"
        return ["\n".join(first) + "\n"] + stdouts[1:]

    def scenario(self):
        topo = self.fs.topology.build_topology(
            2, [1, 1], self.fs.topology.Capacities(**self.caps), True
        )
        return (topo, self.fs.workload.ZipfSpec(seed=self.seed),
                self.fs.policies.PolicyConfig(), False)

    def verified_instance(self):
        """(topology, DemandSpec) of the verified instance, for the drives."""
        topo = self.fs.topology.build_topology(
            2, [1, 1], self.fs.topology.Capacities(**self.caps), False
        )
        ids = topo.label_to_id
        table = self.demands(self.seed)[-1]
        demand = self.fs.oracle.DemandSpec(
            {(name, ids[fue]): float(r) for (name, fue), r in table.items()}
        )
        return topo, demand


def placements(caps: dict[str, int], k: int) -> int:
    """Feasible placements brute force enumerates for k contents on the
    2 F-AP x 1 device tree: the product of each store's subset count."""
    per = {role: sum(comb(k, s) for s in range(min(cap, k) + 1))
           for role, cap in caps.items()}
    return per["bbu"] * per["fap"] ** 2 * per["fue"] ** 2


def variables(k: int) -> int:
    """Placement variables for k contents: BBU, two F-APs, two devices."""
    return k * 5


def _placement_value(table, placed) -> float:
    """Objective of the paper's placement model for the 2 F-AP x 1 device
    tree: demand thins by (1 - x) at each copy it passes, and each copy
    earns the demand reaching it times its hop distance from the core
    (F-AP 2, BBU 1).  Device i hangs under access point i."""
    value = 0.0
    for name in sorted({n for n, _ in table}):
        at_bbu = 0.0
        for i in (1, 2):
            # A device copy absorbs its own demand, so it earns nothing.
            rate = table.get((name, f"fue{i}"), 0)
            rate *= (name, f"fue{i}") not in placed
            fap = (name, f"fap{i}") in placed
            value += 2 * rate * fap
            at_bbu += rate * (not fap)
        value += 1 * at_bbu * ((name, "bbu") in placed)
    return value


class SmallGrid(PaperGrid):
    """A small serial sweep with charts.  The traced pass uses it for the
    sweep, schedule and plotting layers when the workload's own command
    does not reach them."""

    name = "small-grid"
    fues = (5, 10)
    interests = 300


class SmallOracle(Oracle):
    """One 10-variable instance, solved, linearized and verified; the
    traced pass's stand-in for the oracle layer."""

    name = "small-oracle"
    contents = (2,)


WORKLOADS = {w.name: w for w in (PaperGrid, TracedRun, WideDebug, Oracle)}
