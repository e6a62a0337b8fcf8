"""Command-line front end.

Three verbs: ``run`` replays one scenario per seed and writes a
metrics CSV; ``sweep`` runs a policy/device-count/D2D grid and can
render SVG charts; ``oracle`` solves the offline placement problem
exactly for a small instance given a demand table.

Exit codes: 0 success, 2 invalid configuration, 3 runtime invariant
violation, 4 oracle instance too large for exhaustive search.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

from . import engine, plotting
from .config import ScenarioConfig, load_config
from .errors import ConfigError, InstanceTooLarge, InvariantViolation
from .oracle import (
    DemandSpec,
    brute_force_optimal,
    check_row,
    linearize,
    verify_linearization,
)
from .policies import POLICY_NAMES
from .topology import NodeRole, Topology
# Not called here: perfbench/spans.py patches this name in this module.
from .workload import build_schedule

CSV_COLUMNS = tuple(
    engine.metrics_row(ScenarioConfig(), 0, engine.MetricsReport())
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_TOO_LARGE = 4


def _format_row(row: dict) -> dict:
    out = dict(row)
    out["d2d"] = "on" if row["d2d"] else "off"
    out["avg_hops"] = repr(float(row["avg_hops"]))
    return out


@contextmanager
def _writing(path: str | Path, newline: str | None = None,
             buffering: int = -1):
    """Open an output file; failing to write it is a configuration error."""
    try:
        with open(path, "w", buffering, "utf-8", newline=newline) as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_rows(handle, rows) -> None:
    """Write metrics rows as CSV, each as soon as ``rows`` yields it."""
    writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(_format_row(row))


def _trace_path(base: str, seed: int, many: bool) -> str:
    if not many:
        return base
    path = Path(base)
    return str(path.with_name(f"{path.stem}_seed{seed}{path.suffix}"))


def _refuse_config_overwrite(config: str, outputs, inputs=()) -> None:
    """Refuse any of ``outputs``, (what, path) pairs, that is the
    config file the command was read from, one of ``inputs``, the
    (what, path) pairs of the other files it reads, or an earlier
    output.  Paths are compared after ``Path.resolve()``, so a symlink
    is the file it points to."""
    sources = [
        (Path(path).resolve(), what, path)
        for what, path in (("config file", config), *inputs)
    ]
    for what, path in outputs:
        target = Path(path).resolve()
        for source, noun, name in sources:
            if target == source:
                raise ConfigError(f"{what} {path} is the {noun} {name}")
        sources.append((target, what, path))


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.output:
        cfg.output = args.output
    many = len(cfg.seeds) > 1
    traces = {seed: _trace_path(cfg.trace_output, seed, many)
              for seed in cfg.seeds} if cfg.trace else {}
    _refuse_config_overwrite(args.config, [
        ("metrics CSV path", cfg.output),
        *(("trace path", path) for path in traces.values()),
    ])

    def rows():
        for seed in cfg.seeds:
            with ExitStack() as files:
                trace = None
                if seed in traces:
                    # A large buffer: a request's lines are one write
                    # of a few hundred bytes.
                    trace = files.enter_context(
                        _writing(traces[seed], buffering=1 << 20)
                    ).write
                report = engine.run_single(
                    cfg, seed, debug=args.debug, trace=trace
                )
            yield engine.metrics_row(cfg, seed, report)

    with _writing(cfg.output, newline="") as handle:
        _write_rows(handle, rows())
    print(f"wrote {len(cfg.seeds)} rows to {cfg.output}")
    return EXIT_OK


def _parse_fues(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            span, _, step_text = text.partition(":")
            start_text, _, stop_text = span.partition("..")
            start, stop = int(start_text), int(stop_text)
            step = int(step_text) if step_text else 5
            if step < 1 or stop < start:
                raise ValueError
            return list(range(start, stop + 1, step))
        counts = [int(part) for part in text.split(",") if part.strip()]
        if not counts or min(counts) < 1:
            raise ValueError
        return counts
    except ValueError:
        raise ConfigError(
            f"cannot parse device counts {text!r}; use e.g. 5..30:5 or "
            "5,10,20"
        ) from None


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    if args.output:
        cfg.output = args.output
    fue_counts = _parse_fues(args.fues)
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    d2d_options = {
        "both": (False, True), "off": (False,), "on": (True,),
    }[args.d2d]
    charts = plotting.chart_names(d2d_options) if args.plot else ()
    out_dir = Path(cfg.output).parent
    _refuse_config_overwrite(args.config, [
        ("metrics CSV path", cfg.output),
        *(("--plot chart", out_dir / name) for name in sorted(charts)),
    ])
    # Check the grid, then create the CSV, both before any cell runs:
    # a bad grid leaves no file, and a CSV path that cannot be written
    # fails at once rather than after the last cell.
    engine.grid_groups(cfg, fue_counts, policies, d2d_options)
    with _writing(cfg.output, newline="") as handle:
        rows = engine.sweep(
            cfg, fue_counts, policies, d2d_options,
            debug=args.debug, n_jobs=args.jobs,
        )
        _write_rows(handle, rows)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    if args.plot:
        for filename, svg in sorted(plotting.sweep_charts(rows).items()):
            target = out_dir / filename
            with _writing(target) as handle:
                handle.write(svg)
            print(f"wrote {target}")
    return EXIT_OK


def load_demand_csv(path: str, topo: Topology) -> DemandSpec:
    """Read a (name, fue, rate) table; devices by label or node id."""
    base: dict[tuple[str, int], float] = {}
    first_line: dict[tuple[str, int], int] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or set(reader.fieldnames) != {
                "name", "fue", "rate",
            }:
                raise ConfigError(
                    f"demand table {path} must have columns name,fue,rate"
                )
            for line in reader:
                where = f"bad demand table {path}, line {reader.line_num}"
                if None in line or None in line.values():
                    raise ConfigError(
                        f"{where}: expected the three fields name,fue,rate"
                    )
                device = line["fue"].strip()
                try:
                    fue = _node_id(device, topo)
                except ValueError:
                    raise ConfigError(
                        f"{where}: unknown device {device!r}"
                    ) from None
                key = (line["name"].strip(), fue)
                try:
                    rate = float(line["rate"])
                except ValueError:
                    raise ConfigError(
                        f"{where}: rate {line['rate'].strip()!r} is not a "
                        "number"
                    ) from None
                try:
                    check_row(key[0], fue, rate, topo)
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from None
                if key in first_line:
                    raise ConfigError(
                        f"bad demand table {path}, lines {first_line[key]} "
                        f"and {reader.line_num}: both give content "
                        f"{key[0]} at device {device}"
                    )
                first_line[key] = reader.line_num
                base[key] = rate
    except OSError as exc:
        raise ConfigError(f"cannot read demand table {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad demand table {path}: {exc}") from exc
    return DemandSpec(base)


# The outcomes an interest record can have at a node of each role.
_INTEREST_OUTCOMES = {
    NodeRole.FUE: ("own-hit", "forwarded"),
    NodeRole.FAP: ("cs-hit", "d2d", "forwarded"),
    NodeRole.BBU_POOL: ("cs-hit", "d2d", "forwarded"),
    NodeRole.PRODUCER: ("origin",),
}


def demand_from_trace(path: str, topo: Topology) -> DemandSpec:
    """Empirical demand: requests issued per (content, device) in an
    event-trace file written by ``run`` with trace enabled.

    The trace must come from ``topo``'s tree: an interest record whose
    node is not in it, or whose outcome does not fit that node's role,
    is a ``ConfigError`` that names the line and the node, as is a
    device's request for a blank content name."""
    counts: dict[tuple[str, int], float] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ConfigError(
                        f"bad trace {path}, line {number}: not a JSON object"
                    )
                if record.get("kind") != "interest":
                    continue
                where = f"bad trace {path}, line {number}"
                node, name = record.get("node"), record.get("name")
                outcome = record.get("outcome")
                if type(node) is not int or not isinstance(name, str):
                    raise ConfigError(
                        f"{where}: an interest record needs an integer node "
                        "and a string name"
                    )
                if not 0 <= node < len(topo):
                    raise ConfigError(
                        f"{where}: node {node} is not in the configured tree"
                    )
                role = topo.roles[node]
                if outcome not in _INTEREST_OUTCOMES[role]:
                    raise ConfigError(
                        f"{where}: outcome {outcome!r} cannot occur at node "
                        f"{node}, which is {topo.labels[node]} in the "
                        "configured tree"
                    )
                if role is NodeRole.FUE:
                    if (name, node) not in counts:
                        try:
                            check_row(name, node, 0.0, topo)
                        except ValueError as exc:
                            raise ConfigError(f"{where}: {exc}") from None
                    counts[(name, node)] = counts.get((name, node), 0.0) + 1.0
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    return DemandSpec(counts)


def _node_id(text: str, topo: Topology) -> int:
    if text in topo.label_to_id:
        return topo.label_to_id[text]
    return int(text)


def cmd_oracle(args) -> int:
    topo = load_config(args.config).topology()
    if args.demand and args.demand_from_trace:
        raise ConfigError(
            "oracle takes --demand or --demand-from-trace, not both"
        )
    if args.demand:
        source, read = ("demand table", args.demand), load_demand_csv
    elif args.demand_from_trace:
        source, read = ("trace", args.demand_from_trace), demand_from_trace
    else:
        raise ConfigError("oracle needs --demand or --demand-from-trace")
    if args.lp_out:
        _refuse_config_overwrite(
            args.config, [("--lp-out path", args.lp_out)], [source]
        )
    demand = read(source[1], topo)
    try:
        placement, value = brute_force_optimal(topo, demand)
    except ValueError as exc:  # the demand does not fit the topology
        raise ConfigError(str(exc)) from exc
    print(f"optimal = {value:g}")
    chosen = sorted(
        (name, topo.labels[node]) for (name, node), x in placement.items() if x
    )
    if chosen:
        for name, label in chosen:
            print(f"  {name} @ {label}")
    else:
        print("  (empty placement)")
    program = None
    if args.lp_out:
        program = linearize(topo, demand)
        with _writing(args.lp_out) as handle:
            handle.write(program.to_text())
        print(f"wrote {args.lp_out}")
    if args.verify_linearization:
        result = verify_linearization(topo, demand, program)
        verdict = "exact" if result else f"MISMATCH: {result.message}"
        print(
            f"linearization over {result.checked} assignments: {verdict}"
        )
        if not result:
            return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fransim",
        description="Named-data fog-RAN caching simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario per seed")
    p_run.add_argument("config", help="scenario YAML file")
    p_run.add_argument("--output", help="metrics CSV path (overrides config)")
    p_run.add_argument(
        "--debug", action="store_true",
        help="enable runtime consistency checks",
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a factorial grid")
    p_sweep.add_argument("config", help="scenario YAML file")
    p_sweep.add_argument(
        "--fues", default="5..30:5",
        help="device counts: 5..30:5 or a comma list (default 5..30:5)",
    )
    p_sweep.add_argument(
        "--policies", default=",".join(POLICY_NAMES),
        help="comma-separated policies (default all)",
    )
    p_sweep.add_argument(
        "--d2d", choices=("both", "on", "off"), default="both",
        help="which D2D settings to run (default both)",
    )
    p_sweep.add_argument(
        "--plot", action="store_true",
        help="write one SVG chart per metric and D2D setting",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    p_sweep.add_argument("--output", help="metrics CSV path")
    p_sweep.add_argument(
        "--debug", action="store_true",
        help="enable runtime consistency checks",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle", help="solve the offline placement problem exactly"
    )
    p_oracle.add_argument("config", help="scenario YAML file (topology)")
    p_oracle.add_argument("--demand", help="demand table CSV (name,fue,rate)")
    p_oracle.add_argument(
        "--demand-from-trace",
        help="derive demand from an event-trace file instead",
    )
    p_oracle.add_argument(
        "--verify-linearization", action="store_true",
        help="exhaustively check the zero-one linearization",
    )
    p_oracle.add_argument(
        "--lp-out", help="write the linearized program as text"
    )
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
