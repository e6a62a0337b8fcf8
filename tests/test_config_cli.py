import csv
import json
import textwrap
import time

import pytest

from fransim import cli, engine, plotting
from fransim.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_TOO_LARGE,
    _node_id,
    _parse_fues,
    _trace_path,
    demand_from_trace,
    load_demand_csv,
    main,
)
from fransim.config import ScenarioConfig, load_config, parse_config
from fransim.errors import ConfigError, InvariantViolation
from fransim.oracle import DemandSpec, VerificationReport
from fransim.policies import ScoreRule
from fransim.topology import Capacities, build_topology
from fransim.workload import ZipfSpec


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


# -- config parsing -----------------------------------------------------

def test_empty_config_gives_defaults():
    cfg = parse_config({})
    assert cfg == ScenarioConfig()
    assert cfg.fues_per_fap == [6] * 5
    assert cfg.seeds == list(range(10))
    assert cfg.policy == "rate-hop"


def test_full_config_round_trip(tmp_path):
    path = write(tmp_path, "s.yaml", """\
        topology:
          n_faps: 3
          fues_per_fap: [2, 3, 4]
          capacities: {bbu: 6, fap: 3, fue: 1}
          d2d_enabled: true
          cache_d2d_data: true
        workload:
          exponent: 1.1
          catalog_size: 40
          interests_per_fue: 500
          inter_arrival: 0.5
        policy:
          name: lru
          tau: 50
          alpha: 2
          beta: 3
          score_rule: rate-only
        run:
          seeds: [4, 5]
          trace: true
          output: out.csv
          trace_output: events.jsonl
        """)
    cfg = load_config(path)
    assert cfg.n_faps == 3
    assert cfg.fues_per_fap == [2, 3, 4]
    assert cfg.capacities == Capacities(bbu=6, fap=3, fue=1)
    assert cfg.d2d_enabled and cfg.cache_d2d_data
    assert cfg.zipf.exponent == 1.1
    assert cfg.zipf.catalog_size == 40
    assert cfg.zipf.inter_arrival == 0.5
    assert cfg.policy == "lru"
    assert cfg.policy_config.tau == 50.0
    assert cfg.policy_config.alpha == 2.0
    assert cfg.policy_config.score_rule is ScoreRule.RATE_ONLY
    assert cfg.seeds == [4, 5]
    assert cfg.trace
    assert cfg.output == "out.csv"
    assert cfg.trace_output == "events.jsonl"


@pytest.mark.parametrize("raw,where", [
    ({"topolgy": {}}, "config"),
    ({"topology": {"nfaps": 1}}, "topology"),
    ({"topology": {"capacities": {"bbus": 1}}}, "topology.capacities"),
    ({"workload": {"zipf": 0.8}}, "workload"),
    ({"policy": {"kind": "lru"}}, "policy"),
    ({"run": {"seed": 1}}, "run"),
])
def test_unknown_keys_rejected_everywhere(raw, where):
    with pytest.raises(ConfigError, match=f"unknown key\\(s\\) in {where}"):
        parse_config(raw)


def test_blocks_must_be_mappings():
    with pytest.raises(ConfigError, match="topology must be a mapping"):
        parse_config({"topology": 5})
    with pytest.raises(ConfigError, match="config must be a mapping"):
        parse_config(["topology"])


def test_booleans_are_not_ints():
    with pytest.raises(ConfigError, match="must not be a boolean"):
        parse_config({"topology": {"n_faps": True}})
    with pytest.raises(ConfigError, match="one int per access point"):
        parse_config(
            {"topology": {"n_faps": 2, "fues_per_fap": [2, True]}}
        )


def test_device_counts_int_broadcasts():
    cfg = parse_config({"topology": {"n_faps": 3, "fues_per_fap": 4}})
    assert cfg.fues_per_fap == [4, 4, 4]


def test_device_count_list_must_match_fap_count():
    with pytest.raises(ConfigError, match="one int per access point"):
        parse_config({"topology": {"n_faps": 3, "fues_per_fap": [2, 2]}})
    with pytest.raises(ConfigError, match="int or a list"):
        parse_config({"topology": {"fues_per_fap": "six"}})


def test_device_count_list_implies_fap_count():
    cfg = parse_config({"topology": {"fues_per_fap": [2, 3]}})
    assert cfg.n_faps == 2
    assert cfg.fues_per_fap == [2, 3]


def test_fap_count_must_be_positive():
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config({"topology": {"n_faps": 0}})


def test_capacities_must_be_nonnegative():
    with pytest.raises(ConfigError):
        parse_config({"topology": {"capacities": {"bbu": -1}}})


def test_unknown_policy_name_rejected():
    with pytest.raises(ConfigError, match="policy.name must be one of"):
        parse_config({"policy": {"name": "mru"}})


def test_unknown_score_rule_rejected():
    with pytest.raises(ConfigError, match="score_rule must be one of"):
        parse_config({"policy": {"score_rule": "hops-only"}})


def test_degenerate_rate_weights_rejected():
    with pytest.raises(ConfigError, match="positive sum"):
        parse_config({"policy": {"alpha": 0, "beta": 0}})


def test_workload_validation_propagates():
    with pytest.raises(ConfigError):
        parse_config({"workload": {"catalog_size": 0}})


def test_seed_precedence():
    assert parse_config({}).seeds == list(range(10))
    assert parse_config({"workload": {"seed": 7}}).seeds == [7]
    cfg = parse_config(
        {"workload": {"seed": 7}, "run": {"seeds": [1, 2]}}
    )
    assert cfg.seeds == [1, 2]


@pytest.mark.parametrize("seeds", [[], [True], "0,1", [1.5]])
def test_bad_seed_lists_rejected(seeds):
    with pytest.raises(ConfigError, match="non-empty list of ints"):
        parse_config({"run": {"seeds": seeds}})


@pytest.mark.parametrize("fields, message", [
    ({"policy": "mru"}, "unknown policy 'mru'; policy.name must be one of "
                        "fifo, lru, rate-hop"),
    ({"seeds": []}, "non-empty list of ints"),
    ({"seeds": [0, True]}, "non-empty list of ints"),
    ({"seeds": [3, -1]}, "must be non-negative, got -1"),
    ({"seeds": [0, 0]}, "lists seed 0 twice"),
    ({"fues_per_fap": [0]}, "one device per access point"),
    ({"fues_per_fap": [1], "policy": "fifo",
      "zipf": ZipfSpec(interests_per_fue=2, inter_arrival=1e308)},
     "refresh ticks per arrival step"),
], ids=["policy", "no-seed", "bool-seed", "negative-seed", "repeated-seed",
        "no-device", "huge-arrival"])
def test_scenario_config_rejects_what_parse_config_rejects(fields, message):
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**fields)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fues", [3, [1.5], [1, True], (1, 1)],
                         ids=["int", "float", "bool", "tuple"])
def test_scenario_config_needs_a_list_of_int_device_counts(fues):
    with pytest.raises(ConfigError, match="must be a list of ints"):
        ScenarioConfig(fues_per_fap=fues)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.yaml"))


def test_malformed_yaml_is_a_config_error(tmp_path):
    path = write(tmp_path, "bad.yaml", "topology: [unclosed\n")
    with pytest.raises(ConfigError, match="malformed config"):
        load_config(path)


def test_empty_file_parses_to_defaults(tmp_path):
    path = write(tmp_path, "empty.yaml", "")
    assert load_config(path) == ScenarioConfig()


# -- small CLI helpers ---------------------------------------------------

def test_parse_fues_range_and_list():
    assert _parse_fues("5..30:5") == [5, 10, 15, 20, 25, 30]
    assert _parse_fues("5..30") == [5, 10, 15, 20, 25, 30]
    assert _parse_fues("2..4:1") == [2, 3, 4]
    assert _parse_fues("3,7, 12") == [3, 7, 12]


@pytest.mark.parametrize("text", ["abc", "0,5", "", "10..5:5", "5..30:0"])
def test_parse_fues_rejects_garbage(text):
    with pytest.raises(ConfigError, match="cannot parse device counts"):
        _parse_fues(text)


def test_trace_path_suffixes_only_multi_seed_runs():
    assert _trace_path("t.jsonl", 3, False) == "t.jsonl"
    assert _trace_path("t.jsonl", 3, True) == "t_seed3.jsonl"
    assert _trace_path("dir/t.jsonl", 0, True) == "dir/t_seed0.jsonl"


def test_node_id_accepts_labels_and_ints():
    topo = build_topology(2, [1, 1], Capacities())
    assert _node_id("fue1", topo) == topo.fues()[0]
    assert _node_id(" 5 ", topo) == 5
    with pytest.raises(ValueError):
        _node_id("fue9", topo)


# -- run command ----------------------------------------------------------

RUN_YAML = """\
    topology:
      n_faps: 2
      fues_per_fap: 2
      capacities: {bbu: 4, fap: 2, fue: 1}
      d2d_enabled: true
    workload:
      catalog_size: 20
      interests_per_fue: 50
    policy:
      name: rate-hop
      tau: 10
    run:
      seeds: [0, 1]
    """


def run_config(tmp_path, extra=""):
    return write(tmp_path, "run.yaml", RUN_YAML + textwrap.dedent(extra))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_run_writes_one_row_per_seed(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out = str(tmp_path / "metrics.csv")
    assert main(["run", cfg, "--output", out]) == EXIT_OK
    assert "wrote 2 rows" in capsys.readouterr().out
    rows = read_csv(out)
    assert len(rows) == 2
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert [r["seed"] for r in rows] == ["0", "1"]
    assert all(r["d2d"] == "on" for r in rows)
    assert all(r["policy"] == "rate-hop" for r in rows)
    assert all(r["total_interests"] == "200" for r in rows)
    for r in rows:
        tiers = sum(
            int(r[k]) for k in
            ("hits_own", "hits_d2d", "hits_fap", "hits_bbu", "hits_producer")
        )
        assert tiers == 200
        assert float(r["avg_hops"]) > 0


SEED_YAML = """\
    topology:
      n_faps: 1
      fues_per_fap: 2
    workload:
      catalog_size: 20
      interests_per_fue: 30
      seed: 7
    """


@pytest.mark.parametrize("extra,expected", [
    ("", ["7"]),
    ("run:\n  seeds: [1, 2]\n", ["1", "2"]),
], ids=["workload-seed-alone", "run-seeds-win"])
def test_run_falls_back_to_the_workload_seed(tmp_path, extra, expected):
    cfg = write(tmp_path, "seed.yaml", textwrap.dedent(SEED_YAML) + extra)
    out = str(tmp_path / "metrics.csv")
    assert main(["run", cfg, "--output", out]) == EXIT_OK
    assert [r["seed"] for r in read_csv(out)] == expected


def test_run_is_byte_deterministic(tmp_path):
    cfg = run_config(tmp_path)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["run", cfg, "--output", a]) == EXIT_OK
    assert main(["run", cfg, "--output", b]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_debug_mode_changes_nothing(tmp_path):
    cfg = run_config(tmp_path)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["run", cfg, "--output", a]) == EXIT_OK
    assert main(["run", cfg, "--output", b, "--debug"]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_writes_per_seed_traces(tmp_path):
    # Every line is checked against json itself, not the engine's format.
    trace_base = tmp_path / "events.jsonl"
    cfg = write(tmp_path, "t.yaml", RUN_YAML.replace(
        "d2d_enabled: true", "d2d_enabled: true\n      cache_d2d_data: true",
    ).replace(
        "interests_per_fue: 50", "interests_per_fue: 60",
    ).replace(
        "seeds: [0, 1]",
        f"seeds: [0, 1]\n      trace: true\n"
        f"      trace_output: {trace_base}",
    ))
    assert main(["run", cfg, "--output", str(tmp_path / "m.csv")]) == EXIT_OK
    for seed in (0, 1):
        path = tmp_path / f"events_seed{seed}.jsonl"
        with open(path, encoding="utf-8", newline="") as handle:
            lines = handle.readlines()
        seen = set()
        for line in lines:
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True) + "\n"
            seen.add((record["kind"], record["outcome"]))
        assert seen == {
            ("interest", "own-hit"), ("interest", "d2d"),
            ("interest", "cs-hit"), ("interest", "forwarded"),
            ("interest", "origin"), ("data", "arrived"),
            ("data", "delivered"), ("tick", "refresh"),
        }
        ticks = [line for line in lines if '"kind": "tick"' in line]
        assert len(ticks) == 5


def test_single_seed_trace_keeps_plain_name(tmp_path):
    trace = tmp_path / "one.jsonl"
    cfg = write(tmp_path, "t.yaml", RUN_YAML.replace(
        "seeds: [0, 1]",
        f"seeds: [3]\n      trace: true\n      trace_output: {trace}",
    ))
    assert main(["run", cfg, "--output", str(tmp_path / "m.csv")]) == EXIT_OK
    assert trace.exists()


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", """\
        policy:
          alpha: 0
          beta: 0
        """)
    assert main(["run", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rate weights must be non-negative with a positive sum" in err


def test_run_rejects_subnormal_rate_weight_sum(tmp_path, capsys):
    # With beta alone at 5e-324 a refresh would turn a rate of 1.5 into 2.0.
    cfg = write(tmp_path, "bad.yaml", """\
        policy:
          alpha: 0
          beta: 5.0e-324
        """)
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "a normal float" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_run_rejects_rate_weights_that_overflow_a_refresh(
    tmp_path, capsys, key
):
    # With alpha and beta at 1e308 their sum is inf, and a refresh gives
    # 0.0 or nan in place of a rate between its inputs.
    cfg = write(tmp_path, "bad.yaml", f"""\
        policy:
          {key}: 1.0e+308
        run:
          seeds: [0]
          output: {tmp_path / "m.csv"}
        """)
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "rate weights must be at most" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("value", [".inf", ".nan"])
@pytest.mark.parametrize("block, key", [
    ("workload", "exponent"), ("workload", "inter_arrival"),
    ("policy", "tau"), ("policy", "alpha"), ("policy", "beta"),
])
def test_run_rejects_nonfinite_knobs(tmp_path, capsys, block, key, value):
    # An infinite inter-arrival time would make the arrival times NaN or
    # inf, which the refresh-tick loop never catches up with.
    cfg = write(tmp_path, "bad.yaml", f"""\
        {block}:
          {key}: {value}
        run:
          seeds: [0]
          output: {tmp_path / "m.csv"}
        """)
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


def test_run_rejects_a_non_string_output(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", "run: {output: 5}\n")
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "run.output has the wrong type" in capsys.readouterr().err


OVERFLOW_YAML = """\
    topology: {n_faps: 1, fues_per_fap: 1}
    workload: {interests_per_fue: 3, inter_arrival: 1.0e+308}
    policy: {name: fifo}
    """


def test_run_rejects_a_last_arrival_that_overflows(tmp_path, capsys):
    # The third arrival, 2 x 1e308, is inf, which the refresh-tick loop
    # never catches up with.
    cfg = write(tmp_path, "bad.yaml", OVERFLOW_YAML)
    with pytest.raises(ConfigError, match="last arrival time"):
        load_config(cfg)
    out = tmp_path / "m.csv"
    assert main(["run", cfg, "--output", str(out)]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


HUGE_ARRIVAL_YAML = """\
    topology: {n_faps: 1, fues_per_fap: 1}
    workload: {interests_per_fue: 2, inter_arrival: 1.0e+308}
    policy: {name: fifo}
    """


def test_run_rejects_more_refresh_ticks_than_arrivals_need(
    tmp_path, capsys, monkeypatch
):
    # The last arrival, 1e308, is finite, but a tick every tau = 100 up
    # to it is 1e306 ticks: the run would never end.
    def no_tick(sim, now):
        raise AssertionError("the run started ticking")

    monkeypatch.setattr(engine.Simulation, "tick", no_tick)
    cfg = write(tmp_path, "bad.yaml", HUGE_ARRIVAL_YAML)
    out = tmp_path / "m.csv"
    start = time.perf_counter()
    assert main(["run", cfg, "--output", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "policy.tau 100.0" in err
    assert "workload.inter_arrival 1e+308" in err
    assert not out.exists()


@pytest.mark.parametrize("tau, ok", [
    (0.001, True),  # 1000 x 99 ticks for 100 arrival steps
    (0.0009, False),
    (5e-324, False),  # the tick count is inf
])
def test_refresh_ticks_are_bounded_per_arrival_step(tau, ok):
    raw = {"workload": {"interests_per_fue": 100}, "policy": {"tau": tau}}
    if ok:
        assert parse_config(raw).policy_config.tau == tau
    else:
        with pytest.raises(ConfigError, match="refresh ticks per arrival"):
            parse_config(raw)


@pytest.mark.parametrize("extra, message", [
    ("run: {seeds: [0, 0], trace: true}\n", "run.seeds lists seed 0 twice"),
    ("run: {seeds: [3, -1]}\n", "run.seeds must be non-negative, got -1"),
    ("workload: {seed: -2}\n", "seed must be non-negative, got -2"),
], ids=["repeated", "negative", "negative-workload-seed"])
def test_run_rejects_repeated_or_negative_seeds(
    tmp_path, capsys, monkeypatch, extra, message
):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "bad.yaml",
                "topology: {n_faps: 1, fues_per_fap: 1}\n" + extra)
    assert main(["run", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]


@pytest.mark.parametrize("flag, value, message", [
    ("--fues", "2,4,2", "lists device count 2 twice"),
    ("--policies", "fifo,lru,fifo", "lists policy 'fifo' twice"),
], ids=["fues", "policies"])
def test_sweep_rejects_a_repeated_grid_value(
    tmp_path, capsys, monkeypatch, flag, value, message
):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    grid = {"--fues": "2", "--policies": "fifo", flag: value}
    argv = ["sweep", cfg, "--d2d", "off", "--plot"]
    for option, text in grid.items():
        argv += [option, text]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["s.yaml"]


@pytest.mark.parametrize("d2d, output", [
    ("off", "avg_hops_d2d_off.svg"),
    ("both", "sub/fronthaul_packets_d2d_on.svg"),
], ids=["same-dir", "sub-dir"])
def test_sweep_refuses_a_csv_path_among_its_charts(
    tmp_path, capsys, monkeypatch, d2d, output
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(engine, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    assert main([
        "sweep", cfg, "--fues", "2", "--policies", "fifo", "--d2d", d2d,
        "--plot", "--output", output,
    ]) == EXIT_CONFIG
    assert "is the metrics CSV path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["s.yaml", "sub"]


def test_sweep_refuses_a_csv_path_that_links_to_a_chart(
    tmp_path, capsys, monkeypatch
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(engine, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    (tmp_path / "m.csv").symlink_to("avg_hops_d2d_off.svg")
    assert main([
        "sweep", cfg, "--fues", "2", "--policies", "fifo", "--d2d", "off",
        "--plot", "--output", "m.csv",
    ]) == EXIT_CONFIG
    assert ("--plot chart avg_hops_d2d_off.svg is the metrics CSV path "
            "m.csv") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "s.yaml"]


@pytest.mark.parametrize("seeds,trace_name,csv_name", [
    ("[0]", "x.csv", "x.csv"),
    ("[0]", "x.csv", "sub/../x.csv"),
    ("[0, 1]", "m.csv", "m_seed1.csv"),
], ids=["same-name", "same-file", "a-seed-file"])
def test_run_refuses_a_trace_path_equal_to_the_csv_path(
    tmp_path, capsys, seeds, trace_name, csv_name
):
    (tmp_path / "sub").mkdir()
    cfg = write(tmp_path, "t.yaml", RUN_YAML.replace(
        "seeds: [0, 1]",
        f"seeds: {seeds}\n      trace: true\n"
        f"      trace_output: {tmp_path / trace_name}",
    ))
    out = tmp_path / csv_name
    assert main(["run", cfg, "--output", str(out)]) == EXIT_CONFIG
    assert "is the metrics CSV path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "t.yaml"]


def refuses_config_overwrite(tmp_path, capsys, argv, cfg, what):
    """``argv`` exits 2 naming the output ``what`` and the config file,
    and leaves the config's bytes and the directory as they were."""
    before = (tmp_path / cfg).read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {what} " in err
    assert f"is the config file {argv[1]}" in err
    assert (tmp_path / cfg).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names


@pytest.mark.parametrize("cfg,seeds,trace,csv_path,what", [
    ("t.yaml", "[0]", None, "t.yaml", "metrics CSV path"),
    ("t.yaml", "[0]", None, "sub/../t.yaml", "metrics CSV path"),
    ("t.yaml", "[0]", None, None, "metrics CSV path"),
    ("t.yaml", "[0]", "t.yaml", "m.csv", "trace path"),
    ("t_seed1.yaml", "[0, 1]", "t.yaml", "m.csv", "trace path"),
], ids=["csv", "csv-same-file", "csv-from-config", "trace", "a-seed-trace"])
def test_run_refuses_to_write_over_its_config(
    tmp_path, capsys, monkeypatch, cfg, seeds, trace, csv_path, what
):
    def no_run(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(engine, "run_single", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    run = f"seeds: {seeds}"
    if trace:
        run += f"\n      trace: true\n      trace_output: {trace}"
    if csv_path is None:
        run += f"\n      output: {cfg}"
    write(tmp_path, cfg, RUN_YAML.replace("seeds: [0, 1]", run))
    argv = ["run", cfg] + (["--output", csv_path] if csv_path else [])
    refuses_config_overwrite(tmp_path, capsys, argv, cfg, what)


@pytest.mark.parametrize("cfg,argv,what", [
    ("s.yaml", ["--output", "s.yaml"], "metrics CSV path"),
    ("s.yaml", ["--output", "sub/../s.yaml", "--plot"], "metrics CSV path"),
    ("avg_hops_d2d_on.svg", ["--output", "m.csv", "--plot"], "--plot chart"),
], ids=["csv", "csv-same-file", "chart"])
def test_sweep_refuses_to_write_over_its_config(
    tmp_path, capsys, monkeypatch, cfg, argv, what
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(engine, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    write(tmp_path, cfg, SWEEP_YAML)
    argv = ["sweep", cfg, "--fues", "2", "--policies", "fifo"] + argv
    refuses_config_overwrite(tmp_path, capsys, argv, cfg, what)


def test_sweep_without_plot_may_share_a_chart_name_with_its_config(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "avg_hops_d2d_on.svg", SWEEP_YAML)
    before = (tmp_path / cfg).read_bytes()
    assert main(["sweep", cfg, "--fues", "2", "--policies", "fifo",
                 "--output", "m.csv"]) == EXIT_OK
    assert (tmp_path / cfg).read_bytes() == before


def test_run_rejects_unbuildable_topology(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", """\
        topology:
          n_faps: 2
          fues_per_fap: [1, 0]
        """)
    out = str(tmp_path / "m.csv")
    for argv in (
        ["run", cfg, "--output", out],
        # The grid sets the device counts itself, but the file must
        # still describe a tree.
        ["sweep", cfg, "--fues", "2", "--output", out],
        ["oracle", cfg, "--demand", str(tmp_path / "demand.csv")],
    ):
        assert main(argv) == EXIT_CONFIG, argv[0]
        err = capsys.readouterr().err
        assert "one device per access point" in err, argv[0]
    assert not (tmp_path / "m.csv").exists()


# -- sweep command ----------------------------------------------------------

SWEEP_YAML = """\
    topology:
      n_faps: 2
      capacities: {bbu: 4, fap: 2, fue: 1}
    workload:
      catalog_size: 20
      interests_per_fue: 40
    run:
      seeds: [0, 1]
    """


def test_sweep_grid_row_count_and_charts(tmp_path, capsys):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    out = str(tmp_path / "grid.csv")
    rc = main([
        "sweep", cfg, "--fues", "2,4", "--policies", "fifo,rate-hop",
        "--output", out, "--plot",
    ])
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 2 * 2 * 2 * 2  # counts x policies x d2d x seeds
    svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert svgs == [
        "avg_hops_d2d_off.svg", "avg_hops_d2d_on.svg",
        "cache_hits_d2d_off.svg", "cache_hits_d2d_on.svg",
        "fronthaul_packets_d2d_off.svg", "fronthaul_packets_d2d_on.svg",
    ]
    assert "wrote 16 rows" in capsys.readouterr().out


def test_sweep_without_plot_writes_no_svgs(tmp_path):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    out = str(tmp_path / "grid.csv")
    assert main(
        ["sweep", cfg, "--fues", "2", "--policies", "lru", "--output", out]
    ) == EXIT_OK
    assert list(tmp_path.glob("*.svg")) == []


def test_single_policy_single_d2d_charts(tmp_path):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    out = str(tmp_path / "grid.csv")
    rc = main([
        "sweep", cfg, "--fues", "2,4", "--policies", "rate-hop",
        "--d2d", "off", "--output", out, "--plot",
    ])
    assert rc == EXIT_OK
    svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert svgs == [
        "avg_hops_d2d_off.svg", "cache_hits_d2d_off.svg",
        "fronthaul_packets_d2d_off.svg",
    ]
    chart = (tmp_path / "avg_hops_d2d_off.svg").read_text()
    assert chart.count("<polyline") == 1
    assert "rate-hop" in chart


def test_charts_are_pure_functions_of_the_csv(tmp_path):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    out = str(tmp_path / "grid.csv")
    assert main([
        "sweep", cfg, "--fues", "2,4", "--policies", "fifo,lru",
        "--output", out, "--plot",
    ]) == EXIT_OK
    rebuilt = plotting.sweep_charts(read_csv(out))
    for filename, svg in rebuilt.items():
        assert (tmp_path / filename).read_text(encoding="utf-8") == svg


def test_sweep_charts_average_seeds_arithmetically():
    # Two seeds scoring 1 and 4 plot at 2.5 (a geometric mean gives 2).
    rows = [
        {"policy": "fifo", "n_fues": 5, "d2d": False, "seed": seed,
         "avg_hops": value, "cache_hits": value, "fronthaul_packets": value}
        for seed, value in [(0, 1.0), (1, 4.0)]
    ]
    label = "average hops per interest"
    expected = plotting.line_chart(
        {"fifo": [(5.0, 2.5)]}, title=f"{label} (D2D off)",
        xlabel="user devices", ylabel=label,
    )
    assert plotting.sweep_charts(rows)["avg_hops_d2d_off.svg"] == expected


def test_parallel_sweep_writes_identical_csv(tmp_path):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    args = ["sweep", cfg, "--fues", "2,4", "--policies", "fifo,rate-hop"]
    assert main(args + ["--output", a]) == EXIT_OK
    assert main(args + ["--output", b, "--jobs", "2"]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_rejects_unknown_policy(tmp_path, capsys):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    assert main(
        ["sweep", cfg, "--fues", "2", "--policies", "mru"]
    ) == EXIT_CONFIG
    assert "unknown policy" in capsys.readouterr().err


def test_sweep_rejects_an_empty_policy_list(tmp_path, capsys):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    out = tmp_path / "grid.csv"
    assert main(
        ["sweep", cfg, "--fues", "2", "--policies", ",", "--output", str(out)]
    ) == EXIT_CONFIG
    assert "no policy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_nonpositive_jobs(tmp_path, capsys, monkeypatch, jobs):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid ran despite a bad --jobs")

    monkeypatch.setattr(engine, "sweep", no_sweep)
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    assert main(["sweep", cfg, "--fues", "2", "--jobs", jobs]) == EXIT_CONFIG
    assert "--jobs must be at least 1" in capsys.readouterr().err


def test_sweep_rejects_bad_fue_spec(tmp_path):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    assert main(["sweep", cfg, "--fues", "x..y"]) == EXIT_CONFIG


def test_sweep_rejects_counts_below_fap_count(tmp_path, capsys):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)  # n_faps: 2
    assert main(["sweep", cfg, "--fues", "1,4"]) == EXIT_CONFIG
    assert "cannot cover" in capsys.readouterr().err


def test_bad_d2d_choice_is_an_argparse_error(tmp_path):
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", cfg, "--d2d", "maybe"])
    assert excinfo.value.code == 2


# -- unwritable outputs -------------------------------------------------

def unwritable_run(tmp_path):
    missing = tmp_path / "missing" / "m.csv"
    return ["run", run_config(tmp_path), "--output", str(missing)], missing


def unwritable_trace(tmp_path):
    missing = tmp_path / "missing" / "t.jsonl"
    cfg = write(tmp_path, "t.yaml", RUN_YAML.replace(
        "seeds: [0, 1]",
        f"seeds: [0]\n      trace: true\n      trace_output: {missing}",
    ))
    return ["run", cfg, "--output", str(tmp_path / "m.csv")], missing


def unwritable_chart(tmp_path):
    blocked = tmp_path / "avg_hops_d2d_off.svg"
    blocked.mkdir()  # a directory where the chart file should go
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    out = str(tmp_path / "grid.csv")
    return ["sweep", cfg, "--fues", "2", "--policies", "fifo", "--d2d",
            "off", "--plot", "--output", out], blocked


def unwritable_sweep(tmp_path):
    missing = tmp_path / "missing" / "m.csv"
    cfg = write(tmp_path, "s.yaml", SWEEP_YAML)
    return ["sweep", cfg, "--fues", "2", "--policies", "fifo", "--output",
            str(missing)], missing


def unwritable_program(tmp_path):
    cfg, demand = oracle_setup(tmp_path)
    missing = tmp_path / "missing" / "program.lp"
    argv = ["oracle", cfg, "--demand", demand, "--lp-out", str(missing)]
    return argv, missing


@pytest.mark.parametrize("setup", [
    unwritable_run, unwritable_trace, unwritable_chart, unwritable_sweep,
    unwritable_program,
])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, setup):
    argv, path = setup(tmp_path)
    assert main(argv) == EXIT_CONFIG
    assert f"cannot write {path}" in capsys.readouterr().err


def test_unwritable_csv_stops_run_before_any_seed(tmp_path, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated although the CSV cannot be written")

    monkeypatch.setattr(engine, "Simulation", no_simulation)
    argv, _ = unwritable_run(tmp_path)
    assert main(argv) == EXIT_CONFIG


def test_unwritable_csv_stops_sweep_before_the_grid(
    tmp_path, capsys, monkeypatch
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid ran although the CSV cannot be written")

    monkeypatch.setattr(engine, "sweep", no_sweep)
    argv, path = unwritable_sweep(tmp_path)
    assert main(argv) == EXIT_CONFIG
    assert f"cannot write {path}" in capsys.readouterr().err


def test_stopped_run_keeps_the_rows_of_finished_seeds(tmp_path, monkeypatch):
    real_run = engine.Simulation.run_schedule
    runs = []

    def fail_second_seed(sim, schedule):
        runs.append(sim)
        if len(runs) == 2:
            raise InvariantViolation("stopped on purpose")
        return real_run(sim, schedule)

    monkeypatch.setattr(engine.Simulation, "run_schedule", fail_second_seed)
    out = tmp_path / "m.csv"
    assert main(["run", run_config(tmp_path), "--output", str(out)]) == (
        EXIT_INVARIANT
    )
    assert [row["seed"] for row in read_csv(out)] == ["0"]


# -- oracle command -----------------------------------------------------

ORACLE_YAML = """\
    topology:
      n_faps: 2
      fues_per_fap: 1
      capacities: {bbu: 2, fap: 1, fue: 0}
    workload:
      catalog_size: 5
    """


def oracle_setup(tmp_path):
    cfg = write(tmp_path, "o.yaml", ORACLE_YAML)
    demand = write(tmp_path, "demand.csv", """\
        name,fue,rate
        c1,fue1,1
        c2,fue2,1
        """)
    return cfg, demand


def test_oracle_prints_the_exact_optimum(tmp_path, capsys):
    cfg, demand = oracle_setup(tmp_path)
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "optimal = 4"
    assert "  c1 @ fap1" in out
    assert "  c2 @ fap2" in out


def test_oracle_verifies_the_linearization(tmp_path, capsys):
    cfg, demand = oracle_setup(tmp_path)
    rc = main(["oracle", cfg, "--demand", demand, "--verify-linearization"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "linearization over 1024 assignments: exact" in out


def test_oracle_verifies_copies_that_cancel_at_large_rates(tmp_path, capsys):
    # Where copies absorb all demand the direct value is 0, but the
    # pinned sum rounds with summands near 1e12.
    cfg = write(tmp_path, "o.yaml", ORACLE_YAML.replace(
        "n_faps: 2\n      fues_per_fap: 1", "n_faps: 1\n      fues_per_fap: 2"
    ).replace("{bbu: 2, fap: 1, fue: 0}", "{bbu: 1, fap: 1, fue: 1}"))
    demand = write(tmp_path, "demand.csv", f"""\
        name,fue,rate
        c1,fue1,{1e12 / 7!r}
        c1,fue2,{2e12 / 7!r}
        """)
    rc = main(["oracle", cfg, "--demand", demand, "--verify-linearization"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "linearization over 16 assignments: exact" in out


def test_oracle_writes_the_lp_text(tmp_path):
    cfg, demand = oracle_setup(tmp_path)
    lp = tmp_path / "program.lp"
    assert main(
        ["oracle", cfg, "--demand", demand, "--lp-out", str(lp)]
    ) == EXIT_OK
    text = lp.read_text()
    assert text.startswith("maximize:")
    assert "x[c1,fap1]" in text


def test_oracle_demands_a_demand_source(tmp_path, capsys):
    cfg, _ = oracle_setup(tmp_path)
    assert main(["oracle", cfg]) == EXIT_CONFIG
    assert "--demand" in capsys.readouterr().err


def test_oracle_rejects_two_demand_sources(tmp_path, capsys):
    cfg, demand = oracle_setup(tmp_path)
    trace = write(tmp_path, "t.jsonl", """\
        {"kind": "interest", "name": "c1", "node": 4, "outcome": "forwarded"}
        """)
    argv = ["oracle", cfg, "--demand", demand, "--demand-from-trace", trace]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--demand or --demand-from-trace, not both" in captured.err


@pytest.mark.parametrize("flag,target,what", [
    ("--demand", "o.yaml", "config file o.yaml"),
    ("--demand", "sub/../o.yaml", "config file o.yaml"),
    ("--demand", "d.csv", "demand table d.csv"),
    ("--demand-from-trace", "o.yaml", "config file o.yaml"),
    ("--demand-from-trace", "sub/../t.jsonl", "trace t.jsonl"),
], ids=["config", "config-same-file", "demand", "trace-config", "trace"])
def test_oracle_refuses_to_write_its_program_over_an_input(
    tmp_path, capsys, monkeypatch, flag, target, what
):
    def no_solve(*args, **kwargs):
        raise AssertionError("the oracle solved")

    monkeypatch.setattr(cli, "brute_force_optimal", no_solve)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    write(tmp_path, "o.yaml", ORACLE_YAML)
    write(tmp_path, "d.csv", "name,fue,rate\nc1,fue1,1\n")
    write(tmp_path, "t.jsonl", json.dumps(
        {"kind": "interest", "name": "c1", "node": 4, "outcome": "own-hit"}
    ) + "\n")
    source = "d.csv" if flag == "--demand" else "t.jsonl"
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = ["oracle", "o.yaml", flag, source, "--lp-out", target]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --lp-out path {target} is the {what}" in captured.err
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert after == before


def test_oracle_accepts_numeric_device_ids(tmp_path, capsys):
    cfg = write(tmp_path, "o.yaml", ORACLE_YAML)
    topo = build_topology(2, [1, 1], Capacities(2, 1, 0))
    u1, u2 = topo.fues()
    demand = write(tmp_path, "d.csv", f"""\
        name,fue,rate
        c1,{u1},1
        c2,{u2},1
        """)
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_OK
    assert "optimal = 4" in capsys.readouterr().out


def test_oracle_refuses_oversized_instances(tmp_path, capsys):
    cfg = write(tmp_path, "big.yaml", """\
        topology:
          n_faps: 5
          fues_per_fap: 1
          capacities: {bbu: 2, fap: 1, fue: 1}
        workload:
          catalog_size: 10
        """)
    demand = write(tmp_path, "d.csv", """\
        name,fue,rate
        c1,fue1,1
        c2,fue1,1
        c3,fue1,1
        """)
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_TOO_LARGE
    assert "exceeds the exhaustive-search limit" in capsys.readouterr().err


def test_oracle_rejects_demand_at_non_devices(tmp_path, capsys):
    cfg, _ = oracle_setup(tmp_path)
    demand = write(tmp_path, "d.csv", """\
        name,fue,rate
        c1,bbu,1
        """)
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_CONFIG
    assert "not user equipment" in capsys.readouterr().err


def test_oracle_prints_an_empty_placement(tmp_path, capsys):
    _, demand = oracle_setup(tmp_path)
    cfg = write(tmp_path, "zero.yaml", ORACLE_YAML.replace(
        "{bbu: 2, fap: 1, fue: 0}", "{bbu: 0, fap: 0, fue: 0}"
    ))
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "optimal = 0", "  (empty placement)",
    ]


def test_oracle_reports_a_failed_verification(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "verify_linearization",
        lambda topo, demand, program: VerificationReport(False, 7, "forced"),
    )
    cfg, demand = oracle_setup(tmp_path)
    rc = main(["oracle", cfg, "--demand", demand, "--verify-linearization"])
    assert rc == EXIT_INVARIANT
    out = capsys.readouterr().out
    assert "linearization over 7 assignments: MISMATCH: forced" in out


def test_undecodable_demand_table_names_the_file(tmp_path, capsys):
    cfg, _ = oracle_setup(tmp_path)
    demand = tmp_path / "d.csv"
    demand.write_bytes(b"name,fue,rate\nc1,fue1,\xff\n")
    assert main(["oracle", cfg, "--demand", str(demand)]) == EXIT_CONFIG
    assert f"bad demand table {demand}: " in capsys.readouterr().err


@pytest.mark.parametrize("row", ["c1,999,1", "c1,-1,3"])
def test_oracle_rejects_demand_at_unknown_node_ids(tmp_path, capsys, row):
    cfg, _ = oracle_setup(tmp_path)
    demand = write(tmp_path, "d.csv", f"name,fue,rate\n{row}\n")
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_CONFIG
    assert "not in the topology" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_oracle_rejects_nonfinite_rates(tmp_path, capsys, rate):
    cfg, _ = oracle_setup(tmp_path)
    demand = write(tmp_path, "d.csv", f"name,fue,rate\nc1,fue1,{rate}\n"
                   "c2,fue2,1\n")
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_CONFIG
    assert "must be finite and non-negative" in capsys.readouterr().err


def test_oracle_rejects_demand_whose_sums_overflow(tmp_path, capsys):
    # Each rate is finite, but their hop-weighted sums are not.
    cfg, _ = oracle_setup(tmp_path)
    demand = write(tmp_path, "d.csv",
                   "name,fue,rate\nc1,fue1,1e308\nc1,fue2,1e308\n")
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "optimal" not in captured.out
    assert "hop-weighted total is not finite" in captured.err


@pytest.mark.parametrize("second", ["fue1", "by-id"])
def test_oracle_rejects_duplicate_demand_rows(tmp_path, capsys, second):
    cfg, _ = oracle_setup(tmp_path)
    u1 = build_topology(2, [1, 1], Capacities(2, 1, 0)).fues()[0]
    device = u1 if second == "by-id" else second
    demand = write(tmp_path, "d.csv",
                   f"name,fue,rate\nc1,fue1,1\nc1,{device},5\n")
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "optimal" not in captured.out
    assert f"{demand}, lines 2 and 3" in captured.err


@pytest.mark.parametrize("source,text,message", [
    ("--demand", "name,fue,rate\nc1,fue1\n", "expected the three fields"),
    ("--demand-from-trace", "5\n", "not a JSON object"),
    ("--demand-from-trace",
     '{"kind": "interest", "node": 4, "outcome": "own-hit"}\n',
     "needs an integer node and a string name"),
    ("--demand-from-trace",
     '{"kind": "interest", "node": [4], "name": "c1", "outcome": "own-hit"}\n',
     "needs an integer node and a string name"),
], ids=["short-demand-row", "trace-not-an-object", "trace-without-name",
        "trace-list-node"])
def test_oracle_rejects_malformed_inputs(tmp_path, capsys, source, text,
                                         message):
    cfg, _ = oracle_setup(tmp_path)
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["oracle", cfg, source, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert f"{path}, line " in err


RATE_CAUSE = "demand rate for 'c2' at 5 must be finite and non-negative, got "


@pytest.mark.parametrize("row,cause", [
    ("c2,fue9,2", "unknown device 'fue9'"),
    ("c2,fue2,abc", "rate 'abc' is not a number"),
    ("c2,fue2,-1", RATE_CAUSE + "-1.0"),
    ("c2,fue2,nan", RATE_CAUSE + "nan"),
    ("c2,fue2,inf", RATE_CAUSE + "inf"),
    ("c2,fue2,-inf", RATE_CAUSE + "-inf"),
], ids=["unknown-device", "rate-not-a-number", "negative-rate", "nan-rate",
        "inf-rate", "minus-inf-rate"])
def test_demand_table_errors_name_the_line_and_cause(tmp_path, capsys, row,
                                                     cause):
    cfg, _ = oracle_setup(tmp_path)
    demand = write(tmp_path, "d.csv", f"name,fue,rate\nc1,fue1,1\n{row}\n")
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad demand table {demand}, line 3: {cause}" in captured.err


@pytest.mark.parametrize("device,cause", [
    ("999", "which is not in the topology"),
    ("-1", "which is not in the topology"),
    ("producer", "which is not user equipment"),
    ("bbu", "which is not user equipment"),
])
def test_demand_table_device_errors_name_the_line(tmp_path, capsys, device,
                                                  cause):
    cfg, _ = oracle_setup(tmp_path)
    demand = write(tmp_path, "d.csv", f"name,fue,rate\nc2,{device},2\n")
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"bad demand table {demand}, line 2: demand for 'c2'" in err
    assert cause in err


@pytest.mark.parametrize("name", ["", "   "], ids=["empty", "blank"])
def test_demand_table_refuses_a_blank_content_name(tmp_path, capsys, name):
    cfg, _ = oracle_setup(tmp_path)
    demand = write(tmp_path, "d.csv",
                   f"name,fue,rate\nc1,fue1,1\n{name},fue1,3\n")
    assert main(["oracle", cfg, "--demand", demand]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"bad demand table {demand}, line 3: demand at node 4 has an "
            "empty content name") in captured.err


@pytest.mark.parametrize("name", ["", " \t"], ids=["empty", "blank"])
def test_trace_refuses_a_blank_content_name(tmp_path, capsys, name):
    cfg, _ = oracle_setup(tmp_path)
    records = [
        {"kind": "interest", "node": 4, "name": "c1", "outcome": "forwarded"},
        {"kind": "interest", "node": 3, "name": name, "outcome": "cs-hit"},
        {"kind": "interest", "node": 4, "name": name, "outcome": "forwarded"},
    ]
    trace = write(tmp_path, "t.jsonl",
                  "\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["oracle", cfg, "--demand-from-trace", trace]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"bad trace {trace}, line 3: demand at node 4 has an empty "
            "content name") in captured.err


def test_demand_csv_schema_is_strict(tmp_path):
    topo = build_topology(2, [1, 1], Capacities(2, 1, 0))
    bad = write(tmp_path, "d.csv", "name,device,rate\nc1,fue1,1\n")
    with pytest.raises(ConfigError, match="columns name,fue,rate"):
        load_demand_csv(bad, topo)
    bad_rate = write(tmp_path, "d2.csv", "name,fue,rate\nc1,fue1,fast\n")
    with pytest.raises(ConfigError, match="bad demand table"):
        load_demand_csv(bad_rate, topo)
    missing = str(tmp_path / "nope.csv")
    with pytest.raises(ConfigError, match="cannot read demand table"):
        load_demand_csv(missing, topo)


def test_demand_from_trace_counts_device_requests_only(tmp_path):
    topo = build_topology(2, [1, 1], Capacities(2, 1, 0))
    u1 = topo.fues()[0]
    fap = topo.faps()[0]
    records = [
        {"kind": "interest", "node": u1, "name": "c1", "outcome": "forwarded"},
        {"kind": "interest", "node": u1, "name": "c1", "outcome": "own-hit"},
        {"kind": "interest", "node": fap, "name": "c1", "outcome": "cs-hit"},
        {"kind": "data", "node": u1, "name": "c1", "outcome": "arrived"},
        {"kind": "tick", "node": None, "name": None, "outcome": "refresh"},
        {"kind": "interest", "node": u1, "name": "c2", "outcome": "forwarded"},
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    demand = demand_from_trace(str(path), topo)
    assert demand == DemandSpec({("c1", u1): 2.0, ("c2", u1): 1.0})


def test_demand_from_trace_skips_blank_lines(tmp_path):
    topo = build_topology(2, [1, 1], Capacities(2, 1, 0))
    u1 = topo.fues()[0]
    record = json.dumps(
        {"kind": "interest", "node": u1, "name": "c1", "outcome": "forwarded"}
    )
    path = tmp_path / "trace.jsonl"
    path.write_text(f"\n{record}\n  \n\n{record}\n", encoding="utf-8")
    assert demand_from_trace(str(path), topo) == DemandSpec({("c1", u1): 2.0})


def test_oracle_runs_on_a_recorded_trace(tmp_path, capsys):
    trace = tmp_path / "events.jsonl"
    run_cfg = write(tmp_path, "r.yaml", f"""\
        topology:
          n_faps: 2
          fues_per_fap: 1
          capacities: {{bbu: 2, fap: 1, fue: 0}}
        workload:
          catalog_size: 4
          interests_per_fue: 30
        run:
          seeds: [0]
          trace: true
          trace_output: {trace}
        """)
    assert main(["run", run_cfg, "--output", str(tmp_path / "m.csv")]) == EXIT_OK
    capsys.readouterr()
    rc = main(["oracle", run_cfg, "--demand-from-trace", str(trace)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("optimal = ")
    assert "@" in out


@pytest.mark.parametrize("trace_faps,trace_fues,faps,problem", [
    # Nodes 6..10 are devices in the trace's tree; this one ends at 5.
    (3, 2, 2, "line 8: node 6 is not in the configured tree"),
    # Node 4 is a device in the trace's tree, an F-AP in this one.
    (2, 2, 3, "line 85: outcome 'own-hit' cannot occur at node 4, which is "
              "fap3 in the configured tree"),
], ids=["node-outside", "role-mismatch"])
def test_oracle_refuses_a_trace_from_another_tree(
    tmp_path, capsys, trace_faps, trace_fues, faps, problem
):
    trace = tmp_path / "events.jsonl"
    run_cfg = write(tmp_path, "r.yaml", f"""\
        topology:
          n_faps: {trace_faps}
          fues_per_fap: {trace_fues}
          capacities: {{bbu: 2, fap: 1, fue: 1}}
        workload:
          catalog_size: 4
          interests_per_fue: 30
        run:
          seeds: [0]
          trace: true
          trace_output: {trace}
        """)
    assert main(["run", run_cfg, "--output", str(tmp_path / "m.csv")]) == EXIT_OK
    capsys.readouterr()
    cfg = write(tmp_path, "o.yaml", ORACLE_YAML.replace(
        "n_faps: 2", f"n_faps: {faps}"
    ))
    rc = main(["oracle", cfg, "--demand-from-trace", str(trace)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad trace {trace}, {problem}\n"


@pytest.mark.parametrize("node,outcome,label", [
    (4, "cs-hit", "fue1"), (5, "d2d", "fue2"), (4, "origin", "fue1"),
    (4, "refresh", "fue1"), (2, "own-hit", "fap1"), (3, "origin", "fap2"),
    (1, "own-hit", "bbu"), (1, "origin", "bbu"), (0, "forwarded", "producer"),
    (0, "cs-hit", "producer"), (0, "own-hit", "producer"),
    (6, "forwarded", None), (-1, "own-hit", None),
])
def test_trace_records_must_fit_the_configured_tree(
    tmp_path, node, outcome, label
):
    topo = build_topology(2, [1, 1], Capacities(2, 1, 0))
    good = {"kind": "interest", "node": 4, "name": "c1", "outcome": "own-hit"}
    bad = dict(good, node=node, outcome=outcome)
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in (good, good, bad)),
        encoding="utf-8",
    )
    if label is None:
        problem = f"node {node} is not in the configured tree"
    else:
        problem = (f"outcome {outcome!r} cannot occur at node {node}, which "
                   f"is {label} in the configured tree")
    with pytest.raises(ConfigError) as excinfo:
        demand_from_trace(str(path), topo)
    assert str(excinfo.value) == f"bad trace {path}, line 3: {problem}"


def test_every_outcome_that_fits_its_node_is_read(tmp_path):
    topo = build_topology(2, [1, 1], Capacities(2, 1, 0))
    fits = [(4, "own-hit"), (5, "forwarded"), (2, "forwarded"),
            (3, "cs-hit"), (2, "d2d"), (1, "forwarded"), (1, "cs-hit"),
            (1, "d2d"), (0, "origin")]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(
        json.dumps({"kind": "interest", "node": node, "name": "c1",
                    "outcome": outcome}) + "\n"
        for node, outcome in fits
    ), encoding="utf-8")
    assert demand_from_trace(str(path), topo) == DemandSpec(
        {("c1", 4): 1.0, ("c1", 5): 1.0}
    )


def test_broken_trace_is_a_config_error(tmp_path):
    topo = build_topology(2, [1, 1], Capacities(2, 1, 0))
    path = tmp_path / "broken.jsonl"
    path.write_text('{"kind": "interest"\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot read trace"):
        demand_from_trace(str(path), topo)
