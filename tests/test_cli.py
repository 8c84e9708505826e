import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mgmarket
from mgmarket import ModelConfig, analytic, cli, engine, run
from mgmarket.cli import _load_samples, dispatch


def run_cli(*argv):
    return dispatch(list(argv))


def read_rows(path):
    with path.open() as fh:
        return list(csv.reader(fh))


SMALL = ["--n-agents", "31", "--horizon", "50", "--runs", "2", "--seed", "7", "--threads", "1"]
NEVER_SHOCKS = ("config.validate: an event model with probability or strength 0 never shocks:"
                " give --event-p and --event-k above 0, or --no-events")
SWEEP_NEVER_SHOCKS = ("config.validate: an events sweep with shock probability 0 never shocks:"
                      " give --event-p above 0")


def test_simulate_happy_path(tmp_path):
    out = tmp_path / "traj.csv"
    summary = tmp_path / "summary.json"
    outcome = run_cli("simulate", *SMALL, "--b1", "0.5", "--b2", "0.5",
                      "--out", str(out), "--summary", str(summary))
    assert outcome.exit_code == 0
    rows = read_rows(out)
    assert rows[0] == ["t", "P1", "r1", "A1", "re1_mean", "P2", "r2", "A2", "re2_mean"]
    assert len(rows) == 51
    record = json.loads(summary.read_text())
    assert record["config"]["b1"] == 0.5
    assert len(record["runs"]) == 2
    assert record["metadata"]["expectation_series"] == "population_mean"


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("simulate", *SMALL, "--b1", "0.3", "--b2", "0.3", "--out", str(a))
    run_cli("simulate", *SMALL, "--b1", "0.3", "--b2", "0.3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(
        "n_agents = 31\nhorizon = 50\nn_runs = 2\nmaster_seed = 7\n"
        "coupling = homogeneous\nb1 = 0.1\nb2 = 0.1\n"
    )
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert run_cli("simulate", "--config", str(cfg), "--threads", "1",
                   "--out", str(out1)).exit_code == 0
    # flag wins over the file value
    assert run_cli("simulate", "--config", str(cfg), "--threads", "1",
                   "--b1", "0.5", "--b2", "0.5", "--out", str(out2)).exit_code == 0
    ref = tmp_path / "ref.csv"
    run_cli("simulate", *SMALL, "--b1", "0.5", "--b2", "0.5", "--out", str(ref))
    assert out2.read_bytes() == ref.read_bytes()
    assert out1.read_bytes() != out2.read_bytes()


def test_no_events_drops_event_keys_of_file_and_flags(tmp_path):
    body = "n_agents = 31\nhorizon = 50\nn_runs = 2\nmaster_seed = 7\nb1 = 0.3\nb2 = -0.2\n"
    with_events, without = tmp_path / "events.cfg", tmp_path / "plain.cfg"
    with_events.write_text(body + "event_probability = 0.05\nevent_strength = 2.0\n")
    without.write_text(body)
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run_cli("simulate", "--config", str(with_events), "--no-events", "--event-p", "0.1",
                   "--threads", "1", "--summary", str(s1)).exit_code == 0
    assert run_cli("simulate", "--config", str(without), "--threads", "1",
                   "--summary", str(s2)).exit_code == 0
    dropped, plain = json.loads(s1.read_text()), json.loads(s2.read_text())
    assert not {"event_probability", "event_strength"} & dropped["config"].keys()
    assert dropped["overrides"] == {}
    assert dropped["runs"] == plain["runs"]


def test_simulate_event_strength_alone_shocks_at_the_paper_probability(tmp_path):
    long = ["--n-agents", "31", "--horizon", "400", "--runs", "2", "--seed", "7", "--threads", "1"]
    runs = {}
    for name, flags in {"k": ["--event-k", "3"], "pk": ["--event-p", "0.0082", "--event-k", "3"],
                        "plain": []}.items():
        summary = tmp_path / f"{name}.json"
        assert run_cli("simulate", *long, *flags, "--summary", str(summary)).exit_code == 0
        runs[name] = json.loads(summary.read_text())["runs"]
    assert runs["k"] == runs["pk"]
    assert runs["k"] != runs["plain"]


def test_config_env_var_is_ignored(tmp_path, monkeypatch):
    # --config alone names a config file
    cfg = tmp_path / "env.cfg"
    cfg.write_text("horizon = 40\n")
    monkeypatch.setenv("MGMARKET_CONFIG", str(cfg))
    summary = tmp_path / "s.json"
    assert run_cli("simulate", "--n-agents", "31", "--runs", "1", "--seed", "3", "--threads", "1",
                   "--summary", str(summary)).exit_code == 0
    assert json.loads(summary.read_text())["config"]["horizon"] == ModelConfig().horizon


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_agents = 31\nwibble = 2\n")
    outcome = run_cli("simulate", "--config", str(cfg))
    assert outcome.exit_code == 1
    assert "unknown key" in outcome.message


def test_malformed_config_value_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_agents = 1.5\n")
    outcome = run_cli("simulate", "--config", str(cfg))
    assert outcome.exit_code == 1
    assert outcome.message.startswith("config.validate: line 1")


def test_invalid_flag_is_usage_error():
    assert run_cli("simulate", "--not-a-flag").exit_code == 1
    assert run_cli("bogus-verb").exit_code == 1


def test_even_agent_count_is_usage_error():
    outcome = run_cli("simulate", "--n-agents", "30", "--horizon", "10", "--runs", "1")
    assert outcome.exit_code == 1
    assert "odd" in outcome.message


def test_horizon_one_is_usage_error():
    # one recorded step has no return correlation; refused before any run
    outcome = run_cli("simulate", *SMALL, "--horizon", "1")
    assert outcome.exit_code == 1
    assert outcome.message.startswith("config.validate: horizon must be at least 2")


def test_runtime_error_exit_code():
    outcome = run_cli("simulate", *SMALL, "--initial-price", "4.0", "--horizon", "500")
    assert outcome.exit_code == 2
    assert "market.update_price" in outcome.message


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--initial-price", "inf"], "config.validate: initial_price must be finite"),
        (["simulate", "--initial-price", "nan"], "config.validate: initial_price must be finite"),
        (["simulate", "--b1", "nan"], "config.validate: b1 must be finite"),
        (["simulate", "--b1", "inf"], "config.validate: b1 must be finite"),
        (["simulate", "--event-p", "0.5", "--event-k", "nan"],
         "config.validate: event_strength must be finite"),
        (["simulate", "--delta1", "inf"], "config.validate: delta1 must be finite"),
        (["sweep", "--experiment", "homogeneous", "--b1-step", "nan"],
         "config.validate: invalid axis for b1"),
        (["sweep", "--experiment", "homogeneous", "--b1-max", "inf"],
         "config.validate: invalid axis for b1"),
        (["sweep", "--experiment", "events", "--k-values", "nan"],
         "mgmarket sweep: argument --k-values: expected finite numbers"),
        (["simulate", "--threads", "0"], "mgmarket simulate: argument --threads: expected a positive"),
        (["simulate", "--threads", "-3"], "mgmarket simulate: argument --threads: expected a positive"),
        (["simulate", "--c1", "0", "--delta1", "1e308"],
         "config.validate: uniform coupling c1=0.0, delta1=1e+308 has no finite support"),
        (["simulate", "--c1", "1e308", "--delta1", "1e308"],
         "config.validate: uniform coupling c1=1e+308, delta1=1e+308 has no finite support"),
        (["sweep", "--experiment", "homogeneous", "--b1-min", "1e308", "--b1-max", "1e308",
          "--b1-step", "1"], "config.validate: invalid axis for b1"),
        (["sweep", "--experiment", "homogeneous", "--b1-min", "0", "--b1-max", "1",
          "--b1-step", "1e-300"], "config.validate: invalid axis for b1"),
        # refused before the first run of k=1, not after its grid
        (["sweep", "--experiment", "events", "--k-values", "1,-1"],
         "config.validate: event strength must be non-negative"),
        # an event model that never shocks would run the unshocked batch twice
        *[(["simulate", *flags], NEVER_SHOCKS) for flags in
          (["--event-p", "0.05"], ["--event-k", "0"], ["--event-p", "0", "--event-k", "3"])],
        # and an events sweep would write the unshocked grid once per strength
        (["sweep", "--experiment", "events", "--event-p", "0"], SWEEP_NEVER_SHOCKS),
    ],
    ids=["initial-price-inf", "initial-price-nan", "b1-nan", "b1-inf", "event-k-nan", "delta1-inf",
         "b1-step-nan", "b1-max-inf", "k-values-nan", "threads-0", "threads-negative",
         "uniform-width-overflow", "uniform-bound-overflow", "b1-axis-empty", "b1-step-tiny",
         "k-values-negative", "event-p-alone", "event-k-zero", "event-p-zero", "sweep-event-p-zero"],
)
def test_non_finite_or_nonpositive_flag_is_usage_error(monkeypatch, argv, message):
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    outcome = run_cli(*argv, "--n-agents", "31", "--horizon", "20", "--runs", "1")
    assert outcome.exit_code == 1
    assert outcome.message.startswith(message)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("verb", ["simulate", "sweep", "verify-appendix"])
def test_seed_outside_64_bits_is_usage_error(monkeypatch, verb, seed):
    # one 64-bit word, refused before any run or sample
    def no_run(*_args, **_kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    monkeypatch.setattr(analytic, "_sample", no_run)
    flags = {"simulate": SMALL, "sweep": ["--experiment", "homogeneous", *SMALL]}.get(verb, [])
    outcome = run_cli(verb, *flags, "--seed", seed)
    assert outcome.exit_code == 1
    assert outcome.message.endswith(f"must lie in [0, 2^64), got {seed}")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--b1", "1e308", "--runs", "1"],
         "config.validate: b1=1e+308 summed over 1001 agents overflows"),
        (["sweep", "--experiment", "homogeneous", "--b1-min", "1e300", "--b1-max", "2e300",
          "--b1-step", "1e300"], "config.validate: invalid axis for b1: min=1e+300"),
        # a finite centre, but the drawn couplings sum past the float range
        (["simulate", "--c1", "0", "--delta1", "8e307", "--n-agents", "101", "--runs", "1"],
         "config.validate: couplings summed over 101 agents overflow"),
        # series or a sample draw past the memory budget, refused before allocating
        (["simulate", "--horizon", "1000000000000000000", "--runs", "1"],
         "config.validate: one run's series at horizon=1000000000000000000 need"
         " 80000000000000000080 bytes, over the 1073741824-byte limit\n"),
        (["simulate", "--horizon", "4611686018427387904", "--runs", "1"],
         "config.validate: one run's series at horizon=4611686018427387904 need"
         " 368934881474191032400 bytes, over the 1073741824-byte limit\n"),
        (["verify-appendix", "--samples", "100000000000"],
         "config.validate: 100000000000 samples need 3200000000000 bytes,"
         " over the 1073741824-byte limit\n"),
    ],
    ids=["coupling-sum", "axis-rounding", "drawn-coupling-sum", "horizon-huge", "horizon-2-62",
         "samples-huge"],
)
def test_overflowing_value_exits_1_without_a_warning(argv, message):
    # in a fresh interpreter, so a numpy RuntimeWarning would reach stderr
    env = dict(os.environ, PYTHONPATH=str(Path(mgmarket.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mgmarket.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message)
    assert "Warning" not in proc.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a map over more than one worker process imports the pool machinery;
    # a fresh interpreter, since this one may have loaded it for another test
    env = dict(os.environ, PYTHONPATH=str(Path(mgmarket.__file__).parents[1]))
    probe = "import sys, mgmarket.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_threads_far_past_the_runs_start_no_more_workers_than_runs(pool_workers, monkeypatch,
                                                                   tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(8)), raising=False)
    summary = tmp_path / "s.json"
    outcome = run_cli("simulate", "--n-agents", "31", "--horizon", "50", "--runs", "2",
                      "--threads", "1000000", "--summary", str(summary))
    assert outcome.exit_code == 0
    assert pool_workers == [2]
    assert len(json.loads(summary.read_text())["runs"]) == 2


def test_runs_whose_series_exceed_the_budget_are_refused_before_any_run(monkeypatch):
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    # 80,080 bytes of series and 1,700 of objects per run at the defaults
    outcome = run_cli("simulate", "--runs", "13130", "--threads", "1")
    assert outcome.exit_code == 1
    assert outcome.message == ("config.validate: 13130 kept runs need 1073771400 bytes,"
                               " over the 1073741824-byte limit")


def test_largest_run_count_within_the_budget_is_accepted(monkeypatch):
    monkeypatch.setattr(engine, "run", lambda config, index: engine.RunResult(None, 0.0, index))
    outcome = run_cli("simulate", "--runs", "13129", "--threads", "1")
    assert outcome.exit_code == 0


def test_short_runs_are_refused_by_the_objects_each_keeps(monkeypatch):
    # 240 bytes of series per run at N=1, T=2, but 1,700 more of objects around them:
    # the series alone would fit 4,473,924 runs in the budget
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    outcome = run_cli("simulate", "--n-agents", "1", "--horizon", "2", "--runs", "4473924",
                      "--threads", "1")
    assert outcome.exit_code == 1
    assert outcome.message == ("config.validate: 4473924 kept runs need 8679412560 bytes,"
                               " over the 1073741824-byte limit")


def test_sweep_runs_past_the_budget_are_refused_before_any_run(monkeypatch, tmp_path):
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    outcome = run_cli("sweep", "--experiment", "homogeneous", "--runs", "1000000000000")
    assert outcome.exit_code == 1
    assert outcome.message == ("config.validate: 441000000000000 sweep runs need"
                               " 3528000000007056 bytes, over the 1073741824-byte limit")
    # the default events sweep keeps 88,200 runs' samples for its scatter file
    scatter = tmp_path / "s.csv"
    outcome = run_cli("sweep", "--experiment", "events", "--scatter-out", str(scatter))
    assert outcome.exit_code == 1
    assert outcome.message.startswith("config.validate: 88200 sweep runs need 2823133824 bytes")
    assert not scatter.exists()


def test_mixing_coupling_flags_rejected():
    outcome = run_cli("simulate", *SMALL, "--b1", "0.5", "--c1", "0.5")
    assert outcome.exit_code == 1


def test_sweep_reduced_grid(tmp_path):
    out = tmp_path / "grid.csv"
    outcome = run_cli(
        "sweep", "--experiment", "homogeneous", *SMALL,
        "--b1-min", "-0.9", "--b1-max", "0.9", "--b1-step", "0.9",
        "--b2-min", "-0.9", "--b2-max", "0.9", "--b2-step", "0.9",
        "--out", str(out),
    )
    assert outcome.exit_code == 0
    rows = read_rows(out)
    assert rows[0] == ["axis1", "axis2", "mean_rho", "std_rho", "n_runs"]
    assert len(rows) == 1 + 9
    assert {float(r[0]) for r in rows[1:]} == {-0.9, 0.0, 0.9}


def test_sweep_events_writes_one_grid_per_k(tmp_path):
    cases = {
        "1,2": ["grid_k1.csv", "grid_k2.csv", "scatter_k1.csv", "scatter_k2.csv"],
        "2": ["grid.csv", "scatter.csv"],  # one strength keeps the paths as given
    }
    for i, (k_values, written) in enumerate(cases.items()):
        directory = tmp_path / str(i)
        directory.mkdir()
        outcome = run_cli(
            "sweep", "--experiment", "events", *SMALL,
            "--b1-min", "0.5", "--b1-max", "0.5", "--b1-step", "1",
            "--b2-min", "0.5", "--b2-max", "0.5", "--b2-step", "1",
            "--k-values", k_values, "--event-p", "0.05",
            "--out", str(directory / "grid.csv"),
            "--scatter-out", str(directory / "scatter.csv"),
        )
        assert outcome.exit_code == 0
        assert sorted(p.name for p in directory.iterdir()) == written


def test_sweep_close_k_values_write_two_grids(tmp_path, capsys):
    # each grid is named and labelled by the shortest text that reads back as its strength
    outcome = run_cli(
        "sweep", "--experiment", "events", *SMALL,
        "--b1-min", "0.5", "--b1-max", "0.5", "--b1-step", "1",
        "--b2-min", "0.5", "--b2-max", "0.5", "--b2-step", "1",
        "--k-values", "1,1.0000001", "--event-p", "0.05",
        "--out", str(tmp_path / "grid.csv"),
        "--scatter-out", str(tmp_path / "scatter.csv"),
    )
    assert outcome.exit_code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "grid_k1.0000001.csv", "grid_k1.csv", "scatter_k1.0000001.csv", "scatter_k1.csv"]
    printed = capsys.readouterr().out
    assert "(k=1)" in printed and "(k=1.0000001)" in printed


def test_sweep_bad_k_values_is_usage_error():
    outcome = run_cli("sweep", "--experiment", "events", *SMALL, "--k-values", "1,x")
    assert outcome.exit_code == 1
    assert "--k-values" in outcome.message


def test_sweep_flag_of_unswept_axis_is_usage_error(monkeypatch):
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    outcome = run_cli("sweep", "--experiment", "homogeneous", *SMALL, "--c1-min", "0")
    assert outcome.exit_code == 1
    assert outcome.message == "config.validate: --experiment homogeneous does not take --c1-min"


POINT = ["--b1-min", "0.5", "--b1-max", "0.5", "--b1-step", "1",
         "--b2-min", "0.5", "--b2-max", "0.5", "--b2-step", "1"]
# the one-cell grid of each experiment whose axes are not (b1, b2)
UNIFORM_POINTS = {
    "centers": ["--c1-min", "0.5", "--c1-max", "0.5", "--c1-step", "1",
                "--c2-min", "0.5", "--c2-max", "0.5", "--c2-step", "1"],
    "ranges": ["--delta1-min", "1", "--delta1-max", "1", "--delta1-step", "1",
               "--delta2-min", "1", "--delta2-max", "1", "--delta2-step", "1"],
}


@pytest.mark.parametrize(
    "experiment,flags,refused",
    [
        ("homogeneous", ["--k-values", "1,2"], "--k-values"),
        ("holding", ["--event-p", "0.5"], "--event-p"),
        ("homogeneous", ["--event-p", "0.5", "--event-k", "3"], "--event-k, --event-p"),
        ("events", ["--k-values", "1", "--event-k", "9"], "--event-k"),
        ("homogeneous", ["--b1", "0.9"], "--b1"),
        ("homogeneous", ["--delta1", "3"], "--delta1"),
        ("centers", ["--b2", "0.7"], "--b2"),
        ("centers", ["--c1", "0.7"], "--c1"),
        ("ranges", ["--c1", "0", "--delta2", "2"], "--delta2"),
        ("holding", ["--no-allow-hold"], "--no-allow-hold"),
        ("events", ["--no-events", "--event-p", "0.5"], "--no-events"),
    ],
    ids=["k-values", "event-p", "event-p-and-k", "events-event-k", "homogeneous-b1",
         "homogeneous-delta1", "centers-b2", "centers-c1", "ranges-delta2",
         "holding-no-allow-hold", "events-no-events"],
)
def test_sweep_shock_flag_it_does_not_read_is_usage_error(experiment, flags, refused):
    point = UNIFORM_POINTS.get(experiment, POINT)
    outcome = run_cli("sweep", "--experiment", experiment, *SMALL, *point, *flags)
    assert outcome.exit_code == 1
    assert outcome.message == f"config.validate: --experiment {experiment} does not take {refused}"


@pytest.mark.parametrize("k_values,shown", [("0,-0", "0.0,-0.0"), ("2,2", "2.0,2.0")])
def test_sweep_colliding_k_values_is_usage_error(monkeypatch, tmp_path, k_values, shown):
    # equal strengths (-0.0 is 0) would write their grids to one file
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    outcome = run_cli("sweep", "--experiment", "events", *SMALL, *POINT, "--k-values", k_values,
                      "--out", str(tmp_path / "g.csv"))
    assert outcome.exit_code == 1
    assert outcome.message == f"config.validate: --k-values {shown} would write two grids to one file"
    assert list(tmp_path.iterdir()) == []


def test_events_sweep_from_strength_only_file_shocks_at_the_paper_probability(tmp_path):
    body = "n_agents = 31\nhorizon = 400\nn_runs = 2\nmaster_seed = 7\n"
    files = {"k": "event_strength = 3\n", "pk": "event_probability = 0.0082\nevent_strength = 3\n",
             "plain": ""}
    grids = {}
    for name, events in files.items():
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        cfg.write_text(body + events)
        experiment = "homogeneous" if name == "plain" else "events"
        k_values = [] if name == "plain" else ["--k-values", "3"]
        assert run_cli("sweep", "--experiment", experiment, "--config", str(cfg), *POINT, *k_values,
                       "--threads", "1", "--out", str(out)).exit_code == 0
        grids[name] = out.read_bytes()
    assert grids["k"] == grids["pk"]
    assert grids["k"] != grids["plain"]


def test_events_sweep_from_file_with_zero_probability_is_usage_error(monkeypatch, tmp_path):
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    cfg = tmp_path / "p0.cfg"
    cfg.write_text("event_probability = 0\n")
    outcome = run_cli("sweep", "--experiment", "events", "--config", str(cfg), *POINT, *SMALL)
    assert outcome.exit_code == 1
    assert outcome.message == SWEEP_NEVER_SHOCKS


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep", "--experiment", "homogeneous", *POINT],
     ["sweep", "--experiment", "events", *POINT, "--k-values", "1,2"]],
    ids=["simulate", "sweep", "events"],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_is_io_error_before_any_run(monkeypatch, tmp_path, argv, where):
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    scatter = tmp_path / "dir" / "s.csv"
    if where == "directory":  # where the (first) scatter output would go
        (scatter.parent / ("s_k1.csv" if "events" in argv else "s.csv")).mkdir(parents=True)
    outcome = run_cli(*argv, *SMALL, "--out", str(tmp_path / "g.csv"), "--scatter-out", str(scatter))
    assert outcome.exit_code == 2
    assert outcome.message.startswith("io: [Errno")
    # the grid or trajectory output, opened first, is removed again
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


@pytest.mark.parametrize(
    "argv", [["regress", "in.csv"], ["ar1", "in.csv"], ["verify-appendix", "--samples", "1000"]],
    ids=["regress", "ar1", "verify-appendix"],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_report_output_is_opened_before_the_work(monkeypatch, tmp_path, argv, where):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_load_samples", no_work)
    monkeypatch.setattr(analytic, "verify_appendix", no_work)
    monkeypatch.chdir(tmp_path)
    Path("in.csv").write_text("stock,run,t,expected_return,return\n1,0,1,0.5,0.25\n")
    out = tmp_path / "dir" / "r.csv"
    if where == "directory":
        out.mkdir(parents=True)
    outcome = run_cli(*argv, "--out", str(out))
    assert outcome.exit_code == 2
    assert outcome.message.startswith("io: [Errno")
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == [tmp_path / "in.csv"]


@pytest.mark.parametrize(
    "argv,paths,shared",
    [(["simulate"], ["--out", "s.csv", "--summary", "./s.csv"], "s.csv"),
     (["sweep", "--experiment", "homogeneous", *POINT], ["--out", "s.csv", "--scatter-out", "s.csv"],
      "s.csv"),
     # both name their k=2 file g_k2.csv
     (["sweep", "--experiment", "events", *POINT, "--k-values", "2,3"],
      ["--out", "g.csv", "--scatter-out", "g.csv"], "g_k2.csv")],
    ids=["simulate", "sweep", "events"],
)
def test_two_outputs_naming_one_file_is_usage_error(monkeypatch, tmp_path, argv, paths, shared):
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "run", no_run)
    monkeypatch.chdir(tmp_path)
    outcome = run_cli(*argv, *SMALL, *paths)
    assert outcome.exit_code == 1
    assert outcome.message == f"config.validate: two outputs name one file: {tmp_path / shared}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "experiment,axis,values",
    [("centers", "c1", {-0.5, 0.5}), ("ranges", "delta1", {1.0, 2.0})],
)
def test_sweep_uniform_experiments(tmp_path, experiment, axis, values):
    other = "c2" if experiment == "centers" else "delta2"
    # the coupling flags a uniform plane reads are the ones outside its axes
    template = {"centers": ["--delta1", "1", "--delta2", "1"], "ranges": ["--c1", "0", "--c2", "0"]}
    lo, hi = sorted(values)
    out = tmp_path / "grid.csv"
    outcome = run_cli(
        "sweep", "--experiment", experiment, *SMALL, *template[experiment],
        f"--{axis}-min", str(lo), f"--{axis}-max", str(hi), f"--{axis}-step", str(hi - lo),
        f"--{other}-min", "1", f"--{other}-max", "1", f"--{other}-step", "1",
        "--out", str(out),
    )
    assert outcome.exit_code == 0
    rows = read_rows(out)
    assert len(rows) == 1 + 2
    assert {float(r[0]) for r in rows[1:]} == values
    assert {float(r[1]) for r in rows[1:]} == {1.0}


def test_sweep_holding_experiment(tmp_path):
    out = tmp_path / "grid.csv"
    outcome = run_cli(
        "sweep", "--experiment", "holding", *SMALL,
        "--b1-min", "0.9", "--b1-max", "0.9", "--b1-step", "1",
        "--b2-min", "0.9", "--b2-max", "0.9", "--b2-step", "1",
        "--out", str(out),
    )
    assert outcome.exit_code == 0
    assert len(read_rows(out)) == 2


def test_regress_on_scatter_and_trajectory(tmp_path):
    scatter = tmp_path / "scatter.csv"
    traj = tmp_path / "traj.csv"
    run_cli("simulate", *SMALL, "--b1", "0.9", "--b2", "0.9",
            "--scatter-out", str(scatter), "--out", str(traj))
    report = tmp_path / "report.csv"
    outcome = run_cli("regress", str(scatter), "--out", str(report))
    assert outcome.exit_code == 0
    rows = read_rows(report)
    assert rows[0] == ["stock", "beta1", "p_value", "r_squared", "n"]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert int(rows[1][4]) == 2 * 50  # two runs pooled
    outcome = run_cli("regress", str(traj), "--out", str(report))
    assert outcome.exit_code == 0
    rows = read_rows(report)
    assert int(rows[1][4]) == 50  # one trajectory


def test_ar1_verb(tmp_path):
    traj = tmp_path / "traj.csv"
    run_cli("simulate", *SMALL, "--b1", "0.5", "--b2", "0.5", "--out", str(traj))
    report = tmp_path / "phi.csv"
    outcome = run_cli("ar1", str(traj), "--out", str(report))
    assert outcome.exit_code == 0
    rows = read_rows(report)
    assert rows[0] == ["stock", "phi", "n"]
    assert len(rows) == 3
    assert int(rows[1][2]) == 49


@pytest.mark.parametrize(
    "verb,header", [("regress", "stock,beta1,p_value,r_squared,n"), ("ar1", "stock,phi,n")]
)
def test_report_without_out_goes_to_stdout(tmp_path, capsys, verb, header):
    traj = tmp_path / "traj.csv"
    run_cli("simulate", *SMALL, "--b1", "0.5", "--b2", "0.5", "--out", str(traj))
    capsys.readouterr()
    assert run_cli(verb, str(traj)).exit_code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
    assert list(tmp_path.iterdir()) == [traj]


def test_regress_missing_file_is_runtime_error(tmp_path):
    outcome = run_cli("regress", str(tmp_path / "nope.csv"))
    assert outcome.exit_code == 2


@pytest.mark.parametrize("verb", ["regress", "ar1"])
def test_report_on_input_without_samples_is_runtime_error(tmp_path, verb):
    scatter = tmp_path / "empty.csv"
    scatter.write_text("stock,run,t,expected_return,return\n")
    report = tmp_path / "report.csv"
    outcome = run_cli(verb, str(scatter), "--out", str(report))
    assert outcome.exit_code == 2
    assert outcome.message == f"stats: no samples in {scatter}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.csv"]


def test_regress_on_unknown_header_is_usage_error(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    outcome = run_cli("regress", str(path))
    assert outcome.exit_code == 1
    assert outcome.message == f"config.validate: {path}: unrecognized CSV header ['a', 'b']"


@pytest.mark.parametrize("verb", ["regress", "ar1"])
@pytest.mark.parametrize(
    "source,defect",
    [("scatter", "non-numeric"), ("scatter", "short"), ("scatter", "stock"),
     ("scatter", "non-finite"), ("trajectory", "non-numeric"), ("trajectory", "short"),
     ("trajectory", "non-finite")],
)
def test_malformed_row_is_usage_error(tmp_path, verb, source, defect):
    path = tmp_path / f"{source}.csv"
    run_cli("simulate", *SMALL, f"--{'scatter-' if source == 'scatter' else ''}out", str(path))
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    if defect == "non-numeric":
        cells[4] = "x"
    elif defect == "non-finite":
        cells[4] = "nan"
    elif defect == "short":
        cells = cells[:2]
    else:
        cells[0] = "3"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    report = tmp_path / "report.csv"
    outcome = run_cli(verb, str(path), "--out", str(report))
    assert outcome.exit_code == 1
    assert outcome.message.startswith(f"config.validate: {path}: line 4: malformed row")
    assert not report.exists()


def _samples_by_row_tuples(paths):
    """Reference grouping: each row a tuple of Python floats, one array per (stock, run)."""
    per_stock = {1: [], 2: []}
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader)[0] == "t":
                arr = np.array([[float(r[col]) for col in (4, 2, 8, 6)] for r in reader])
                per_stock[1].append((arr[:, 0], arr[:, 1]))
                per_stock[2].append((arr[:, 2], arr[:, 3]))
                continue
            buckets = {}
            for r in reader:
                buckets.setdefault((int(r[0]), int(r[1])), []).append((float(r[3]), float(r[4])))
            for (stock, _run), pairs in sorted(buckets.items()):
                arr = np.array(pairs)
                per_stock[stock].append((arr[:, 0], arr[:, 1]))
    return per_stock


def test_load_samples_matches_row_tuple_grouping(tmp_path):
    scatter, traj = tmp_path / "scatter.csv", tmp_path / "traj.csv"
    run_cli("simulate", *SMALL, "--runs", "3", "--c1", "0.3", "--delta1", "0.5",
            "--scatter-out", str(scatter), "--out", str(traj))
    header, *rows = scatter.read_text().splitlines()
    # interleave every (stock, run) with the others, then split across two files
    rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
    halves = tmp_path / "a.csv", tmp_path / "b.csv"
    for path, part in zip(halves, (rows[: len(rows) // 2], rows[len(rows) // 2 :])):
        path.write_text("\n".join([header, *part]) + "\n")
    paths = [halves[0], traj, halves[1]]

    loaded, expected = _load_samples(paths), _samples_by_row_tuples(paths)
    assert [len(loaded[s]) for s in (1, 2)] == [3 + 1 + 3] * 2
    for stock in (1, 2):
        for got, want in zip(loaded[stock], expected[stock], strict=True):
            for g, w in zip(got, want):
                assert g.dtype == np.float64 and g.tobytes() == w.tobytes()


def test_simulate_scatter_carries_run_index(tmp_path):
    scatter = tmp_path / "scatter.csv"
    assert run_cli("simulate", *SMALL, "--scatter-out", str(scatter)).exit_code == 0
    rows = read_rows(scatter)[1:]
    config = ModelConfig(n_agents=31, horizon=50, n_runs=2, master_seed=7)
    expected = []
    for run_index in (0, 1):
        result = run(config, run_index)
        for stock in (1, 2):
            x, y = result.samples(stock - 1)
            expected += [
                [str(stock), str(run_index), str(t + 1), repr(float(x[t])), repr(float(y[t]))]
                for t in range(50)
            ]
    assert rows == expected


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_directory_path_is_io_error(tmp_path, flag):
    directory = tmp_path / "adir"
    directory.mkdir()
    outcome = run_cli("simulate", *SMALL, flag, str(directory))
    assert outcome.exit_code == 2
    assert outcome.message.startswith("io: ")
    assert list(directory.iterdir()) == []
    assert not any(p.name.endswith(".part") for p in tmp_path.rglob(".mgmarket-*"))


def test_verify_appendix_small(capsys):
    outcome = run_cli("verify-appendix", "--samples", "20000", "--seed", "3")
    assert outcome.exit_code == 0
    printed = capsys.readouterr().out
    assert "verify-appendix: all 64 cells agree" in printed


def test_verify_appendix_disagreement_exits_3(tmp_path):
    # one sample per point makes no frequency strictly monotone, so each of
    # the 28 cells with a trend fails
    out = tmp_path / "v.csv"
    outcome = run_cli("verify-appendix", "--samples", "1", "--out", str(out))
    assert outcome.exit_code == 3
    assert outcome.message == "analytic.verify_appendix: 28 cells disagree with the oracle"
    rows = read_rows(out)
    assert len(rows) == 1 + 64
    assert sum("FAIL" in row for row in rows[1:]) == 28


@pytest.mark.parametrize("samples", ["0", "-5", "abc"])
def test_verify_appendix_nonpositive_samples_is_usage_error(samples):
    outcome = run_cli("verify-appendix", "--samples", samples)
    assert outcome.exit_code == 1
    assert "--samples: expected a positive integer" in outcome.message


def test_no_partial_files_on_abort(tmp_path):
    out = tmp_path / "traj.csv"
    outcome = run_cli("simulate", *SMALL, "--initial-price", "4.0",
                      "--horizon", "500", "--out", str(out))
    assert outcome.exit_code == 2
    assert not out.exists()
    assert not any(p.name.startswith(".mgmarket-") for p in tmp_path.iterdir())


def test_help_exits_zero():
    assert run_cli("--help").exit_code == 0
    assert run_cli("simulate", "--help").exit_code == 0
