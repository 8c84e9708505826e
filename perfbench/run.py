"""The mgmarket benchmark.

    python3 perfbench/run.py --workload paper_cell --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout; the program is ``src/mgmarket``,
imported from source.  Each run starts the workload in fresh processes (see
``workload.py``), prints a report and, as its last line, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones of
a separate traced pass (see ``tracing.py``).

End-to-end metrics, per batch of the workload (medians over the run):

* ``wall_s``, ``cpu_s`` (process plus reaped children);
* ``agent_steps_per_s``: N x T x 2 stocks x recorded runs per ``wall_s``;
  calibration passes do not count;
* ``setup_s``: launch of a fresh workload process to its first call into
  mgmarket, the median of five launches (``cli_pipeline``: of every
  mgmarket process of the timed batches);
* ``peak_rss_mb``: the larger of the process's and its children's maximum RSS;
* ``ok_ratio``: 1 - failed / attempted operations.  ``failed_ratio`` itself
  is printed in the report; the result carries ``failed`` and ``attempted``.

``--selfcheck`` runs every workload at its tiny size and asserts that every
metric of ``BENCHMARK.json`` is printed with its unit and that the exact
counts repeat between two traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing
from workload import K_VALUES, SIZES, recorded_runs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_cell", "events_grid", "cli_pipeline")
SETUP_LAUNCHES = 5
END_TO_END_UNITS = {"wall_s": "s", "agent_steps_per_s": "1/s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}
RUN_LIMIT_S = 170  # a run, all its processes included, ends within this
# default sweeps the extrapolations refer to: 21 x 21 cells x 50 runs, 4 strengths
SWEEP_CELLS, SWEEP_RUNS = 441, 50


def launch(argv: list[str], deadline: float) -> dict:
    """Run ``workload.py`` in a fresh process; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), "--launched-at", repr(launched), *argv],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"workload process still running after {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def machine_facts() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def extrapolation(workload: str, cpu_s: float, size: dict) -> dict:
    """Projected CPU-hours of the default sweep this workload is a cell of."""
    if workload == "paper_cell":
        per_run = cpu_s / size["n_runs"]
        return {"default_homogeneous_sweep_cpu_h": per_run * SWEEP_CELLS * SWEEP_RUNS / 3600}
    if workload == "events_grid":
        per_run = cpu_s / (size["n_runs"] * len(K_VALUES))
        return {"default_events_sweep_cpu_h": per_run * SWEEP_CELLS * SWEEP_RUNS * len(K_VALUES) / 3600}
    return {}


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return (result line, report)."""
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--out-dir", str(out_dir)]
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if args.workload != "cli_pipeline":
        for _ in range(SETUP_LAUNCHES - 1):
            setups.append(launch([*common, "--probe"], deadline)["setup_s"])
    run = launch([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups += run.get("setups", [run.get("setup_s")])

    size = SIZES[args.size][args.workload]
    wall = statistics.median(run["walls"])
    cpu = statistics.median(run["cpus"])
    if args.trace:
        metrics = dict(run["layers"])
        metrics.setdefault("sweep.pool.worker_utilization", 0.0)
        metrics.setdefault("sweep.pool.overhead_s", 0.0)
        metrics.setdefault("sweep.write_scatter.mb", 0.0)
        reference = run["serial_walls"] if args.workload == "cli_pipeline" else run["walls"]
        metrics["trace.overhead_ratio"] = (
            statistics.median(run["traced_walls"]) / statistics.median(reference)
        )
        units = tracing.metric_units()
    else:
        metrics = {
            "wall_s": wall,
            "agent_steps_per_s": run["agent_steps"] / wall,
            "cpu_s": cpu,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "ok_ratio": 1.0 - run["failed"] / run["attempted"],
        }
        units = END_TO_END_UNITS
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": size,
        "batches": len(run["walls"]),
        "walls_s": run["walls"],
        "cpus_s": run["cpus"],
        "setups_s": setups,
        "failed_ratio": run["failed"] / run["attempted"],
        "digest_batch0": run["digest0"],
        "machine": machine_facts(),
        "extrapolation": extrapolation(args.workload, cpu, size),
    }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"report": report, "result": result}, indent=2))
    return result, report


def run_quiet(argv: list[str]) -> dict:
    """Result line of one benchmark run; asserts the report line before it."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
    if proc.returncode != 0:
        raise AssertionError(f"{argv} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    report = json.loads(report)["report"]
    assert {"failed_ratio", "machine", "extrapolation", "walls_s"} <= set(report), report
    return json.loads(result)


def selfcheck() -> None:
    """Quick mode: every workload at its tiny size, traced twice."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == tracing.metric_units(), "BENCHMARK.json per_layer differs from tracing.py"
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny"]
        plain = run_quiet([*argv, "--trace", "0"])
        traced = [run_quiet([*argv, "--trace", "1"]) for _ in range(2)]
        for result, wanted in ((plain, end_to_end), *((t, per_layer) for t in traced)):
            assert result["correct"] and result["failed"] == 0, (workload, result)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, sorted(set(got) ^ set(wanted)))
        first, second = ({k: m["value"] for k, m in t["metrics"].items()} for t in traced)
        exact = [k for k in first if k.endswith((".calls", ".passes", ".distinct", ".bytes_computed"))]
        assert all(first[k] == second[k] for k in exact), (workload, [k for k in exact if first[k] != second[k]])
        size = SIZES["tiny"][workload]
        recorded = recorded_runs(workload, size)
        passes = 2 if workload == "events_grid" else 1  # calibration, then shocked
        calls = 2 * size["horizon"] * recorded * passes
        assert first["scoring.select_slots.calls"] == calls, (workload, first["scoring.select_slots.calls"], calls)
        # calls reached only through names imported into another module:
        # engine.pearson, engine.sample_couplings, engine.validate, sweep.fold_seed
        assert first["stats.pearson.calls"] == recorded, workload
        assert first["expectation.sample_couplings.calls"] == recorded * passes, workload
        assert first["config.validate.calls"] > recorded, workload
        assert first["seeding.fold_seed.calls"] >= 1, workload
        print(f"selfcheck {workload}: ok ({len(exact)} exact counts repeat, "
              f"scoring.select_slots.calls = {calls})")


def main() -> None:
    parser = argparse.ArgumentParser(description="mgmarket benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "mgmarket" / "__init__.py").is_file():
        sys.exit(f"no mgmarket sources under {ROOT / 'src'}: run from a source checkout")
    if args.selfcheck:
        selfcheck()
        return
    if args.workload is None:
        parser.error("--workload is required")
    result, report = measure(args)
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
