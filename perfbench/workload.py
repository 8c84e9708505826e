"""One benchmark workload, run in a fresh process started by ``run.py``.

``paper_cell`` and ``events_grid`` are a researcher's script that calls the
public batch API (``sweep.sweep_homogeneous`` / ``sweep.sweep_events``) in a
closed loop: one client, each batch waits for the previous one.
``cli_pipeline`` is a script that launches fresh ``mgmarket`` processes, one
verb after another.  Batch ``b`` of a run with seed ``s`` has master seed
``1000 * s + b``, so a seed fixes every input.

Order inside the process:

1. set-up: interpreter start and imports, up to the first mgmarket call;
2. the golden check: the workload at its tiny size on the default seed,
   compared with ``digests.json``;
3. batch 0: a warm-up at full size, untimed; on the default seed its result
   digest is compared with ``digests.json``.  In-process repeats run slower
   for the first few seconds, so timing starts after it;
4. timed batches for ``--seconds``.  With ``--trace 1`` each round runs a
   batch untraced and then the same batch traced.

Prints one JSON line with the raw measurements.  ``--record-digests``
rewrites ``digests.json`` from the default seed instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
K_VALUES = (1.0, 2.0, 3.0, 4.0)
# timed batches at least; a traced round (untraced batch, then traced) needs one
MIN_BATCHES = 3

SIZES = {
    "full": {
        "paper_cell": {"n_agents": 1001, "horizon": 1000, "n_runs": 4},
        "events_grid": {"n_agents": 1001, "horizon": 1000, "n_runs": 1},
        "cli_pipeline": {"n_agents": 101, "horizon": 1000, "n_runs": 3, "samples": 100_000},
    },
    "tiny": {
        "paper_cell": {"n_agents": 101, "horizon": 100, "n_runs": 2},
        "events_grid": {"n_agents": 101, "horizon": 100, "n_runs": 1},
        "cli_pipeline": {"n_agents": 21, "horizon": 100, "n_runs": 1, "samples": 2_000},
    },
}
CENTERS = ("-1", "1", "1")  # min, max, step of each center axis: a 3x3 grid
CLI_CELLS = 9
POOL_WORKERS = 2  # --threads of the timed cli_pipeline sweep


class CheckFailed(Exception):
    pass


def batch_seed(seed: int, batch: int) -> int:
    return 1000 * seed + batch


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def recorded_runs(workload: str, size: dict) -> int:
    """Runs one batch records; an events run's calibration pass is not one."""
    return size["n_runs"] * {"paper_cell": 1, "events_grid": len(K_VALUES), "cli_pipeline": CLI_CELLS}[workload]


def agent_steps(workload: str, size: dict) -> int:
    """Recorded agent-steps of one batch: N x T x 2 stocks x recorded runs."""
    return size["n_agents"] * size["horizon"] * 2 * recorded_runs(workload, size)


class Ops:
    """Attempted and failed operations of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Call ``fn``; a raise or a failed check counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    def expect(self, digest, wanted) -> None:
        if digest is not None and wanted is not None and digest != wanted:
            print(f"digest mismatch: {digest} != {wanted}", file=sys.stderr)
            self.failed += 1


# --- in-process workloads ---------------------------------------------------

def grids_digest(grids, n_runs: int, strengths) -> str:
    """Check shapes and |rho| <= 1, then hash every grid's ``rho_runs``."""
    import numpy as np

    if [g.event_strength for g in grids] != list(strengths):
        raise CheckFailed(f"grid strengths {[g.event_strength for g in grids]}")
    for grid in grids:
        rho = grid.rho_runs
        if rho.shape != (1, 1, n_runs) or not np.all(np.abs(rho) <= 1.0):
            raise CheckFailed(f"bad rho_runs {rho!r}")
    return hashlib.sha256(
        b"".join(np.ascontiguousarray(g.rho_runs, dtype="<f8").tobytes() for g in grids)
    ).hexdigest()


def paper_cell(master_seed: int, n_agents: int, horizon: int, n_runs: int) -> str:
    from mgmarket import ModelConfig, sweep

    config = ModelConfig(n_agents=n_agents, horizon=horizon, n_runs=n_runs, master_seed=master_seed)
    grid = sweep.sweep_homogeneous(config, [0.5], [0.5], threads=None)
    return grids_digest([grid], n_runs, [None])


def events_grid(master_seed: int, n_agents: int, horizon: int, n_runs: int) -> str:
    from mgmarket import ModelConfig, sweep

    config = ModelConfig(n_agents=n_agents, horizon=horizon, n_runs=n_runs, master_seed=master_seed)
    grids = sweep.sweep_events(config, K_VALUES, [0.5], [-0.5], threads=None)
    return grids_digest(grids, n_runs, K_VALUES)


IN_PROCESS = {"paper_cell": paper_cell, "events_grid": events_grid}


def rounds(seconds: float, minimum: int):
    """Batch numbers 1, 2, ... for about ``seconds``: at least ``minimum``,
    and a further round only if a median round still fits."""
    deadline = time.monotonic() + seconds
    durations = []
    b = 1
    while True:
        start = time.monotonic()
        yield b
        durations.append(time.monotonic() - start)
        if b >= minimum and time.monotonic() + statistics.median(durations) > deadline:
            return
        b += 1


def timed(fn, *args):
    """(wall s, cpu s, result) of one call."""
    c0, t0 = cpu_now(), time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, cpu_now() - c0, result


def run_in_process(args, size: dict, digests: dict) -> dict:
    import mgmarket.sweep  # noqa: F401  (set-up ends at the first call into mgmarket)

    setup_s = time.monotonic() - args.launched_at
    if args.probe:
        return {"setup_s": setup_s}
    fn = IN_PROCESS[args.workload]
    batch = lambda b: fn(batch_seed(args.seed, b), **size)  # noqa: E731
    ops = Ops()
    golden = ops.run(lambda: fn(batch_seed(DEFAULT_SEED, 0), **SIZES["tiny"][args.workload]))
    ops.expect(golden, digests.get("tiny", {}).get(args.workload))
    first = ops.run(batch, 0)
    if args.seed == DEFAULT_SEED:
        ops.expect(first, digests.get(args.size, {}).get(args.workload))

    out = {"setup_s": setup_s, "walls": [], "cpus": [], "traced_walls": []}
    if args.trace:
        import tracing

        tracer, agg, counters = tracing.Tracer(), {}, Counter()
    for b in rounds(args.seconds, 1 if args.trace else MIN_BATCHES):
        wall, cpu, digest = timed(ops.run, batch, b)
        out["walls"].append(wall)
        out["cpus"].append(cpu)
        if args.trace:
            with tracing.installed(tracer):
                wall, _, traced_digest = timed(ops.run, batch, b)
            out["traced_walls"].append(wall)
            part, part_counters = tracer.take()
            tracing.merge(agg, part)
            counters += part_counters
            ops.expect(traced_digest, digest)
    if args.trace:
        out["layers"] = tracing.layer_metrics(agg, counters, len(out["traced_walls"]))
        tracer.save(args.out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    out.update(attempted=ops.attempted, failed=ops.failed, peak_rss_mb=peak_rss_mb(),
               agent_steps=agent_steps(args.workload, size), digest0=first)
    return out


# --- cli_pipeline: fresh mgmarket processes ---------------------------------

def pipeline(workdir: Path, master_seed: int, size: dict, threads: int, trace: bool) -> dict:
    """Run sweep, regress, ar1 and verify-appendix as fresh processes.

    Returns the pipeline's wall and CPU time, each process's set-up time and
    sidecar record, and a digest of the grid, regress and ar1 outputs.
    """
    n, t, runs = str(size["n_agents"]), str(size["horizon"]), str(size["n_runs"])
    files = {name: workdir / f"{name}.csv" for name in ("grid", "scatter", "regress", "ar1", "appendix")}
    verbs = {
        "sweep": ["sweep", "--experiment", "centers",
                  "--c1-min", CENTERS[0], "--c1-max", CENTERS[1], "--c1-step", CENTERS[2],
                  "--c2-min", CENTERS[0], "--c2-max", CENTERS[1], "--c2-step", CENTERS[2],
                  "--delta1", "1", "--delta2", "1", "--n-agents", n, "--memory", "3",
                  "--strategies", "3", "--horizon", t, "--allow-hold", "--threads", str(threads),
                  "--runs", runs, "--seed", str(master_seed),
                  "--out", str(files["grid"]), "--scatter-out", str(files["scatter"])],
        "regress": ["regress", str(files["scatter"]), "--out", str(files["regress"])],
        "ar1": ["ar1", str(files["scatter"]), "--out", str(files["ar1"])],
        "verify_appendix": ["verify-appendix", "--samples", str(size["samples"]),
                            "--seed", str(master_seed), "--out", str(files["appendix"])],
    }
    env = dict(os.environ, PERFBENCH_TRACE="1" if trace else "0")
    records = {}
    c0, t0 = cpu_now(), time.perf_counter()
    for verb, argv in verbs.items():
        sidecar = workdir / f"{verb}.json"
        sidecar.unlink(missing_ok=True)
        launched = time.monotonic()
        # no timeout here: run.py kills this process group, pool workers
        # included, when the run overruns
        code = subprocess.run([sys.executable, str(HERE / "mgmarket_cli.py"), *argv],
                              env=dict(env, PERFBENCH_SIDECAR=str(sidecar)),
                              stdout=subprocess.DEVNULL).returncode
        if code != 0:
            raise CheckFailed(f"mgmarket {verb} exited with {code}")
        record = json.loads(sidecar.read_text())
        record["setup_s"] = record["t_first"] - launched
        records[verb] = record
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    return {"wall": wall, "cpu": cpu, "records": records,
            "scatter_bytes": files["scatter"].stat().st_size,
            "digest": pipeline_digest(files, size)}


def pipeline_digest(files: dict, size: dict) -> str:
    """Check grid, regress and ar1 outputs, then hash them."""
    grid = [line.split(",") for line in files["grid"].read_text().splitlines()[1:]]
    if len(grid) != CLI_CELLS or any(abs(float(r[2])) > 1.0 or int(r[4]) != size["n_runs"] for r in grid):
        raise CheckFailed(f"bad grid {grid}")
    samples = CLI_CELLS * size["n_runs"] * size["horizon"]
    regress = [line.split(",") for line in files["regress"].read_text().splitlines()[1:]]
    ar1 = [line.split(",") for line in files["ar1"].read_text().splitlines()[1:]]
    if [r[-1] for r in regress] != [str(samples)] * 2 or len(ar1) != 2:
        raise CheckFailed(f"bad regress {regress} or ar1 {ar1}")
    blob = b"".join(files[name].read_bytes() for name in ("grid", "regress", "ar1"))
    return hashlib.sha256(blob).hexdigest()


def run_cli(args, size: dict, digests: dict) -> dict:
    workdir = args.out_dir / f"cli-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    def batch(b: int, workers: int, trace: bool = False) -> dict:
        return pipeline(workdir, batch_seed(args.seed, b), size, workers, trace)

    ops = Ops()
    tiny = SIZES["tiny"]["cli_pipeline"]
    golden = ops.run(pipeline, workdir, batch_seed(DEFAULT_SEED, 0), tiny, POOL_WORKERS, False)
    ops.expect(golden and golden["digest"], digests.get("tiny", {}).get("cli_pipeline"))
    first = ops.run(batch, 0, POOL_WORKERS)
    if args.seed == DEFAULT_SEED:
        ops.expect(first and first["digest"], digests.get(args.size, {}).get("cli_pipeline"))

    out = {"walls": [], "cpus": [], "setups": [], "traced_walls": [], "serial_walls": []}
    if args.trace:
        import tracing

        agg, counters, pool = {}, Counter(), []
    for b in rounds(args.seconds, 1 if args.trace else MIN_BATCHES):
        timed_run = ops.run(batch, b, POOL_WORKERS)
        if timed_run is None:
            continue
        out["walls"].append(timed_run["wall"])
        out["cpus"].append(timed_run["cpu"])
        out["setups"] += [r["setup_s"] for r in timed_run["records"].values()]
        if not args.trace:
            continue
        # pool workers lose in-process counters: layer numbers come from a
        # single-worker traced pass over the same inputs, the pool numbers
        # from the children's rusage of the timed two-worker run
        serial = ops.run(batch, b, 1)
        traced = ops.run(batch, b, 1, True)
        if serial is None or traced is None:
            continue
        ops.expect(traced["digest"], timed_run["digest"])
        ops.expect(serial["digest"], timed_run["digest"])
        out["serial_walls"].append(serial["wall"])
        out["traced_walls"].append(traced["wall"])
        for record in traced["records"].values():
            tracing.merge(agg, record["spans"])
            counters += Counter(record["counters"])
        sweep_2, sweep_1 = timed_run["records"]["sweep"], serial["records"]["sweep"]
        wall_2 = sweep_2["t_end"] - sweep_2["t_first"]
        wall_1 = sweep_1["t_end"] - sweep_1["t_first"]
        pool.append((sweep_2["children_cpu"] / (wall_2 * POOL_WORKERS),
                     wall_2 - wall_1 / POOL_WORKERS, traced["scatter_bytes"] / 1e6))
    if args.trace and out["traced_walls"]:
        rounds_done = len(out["traced_walls"])
        out["layers"] = tracing.layer_metrics(agg, counters, rounds_done)
        out["layers"].update({
            "sweep.pool.worker_utilization": statistics.fmean(p[0] for p in pool),
            "sweep.pool.overhead_s": statistics.fmean(p[1] for p in pool),
            "sweep.write_scatter.mb": statistics.fmean(p[2] for p in pool),
        })
    out.update(attempted=ops.attempted, failed=ops.failed, peak_rss_mb=peak_rss_mb(),
               agent_steps=agent_steps("cli_pipeline", size), digest0=first and first["digest"])
    return out


# --- entry -------------------------------------------------------------------

def record_digests(out_dir: Path) -> None:
    """Write digests.json: batch 0 of the default seed at both sizes."""
    import mgmarket.sweep  # noqa: F401

    workdir = out_dir / "cli-record"
    workdir.mkdir(parents=True, exist_ok=True)
    table = {}
    for size_name, sizes in SIZES.items():
        table[size_name] = {
            name: fn(batch_seed(DEFAULT_SEED, 0), **sizes[name]) for name, fn in IN_PROCESS.items()
        }
        table[size_name]["cli_pipeline"] = pipeline(
            workdir, batch_seed(DEFAULT_SEED, 0), sizes["cli_pipeline"], POOL_WORKERS, False)["digest"]
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*IN_PROCESS, "cli_pipeline"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--launched-at", type=float, default=None, help="parent's time.monotonic()")
    parser.add_argument("--probe", action="store_true", help="report set-up time only")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests(args.out_dir)
        return
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    size = SIZES[args.size][args.workload]
    if args.workload == "cli_pipeline":
        result = run_cli(args, size, digests)
    else:
        result = run_in_process(args, size, digests)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
