"""Command-line interface: ``simulate``, ``sweep``, ``regress``,
``verify-appendix`` and ``ar1`` verbs.

Parameters come from an optional flat config file (``--config`` or the
``MGMARKET_CONFIG`` environment variable) with command-line flags winning
over file values.  All outputs are written atomically (temp file + rename) so
aborted long sweeps never leave partial files behind.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, engine, market, stats, sweep
from .config import (
    _HOMOGENEOUS_KEYS,
    _KEYS,
    _UNIFORM_KEYS,
    DEFAULT_UNIFORM,
    ModelConfig,
    UniformCoupling,
    _items,
    config_digest,
    from_items,
    parse_items,
)
from .errors import ConfigError, DegenerateSeriesError, NonPositivePriceError

CONFIG_ENV_VAR = "MGMARKET_CONFIG"
_OVERRIDE_KEYS = _KEYS.keys() - {"coupling"}


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    message: str = ""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; this CLI reserves 2 for
    # runtime errors, so usage problems are rerouted to exit code 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@contextmanager
def _atomic_open(path: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mgmarket-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(path: str | None, header: list[str], rows) -> None:
    """Write a CSV report atomically to ``path``, or to stdout without one."""
    with _atomic_open(path) if path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_list(text: str) -> list[float]:
    """argparse type of a comma-separated list of finite numbers."""
    try:
        values = [float(v) for v in text.split(",")]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")


def _positive_int(text: str) -> int:
    """argparse type of a positive integer."""
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--n-agents", type=int, dest="n_agents")
    parser.add_argument("--memory", type=int)
    parser.add_argument("--strategies", type=int, dest="n_strategies")
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--initial-price", type=float, dest="initial_price")
    parser.add_argument("--a1", type=float)
    parser.add_argument("--a2", type=float)
    parser.add_argument("--b1", type=float, help="homogeneous coupling for stock 1")
    parser.add_argument("--b2", type=float, help="homogeneous coupling for stock 2")
    parser.add_argument("--c1", type=float, help="uniform coupling center for stock 1")
    parser.add_argument("--delta1", type=float, help="uniform coupling half-range for stock 1")
    parser.add_argument("--c2", type=float, help="uniform coupling center for stock 2")
    parser.add_argument("--delta2", type=float, help="uniform coupling half-range for stock 2")
    hold = parser.add_mutually_exclusive_group()
    hold.add_argument("--allow-hold", dest="allow_hold", action="store_const", const=True)
    hold.add_argument("--no-allow-hold", dest="allow_hold", action="store_const", const=False)
    parser.add_argument("--event-p", type=float, dest="event_probability")
    parser.add_argument("--event-k", type=float, dest="event_strength")
    parser.add_argument("--no-events", action="store_true")
    parser.add_argument("--runs", type=int, dest="n_runs")
    parser.add_argument("--seed", type=int, dest="master_seed")
    parser.add_argument("--threads", type=_positive_int, default=os.cpu_count())


def _resolve_config(args) -> tuple[ModelConfig, dict]:
    """File values overlaid with explicit flags; returns config + overrides."""
    items: dict[str, object] = {}
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path, encoding="utf-8") as fh:
            items = parse_items(fh.read())

    # in flag order, which is the key order of the summary's overrides
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in _OVERRIDE_KEYS and value is not None
    }

    hom_given = not _HOMOGENEOUS_KEYS.isdisjoint(overrides)
    uni_given = not _UNIFORM_KEYS.isdisjoint(overrides)
    if hom_given and uni_given:
        raise ConfigError("cannot mix --b1/--b2 with --c1/--delta1/--c2/--delta2")
    if hom_given or uni_given:
        for key in _UNIFORM_KEYS if hom_given else _HOMOGENEOUS_KEYS:
            items.pop(key, None)
        items["coupling"] = "homogeneous" if hom_given else "uniform"

    if getattr(args, "no_events", False):
        for key in ("event_probability", "event_strength"):
            items.pop(key, None)
            overrides.pop(key, None)

    items.update(overrides)
    return from_items(items), overrides


def _write_summary(path, config, overrides, batch) -> None:
    record = {
        "config": dict(_items(config)),
        "config_digest": config_digest(config),
        "overrides": overrides,
        "master_seed": config.master_seed,
        "mean_correlation": batch.mean_correlation,
        "runs": [
            {"run_index": r.run_index, "correlation": r.correlation} for r in batch.runs
        ],
        "metadata": {
            "expectation_series": "population_mean",
            "recorded_window": "main loop only; warm-up excluded",
        },
    }
    with _atomic_open(path) as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def _cmd_simulate(args) -> CommandOutcome:
    config, overrides = _resolve_config(args)
    batch = engine.run_many(config, threads=args.threads)
    if args.out:
        with _atomic_open(args.out) as fh:
            market.write_trajectory(batch.runs[0].market, fh)
    if args.scatter_out:
        runs = ((r.run_index, (r.samples(0), r.samples(1))) for r in batch.runs)
        with _atomic_open(args.scatter_out) as fh:
            sweep.write_scatter(runs, fh)
    if args.summary:
        _write_summary(args.summary, config, overrides, batch)
    print(f"simulate: {config.n_runs} runs, mean correlation {batch.mean_correlation:+.4f}")
    return CommandOutcome(0)


_SWEEP_AXES = ("b1", "b2", "c1", "c2", "delta1", "delta2")
_AXIS_PARTS = ("min", "max", "step")
# far past any grid a sweep can run; a longer axis is a flag mistake
_MAX_AXIS_POINTS = 10_000


def _axis_from_flags(args, name: str, default: np.ndarray) -> np.ndarray:
    lo, hi, step = (getattr(args, f"{name}_{part}") for part in _AXIS_PARTS)
    if lo is None and hi is None and step is None:
        return default
    lo = float(default[0] if lo is None else lo)
    hi = float(default[-1] if hi is None else hi)
    step = float(default[1] - default[0] if step is None else step)
    stop = hi + step / 2
    # arange makes ceil((stop - lo) / step) points: none when rounding at hi
    # swallows step / 2, and more than a grid can run when step is tiny
    # np.round scales every point by 1e10, which must stay finite too
    if (not np.isfinite([lo, hi, step]).all() or step <= 0 or hi < lo
            or not 0 < (stop - lo) / step <= _MAX_AXIS_POINTS
            or not math.isfinite(max(abs(lo), abs(stop)) * 1e10)):
        raise ConfigError(f"invalid axis for {name}: min={lo} max={hi} step={step}")
    return np.round(np.arange(lo, stop, step), 10) + 0.0


def _grid_out_path(base: str, strength: float) -> str:
    root, ext = os.path.splitext(base)
    return f"{root}_k{strength:g}{ext or '.csv'}"


# experiment -> (sweep function name, axis flags, default axis).  The function
# is looked up by name at call time, so a wrapper patched onto the sweep
# module's attribute is the one called.
_EXPERIMENTS = {
    "homogeneous": ("sweep_homogeneous", ("b1", "b2"), sweep.default_homogeneous_axis),
    "holding": ("sweep_homogeneous", ("b1", "b2"), sweep.default_homogeneous_axis),
    "centers": ("sweep_centers", ("c1", "c2"), sweep.default_centers_axis),
    "ranges": ("sweep_ranges", ("delta1", "delta2"), sweep.default_ranges_axis),
    "events": ("sweep_events", ("b1", "b2"), sweep.default_homogeneous_axis),
}


def _cmd_sweep(args) -> CommandOutcome:
    config, _ = _resolve_config(args)
    name, axis_flags, default_axis = _EXPERIMENTS[args.experiment]
    unswept = [
        f"--{axis}-{part}"
        for axis in _SWEEP_AXES
        for part in _AXIS_PARTS
        if axis not in axis_flags and getattr(args, f"{axis}_{part}") is not None
    ]
    if unswept:
        raise ConfigError(f"--experiment {args.experiment} does not sweep {', '.join(unswept)}")
    # an events sweep takes its strengths from --k-values; other sweeps run unshocked
    shock_flags = {"--event-k": args.event_strength}
    if args.experiment != "events":
        shock_flags.update({"--k-values": args.k_values, "--event-p": args.event_probability})
    refused = [flag for flag, value in shock_flags.items() if value is not None]
    if refused:
        raise ConfigError(f"--experiment {args.experiment} does not take {', '.join(refused)}")
    if args.experiment == "holding":
        config = replace(config, allow_hold=True)
    elif args.experiment in ("centers", "ranges"):
        if not isinstance(config.coupling, UniformCoupling):
            config = replace(config, coupling=DEFAULT_UNIFORM)
    kwargs = {f"{flag}_values": _axis_from_flags(args, flag, default_axis()) for flag in axis_flags}
    if args.experiment == "events":
        kwargs["probability"] = args.event_probability
        if args.k_values:
            kwargs["k_values"] = args.k_values
    result = getattr(sweep, name)(
        config, threads=args.threads, collect_samples=args.scatter_out is not None, **kwargs
    )
    grids: list[sweep.SweepGrid] = result if isinstance(result, list) else [result]

    for grid in grids:
        # only an events sweep returns more than one grid
        out, scatter_out = (
            _grid_out_path(path, grid.event_strength) if path and len(grids) > 1 else path
            for path in (args.out, args.scatter_out)
        )
        if out:
            with _atomic_open(out) as fh:
                sweep.write_grid(grid, fh)
        if scatter_out:
            with _atomic_open(scatter_out) as fh:
                sweep.write_scatter(sweep.grid_runs(grid), fh)
        label = "" if grid.event_strength is None else f" (k={grid.event_strength:g})"
        n1, n2 = map(len, grid.axes)
        print(
            f"sweep {args.experiment}{label}: {n1}x{n2} cells x {grid.n_runs} runs "
            f"in {grid.elapsed_seconds:.1f}s"
        )
    return CommandOutcome(0)


def _load_samples(paths) -> dict[int, list[tuple[np.ndarray, np.ndarray]]]:
    """Read trajectory or scatter CSVs into per-stock (expected, return)
    pairs, one per run: a trajectory file is one run, and a scatter file's
    runs come in (stock, run) order with their rows in file order.  Each
    value is packed into a C-double buffer as it is parsed, so a sample row
    holds 16 bytes.  A malformed row is a configuration error naming its
    file and line."""
    per_stock: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {1: [], 2: []}
    for path in paths:
        # (stock, run) -> (expected, return) buffers
        runs = defaultdict(lambda: (array("d"), array("d")))
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header not in (market.TRAJECTORY_COLUMNS, sweep.SCATTER_COLUMNS):
                raise ConfigError(f"{path}: unrecognized CSV header {header}")
            try:
                if header == market.TRAJECTORY_COLUMNS:
                    (x1, y1), (x2, y2) = runs[1, 0], runs[2, 0]
                    for r in reader:
                        x1.append(float(r[4]))
                        y1.append(float(r[2]))
                        x2.append(float(r[8]))
                        y2.append(float(r[6]))
                else:
                    for r in reader:
                        key = (int(r[0]), int(r[1]))
                        if key[0] not in per_stock:
                            raise ValueError(f"no stock {key[0]}")
                        x, y = runs[key]
                        x.append(float(r[3]))
                        y.append(float(r[4]))
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{path}: line {reader.line_num}: malformed row ({exc})") from None
        for (stock, _run), (x, y) in sorted(runs.items()):
            per_stock[stock].append((np.frombuffer(x), np.frombuffer(y)))
    return per_stock


def _stock_report(args, header: list[str], row_of) -> CommandOutcome:
    """Write ``row_of(stock, pairs)`` for each stock with samples in the inputs."""
    per_stock = _load_samples(args.inputs)
    rows = [row_of(stock, pairs) for stock, pairs in per_stock.items() if pairs]
    if not rows:
        raise DegenerateSeriesError(f"no samples in {', '.join(args.inputs)}")
    _write_report(args.out, header, rows)
    return CommandOutcome(0)


def _cmd_regress(args) -> CommandOutcome:
    def row(stock, pairs):
        x, y = (np.concatenate(series) for series in zip(*pairs))
        report = stats.ols(x, y)
        return [stock, repr(report.beta1), repr(report.p_value), repr(report.r_squared), report.n]

    return _stock_report(args, ["stock", "beta1", "p_value", "r_squared", "n"], row)


def _cmd_ar1(args) -> CommandOutcome:
    def row(stock, pairs):
        report = stats.ar1_pooled([y for _x, y in pairs])
        return [stock, repr(report.phi), report.n]

    return _stock_report(args, ["stock", "phi", "n"], row)


def _cmd_verify_appendix(args) -> CommandOutcome:
    report = analytic.verify_appendix(n_samples=args.samples, master_seed=args.master_seed)

    def fmt(flag) -> str:
        return "-" if flag is None else ("ok" if flag else "FAIL")

    header = ["regime", "input", "output", "feasibility", "condition", "trend"]
    rows = [
        [check.regime, analytic.quadrant_str(check.input_quadrant),
         analytic.quadrant_str(check.output_quadrant),
         fmt(check.feasibility_ok), fmt(check.condition_ok), fmt(check.trend_ok)]
        for check in report.checks
    ]
    line = "{:6} {:8} {:8} {:11} {:9} {:5}".format
    print("sampling model: return changes uniform over the signed unit box per quadrant")
    print(line(*header))
    for row, check in zip(rows, report.checks):
        print(line(*row) + (f"  {check.detail}" if check.detail else ""))
    if args.out:
        _write_report(args.out, header, rows)
    if report.passed:
        print(f"verify-appendix: all {len(report.checks)} cells agree at {report.n_samples} samples")
        return CommandOutcome(0)
    return CommandOutcome(
        3, f"analytic.verify_appendix: {len(report.failures)} cells disagree with the oracle"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mgmarket", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="run one configuration and export results")
    _add_model_flags(p)
    p.add_argument("--out", help="trajectory CSV of the first run")
    p.add_argument("--scatter-out", dest="scatter_out", help="pooled (expected, return) samples CSV")
    p.add_argument("--summary", help="batch summary JSON")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="grid of mean correlations over a parameter plane")
    _add_model_flags(p)
    p.add_argument(
        "--experiment",
        required=True,
        choices=["homogeneous", "centers", "ranges", "events", "holding"],
    )
    for axis in _SWEEP_AXES:
        for part in _AXIS_PARTS:
            p.add_argument(f"--{axis}-{part}", type=float, dest=f"{axis}_{part}")
    p.add_argument(
        "--k-values", dest="k_values", type=_float_list, help="comma-separated shock strengths"
    )
    p.add_argument("--out", help="grid CSV (per-k suffix added for events)")
    p.add_argument("--scatter-out", dest="scatter_out")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("regress", help="OLS of return on expected return from CSVs")
    p.add_argument("inputs", nargs="+", help="trajectory or scatter CSV files")
    p.add_argument("--out", help="report CSV (default: stdout)")
    p.set_defaults(handler=_cmd_regress)

    p = sub.add_parser("ar1", help="first-order autoregression of returns from CSVs")
    p.add_argument("inputs", nargs="+", help="trajectory or scatter CSV files")
    p.add_argument("--out", help="report CSV (default: stdout)")
    p.set_defaults(handler=_cmd_ar1)

    p = sub.add_parser("verify-appendix", help="check the sign-case table against sampling")
    p.add_argument("--samples", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=int, dest="master_seed", default=0)
    p.add_argument("--out", help="pass/fail table CSV")
    p.set_defaults(handler=_cmd_verify_appendix)

    return parser


def dispatch(argv) -> CommandOutcome:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandOutcome(1, str(exc))
    except SystemExit as exc:  # --help prints and exits 0
        return CommandOutcome(int(exc.code or 0))
    try:
        return args.handler(args)
    except ConfigError as exc:
        return CommandOutcome(1, f"config.validate: {exc}")
    except NonPositivePriceError as exc:
        return CommandOutcome(2, f"market.update_price: {exc}")
    except DegenerateSeriesError as exc:
        return CommandOutcome(2, f"stats: {exc}")
    except OSError as exc:
        return CommandOutcome(2, f"io: {exc}")


def main() -> None:
    outcome = dispatch(sys.argv[1:])
    if outcome.message:
        stream = sys.stdout if outcome.exit_code == 0 else sys.stderr
        print(outcome.message, file=stream)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
