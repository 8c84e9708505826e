"""Command-line interface: ``simulate``, ``sweep``, ``regress``,
``verify-appendix`` and ``ar1`` verbs.

Parameters come from an optional flat config file, named by ``--config`` alone,
with command-line flags winning over file values.  All outputs are written
atomically (temp file + rename) so aborted long sweeps never leave partial
files behind.  Every verb creates its outputs before its work, so an output
that cannot be written, or two outputs that name one file, end the verb at once.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
import tempfile
from array import array
from collections import defaultdict, deque
from contextlib import ExitStack, contextmanager
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
    check_memory,
    config_digest,
    from_items,
    parse_items,
    series_bytes,
)
from .errors import ConfigError, DegenerateSeriesError, NonPositivePriceError

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
    if os.path.isdir(path):  # os.replace would refuse it only after the writing
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
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


@contextmanager
def _open_outputs(*paths: str | None):
    """Open every named output with :func:`_atomic_open` and yield the files,
    None for an unnamed one, so a path that cannot be written fails before any
    work.  Two outputs that name one file are refused."""
    named = [os.path.abspath(path) for path in paths if path]
    for path in named:
        if named.count(path) > 1:
            raise ConfigError(f"two outputs name one file: {path}")
    with ExitStack() as stack:
        yield [stack.enter_context(_atomic_open(path)) if path else None for path in paths]


def _finite(text: str) -> float:
    """``float(text)``, refusing a non-finite value, which neither an output
    nor ``--k-values`` holds."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    """argparse type of a comma-separated list of finite numbers."""
    try:
        return [_finite(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}") from None


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
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
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


def _write_summary(fh, config, overrides, rho) -> None:
    record = {
        "config": dict(_items(config)),
        "config_digest": config_digest(config),
        "overrides": overrides,
        "master_seed": config.master_seed,
        "mean_correlation": float(rho.mean()),
        "runs": [],
        "metadata": {"expectation_series": "population_mean",
                     "recorded_window": "main loop only; warm-up excluded"},
    }
    head, tail = json.dumps(record, indent=2).split('"runs": []')  # json.dump's layout
    fh.write(head + '"runs": [')
    for index, value in enumerate(rho):  # one run at a time, from the rho array
        fh.write(f'{"," if index else ""}\n    {{\n      "run_index": {index},\n'
                 f'      "correlation": {json.dumps(float(value))}\n    }}')
    fh.write("\n  ]" + tail + "\n")


def _cmd_simulate(args) -> CommandOutcome:
    config, overrides = _resolve_config(args)
    if config.events is not None and 0.0 in (config.events.probability, config.events.strength):
        raise ConfigError("an event model with probability or strength 0 never shocks:"
                          " give --event-p and --event-k above 0, or --no-events")
    with _open_outputs(args.out, args.scatter_out, args.summary) as (out, scatter_out, summary):
        results = engine.run_many(config, threads=args.threads)
        alive = engine.pool_shape(config.n_runs, args.threads)[2]  # runs in the pool's window
        check_memory(8 * config.n_runs + alive * series_bytes(config), f"{config.n_runs} batch runs")
        rho = np.empty(config.n_runs)

        def arrived(r):  # keep its rho and write run 0's trajectory; hand on its samples
            rho[r.run_index] = r.correlation
            if out and r.run_index == 0:
                market.write_trajectory(r.market, out)
            return r.run_index, (r.samples(0), r.samples(1)) if scatter_out else None

        runs = map(arrived, results)
        if scatter_out:
            sweep.write_scatter(runs, scatter_out)
        deque(runs, maxlen=0)  # draw what no scatter file drew: every run, without one
        if summary:
            _write_summary(summary, config, overrides, rho)
    print(f"simulate: {config.n_runs} runs, mean correlation {rho.mean():+.4f}")
    return CommandOutcome(0)


_SWEEP_AXES = tuple(key for fields, _ in sweep.EXPERIMENTS.values() for key in fields)
_AXIS_PARTS = ("min", "max", "step")
# far past any grid a sweep can run; a longer axis is a flag mistake
_MAX_AXIS_POINTS = 10_000


def _axis_from_flags(args, name: str, default: tuple[float, ...]) -> np.ndarray | None:
    lo, hi, step = (getattr(args, f"{name}_{part}") for part in _AXIS_PARTS)
    if lo is None and hi is None and step is None:
        return None
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


def _strength_text(strength: float) -> str:
    """The shortest text that reads back as ``strength``: ``1`` for 1.0, ``0`` for -0.0."""
    return repr(strength + 0.0).removesuffix(".0")


def _grid_out_path(base: str, strength: float) -> str:
    root, ext = os.path.splitext(base)
    return f"{root}_k{_strength_text(strength)}{ext or '.csv'}"


def _cmd_sweep(args) -> CommandOutcome:
    config, _ = _resolve_config(args)
    # events and holding re-run the homogeneous plane
    plane = args.experiment if args.experiment in sweep.EXPERIMENTS else "homogeneous"
    fields, default = sweep.EXPERIMENTS[plane]
    # a uniform plane reads the coupling fields outside its axes from the
    # template; the sweep overwrites every other coupling flag
    reads = set() if plane == "homogeneous" else _UNIFORM_KEYS.difference(fields)
    ignored = {f"--{key}": getattr(args, key) for key in _SWEEP_AXES if key not in reads}
    # and only the plane's own axes take axis flags
    ignored.update({f"--{key}-{part}": getattr(args, f"{key}_{part}")
                    for key in _SWEEP_AXES if key not in fields for part in _AXIS_PARTS})
    # an events sweep takes its strengths from --k-values; other sweeps run unshocked
    ignored["--event-k"] = args.event_strength
    if args.experiment == "events":
        ignored["--no-events"] = args.no_events or None
        if config.events is not None and config.events.probability == 0.0:
            raise ConfigError("an events sweep with shock probability 0 never shocks:"
                              " give --event-p above 0")
    else:
        ignored.update({"--k-values": args.k_values, "--event-p": args.event_probability})
    if args.experiment == "holding":
        ignored["--no-allow-hold"] = args.allow_hold is False or None
        config = replace(config, allow_hold=True)
    refused = [flag for flag, value in ignored.items() if value is not None]
    if refused:
        raise ConfigError(f"--experiment {args.experiment} does not take {', '.join(refused)}")
    names = [_grid_out_path("", k) for k in args.k_values or ()]
    if len(set(names)) < len(names):
        k_values = ",".join(map(repr, args.k_values))
        raise ConfigError(f"--k-values {k_values} would write two grids to one file")
    if plane != "homogeneous" and not isinstance(config.coupling, UniformCoupling):
        config = replace(config, coupling=DEFAULT_UNIFORM)
    axes = tuple(_axis_from_flags(args, key, default) for key in fields)
    collect = args.scatter_out is not None
    strengths = (args.k_values or sweep.DEFAULT_K_VALUES) if args.experiment == "events" else [None]
    # a grid's (out, scatter_out); only an events sweep has more than one grid
    paths = [
        _grid_out_path(path, k) if path and len(strengths) > 1 else path
        for k in strengths for path in (args.out, args.scatter_out)
    ]
    with _open_outputs(*paths) as files:
        grids = sweep._sweep(config, plane, axes, args.threads, collect, strengths)
        for grid, out, scatter_out in zip(grids, files[::2], files[1::2]):
            if out:
                sweep.write_grid(grid, out)
            if scatter_out:
                sweep.write_scatter(sweep.grid_runs(grid), scatter_out)
    for grid in grids:
        label = "" if grid.event_strength is None else f" (k={_strength_text(grid.event_strength)})"
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
    holds 16 bytes.  A malformed row, a non-finite value included, is a
    configuration error naming its file and line."""
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
                    for r in reader:  # a run's buffers are made with its first row
                        (x1, y1), (x2, y2) = runs[1, 0], runs[2, 0]
                        x1.append(_finite(r[4]))
                        y1.append(_finite(r[2]))
                        x2.append(_finite(r[8]))
                        y2.append(_finite(r[6]))
                else:
                    for r in reader:
                        key = (int(r[0]), int(r[1]))
                        if key[0] not in per_stock:
                            raise ValueError(f"no stock {key[0]}")
                        x, y = runs[key]
                        x.append(_finite(r[3]))
                        y.append(_finite(r[4]))
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{path}: line {reader.line_num}: malformed row ({exc})") from None
        for (stock, _run), (x, y) in sorted(runs.items()):
            per_stock[stock].append((np.frombuffer(x), np.frombuffer(y)))
    return per_stock


def _stock_report(args, header: list[str], row_of) -> CommandOutcome:
    """Write ``row_of(stock, pairs)`` for each stock with samples in the inputs
    as CSV to ``--out``, or to stdout without one."""
    with _open_outputs(args.out) as (out,):
        per_stock = _load_samples(args.inputs)
        rows = [row_of(stock, pairs) for stock, pairs in per_stock.items() if pairs]
        if not rows:
            raise DegenerateSeriesError(f"no samples in {', '.join(args.inputs)}")
        csv.writer(out or sys.stdout).writerows([header, *rows])
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
    def fmt(flag) -> str:
        return "-" if flag is None else ("ok" if flag else "FAIL")

    header = ["regime", "input", "output", "feasibility", "condition", "trend"]
    with _open_outputs(args.out) as (out,):
        report = analytic.verify_appendix(n_samples=args.samples, master_seed=args.master_seed)
        rows = [
            [check.regime, analytic.quadrant_str(check.input_quadrant),
             analytic.quadrant_str(check.output_quadrant),
             fmt(check.feasibility_ok), fmt(check.condition_ok), fmt(check.trend_ok)]
            for check in report.checks
        ]
        if out:
            csv.writer(out).writerows([header, *rows])
    line = "{:6} {:8} {:8} {:11} {:9} {:5}".format
    print("sampling model: return changes uniform over the signed unit box per quadrant")
    print(line(*header))
    for row, check in zip(rows, report.checks):
        print(line(*row) + (f"  {check.detail}" if check.detail else ""))
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
        choices=[*sweep.EXPERIMENTS, "events", "holding"],
    )
    for axis in _SWEEP_AXES:
        for part in _AXIS_PARTS:
            p.add_argument(f"--{axis}-{part}", type=float, dest=f"{axis}_{part}")
    p.add_argument(
        "--k-values", dest="k_values", type=_float_list, help="comma-separated shock strengths"
    )
    p.add_argument("--out", help="grid CSV (per-k suffix added when more than one strength)")
    p.add_argument("--scatter-out", dest="scatter_out")
    p.set_defaults(handler=_cmd_sweep)

    for verb, handler, text in (
        ("regress", _cmd_regress, "OLS of return on expected return from CSVs"),
        ("ar1", _cmd_ar1, "first-order autoregression of returns from CSVs"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("inputs", nargs="+", help="trajectory or scatter CSV files")
        p.add_argument("--out", help="report CSV (default: stdout)")
        p.set_defaults(handler=handler)

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
