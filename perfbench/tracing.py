"""Per-layer tracing of mgmarket from outside the package.

A traced pass swaps wrappers onto the attributes of mgmarket's modules before
the workload runs.  Names that one module imported from another
(``engine.pearson``, ``engine.sample_couplings``, ``engine.validate``,
``sweep.fold_seed`` ...) are separate attributes whose calls bypass the
original one, so every attribute of every loaded mgmarket module that *is*
the target function gets the same wrapper.

Each wrapped call records a span ``(id, parent id, name, start, end)`` in
memory; :meth:`Tracer.take` aggregates them into ``calls``, inclusive seconds
and self seconds (inclusive minus the time covered by child spans) per name.
Probes compute extra counts (tie share, computed bytes, calibration passes)
inside ``trace.accounting`` spans, whose time is taken out of the inclusive
and self seconds of every span around them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

ACCOUNTING = "trace.accounting"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self.calibration_keys: set = set()
        self._stack = [0]  # id 0 is the root: no traced caller
        self._next_id = 1
        self._saved: list[np.ndarray] = []
        self._names: dict[str, int] = {}

    def call(self, name: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                self.call(ACCOUNTING, probe, (self, *args), kwargs)
            return self.call(name, fn, args, kwargs)

        return wrapper

    def take(self) -> tuple[dict[str, list], Counter]:
        """Aggregate and clear the finished spans and the probe counters.

        Returns ``name -> [calls, s, self_s]`` and the counters.
        """
        spans, self.spans = self.spans, []
        counters, self.counters = self.counters, Counter()
        self.calibration_keys = set()
        name_of = {sid: name for sid, _, name, _, _ in spans}
        agg: dict[str, list] = {}
        # accounting time inside each span's subtree; spans are in end order,
        # so a span's descendants are all seen before it
        accounting: dict[int, float] = {}
        for sid, parent, name, t0, t1 in spans:
            inner = accounting.pop(sid, 0.0)
            hidden = t1 - t0 if name == ACCOUNTING else inner
            accounting[parent] = accounting.get(parent, 0.0) + hidden
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += t1 - t0 - inner
            entry[2] += t1 - t0
            if parent in name_of:
                agg.setdefault(name_of[parent], [0, 0.0, 0.0])[2] -= t1 - t0
        if spans:
            ids = {n: self._names.setdefault(n, len(self._names)) for n in name_of.values()}
            self._saved.append(
                np.array(
                    [(s, p, ids[n], t0, t1) for s, p, n, t0, t1 in spans],
                    dtype=[("id", "i8"), ("parent", "i8"), ("name", "i4"), ("start", "f8"), ("end", "f8")],
                )
            )
        return agg, counters

    def save(self, path) -> None:
        """Write every span taken so far, with the name table, as ``.npz``."""
        spans = np.concatenate(self._saved) if self._saved else np.array([])
        np.savez(path, spans=spans, names=np.array(sorted(self._names, key=self._names.get)))


def merge(total: dict[str, list], part: dict[str, list]) -> dict[str, list]:
    for name, (calls, s, self_s) in part.items():
        entry = total.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += s
        entry[2] += self_s
    return total


# Per-layer metrics: (span name, fields reported from its aggregate).
SPAN_FIELDS = [
    ("engine.simulate_trajectory", ("calls", "s", "self_s")),
    ("engine.build_components", ("calls", "s")),
    ("scoring.select_slots", ("calls", "s")),
    ("strategy.decide_all_slots", ("calls", "s")),
    ("scoring.update_scores", ("calls", "s")),
    ("market.excess_demand", ("calls", "s")),
    ("market.update_price", ("calls", "s")),
    ("market.log_return", ("calls", "s")),
    ("market.external_demand", ("calls", "s")),
    ("strategy.sample_strategy_tables", ("calls", "s")),
    ("expectation.sample_couplings", ("calls", "s")),
    ("seeding.stream", ("calls", "s")),
    ("seeding.fold_seed", ("calls",)),
    ("config.validate", ("calls", "s")),
    ("stats.ols", ("calls", "s")),
    ("stats.ar1_pooled", ("calls", "s")),
    ("stats.pearson", ("calls", "s")),
    ("sweep.write_grid", ("s",)),
    ("sweep.write_scatter", ("s",)),
    ("analytic.verify_appendix", ("s",)),
    ("cli.regress", ("self_s",)),
    ("cli.ar1", ("self_s",)),
]
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
# Metrics derived from probe counters or measured by the workload runner:
# tie_share: agent-steps whose top score is tied, so the jitter picks the slot;
# bytes_computed: bytes each call reads and writes, computed from operand and
#   result shapes (no cache effects), per call;
# calibration: uncalibrated passes of events runs, how many were distinct,
#   distinct / passes (1 when there were none);
# samples_held_mb: bytes of the sample arrays a sweep grid holds;
# write_scatter.mb: size of the scatter CSV;
# pool.worker_utilization: pool workers' CPU / (sweep verb wall x workers);
# pool.overhead_s: sweep verb wall with the pool minus the single-worker
#   wall / workers, both untraced;
# overhead_ratio: traced wall / untraced wall of the same batch.
DERIVED_UNITS = {
    "scoring.select_slots.tie_share": "ratio",
    "scoring.select_slots.bytes_computed": "B",
    "strategy.decide_all_slots.bytes_computed": "B",
    "engine.calibration.passes": "count",
    "engine.calibration.distinct": "count",
    "engine.calibration.useful_ratio": "ratio",
    "sweep.samples_held_mb": "MB",
    "sweep.write_scatter.mb": "MB",
    "sweep.pool.worker_utilization": "ratio",
    "sweep.pool.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{span}.{field}": FIELD_UNITS[field] for span, fields in SPAN_FIELDS for field in fields
    }
    units.update(DERIVED_UNITS)
    return units


def layer_metrics(agg: dict[str, list], counters: Counter, batches: int) -> dict[str, float]:
    """Per-batch layer metrics from spans and counters summed over ``batches``.

    Metrics the runner measures itself (pool, scatter file size, overhead)
    are absent here.  A layer the workload never calls reports 0; the
    calibration ratio reports 1 when no calibration pass ran.
    """
    index = {"calls": 0, "s": 1, "self_s": 2}
    values = {
        f"{span}.{field}": agg.get(span, [0, 0.0, 0.0])[index[field]] / batches
        for span, fields in SPAN_FIELDS
        for field in fields
    }
    agents = counters["scoring.select_slots.agents"]
    select_calls = agg.get("scoring.select_slots", [0])[0]
    decide_calls = agg.get("strategy.decide_all_slots", [0])[0]
    passes = counters["engine.calibration.passes"]
    values.update({
        "scoring.select_slots.tie_share": counters["scoring.select_slots.tied"] / agents if agents else 0.0,
        "scoring.select_slots.bytes_computed": (
            counters["scoring.select_slots.bytes"] / select_calls if select_calls else 0.0
        ),
        "strategy.decide_all_slots.bytes_computed": (
            counters["strategy.decide_all_slots.bytes"] / decide_calls if decide_calls else 0.0
        ),
        "engine.calibration.passes": passes / batches,
        "engine.calibration.distinct": counters["engine.calibration.distinct"] / batches,
        "engine.calibration.useful_ratio": (
            counters["engine.calibration.distinct"] / passes if passes else 1.0
        ),
        "sweep.samples_held_mb": counters["sweep.samples_held_bytes"] / batches / 1e6,
    })
    return values


# --- probes: extra counts taken from the arguments of a traced call ---------

def _select_probe(tracer: Tracer, scores, rng):
    # computed bytes: rng.random writes N*S f8; max reads N*S f8, writes N f8;
    # == reads N*S f8 + N f8, writes N*S bool; where reads N*S bool + N*S f8,
    # writes N*S f8; argmax reads N*S f8, writes N i8
    n, s = scores.shape
    tied = np.count_nonzero((scores == scores.max(axis=1, keepdims=True)).sum(axis=1) > 1)
    tracer.counters["scoring.select_slots.tied"] += int(tied)
    tracer.counters["scoring.select_slots.agents"] += n
    tracer.counters["scoring.select_slots.bytes"] += n * (50 * s + 24)


def _decide_probe(tracer: Tracer, tables, state_index):
    # computed bytes: reads the (N,) index and N*S gathered entries, writes N*S
    n, s, _ = tables.shape
    tracer.counters["strategy.decide_all_slots.bytes"] += n * (
        state_index.itemsize + 2 * s * tables.itemsize
    )


def _trajectory_probe(tracer: Tracer, config, components, event_states=None, record_trace=False):
    # an events run first simulates without shocks to calibrate them; that pass
    # is a function of the config without events and of the run's components
    if config.events is None or event_states is not None:
        return
    tracer.counters["engine.calibration.passes"] += 1
    digest = hashlib.sha256(components.tables[0].tobytes() + components.tables[1].tobytes())
    key = (replace(config, events=None), digest.hexdigest())
    if key not in tracer.calibration_keys:
        tracer.calibration_keys.add(key)
        tracer.counters["engine.calibration.distinct"] += 1


def _grid_probe(tracer: Tracer, grid, fh):
    held = 0
    for row in grid.samples or ():
        for cell in row:
            for run_samples in cell:
                held += sum(x.nbytes + y.nbytes for x, y in run_samples)
    tracer.counters["sweep.samples_held_bytes"] += held


# "module.attribute" of each traced function, with its probe; the span name
# is the same, except that CLI verbs drop their ``_cmd_`` prefix
TARGETS = {
    "engine.simulate_trajectory": _trajectory_probe,
    "engine.build_components": None,
    "scoring.select_slots": _select_probe,
    "scoring.update_scores": None,
    "strategy.decide_all_slots": _decide_probe,
    "strategy.sample_strategy_tables": None,
    "market.excess_demand": None,
    "market.update_price": None,
    "market.log_return": None,
    "market.external_demand": None,
    "expectation.sample_couplings": None,
    "seeding.stream": None,
    "seeding.fold_seed": None,
    "stats.pearson": None,
    "stats.ols": None,
    "stats.ar1_pooled": None,
    "config.validate": None,
    "sweep.sweep_homogeneous": None,
    "sweep.sweep_centers": None,
    "sweep.sweep_events": None,
    "sweep.write_grid": _grid_probe,
    "sweep.write_scatter": None,
    "analytic.verify_appendix": None,
    "cli._cmd_sweep": None,
    "cli._cmd_regress": None,
    "cli._cmd_ar1": None,
    "cli._cmd_verify_appendix": None,
}


@contextmanager
def installed(tracer: Tracer):
    """Patch every target and each alias of it; restore all on exit."""
    for target in TARGETS:
        importlib.import_module("mgmarket." + target.split(".")[0])
    loaded = [m for key, m in list(sys.modules.items()) if key == "mgmarket" or key.startswith("mgmarket.")]
    patched = []
    for target, probe in TARGETS.items():
        module, attr = target.split(".")
        original = getattr(sys.modules["mgmarket." + module], attr)
        wrapper = tracer.wrap(f"{module}.{attr.removeprefix('_cmd_')}", original, probe)
        for m in loaded:
            for alias, value in list(vars(m).items()):
                if value is original:
                    setattr(m, alias, wrapper)
                    patched.append((m, alias, original))
    try:
        yield tracer
    finally:
        for m, alias, original in reversed(patched):
            setattr(m, alias, original)
