"""Parameter-plane sweeps: grids of mean return correlation.

Each grid cell is a full Monte Carlo batch (``n_runs`` independent runs) at
one point of the swept parameter plane.  A cell's master seed is folded from
the base master seed and the cell's coupling parameters alone, so results are
independent of execution order, identical cells in different experiments are
bit-identical, and event-strength variants of the same cell share all
non-event randomness (making strength comparisons paired).

Experiments; :data:`EXPERIMENTS` names the two swept coupling fields and the
default axis of each of the first three, the coupling planes:

* homogeneous  -- shared coupling weights (b1, b2) on a square grid;
* centers      -- per-agent uniform couplings, sweeping the centers (c1, c2);
* ranges       -- per-agent uniform couplings, sweeping the half-ranges;
* events       -- the homogeneous grid re-run per external-shock strength k;
* holding      -- the homogeneous grid with the hold decision enabled.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import engine
from .config import (
    DEFAULT_EVENT_PROBABILITY,
    Coupling,
    EventModel,
    HomogeneousCoupling,
    ModelConfig,
    UniformCoupling,
    check_memory,
    validate,
)
from .seeding import fold_seed

DEFAULT_K_VALUES = (1.0, 2.0, 3.0, 4.0)

# plane -> (the two coupling fields it sweeps, their default axis)
EXPERIMENTS = {
    "homogeneous": (("b1", "b2"), tuple(np.round(np.linspace(-1.0, 1.0, 21), 10) + 0.0)),
    "centers": (("c1", "c2"), tuple(np.round(np.linspace(-1.0, 1.0, 11), 10) + 0.0)),
    "ranges": (("delta1", "delta2"), tuple(np.round(np.linspace(1.0, 5.0, 9), 10) + 0.0)),
}


def cell_seed(master_seed: int, coupling: Coupling) -> int:
    """Seed of one grid cell: its coupling's fields in declaration order, tagged by kind."""
    kind = "homogeneous" if isinstance(coupling, HomogeneousCoupling) else "uniform"
    return fold_seed(master_seed, f"cell:{kind}", astuple(coupling))


@dataclass
class SweepGrid:
    axes: tuple[np.ndarray, np.ndarray]
    rho_runs: np.ndarray  # (n1, n2, n_runs)
    elapsed_seconds: float
    event_strength: Optional[float] = None
    # rows of an (n1, n2, n_runs, stock, expected|return, step) array: [i1][i2][run][stock]
    samples: Optional[list[np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.rho_runs.shape[:2] != tuple(map(len, self.axes)):
            raise ValueError("cell count must equal the axis product")
        if np.any(np.abs(self.mean_rho) > 1.0 + 1e-12):
            raise ValueError("cell means must lie in [-1, 1]")

    @property
    def mean_rho(self) -> np.ndarray:
        return self.rho_runs.mean(axis=2)

    @property
    def std_rho(self) -> np.ndarray:
        if self.rho_runs.shape[2] < 2:
            return np.zeros(self.rho_runs.shape[:2])
        return self.rho_runs.std(axis=2, ddof=1)

    @property
    def n_runs(self) -> int:
        return self.rho_runs.shape[2]


def _cell_task(args) -> tuple[float, Optional[tuple]]:  # rho, and each stock's samples
    config, run_index, want_samples = args
    result = engine.run(config, run_index)
    return result.correlation, (result.samples(0), result.samples(1)) if want_samples else None


def _sweep(
    base_config: ModelConfig,
    plane: str,
    values: tuple[Optional[Sequence[float]], Optional[Sequence[float]]],
    threads: Optional[int],
    collect_samples: bool,
    strengths: Sequence[Optional[float]] = (None,),
) -> list[SweepGrid]:
    """Run ``base_config.n_runs`` runs at every cell of ``plane``, once per shock strength.

    ``values`` are the swept fields' axes, None for the default.  A cell sets them
    on a homogeneous or the base's uniform coupling, seeded by :func:`cell_seed`,
    so a cell's runs under each strength are paired.  A strength shocks at the
    base's event probability, or the paper's without an event model; None runs
    unshocked.  A sweep past the memory budget is refused first, and a bad cell before
    the first run; the cells are rebuilt as :func:`engine.pool_map` draws their tasks,
    and each result fills the arrays.  One grid per strength.
    """
    validate(base_config)
    probability = float(getattr(base_config.events, "probability", DEFAULT_EVENT_PROBABILITY))
    shocks = [None if k is None else EventModel(probability, float(k)) for k in strengths]
    fields, default = EXPERIMENTS[plane]
    template = base_config.coupling
    if plane == "homogeneous":
        template = HomogeneousCoupling(0.0, 0.0)
    elif not isinstance(template, UniformCoupling):
        raise ValueError(f"{plane} sweep requires a uniform coupling template")
    axes = tuple(np.asarray(default if v is None else v, dtype=float) for v in values)
    shape = (len(shocks), len(axes[0]), len(axes[1]), base_config.n_runs)
    runs = (cells := shape[0] * shape[1] * shape[2]) * shape[3]
    # float64s: a rho per run, with samples 2 series of 2 stocks, and a cell's mean and std
    per_run = 1 + 4 * base_config.horizon * collect_samples
    alive = engine.pool_shape(runs, threads)[2]  # runs in the pool's window, beside the arrays
    check_memory(8 * ((runs + alive) * per_run + 2 * cells), f"{runs} sweep runs")

    def cell_configs():  # in (shock, cell row, cell column) order, built anew on each pass
        for events in shocks:
            for v1 in axes[0]:
                for v2 in axes[1]:
                    coupling = replace(template, **{fields[0]: float(v1), fields[1]: float(v2)})
                    yield replace(base_config, coupling=coupling, events=events,
                                  master_seed=cell_seed(base_config.master_seed, coupling))

    t0 = time.monotonic()
    for cell in cell_configs():
        validate(cell)
    rho = np.empty(shape)
    samples = np.empty((*shape, 2, 2, base_config.horizon)) if collect_samples else None
    tasks = ((cell, run, collect_samples) for cell in cell_configs() for run in range(shape[3]))
    for i, (value, run_samples) in enumerate(engine.pool_map(_cell_task, tasks, runs, threads)):
        rho.flat[i] = value
        if run_samples is not None:
            samples.reshape(runs, 2, 2, -1)[i] = run_samples
    elapsed = time.monotonic() - t0
    return [
        SweepGrid(axes, rho[k], elapsed, None if events is None else events.strength,
                  None if samples is None else list(samples[k]))
        for k, events in enumerate(shocks)
    ]


def sweep_homogeneous(
    base_config: ModelConfig,
    b1_values: Optional[Sequence[float]] = None,
    b2_values: Optional[Sequence[float]] = None,
    threads: Optional[int] = None,
    collect_samples: bool = False,
) -> SweepGrid:
    """Mean correlation over a (b1, b2) grid with shared coupling weights."""
    return _sweep(base_config, "homogeneous", (b1_values, b2_values), threads, collect_samples)[0]


def sweep_centers(
    base_config: ModelConfig,
    c1_values: Optional[Sequence[float]] = None,
    c2_values: Optional[Sequence[float]] = None,
    threads: Optional[int] = None,
    collect_samples: bool = False,
) -> SweepGrid:
    """Mean correlation over a (c1, c2) grid of uniform-coupling centers."""
    return _sweep(base_config, "centers", (c1_values, c2_values), threads, collect_samples)[0]


def sweep_ranges(
    base_config: ModelConfig,
    delta1_values: Optional[Sequence[float]] = None,
    delta2_values: Optional[Sequence[float]] = None,
    threads: Optional[int] = None,
    collect_samples: bool = False,
) -> SweepGrid:
    """Mean correlation over a (delta1, delta2) grid of uniform half-ranges."""
    return _sweep(base_config, "ranges", (delta1_values, delta2_values), threads, collect_samples)[0]


def sweep_events(
    base_config: ModelConfig,
    k_values: Sequence[float] = DEFAULT_K_VALUES,
    b1_values: Optional[Sequence[float]] = None,
    b2_values: Optional[Sequence[float]] = None,
    threads: Optional[int] = None,
    collect_samples: bool = False,
) -> list[SweepGrid]:
    """One homogeneous grid per external-shock strength k, from one :func:`_sweep` call.

    Cells across strengths share seeds, so each k grid is a paired variant of
    the k=0 baseline.  Every strength is checked before the first run.
    """
    return _sweep(base_config, "homogeneous", (b1_values, b2_values), threads, collect_samples,
                  k_values)


# --- CSV export -------------------------------------------------------------

GRID_COLUMNS = ["axis1", "axis2", "mean_rho", "std_rho", "n_runs"]
SCATTER_COLUMNS = ["stock", "run", "t", "expected_return", "return"]


def write_grid(grid: SweepGrid, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(GRID_COLUMNS)
    mean, std = grid.mean_rho, grid.std_rho
    for i1, v1 in enumerate(grid.axes[0]):
        for i2, v2 in enumerate(grid.axes[1]):
            writer.writerow(
                [repr(float(v1)), repr(float(v2)), repr(float(mean[i1, i2])),
                 repr(float(std[i1, i2])), grid.n_runs]
            )


def grid_runs(grid: SweepGrid):
    """``enumerate`` over every run's samples in cell order, so the run id of
    run ``run`` of cell (i1, i2) is ``(i1 * n2 + i2) * n_runs + run``."""
    if grid.samples is None:
        raise ValueError("sweep was executed without collect_samples")
    return enumerate(run for row in grid.samples for cell in row for run in cell)


def write_scatter(runs, fh) -> None:
    """Write (stock, run, t, expected, return) rows from (run id, samples) pairs."""
    writer = csv.writer(fh)
    writer.writerow(SCATTER_COLUMNS)
    for run_id, run_samples in runs:
        for stock, (expected, realized) in enumerate(run_samples, start=1):
            for t in range(len(expected)):
                writer.writerow(
                    [stock, run_id, t + 1, repr(float(expected[t])), repr(float(realized[t]))]
                )

