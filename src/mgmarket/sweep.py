"""Parameter-plane sweeps: grids of mean return correlation.

Each grid cell is a full Monte Carlo batch (``n_runs`` independent runs) at
one point of the swept parameter plane.  A cell's master seed is folded from
the base master seed and the cell's coupling parameters alone, so results are
independent of execution order, identical cells in different experiments are
bit-identical, and event-strength variants of the same cell share all
non-event randomness (making strength comparisons paired).

Experiments:

* homogeneous  -- shared coupling weights (b1, b2) on a square grid;
* centers      -- per-agent uniform couplings, sweeping the centers (c1, c2);
* ranges       -- per-agent uniform couplings, sweeping the half-ranges;
* events       -- the homogeneous grid re-run per external-shock strength k;
* holding      -- the homogeneous grid with the hold decision enabled.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import engine
from .config import (
    Coupling,
    EventModel,
    HomogeneousCoupling,
    ModelConfig,
    UniformCoupling,
    validate,
)
from .seeding import fold_seed

DEFAULT_EVENT_PROBABILITY = 0.0082


def default_homogeneous_axis() -> np.ndarray:
    return np.round(np.linspace(-1.0, 1.0, 21), 10) + 0.0


def default_centers_axis() -> np.ndarray:
    return np.round(np.linspace(-1.0, 1.0, 11), 10) + 0.0


def default_ranges_axis() -> np.ndarray:
    return np.round(np.linspace(1.0, 5.0, 9), 10) + 0.0


def cell_seed(master_seed: int, coupling: Coupling) -> int:
    """Seed of one grid cell, a function of the coupling parameters only."""
    if isinstance(coupling, HomogeneousCoupling):
        return fold_seed(master_seed, "cell:homogeneous", (coupling.b1, coupling.b2))
    return fold_seed(
        master_seed,
        "cell:uniform",
        (coupling.c1, coupling.delta1, coupling.c2, coupling.delta2),
    )


RunSamples = tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass
class SweepGrid:
    axes: tuple[np.ndarray, np.ndarray]
    rho_runs: np.ndarray  # (n1, n2, n_runs)
    elapsed_seconds: float
    event_strength: Optional[float] = None
    samples: Optional[list[list[list[RunSamples]]]] = field(default=None, repr=False)

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


def _cell_task(args) -> tuple[float, Optional[RunSamples]]:
    config, run_index, want_samples = args
    result = engine.run(config, run_index)
    samples = None
    if want_samples:
        samples = (result.samples(0), result.samples(1))
    return result.correlation, samples


def _axes(values: tuple, default) -> tuple[np.ndarray, ...]:
    """The two axes of a sweep; ``default()`` stands in for values of None."""
    return tuple(np.asarray(default() if v is None else v, dtype=float) for v in values)


def _sweep(
    base: ModelConfig,
    axes: tuple[np.ndarray, ...],
    coupling_of: Callable[[float, float], Coupling],
    threads: Optional[int],
    collect_samples: bool,
) -> SweepGrid:
    """Run ``base.n_runs`` runs at every cell of the ``axes`` plane.

    The cell at (v1, v2) is ``base`` with coupling ``coupling_of(v1, v2)``
    and the master seed :func:`cell_seed` folds from that coupling.
    """
    t0 = time.monotonic()
    n1, n2 = map(len, axes)
    n_runs = base.n_runs
    tasks = []
    for v1 in axes[0]:
        for v2 in axes[1]:
            coupling = coupling_of(float(v1), float(v2))
            seed = cell_seed(base.master_seed, coupling)
            cell = replace(base, coupling=coupling, master_seed=seed)
            tasks += [(cell, run, collect_samples) for run in range(n_runs)]
    outcomes = engine.pool_map(_cell_task, tasks, threads)

    # tasks run in (cell row, cell column, run) order
    rho = np.array([value for value, _ in outcomes], dtype=float).reshape(n1, n2, n_runs)
    samples = None
    if collect_samples:
        runs = (run_samples for _, run_samples in outcomes)
        samples = [[[next(runs) for _ in range(n_runs)] for _ in range(n2)] for _ in range(n1)]
    return SweepGrid(
        axes=axes,
        rho_runs=rho,
        elapsed_seconds=time.monotonic() - t0,
        event_strength=None if base.events is None else base.events.strength,
        samples=samples,
    )


def sweep_homogeneous(
    base_config: ModelConfig,
    b1_values: Optional[Sequence[float]] = None,
    b2_values: Optional[Sequence[float]] = None,
    threads: Optional[int] = None,
    collect_samples: bool = False,
) -> SweepGrid:
    """Mean correlation over a (b1, b2) grid with shared coupling weights."""
    validate(base_config)
    axes = _axes((b1_values, b2_values), default_homogeneous_axis)
    base = replace(base_config, events=None)
    return _sweep(base, axes, HomogeneousCoupling, threads, collect_samples)


def sweep_centers(
    base_config: ModelConfig,
    c1_values: Optional[Sequence[float]] = None,
    c2_values: Optional[Sequence[float]] = None,
    threads: Optional[int] = None,
    collect_samples: bool = False,
) -> SweepGrid:
    """Mean correlation over a (c1, c2) grid of uniform-coupling centers."""
    validate(base_config)
    if not isinstance(base_config.coupling, UniformCoupling):
        raise ValueError("centers sweep requires a uniform coupling template")
    axes = _axes((c1_values, c2_values), default_centers_axis)
    base = replace(base_config, events=None)
    d1, d2 = base.coupling.delta1, base.coupling.delta2
    return _sweep(
        base, axes, lambda c1, c2: UniformCoupling(c1, d1, c2, d2), threads, collect_samples
    )


def sweep_ranges(
    base_config: ModelConfig,
    delta1_values: Optional[Sequence[float]] = None,
    delta2_values: Optional[Sequence[float]] = None,
    threads: Optional[int] = None,
    collect_samples: bool = False,
) -> SweepGrid:
    """Mean correlation over a (delta1, delta2) grid of uniform half-ranges."""
    validate(base_config)
    if not isinstance(base_config.coupling, UniformCoupling):
        raise ValueError("ranges sweep requires a uniform coupling template")
    axes = _axes((delta1_values, delta2_values), default_ranges_axis)
    base = replace(base_config, events=None)
    c1, c2 = base.coupling.c1, base.coupling.c2
    return _sweep(
        base, axes, lambda d1, d2: UniformCoupling(c1, d1, c2, d2), threads, collect_samples
    )


def sweep_events(
    base_config: ModelConfig,
    k_values: Sequence[float] = (1.0, 2.0, 3.0, 4.0),
    b1_values: Optional[Sequence[float]] = None,
    b2_values: Optional[Sequence[float]] = None,
    probability: Optional[float] = None,
    threads: Optional[int] = None,
    collect_samples: bool = False,
) -> list[SweepGrid]:
    """One homogeneous grid per external-shock strength k.

    Cells across strengths share seeds, so each k grid is a paired variant of
    the k=0 baseline.
    """
    validate(base_config)
    axes = _axes((b1_values, b2_values), default_homogeneous_axis)
    if probability is None:
        probability = (
            base_config.events.probability
            if base_config.events is not None
            else DEFAULT_EVENT_PROBABILITY
        )
    grids = []
    for k in k_values:
        events = EventModel(probability=float(probability), strength=float(k))
        base = replace(base_config, events=events)
        grids.append(_sweep(base, axes, HomogeneousCoupling, threads, collect_samples))
    return grids


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


def pooled_grid_samples(grid: SweepGrid, stock_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate every cell's (expected, return) samples for one stock."""
    xs, ys = zip(*(run_samples[stock_index] for _, run_samples in grid_runs(grid)))
    return np.concatenate(xs), np.concatenate(ys)
