import io

import numpy as np
import pytest

from mgmarket import HomogeneousCoupling, UniformCoupling
from mgmarket.sweep import (
    GRID_COLUMNS,
    SCATTER_COLUMNS,
    cell_seed,
    grid_runs,
    pooled_grid_samples,
    sweep_centers,
    sweep_events,
    sweep_homogeneous,
    sweep_ranges,
    write_grid,
    write_scatter,
)

from conftest import small_config


def tiny(**kw):
    defaults = dict(n_agents=31, horizon=60, n_runs=2)
    defaults.update(kw)
    return small_config(**defaults)


def test_homogeneous_grid_shape_and_bounds():
    grid = sweep_homogeneous(tiny(), b1_values=[-0.5, 0.5], b2_values=[-0.5, 0.0, 0.5])
    assert grid.mean_rho.shape == (2, 3)
    assert grid.rho_runs.shape == (2, 3, 2)
    assert np.all(np.abs(grid.mean_rho) <= 1.0)
    assert grid.n_runs == 2
    empty = sweep_homogeneous(tiny(), b1_values=[], b2_values=[0.5], collect_samples=True)
    assert empty.rho_runs.shape == (0, 1, 2)
    assert empty.samples == []


def test_cells_independent_of_grid_layout():
    full = sweep_homogeneous(tiny(), b1_values=[-0.5, 0.5], b2_values=[-0.5, 0.5])
    reordered = sweep_homogeneous(tiny(), b1_values=[0.5, -0.5], b2_values=[0.5, -0.5])
    sliced = sweep_homogeneous(tiny(), b1_values=[0.5], b2_values=[-0.5])
    assert full.mean_rho[1, 1] == reordered.mean_rho[0, 0]
    assert full.mean_rho[0, 0] == reordered.mean_rho[1, 1]
    assert full.mean_rho[1, 0] == sliced.mean_rho[0, 0]


def test_cell_seed_depends_only_on_coupling():
    assert cell_seed(9, HomogeneousCoupling(0.5, -0.5)) == cell_seed(9, HomogeneousCoupling(0.5, -0.5))
    assert cell_seed(9, HomogeneousCoupling(0.5, -0.5)) != cell_seed(9, HomogeneousCoupling(-0.5, 0.5))
    assert cell_seed(9, UniformCoupling(0.0, 1.0, 0.0, 1.0)) != cell_seed(9, HomogeneousCoupling(0.0, 1.0))


def test_parallel_matches_serial():
    serial = sweep_homogeneous(tiny(), b1_values=[0.0, 0.9], b2_values=[0.0, 0.9], threads=1)
    parallel = sweep_homogeneous(tiny(), b1_values=[0.0, 0.9], b2_values=[0.0, 0.9], threads=2)
    assert np.array_equal(serial.rho_runs, parallel.rho_runs)


def test_centers_and_ranges_share_identical_cell():
    base = tiny(coupling=UniformCoupling(0.0, 1.0, 0.0, 1.0))
    centers = sweep_centers(base, c1_values=[0.0], c2_values=[0.0])
    ranges = sweep_ranges(base, delta1_values=[1.0], delta2_values=[1.0])
    assert centers.rho_runs[0, 0].tolist() == ranges.rho_runs[0, 0].tolist()


@pytest.mark.parametrize(
    "sweep_fn,axes",
    [
        (sweep_centers, dict(c1_values=[0.0], c2_values=[0.0])),
        (sweep_ranges, dict(delta1_values=[1.0], delta2_values=[1.0])),
    ],
    ids=["centers", "ranges"],
)
def test_centers_requires_uniform_template(sweep_fn, axes):
    with pytest.raises(ValueError):
        sweep_fn(tiny(), **axes)


def test_events_p_zero_matches_baseline_grid():
    axes = dict(b1_values=[0.5], b2_values=[0.5])
    baseline = sweep_homogeneous(tiny(), **axes)
    zero_p = sweep_events(tiny(), k_values=[3.0], probability=0.0, **axes)[0]
    assert zero_p.rho_runs.tolist() == baseline.rho_runs.tolist()
    assert zero_p.event_strength == 3.0


def test_events_one_grid_per_strength():
    grids = sweep_events(tiny(), k_values=[1.0, 2.0], probability=0.05,
                         b1_values=[0.5], b2_values=[0.5])
    assert [g.event_strength for g in grids] == [1.0, 2.0]


def test_grid_csv_format():
    grid = sweep_homogeneous(tiny(), b1_values=[0.0, 0.5], b2_values=[0.5])
    buf = io.StringIO()
    write_grid(grid, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(GRID_COLUMNS)
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and float(row[1]) == 0.5
    assert int(row[4]) == 2


def test_scatter_rows_and_pooling():
    grid = sweep_homogeneous(tiny(horizon=40), b1_values=[0.5], b2_values=[0.5],
                             collect_samples=True)
    buf = io.StringIO()
    write_scatter(grid_runs(grid), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(SCATTER_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 2 * 40  # stocks x runs x steps
    assert {r[0] for r in rows} == {"1", "2"}
    x, y = pooled_grid_samples(grid, 0)
    assert len(x) == len(y) == 2 * 40


def test_scatter_run_ids_are_cell_major():
    grid = sweep_homogeneous(tiny(horizon=5), b1_values=[-0.5, 0.5], b2_values=[0.0, 0.5],
                             collect_samples=True)
    runs = list(grid_runs(grid))
    # run id (i1 * n2 + i2) * n_runs + run, with n2 = n_runs = 2
    expected = [(i1, i2, run) for i1 in range(2) for i2 in range(2) for run in range(2)]
    assert [run_id for run_id, _ in runs] == list(range(8))
    for run_id, samples in runs:
        i1, i2, run = expected[run_id]
        assert samples is grid.samples[i1][i2][run]

    buf = io.StringIO()
    write_scatter(runs, buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [i for i in range(8) for _ in range(2 * 5)]
    for r in rows:
        i1, i2, run = expected[int(r[1])]
        x, y = grid.samples[i1][i2][run][int(r[0]) - 1]
        assert (float(r[3]), float(r[4])) == (x[int(r[2]) - 1], y[int(r[2]) - 1])

    for stock in (0, 1):
        x, y = pooled_grid_samples(grid, stock)
        assert x.tolist() == [v for _, s in runs for v in s[stock][0].tolist()]
        assert y.tolist() == [v for _, s in runs for v in s[stock][1].tolist()]


def test_scatter_requires_collection():
    grid = sweep_homogeneous(tiny(), b1_values=[0.5], b2_values=[0.5])
    with pytest.raises(ValueError):
        grid_runs(grid)
    with pytest.raises(ValueError):
        pooled_grid_samples(grid, 0)


def test_sweep_signs_match_analytic_prediction():
    from mgmarket.analytic import predict_correlation_sign

    grid = sweep_homogeneous(
        tiny(n_agents=101, horizon=300, n_runs=10, master_seed=1717),
        b1_values=[-0.9, 0.0, 0.9], b2_values=[-0.9, 0.0, 0.9], threads=2,
    )
    strongest = max(grid.mean_rho[0, 0], grid.mean_rho[2, 2], key=abs)
    matches = 0
    for i1, b1 in enumerate(grid.axes[0]):
        for i2, b2 in enumerate(grid.axes[1]):
            mean = grid.mean_rho[i1, i2]
            predicted = predict_correlation_sign((b1, b2))
            if predicted == "positive":
                matches += mean > 0.05
            elif predicted == "negative":
                matches += mean < -0.05
            else:
                # weak cells sit strictly below the strong diagonal corners
                matches += abs(mean) < abs(strongest)
    assert matches >= 8


def test_grid_transpose_symmetry_statistical():
    from scipy.stats import ks_2samp

    grid = sweep_homogeneous(
        tiny(n_agents=101, horizon=300, n_runs=12),
        b1_values=[0.2, 0.8], b2_values=[0.2, 0.8], threads=2,
    )
    # relabeling symmetry: (b1,b2) vs (b2,b1) cells come from one distribution
    assert ks_2samp(grid.rho_runs[0, 1], grid.rho_runs[1, 0]).pvalue > 0.01
