import io
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mgmarket import (ConfigError, EventModel, HomogeneousCoupling, ModelConfig,
                      NonPositivePriceError, UniformCoupling)
from mgmarket import engine, sweep
from mgmarket.sweep import (
    GRID_COLUMNS,
    SCATTER_COLUMNS,
    SweepGrid,
    cell_seed,
    grid_runs,
    sweep_centers,
    sweep_events,
    sweep_homogeneous,
    sweep_ranges,
    write_grid,
    write_scatter,
)

from conftest import small_config


def pooled(grid, stock_index):
    """Every run's (expected, return) samples of one stock, in run-id order."""
    xs, ys = zip(*(samples[stock_index] for _, samples in grid_runs(grid)))
    return np.concatenate(xs), np.concatenate(ys)


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


@pytest.mark.parametrize(
    "plane,fields,points",
    [
        ("homogeneous", ("b1", "b2"), "-1.0 -0.9 -0.8 -0.7 -0.6 -0.5 -0.4 -0.3 -0.2 -0.1 0.0"
                                      " 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0"),
        ("centers", ("c1", "c2"), "-1.0 -0.8 -0.6 -0.4 -0.2 0.0 0.2 0.4 0.6 0.8 1.0"),
        ("ranges", ("delta1", "delta2"), "1.0 1.5 2.0 2.5 3.0 3.5 4.0 4.5 5.0"),
    ],
    ids=["homogeneous", "centers", "ranges"],
)
def test_default_axes(plane, fields, points):
    # repr round-trips, so this pins every bit of every default point
    assert sweep.EXPERIMENTS[plane][0] == fields
    assert [repr(float(v)) for v in sweep.EXPERIMENTS[plane][1]] == points.split()


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
    zero_p = sweep_events(tiny(events=EventModel(0.0, 0.0)), k_values=[3.0], **axes)[0]
    assert zero_p.rho_runs.tolist() == baseline.rho_runs.tolist()
    assert zero_p.event_strength == 3.0


def test_events_one_grid_per_strength(monkeypatch):
    pool_maps = []

    def counted(*args):
        pool_maps.append(args)
        return pool_map(*args)

    def sample_bytes(grid):
        return [a.tobytes() for _, samples in grid_runs(grid) for stock in samples for a in stock]

    pool_map = sweep.engine.pool_map
    monkeypatch.setattr(sweep.engine, "pool_map", counted)
    base = tiny(events=EventModel(0.05, 0.0))
    for threads in (None, 2):
        axes = dict(b1_values=[0.5, -0.5], b2_values=[0.5], threads=threads, collect_samples=True)
        pool_maps.clear()
        grids = sweep_events(base, k_values=[1.0, 2.0], **axes)
        assert [g.event_strength for g in grids] == [1.0, 2.0]
        # one task list and one pool for both strengths
        assert len(pool_maps) == 1
        # and each strength's grid is the one it gets alone, bit for bit
        for grid, k in zip(grids, [1.0, 2.0]):
            (alone,) = sweep_events(base, k_values=[k], **axes)
            assert grid.rho_runs.tobytes() == alone.rho_runs.tobytes()
            assert len(sample_bytes(grid)) == 2 * 2 * 2 * 2  # cells x runs x stocks x series
            assert sample_bytes(grid) == sample_bytes(alone)
        assert len(pool_maps) == 3


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
    x, y = pooled(grid, 0)
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
        # a view of the grid's one samples array, not a copy
        cell_run = grid.samples[i1][i2][run]
        assert np.shares_memory(samples, cell_run) and np.array_equal(samples, cell_run)

    buf = io.StringIO()
    write_scatter(runs, buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [i for i in range(8) for _ in range(2 * 5)]
    for r in rows:
        i1, i2, run = expected[int(r[1])]
        x, y = grid.samples[i1][i2][run][int(r[0]) - 1]
        assert (float(r[3]), float(r[4])) == (x[int(r[2]) - 1], y[int(r[2]) - 1])

    for stock in (0, 1):
        x, y = pooled(grid, stock)
        assert x.tolist() == [v for _, s in runs for v in s[stock][0].tolist()]
        assert y.tolist() == [v for _, s in runs for v in s[stock][1].tolist()]


def test_scatter_requires_collection():
    grid = sweep_homogeneous(tiny(), b1_values=[0.5], b2_values=[0.5])
    with pytest.raises(ValueError):
        grid_runs(grid)


@pytest.mark.parametrize(
    "rho_runs,message",
    [(np.zeros((2, 2, 1)), "cell count must equal the axis product"),
     (np.full((2, 3, 2), 1.5), r"cell means must lie in \[-1, 1\]")],
    ids=["shape", "mean-above-1"],
)
def test_sweep_grid_refuses_inconsistent_cells(rho_runs, message):
    axes = (np.array([-0.5, 0.5]), np.array([-0.5, 0.0, 0.5]))
    with pytest.raises(ValueError, match=message):
        SweepGrid(axes, rho_runs, elapsed_seconds=0.0)


def test_sweep_signs_match_analytic_prediction():
    grid = sweep_homogeneous(
        tiny(n_agents=101, horizon=300, n_runs=10, master_seed=1717),
        b1_values=[-0.9, 0.0, 0.9], b2_values=[-0.9, 0.0, 0.9], threads=2,
    )
    strongest = max(grid.mean_rho[0, 0], grid.mean_rho[2, 2], key=abs)
    # returns co-move when both expectations lean on the other stock's past
    # return and move apart when both lean against it; every other cell is weak
    predicted = {(-0.9, -0.9): "negative", (0.9, 0.9): "positive"}
    assert predicted.keys() <= {(b1, b2) for b1 in grid.axes[0] for b2 in grid.axes[1]}
    matches = 0
    for i1, b1 in enumerate(grid.axes[0]):
        for i2, b2 in enumerate(grid.axes[1]):
            mean = grid.mean_rho[i1, i2]
            sign = predicted.get((b1, b2), "weak")
            if sign == "positive":
                matches += mean > 0.05
            elif sign == "negative":
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


def test_std_rho_of_one_run_is_zero_without_warning():
    grid = SweepGrid((np.array([0.5]), np.array([0.5, -0.5])), np.array([[[0.2], [-0.1]]]), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid.std_rho.tolist() == [[0.0, 0.0]]


def _no_run(*_args):
    raise AssertionError("a run started")


@pytest.mark.parametrize(
    "config,axes,collect,strengths,message",
    [(small_config(n_runs=134_217_727), [0.5], False, (None,),
      "134217727 sweep runs need 1073741832 bytes"),
     (small_config(n_runs=34, horizon=1_000_000), [0.5], True, (None,),
      "34 sweep runs need 1088000288 bytes"),
     # the default events sweep with its samples kept: 441 cells, 50 runs, 4 strengths
     (ModelConfig(), None, True, sweep.DEFAULT_K_VALUES, "88200 sweep runs need 2823133824 bytes")],
    ids=["runs", "samples", "default-events-samples"],
)
def test_sweep_past_the_budget_is_refused_before_its_task_list(monkeypatch, config, axes,
                                                               collect, strengths, message):
    # 8 bytes a run for its rho, with samples 32 more per recorded step, and 16 a cell for
    # its mean and std; refused before any run, and before a cell is built
    monkeypatch.setattr(engine, "run", _no_run)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{message}, over the 1073741824-byte limit$"):
            sweep._sweep(config, "homogeneous", (axes, axes), 1, collect, strengths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_largest_sweep_within_the_budget_is_accepted(monkeypatch):
    # 33 runs of 1,000,000 recorded steps with samples hold 1,056,000,280 bytes; the
    # stub hands back no series, so the samples array is allocated but never written
    monkeypatch.setattr(sweep, "_cell_task", lambda task: (0.0, None))
    config = small_config(n_runs=33, horizon=1_000_000)
    grid, = sweep._sweep(config, "homogeneous", ([0.5], [0.5]), 1, True)
    assert grid.n_runs == 33 and grid.samples[0][0].shape == (33, 2, 2, 1_000_000)


def test_sweep_abort_is_the_same_error_serial_and_pooled():
    errors = []
    for threads in (1, 2):
        with pytest.raises(NonPositivePriceError) as err:
            sweep_homogeneous(tiny(initial_price=1.0), [0.5, -0.5], [0.5], threads=threads)
        errors.append(err.value)
    serial, pooled = errors
    assert str(pooled) == str(serial)
    assert (pooled.price, pooled.stock, pooled.step) == (serial.price, serial.stock, serial.step)


@pytest.mark.parametrize("collect", [False, True], ids=["rho", "samples"])
@pytest.mark.parametrize("one_run_cells", [False, True], ids=["one-cell", "one-run-cells"])
def test_sweep_holds_no_more_than_its_memory_rule_counts(monkeypatch, one_run_cells, collect):
    # each run is stubbed, fresh series and all, so what a sweep holds is all that is
    # traced: from 1,000 to 10,000 runs its peak grows by at most what the rule's count grows
    result = SimpleNamespace(correlation=0.0, samples=lambda _stock: (np.zeros(50), np.zeros(50)))
    monkeypatch.setattr(engine, "run", lambda _config, _index: result)
    counted = []
    monkeypatch.setattr(sweep, "check_memory", lambda nbytes, _what: counted.append(nbytes))
    shapes = [(25, 40, 1), (100, 100, 1)] if one_run_cells else [(1, 1, 1_000), (1, 1, 10_000)]
    peaks = []
    for n1, n2, runs in shapes[:1] + shapes:  # the first pass warms what a sweep fills once
        axes = (np.linspace(-1.0, 1.0, n1), np.linspace(-1.0, 1.0, n2))
        config = small_config(n_runs=runs, horizon=50)
        tracemalloc.start()
        try:
            grids = sweep._sweep(config, "homogeneous", axes, 1, collect)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grids[0].rho_runs.shape == (n1, n2, runs)
        del grids
        peaks.append(peak)
    assert peaks[2] - peaks[1] <= counted[2] - counted[1] + (64 << 10)
