"""Acceptance suite: paper-anchored exit criteria at full scale.

Each criterion prints one PASS/FAIL line; run with::

    pytest tests/test_acceptance.py -v -s

The batches use N=1001 agents, T=1000 recorded steps and take a few minutes
in total on two cores.  Cells are cached across criteria: cell seeds derive
from the coupling parameters, so identical configurations reuse one batch.
Where a criterion pins its Monte Carlo size (criteria 1, 4) we use 20 runs
per cell; elsewhere cells use the default batch size of 50 runs.
"""

import os

import numpy as np
import pytest
from scipy.stats import spearmanr

import mgmarket as mg
from mgmarket.analytic import verify_appendix
from mgmarket.engine import run, run_many
from mgmarket.stats import ar1_pooled, ols
from mgmarket.sweep import (
    grid_runs,
    sweep_centers,
    sweep_events,
    sweep_homogeneous,
    sweep_ranges,
)

from reference_engine import single_asset_demands

ACCEPTANCE_SEED = 128
THREADS = os.cpu_count() or 1
PINNED_RUNS = 20  # criteria 1 and 4 fix the Monte Carlo size
DEFAULT_RUNS = 50

GRID_VALUES = (-0.9, 0.0, 0.9)


def pooled(grids, stock: int) -> tuple[np.ndarray, np.ndarray]:
    """Every run's (expected, return) samples of one stock over ``grids``."""
    xs, ys = zip(*(samples[stock] for grid in grids for _, samples in grid_runs(grid)))
    return np.concatenate(xs), np.concatenate(ys)


def check(cid: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {cid:>2} {name}: {status}  [{detail}]")
    assert passed, f"criterion {cid} ({name}): {detail}"


class AcceptanceLab:
    """Runs and caches full-scale sweep cells."""

    def __init__(self):
        self._cache = {}

    def _base(self, runs, **overrides):
        return mg.ModelConfig(
            n_agents=1001, memory=1, n_strategies=2, horizon=1000,
            initial_price=2000.0, a=(1.0, 1.0), n_runs=runs,
            master_seed=ACCEPTANCE_SEED, **overrides,
        )

    def homogeneous(self, b1, b2, runs=PINNED_RUNS, allow_hold=False):
        key = ("hom", b1, b2, runs, allow_hold)
        if key not in self._cache:
            grid = sweep_homogeneous(
                self._base(runs, allow_hold=allow_hold),
                b1_values=[b1], b2_values=[b2],
                threads=THREADS, collect_samples=True,
            )
            self._cache[key] = grid
        return self._cache[key]

    def centers(self, c, delta=1.0, runs=DEFAULT_RUNS):
        key = ("uni", c, delta, runs)
        if key not in self._cache:
            template = mg.UniformCoupling(c, delta, c, delta)
            grid = sweep_centers(
                self._base(runs, coupling=template),
                c1_values=[c], c2_values=[c],
                threads=THREADS, collect_samples=True,
            )
            self._cache[key] = grid
        return self._cache[key]

    def ranges(self, delta, runs=DEFAULT_RUNS):
        # same cell key as the centers sweep at c=0 with this delta
        return self.centers(0.0, delta=delta, runs=runs)

    def events(self, b1, b2, k, probability=0.0082, runs=DEFAULT_RUNS):
        key = ("ev", b1, b2, k, probability, runs)
        if key not in self._cache:
            grid = sweep_events(
                self._base(runs, events=mg.EventModel(probability, 0.0)),
                k_values=[k],
                b1_values=[b1], b2_values=[b2], threads=THREADS,
            )[0]
            self._cache[key] = grid
        return self._cache[key]

    def mean(self, grid) -> float:
        return float(grid.mean_rho[0, 0])


@pytest.fixture(scope="session")
def lab():
    return AcceptanceLab()


def sign_structure_details(lab, allow_hold):
    cells = {
        (b1, b2): lab.mean(lab.homogeneous(b1, b2, allow_hold=allow_hold))
        for b1 in GRID_VALUES for b2 in GRID_VALUES
    }
    checks = [
        (cells[(0.9, 0.9)] > 0.15, f"rho(0.9,0.9)={cells[(0.9, 0.9)]:+.3f} > 0.15"),
        (cells[(-0.9, -0.9)] < -0.15, f"rho(-0.9,-0.9)={cells[(-0.9, -0.9)]:+.3f} < -0.15"),
        (abs(cells[(0.0, 0.0)]) < 0.1, f"|rho(0,0)|={abs(cells[(0.0, 0.0)]):.3f} < 0.1"),
        (abs(cells[(0.9, -0.9)]) < 0.15, f"|rho(0.9,-0.9)|={abs(cells[(0.9, -0.9)]):.3f} < 0.15"),
        (abs(cells[(-0.9, 0.9)]) < 0.15, f"|rho(-0.9,0.9)|={abs(cells[(-0.9, 0.9)]):.3f} < 0.15"),
    ]
    return cells, checks


def test_criterion_01_sign_structure(lab):
    _, checks = sign_structure_details(lab, allow_hold=False)
    check(1, "sign structure of the coupling plane", all(ok for ok, _ in checks),
          "; ".join(d for _, d in checks))


def test_criterion_02_strength_monotonicity(lab):
    means = [lab.mean(lab.homogeneous(b, b, runs=DEFAULT_RUNS)) for b in (0.1, 0.5, 0.9)]
    passed = means[0] < means[1] < means[2]
    check(2, "correlation grows with coupling", passed,
          f"rho at b=0.1/0.5/0.9 = {means[0]:+.3f} < {means[1]:+.3f} < {means[2]:+.3f}")


def test_criterion_03_homogeneous_regression(lab):
    details = []
    passed = True
    for stock in (0, 1):
        grids = [lab.homogeneous(b1, b2) for b1 in GRID_VALUES for b2 in GRID_VALUES]
        rep = ols(*pooled(grids, stock))
        ok = 0.57 <= rep.beta1 <= 0.87 and 0.6 <= rep.r_squared <= 0.9
        passed &= ok
        details.append(f"stock{stock+1}: beta1={rep.beta1:.4f} R2={rep.r_squared:.4f}")
    check(3, "pooled regression, homogeneous plane", passed,
          "; ".join(details) + " vs beta1 in [0.57,0.87], R2 in [0.6,0.9]")


def test_criterion_04_zero_center_regression(lab):
    grid = lab.centers(0.0, runs=PINNED_RUNS)
    details = []
    passed = True
    for stock in (0, 1):
        rep = ols(*pooled([grid], stock))
        ok = 0.95 <= rep.beta1 <= 1.05 and rep.r_squared > 0.97
        passed &= ok
        details.append(f"stock{stock+1}: beta1={rep.beta1:.4f} R2={rep.r_squared:.4f}")
    check(4, "pooled regression, zero-center heterogeneous", passed,
          "; ".join(details) + " vs beta1 in [0.95,1.05], R2 > 0.97")


def test_criterion_05_center_proportionality(lab):
    c_values = [-1.0, -0.5, 0.0, 0.5, 1.0]
    means = [lab.mean(lab.centers(c)) for c in c_values]
    rank_corr = float(spearmanr(means, c_values).statistic)
    check(5, "correlation proportional to distribution center", rank_corr > 0.9,
          f"means={['%+.3f' % m for m in means]} spearman={rank_corr:.3f} > 0.9")


def test_criterion_06_range_insensitivity(lab):
    means = {d: lab.mean(lab.ranges(d)) for d in (1.0, 3.0, 5.0)}
    passed = all(abs(m) < 0.1 for m in means.values())
    check(6, "correlation insensitive to distribution range", passed,
          "; ".join(f"|rho(delta={d:g})|={abs(m):.3f}" for d, m in means.items()) + " < 0.1")


def test_criterion_07_holding_variant(lab):
    hold = lab.mean(lab.homogeneous(0.9, 0.9, runs=DEFAULT_RUNS, allow_hold=True))
    base = lab.mean(lab.homogeneous(0.9, 0.9, runs=DEFAULT_RUNS))
    _, structure = sign_structure_details(lab, allow_hold=True)
    weaker = hold > 0 and hold <= base + 0.05
    passed = weaker and all(ok for ok, _ in structure)
    check(7, "holding variant weakens but preserves structure", passed,
          f"holding rho={hold:+.3f} vs base {base:+.3f}; structure: "
          + "; ".join(d for _, d in structure))


def test_criterion_08_external_events(lab):
    k1 = lab.mean(lab.events(0.9, 0.9, k=1.0))
    k4 = lab.mean(lab.events(0.9, 0.9, k=4.0))
    passed = k4 < k1 and k1 > 0 and k4 > 0
    check(8, "external events weaken but keep correlation", passed,
          f"rho(k=1)={k1:+.3f} > rho(k=4)={k4:+.3f}, both > 0")


def test_criterion_09_appendix_oracle():
    report = verify_appendix(n_samples=1_000_000, master_seed=0)
    failures = [
        f"{c.regime}{c.input_quadrant}->{c.output_quadrant}" for c in report.failures
    ]
    check(9, "sign-case table agrees with sampling oracle", report.passed,
          f"{len(report.checks)} cells at 1e6 samples; failures: {failures or 'none'}")


def test_criterion_10_structural_invariants(lab):
    cfg = mg.ModelConfig(coupling=mg.HomogeneousCoupling(0.9, 0.9),
                         n_runs=1, master_seed=ACCEPTANCE_SEED)
    first = run(cfg, 0)
    again = run(cfg, 0)
    replay_ok = all(
        np.array_equal(first.market.stocks[j].prices, again.market.stocks[j].prices)
        for j in (0, 1)
    )
    parity_ok = all(
        bool(np.all(first.market.stocks[j].internal_demand % 2 == 1)) for j in (0, 1)
    )
    recon_ok = all(
        np.allclose(
            cfg.initial_price * np.exp(np.cumsum(first.market.stocks[j].returns)),
            first.market.stocks[j].prices, rtol=1e-9,
        )
        for j in (0, 1)
    )
    decoupled_cfg = mg.ModelConfig(
        n_agents=301, horizon=400, coupling=mg.HomogeneousCoupling(0.0, 0.0),
        n_runs=1, master_seed=ACCEPTANCE_SEED,
    )
    result = run(decoupled_cfg, 0)
    decouple_ok = all(
        result.market.stocks[j].internal_demand.tolist()
        == single_asset_demands(301, 1, 2, 400, 2000.0, 1.0, ACCEPTANCE_SEED, 0, j + 1)
        for j in (0, 1)
    )
    passed = replay_ok and parity_ok and recon_ok and decouple_ok
    check(10, "structural invariants", passed,
          f"replay={replay_ok} parity={parity_ok} reconstruction={recon_ok} "
          f"single-asset-equivalence={decouple_ok}")


def test_criterion_11_ar1_sanity(lab):
    """Minority-game anti-persistence: the pooled AR(1) of returns is negative.

    In a minority game the side that wins in an information state is
    punished the next time that state comes round, so in the crowded phase
    (alpha = states / N << 1; 2^(m+1) / N = 0.004 here) the aggregate
    demand, and with it the return, is anti-persistent (Challet & Marsili,
    PRE 60, R6271, 1999; Savit, Manuca & Riolo, PRL 82, 2203, 1999).  A
    majority payoff or an engine whose scores never learn gives phi > 0 and
    fails here, as does a return series with no lag structure, whose phi is
    within noise of 0.
    """
    grid = lab.homogeneous(0.5, 0.5, runs=DEFAULT_RUNS)
    series = [
        run_samples[stock][1]
        for cell_runs in [grid.samples[0][0]]
        for run_samples in cell_runs
        for stock in (0, 1)
    ]
    rep = ar1_pooled(series)
    per_series = np.array([ar1_pooled([s]).phi for s in series])
    se = float(per_series.std(ddof=1)) / np.sqrt(len(series))
    t_ratio = rep.phi / se
    check(11, "AR(1) of simulated returns anti-persistent", t_ratio <= -3.0,
          f"pooled phi={rep.phi:+.4f} over n={rep.n} lag pairs, "
          f"se={se:.4f}, t={t_ratio:+.1f} <= -3")


def test_criterion_12_standard_minority_game_volatility():
    """At b1 = b2 = 0 and paper N each stock is a standard minority game with
    alpha = 2^m / N, and sigma^2 / N of its internal demand follows the
    standard curve (Savit, Manuca & Riolo, PRL 82, 2203, 1999; Challet,
    Marsili & Zecchina, PRL 84, 1824, 2000): crowded, far above the
    random-agent value 1, while alpha << 1 (it falls as 1/alpha there); a
    minimum well below 1 near alpha = 0.3-0.6; then back up toward 1 at
    alpha >> 1.  m = 1 scores the held tables and m >= 5 each agent as its
    own type row, so both kinds of row are checked.  Each run lasts until every one of the 2^m
    histories recurs about ten times, and the second half is measured.
    """
    n = 1001
    bounds = {
        1: (10.0, np.inf),  # alpha = 0.002: crowded
        5: (2.0, np.inf),  # alpha = 0.032: still crowded
        8: (0.0, 1.0),  # alpha = 0.26: below random agents, the minimum here
        9: (0.0, 0.5),  # alpha = 0.51: or here
        12: (0.5, 1.3),  # alpha = 4.1: back near random agents
    }
    volatility = {}
    for memory in bounds:
        horizon = 1000 + 10 * 2**memory
        cfg = mg.ModelConfig(n_agents=n, memory=memory, horizon=horizon,
                             coupling=mg.HomogeneousCoupling(0.0, 0.0), master_seed=1)
        state = run(cfg, 0).market
        volatility[memory] = [
            float(np.var(series.internal_demand[state.warmup_steps + horizon // 2 :])) / n
            for series in state.stocks
        ]
    in_bounds = all(lo <= v <= hi for m, (lo, hi) in bounds.items() for v in volatility[m])
    lowest = min(volatility, key=lambda m: np.mean(volatility[m]))
    check(12, "sigma^2/N on the standard minority-game curve at N=1001",
          in_bounds and lowest in (8, 9),
          ", ".join(f"m={m} (alpha={2**m / n:.3f}): " + "/".join(f"{v:.3g}" for v in vs)
                    for m, vs in volatility.items()) + f"; lowest at m={lowest}")
