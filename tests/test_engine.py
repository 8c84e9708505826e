import numpy as np
import pytest
from dataclasses import replace

from mgmarket import (
    EventModel,
    HomogeneousCoupling,
    NonPositivePriceError,
    UniformCoupling,
    run,
    run_many,
    run_traced,
)
from mgmarket.engine import build_components, simulate_trajectory

from conftest import small_config
from reference_engine import single_asset_demands, two_stock_demands


def test_run_is_deterministic():
    cfg = small_config()
    a, b = run(cfg, 0), run(cfg, 0)
    assert a.correlation == b.correlation
    for j in (0, 1):
        assert np.array_equal(a.market.stocks[j].prices, b.market.stocks[j].prices)
        assert np.array_equal(a.market.stocks[j].internal_demand, b.market.stocks[j].internal_demand)


def test_runs_differ_across_indices():
    cfg = small_config()
    assert run(cfg, 0).correlation != run(cfg, 1).correlation


def test_no_lookahead_prefix_property():
    short = run(small_config(horizon=60), 0)
    long = run(small_config(horizon=150), 0)
    for j in (0, 1):
        prefix = short.market.stocks[j].internal_demand
        assert np.array_equal(
            long.market.stocks[j].internal_demand[: len(prefix)], prefix
        )


def test_demand_parity_without_holds():
    result = run(small_config(), 0)
    for j in (0, 1):
        demands = result.market.stocks[j].internal_demand
        assert np.all(demands % 2 == 1)
        assert np.all(demands != 0)


def test_price_return_reconstruction():
    result = run(small_config(horizon=200), 1)
    for j in (0, 1):
        series = result.market.stocks[j]
        rebuilt = result.market.initial_price * np.exp(np.cumsum(series.returns))
        assert np.allclose(rebuilt, series.prices, rtol=1e-9)


def test_correlation_in_range_and_sample_count():
    result = run(small_config(), 2)
    assert -1.0 <= result.correlation <= 1.0
    for j in (0, 1):
        x, y = result.samples(j)
        assert len(x) == len(y) == small_config().horizon


@pytest.mark.parametrize("events", [None, EventModel(probability=0.1, strength=2.0)])
def test_score_replay_oracle(events):
    cfg = small_config(n_agents=25, horizon=80, events=events)
    result, trace = run_traced(cfg, 0)
    for j in (0, 1):
        demands = result.market.stocks[j].total_demand[result.market.warmup_steps :]
        recomputed = np.zeros((cfg.n_agents, cfg.n_strategies))
        for t in range(cfg.horizon):
            recomputed -= demands[t] * trace.slot_decisions[j, t]
        assert np.array_equal(recomputed, trace.final_scores[j])


@pytest.mark.parametrize(
    "overrides", [dict(), dict(memory=2, allow_hold=True)], ids=["m1", "m2_hold"]
)
def test_trace_states_match_series_recomputation(overrides):
    cfg = small_config(n_agents=15, horizon=60, coupling=HomogeneousCoupling(0.3, -0.7), **overrides)
    result, trace = run_traced(cfg, 1)
    w, m = result.market.warmup_steps, cfg.memory
    zero_returns = zero_expectations = 0
    for j in (0, 1):
        returns = result.market.stocks[j].returns
        other = result.market.stocks[1 - j].returns
        b = 0.3 if j == 0 else -0.7
        for t in range(cfg.horizon):
            # oldest lagged return in the highest bit, the expectation in the
            # lowest; a zero return or expectation counts as plus
            idx = 0
            for lag in range(m, 0, -1):
                idx = (idx << 1) | (1 if returns[w + t - lag] >= 0 else 0)
                zero_returns += returns[w + t - lag] == 0
            expected = cfg.a[j] * returns[w + t - 1] + b * other[w + t - 1]
            idx = (idx << 1) | (1 if expected >= 0 else 0)
            zero_expectations += expected == 0
            assert np.all(trace.state_indices[j, t] == idx)
    if cfg.allow_hold:  # the zero-counts-as-plus rule was exercised
        assert zero_returns > 0 and zero_expectations > 0


def test_decoupled_matches_single_asset_reference():
    cfg = small_config(coupling=HomogeneousCoupling(0.0, 0.0), n_agents=31, horizon=80)
    result = run(cfg, 0)
    for j, stock in ((0, 1), (1, 2)):
        ref = single_asset_demands(
            cfg.n_agents, cfg.memory, cfg.n_strategies, cfg.horizon,
            cfg.initial_price, cfg.a[j], cfg.master_seed, 0, stock,
        )
        assert result.market.stocks[j].internal_demand.tolist() == ref


@pytest.mark.parametrize("memory,b1,b2", [(1, 0.7, 0.3), (2, -0.6, 0.9)])
def test_engine_matches_two_stock_reference(memory, b1, b2):
    cfg = small_config(n_agents=21, memory=memory, horizon=50,
                       coupling=HomogeneousCoupling(b1, b2))
    result = run(cfg, 0)
    ref = two_stock_demands(cfg, 0)
    for j in (0, 1):
        assert result.market.stocks[j].internal_demand.tolist() == ref[j]


def test_holding_tables_without_zeros_reduce_to_binary_engine():
    base = small_config(n_agents=31, horizon=60)
    comps = build_components(base, 0)
    state_binary, _ = simulate_trajectory(base, comps)

    hold_cfg = replace(base, allow_hold=True)
    comps_again = build_components(base, 0)  # same +/-1 tables and warm-up draws
    state_hold, _ = simulate_trajectory(hold_cfg, comps_again)
    for j in (0, 1):
        assert np.array_equal(
            state_binary.stocks[j].internal_demand, state_hold.stocks[j].internal_demand
        )


def test_holding_breaks_demand_parity():
    cfg = small_config(allow_hold=True, horizon=300, n_agents=11, master_seed=5)
    result = run(cfg, 0)
    demands = np.concatenate(
        [result.market.stocks[j].internal_demand for j in (0, 1)]
    )
    assert np.any(demands % 2 == 0)
    assert np.abs(demands).max() <= 11


def correlations(batch):
    return [r.correlation for r in batch.runs]


def test_run_many_mean_and_determinism():
    cfg = small_config(n_runs=4)
    batch1 = run_many(cfg)
    batch2 = run_many(cfg)
    assert batch1.mean_correlation == batch2.mean_correlation
    assert batch1.mean_correlation == pytest.approx(np.mean(correlations(batch1)))
    single = run_many(replace(cfg, n_runs=1))
    assert single.mean_correlation == single.runs[0].correlation


def test_run_many_parallel_matches_serial():
    cfg = small_config(n_runs=4)
    serial = run_many(cfg, threads=1)
    parallel = run_many(cfg, threads=2)
    assert correlations(serial) == correlations(parallel)


def test_nonpositive_price_aborts_with_context():
    cfg = small_config(initial_price=5.0, horizon=400)
    with pytest.raises(NonPositivePriceError) as err:
        for i in range(20):
            run(cfg, i)
    assert err.value.stock in (1, 2)
    assert err.value.step is not None


def test_nonpositive_price_error_crosses_the_process_pool_intact():
    cfg = small_config(initial_price=1.0)
    with pytest.raises(NonPositivePriceError) as serial:
        run_many(cfg, threads=1)
    with pytest.raises(NonPositivePriceError) as pooled:
        run_many(cfg, threads=2)
    assert str(pooled.value) == str(serial.value)
    assert (pooled.value.price, pooled.value.stock, pooled.value.step) == (
        serial.value.price, serial.value.stock, serial.value.step
    )


def test_event_p_zero_is_bit_identical_to_no_events():
    base = small_config(horizon=100)
    plain = run(base, 0)
    with_events = run(replace(base, events=EventModel(probability=0.0, strength=4.0)), 0)
    for j in (0, 1):
        assert np.array_equal(
            plain.market.stocks[j].prices, with_events.market.stocks[j].prices
        )
    assert plain.correlation == with_events.correlation


def test_event_calibration_measures_baseline_std():
    cfg = small_config(horizon=150, events=EventModel(probability=0.05, strength=2.0))
    result = run(cfg, 0)
    baseline = run(replace(cfg, events=None), 0)
    for j in (0, 1):
        expected = float(np.std(baseline.market.stocks[j].internal_demand[baseline.market.warmup_steps:]))
        assert result.event_states[j].baseline_std == pytest.approx(expected)
        assert result.event_states[j].amplitude == pytest.approx(2.0 * expected)


def test_events_inject_external_demand():
    cfg = small_config(horizon=400, events=EventModel(probability=0.1, strength=3.0), master_seed=8)
    result = run(cfg, 0)
    for j in (0, 1):
        series = result.market.stocks[j]
        external = series.total_demand - series.internal_demand
        fired = external[result.market.warmup_steps:] != 0
        assert fired.any()
        amp = result.event_states[j].amplitude
        nonzero = external[external != 0]
        assert np.allclose(np.abs(nonzero), amp)


def test_swap_symmetry_statistical():
    # swapping (b1, b2) relabels the stocks; correlation distributions match
    from scipy.stats import ks_2samp

    runs = 30
    one = run_many(small_config(coupling=HomogeneousCoupling(0.8, 0.2),
                                n_agents=101, horizon=300, n_runs=runs, master_seed=41))
    two = run_many(small_config(coupling=HomogeneousCoupling(0.2, 0.8),
                                n_agents=101, horizon=300, n_runs=runs, master_seed=42))
    assert ks_2samp(correlations(one), correlations(two)).pvalue > 0.01


def test_cross_seed_stability_of_strong_coupling():
    # full-scale cell; batch means from disjoint seeds agree
    cfg = small_config(coupling=HomogeneousCoupling(0.9, 0.9),
                       n_agents=1001, horizon=1000, n_runs=12)
    a = run_many(replace(cfg, master_seed=1001), threads=2)
    b = run_many(replace(cfg, master_seed=2002), threads=2)
    assert abs(a.mean_correlation - b.mean_correlation) < 0.1


def test_heterogeneous_run_uses_sampled_couplings():
    cfg = small_config(coupling=UniformCoupling(0.0, 1.0, 0.0, 1.0))
    result = run(cfg, 0)
    assert -1.0 <= result.correlation <= 1.0


@pytest.mark.parametrize("initial_price", [1000.0, 2000.0, 4000.0])
def test_initial_price_robustness(initial_price):
    cfg = small_config(initial_price=initial_price, horizon=200)
    result = run(cfg, 0)
    for j in (0, 1):
        assert np.all(result.market.stocks[j].prices > 0)


@pytest.mark.parametrize("a", [(0.5, 0.5), (1.0, 0.1)])
def test_asymmetric_persistence_weights_smoke(a):
    result = run(small_config(a=a), 0)
    assert -1.0 <= result.correlation <= 1.0
