import os
import tracemalloc

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import given, reject, settings, strategies as st

from mgmarket import (
    CoefficientOutOfRangeError,
    ConfigError,
    DegenerateSeriesError,
    EventModel,
    HomogeneousCoupling,
    ModelConfig,
    NonPositivePriceError,
    UniformCoupling,
    run,
    run_many,
)
from mgmarket import engine, market, scoring, seeding, strategy
from mgmarket.engine import build_components, simulate_trajectory
from mgmarket.market import StockSeries

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
    cfg = small_config(horizon=200)
    result = run(cfg, 1)
    for j in (0, 1):
        series = result.market.stocks[j]
        rebuilt = cfg.initial_price * np.exp(np.cumsum(series.returns))
        assert np.allclose(rebuilt, series.prices, rtol=1e-9)


def test_correlation_in_range_and_sample_count():
    result = run(small_config(), 2)
    assert -1.0 <= result.correlation <= 1.0
    for j in (0, 1):
        x, y = result.samples(j)
        assert len(x) == len(y) == small_config().horizon


def test_decoupled_matches_single_asset_reference():
    cfg = small_config(coupling=HomogeneousCoupling(0.0, 0.0), n_agents=31, horizon=80)
    result = run(cfg, 0)
    for j, stock in ((0, 1), (1, 2)):
        ref = single_asset_demands(
            cfg.n_agents, cfg.memory, cfg.n_strategies, cfg.horizon,
            cfg.initial_price, cfg.a[j], cfg.master_seed, 0, stock,
        )
        assert result.market.stocks[j].internal_demand.tolist() == ref


def test_decoupled_paper_size_matches_single_asset_reference():
    # at b1 = b2 = 0 and paper N each stock is its own standard minority game
    cfg = ModelConfig(horizon=200, coupling=HomogeneousCoupling(0.0, 0.0), master_seed=17)
    result = run(cfg, 0)
    for j, stock in ((0, 1), (1, 2)):
        ref = single_asset_demands(
            cfg.n_agents, cfg.memory, cfg.n_strategies, cfg.horizon,
            cfg.initial_price, cfg.a[j], cfg.master_seed, 0, stock,
        )
        assert result.market.stocks[j].internal_demand.tolist() == ref
    # nothing of stock 2 reaches stock 1
    other = run(replace(cfg, a=(cfg.a[0], 0.3)), 0)
    ours, theirs = result.market.stocks, other.market.stocks
    assert ours[1].mean_expectation.tobytes() != theirs[1].mean_expectation.tobytes()
    for field in fields(StockSeries):
        assert getattr(ours[0], field.name).tobytes() == getattr(theirs[0], field.name).tobytes()


@pytest.mark.parametrize(
    "memory,in_bounds",
    [
        (1, lambda v: v > 5),  # alpha = 0.020: crowded, herding phase
        (6, lambda v: v < 0.5),  # alpha = 0.63: near the minimum of the curve
        (11, lambda v: 0.7 <= v <= 1.3),  # alpha = 20: close to random agents
    ],
    ids=["m1", "m6", "m11"],
)
def test_decoupled_volatility_follows_standard_minority_game(memory, in_bounds):
    # at b1 = b2 = 0 each stock is a standard minority game with
    # alpha = 2^m / N, whose sigma^2 / N falls as 1/alpha in the crowded
    # phase, dips well under 1, then rises toward the random-agent value 1
    n = 101
    volatilities = []
    for seed in (1, 2, 3, 4):
        cfg = ModelConfig(n_agents=n, memory=memory, horizon=2000,
                          coupling=HomogeneousCoupling(0.0, 0.0), master_seed=seed)
        state = run(cfg, 0).market
        for series in state.stocks:
            demand = series.internal_demand[state.warmup_steps + 500 :]
            volatilities.append(float(np.var(demand)) / n)
    assert all(in_bounds(v) for v in volatilities), volatilities


def _assert_engine_matches_oracle(cfg, run_index):
    """Both stocks' internal demand agree bit for bit, or both runs abort at
    the same stock and step."""
    ref = two_stock_demands(cfg, run_index)
    if ref.abort is not None:
        with pytest.raises(NonPositivePriceError) as err:
            run(cfg, run_index)
        assert (err.value.stock, err.value.step) == ref.abort
        return ref
    result = run(cfg, run_index)
    for j in (0, 1):
        assert result.market.stocks[j].internal_demand.tolist() == ref.demands[j]
    return ref


@pytest.mark.parametrize("memory,b1,b2", [(1, 0.7, 0.3), (2, -0.6, 0.9)])
def test_engine_matches_two_stock_reference(memory, b1, b2):
    cfg = small_config(n_agents=21, memory=memory, horizon=50,
                       coupling=HomogeneousCoupling(b1, b2))
    _assert_engine_matches_oracle(cfg, 0)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(memory=3, n_strategies=4, a=(0.4, 1.0), coupling=UniformCoupling(0.2, 0.8, -0.3, 0.5),
             events=EventModel(0.2, 3.0)),
        dict(memory=2, n_strategies=3, allow_hold=True, a=(1.0, 0.6),
             coupling=UniformCoupling(-0.4, 0.5, 0.1, 1.0)),
        dict(n_agents=9, horizon=30, n_strategies=1, a=(0.7, 0.2), allow_hold=True,
             events=EventModel(0.5, 2.0)),
        dict(initial_price=3.0, n_strategies=3),
        dict(initial_price=12.0, events=EventModel(0.5, 4.0)),
        # one coupling on per-agent rows (3^8 possible tables > 301 agents): one state per step
        dict(n_agents=301, allow_hold=True, coupling=HomogeneousCoupling(0.4, -0.6)),
        # a zero half-range draws one coupling
        dict(coupling=UniformCoupling(0.3, 0.0, -0.2, 0.0)),
        # one coupling and more agents than the 2^12 possible (m=1, S=3) tables
        dict(n_agents=4097, horizon=30, n_strategies=3),
    ],
    ids=["uniform_events_m3_s4", "uniform_hold_m2_s3", "hold_events_s1", "abort", "abort_events",
         "hold_one_coupling_n301", "uniform_zero_range", "s3_more_agents_than_tables"],
)
def test_engine_matches_oracle_across_axes(overrides):
    _assert_engine_matches_oracle(small_config(**{"n_agents": 21, "horizon": 40, **overrides}), 1)


def _shared_types(cfg, components):
    """Per stock, whether the kernel takes the type-row step: its agents share
    one coupling and hold at most two slots.  Else it takes the per-agent step."""
    return [cfg.n_strategies <= 2 and bool((b == b[0]).all()) for b in components.couplings]


class _CountingDraws(np.random.Generator):
    """A generator on ``bit_generator`` that logs each ``random`` draw in ``draws``."""

    def __init__(self, bit_generator, draws):
        super().__init__(bit_generator)
        self.draws = draws

    def random(self, *args, **kwargs):
        self.draws.append(args)
        return super().random(*args, **kwargs)


def test_agent_types_are_the_tables_agents_hold():
    # 301 agents hold fewer distinct (m=1, S=2) table pairs than the 2^8 possible
    cfg = small_config(n_agents=301)
    comps = build_components(cfg, 0)
    for tables in comps.tables:
        rows, counts, type_of = engine._agent_types(tables, cfg.decision_set)
        held = {table.tobytes() for table in tables}
        assert len(rows) == len(held) and {row.tobytes() for row in rows} == held
        assert counts.min() >= 1 and counts.sum() == cfg.n_agents
        assert np.array_equal(rows[type_of], tables)


def test_agent_types_of_huge_tables_are_the_agents_at_once():
    # 3^(2 * 2^21) possible tables against one agent: decided by bit length,
    # without building that power, so the agent is its own row, count 1
    tables = np.broadcast_to(np.int8(0), (1, 2, 2**21))
    rows, counts, type_of = engine._agent_types(tables, (-1, 0, 1))
    assert rows is tables and counts.tolist() == [1] and type_of.tolist() == [0]


def test_agent_types_beyond_two_slots_are_the_agents(monkeypatch):
    # 4097 binary agents hold some of the 2^12 possible (m=1, S=3) tables twice,
    # but only one or two slots form types: a shared coupling at S=3 takes the
    # per-agent step, which reads each agent's decisions at its own state every step
    cfg = small_config(n_agents=4097, n_strategies=3, horizon=30)
    comps = build_components(cfg, 0)
    assert all(len({table.tobytes() for table in tables}) < cfg.n_agents for tables in comps.tables)
    assert _shared_types(cfg, comps) == [False, False]
    calls = []
    decide = strategy.decide_all_slots
    monkeypatch.setattr(strategy, "decide_all_slots",
                        lambda tables, state: calls.append(tables.shape) or decide(tables, state))
    simulate_trajectory(cfg, comps)
    assert calls == [comps.tables[0].shape] * (2 * cfg.horizon)


@pytest.mark.parametrize(
    "overrides",
    [dict(n_agents=301, horizon=80), dict(n_agents=6563, horizon=30, allow_hold=True),
     dict(n_agents=301, horizon=80, events=EventModel(0.1, 2.0),
          coupling=HomogeneousCoupling(0.6, -0.4))],
    ids=["binary", "hold", "events"],
)
def test_engine_matches_oracle_with_shared_agent_types(monkeypatch, overrides):
    # homogeneous couplings with more agents than possible tables (2^8 binary,
    # 3^8 with holds at m=1, S=2) score each table once; a step whose ties
    # cannot change the demand advances the tie-break stream without a draw,
    # the others draw, and the run must use both
    cfg = small_config(**overrides)
    _assert_engine_matches_oracle(cfg, 0)
    assert _shared_types(cfg, build_components(cfg, 0)) == [True, True]
    draws = []
    stream = seeding.stream
    monkeypatch.setattr(seeding, "stream", lambda seed, run_index, label: (
        _CountingDraws(stream(seed, run_index, label).bit_generator, draws)
        if label.startswith(seeding.TIEBREAK) else stream(seed, run_index, label)))
    run(cfg, 0)
    passes = 1 if cfg.events is None else 2
    assert 0 < len(draws) < 2 * cfg.horizon * passes


@pytest.mark.parametrize(
    "overrides,shared,shocks",
    [(dict(coupling=HomogeneousCoupling(0.5, -0.3)), True, None),
     (dict(coupling=HomogeneousCoupling(0.5, -0.3), events=EventModel(0.1, 2.0)), True, (9.0, 4.5)),
     (dict(coupling=UniformCoupling(0.0, 1.0, 0.2, 0.5)), False, None),
     (dict(coupling=HomogeneousCoupling(0.5, -0.3), allow_hold=True), True, None)],
    ids=["shared-types", "shared-types-shocked", "distinct-agents", "shared-coupling-holds"],
)
def test_tiebreak_streams_end_where_per_agent_draws_leave_them(overrides, shared, shocks):
    # type rows skip the draws no tie needs and advance by all they owe just
    # before the next draw and at the end of the pass
    cfg = small_config(n_agents=301, **overrides)
    comps = build_components(cfg, 0)
    assert _shared_types(cfg, comps) == [shared, shared]
    draws = []
    counted = tuple(_CountingDraws(rng.bit_generator, draws) for rng in comps.tiebreak_rngs)
    simulate_trajectory(cfg, replace(comps, tiebreak_rngs=counted), shocks)
    if shared:  # both branches ran: some steps drew, and some skipped their draw
        assert 0 < len(draws) < 2 * cfg.horizon
    for stock, rng in zip((1, 2), counted):
        fresh = seeding.stream(cfg.master_seed, 0, seeding.stock_label(seeding.TIEBREAK, stock))
        for _ in range(cfg.horizon):
            fresh.random((cfg.n_agents, cfg.n_strategies))
        assert rng.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize(
    "overrides,shared,passes",
    [(dict(), True, 1), (dict(n_strategies=1), True, 1),
     (dict(coupling=UniformCoupling(0.0, 1.0, 0.2, 0.5)), False, 1),
     (dict(events=EventModel(0.1, 2.0)), True, 2),
     (dict(n_strategies=3), False, 1), (dict(allow_hold=True), True, 1)],
    ids=["s2-types", "s1-types", "uniform-agents", "events-calibrated", "s3-shared",
         "holds-shared"],
)
def test_each_stock_step_selects_once_and_prices_once(monkeypatch, overrides, shared, passes):
    # perfbench's self-check pins these counts, taken through the module
    # attributes as its tracer takes them; an events run adds its calibration pass.
    # Only the per-agent step reads decisions per agent state, once per stock-step
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scoring, "select_slots")
    count(market, "update_price")
    count(market, "external_demand")
    count(strategy, "decide_all_slots")
    cfg = small_config(n_agents=301, **overrides)
    assert _shared_types(cfg, build_components(cfg, 0)) == [shared, shared]
    run(cfg, 0)
    # the shocked pass, the last of an events run, reads each stock's shocks in one call
    assert calls == {"select_slots": 2 * cfg.horizon * passes,
                     "update_price": 2 * (cfg.warmup_steps + cfg.horizon) * passes,
                     **({"external_demand": 2} if cfg.events else {}),
                     **({} if shared else {"decide_all_slots": 2 * cfg.horizon * passes})}


def test_one_agent_type_row_builds_views_for_visited_states_only():
    # one agent at m=16 with holds holds one of 3^(2 * 2^17) possible tables, so
    # it is its own type row; two recorded steps visit at most two states per
    # stock, so the pass builds no view of the other 2^17 - 2
    cfg = ModelConfig(n_agents=1, memory=16, horizon=2, allow_hold=True, n_runs=1)
    comps = build_components(cfg, 0)
    tracemalloc.start()
    try:
        simulate_trajectory(cfg, comps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_type_row_views_stay_within_their_budget_on_a_long_pass():
    # 1,001 agents at m=12 with holds are each their own type row; 3,000 recorded
    # steps visit thousands of the 2^13 states, whose views (≈25.7 kB each) would
    # take ≈53 MB a stock.  Each pass holds a state-major copy of its stock's
    # tables, as the earlier agent-row step did, and its latest views within
    # engine._VIEW_BYTES (kept without a bound, the peak read 138.5 MB)
    cfg = ModelConfig(memory=12, horizon=3_000, allow_hold=True, n_runs=1)
    comps = build_components(cfg, 0)
    tracemalloc.start()
    try:
        simulate_trajectory(cfg, comps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    copies = sum(tables.nbytes for tables in comps.tables)
    assert peak < copies + 2 * engine._VIEW_BYTES + (2 << 20)


@pytest.mark.parametrize("overrides", [dict(n_agents=101, memory=3, allow_hold=True),
                                       dict(n_agents=301, memory=1)],
                         ids=["identity-rows", "held-tables"])
def test_evicted_state_views_are_rebuilt_bit_for_bit(monkeypatch, overrides):
    # with room for no view, every step builds its state's anew: the same run
    cfg = small_config(horizon=300, **overrides)
    kept = engine.run(cfg, 0)
    monkeypatch.setattr(engine, "_VIEW_BYTES", 0)
    rebuilt = engine.run(cfg, 0)
    for a, b in zip(kept.market.stocks, rebuilt.market.stocks):
        for field in fields(StockSeries):
            np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))
    assert kept.correlation == rebuilt.correlation


def test_oracle_meets_zero_returns_and_expectations():
    # holds make a zero demand, so a zero return and, when both stocks' lags
    # are zero, a zero expectation: both count as plus in the state index
    cfg = small_config(n_agents=15, horizon=60, memory=2, allow_hold=True,
                       coupling=HomogeneousCoupling(0.3, -0.7))
    ref = _assert_engine_matches_oracle(cfg, 1)
    assert ref.abort is None
    assert ref.zero_returns > 0 and ref.zero_expectations > 0


@st.composite
def _oracle_configs(draw):
    unit, a = st.floats(-1.0, 1.0), st.floats(0.0, 1.0, exclude_min=True)
    return ModelConfig(
        n_agents=draw(st.integers(0, 10)) * 2 + 1,
        memory=draw(st.integers(1, 3)),
        n_strategies=draw(st.integers(1, 4)),
        horizon=draw(st.integers(2, 40)),
        initial_price=draw(st.sampled_from([10.0, 2000.0])),
        a=(draw(a), draw(a)),
        coupling=draw(
            st.builds(HomogeneousCoupling, unit, unit)
            | st.builds(UniformCoupling, unit, st.floats(0.0, 1.0), unit, st.floats(0.0, 1.0))
        ),
        allow_hold=draw(st.booleans()),
        events=draw(st.none() | st.builds(EventModel, st.floats(0.0, 1.0), st.floats(0.0, 5.0))),
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=_oracle_configs(), run_index=st.integers(0, 3))
def test_engine_matches_oracle_on_any_config(cfg, run_index):
    try:
        _assert_engine_matches_oracle(cfg, run_index)
    except DegenerateSeriesError:
        # a constant return series (a run stuck at zero demand) has no
        # correlation, so run raises before its series can be compared
        reject()


def test_holding_tables_without_zeros_reduce_to_binary_engine():
    base = small_config(n_agents=31, horizon=60)
    comps = build_components(base, 0)
    state_binary = simulate_trajectory(base, comps)

    hold_cfg = replace(base, allow_hold=True)
    comps_again = build_components(base, 0)  # same +/-1 tables and warm-up draws
    state_hold = simulate_trajectory(hold_cfg, comps_again)
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


def correlations(runs):
    return [r.correlation for r in runs]


def test_run_many_mean_and_determinism():
    cfg = small_config(n_runs=4)
    batch1 = list(run_many(cfg))
    batch2 = list(run_many(cfg))
    assert [r.run_index for r in batch1] == [0, 1, 2, 3]
    assert np.mean(correlations(batch1)) == np.mean(correlations(batch2))
    assert correlations(batch1) == [run(cfg, i).correlation for i in range(4)]
    single = list(run_many(replace(cfg, n_runs=1)))
    assert np.mean(correlations(single)) == single[0].correlation


def test_run_many_parallel_matches_serial():
    cfg = small_config(n_runs=4)
    serial = list(run_many(cfg, threads=1))
    parallel = list(run_many(cfg, threads=2))
    assert correlations(serial) == correlations(parallel)


def _cpus(monkeypatch, n):
    """Let this process run on ``n`` CPUs, as its affinity mask reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)), raising=False)


def test_pool_map_starts_at_most_one_worker_per_task_and_cpu(pool_workers, monkeypatch):
    for cpus in (2, 8):
        _cpus(monkeypatch, cpus)
        assert list(engine.pool_map(abs, iter([-1, -2, -3]), 3, 10**6)) == [1, 2, 3]
    assert pool_workers == [2, 3]


@pytest.mark.parametrize("threads,tasks", [(None, [-1, -2]), (1, [-1, -2]), (10**6, [-1])],
                         ids=["threads-none", "threads-1", "one-task"])
def test_pool_map_runs_serially_without_a_pool(pool_workers, monkeypatch, threads, tasks):
    _cpus(monkeypatch, 8)
    assert list(engine.pool_map(abs, tasks, len(tasks), threads)) == [-t for t in tasks]
    assert pool_workers == []


def test_pool_map_counts_the_cpus_the_process_may_run_on(pool_workers, monkeypatch):
    # pinned to one of four CPUs, as by `taskset -c 0`: two workers would share one CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _cpus(monkeypatch, 1)
    assert list(engine.pool_map(abs, [-1, -2], 2, 2)) == [1, 2]
    assert pool_workers == []
    # where the mask cannot be read, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    assert list(engine.pool_map(abs, [-1, -2], 2, 2)) == [1, 2]
    assert pool_workers == [2]


def test_pool_map_draws_a_window_of_chunks_not_every_task(pool_workers, monkeypatch):
    _cpus(monkeypatch, 2)
    drawn = []
    tasks = (drawn.append(t) or t for t in range(10**6))
    results = engine.pool_map(abs, tasks, 10**6, 2)
    assert next(results) == 0
    # the pool's four chunks, and the one drawn as the first result is handed out
    assert 0 < len(drawn) <= (2 * 2 + 1) * engine._CHUNK_TASKS
    results.close()


def test_pool_map_starts_no_chunk_past_the_window_once_a_task_raises(pool_workers, monkeypatch):
    _cpus(monkeypatch, 2)
    started = []

    def first_raises(task):
        started.append(task)
        if task == 0:
            raise ValueError("task 0 failed")
        return task

    with pytest.raises(ValueError, match="task 0 failed"):
        list(engine.pool_map(first_raises, iter(range(10**6)), 10**6, 2))
    assert 0 < len(started) <= (2 * 2 + 1) * engine._CHUNK_TASKS


def _no_run(*_args):
    raise AssertionError("a run started")


def test_run_many_refuses_series_past_the_budget_before_any_run(monkeypatch):
    # 80 bytes per warm-up or recorded step: one run of 1 + 13,421,772 steps is past
    # 1 GiB, refused at the call, before the iterator is drawn from
    monkeypatch.setattr(engine, "run", _no_run)
    with pytest.raises(ConfigError, match="^one run's series at horizon=13421772 need"
                                          " 1073741840 bytes, over the 1073741824-byte limit$"):
        run_many(ModelConfig(horizon=13_421_772), threads=1)


def test_run_many_accepts_the_largest_batch_within_the_budget(monkeypatch):
    # it keeps no run, so only one run's series is bounded: 13,130 runs, which the old
    # count of kept runs refused, stream at the largest horizon within the budget
    monkeypatch.setattr(engine, "run", lambda config, index: engine.RunResult(None, 0.0, index))
    runs = run_many(ModelConfig(horizon=13_421_771, n_runs=13_130), threads=1)
    assert [r.run_index for r in runs] == list(range(13_130))


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
        list(run_many(cfg, threads=1))
    with pytest.raises(NonPositivePriceError) as pooled:
        list(run_many(cfg, threads=2))
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
        assert result.shock_amplitudes[j] == 2.0 * expected


def test_events_inject_external_demand():
    cfg = small_config(horizon=400, events=EventModel(probability=0.1, strength=3.0), master_seed=8)
    result = run(cfg, 0)
    for j in (0, 1):
        series = result.market.stocks[j]
        external = series.total_demand - series.internal_demand
        fired = external[result.market.warmup_steps:] != 0
        assert fired.any()
        amp = result.shock_amplitudes[j]
        nonzero = external[external != 0]
        assert np.allclose(np.abs(nonzero), amp)


def test_swap_symmetry_statistical():
    # swapping (b1, b2) relabels the stocks; correlation distributions match
    from scipy.stats import ks_2samp

    runs = 30
    one = list(run_many(small_config(coupling=HomogeneousCoupling(0.8, 0.2),
                                     n_agents=101, horizon=300, n_runs=runs, master_seed=41)))
    two = list(run_many(small_config(coupling=HomogeneousCoupling(0.2, 0.8),
                                     n_agents=101, horizon=300, n_runs=runs, master_seed=42)))
    assert ks_2samp(correlations(one), correlations(two)).pvalue > 0.01


def test_cross_seed_stability_of_strong_coupling():
    # full-scale cell; batch means from disjoint seeds agree
    cfg = small_config(coupling=HomogeneousCoupling(0.9, 0.9),
                       n_agents=1001, horizon=1000, n_runs=12)
    a = np.mean(correlations(run_many(replace(cfg, master_seed=1001), threads=2)))
    b = np.mean(correlations(run_many(replace(cfg, master_seed=2002), threads=2)))
    assert abs(a - b) < 0.1


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


def test_uniform_couplings_summed_past_float_range_refused():
    # validate passes: each draw lies in a finite support and |c1| * n_agents is 0,
    # but the 101 drawn couplings sum past the float range
    cfg = ModelConfig(n_agents=101, horizon=20, coupling=UniformCoupling(0.0, 8e307, 0.0, 1.0),
                      n_runs=1)
    message = "^couplings summed over 101 agents overflow$"
    with pytest.raises(CoefficientOutOfRangeError, match=message):
        run(cfg, 0)
