"""One full simulation run: initialization, warm-up, the per-step loop over
both stocks, and trajectory recording.

Step protocol (main loop), using only step t-1 data as inputs:

1. each agent's expected return per stock from both stocks' lagged returns;
2. information state per stock: last m return signs plus the expectation sign;
   when the agents share one coupling, they share one expectation, and the
   state is one integer whose (slots, rows) table slice is read, not gathered;
3. each agent plays its highest-scoring strategy slot (ties uniform); with one
   coupling, at most two slots and fewer possible tables than agents, each
   held table is scored once and ``tiebreak:j`` drawn only when a tie can
   change the demand; the draws skipped are owed, and the stream advances by
   all it owes in one jump just before the stock's next draw and at the end
   of the pass.  Each state's rows a tie can swing, its all-first-slot demand
   and each row's swing are built once per pass, so a step compares the first
   and last score columns and sums the swings of the rows that take the last;
4. decisions sum to the internal excess demand; an external shock is added
   when the event model is active;
5. price and log return update from the total demand;
6. every slot's score is updated with its hypothetical payoff.

Warm-up runs max(1, m) steps with uniformly random decisions and no scoring,
so every history bit of the first scored step is a realized return sign.  The
recorded window excludes warm-up.

Randomness comes from named per-run streams (see :mod:`mgmarket.seeding`):
``strategies:j``, ``warmup:j``, ``tiebreak:j`` and ``events:j`` per stock j,
plus ``couplings`` for the agent population.  Per-stock streams make the
decoupled case (b1 = b2 = 0) evolve each stock exactly as an independent
single-asset game.

When the event model is active, the run first executes a calibration pass
with identical streams and events disabled to measure the baseline standard
deviation of each stock's internal demand, then re-runs with shocks enabled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import market, scoring, seeding, strategy
from .config import ModelConfig, validate
from .errors import CoefficientOutOfRangeError, NonPositivePriceError
from .expectation import sample_couplings
from .market import MarketState, StockSeries
from .stats import pearson


@dataclass(frozen=True)
class RunComponents:
    """Everything random a run needs, pre-drawn or as live streams."""

    tables: tuple[np.ndarray, np.ndarray]
    couplings: tuple[np.ndarray, np.ndarray]
    warmup_decisions: tuple[np.ndarray, np.ndarray]
    tiebreak_rngs: tuple[np.random.Generator, np.random.Generator]
    event_rngs: tuple[np.random.Generator, np.random.Generator]


def build_components(config: ModelConfig, run_index: int) -> RunComponents:
    """Realize all random inputs of one run from its named streams."""
    n, s, m = config.n_agents, config.n_strategies, config.memory
    decision_values = np.asarray(config.decision_set, dtype=np.int8)
    seed = config.master_seed

    def pair(purpose: str) -> tuple[np.random.Generator, np.random.Generator]:
        """The streams of ``purpose`` for stocks 1 and 2."""
        return tuple(
            seeding.stream(seed, run_index, seeding.stock_label(purpose, stock)) for stock in (1, 2)
        )

    return RunComponents(
        tables=tuple(
            strategy.sample_strategy_tables(rng, n, s, m, config.decision_set)
            for rng in pair(seeding.STRATEGIES)
        ),
        couplings=sample_couplings(
            config.coupling, n, seeding.stream(seed, run_index, seeding.COUPLINGS)
        ),
        warmup_decisions=tuple(
            decision_values[rng.integers(0, len(decision_values), size=(config.warmup_steps, n))]
            for rng in pair(seeding.WARMUP)
        ),
        tiebreak_rngs=pair(seeding.TIEBREAK),
        event_rngs=pair(seeding.EVENTS),
    )


def _agent_types(tables: np.ndarray, values) -> tuple:
    """With at most two slots and fewer possible tables over ``values`` than
    agents, the distinct (slots, rows) tables the agents hold, each one's agent
    count (at least 1) and each agent's row.  Else the agents."""
    n, s, rows = tables.shape
    # |values| >= 2, so the bit length decides first, before the power grows huge
    if s > 2 or s * rows >= n.bit_length() or len(values) ** (s * rows) >= n:
        return tables, None, None
    # one byte string per agent: unique(axis=0) compares field by field, ~15x slower
    keys = np.ascontiguousarray(tables).reshape(n, -1).view(f"V{tables[0].nbytes}")[:, 0]
    held, type_of, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return held.view(tables.dtype).reshape(-1, s, rows), counts, type_of


def simulate_trajectory(
    config: ModelConfig,
    components: RunComponents,
    shock_amplitudes: tuple[float, float] | None = None,
) -> MarketState:
    """Run the dynamics with fully realized components.

    Exposed separately from :func:`run` so tests can inject hand-built
    strategy tables or warm-up decisions.
    """
    n, s_slots, m = config.n_agents, config.n_strategies, config.memory
    warm, horizon = config.warmup_steps, config.horizon
    total_steps = warm + horizon
    a_own = config.a
    hist_mask = (1 << m) - 1

    prices = [np.empty(total_steps) for _ in range(2)]
    returns = [np.empty(total_steps) for _ in range(2)]
    internal = [np.empty(total_steps, dtype=np.int64) for _ in range(2)]
    total = [np.empty(total_steps) for _ in range(2)]

    prev_price = [config.initial_price, config.initial_price]
    last_return = [0.0, 0.0]
    hist = [0, 0]

    try:
        with np.errstate(over="raise"):  # refuse, not warn, a sum past the float range
            mean_b = [float(b.mean()) for b in components.couplings]
    except FloatingPointError:
        raise CoefficientOutOfRangeError(f"couplings summed over {n} agents overflow") from None
    stocks = []
    for j, tables, b in zip((0, 1), components.tables, components.couplings):
        views = counts = type_of = None
        if (b == b[0]).all():  # one public state per step: per state, its (rows, slots) views
            b = float(b[0])
            tables, counts, type_of = _agent_types(tables, config.decision_set)
            at = np.ascontiguousarray(tables.transpose(2, 1, 0))  # state-major, then slot-major
            # (decisions, scored decisions, selection mask, base demand, weights) per state; few
            # rows keep int64 decisions and float64 scored ones, so a step casts nothing
            if counts is None:
                views = [(d.T, d.T, None, 0, None) for d in at]
            else:  # the rows a tie can swing, the all-first-slot demand, each row's swing
                views = [(d.T, f.T, d[0] != d[-1], int(counts @ d[0]), counts * (d[-1] - d[0]))
                         for d, f in zip(at.astype(np.int64), at.astype(np.float64))]
        k = len(tables)  # slot-major: slot s of row i is entry i + s * k, each column contiguous
        stocks.append((j, tables, b, views, np.zeros((s_slots, k)).T, counts, type_of, np.arange(k),
                       components.tiebreak_rngs[j], components.event_rngs[j],
                       components.warmup_decisions[j]))
    owed = [0, 0]  # tie-break draws each stock skipped since its last draw
    for step in range(total_steps):
        lag = tuple(last_return)
        for j, tables, b, views, scores, counts, type_of, rows, rng, events, warmup in stocks:
            if step < warm:  # uniformly random decisions, no scoring
                a_int, a_ext = market.excess_demand(warmup[step]), 0.0
            else:
                state = (b * lag[1 - j] + a_own[j] * lag[j] >= 0.0) + (hist[j] << 1)
                if views is None:  # a state per agent
                    decided = scored = strategy.decide_all_slots(tables, state)
                else:
                    decided, scored, mask, base, weights = views[state]
                if counts is None:
                    slot = scoring.select_slots(scores, rng)
                    a_int = market.excess_demand(decided.T.reshape(-1)[rows + slot * n])
                else:
                    took = scoring.select_slots(scores, mask)
                    if took is None:
                        # a tie changes the demand: each agent takes its top slot of most jitter
                        rng.bit_generator.advance(owed[j])
                        owed[j] = 0
                        own_slot = scoring.top_slots(scores[type_of], rng.random((n, s_slots)))
                        a_int = market.excess_demand(decided[type_of, own_slot])
                    else:  # skip the draw, and owe its stream the advance
                        owed[j] += n * s_slots
                        a_int = base + market.excess_demand(took, weights)
                a_ext = 0.0
                if shock_amplitudes is not None:
                    a_ext = market.external_demand(
                        config.events.probability, shock_amplitudes[j], events
                    )

            a_total = a_int + a_ext
            try:
                price = market.update_price(prev_price[j], a_total)
            except NonPositivePriceError as exc:
                raise NonPositivePriceError(exc.price, stock=j + 1, step=step) from None
            r = market.log_return(price, prev_price[j])
            prices[j][step], returns[j][step] = price, r
            internal[j][step], total[j][step] = a_int, a_total
            prev_price[j], last_return[j] = price, r
            hist[j] = ((hist[j] << 1) | (r >= 0)) & hist_mask
            if step >= warm:
                scoring.update_scores(scores, scored, a_total)
    for rng, skipped in zip(components.tiebreak_rngs, owed):
        rng.bit_generator.advance(skipped)

    # the population-mean expectation standing after each step's returns,
    # i.e. the forecast agents carry into the next step
    recorded = [returns[j][warm:] for j in (0, 1)]
    stocks = tuple(
        StockSeries(
            prices=prices[j],
            returns=returns[j],
            internal_demand=internal[j],
            total_demand=total[j],
            mean_expectation=a_own[j] * recorded[j] + mean_b[j] * recorded[1 - j],
        )
        for j in (0, 1)
    )
    return MarketState(warmup_steps=warm, stocks=stocks)


@dataclass(frozen=True)
class RunResult:
    market: MarketState
    correlation: float
    run_index: int
    shock_amplitudes: tuple[float, float] | None = None

    def samples(self, stock_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(mean expected return, realized return) pairs per recorded step."""
        series = self.market.stocks[stock_index]
        return series.mean_expectation, self.market.main_returns(stock_index)


def run(config: ModelConfig, run_index: int) -> RunResult:
    """Execute one full run and compute the return correlation."""
    validate(config)
    components = build_components(config, run_index)

    shock_amplitudes = None
    if config.events is not None:
        baseline = simulate_trajectory(config, components)
        shock_amplitudes = tuple(
            config.events.strength
            * float(np.std(baseline.stocks[j].internal_demand[baseline.warmup_steps :]))
            for j in (0, 1)
        )
        # the calibration pass consumed the live streams; rebuild them
        components = build_components(config, run_index)

    # positional: perfbench's trajectory probe names the argument event_states
    state = simulate_trajectory(config, components, shock_amplitudes)
    rho = pearson(state.main_returns(0), state.main_returns(1))
    return RunResult(state, rho, run_index, shock_amplitudes)


@dataclass(frozen=True)
class BatchResult:
    runs: list[RunResult]
    mean_correlation: float


def pool_map(fn, tasks: list, threads: int | None) -> list:
    """``[fn(task) for task in tasks]``, spread over ``threads`` worker
    processes when that is more than one.

    Results keep the order of ``tasks``.  Each worker takes about eight
    chunks, so short tasks do not pay one round trip each.
    """
    if threads is not None and threads > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial map need not import it
        chunk = max(1, len(tasks) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks, chunksize=chunk))
    return [fn(task) for task in tasks]


def run_many(config: ModelConfig, threads: int | None = None) -> BatchResult:
    """Execute ``config.n_runs`` independent runs and average the correlation.

    Runs are seeded by index, so results do not depend on execution order or
    worker count.
    """
    validate(config)
    results = pool_map(functools.partial(run, config), list(range(config.n_runs)), threads)
    mean_rho = float(np.mean([r.correlation for r in results]))
    return BatchResult(runs=results, mean_correlation=mean_rho)

