"""One full simulation run: initialization, warm-up, the per-step loop over
both stocks, and trajectory recording.

Step protocol (main loop), using only step t-1 data as inputs:

1. each agent's expected return per stock from both stocks' lagged returns;
2. information state per stock: last m return signs plus the expectation sign,
   one integer when the agents share one coupling, and so one expectation;
3. each agent plays its highest-scoring strategy slot (ties uniform).  A stock
   with one coupling and one or two slots takes the type-row step: its rows are
   the distinct tables held when fewer are possible than agents, else the
   agents; ``tiebreak:j`` is drawn only when a tie can change the demand, and
   the stream advances by all the draws it skipped in one jump just before the
   stock's next draw and at the end of the pass.  A state's views are built on
   the pass's first visit to it, and the latest kept within ``_VIEW_BYTES``.
   Any other stock takes the per-agent step: a state per agent, a draw a step;
4. decisions sum to the internal excess demand; an external shock is added
   when the event model is active, read from a list that one
   :func:`mgmarket.market.external_demand` call per stock fills before the loop;
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
deviation of each stock's internal demand, then re-runs with shocks enabled,
reading each ``events:j`` stream once, for all of its recorded steps.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from . import market, scoring, seeding, strategy
from .config import _MEMORY_BUDGET_BYTES, ModelConfig, validate
from .errors import CoefficientOutOfRangeError, NonPositivePriceError
from .expectation import sample_couplings
from .market import MarketState, StockSeries
from .stats import pearson

# a type-row stock's latest state views fit a 64th of the budget: 8S+9 B a row, ≤704 B a state
_VIEW_BYTES, _VIEW_ENTRY_BYTES = _MEMORY_BUDGET_BYTES >> 6, 704
# tasks a pool worker takes at once: the bound on the tasks and results in flight
_CHUNK_TASKS = 64


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
    """With fewer tables possible over ``values`` than agents, the distinct tables held,
    each one's agent count and each agent's row.  Else the agents: count 1, identity map."""
    n, s, rows = tables.shape
    # |values| >= 2, so the bit length decides first, before the power grows huge
    if s * rows >= n.bit_length() or len(values) ** (s * rows) >= n:
        return tables, np.ones(n, dtype=np.intp), np.arange(n)
    # one byte string per agent: unique(axis=0) compares field by field, ~15x slower
    keys = np.ascontiguousarray(tables).reshape(n, -1).view(f"V{tables[0].nbytes}")[:, 0]
    held, type_of, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return held.view(tables.dtype).reshape(-1, s, rows), counts, type_of


def _state_views(at: np.ndarray, counts: np.ndarray, state: int) -> tuple:
    """One state's (rows, slots) decisions, int8 and float64 (so a score update casts
    nothing); the rows a tie can swing, the all-first-slot demand, each row's swing."""
    d = at[state]  # (slots, rows): each slot's column contiguous
    return d.T, d.T.astype(np.float64), d[0] != d[-1], int(counts @ d[0]), counts * (d[-1] - d[0])


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
        views, type_of = None, np.arange(n)  # a state per agent, each agent its own row
        if s_slots <= 2 and (b == b[0]).all():  # one state per step; views built on first visit
            b = float(b[0])
            tables, counts, type_of = _agent_types(tables, config.decision_set)
            at = np.ascontiguousarray(tables.transpose(2, 1, 0))  # state-major, then slot-major
            kept = _VIEW_BYTES // (len(tables) * (8 * s_slots + 9) + _VIEW_ENTRY_BYTES)
            views = functools.lru_cache(kept)(functools.partial(_state_views, at, counts))
        k = len(tables)  # slot-major: slot s of row i is entry i + s * k, each column contiguous
        shocks = [0.0] * total_steps  # each step's external demand: the whole pass's in one read
        if shock_amplitudes is not None:
            shocks[warm:] = market.external_demand(config.events.probability, shock_amplitudes[j],
                                                   components.event_rngs[j], horizon)
        stocks.append((j, tables, b, views, np.zeros((s_slots, k)).T, type_of,
                       components.tiebreak_rngs[j], shocks, components.warmup_decisions[j]))
    owed = [0, 0]  # tie-break draws each stock skipped since its last draw
    for step in range(total_steps):
        lag = tuple(last_return)
        for j, tables, b, views, scores, type_of, rng, shocks, warmup in stocks:
            if step < warm:  # uniformly random decisions, no scoring
                a_int = market.excess_demand(warmup[step])
            else:
                state = (b * lag[1 - j] + a_own[j] * lag[j] >= 0.0) + (hist[j] << 1)
                if views is None:  # a state per agent, and a draw every step
                    decided = scored = strategy.decide_all_slots(tables, state)
                    slot = scoring.select_slots(scores, rng)
                    a_int = market.excess_demand(decided.T.reshape(-1)[type_of + slot * n])
                else:
                    decided, scored, mask, base, weights = views(state)
                    took = scoring.select_slots(scores, mask)
                    if took is None:
                        # a tie changes the demand: each agent takes its top slot of most jitter
                        rng.bit_generator.advance(owed[j])
                        owed[j] = 0
                        agent_scores = scores if len(scores) == n else scores.T.take(type_of, 1).T
                        own_slot = scoring.top_slots(agent_scores, rng.random((n, s_slots)))
                        a_int = market.excess_demand(
                            decided.T.reshape(-1)[type_of + own_slot * len(scores)])
                    else:  # skip the draw, and owe its stream the advance
                        owed[j] += n * s_slots
                        a_int = base + market.excess_demand(took, weights)

            a_total = a_int + shocks[step]
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


def _run_chunk(fn, tasks: list) -> list:
    return [fn(task) for task in tasks]


def pool_shape(count: int, threads: int | None) -> tuple[int, int, int]:
    """:func:`pool_map`'s workers, tasks a chunk and most results alive at once over ``count``
    tasks: a worker per task and CPU the process may run on, up to ``threads``, each taking
    about eight chunks of at most ``_CHUNK_TASKS``, two in flight beside the one handed out."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads or 1, count, cpus or 1)
    if workers <= 1:  # serially one result at a time, and no chunk to size for no task
        return 1, 1, 1
    chunk = min(_CHUNK_TASKS, max(1, count // (workers * 8)))
    return workers, chunk, min(count, (2 * workers + 1) * chunk)


def pool_map(fn, tasks, count: int, threads: int | None):
    """Yield ``fn(task)`` for each of the ``count`` ``tasks`` in order, over the processes of
    :func:`pool_shape` if more than one.  A task that raises cancels the chunks not yet started."""
    workers, chunk, _alive = pool_shape(count, threads)
    if workers == 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # a serial map need not import it
    from itertools import islice
    tasks = iter(tasks)
    parts = iter(lambda: list(islice(tasks, chunk)), [])  # drawn as the window moves on
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        window = [pool.submit(_run_chunk, fn, part) for part in islice(parts, 2 * workers)]
        while window:
            done = window.pop(0).result()
            window += [pool.submit(_run_chunk, fn, part) for part in islice(parts, 1)]
            yield from done
    finally:
        pool.shutdown(cancel_futures=True)


def run_many(config: ModelConfig, threads: int | None = None):
    """Validate ``config``, then iterate over its runs in order, seeded by index, keeping none."""
    validate(config)
    return pool_map(functools.partial(run, config), range(config.n_runs), config.n_runs, threads)
