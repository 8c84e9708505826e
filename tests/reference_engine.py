"""Plain-loop reference implementations used as oracles for the vectorized
engine.  Deliberately written with per-agent Python loops and simple data
structures; they share only the stream-consumption protocol with the real
engine, so any vectorization or indexing mistake shows up as a bit-level
demand mismatch.  The whole-array kernels the engine used before its
column-wise rewrite are kept here too, as bit-for-bit oracles of the current
ones.
"""

import math
from typing import NamedTuple

import numpy as np

from mgmarket import UniformCoupling, seeding


def select_slots_argmax(scores, rng):
    """The whole-array form of ``scoring.select_slots``: argmax of the jitter
    among the slots tied at each agent's maximum, -1 on the others."""
    jitter = rng.random(scores.shape)
    tied = scores == scores.max(axis=1, keepdims=True)
    return np.argmax(np.where(tied, jitter, -1.0), axis=1)


def decide_all_slots_take(tables, state_index):
    """The ``take_along_axis`` form of ``strategy.decide_all_slots``."""
    return np.take_along_axis(tables, state_index[:, None, None], axis=2)[:, :, 0]


def _step_price(price: float, demand: float) -> float:
    if demand > 0:
        return price + math.sqrt(demand)
    if demand < 0:
        return price - math.sqrt(-demand)
    return price


def single_asset_demands(n_agents, memory, n_strategies, horizon, initial_price,
                         a, master_seed, run_index, stock):
    """One stock's demand series for the decoupled (b=0) model.

    Consumes the per-stock streams exactly as the real engine does, then runs
    a self-contained single-asset game: state = m return signs plus the sign
    of a * r(t-1).
    """
    decisions = (-1, 1)
    n_rows = 2 ** (memory + 1)
    g = seeding.stream(master_seed, run_index, f"strategies:{stock}")
    raw = g.integers(0, 2, size=(n_agents, n_strategies, n_rows))
    tables = [[[decisions[raw[i][s][k]] for k in range(n_rows)]
               for s in range(n_strategies)] for i in range(n_agents)]
    g = seeding.stream(master_seed, run_index, f"warmup:{stock}")
    warm_steps = max(1, memory)
    raw_w = g.integers(0, 2, size=(warm_steps, n_agents))
    tb = seeding.stream(master_seed, run_index, f"tiebreak:{stock}")

    price = initial_price
    returns = []
    demands = []
    hist_bits = []
    scores = [[0.0] * n_strategies for _ in range(n_agents)]

    def advance(demand):
        nonlocal price
        new_price = _step_price(price, demand)
        r = math.log(new_price) - math.log(price)
        price = new_price
        returns.append(r)
        demands.append(demand)
        hist_bits.append(1 if r >= 0 else 0)

    for w in range(warm_steps):
        advance(sum(decisions[raw_w[w][i]] for i in range(n_agents)))

    for _t in range(horizon):
        jitter = tb.random((n_agents, n_strategies))
        expected = a * returns[-1]
        e_bit = 1 if expected >= 0 else 0
        idx = 0
        for bit in hist_bits[-memory:]:
            idx = idx * 2 + bit
        idx = idx * 2 + e_bit
        played = []
        rows = []
        for i in range(n_agents):
            best = max(scores[i])
            winners = [s for s in range(n_strategies) if scores[i][s] == best]
            slot = max(winners, key=lambda s: jitter[i][s])
            row = [tables[i][s][idx] for s in range(n_strategies)]
            rows.append(row)
            played.append(row[slot])
        demand = sum(played)
        advance(demand)
        for i in range(n_agents):
            for s in range(n_strategies):
                scores[i][s] -= demand * rows[i][s]
    return demands


class TwoStockRun(NamedTuple):
    """What :func:`two_stock_demands` saw in one run."""

    demands: list  # per stock, the internal demand of every step, warm-up included
    abort: tuple | None  # (stock, step) of the first non-positive price
    zero_returns: int  # zero returns read into a state index
    zero_expectations: int  # per-agent expectations that were exactly zero


def two_stock_demands(config, run_index):
    """Both stocks' internal demand series for any config.

    Covers every config axis: homogeneous or per-agent uniform couplings,
    holds, any number of slots and memory, own-return weights below one and
    the event model.  With events on it first plays a calibration pass with
    shocks off, sets each stock's shock amplitude to the strength times the
    standard deviation of that pass's main-window internal demand, and then
    plays again on fresh streams.  A run stops at the first non-positive
    price and reports where.
    """
    n, n_slots, m = config.n_agents, config.n_strategies, config.memory
    warm_steps, horizon = config.warmup_steps, config.horizon
    decision_values = list(config.decision_set)
    n_dec, n_rows = len(decision_values), 2 ** (m + 1)

    def stream(label):
        return seeding.stream(config.master_seed, run_index, label)

    def play(amplitudes):
        coupling = config.coupling
        if isinstance(coupling, UniformCoupling):
            g = stream("couplings")
            b = [g.uniform(coupling.c1 - coupling.delta1, coupling.c1 + coupling.delta1, n),
                 g.uniform(coupling.c2 - coupling.delta2, coupling.c2 + coupling.delta2, n)]
        else:
            b = [[coupling.b1] * n, [coupling.b2] * n]

        tables, warm, tb, ev = [], [], [], []
        for stock in (1, 2):
            raw = stream(f"strategies:{stock}").integers(0, n_dec, size=(n, n_slots, n_rows))
            tables.append([[[decision_values[raw[i][s][k]] for k in range(n_rows)]
                            for s in range(n_slots)] for i in range(n)])
            raw_w = stream(f"warmup:{stock}").integers(0, n_dec, size=(warm_steps, n))
            warm.append([[decision_values[raw_w[w][i]] for i in range(n)]
                         for w in range(warm_steps)])
            tb.append(stream(f"tiebreak:{stock}"))
            ev.append(stream(f"events:{stock}"))

        prices = [config.initial_price, config.initial_price]
        returns = [[], []]
        demands = [[], []]
        scores = [[[0.0] * n_slots for _ in range(n)], [[0.0] * n_slots for _ in range(n)]]
        zero_returns = zero_expectations = 0

        def advance(j, total):
            """Move stock j's price; False when it would not stay positive."""
            new_price = _step_price(prices[j], total)
            if new_price <= 0:
                return False
            returns[j].append(math.log(new_price) - math.log(prices[j]))
            prices[j] = new_price
            return True

        for w in range(warm_steps):
            for j in (0, 1):
                demand = sum(warm[j][w])
                demands[j].append(demand)
                if not advance(j, demand):
                    return TwoStockRun(demands, (j + 1, w), zero_returns, zero_expectations)

        for t in range(horizon):
            lag = (returns[0][-1], returns[1][-1])
            for j in (0, 1):
                jitter = tb[j].random((n, n_slots))
                # the last m returns, oldest in the highest bit; zero counts as plus
                hist_idx = 0
                for r in returns[j][-m:]:
                    hist_idx = hist_idx * 2 + (1 if r >= 0 else 0)
                    zero_returns += r == 0
                played, rows = [], []
                for i in range(n):
                    expected = config.a[j] * lag[j] + b[j][i] * lag[1 - j]
                    zero_expectations += expected == 0
                    idx = hist_idx * 2 + (1 if expected >= 0 else 0)
                    best = max(scores[j][i])
                    winners = [s for s in range(n_slots) if scores[j][i][s] == best]
                    slot = max(winners, key=lambda s: jitter[i][s])
                    row = [tables[j][i][s][idx] for s in range(n_slots)]
                    rows.append(row)
                    played.append(row[slot])
                demand = sum(played)
                total = demand
                if amplitudes is not None:
                    # both draws every step, whether or not the shock fires
                    fired = ev[j].random() < config.events.probability
                    negative = ev[j].integers(0, 2) == 1
                    shock = (-amplitudes[j] if negative else amplitudes[j]) if fired else 0.0
                    total = demand + shock
                demands[j].append(demand)
                if not advance(j, total):
                    return TwoStockRun(demands, (j + 1, warm_steps + t),
                                       zero_returns, zero_expectations)
                for i in range(n):
                    for s in range(n_slots):
                        scores[j][i][s] -= total * rows[i][s]
        return TwoStockRun(demands, None, zero_returns, zero_expectations)

    if config.events is None:
        return play(None)
    calibration = play(None)
    if calibration.abort is not None:
        return calibration
    return play([config.events.strength * float(np.std(calibration.demands[j][warm_steps:]))
                 for j in (0, 1)])
