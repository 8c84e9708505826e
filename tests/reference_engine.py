"""Plain-loop reference implementations used as oracles for the vectorized
engine.  Deliberately written with per-agent Python loops and simple data
structures; they share only the stream-consumption protocol with the real
engine, so any vectorization or indexing mistake shows up as a bit-level
demand mismatch.  The whole-array kernels the engine used before its
column-wise rewrite are kept here too, as bit-for-bit oracles of the current
ones.
"""

import math

import numpy as np

from mgmarket import seeding


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


def two_stock_demands(config, run_index):
    """Both stocks' internal demand series for homogeneous couplings."""
    n, n_slots, m = config.n_agents, config.n_strategies, config.memory
    warm_steps, horizon = config.warmup_steps, config.horizon
    decision_values = list(config.decision_set)
    n_dec, n_rows = len(decision_values), 2 ** (m + 1)
    a1, a2 = config.a
    b = [np.full(n, config.coupling.b1), np.full(n, config.coupling.b2)]

    tables, warm, tb = [], [], []
    for stock in (1, 2):
        g = seeding.stream(config.master_seed, run_index, f"strategies:{stock}")
        raw = g.integers(0, n_dec, size=(n, n_slots, n_rows))
        tables.append([[[decision_values[raw[i][s][k]] for k in range(n_rows)]
                        for s in range(n_slots)] for i in range(n)])
        g = seeding.stream(config.master_seed, run_index, f"warmup:{stock}")
        raw_w = g.integers(0, n_dec, size=(warm_steps, n))
        warm.append([[decision_values[raw_w[w][i]] for i in range(n)]
                     for w in range(warm_steps)])
        tb.append(seeding.stream(config.master_seed, run_index, f"tiebreak:{stock}"))

    prices = [config.initial_price, config.initial_price]
    returns = [[], []]
    demands = [[], []]
    hist = [[], []]
    scores = [[[0.0] * n_slots for _ in range(n)], [[0.0] * n_slots for _ in range(n)]]

    def advance(j, demand):
        new_price = _step_price(prices[j], demand)
        r = math.log(new_price) - math.log(prices[j])
        prices[j] = new_price
        returns[j].append(r)
        demands[j].append(demand)
        hist[j].append(1 if r >= 0 else 0)

    for w in range(warm_steps):
        for j in (0, 1):
            advance(j, sum(warm[j][w]))

    for _t in range(horizon):
        lag = (returns[0][-1], returns[1][-1])
        staged = []
        for j in (0, 1):
            aj = a1 if j == 0 else a2
            jitter = tb[j].random((n, n_slots))
            played, rows = [], []
            for i in range(n):
                expected = aj * lag[j] + b[j][i] * lag[1 - j]
                e_bit = 1 if expected >= 0 else 0
                idx = 0
                for bit in hist[j][-m:]:
                    idx = idx * 2 + bit
                idx = idx * 2 + e_bit
                best = max(scores[j][i])
                winners = [s for s in range(n_slots) if scores[j][i][s] == best]
                slot = max(winners, key=lambda s: jitter[i][s])
                row = [tables[j][i][s][idx] for s in range(n_slots)]
                rows.append(row)
                played.append(row[slot])
            staged.append((played, rows))
        for j in (0, 1):
            played, rows = staged[j]
            demand = sum(played)
            advance(j, demand)
            for i in range(n):
                for s in range(n_slots):
                    scores[j][i][s] -= demand * rows[i][s]
    return demands
