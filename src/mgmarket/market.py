"""Price formation: excess demand, the square-root price impact, log returns,
and exogenous demand shocks.

Each step the decisions of all agents for a stock sum to an integer excess
demand.  The price moves by the signed square root of the total demand, and
the return is the log-price difference.  When the event model is active, an
external shock of magnitude ``k`` times the baseline demand standard
deviation is added to the internal demand with a random sign, with a fixed
per-step probability.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositivePriceError


def excess_demand(decisions, counts=None) -> int:
    """Exact integer sum of one stock's decisions, each by ``counts`` agents if given."""
    return int(np.asarray(decisions).sum() if counts is None else counts.dot(decisions))


def external_demand(probability: float, amplitude: float, rng: np.random.Generator,
                    steps: int) -> list[float]:
    """External shocks of ``steps`` steps: +/- amplitude with ``probability``, else 0.

    Bit for bit the shocks of per-step draws ``rng.random() < probability`` and
    ``rng.integers(0, 2)`` (odd is minus), read in one ``random_raw`` call.
    ``random()`` maps a 64-bit word ``w`` to ``(w >> 11) * 2**-53``; ``integers(0,
    2)`` is the top bit of a 32-bit half, never rejected: the low half of a fresh
    word, then its buffered high half.  So steps (t, t+1) read the words
    [occurrence t, sign word, occurrence t+1], with signs in bits 31 and 63.  A
    test against the per-step calls guards this layout across numpy releases.
    """
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64 or bits.state["has_uint32"]:
        raise ValueError("external shocks are read from a PCG64 stream with no buffered half-word")
    pairs = -(-steps // 2)  # an odd count pads its last pair, then cuts the extra step
    words = np.resize(bits.random_raw(steps + pairs), 3 * pairs).reshape(pairs, 3)
    fired = (words[:, ::2] >> np.uint64(11)) * 2.0**-53 < probability
    minus = words[:, 1:2] >> np.array([31, 63], dtype=np.uint64) & np.uint64(1)
    return np.where(fired, np.where(minus, -amplitude, amplitude), 0.0).reshape(-1)[:steps].tolist()


def update_price(prev_price: float, total_demand: float) -> float:
    """Move the price by the signed square root of the total demand.

    Zero demand leaves the price unchanged.  A non-positive result is a hard
    error: clamping would silently corrupt the return series.
    """
    if total_demand > 0:
        new_price = prev_price + math.sqrt(total_demand)
    elif total_demand < 0:
        new_price = prev_price - math.sqrt(-total_demand)
    else:
        new_price = prev_price
    if new_price <= 0:
        raise NonPositivePriceError(new_price)
    return new_price


def log_return(p_now: float, p_prev: float) -> float:
    if p_now <= 0 or p_prev <= 0:
        raise ValueError("prices must be positive")
    return math.log(p_now) - math.log(p_prev)


@dataclass(frozen=True)
class StockSeries:
    """Full trajectory of one stock: warm-up steps followed by the recorded
    main window.  ``mean_expectation`` covers the main window only and holds
    the population-mean expected return formed from the data through each
    step, i.e. the forecast agents carry out of step t."""

    prices: np.ndarray
    returns: np.ndarray
    internal_demand: np.ndarray
    total_demand: np.ndarray
    mean_expectation: np.ndarray


@dataclass(frozen=True)
class MarketState:
    warmup_steps: int
    stocks: tuple[StockSeries, StockSeries]

    @property
    def horizon(self) -> int:
        return len(self.stocks[0].prices) - self.warmup_steps

    def main_returns(self, stock_index: int) -> np.ndarray:
        return self.stocks[stock_index].returns[self.warmup_steps :]


TRAJECTORY_COLUMNS = ["t", "P1", "r1", "A1", "re1_mean", "P2", "r2", "A2", "re2_mean"]


def _demand_cell(x: float):
    return int(x) if float(x).is_integer() else repr(float(x))


def write_trajectory(state: MarketState, fh) -> None:
    """Write the recorded window as CSV, one row per main-loop step."""
    writer = csv.writer(fh)
    writer.writerow(TRAJECTORY_COLUMNS)
    w = state.warmup_steps
    for t in range(state.horizon):
        row = [t + 1]
        for s in state.stocks:
            row += [
                repr(float(s.prices[w + t])),
                repr(float(s.returns[w + t])),
                _demand_cell(s.total_demand[w + t]),
                repr(float(s.mean_expectation[t])),
            ]
        writer.writerow(row)
