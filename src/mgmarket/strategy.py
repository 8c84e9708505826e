"""Strategy tables and information-state encoding.

A strategy is a fixed lookup table from an information state to a trade
decision.  The state packs the signs of a stock's last ``m`` returns together
with the sign of the agent's expected return for that stock, so a table has
``2^(m+1)`` rows.  Sign bits use the convention that zero counts as positive
(with holds enabled a return can be exactly zero, and an expected return can
cancel to zero, so the binary alphabet needs a tie rule).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PLUS = 1
MINUS = 0


def sign_bit(x: float) -> int:
    """Map a real to its sign bit; zero counts as PLUS."""
    return PLUS if x >= 0 else MINUS


def n_states(memory: int) -> int:
    return 2 ** (memory + 1)


def encode(history: Sequence[int], expectation: int, memory: int | None = None) -> int:
    """Pack history sign bits plus the expectation bit into a table index.

    The oldest history bit lands in the highest position, the expectation bit
    in the lowest.  Bijective onto ``[0, 2^(m+1))``.
    """
    if memory is not None and len(history) != memory:
        raise ValueError(f"expected {memory} history bits, got {len(history)}")
    index = 0
    for bit in history:
        if bit not in (PLUS, MINUS):
            raise ValueError(f"history bits must be 0 or 1, got {bit!r}")
        index = (index << 1) | bit
    if expectation not in (PLUS, MINUS):
        raise ValueError(f"expectation bit must be 0 or 1, got {expectation!r}")
    return (index << 1) | expectation


@dataclass(frozen=True)
class InfoState:
    """One row key: the (history signs, expectation sign) tuple."""

    history: tuple[int, ...]
    expectation: int

    @property
    def index(self) -> int:
        return encode(self.history, self.expectation)


@dataclass(frozen=True)
class Strategy:
    """A single decision table; entries are decision values (-1, 0, +1)."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int8)
        if table.ndim != 1 or table.size & (table.size - 1) or table.size < 2:
            raise ValueError(f"table length must be a power of two >= 2, got {table.shape}")
        object.__setattr__(self, "table", table)

    @property
    def memory(self) -> int:
        return int(np.log2(self.table.size)) - 1


def sample_strategy(rng: np.random.Generator, memory: int, decision_set: Sequence[int]) -> Strategy:
    """Draw one table uniformly: each row independent, uniform over decisions."""
    values = np.asarray(decision_set, dtype=np.int8)
    raw = rng.integers(0, len(values), size=n_states(memory))
    return Strategy(values[raw])


def sample_strategy_tables(
    rng: np.random.Generator,
    n_agents: int,
    n_strategies: int,
    memory: int,
    decision_set: Sequence[int],
) -> np.ndarray:
    """Bulk-draw all tables for one stock as an (agents, slots, rows) array.

    One draw call so the stream consumption is a fixed function of the shape.
    """
    values = np.asarray(decision_set, dtype=np.int8)
    raw = rng.integers(0, len(values), size=(n_agents, n_strategies, n_states(memory)))
    return values[raw]


def lookup(strategy: Strategy, state: InfoState | int) -> int:
    """Read the decision for a state; pure."""
    index = state.index if isinstance(state, InfoState) else state
    return int(strategy.table[index])


@functools.lru_cache(maxsize=16)
def _row_offsets(n_agents: int, n_strategies: int, n_rows: int) -> np.ndarray:
    """Flat index of row 0 of every table, slot-major: element (slot, agent)
    is the offset of that agent's table for that slot.  Read-only and shared."""
    agents = np.arange(n_agents, dtype=np.intp) * n_strategies
    slots = np.arange(n_strategies, dtype=np.intp)[:, None]
    offsets = (agents + slots) * n_rows
    offsets.flags.writeable = False
    return offsets


def decide_all_slots(tables: np.ndarray, state_index: np.ndarray) -> np.ndarray:
    """Decisions of every strategy slot at each agent's state.

    ``tables`` is (agents, slots, rows); ``state_index`` is (agents,).
    Returns an (agents, slots) array: the transpose of a contiguous
    (slots, agents) array, gathered in one flat take from the C-ordered
    tables with the slot-major offsets, so the index add runs along the
    agent axis.
    """
    return tables.reshape(-1)[_row_offsets(*tables.shape) + state_index].T
