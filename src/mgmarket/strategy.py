"""Strategy tables and information-state encoding.

A strategy is a fixed lookup table from an information state to a trade
decision.  The state packs the signs of a stock's last ``m`` returns together
with the sign of the agent's expected return for that stock, so a table has
``2^(m+1)`` rows.  The engine builds the row index with the oldest return
bit highest and the expectation bit lowest.  Sign bits use the convention
that zero counts as positive (with holds enabled a return can be exactly
zero, and an expected return can cancel to zero, so the binary alphabet
needs a tie rule).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np


def n_states(memory: int) -> int:
    return 2 ** (memory + 1)


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
