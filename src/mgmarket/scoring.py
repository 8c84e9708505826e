"""Minority-payoff bookkeeping and strategy selection.

Every strategy slot of every agent is scored every step against the decision
it *would* have made in the current information state, whether or not it was
played: the agent tracks how each of its strategies performs.  The payoff is
minority-rewarding and linear in the demand imbalance: a slot on the minority
side of the excess demand gains in proportion to the imbalance it traded
against, the majority side loses the same amount, holds score zero.  Each
step the agent plays its highest-scoring slot, ties broken uniformly at
random.  Agents of one type (same tables and coupling) keep bit-identical
scores, and the engine forms types only at one or two slots, a row's first
and last.  When no row whose two slots decide differently ties, no draw can
change the demand: each row plays its last slot exactly where it scores
higher, and PCG64's ``advance`` leaves the stream where the draw would.

The linear payoff keeps the crowd's adaptation gradual: score gaps scale with
the imbalances a strategy traded through, so strategy rankings spread out
instead of flipping in lockstep, and the price stays pinned near its starting
level over the whole horizon.
"""

from __future__ import annotations

import numpy as np


def update_scores(scores: np.ndarray, slot_decisions: np.ndarray, total_demand: float) -> None:
    """Add one step's payoff, ``-total_demand * decision``, for every slot of
    one stock, in place.

    ``slot_decisions`` is (agents, slots): each slot's hypothetical decision
    at the current state.  The played slot gets no special treatment.
    """
    if total_demand:
        scores -= float(total_demand) * slot_decisions


def select_slots(scores: np.ndarray, tiebreak) -> np.ndarray | None:
    """Per-row (agent or agent type) index of a maximal score, ties uniform.

    With the tie-break generator, one jitter value per (row, slot) is drawn
    every call, a fixed function of the shape, and ranks the tied top slots.
    Else ``tiebreak`` is the mask of the type rows whose first and last slots
    decide differently, and nothing is drawn: the result is ``None`` when such
    a row ties, else whether each row plays its last slot.  One entry point,
    so each stock-step makes one call (perfbench's probes count them).
    """
    if isinstance(tiebreak, np.random.Generator):
        return top_slots(scores, tiebreak.random(scores.shape))
    first, second = scores[:, 0], scores[:, -1]
    return None if tiebreak.dot(second == first) else second > first


def top_slots(scores: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per-row index of a maximal score: of the top slots, the one of greatest
    ``keys``, the first on equal keys (argmax's rule, bit for bit).

    A tournament over the slot columns, contiguous for the transpose of a
    slot-major array: elementwise work beats reductions over a few slots.
    """
    n_slots = scores.shape[1]
    columns, keys = scores.T, keys.T
    if n_slots == 1:
        return np.zeros(len(scores), dtype=np.intp)
    best, best_key = columns[0], keys[0]
    for k in range(1, n_slots):
        column, key = columns[k], keys[k]
        take = column > best
        take |= (column == best) & (key > best_key)
        if k == 1:
            slot = take.astype(np.intp)
        else:
            np.putmask(slot, take, k)
        if k + 1 < n_slots:
            best = np.where(take, column, best)
            best_key = np.where(take, key, best_key)
    return slot
