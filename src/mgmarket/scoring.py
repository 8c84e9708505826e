"""Minority-payoff bookkeeping and strategy selection.

Every strategy slot of every agent is scored every step against the decision
it *would* have made in the current information state, whether or not it was
played: the agent tracks how each of its strategies performs.  The payoff is
minority-rewarding and linear in the demand imbalance: a slot on the minority
side of the excess demand gains in proportion to the imbalance it traded
against, the majority side loses the same amount, holds score zero.  Each
step the agent plays its highest-scoring slot, ties broken uniformly at
random.

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


def select_slots(scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-agent index of a maximal score, ties uniform.

    Draws one jitter value per (agent, slot) every call, so stream consumption
    is a fixed function of the shape; the jitter only ranks exactly tied slots
    and can never reorder distinct scores.

    The choice is argmax over slots of the key ``jitter`` where the slot's
    score equals the agent's top score and ``-1`` elsewhere.  It is computed
    as a tournament over the slot columns, each an (agents,) vector, because
    the slot axis is only a few entries wide and elementwise operations along
    the agent axis cost less than reductions over axis 1.  The running winner
    carries its score ``best`` and its jitter ``best_key``; column k takes
    over where its score is strictly higher, or equal with a strictly greater
    jitter.  That keeps the winner at the top score, with the greatest jitter
    among the slots tied there and the earliest slot on equal jitter, which
    is argmax's first-occurrence rule; the result is the argmax index bit for
    bit.  Scores passed as the transpose of a slot-major (slots, agents)
    array make every column a contiguous row.
    """
    jitter = rng.random(scores.shape)
    n_slots = scores.shape[1]
    if n_slots == 1:
        return np.zeros(len(scores), dtype=np.intp)
    columns, keys = scores.T, jitter.T
    best, best_key = columns[0], keys[0]
    for k in range(1, n_slots):
        column, key = columns[k], keys[k]
        take = (column > best) | ((column == best) & (key > best_key))
        if k == 1:
            slot = take.astype(np.intp)
        else:
            np.putmask(slot, take, k)
        if k + 1 < n_slots:
            best = np.where(take, column, best)
            best_key = np.where(take, key, best_key)
    return slot

