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

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def payoff(total_demand: float, decision: int) -> float:
    """Minority payoff, linear in the demand imbalance: -demand * decision."""
    return -total_demand * decision


@dataclass
class AgentScores:
    """Cumulative scores, one per (stock, agent, slot)."""

    values: np.ndarray

    @classmethod
    def zeros(cls, n_agents: int, n_strategies: int) -> "AgentScores":
        return cls(np.zeros((2, n_agents, n_strategies)))

    def for_stock(self, stock_index: int) -> np.ndarray:
        return self.values[stock_index]


def update_scores(scores: np.ndarray, slot_decisions: np.ndarray, total_demand: float) -> None:
    """Add one step's payoff for every slot of one stock, in place.

    ``slot_decisions`` is (agents, slots): each slot's hypothetical decision
    at the current state.  The played slot gets no special treatment.
    """
    if total_demand:
        scores -= float(total_demand) * slot_decisions


def update_all_scores(
    scores: AgentScores,
    slot_decisions: Sequence[np.ndarray],
    demands: Sequence[float],
) -> AgentScores:
    """Apply one step's payoffs for both stocks."""
    for j in (0, 1):
        update_scores(scores.values[j], slot_decisions[j], demands[j])
    return scores


def select_slots(scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-agent index of a maximal score, ties uniform.

    Draws one jitter value per (agent, slot) every call, so stream consumption
    is a fixed function of the shape; the jitter only ranks exactly tied slots
    and can never reorder distinct scores.

    The choice is argmax over slots of the key ``jitter`` where the slot's
    score equals the agent's top score and ``-1`` elsewhere.  It is computed
    column by column, because the slot axis is only a few entries wide and
    per-column elementwise operations on (agents,) vectors cost less than
    reductions over axis 1: the top is a running ``np.maximum`` of the
    columns, and the running best key is replaced only by a strictly greater
    key.  Jitter lies in [0, 1), so a tied slot always beats an untied one,
    and on equal keys the earlier slot stays, which is argmax's
    first-occurrence rule; the result is the argmax index bit for bit.
    """
    jitter = rng.random(scores.shape)
    columns = scores.T
    top = columns[0]
    for column in columns[1:]:
        top = np.maximum(top, column)
    slot = np.zeros(len(scores), dtype=np.intp)
    best = np.where(columns[0] == top, jitter[:, 0], -1.0)
    for k in range(1, len(columns)):
        key = np.where(columns[k] == top, jitter[:, k], -1.0)
        better = key > best
        np.putmask(slot, better, k)
        np.maximum(best, key, out=best)
    return slot


def select_strategy(scores_row: Sequence[float], rng: np.random.Generator) -> int:
    """Single-agent form of :func:`select_slots`."""
    row = np.asarray(scores_row, dtype=float)
    return int(select_slots(row[None, :], rng)[0])
