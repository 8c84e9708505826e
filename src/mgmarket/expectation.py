"""Per-agent expected returns and coupling-coefficient sampling.

An agent's expected return for a stock is a linear mix of that stock's own
lagged return (weight ``a``) and the other stock's lagged return (the agent's
personal coupling weight ``b``).  The coupling weights are either shared by
all agents or drawn per agent from a uniform distribution.
"""

from __future__ import annotations

import numpy as np

from .config import Coupling, HomogeneousCoupling, UniformCoupling


def sample_couplings(
    coupling: Coupling, n_agents: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Realize the coupling spec for a population of agents: the per-agent
    cross-stock weights (b1, b2), one array per stock.

    Homogeneous specs consume no randomness; uniform specs draw b1 for all
    agents, then b2, i.i.d. and independent across stocks.
    """
    if isinstance(coupling, HomogeneousCoupling):
        return np.full(n_agents, float(coupling.b1)), np.full(n_agents, float(coupling.b2))
    if isinstance(coupling, UniformCoupling):
        b1 = rng.uniform(coupling.c1 - coupling.delta1, coupling.c1 + coupling.delta1, n_agents)
        b2 = rng.uniform(coupling.c2 - coupling.delta2, coupling.c2 + coupling.delta2, n_agents)
        return b1, b2
    raise TypeError(f"unsupported coupling spec {coupling!r}")

