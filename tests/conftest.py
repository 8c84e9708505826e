import concurrent.futures

import numpy as np
import pytest

from mgmarket import HomogeneousCoupling, ModelConfig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pool_workers(monkeypatch):
    """The ``max_workers`` of every process pool built, in order; each pool
    maps in this process, so no worker process starts."""
    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return built


def small_config(**overrides) -> ModelConfig:
    """Desk-scale configuration for fast engine tests."""
    base = dict(
        n_agents=51,
        memory=1,
        n_strategies=2,
        horizon=120,
        initial_price=2000.0,
        a=(1.0, 1.0),
        coupling=HomogeneousCoupling(0.5, 0.5),
        n_runs=3,
        master_seed=321,
    )
    base.update(overrides)
    return ModelConfig(**base)
