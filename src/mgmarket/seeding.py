"""Deterministic RNG stream derivation.

Every source of randomness in a run is drawn from its own named stream so
that runs replay bit-exactly from the master seed and parallel execution
order never matters.  A stream is identified by ``(master_seed, run_index,
label)``; labels are plain strings such as ``"strategies:1"`` (per-stock
streams carry the stock number).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

# Stream purposes used by the simulation engine.
STRATEGIES = "strategies"
COUPLINGS = "couplings"
WARMUP = "warmup"
TIEBREAK = "tiebreak"
EVENTS = "events"


def stock_label(purpose: str, stock: int) -> str:
    """Label for a per-stock stream, ``stock`` being 1 or 2."""
    return f"{purpose}:{stock}"


def _label_words(label: str) -> tuple[int, ...]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def derive_seed(master_seed: int, run_index: int, stream_label: str) -> int:
    """Derive the 64-bit seed of one named stream of one run.

    Pure function of its arguments; distinct ``(run_index, stream_label)``
    pairs yield independent streams for a fixed master seed.
    """
    if run_index < 0:
        raise ValueError("run_index must be non-negative")
    entropy = (master_seed, run_index, *_label_words(stream_label))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def stream(master_seed: int, run_index: int, stream_label: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, run_index, stream_label))


def _float_bits(x: float) -> int:
    # +0.0 collapses -0.0 so equal coordinates always map to equal seeds.
    return int(np.float64(float(x) + 0.0).view(np.uint64))


def fold_seed(master_seed: int, tag: str, values: Iterable[float]) -> int:
    """Fold a master seed with a tag and float parameters into a new seed.

    Used by parameter sweeps: a grid cell's seed depends only on the cell's
    parameter values, never on execution order, so permuting or re-slicing a
    grid leaves every cell's result bit-identical.
    """
    entropy = (master_seed, *_label_words(tag), *(_float_bits(v) for v in values))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
