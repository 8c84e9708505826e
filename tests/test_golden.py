"""Golden digests of whole runs: the bit-exactness gate for engine rewrites.

Each case pins the sha256 of both stocks' internal-demand and return series
(warm-up included) of one run of a small config.  A change that moves any
simulated bit fails here; such a change is a model change, and its digests
are re-recorded only together with a statement of why the output moved.
"""

import hashlib

import pytest

from mgmarket import EventModel, UniformCoupling, run

from conftest import small_config

CASES = {
    "paper_defaults": dict(n_agents=101, horizon=200),
    "allow_hold": dict(n_agents=101, horizon=200, allow_hold=True),
    "uniform_couplings": dict(
        n_agents=101, horizon=200, coupling=UniformCoupling(0.2, 0.8, -0.3, 0.5)
    ),
    "events": dict(n_agents=101, horizon=200, events=EventModel(probability=0.05, strength=2.0)),
    "m3_s3": dict(n_agents=101, horizon=200, memory=3, n_strategies=3),
    "asymmetric_a": dict(n_agents=101, horizon=200, a=(1.0, 0.3)),
    "single_slot": dict(n_agents=101, horizon=200, n_strategies=1),
}

GOLDEN = {
    "paper_defaults": "c1dfe2873afda3f2b40c5d352f5bf9cd1e7ceffe790dca41ccc30a95bfba1a6b",
    "allow_hold": "52dd6d8eb500d3195c6ed6c4fcbf25131802d9dc5fbf1d2119e3b28ff0d5430e",
    "uniform_couplings": "3cd160f54c0a2c31cc63014fd81053b367203915cf8e55540caa7515ed23e4b8",
    "events": "eab7d7118a2736f24bd4f61e3746a93960557bd2ae6e483eecf2789172666087",
    "m3_s3": "2ea3a0a628aabe1c7ebd9a6280a25d9eedc10e13ce10197b36e60decb1b2aadd",
    "asymmetric_a": "07abf85613ae4d1d197ffbcde5bcba0366863d1403989eaed069ebe2db87446b",
    "single_slot": "219e81d63bf98fc2764f128c19ec99cdc7d0c72128456f99b35d995b1e89d7f9",
}


def run_digest(config, run_index: int = 0) -> str:
    digest = hashlib.sha256()
    for series in run(config, run_index).market.stocks:
        digest.update(series.internal_demand.tobytes())
        digest.update(series.returns.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert run_digest(small_config(**CASES[name])) == GOLDEN[name]
