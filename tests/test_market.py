import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgmarket import NonPositivePriceError
from mgmarket.market import (
    excess_demand,
    external_demand,
    log_return,
    update_price,
)


def test_excess_demand_unanimous():
    assert excess_demand(np.ones(1001, dtype=np.int8)) == 1001


def test_excess_demand_minimal_majority():
    decisions = np.array([1] * 501 + [-1] * 500)
    assert excess_demand(decisions) == 1


def test_excess_demand_of_agent_types_counts_each_type_member():
    decisions = np.array([1, -1, 0, 1], dtype=np.int8)
    counts = np.array([300, 2, 7, 1])
    demand = excess_demand(decisions, counts)
    assert type(demand) is int
    assert demand == excess_demand(np.repeat(decisions, counts)) == 299


def test_excess_demand_balanced_with_holds():
    decisions = np.array([1] * 300 + [-1] * 300 + [0] * 401)
    assert excess_demand(decisions) == 0


def test_update_price_examples():
    assert update_price(2000.0, 9) == pytest.approx(2003.0)
    assert update_price(2000.0, -4) == pytest.approx(1998.0)
    assert update_price(2000.0, 0) == 2000.0


def test_update_price_rejects_nonpositive_result():
    with pytest.raises(NonPositivePriceError):
        update_price(2.0, -9)


def test_nonpositive_price_error_survives_pickling():
    err = NonPositivePriceError(-8.19, stock=2, step=460)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is NonPositivePriceError
    assert str(back) == str(err) == "price update produced non-positive price -8.19 (stock 2, step 460)"
    assert (back.price, back.stock, back.step) == (-8.19, 2, 460)


def test_log_return_examples():
    assert log_return(2003.0, 2000.0) == pytest.approx(0.0014989, abs=1e-7)
    assert log_return(2000.0, 2000.0) == 0.0
    assert log_return(1998.0, 2000.0) == pytest.approx(-0.0010005, abs=1e-7)
    assert log_return(2003.0, 2000.0) == math.log(2003.0) - math.log(2000.0)


def test_external_demand_never_fires_at_p0(rng):
    assert external_demand(0.0, 400.0, rng, 200) == [0.0] * 200


def test_external_demand_sign_frequencies(rng):
    draws = np.array(external_demand(1.0, 20.0, rng, 10_000))
    assert set(np.unique(draws)) == {-20.0, 20.0}
    assert abs(np.mean(draws > 0) - 0.5) < 0.02


def test_external_demand_event_frequency(rng):
    draws = np.array(external_demand(0.0082, 10.0, rng, 100_000))
    assert abs(np.mean(draws != 0.0) - 0.0082) < 0.002


def _per_step_shocks(probability, amplitude, rng, steps):
    """The shocks as drawn one step at a time: occurrence, then sign."""
    shocks = []
    for _ in range(steps):
        fired = rng.random() < probability
        minus = rng.integers(0, 2) == 1
        shocks.append((-amplitude if minus else amplitude) if fired else 0.0)
    return shocks


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), steps=st.integers(1, 2001),
       probability=st.sampled_from([0.0, 0.0082, 0.5, 1.0]),
       amplitude=st.floats(allow_nan=False))
def test_external_demand_reads_the_per_step_draws_in_one_call(seed, steps, probability, amplitude):
    bulk = external_demand(probability, amplitude, np.random.default_rng(seed), steps)
    per_step = _per_step_shocks(probability, amplitude, np.random.default_rng(seed), steps)
    # equal values with equal signs, so a shock of -0.0 is not taken for 0.0
    assert [(v, math.copysign(1.0, v)) for v in bulk] == [(v, math.copysign(1.0, v)) for v in per_step]


@pytest.mark.parametrize("steps", [1, 2, 3, 1000, 1001])
def test_external_demand_leaves_the_stream_where_per_step_draws_leave_it(steps):
    bulk, per_step = np.random.default_rng(99), np.random.default_rng(99)
    external_demand(0.0082, 10.0, bulk, steps)
    _per_step_shocks(0.0082, 10.0, per_step, steps)
    assert bulk.bit_generator.state["state"] == per_step.bit_generator.state["state"]


def test_external_demand_refuses_another_bit_generator():
    with pytest.raises(ValueError, match="PCG64"):
        external_demand(0.5, 1.0, np.random.Generator(np.random.Philox(7)), 10)


def test_external_demand_refuses_a_buffered_half_word(rng):
    rng.integers(0, 2)
    with pytest.raises(ValueError, match="buffered half-word"):
        external_demand(0.5, 1.0, rng, 10)


def test_trajectory_csv_shape(rng):
    from mgmarket import ModelConfig, HomogeneousCoupling, run
    from mgmarket.market import TRAJECTORY_COLUMNS, write_trajectory

    cfg = ModelConfig(n_agents=21, horizon=30, coupling=HomogeneousCoupling(0.2, 0.2),
                      n_runs=1, master_seed=5)
    result = run(cfg, 0)
    buf = io.StringIO()
    write_trajectory(result.market, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 31
    first = lines[1].split(",")
    assert first[0] == "1"
    # demand column stays integer-formatted when no events are configured
    assert "." not in first[3]
