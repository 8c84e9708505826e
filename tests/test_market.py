import io
import math
import pickle

import numpy as np
import pytest

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
    assert all(external_demand(0.0, 400.0, rng) == 0.0 for _ in range(200))


def test_external_demand_sign_frequencies(rng):
    draws = np.array([external_demand(1.0, 20.0, rng) for _ in range(10_000)])
    assert set(np.unique(draws)) == {-20.0, 20.0}
    assert abs(np.mean(draws > 0) - 0.5) < 0.02


def test_external_demand_event_frequency(rng):
    draws = np.array([external_demand(0.0082, 10.0, rng) for _ in range(100_000)])
    assert abs(np.mean(draws != 0.0) - 0.0082) < 0.002


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
