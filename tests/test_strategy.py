import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from mgmarket import strategy

from reference_engine import decide_all_slots_take


def test_sample_strategy_shape(rng):
    tables = strategy.sample_strategy_tables(rng, 5, 3, memory=1, decision_set=(-1, 1))
    assert tables.shape == (5, 3, 4)
    assert tables.dtype == np.int8
    assert set(np.unique(tables)) <= {-1, 1}


def test_sample_strategy_binary_frequencies(rng):
    # Monte Carlo oracle: each symbol should appear with frequency 1/2
    draws = strategy.sample_strategy_tables(rng, 2500, 2, 1, (-1, 1))
    freq = np.mean(draws == 1)
    assert abs(freq - 0.5) < 0.01


def test_sample_strategy_hold_frequencies(rng):
    draws = strategy.sample_strategy_tables(rng, 2500, 2, 1, (-1, 0, 1))
    for symbol in (-1, 0, 1):
        assert abs(np.mean(draws == symbol) - 1 / 3) < 0.01


def test_decide_all_slots_gathers_per_agent_states():
    tables = np.array(
        [
            [[-1, -1, 1, 1], [1, 1, -1, -1]],
            [[1, -1, 1, -1], [-1, 1, -1, 1]],
        ],
        dtype=np.int8,
    )
    out = strategy.decide_all_slots(tables, np.array([3, 0]))
    assert out.tolist() == [[1, -1], [1, -1]]


@given(
    data=st.data(),
    n=st.integers(1, 64),
    s=st.integers(1, 4),
    memory=st.integers(0, 4),
    strided=st.booleans(),
)
def test_decide_all_slots_matches_take_along_axis_oracle(data, n, s, memory, strided):
    rows = strategy.n_states(memory)
    shape = (n, 2 * s, rows) if strided else (n, s, rows)
    tables = data.draw(hnp.arrays(np.int8, shape, elements=st.sampled_from((-1, 0, 1))))
    if strided:  # a non-contiguous view, as hand-built tables may be
        tables = tables[:, ::2]
    state_index = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, rows - 1)))
    got = strategy.decide_all_slots(tables, state_index)
    want = decide_all_slots_take(tables, state_index)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.T.flags.c_contiguous  # slot-major underneath, as the engine reads it


def test_decide_all_slots_shares_read_only_offsets():
    offsets = strategy._row_offsets(3, 2, 4)
    assert offsets is strategy._row_offsets(3, 2, 4)
    with pytest.raises(ValueError):
        offsets[0, 0] = 1

