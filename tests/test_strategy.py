import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from mgmarket import strategy
from mgmarket.strategy import InfoState, Strategy, encode

from reference_engine import decide_all_slots_take


def test_encode_all_ones_m1():
    assert encode([strategy.PLUS], strategy.PLUS) == 3


def test_encode_all_zeros_m1():
    assert encode([strategy.MINUS], strategy.MINUS) == 0


def test_encode_m2_example():
    # oldest history bit highest, expectation lowest: (+,-) then + -> 0b101
    assert encode([strategy.PLUS, strategy.MINUS], strategy.PLUS) == 5


@pytest.mark.parametrize("memory", [1, 2, 3, 4])
def test_encode_is_bijective(memory):
    seen = set()
    for bits in itertools.product((0, 1), repeat=memory + 1):
        seen.add(encode(bits[:-1], bits[-1]))
    assert seen == set(range(2 ** (memory + 1)))


def test_encode_checks_history_length():
    with pytest.raises(ValueError):
        encode([1, 0], 1, memory=3)


def test_sign_bit_zero_is_plus():
    assert strategy.sign_bit(0.0) == strategy.PLUS
    assert strategy.sign_bit(-0.0) == strategy.PLUS
    assert strategy.sign_bit(-1e-300) == strategy.MINUS


def test_info_state_index():
    state = InfoState(history=(1, 0), expectation=1)
    assert state.index == 5


def test_sample_strategy_shape(rng):
    strat = strategy.sample_strategy(rng, memory=1, decision_set=(-1, 1))
    assert strat.table.shape == (4,)
    assert set(np.unique(strat.table)) <= {-1, 1}
    assert strat.memory == 1


def test_sample_strategy_binary_frequencies(rng):
    # Monte Carlo oracle: each symbol should appear with frequency 1/2
    draws = strategy.sample_strategy_tables(rng, 2500, 2, 1, (-1, 1))
    freq = np.mean(draws == 1)
    assert abs(freq - 0.5) < 0.01


def test_sample_strategy_hold_frequencies(rng):
    draws = strategy.sample_strategy_tables(rng, 2500, 2, 1, (-1, 0, 1))
    for symbol in (-1, 0, 1):
        assert abs(np.mean(draws == symbol) - 1 / 3) < 0.01


def test_lookup_identity_table():
    strat = Strategy(np.array([-1, -1, 1, 1], dtype=np.int8))
    assert strategy.lookup(strat, 3) == 1
    assert strategy.lookup(strat, 0) == -1


def test_lookup_accepts_info_state():
    strat = Strategy(np.array([-1, 1, 1, -1], dtype=np.int8))
    state = InfoState(history=(strategy.PLUS,), expectation=strategy.MINUS)
    assert strategy.lookup(strat, state) == strat.table[2]


@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_lookup_is_pure(index, seed):
    table = np.array([-1, 1, -1, 1], dtype=np.int8)
    strat = Strategy(table)
    assert strategy.lookup(strat, index) == strategy.lookup(strat, index)


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


def test_decide_all_slots_shares_read_only_offsets():
    offsets = strategy._row_offsets(3, 2, 4)
    assert offsets is strategy._row_offsets(3, 2, 4)
    with pytest.raises(ValueError):
        offsets[0, 0] = 1


def test_strategy_rejects_bad_table_length():
    with pytest.raises(ValueError):
        Strategy(np.array([1, -1, 1], dtype=np.int8))
