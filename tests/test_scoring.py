import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from mgmarket.scoring import (
    AgentScores,
    payoff,
    select_slots,
    select_strategy,
    update_all_scores,
    update_scores,
)

from reference_engine import select_slots_argmax


def test_payoff_majority_penalized():
    assert payoff(7, 1) == -7


def test_payoff_minority_rewarded():
    assert payoff(7, -1) == 7


def test_payoff_holding_earns_nothing():
    assert payoff(-3, 0) == 0


def test_payoff_scales_with_imbalance():
    assert payoff(1, 1) == -1
    assert payoff(100, 1) == -100


def test_played_sum_is_negative():
    # minority structure: total payoff of the played decisions is -A^2 < 0
    decisions = np.array([1] * 7 + [-1] * 4)
    total = int(decisions.sum())
    assert sum(payoff(total, d) for d in decisions) == -total * total < 0


def test_update_scores_identical_slots():
    scores = np.zeros((1, 2))
    update_scores(scores, np.array([[1, 1]]), 5)
    assert scores.tolist() == [[-5.0, -5.0]]


def test_update_scores_opposing_slots():
    scores = np.zeros((1, 2))
    update_scores(scores, np.array([[1, -1]]), 5)
    assert scores.tolist() == [[-5.0, 5.0]]


def test_update_scores_telescopes():
    scores = np.zeros((1, 2))
    for _ in range(40):
        update_scores(scores, np.array([[1, -1]]), 5)
    assert scores.tolist() == [[-200.0, 200.0]]


def test_update_all_scores_covers_both_stocks():
    scores = AgentScores.zeros(2, 2)
    slot_decisions = (np.array([[1, -1], [1, 1]]), np.array([[-1, -1], [0, 1]]))
    update_all_scores(scores, slot_decisions, (3, -2))
    assert scores.values[0].tolist() == [[-3.0, 3.0], [-3.0, -3.0]]
    assert scores.values[1].tolist() == [[-2.0, -2.0], [0.0, 2.0]]


def test_select_strategy_strict_maximum(rng):
    assert select_strategy([3.0, 1.0], rng) == 0
    assert select_strategy([1.0, 3.0], rng) == 1


def test_select_strategy_tie_frequencies(rng):
    picks = np.array([select_strategy([2.0, 2.0], rng) for _ in range(10_000)])
    assert abs(picks.mean() - 0.5) < 0.02


def test_select_strategy_all_zero_is_uniform(rng):
    picks = np.array([select_strategy([0.0, 0.0, 0.0], rng) for _ in range(9000)])
    for slot in (0, 1, 2):
        assert abs(np.mean(picks == slot) - 1 / 3) < 0.02


@given(shift=st.floats(-1e6, 1e6, allow_nan=False), seed=st.integers(0, 2**31 - 1))
def test_selection_invariant_under_score_shift(shift, seed):
    scores = np.array([[1.0, 4.0, -2.0], [0.0, 0.0, -1.0]])
    a = select_slots(scores, np.random.default_rng(seed))
    b = select_slots(scores + shift, np.random.default_rng(seed))
    assert a.tolist() == b.tolist()


def test_select_slots_never_reorders_distinct_scores(rng):
    scores = np.array([[0.0, 1e-12]])
    for _ in range(50):
        assert select_slots(scores, rng)[0] == 1


SHAPES = st.tuples(st.integers(1, 64), st.integers(1, 4))


def _assert_same_choice(scores, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = select_slots(scores, ours)
    want = select_slots_argmax(scores, theirs)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    # both consumed the same draws
    assert ours.bit_generator.state == theirs.bit_generator.state


@given(data=st.data(), shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_select_slots_matches_argmax_oracle_on_integer_scores(data, shape, seed):
    # a tiny integer alphabet, as the scores of runs without events: ties
    # between slots are the common case
    scores = data.draw(hnp.arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)))
    _assert_same_choice(scores, seed)


@given(data=st.data(), shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_select_slots_matches_argmax_oracle_on_event_like_scores(data, shape, seed):
    # scores accumulated as update_scores does from float demands (integer
    # internal demand plus or minus a shock amplitude); slots that made the
    # same decisions tie exactly, others differ in the last bits or more
    amplitude = data.draw(st.floats(0.1, 50.0))
    demands = data.draw(
        st.lists(
            st.tuples(st.integers(-9, 9), st.sampled_from((-1, 0, 1))).map(
                lambda d: d[0] + d[1] * amplitude
            ),
            max_size=6,
        )
    )
    scores = np.zeros(shape)
    for demand in demands:
        decisions = data.draw(hnp.arrays(np.int8, shape, elements=st.sampled_from((-1, 1))))
        update_scores(scores, decisions, demand)
    _assert_same_choice(scores, seed)
