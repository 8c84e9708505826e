import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from mgmarket.scoring import select_slots, update_scores

from reference_engine import select_slots_argmax


def payoff(total_demand, decision):
    """Score change of one slot that made ``decision`` at ``total_demand``."""
    scores = np.zeros((1, 1))
    update_scores(scores, np.array([[decision]]), total_demand)
    return scores[0, 0]


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
    scores = np.zeros((len(decisions), 1))
    update_scores(scores, decisions[:, None], total)
    assert scores.sum() == -total * total < 0


def test_update_scores_identical_slots():
    scores = np.zeros((1, 2))
    update_scores(scores, np.array([[1, 1]]), 5)
    assert scores.tolist() == [[-5.0, -5.0]]


def test_update_scores_opposing_slots():
    scores = np.zeros((1, 3))
    update_scores(scores, np.array([[1, -1, 0]]), 5)
    assert scores.tolist() == [[-5.0, 5.0, 0.0]]


def test_update_scores_telescopes():
    scores = np.zeros((1, 2))
    for _ in range(40):
        update_scores(scores, np.array([[1, -1]]), 5)
    assert scores.tolist() == [[-200.0, 200.0]]


def test_select_strategy_strict_maximum(rng):
    assert select_slots(np.array([[3.0, 1.0], [1.0, 3.0]]), rng).tolist() == [0, 1]


def test_select_strategy_tie_frequencies(rng):
    picks = select_slots(np.full((10_000, 2), 2.0), rng)
    assert abs(picks.mean() - 0.5) < 0.02


def test_select_strategy_all_zero_is_uniform(rng):
    picks = select_slots(np.zeros((9000, 3)), rng)
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


def _assert_same_choice(scores, seed, transposed):
    if transposed:  # the (agents, slots) view of slot-major scores, as the engine passes
        scores = np.ascontiguousarray(scores.T).T
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = select_slots(scores, ours)
    want = select_slots_argmax(scores, theirs)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    # both consumed the same draws
    assert ours.bit_generator.state == theirs.bit_generator.state


@given(data=st.data(), shape=SHAPES, seed=st.integers(0, 2**32 - 1), transposed=st.booleans())
def test_select_slots_matches_argmax_oracle_on_integer_scores(data, shape, seed, transposed):
    # a tiny integer alphabet, as the scores of runs without events: ties
    # between slots are the common case
    scores = data.draw(hnp.arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)))
    _assert_same_choice(scores, seed, transposed)


@given(data=st.data(), shape=SHAPES, seed=st.integers(0, 2**32 - 1), transposed=st.booleans())
def test_select_slots_matches_argmax_oracle_on_event_like_scores(data, shape, seed, transposed):
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
    _assert_same_choice(scores, seed, transposed)


@given(data=st.data(), shape=SHAPES)
def test_update_scores_on_slot_major_views_matches_row_major(data, shape):
    # the engine keeps scores and gathered decisions slot-major and passes
    # their (agents, slots) transposes; the in-place update must not depend
    # on the memory order
    start = data.draw(hnp.arrays(np.float64, shape, elements=st.integers(-50, 50).map(float)))
    decisions = data.draw(hnp.arrays(np.int8, shape, elements=st.sampled_from((-1, 0, 1))))
    demand = data.draw(st.floats(-1e3, 1e3, allow_nan=False))
    row_major = start.copy()
    update_scores(row_major, decisions, demand)
    slot_major = np.ascontiguousarray(start.T).T
    update_scores(slot_major, np.ascontiguousarray(decisions.T).T, demand)
    assert slot_major.flags.f_contiguous
    assert slot_major.tobytes() == row_major.tobytes()
