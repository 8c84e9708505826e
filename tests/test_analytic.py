import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mgmarket import ConfigError, analytic
from mgmarket.analytic import (
    CASE_TABLE,
    QUADRANTS,
    REGIME_SIGNS,
    brute_force_feasibility,
    classify,
    verify_appendix,
)


def test_classify_known_infeasible_case():
    verdict = classify("I", (1, -1), (-1, 1))
    assert not verdict.feasible
    assert verdict.variable is None


@pytest.mark.parametrize(
    "regime,input_quadrant,output_quadrant,message",
    [("V", (1, 1), (1, 1), "unknown regime 'V'"),
     ("I", (1, 0), (1, 1), "quadrants must be pairs of +1/-1"),
     ("I", (1, 1), (1, 1, 1), "quadrants must be pairs of +1/-1")],
    ids=["unknown-regime", "zero-sign", "triple"],
)
def test_classify_refuses_unknown_regime_and_quadrant(regime, input_quadrant, output_quadrant,
                                                      message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify(regime, input_quadrant, output_quadrant)


def test_classify_bounded_case_with_both_limits():
    verdict = classify("I", (1, -1), (1, -1))
    assert verdict.feasible
    assert verdict.variable == "dr1"
    assert verdict.lower == "-b1*dr2"
    assert verdict.upper == "-dr2/b2"
    assert verdict.direction == "decreasing"
    assert verdict.trend == "both"


def test_classify_opposite_regime_deterministic():
    verdict = classify("II", (1, -1), (1, -1))
    assert verdict.feasible and verdict.variable is None and verdict.trend is None
    for out in QUADRANTS:
        if out != (1, -1):
            assert not classify("II", (1, -1), out).feasible


def test_classify_mixed_regime_example():
    verdict = classify("III", (1, 1), (1, 1))
    assert verdict.feasible
    assert verdict.variable == "dr2"
    assert verdict.lower == "-b2*dr1"
    assert verdict.trend == "b2"
    assert verdict.direction == "decreasing"


def test_every_input_has_at_least_one_feasible_output():
    for regime, input_q in itertools.product(REGIME_SIGNS, QUADRANTS):
        assert any(classify(regime, input_q, q).feasible for q in QUADRANTS), (regime, input_q)
    # the table lists exactly the reachable cells: 28 bounded and 4 certain
    assert all(v.feasible for v in CASE_TABLE.values())
    assert sum(v.variable is not None for v in CASE_TABLE.values()) == 28
    assert len(CASE_TABLE) == 32


def test_deterministic_cases_have_single_feasible_output():
    for regime, input_q in (("I", (1, 1)), ("I", (-1, -1)), ("II", (1, -1)), ("II", (-1, 1))):
        feasible = [q for q in QUADRANTS if classify(regime, input_q, q).feasible]
        assert len(feasible) == 1


def test_case_iv_mirrors_case_iii_under_stock_relabeling(rng):
    # swap stock labels: couplings swap, quadrant components swap; verdicts
    # must agree in feasibility and trend, and conditions must agree pointwise
    for input_q in QUADRANTS:
        for output_q in QUADRANTS:
            iii = classify("III", input_q, output_q)
            iv = classify("IV", (input_q[1], input_q[0]), (output_q[1], output_q[0]))
            assert iii.feasible == iv.feasible
            if iii.trend is not None:
                swap = {"b1": "b2", "b2": "b1", "both": "both"}
                assert iv.trend == swap[iii.trend]
                assert iv.direction == iii.direction
            if iii.feasible and iii.variable is not None:
                b3 = (0.6, -0.4)
                b4 = (-0.4, 0.6)
                dx = rng.uniform(0.01, 1.0, 300) * input_q[0]
                dy = rng.uniform(0.01, 1.0, 300) * input_q[1]
                mask3 = iii.holds(b3, dx, dy)
                mask4 = iv.holds(b4, dy, dx)
                assert np.array_equal(mask3, mask4)


def test_brute_force_infeasible_case_has_zero_frequency(rng):
    freqs = brute_force_feasibility("I", (0.5, 0.5), (1, -1), 1_000_00, rng)
    assert freqs[(-1, 1)] == 0.0
    assert sum(freqs.values()) == pytest.approx(1.0)


def test_brute_force_certain_case(rng):
    for b in ((0.9, 0.9), (0.1, 0.1)):
        freqs = brute_force_feasibility("I", b, (1, 1), 50_000, rng)
        assert freqs[(1, 1)] == 1.0


def test_brute_force_probability_matches_closed_form(rng):
    # regime I, input (+,-): P(output (+,+)) = b2/2, P((-,-)) = b1/2
    b = (0.4, 0.6)
    freqs = brute_force_feasibility("I", b, (1, -1), 400_000, rng)
    assert freqs[(1, 1)] == pytest.approx(b[1] / 2, abs=0.005)
    assert freqs[(-1, -1)] == pytest.approx(b[0] / 2, abs=0.005)
    assert freqs[(1, -1)] == pytest.approx(1 - (b[0] + b[1]) / 2, abs=0.005)


def test_brute_force_trend_weakens_toward_limit(rng):
    strong = brute_force_feasibility("III", (0.5, -0.9), (1, 1), 200_000, rng)
    weak = brute_force_feasibility("III", (0.5, -0.5), (1, 1), 200_000, rng)
    assert strong[(1, 1)] < weak[(1, 1)]


def test_brute_force_rejects_out_of_regime_b():
    with pytest.raises(ValueError):
        brute_force_feasibility("I", (0.5, -0.5), (1, 1), 10, np.random.default_rng(0))


def test_verify_appendix_small_sample_smoke():
    report = verify_appendix(n_samples=30_000, master_seed=5)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert len(report.checks) == 64
    trend_checks = [c for c in report.checks if c.trend_ok is not None]
    assert len(trend_checks) == 28


def test_verify_appendix_reports_each_wrong_verdict(monkeypatch):
    # a reachable cell called unreachable, a condition with its bounds swapped
    # and a trend in the reversed direction; each must fail on its own flag
    unreachable, swapped, reversed_trend = (
        ("I", (1, 1), (1, 1)), ("I", (1, -1), (1, -1)), ("III", (1, 1), (1, 1))
    )
    bounded, trending = CASE_TABLE[swapped], CASE_TABLE[reversed_trend]
    wrong = {
        unreachable: analytic.FeasibilityVerdict(False),
        swapped: replace(bounded, lower=bounded.upper, upper=bounded.lower),
        reversed_trend: replace(trending, direction="increasing"),
    }
    monkeypatch.setattr(analytic, "CASE_TABLE", {**CASE_TABLE, **wrong})
    report = verify_appendix(n_samples=30_000, master_seed=5)
    failed = {(c.regime, c.input_quadrant, c.output_quadrant): c for c in report.failures}
    assert {key: (c.feasibility_ok, c.condition_ok, c.trend_ok) for key, c in failed.items()} == {
        unreachable: (False, None, None),
        swapped: (True, False, True),
        reversed_trend: (True, True, False),
    }
    assert all(c.detail for c in failed.values())


def _sample_out_of_place(b, input_quadrant, n_samples, rng):
    """Reference for ``analytic._sample``: a new array for every step."""
    sx, sy = input_quadrant
    mags = 1.0 - rng.random((2, n_samples))
    dx = sx * mags[0]
    dy = sy * mags[1]
    up = dx + b[0] * dy >= 0
    vp = dy + b[1] * dx >= 0
    return dx, dy, {q: (up == (q[0] > 0)) & (vp == (q[1] > 0)) for q in QUADRANTS}


_BOUNDS_NEGATING_THE_SAMPLE = {
    "-b1*dr2": lambda b, x, y: -b[0] * y,
    "-dr2/b2": lambda b, x, y: -y / b[1],
    "-b2*dr1": lambda b, x, y: -b[1] * x,
    "-dr1/b1": lambda b, x, y: -x / b[0],
}


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_sample_and_holds_match_out_of_place_formulas(seed):
    for regime, input_q in itertools.product(REGIME_SIGNS, QUADRANTS):
        for b in analytic._points(regime, [(0.1, 0.9), (0.5, 0.5), (0.9, 0.3), (1.0, 1.0)]):
            dx, dy, masks = analytic._sample(b, input_q, 4000, np.random.default_rng(seed))
            want_dx, want_dy, want_masks = _sample_out_of_place(
                b, input_q, 4000, np.random.default_rng(seed)
            )
            assert dx.tobytes() == want_dx.tobytes() and dy.tobytes() == want_dy.tobytes()
            for q in QUADRANTS:
                assert np.array_equal(masks[q], want_masks[q])
                verdict = classify(regime, input_q, q)
                for name in filter(None, (verdict.lower, verdict.upper)):
                    got = analytic._BOUNDS[name](b, dx, dy)
                    assert got.tobytes() == _BOUNDS_NEGATING_THE_SAMPLE[name](b, dx, dy).tobytes()


def _no_sample(*_args):
    raise AssertionError("sampled")


def test_verify_appendix_refuses_samples_past_the_budget_before_sampling(monkeypatch):
    # 32 bytes per sample at the peak, so 33,554,432 samples fill 1 GiB exactly
    monkeypatch.setattr(analytic, "_sample", _no_sample)
    message = "^33554433 samples need 1073741856 bytes, over the 1073741824-byte limit$"
    with pytest.raises(ConfigError, match=message):
        verify_appendix(n_samples=33_554_433)
    with pytest.raises(AssertionError, match="sampled"):  # accepted: it goes on to sample
        verify_appendix(n_samples=33_554_432)


@pytest.mark.parametrize("n", [0, -3], ids=["zero", "negative"])
def test_verify_appendix_refuses_a_sample_count_below_one_before_sampling(monkeypatch, n):
    monkeypatch.setattr(analytic, "_sample", _no_sample)
    with pytest.raises(ConfigError, match=f"^n_samples must be positive, got {n}$"):
        verify_appendix(n_samples=n)


@pytest.mark.parametrize("n", [0, -3], ids=["zero", "negative"])
def test_brute_force_refuses_a_sample_count_below_one_before_sampling(monkeypatch, n):
    monkeypatch.setattr(analytic, "_sample", _no_sample)
    with pytest.raises(ConfigError, match=f"^n_samples must be positive, got {n}$"):
        brute_force_feasibility("I", (0.5, 0.5), (1, 1), n, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two-to-the-64"])
def test_verify_appendix_refuses_a_seed_outside_64_bits_before_sampling(monkeypatch, seed):
    monkeypatch.setattr(analytic, "_sample", _no_sample)
    with pytest.raises(ConfigError, match=re.escape(f"must lie in [0, 2^64), got {seed}")):
        verify_appendix(n_samples=10, master_seed=seed)
    with pytest.raises(AssertionError, match="sampled"):
        verify_appendix(n_samples=10, master_seed=2**64 - 1)


def test_verify_appendix_peak_stays_within_its_bytes_per_sample():
    # the refusal's rule bounds the real peak: 32 bytes per sample, plus under
    # 1 MiB that does not grow with the sample count
    n = 200_000
    tracemalloc.start()
    try:
        verify_appendix(n_samples=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * n + (1 << 20)
