import numpy as np
import pytest

from mgmarket import analytic
from mgmarket.analytic import (
    CASE_TABLE,
    QUADRANTS,
    brute_force_feasibility,
    classify,
    expectation_delta,
    predict_correlation_sign,
    verify_appendix,
)


def test_expectation_delta_examples():
    assert expectation_delta((1, 1), (0.5, 0.5), (0.1, 0.1)) == pytest.approx((0.15, 0.15))
    assert expectation_delta((1, 1), (1, 1), (0.1, -0.1)) == pytest.approx((0.0, 0.0))
    assert expectation_delta((1, 1), (0, 0), (0.03, -0.07)) == pytest.approx((0.03, -0.07))
    assert expectation_delta((0.5, 0.1), (0.2, -0.3), (0.1, 0.2)) == pytest.approx(
        (0.5 * 0.1 + 0.2 * 0.2, 0.1 * 0.2 - 0.3 * 0.1)
    )


def test_classify_known_infeasible_case():
    verdict = classify("I", (1, -1), (-1, 1))
    assert not verdict.feasible
    assert verdict.condition is None


def test_classify_bounded_case_with_both_limits():
    verdict = classify("I", (1, -1), (1, -1))
    assert verdict.feasible
    assert verdict.condition.variable == "dr1"
    assert verdict.condition.lower == "-b1*dr2"
    assert verdict.condition.upper == "-dr2/b2"
    assert verdict.probability_trend.direction == "decreasing"
    assert verdict.probability_trend.parameter == "both"


def test_classify_opposite_regime_deterministic():
    verdict = classify("II", (1, -1), (1, -1))
    assert verdict.feasible and verdict.condition is None and verdict.probability_trend is None
    for out in QUADRANTS:
        if out != (1, -1):
            assert not classify("II", (1, -1), out).feasible


def test_classify_mixed_regime_example():
    verdict = classify("III", (1, 1), (1, 1))
    assert verdict.feasible
    assert verdict.condition.variable == "dr2"
    assert verdict.condition.lower == "-b2*dr1"
    assert verdict.probability_trend.parameter == "b2"
    assert verdict.probability_trend.direction == "decreasing"


def test_every_input_has_at_least_one_feasible_output():
    for (regime, input_q), block in CASE_TABLE.items():
        assert any(v.feasible for v in block.values()), (regime, input_q)


def test_deterministic_cases_have_single_feasible_output():
    for regime, input_q in (("I", (1, 1)), ("I", (-1, -1)), ("II", (1, -1)), ("II", (-1, 1))):
        block = CASE_TABLE[(regime, input_q)]
        feasible = [q for q, v in block.items() if v.feasible]
        assert len(feasible) == 1


def test_case_iv_mirrors_case_iii_under_stock_relabeling(rng):
    # swap stock labels: couplings swap, quadrant components swap; verdicts
    # must agree in feasibility and trend, and conditions must agree pointwise
    for input_q in QUADRANTS:
        for output_q in QUADRANTS:
            iii = classify("III", input_q, output_q)
            iv = classify("IV", (input_q[1], input_q[0]), (output_q[1], output_q[0]))
            assert iii.feasible == iv.feasible
            if iii.probability_trend is not None:
                swap = {"b1": "b2", "b2": "b1", "both": "both"}
                assert iv.probability_trend.parameter == swap[iii.probability_trend.parameter]
                assert iv.probability_trend.direction == iii.probability_trend.direction
            if iii.feasible and iii.condition is not None:
                b3 = (0.6, -0.4)
                b4 = (-0.4, 0.6)
                dx = rng.uniform(0.01, 1.0, 300) * input_q[0]
                dy = rng.uniform(0.01, 1.0, 300) * input_q[1]
                mask3 = iii.condition.holds(b3, dx, dy)
                mask4 = iv.condition.holds(b4, dy, dx)
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


def test_predict_correlation_sign():
    assert predict_correlation_sign((0.8, 0.8)) == "positive"
    assert predict_correlation_sign((-0.8, -0.8)) == "negative"
    assert predict_correlation_sign((0.8, -0.8)) == "weak"
    assert predict_correlation_sign((-0.8, 0.8)) == "weak"
    assert predict_correlation_sign((0.05, 0.9)) == "weak"
    with pytest.raises(ValueError):
        predict_correlation_sign((1.0, 0.5))


def test_verify_appendix_small_sample_smoke():
    report = verify_appendix(n_samples=30_000, master_seed=5)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert len(report.checks) == 64
    trend_checks = [c for c in report.checks if c.trend_ok is not None]
    assert len(trend_checks) == 28
