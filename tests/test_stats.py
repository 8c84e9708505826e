import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgmarket import DegenerateSeriesError
from mgmarket.stats import ar1_pooled, ols, pearson


def test_pearson_perfect_correlation():
    x = np.arange(10.0)
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_hand_computed():
    # deviations give covariance 1.0 and variances 5/3 each
    assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)


def test_pearson_degenerate():
    with pytest.raises(DegenerateSeriesError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateSeriesError):
        pearson([1.0], [2.0])
    with pytest.raises(DegenerateSeriesError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_series_refused(bad):
    # a NaN correlation must not be clamped into a perfect one
    with pytest.raises(DegenerateSeriesError, match="non-finite"):
        pearson([1.0, 2.0, bad], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateSeriesError, match="non-finite"):
        ols([1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 5.0])
    with pytest.raises(DegenerateSeriesError, match="non-finite"):
        ar1_pooled([[0.01, -0.02, bad, -0.01, 0.02]])


@given(
    scale=st.floats(0.01, 100, allow_nan=False),
    offset=st.floats(-50, 50, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=50)
def test_pearson_affine_invariance(scale, offset, seed):
    g = np.random.default_rng(seed)
    x, y = g.normal(size=40), g.normal(size=40)
    base = pearson(x, y)
    assert pearson(scale * x + offset, y) == pytest.approx(base, abs=1e-9)
    assert pearson(-scale * x + offset, y) == pytest.approx(-base, abs=1e-9)


def test_ols_exact_line():
    x = np.linspace(0, 1, 50)
    rep = ols(x, 2 * x + 1)
    assert rep.beta1 == pytest.approx(2.0)
    assert rep.beta0 == pytest.approx(1.0)
    assert rep.r_squared == pytest.approx(1.0)
    assert rep.p_value == pytest.approx(0.0, abs=1e-12)


def test_ols_independent_noise_not_significant():
    g = np.random.default_rng(99)
    x = g.normal(size=100)
    y = g.normal(size=100)
    rep = ols(x, y)
    assert abs(rep.beta1) < 0.3
    assert rep.p_value > 0.05


def test_ols_recovers_pearson():
    g = np.random.default_rng(7)
    x = g.normal(size=500)
    y = 0.4 * x + g.normal(size=500)
    rep = ols(x, y)
    assert rep.beta1 * x.std(ddof=1) / y.std(ddof=1) == pytest.approx(pearson(x, y), abs=1e-9)


def test_ols_degenerate_regressor():
    with pytest.raises(DegenerateSeriesError):
        ols(np.ones(10), np.arange(10.0))


def test_ar1_constant_increment_series():
    rep = ar1_pooled([np.arange(1.0, 11.0)])
    assert rep.phi == pytest.approx(1.0)
    assert rep.n == 9


def test_ar1_white_noise_near_zero():
    g = np.random.default_rng(11)
    rep = ar1_pooled([g.normal(size=10_000)])
    assert abs(rep.phi) < 0.05


def test_ar1_alternating_series():
    eps = 0.003
    series = np.array([eps, -eps] * 20)
    assert ar1_pooled([series]).phi == pytest.approx(-1.0)


def test_ar1_consistent_with_pearson():
    g = np.random.default_rng(3)
    r = np.cumsum(g.normal(size=400)) * 0.01
    rep = ar1_pooled([r])
    x, y = r[:-1], r[1:]
    assert rep.phi == pytest.approx(
        pearson(x, y) * y.std(ddof=1) / x.std(ddof=1), abs=1e-9
    )


def test_ar1_pooled_excludes_cross_run_pairs():
    up = np.arange(0.0, 5.0)
    down = np.arange(5.0, 0.0, -1.0)
    pooled = ar1_pooled([up, down])
    x = np.concatenate([up[:-1], down[:-1]])
    y = np.concatenate([up[1:], down[1:]])
    slope = np.polyfit(x, y, 1)[0]
    assert pooled.phi == pytest.approx(slope)
    assert pooled.n == 8
    # concatenating the raw series would fabricate a (4.0, 5.0) transition
    naive = ar1_pooled([np.concatenate([up, down])])
    assert naive.phi != pytest.approx(pooled.phi)


def test_ar1_refuses_constant_and_too_short_series():
    with pytest.raises(DegenerateSeriesError, match="constant regressor"):
        ar1_pooled([np.full(10, 0.01)])
    # three points give two lag pairs, too few for the slope's standard error
    with pytest.raises(DegenerateSeriesError):
        ar1_pooled([[0.01, -0.02, 0.03]])
    assert ar1_pooled([[0.01, -0.02, 0.03, -0.01]]).n == 3


def test_ar1_pooled_refuses_an_empty_list():
    with pytest.raises(DegenerateSeriesError, match="^need at least three points$"):
        ar1_pooled([])


def test_ar1_pooled_refuses_one_too_short_series_among_long_ones():
    # the ten pooled lag pairs alone would pass ols
    with pytest.raises(DegenerateSeriesError, match="^need at least three points$"):
        ar1_pooled([np.arange(10.0), np.array([0.01, -0.02])])
