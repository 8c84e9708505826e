import numpy as np

from mgmarket import HomogeneousCoupling, UniformCoupling, run
from mgmarket.expectation import sample_couplings

from conftest import small_config

def test_expected_return_arithmetic():
    # the recorded mean expectation is a * own return + mean(b) * other return
    cfg = small_config(a=(1.0, 0.6), coupling=HomogeneousCoupling(0.5, -0.3))
    market = run(cfg, 0).market
    b = (0.5, -0.3)
    for j in (0, 1):
        own, other = market.main_returns(j), market.main_returns(1 - j)
        expected = cfg.a[j] * own + b[j] * other
        assert np.allclose(market.stocks[j].mean_expectation, expected, rtol=1e-12, atol=0.0)


def test_zero_coupling_decouples():
    cfg = small_config(a=(0.7, 1.0), coupling=HomogeneousCoupling(0.0, 0.0))
    market = run(cfg, 0).market
    for j in (0, 1):
        assert market.stocks[j].mean_expectation.tolist() == (cfg.a[j] * market.main_returns(j)).tolist()


def test_homogeneous_coupling_constant(rng):
    b1, b2 = sample_couplings(HomogeneousCoupling(0.5, -0.3), 1001, rng)
    assert np.all(b1 == 0.5) and np.all(b2 == -0.3)
    assert len(b1) == len(b2) == 1001


def test_uniform_coupling_support(rng):
    b1, b2 = sample_couplings(UniformCoupling(0.4, 0.2, -0.1, 0.05), 5000, rng)
    assert b1.min() >= 0.2 and b1.max() <= 0.6
    assert b2.min() >= -0.15 and b2.max() <= -0.05


def test_uniform_coupling_mean_converges(rng):
    n = 100_000
    b1, b2 = sample_couplings(UniformCoupling(0.0, 1.0, 0.3, 0.5), n, rng)
    # standard error of the mean of U(c-d, c+d) is (2d / sqrt(12)) / sqrt(n)
    tol1 = 3 * (2 * 1.0 / np.sqrt(12)) / np.sqrt(n)
    tol2 = 3 * (2 * 0.5 / np.sqrt(12)) / np.sqrt(n)
    assert abs(b1.mean() - 0.0) < tol1
    assert abs(b2.mean() - 0.3) < tol2


def test_uniform_stocks_sampled_independently(rng):
    b1, b2 = sample_couplings(UniformCoupling(0.0, 1.0, 0.0, 1.0), 50_000, rng)
    corr = np.corrcoef(b1, b2)[0, 1]
    assert abs(corr) < 0.02

