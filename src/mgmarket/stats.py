"""Series statistics: Pearson correlation, simple OLS, and first-order
autoregression.

Everything operates on in-memory float arrays and is pure.  OLS p-values use
a normal approximation to the slope t-statistic; every use in this project
has thousands of pooled samples, where the approximation is exact for all
practical purposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSeriesError


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DegenerateSeriesError(f"series shapes differ: {x.shape} vs {y.shape}")
    return x, y


def pearson(x, y) -> float:
    """Sample correlation coefficient; requires both series non-constant."""
    x, y = _as_pair(x, y)
    if len(x) < 2:
        raise DegenerateSeriesError("need at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateSeriesError("constant series has undefined correlation")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class RegressionReport:
    beta0: float
    beta1: float
    p_value: float
    r_squared: float
    n: int


def ols(x, y) -> RegressionReport:
    """Least-squares line y = beta0 + beta1 * x with slope p-value and R^2."""
    x, y = _as_pair(x, y)
    n = len(x)
    if n < 3:
        raise DegenerateSeriesError("need at least three points")
    dx = x - x.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegenerateSeriesError("constant regressor")
    beta1 = float(dx @ (y - y.mean())) / sxx
    beta0 = float(y.mean() - beta1 * x.mean())
    resid = y - (beta0 + beta1 * x)
    ssr = float(resid @ resid)
    sst = float((y - y.mean()) @ (y - y.mean()))
    r_squared = 1.0 if ssr == 0.0 else 1.0 - ssr / sst
    se = math.sqrt(ssr / (n - 2) / sxx)
    if se == 0.0:
        p_value = 0.0 if beta1 != 0.0 else 1.0
    else:
        p_value = math.erfc(abs(beta1 / se) / math.sqrt(2.0))
    return RegressionReport(beta0=beta0, beta1=beta1, p_value=p_value,
                            r_squared=r_squared, n=n)


@dataclass(frozen=True)
class Ar1Report:
    phi: float
    n: int


def ar1(series) -> Ar1Report:
    """First-order autoregressive coefficient: OLS slope of r(t) on r(t-1)."""
    return ar1_pooled([series])


def ar1_pooled(series_list: Sequence[np.ndarray]) -> Ar1Report:
    """AR(1) slope over lag pairs pooled from several series.

    Pairs never straddle series boundaries, so pooling runs does not fabricate
    transitions between them.
    """
    runs = [np.asarray(series, dtype=float) for series in series_list]
    if any(r.ndim != 1 or len(r) < 3 for r in runs):
        raise DegenerateSeriesError("need at least three points")
    report = ols(np.concatenate([r[:-1] for r in runs]), np.concatenate([r[1:] for r in runs]))
    return Ar1Report(phi=report.beta1, n=report.n)

