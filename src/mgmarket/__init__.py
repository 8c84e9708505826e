"""Two-stock minority-game market simulator.

An odd number of agents repeatedly buy or sell two stocks.  Each agent's
expected return for one stock is a linear combination of both stocks' lagged
returns; decisions come from fixed random strategy tables indexed by recent
return signs plus the expectation sign, scored by minority payoff.  The
package provides the simulation engine, parameter-plane sweeps of the return
correlation, regression and autoregression statistics, and a mechanized
sign-case analysis of how the coupling weights drive the correlation.
"""

from .config import (
    EventModel,
    HomogeneousCoupling,
    ModelConfig,
    UniformCoupling,
    config_digest,
    from_text,
    to_text,
    validate,
)
from .engine import BatchResult, RunResult, run, run_many
from .errors import (
    CoefficientOutOfRangeError,
    ConfigError,
    DegenerateSeriesError,
    EvenAgentCountError,
    NonPositivePriceError,
)
from .analytic import (
    FeasibilityVerdict,
    brute_force_feasibility,
    classify,
    expectation_delta,
    predict_correlation_sign,
    verify_appendix,
)
from .stats import Ar1Report, RegressionReport, ar1, ar1_pooled, ols, pearson
from .sweep import (
    SweepGrid,
    sweep_centers,
    sweep_events,
    sweep_homogeneous,
    sweep_ranges,
)

__all__ = [
    "Ar1Report",
    "BatchResult",
    "CoefficientOutOfRangeError",
    "ConfigError",
    "DegenerateSeriesError",
    "EvenAgentCountError",
    "EventModel",
    "FeasibilityVerdict",
    "HomogeneousCoupling",
    "ModelConfig",
    "NonPositivePriceError",
    "RegressionReport",
    "RunResult",
    "SweepGrid",
    "UniformCoupling",
    "ar1",
    "ar1_pooled",
    "brute_force_feasibility",
    "classify",
    "config_digest",
    "expectation_delta",
    "from_text",
    "ols",
    "pearson",
    "predict_correlation_sign",
    "run",
    "run_many",
    "sweep_centers",
    "sweep_events",
    "sweep_homogeneous",
    "sweep_ranges",
    "to_text",
    "validate",
    "verify_appendix",
]
