"""Simulation and verification lab for long forward and zero-coupon rates.

The package prices zero-coupon bonds in arbitrage-free short-rate models,
extracts the long end of the resulting curves, and certifies path by path
that extracted long rates never fall as the observation time advances. A
finite-probability module makes the supporting conditional-norm limit
arguments machine-checkable, and a CLI drives everything from JSON configs.
"""

from .finiteprob import (
    FiniteProbSpace,
    Partition,
    Rv,
    cond_ess_sup,
    cond_expectation,
    cond_p_norm,
    conditional_holder_gap,
    dominated_convergence_trace,
    pnorm_liminf_bound,
    pnorm_limit_check,
)
from .longrate import (
    ExtractionMethod,
    LongRateEstimate,
    extract_long_rate,
    forward_zero_gap,
    long_zero_from_x,
    perron_long_rate,
    x_from_long_zero,
)
from .measure import (
    ForwardWeights,
    TowerReport,
    forward_expectation,
    rn_weights,
    tower_identity_check,
)
from .models import (
    ConstantRate,
    MarkovChain,
    PoissonJump,
    Regime,
    ScenarioSet,
    TimeGrid,
    path_rng,
    simulate_paths,
)
from .pricing import (
    Curve,
    McEstimate,
    build_curves,
    chain_log_prices,
    curves_from_log_prices,
    log_price_closed_form,
    price_closed_form,
    price_mc,
    short_rate_consistency,
)
from .verify import (
    MonotonicityReport,
    NonConvergenceError,
    PoissonExampleReport,
    monotonicity_violations,
    run_poisson_example,
    standard_fleet,
    verify_dir,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteProbSpace", "Partition", "Rv", "cond_ess_sup", "cond_expectation",
    "cond_p_norm", "conditional_holder_gap", "dominated_convergence_trace",
    "pnorm_liminf_bound", "pnorm_limit_check",
    "ExtractionMethod", "LongRateEstimate", "extract_long_rate",
    "forward_zero_gap", "long_zero_from_x", "perron_long_rate",
    "x_from_long_zero",
    "ForwardWeights", "TowerReport", "forward_expectation", "rn_weights",
    "tower_identity_check",
    "ConstantRate", "MarkovChain", "PoissonJump", "Regime", "ScenarioSet",
    "TimeGrid", "path_rng", "simulate_paths",
    "Curve", "McEstimate", "build_curves",
    "chain_log_prices", "curves_from_log_prices", "log_price_closed_form",
    "price_closed_form", "price_mc", "short_rate_consistency",
    "MonotonicityReport", "NonConvergenceError", "PoissonExampleReport",
    "monotonicity_violations", "run_poisson_example", "standard_fleet",
    "verify_dir",
]
