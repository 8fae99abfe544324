"""Simulation and verification lab for long forward and zero-coupon rates.

The package prices zero-coupon bonds in arbitrage-free short-rate models,
extracts the long end of the resulting curves, and certifies path by path
that extracted long rates never fall as the observation time advances. A
finite-probability module makes the supporting conditional-norm limit
arguments machine-checkable, and a CLI drives everything from JSON configs.

Importing the package loads none of its layers: each name below is looked
up in its home module, which is imported on first use of one of its names.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "finiteprob": (
        "FiniteProbSpace", "Partition", "Rv", "cond_ess_sup", "cond_expectation",
        "cond_p_norm", "conditional_holder_gap", "dominated_convergence_trace",
        "pnorm_liminf_bound", "pnorm_limit_check",
    ),
    "longrate": (
        "ExtractionMethod", "LongRateEstimate", "extract_long_rate",
        "forward_zero_gap", "long_zero_from_x", "perron_long_rate",
        "x_from_long_zero",
    ),
    "measure": (
        "ForwardWeights", "TowerReport", "forward_expectation", "rn_weights",
        "tower_identity_check",
    ),
    "models": (
        "ConstantRate", "MarkovChain", "PoissonJump", "Regime", "ScenarioSet",
        "TimeGrid", "path_rng", "simulate_paths",
    ),
    "pricing": (
        "Curve", "McEstimate", "build_curves", "chain_log_prices",
        "curves_from_log_prices", "log_price_closed_form", "price_closed_form",
        "price_mc", "short_rate_consistency",
    ),
    "verify": (
        "MonotonicityReport", "NonConvergenceError", "PoissonExampleReport",
        "monotonicity_violations", "run_poisson_example", "standard_fleet",
        "verify_dir",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    # not cached in globals(): a later lookup sees what the home module holds now
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
