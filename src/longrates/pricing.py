"""Zero-coupon bond prices and the rate curves derived from them.

Prices are computed and stored in the log domain; exponentiation happens only
at output boundaries. Long-maturity prices decay geometrically, so working in
logs keeps curves finite far beyond where raw prices would underflow. One
`Curve` holds the log prices on a maturity grid together with the forward,
zero and price-growth (x) curves read off them; `build_curves` prices it from
a model state.

Monte Carlo pricing restarts the simulation from the conditioning state.
Every supported model is Markov in its state, so the conditional expectation
given the information at the observation time equals the expectation from
the observed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    STREAM_PRICING,
    McEstimate,
    ModelSpec,
    Regime,
    _periods,
    _window_grid,
    simulate_paths,
)

__all__ = [
    "Curve",
    "log_price_closed_form",
    "price_closed_form",
    "price_mc",
    "build_curves",
]


@dataclass(frozen=True, eq=False)
class Curve:
    """Log zero-coupon prices on a maturity grid, with the forward, zero and
    price-growth (x) curves derived from them.

    x(t, T) = P(t, T)^(1/(T - t)), exp(-z) or 1 / (1 + z) for the zero rate
    z, is the per-period growth factor whose asymptote encodes the long rate.
    """

    maturities: np.ndarray
    log_prices: np.ndarray
    forward: np.ndarray
    zero: np.ndarray
    x: np.ndarray

    def prices(self) -> np.ndarray:
        return np.exp(self.log_prices)


def log_price_closed_form(
    model: ModelSpec, state, t: float, T: float, regime: Regime
) -> float:
    """Exact log P(t, T) from the given model state."""
    if not t <= T:  # NaN fails it
        raise ValueError("maturity precedes observation time")
    return float(model.log_price_table([state], t, [T], regime)[0, 0])


def price_closed_form(
    model: ModelSpec, state, t: float, T: float, regime: Regime
) -> float:
    return math.exp(log_price_closed_form(model, state, t, T, regime))


def price_mc(
    model: ModelSpec,
    state,
    t: float,
    T: float,
    n: int,
    seed: int,
    regime: Regime,
) -> McEstimate:
    """Monte Carlo price: mean of the discount B_t / B_T over paths
    restarted from the state at t, each drawn from its own keyed stream."""
    model.require_regime(regime)
    if T < t:
        raise ValueError("maturity precedes observation time")
    if n < 2:
        raise ValueError("need at least 2 paths for a standard error")
    window = int(_periods(t, [T])[0]) if regime is Regime.DISCRETE else float(T - t)
    if window == 0:
        return McEstimate(1.0, 0.0, n)
    scen = simulate_paths(
        model.conditioned(state), _window_grid(regime, window), n, seed,
        stream=STREAM_PRICING,
    )
    return McEstimate.of(scen.discounts(0, window))


def build_curves(
    model: ModelSpec, state, t: float, maturities, regime: Regime
) -> Curve:
    """Closed-form curve at t from the given state.

    Discrete forward rates need the price one period past each maturity, so
    successor maturities are priced internally; the returned curve covers
    exactly the requested grid. Continuous forward rates use central finite
    differences in maturity (one-sided at the ends), which needs at least
    two maturities.
    """
    model.require_regime(regime)
    mats = np.asarray(maturities, dtype=float)
    if mats.ndim != 1 or mats.size == 0:
        raise ValueError("maturities must be a non-empty vector")
    if np.any(np.diff(mats) <= 0):
        raise ValueError("maturities must be strictly increasing")
    if mats[0] <= t:
        raise ValueError("maturities must exceed the observation time")
    if regime is Regime.DISCRETE:
        both = np.concatenate([mats, mats + 1])
        lp = model.log_price_table([state], t, both, regime)[0]
        return _curves(t, mats, lp[: mats.size], regime, lp[mats.size :])
    if mats.size < 2:
        raise ValueError("continuous curves need at least two maturities")
    lp = model.log_price_table([state], t, mats, regime)[0]
    return _curves(t, mats, lp, regime)


def _curves(t, mats: np.ndarray, lp: np.ndarray, regime: Regime, lp_next=None) -> Curve:
    """Curve from log prices on the maturity grid; a discrete forward rate
    at T takes the log price at T + 1 from lp_next."""
    if not np.all(np.isfinite(lp)):
        raise ValueError("log prices must be finite")
    if regime is Regime.DISCRETE:
        forward = np.expm1(lp - lp_next)
        zero = np.expm1(-lp / (mats - t))
    else:
        forward = np.empty_like(lp)
        forward[1:-1] = -(lp[2:] - lp[:-2]) / (mats[2:] - mats[:-2])
        forward[0] = -(lp[1] - lp[0]) / (mats[1] - mats[0])
        forward[-1] = -(lp[-1] - lp[-2]) / (mats[-1] - mats[-2])
        zero = -lp / (mats - t)
    x = np.exp(lp / (mats - t))
    if np.any(x <= 0):
        raise ValueError("x values must be positive")
    return Curve(mats, lp, forward, zero, x)
