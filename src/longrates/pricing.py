"""Zero-coupon bond prices and the rate curves derived from them.

Prices are computed and stored in the log domain; exponentiation happens only
at output boundaries. Long-maturity prices decay geometrically, so working in
logs keeps curves finite far beyond where raw prices would underflow.

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
    ConstantRate,
    MarkovChain,
    ModelSpec,
    PoissonJump,
    Regime,
    STREAM_PRICING,
    TimeGrid,
    _batch_chain_states,
    _batch_jump_times,
    _integral_from_zero,
    bank_account,
    conditioned,
    current_rate,
    require_regime,
    simulate_paths,
)

__all__ = [
    "McEstimate",
    "DiscountCurve",
    "RateCurve",
    "log_price_closed_form",
    "price_closed_form",
    "chain_log_prices",
    "price_mc",
    "build_curves",
    "curves_from_log_prices",
    "short_rate_consistency",
]


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with standard error of the mean."""

    value: float
    std_error: float
    n: int

    def z_score(self, reference: float) -> float:
        """Standard errors from a reference value; agreement at float
        precision is exact (0.0), so degenerate samples cannot turn rounding
        noise into a huge z. A real gap with no standard error gives inf."""
        diff = self.value - reference
        if abs(diff) <= 16.0 * np.finfo(float).eps * max(1.0, abs(reference)):
            return 0.0
        if self.std_error > 0:
            return diff / self.std_error
        return math.inf


@dataclass(frozen=True, eq=False)
class DiscountCurve:
    """Log zero-coupon prices observed at one time from one model state."""

    observation_time: float
    state: object
    maturities: np.ndarray
    log_prices: np.ndarray
    regime: Regime

    def __post_init__(self) -> None:
        mats = np.asarray(self.maturities, dtype=float)
        lp = np.asarray(self.log_prices, dtype=float)
        object.__setattr__(self, "maturities", mats)
        object.__setattr__(self, "log_prices", lp)
        if mats.ndim != 1 or mats.size == 0 or lp.shape != mats.shape:
            raise ValueError("maturities and log_prices must be aligned vectors")
        if np.any(np.diff(mats) <= 0):
            raise ValueError("maturities must be strictly increasing")
        if mats[0] <= self.observation_time:
            raise ValueError("maturities must exceed the observation time")
        if not np.all(np.isfinite(lp)):
            raise ValueError("log prices must be finite")

    def prices(self) -> np.ndarray:
        return np.exp(self.log_prices)


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Forward, zero, and price-growth (x) curves on a shared maturity grid.

    x(t, T) = exp(log P(t, T) / T) is the per-period growth factor whose
    asymptote in T encodes the long rate.
    """

    observation_time: float
    state: object
    maturities: np.ndarray
    forward: np.ndarray
    zero: np.ndarray
    x: np.ndarray
    regime: Regime

    def __post_init__(self) -> None:
        mats = np.asarray(self.maturities, dtype=float)
        object.__setattr__(self, "maturities", mats)
        for name in ("forward", "zero", "x"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != mats.shape:
                raise ValueError(f"{name} must align with maturities")
        if np.any(self.x <= 0):
            raise ValueError("x values must be positive")


def log_price_closed_form(
    model: ModelSpec, state, t: float, T: float, regime: Regime
) -> float:
    """Exact log P(t, T) from the given model state."""
    require_regime(model, regime)
    if T < t:
        raise ValueError("maturity precedes observation time")
    if isinstance(model, ConstantRate):
        if regime is Regime.DISCRETE:
            n = _period_gap(t, T)
            return -n * math.log1p(model.rate)
        return -model.rate * (T - t)
    if isinstance(model, PoissonJump):
        r_now = current_rate(model, state)
        lam, delta = model.intensity, model.delta
        tau = T - t
        return -r_now * tau - lam * tau - lam * math.expm1(-delta * tau) / delta
    n = _period_gap(t, T)
    idx = model.initial_state if state is None else int(state)
    if not 0 <= idx < model.n_states:
        raise ValueError("chain state out of range")
    return float(chain_log_prices(model, [n])[n][idx])


def price_closed_form(
    model: ModelSpec, state, t: float, T: float, regime: Regime
) -> float:
    return math.exp(log_price_closed_form(model, state, t, T, regime))


def _period_gap(t, T) -> int:
    if float(t) != int(t) or float(T) != int(T):
        raise ValueError("discrete times must be integers")
    return int(T) - int(t)


def chain_log_prices(model: MarkovChain, horizons) -> dict[int, np.ndarray]:
    """Log n-period prices from every chain state, for each n in horizons.

    One pass of repeated multiplication by the discounted transition matrix,
    renormalized each step so that thousand-period prices stay representable.
    """
    want = sorted({int(n) for n in horizons})
    if want and want[0] < 0:
        raise ValueError("horizons must be non-negative")
    out: dict[int, np.ndarray] = {}
    if not want:
        return out
    if want[0] == 0:
        out[0] = np.zeros(model.n_states)
    discounted = model.discounted_transition()
    v = np.ones(model.n_states)
    log_scale = 0.0
    want_set = set(want)
    for n in range(1, want[-1] + 1):
        v = discounted @ v
        top = float(v.max())
        v = v / top
        log_scale += math.log(top)
        if n in want_set:
            out[n] = log_scale + np.log(v)
    return out


def price_mc(
    model: ModelSpec,
    state,
    t: float,
    T: float,
    n: int,
    seed: int,
    regime: Regime,
    *,
    threads: int = 1,
) -> McEstimate:
    """Monte Carlo price: mean of 1 / bank_account over restarted paths.

    Jump models and chains draw each path from its own keyed stream and
    discount it directly, without building path objects. ``threads`` is
    accepted for compatibility and has no effect.
    """
    require_regime(model, regime)
    if T < t:
        raise ValueError("maturity precedes observation time")
    if n < 2:
        raise ValueError("need at least 2 paths for a standard error")
    window = _period_gap(t, T) if regime is Regime.DISCRETE else float(T - t)
    if window == 0:
        return McEstimate(1.0, 0.0, n)
    restarted = conditioned(model, state)
    grid = TimeGrid(
        regime,
        window,
        output_step=window if regime is Regime.CONTINUOUS else None,
    )
    if isinstance(restarted, PoissonJump):
        batch = _batch_jump_times(
            restarted.intensity, window, n, seed, STREAM_PRICING
        )
        r0, delta = restarted.r0, restarted.delta
        samples = np.array([
            math.exp(-_integral_from_zero(r0, delta, times, window))
            for times in batch
        ])
    elif isinstance(restarted, MarkovChain):
        states = _batch_chain_states(restarted, window, n, seed, STREAM_PRICING)
        # row-wise products of the growth factors before the window's end,
        # the arithmetic of bank_account
        growth = 1.0 + restarted.state_rates[states[:, :window]]
        samples = 1.0 / np.prod(growth, axis=1)
    else:
        # constant model: every path is the same flat path
        path = simulate_paths(restarted, grid, 1, seed).paths[0]
        if regime is Regime.CONTINUOUS:
            sample = math.exp(-path.integrated(0.0, window))
        else:
            sample = 1.0 / bank_account(path, window)
        samples = np.full(n, sample)
    value = float(samples.mean())
    std_error = float(samples.std(ddof=1) / math.sqrt(n))
    return McEstimate(value, std_error, n)


def build_curves(
    model: ModelSpec, state, t: float, maturities, regime: Regime
) -> tuple[DiscountCurve, RateCurve]:
    """Closed-form discount and rate curves at t from the given state.

    Discrete forward rates need the price one period past each maturity, so
    successor maturities are priced internally; the returned curves cover
    exactly the requested grid. Continuous forward rates use central finite
    differences in maturity (one-sided at the ends), which needs at least
    two maturities.
    """
    require_regime(model, regime)
    mats = np.asarray(maturities, dtype=float)
    if mats.ndim != 1 or mats.size == 0:
        raise ValueError("maturities must be a non-empty vector")
    if np.any(np.diff(mats) <= 0):
        raise ValueError("maturities must be strictly increasing")
    if mats[0] <= t:
        raise ValueError("maturities must exceed the observation time")

    if regime is Regime.DISCRETE:
        if np.any(mats != np.round(mats)):
            raise ValueError("discrete maturities must be integers")
        ints = mats.astype(int)
        needed = sorted(set(ints) | {m + 1 for m in ints})
        lp_map = _log_price_map(model, state, t, needed, regime)
        lp = np.array([lp_map[m] for m in ints])
        lp_next = np.array([lp_map[m + 1] for m in ints])
        forward = np.expm1(lp - lp_next)
        zero = np.expm1(-lp / (mats - t))
    else:
        if mats.size < 2:
            raise ValueError("continuous curves need at least two maturities")
        lp = np.array(
            [log_price_closed_form(model, state, t, T, regime) for T in mats]
        )
        forward = _finite_difference_forward(mats, lp)
        zero = -lp / (mats - t)
    x = np.exp(lp / mats)
    disc = DiscountCurve(float(t), state, mats, lp, regime)
    rates = RateCurve(float(t), state, mats, forward, zero, x, regime)
    return disc, rates


def _log_price_map(
    model: ModelSpec, state, t, maturities: list[int], regime: Regime
) -> dict[int, float]:
    if isinstance(model, MarkovChain):
        idx = model.initial_state if state is None else int(state)
        gaps = {m: _period_gap(t, m) for m in maturities}
        per_state = chain_log_prices(model, gaps.values())
        return {m: float(per_state[gap][idx]) for m, gap in gaps.items()}
    return {
        m: log_price_closed_form(model, state, t, m, regime) for m in maturities
    }


def _finite_difference_forward(mats: np.ndarray, lp: np.ndarray) -> np.ndarray:
    f = np.empty_like(lp)
    f[1:-1] = -(lp[2:] - lp[:-2]) / (mats[2:] - mats[:-2])
    f[0] = -(lp[1] - lp[0]) / (mats[1] - mats[0])
    f[-1] = -(lp[-1] - lp[-2]) / (mats[-1] - mats[-2])
    return f


def curves_from_log_prices(
    t: float,
    maturities,
    log_prices,
    regime: Regime,
    state=None,
) -> tuple[DiscountCurve, RateCurve]:
    """Curves from externally supplied log prices (synthetic or tabulated).

    In the discrete regime the maturities must be consecutive integers and
    the last one is consumed as the successor needed by the final forward
    rate, so the returned curves stop one period earlier.
    """
    mats = np.asarray(maturities, dtype=float)
    lp = np.asarray(log_prices, dtype=float)
    if mats.shape != lp.shape or mats.ndim != 1 or mats.size < 2:
        raise ValueError("need aligned vectors of at least two maturities")
    if np.any(np.diff(mats) <= 0):
        raise ValueError("maturities must be strictly increasing")
    if mats[0] <= t:
        raise ValueError("maturities must exceed the observation time")
    if regime is Regime.DISCRETE:
        if np.any(mats != np.round(mats)) or np.any(np.diff(mats) != 1):
            raise ValueError(
                "discrete curves need consecutive integer maturities; the "
                "forward rate at T uses the price at T + 1"
            )
        head, head_lp = mats[:-1], lp[:-1]
        forward = np.expm1(lp[:-1] - lp[1:])
        zero = np.expm1(-head_lp / (head - t))
        x = np.exp(head_lp / head)
        disc = DiscountCurve(float(t), state, head, head_lp, regime)
        rates = RateCurve(float(t), state, head, forward, zero, x, regime)
        return disc, rates
    forward = _finite_difference_forward(mats, lp)
    zero = -lp / (mats - t)
    x = np.exp(lp / mats)
    disc = DiscountCurve(float(t), state, mats, lp, regime)
    rates = RateCurve(float(t), state, mats, forward, zero, x, regime)
    return disc, rates


def short_rate_consistency(
    model: ModelSpec, state, t: float, regime: Regime, step: float = 0.01
) -> float:
    """|f(t, t) - short rate|; the instantaneous forward must return the rate.

    Discrete: exact via f(t, t) = 1 / P(t, t+1) - 1. Continuous: one-sided
    difference over `step`, so the gap is O(step) for jump models.
    """
    if regime is Regime.DISCRETE:
        f_tt = math.expm1(-log_price_closed_form(model, state, t, t + 1, regime))
    else:
        if step <= 0:
            raise ValueError("step must be positive")
        lp = log_price_closed_form(model, state, t, t + step, regime)
        f_tt = -lp / step
    return abs(f_tt - current_rate(model, state))
