"""Forward-measure reweighting and its conditioning identity.

For observation times s <= t, discounting a payoff known at t and dividing
by P(s, t) is the same as averaging the payoff under reweighted scenario
probabilities w = (B_s / B_t) / P(s, t). The identity checked here is that
the reweighted conditional mean of P(t, T) equals P(s, T) / P(s, t), i.e.
bond prices at t forecast to s through the weights with no extra drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    ConstantRate,
    JumpPath,
    MarkovChain,
    ModelSpec,
    Regime,
    STREAM_CONTINUATION,
    ScenarioSet,
    TimeGrid,
    _batch_jump_times,
    _integral_from_zero,
    conditioned,
    initial_state_of,
    require_regime,
)
from .pricing import McEstimate, chain_log_prices, price_closed_form

__all__ = ["ForwardWeights", "TowerReport", "rn_weights", "forward_expectation",
           "tower_identity_check"]


@dataclass(frozen=True, eq=False)
class ForwardWeights:
    """Per-path forward-measure weights for the window [s, t]."""

    s: float
    t: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("need a vector of at least two weights")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be positive and finite")

    @property
    def n(self) -> int:
        return int(self.weights.size)

    def normalization(self) -> tuple[float, float]:
        """Sample mean of the weights and its standard error.

        The population mean is exactly 1 by construction, so a sample mean
        many standard errors away signals a pricing or weighting bug.
        """
        mean = float(self.weights.mean())
        se = float(self.weights.std(ddof=1) / math.sqrt(self.n))
        return mean, se


def rn_weights(scenarios: ScenarioSet, s: float, t: float, price_s_t: float) -> ForwardWeights:
    """Forward-measure weights (B_s / B_t) / P(s, t) for each path."""
    if not 0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    horizon = float(scenarios.grid.horizon)
    if t > horizon:
        raise ValueError("t exceeds the simulated horizon")
    if not (math.isfinite(price_s_t) and price_s_t > 0):
        raise ValueError("P(s, t) must be positive and finite")
    ratios = np.empty(scenarios.n_paths)
    for k, path in enumerate(scenarios.paths):
        if isinstance(path, JumpPath):
            ratios[k] = math.exp(-path.integrated(float(s), float(t)))
        else:
            lo, hi = int(s), int(t)
            if float(s) != lo or float(t) != hi:
                raise ValueError("discrete times must be integers")
            ratios[k] = 1.0 / float(np.prod(1.0 + path.rates[lo:hi]))
    return ForwardWeights(float(s), float(t), ratios / price_s_t)


def forward_expectation(weights: ForwardWeights, payoff) -> McEstimate:
    """Self-normalized weighted mean of a payoff with delta-method error."""
    values = np.asarray(payoff, dtype=float)
    if values.shape != weights.weights.shape:
        raise ValueError("payoff must align with the weights")
    if not np.all(np.isfinite(values)):
        raise ValueError("payoff must be finite")
    w = weights.weights
    total = float(w.sum())
    estimate = float(np.dot(w, values) / total)
    # delta-method standard error of a ratio estimator
    se = float(np.sqrt(np.sum((w * (values - estimate)) ** 2)) / total)
    return McEstimate(estimate, se, weights.n)


@dataclass(frozen=True)
class TowerReport:
    """Comparison of P(s, T) with the reweighted forecast of P(t, T)."""

    s: float
    t: float
    T: float
    lhs: float
    rhs: float
    gap: float
    se: float
    n: int
    exact: bool

    def passed(self, k_sigma: float = 3.0, exact_tol: float = 1e-12) -> bool:
        if self.exact:
            return abs(self.gap) <= exact_tol
        return abs(self.gap) <= k_sigma * self.se


def tower_identity_check(
    model: ModelSpec,
    s: float,
    t: float,
    T: float,
    regime: Regime,
    n: int = 200_000,
    seed: int = 0,
    *,
    threads: int = 1,
) -> TowerReport:
    """Check P(s, T) = E[(B_s / B_t) P(t, T)] from the state at s.

    Chains and constant models are evaluated exactly (gap at float noise);
    jump models average over simulated continuations of [s, t] and report a
    Monte Carlo standard error. s = t reduces to the pricing definition.
    ``threads`` is accepted for compatibility and has no effect.
    """
    require_regime(model, regime)
    if not 0 <= s <= t <= T:
        raise ValueError("need 0 <= s <= t <= T")

    if isinstance(model, ConstantRate):
        lhs = price_closed_form(model, None, s, T, regime)
        # deterministic bank account: B_s / B_t = P(s, t)
        rhs = price_closed_form(model, None, s, t, regime) * price_closed_form(
            model, None, t, T, regime
        )
        return TowerReport(s, t, T, lhs, rhs, rhs - lhs, 0.0, 0, True)

    if isinstance(model, MarkovChain):
        n_st, n_tT = int(t - s), int(T - t)
        lp = chain_log_prices(model, [n_st + n_tT, n_tT])
        lhs_vec = np.exp(lp[n_st + n_tT])
        v = np.exp(lp[n_tT])
        discounted = model.discounted_transition()
        for _ in range(n_st):
            v = discounted @ v
        gap = float(np.abs(v - lhs_vec).max())
        idx = model.initial_state
        return TowerReport(
            s, t, T, float(lhs_vec[idx]), float(v[idx]), gap, 0.0, 0, True
        )

    # jump model: simulate continuations of [s, t] from the state at s
    if n < 2:
        raise ValueError("need at least 2 paths")
    window = float(t - s)
    state_s = initial_state_of(model)
    lhs = price_closed_form(model, state_s, s, T, regime)
    if window == 0.0:
        return TowerReport(s, t, T, lhs, lhs, 0.0, 0.0, n, False)
    TimeGrid(regime, window, output_step=window)  # validates the window
    restarted = conditioned(model, state_s)
    r0, delta = restarted.r0, restarted.delta
    batch = _batch_jump_times(
        restarted.intensity, window, n, seed, STREAM_CONTINUATION
    )
    price_by_count: dict[int, float] = {}
    samples = np.empty(n)
    for k, times in enumerate(batch):
        discount = math.exp(-_integral_from_zero(r0, delta, times, window))
        count = times.size
        if count not in price_by_count:
            # end rate as JumpPath.rate_at(window): every jump lies in [0, window]
            r_end = float(r0 + delta * count)
            price_by_count[count] = price_closed_form(model, r_end, t, T, regime)
        samples[k] = discount * price_by_count[count]
    rhs = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n))
    return TowerReport(s, t, T, lhs, rhs, rhs - lhs, se, n, False)
