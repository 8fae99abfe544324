"""The tower identity of bond prices, and the forward measure it implies.

`tower_identity_check` checks P(s, T) = E[(B_s / B_t) P(t, T)] from the state
at s: the price at s is the discounted mean of the price at t. Dividing by
P(s, t) turns the discounts into weights w = (B_s / B_t) / P(s, t) of mean 1,
the t-forward measure; `rn_weights` builds them from scenarios and
`forward_expectation` averages a payoff under them. The check uses neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import McEstimate, ModelSpec, Regime, ScenarioSet

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
        est = McEstimate.of(self.weights)
        return est.value, est.std_error


def rn_weights(scenarios: ScenarioSet, s: float, t: float, price_s_t: float) -> ForwardWeights:
    """Forward-measure weights (B_s / B_t) / P(s, t) for each path;
    `ScenarioSet.discounts` checks that 0 <= s <= t <= horizon."""
    if not (math.isfinite(price_s_t) and price_s_t > 0):
        raise ValueError("P(s, t) must be positive and finite")
    return ForwardWeights(float(s), float(t), scenarios.discounts(s, t) / price_s_t)


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
    """Comparison of P(s, T) with the reweighted forecast of P(t, T) at the
    initial state. A chain's gap is the largest |rhs - lhs| over all its
    states; the other models report rhs - lhs at the initial state."""

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
) -> TowerReport:
    """Check P(s, T) = E[(B_s / B_t) P(t, T)] from the state at s.

    Chains and constant models are evaluated exactly (gap at float noise);
    jump models average over simulated continuations of [s, t] and report a
    Monte Carlo standard error. s = t reduces to the pricing definition.
    """
    model.require_regime(regime)
    if not 0 <= s <= t <= T:
        raise ValueError("need 0 <= s <= t <= T")
    return TowerReport(s, t, T, *model._tower(s, t, T, regime, n, seed))
