"""The tower identity of bond prices.

`tower_identity_check` checks P(s, T) = E[(B_s / B_t) P(t, T)] from the state
at s: the price at s is the discounted mean of the price at t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import ModelSpec, Regime

__all__ = ["TowerReport", "tower_identity_check"]


@dataclass(frozen=True)
class TowerReport:
    """Comparison of P(s, T) with the discounted forecast of P(t, T) at the
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
