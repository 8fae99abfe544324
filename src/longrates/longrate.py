"""Long-rate extraction from curve tails, plus the spectral oracle for chains.

The long rate is the large-maturity asymptote of a curve quantity (the
price-growth factor x or the zero rate z). Two estimators read it off a
finite tail, and for finite-state chains the exact value is available
independently as the Perron eigenvalue of the discounted transition matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import networkx as nx
import numpy as np

from .models import MarkovChain, ModelSpec, Regime, require_regime
from .pricing import build_curves

__all__ = [
    "ExtractionMethod",
    "LongRateEstimate",
    "extract_long_rate",
    "perron_long_rate",
    "forward_zero_gap",
    "ForwardZeroGap",
    "long_zero_from_x",
    "x_from_long_zero",
]


class ExtractionMethod(Enum):
    PLAIN_TAIL = "plain_tail"
    RECIPROCAL_EXTRAPOLATION = "reciprocal_extrapolation"
    SPECTRAL = "spectral"


@dataclass(frozen=True)
class LongRateEstimate:
    """Extracted long-rate value with a residual that bounds its stability.

    For tail estimators the residual measures how much the estimate still
    moves with the schedule: last-step change for the plain tail, and the
    difference between the tail-half and all-points fits for reciprocal
    extrapolation. For the spectral method it is the width of the
    Collatz-Wielandt bracket that holds both the value and the exact root.
    """

    value: float
    method: ExtractionMethod
    residual: float
    T_used: float
    converged: bool


def extract_long_rate(
    curve_values,
    method: ExtractionMethod = ExtractionMethod.RECIPROCAL_EXTRAPOLATION,
    tol: float = 1e-4,
) -> LongRateEstimate:
    """Estimate the asymptote of (time-to-maturity, value) pairs.

    plain_tail reads the last value and uses the last increment as residual.
    reciprocal_extrapolation fits value ~ a + b / tau on the tail half of the
    schedule and returns the intercept; its residual is the intercept shift
    when the fit window widens to the whole schedule, which stays honest even
    when the tail half has so few points that the fit interpolates exactly.
    """
    pairs = np.asarray(list(curve_values), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("curve_values must be (tau, value) pairs")
    if pairs.shape[0] < 4:
        raise ValueError("need at least 4 points to extract a long rate")
    taus, values = pairs[:, 0], pairs[:, 1]
    if np.any(taus <= 0) or np.any(np.diff(taus) <= 0):
        raise ValueError("times to maturity must be positive and increasing")
    if not np.all(np.isfinite(values)):
        raise ValueError("curve values must be finite")
    if not math.isfinite(tol) or tol < 0:
        raise ValueError("tol must be a non-negative number")

    if method is ExtractionMethod.PLAIN_TAIL:
        value = float(values[-1])
        residual = float(abs(values[-1] - values[-2]))
    elif method is ExtractionMethod.RECIPROCAL_EXTRAPOLATION:
        half = pairs.shape[0] - pairs.shape[0] // 2
        a_tail = _reciprocal_intercept(taus[-half:], values[-half:])
        a_full = _reciprocal_intercept(taus, values)
        value = a_tail
        residual = abs(a_tail - a_full)
    else:
        raise ValueError("spectral extraction works on a chain, not curve values")
    return LongRateEstimate(
        value, method, residual, float(taus[-1]), residual <= tol
    )


def _reciprocal_intercept(taus: np.ndarray, values: np.ndarray) -> float:
    design = np.column_stack([np.ones(taus.size), 1.0 / taus])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return float(coef[0])


def perron_long_rate(
    model: MarkovChain, tol: float = 1e-12, max_iter: int = 10**6
) -> LongRateEstimate:
    """Exact chain long rate: Perron root of the discounted transition matrix.

    Power iteration on the positive cone; the l1 growth ratio converges to
    the dominant eigenvalue, which is the limiting per-period price-growth
    factor x from every state. Iteration stops once the Collatz-Wielandt
    bracket around the root is at most ``tol`` wide, and that width is the
    residual: it bounds the error of the returned ratio. Requires the chain
    to be irreducible and aperiodic, otherwise the limit may not exist or
    may depend on the state.
    """
    if not isinstance(model, MarkovChain):
        raise ValueError("spectral long rate is defined for finite chains")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(model.n_states))
    for i, j in zip(*np.nonzero(model.transition > 0)):
        graph.add_edge(int(i), int(j))
    if not nx.is_strongly_connected(graph):
        raise ValueError("chain is reducible; the long rate may depend on the state")
    if not nx.is_aperiodic(graph):
        raise ValueError("chain is periodic; the price-growth limit need not exist")

    discounted = model.discounted_transition()
    v = np.full(model.n_states, 1.0 / model.n_states)
    for _ in range(max_iter):
        w = discounted @ v
        # Collatz-Wielandt: for positive v the Perron root lies between the
        # smallest and largest entry of Dv / v, and so does the l1 ratio
        bracket = w / v
        width = float(bracket.max() - bracket.min())
        ratio = float(w.sum() / v.sum())
        v = w / w.sum()
        if width <= tol:
            return LongRateEstimate(ratio, ExtractionMethod.SPECTRAL, width, 0.0, True)
    raise RuntimeError(f"power iteration did not converge in {max_iter} steps")


@dataclass(frozen=True, eq=False)
class ForwardZeroGap:
    """|f - z| along a maturity schedule; zero rates average forwards, so the
    gap must shrink as the horizon grows."""

    maturities: np.ndarray
    gaps: np.ndarray

    @property
    def tail_gap(self) -> float:
        return float(self.gaps[-1])

    def is_decreasing(self) -> bool:
        # gaps at float-noise level (identical curves) may wiggle by a few ulp,
        # so allow the same absolute floor the violation rule uses
        slack = 64.0 * np.finfo(float).eps * max(1.0, float(self.gaps.max(initial=0.0)))
        return bool(np.all(np.diff(self.gaps) <= slack))


def forward_zero_gap(
    model: ModelSpec, state, t: float, maturities
) -> ForwardZeroGap:
    """Gap between forward and zero curves from one state, per maturity."""
    require_regime(model, Regime.DISCRETE)
    _, rates = build_curves(model, state, t, maturities, Regime.DISCRETE)
    gaps = np.abs(rates.forward - rates.zero)
    return ForwardZeroGap(rates.maturities, gaps)


def long_zero_from_x(x_long: float, regime: Regime) -> float:
    """Convert the asymptotic growth factor x to the long zero rate z."""
    if not (math.isfinite(x_long) and x_long > 0):
        raise ValueError("x must be positive and finite")
    if regime is Regime.DISCRETE:
        return 1.0 / x_long - 1.0
    return -math.log(x_long)


def x_from_long_zero(z_long: float, regime: Regime) -> float:
    if not math.isfinite(z_long):
        raise ValueError("z must be finite")
    if regime is Regime.DISCRETE:
        if z_long <= -1.0:
            raise ValueError("discrete z must satisfy 1 + z > 0")
        return 1.0 / (1.0 + z_long)
    return math.exp(-z_long)
