"""Long-rate extraction from curve tails, plus the spectral oracle for chains.

The long rate is the large-maturity asymptote of a curve quantity (the
price-growth factor x or the zero rate z). Two estimators read it off a
finite tail. For finite-state chains the exact value is available
independently: from each state, the largest Perron root of the discounted
transition matrix over the communicating classes that the state reaches,
which `perron_long_rate` reads from the chain's table in `models`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _MIN_TAUS, ExtractionMethod, NonConvergenceError
from .models import MarkovChain, ModelSpec, Regime, _perron_table
from .pricing import build_curves

__all__ = [
    "ExtractionMethod",
    "LongRateEstimate",
    "NonConvergenceError",
    "extract_long_rate",
    "perron_long_rate",
    "forward_zero_gap",
    "ForwardZeroGap",
    "long_zero_from_x",
    "x_from_long_zero",
]


@dataclass(frozen=True)
class LongRateEstimate:
    """Extracted long-rate value with a residual that bounds its stability.

    For tail estimators the residual measures how much the estimate still
    moves with the schedule: last-step change for the plain tail, and the
    difference between the tail-half and all-points fits for reciprocal
    extrapolation. For the spectral method it is the width, floored at
    rounding level, of the Collatz-Wielandt bracket that holds value and root.
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
    taus, values = pairs[:, 0], pairs[:, 1]
    _check_schedule(taus, tol)
    (value,), (residual,), (ok,) = _extract_table(taus, values[None], method, tol)
    return LongRateEstimate(
        float(value), method, float(residual), float(taus[-1]), bool(ok)
    )


def _check_schedule(taus: np.ndarray, tol: float) -> None:
    """What every tail extraction needs: at least `_MIN_TAUS` increasing
    positive times to maturity and a finite non-negative tol."""
    if taus.size < _MIN_TAUS or np.any(taus <= 0) or np.any(np.diff(taus) <= 0):
        raise ValueError("maturity schedule must be >= 4 increasing positive times")
    _check_tol(tol)


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol) or tol < 0:
        raise ValueError("tol must be a non-negative number")


def _extract_table(
    taus: np.ndarray, curves: np.ndarray, method: ExtractionMethod, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, residual and convergence per row of a table of curves over
    `taus`, as `extract_long_rate` reads one; the caller checks taus and tol."""
    if not np.all(np.isfinite(curves)):
        raise ValueError("curve values must be finite")
    if method is ExtractionMethod.PLAIN_TAIL:
        value, residual = curves[:, -1], np.abs(curves[:, -1] - curves[:, -2])
    elif method is ExtractionMethod.RECIPROCAL_EXTRAPOLATION:
        half = taus.size - taus.size // 2
        value = _intercepts(taus[-half:], curves[:, -half:])
        residual = np.abs(value - _intercepts(taus, curves))
    else:
        raise ValueError("spectral extraction works on a chain, not curve values")
    return value, residual, residual <= tol


def _intercepts(taus: np.ndarray, curves: np.ndarray) -> np.ndarray:
    """Least-squares intercept a of value ~ a + b / tau, per row: w, the first
    row of pinv(design), sums to 1, so a = c_0 + sum_j w_j (c_j - c_0), exact
    on flat rows; summed column by column, a row rounds alike in any table."""
    weights = np.linalg.pinv(np.column_stack([np.ones(taus.size), 1.0 / taus]))[0]
    value = curves[:, 0].copy()
    for w, column in zip(weights[1:], curves.T[1:]):
        value += w * (column - curves[:, 0])
    return value


# relative float floor of the violation rule, added to every per-path
# tolerance so that exactly flat curves (zero residual) still get a strictly
# positive epsilon
_EPS_FLOOR = 64.0 * np.finfo(float).eps


def perron_long_rate(model: MarkovChain, tol: float = 1e-12) -> LongRateEstimate:
    """Exact chain long rate x from the initial state: its `_perron_table` row."""
    if not isinstance(model, MarkovChain):
        raise ValueError("spectral long rate is defined for finite chains")
    _check_tol(tol)
    x, residual = (float(a[model.initial_state]) for a in _perron_table(model, tol))
    return LongRateEstimate(x, ExtractionMethod.SPECTRAL, residual, 0.0, True)


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
        slack = _EPS_FLOOR * max(1.0, float(self.gaps.max(initial=0.0)))
        return bool(np.all(np.diff(self.gaps) <= slack))


def forward_zero_gap(
    model: ModelSpec, state, t: float, maturities
) -> ForwardZeroGap:
    """Gap between forward and zero curves from one state, per maturity."""
    curve = build_curves(model, state, t, maturities, Regime.DISCRETE)
    return ForwardZeroGap(curve.maturities, np.abs(curve.forward - curve.zero))


def long_zero_from_x(x_long: float, regime: Regime) -> float:
    """Convert the asymptotic growth factor x to the long zero rate z."""
    if not (math.isfinite(x_long) and x_long > 0):
        raise ValueError("x must be positive and finite")
    if regime is Regime.DISCRETE:
        return 1.0 / x_long - 1.0
    return -math.log(x_long)


def x_from_long_zero(z_long: float, regime: Regime) -> float:
    """x = P(t, T)^(1/(T - t)) of zero rate z: 1 / (1 + z), or exp(-z)."""
    if not math.isfinite(z_long):
        raise ValueError("z must be finite")
    if regime is Regime.DISCRETE:
        if z_long <= -1.0:
            raise ValueError("discrete z must satisfy 1 + z > 0")
        return 1.0 / (1.0 + z_long)
    return math.exp(-z_long)
