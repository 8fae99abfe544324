"""End-to-end certification that extracted long rates never fall.

For each simulated scenario the harness builds discount curves at two
observation times, conditioning on the realized state, extracts the
asymptotic price-growth factor x = P(t, T)^(1/(T - t)) at both times, and
counts paths where x rises (equivalently, where the long zero rate falls) by
more than a per-path tolerance derived from the extraction residuals. The
model's exact long rate (`long_rate_table`) is an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .longrate import (
    _EPS_FLOOR,
    ExtractionMethod,
    NonConvergenceError,
    _check_schedule,
    _extract_table,
    x_from_long_zero,
)
from .models import (
    ConstantRate,
    MarkovChain,
    ModelSpec,
    PoissonJump,
    Regime,
    STREAM_CONTINUATION,
    _periods,
    _window_grid,
    simulate_paths,
)
from .pricing import price_closed_form, price_mc

__all__ = [
    "NonConvergenceError",
    "MonotonicityReport",
    "monotonicity_violations",
    "verify_dir",
    "PricingCheckRow",
    "LongRateSpread",
    "PoissonExampleReport",
    "run_poisson_example",
    "FleetMember",
    "standard_fleet",
]


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Per-path long-rate comparison between two observation times.

    A violation is a path where x at the later time exceeds x at the earlier
    time by more than its tolerance `epsilon`: epsilon_multiplier * (sum of
    the two extraction residuals) plus a float-precision floor.
    `change_quantiles` summarizes x(t) - x(s) across paths; genuine moves
    are one-sided (never positive beyond tolerance).
    """

    model_id: str
    method: ExtractionMethod
    s: float
    t: float
    x_s: np.ndarray
    x_t: np.ndarray
    residual_s: np.ndarray
    residual_t: np.ndarray
    epsilon_multiplier: float
    epsilon: np.ndarray
    epsilon_max: float
    n_violations: int
    violation_indices: np.ndarray
    change_quantiles: dict[str, float]
    n_nonconverged: int
    spectral_value: float
    spectral_gap: float

    @property
    def n_paths(self) -> int:
        return int(self.x_s.size)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def monotonicity_violations(
    x_s: np.ndarray,
    x_t: np.ndarray,
    residual_s: np.ndarray,
    residual_t: np.ndarray,
    epsilon_multiplier: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices where x rises beyond tolerance, and the per-path tolerances."""
    _check_multiplier(epsilon_multiplier)
    scale = np.maximum(1.0, np.maximum(np.abs(x_s), np.abs(x_t)))
    epsilon = epsilon_multiplier * (residual_s + residual_t) + _EPS_FLOOR * scale
    rise = x_t - x_s
    return np.nonzero(rise > epsilon)[0], epsilon


def _quartiles(x: np.ndarray) -> np.ndarray:
    """np.quantile(x, [0, .25, .5, .75, 1]) of finite x, bit for bit, without
    loading numpy.ma: numpy's linear rule, index -1 at and past the last index,
    on x partitioned at numpy's indices, which place tied -0.0 and 0.0."""
    at = (x.size - 1) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    lo = np.where(at >= x.size - 1, -1, np.floor(at)).astype(np.intp)
    x = np.partition(x, sorted({0, -1, *lo.tolist(), *(lo + 1).tolist()}))
    a, b, g = x[lo], x[np.where(lo < 0, -1, lo + 1)], at - lo
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def verify_dir(
    model: ModelSpec,
    s: float,
    t: float,
    maturity_schedule,
    n_paths: int,
    seed: int,
    regime: Regime,
    *,
    method: ExtractionMethod = ExtractionMethod.RECIPROCAL_EXTRAPOLATION,
    epsilon_multiplier: float = 3.0,
    tol: float = 1e-4,
    model_id: str | None = None,
) -> MonotonicityReport:
    """Simulate to t and certify x(s) >= x(t) - epsilon path by path.

    The maturity schedule lists times to maturity appended to each
    observation time; the window and settings are checked before any
    sampling. Every model is time-homogeneous and Markov, so x over time to
    maturity from the state at s or at t is one curve: one table, a row per
    distinct state of the `simulate_paths` scenarios at either time, goes
    through one extraction, and every path reads its states' rows, as it
    does the model's exact x for the spectral gap. An extraction that fails
    to stabilize on any path aborts with NonConvergenceError, so the
    report's n_nonconverged reads 0.
    """
    _check_multiplier(epsilon_multiplier)
    model.require_regime(regime)
    if not 0 <= s < t < math.inf:
        raise ValueError("need 0 <= s < t < inf")
    taus = np.asarray(maturity_schedule, dtype=float)
    _check_schedule(taus, tol)
    if regime is Regime.DISCRETE:
        _periods(s, [t, *taus])
    scenarios = simulate_paths(model, _window_grid(regime, t), n_paths, seed)

    distinct, inverse = np.unique(scenarios.states_at((s, t)), return_inverse=True)
    # log P(obs, obs + tau) from a state depends on tau only
    curves = np.exp(model.log_price_table(distinct, 0, taus, regime) / taus)
    rows = inverse.reshape(-1, 2).T
    # one row per time, one column per path
    x, residual, converged = (a[rows] for a in _extract_table(taus, curves, method, tol))
    n_nonconv = int(converged.size - converged.sum())
    if n_nonconv:
        raise NonConvergenceError(
            f"{n_nonconv} of {converged.size} extractions exceeded tol={tol:g} "
            f"(worst residual {residual.max():.3e}); extend the maturity schedule"
        )

    (x_s, x_t), (res_s, res_t) = x, residual
    violations, epsilon = monotonicity_violations(*x, *residual, epsilon_multiplier)
    qs = _quartiles(x_t - x_s)
    quantiles = dict(zip(("min", "q25", "median", "q75", "max"), map(float, qs)))

    exact = [x_from_long_zero(z, regime) for z in
             model.long_rate_table([model.initial_state, *distinct], regime)]
    return MonotonicityReport(
        model_id=model_id if model_id is not None else model.label,
        method=method,
        s=float(s),
        t=float(t),
        x_s=x_s,
        x_t=x_t,
        residual_s=res_s,
        residual_t=res_t,
        epsilon_multiplier=float(epsilon_multiplier),
        epsilon=epsilon,
        epsilon_max=float(epsilon.max()),
        n_violations=int(violations.size),
        violation_indices=violations,
        change_quantiles=quantiles,
        n_nonconverged=int(n_nonconv),
        spectral_value=exact[0],
        spectral_gap=float(np.abs(x - np.array(exact[1:])[rows]).max()),
    )


def _check_multiplier(epsilon_multiplier: float) -> None:
    if not (math.isfinite(epsilon_multiplier) and epsilon_multiplier > 0):
        raise ValueError("epsilon_multiplier must be positive and finite")


@dataclass(frozen=True)
class PricingCheckRow:
    """Closed form vs Monte Carlo for one maturity."""

    T: float
    closed_form: float
    mc_value: float
    mc_std_error: float
    z_score: float


@dataclass(frozen=True)
class LongRateSpread:
    """Sampling spread of the time-t long zero rate seen from time s.

    A variance many standard errors above zero certifies that the long rate
    is genuinely random at s: no time-s quantity can already know it.
    """

    variance: float
    theoretical: float
    std_error: float
    z_score: float
    n: int


@dataclass(frozen=True, eq=False)
class PoissonExampleReport:
    """Showcase run of the jump model: pricing, identities, monotonicity."""

    r0: float
    delta: float
    intensity: float
    s: float
    t: float
    pricing: tuple[PricingCheckRow, ...]
    long_zero_gap_max: float
    long_zero_bound_max: float
    long_zero_identity_ok: bool
    monotonicity: MonotonicityReport
    spread: LongRateSpread


def run_poisson_example(
    r0: float,
    delta: float,
    intensity: float,
    s: float,
    t: float,
    n_paths: int,
    seed: int,
    *,
    mc_maturities=(1.0, 2.0, 5.0, 10.0),
    n_mc: int = 50_000,
    maturity_schedule=(125.0, 250.0, 500.0, 1000.0),
    n_continuations: int = 100_000,
    epsilon_multiplier: float = 3.0,
    tol: float = 1e-4,
) -> PoissonExampleReport:
    """Exercise the jump model end to end.

    Runs `verify_dir` (per-path long-rate monotonicity between s and t),
    checks closed-form prices against Monte Carlo, and draws continuations
    of [s, t] from the initial state with `simulate_paths`. One table over
    their end levels gives the identity that the extrapolated long zero
    rate is the model's `long_rate_table` (the rate plus the jump
    intensity), and the spread of the time-t long rate seen from s. delta =
    0 degenerates to the constant model, where the long rate is just the
    rate and the spread is exactly zero.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if n_continuations < 2:
        raise ValueError("n_continuations must be at least 2")
    model = ConstantRate(r0) if delta == 0.0 else PoissonJump(r0, delta, intensity)
    regime = Regime.CONTINUOUS
    reciprocal = ExtractionMethod.RECIPROCAL_EXTRAPOLATION
    monotonicity = verify_dir(
        model, s, t, maturity_schedule, n_paths, seed, regime, method=reciprocal,
        epsilon_multiplier=epsilon_multiplier, tol=tol,
    )
    taus = np.asarray(maturity_schedule, dtype=float)

    pricing = []
    for T in mc_maturities:
        closed = price_closed_form(model, None, 0.0, float(T), regime)
        mc = price_mc(model, None, 0.0, float(T), n_mc, seed, regime)
        pricing.append(PricingCheckRow(
            float(T), closed, mc.value, mc.std_error, mc.z_score(closed)
        ))

    # every jump falls in [0, t - s], so a continuation ends at the level
    # of its jump count; one table holds each level up to the largest
    window, n = float(t - s), n_continuations
    scen = simulate_paths(
        model, _window_grid(regime, window), n, seed, stream=STREAM_CONTINUATION
    )
    counts = np.diff(scen.offsets)
    ends = r0 + delta * np.arange(counts.max() + 1)
    z_exact = model.long_rate_table(ends, regime)

    # long-zero identity, over time to maturity as the certificate reads it
    z_long, z_res, _ = _extract_table(
        taus, -model.log_price_table(ends, 0, taus, regime) / taus, reciprocal, tol
    )
    gap = np.abs(z_long - z_exact)
    bound = epsilon_multiplier * z_res + _EPS_FLOOR * np.maximum(1.0, np.abs(z_long))

    if delta == 0.0:
        # np.var of equal values need not be exactly 0
        spread = LongRateSpread(0.0, 0.0, 0.0, 0.0, n)
    else:
        variance = float(np.var(z_exact[counts], ddof=1))
        mean_count = intensity * window
        theoretical = delta**2 * mean_count
        # exact sampling error of the variance estimator from Poisson moments
        mu4 = delta**4 * (mean_count + 3.0 * mean_count**2)
        se = math.sqrt((mu4 - theoretical**2 * (n - 3) / (n - 1)) / n)
        spread = LongRateSpread(
            variance, theoretical, se, (variance - theoretical) / se, n
        )

    return PoissonExampleReport(
        r0=float(r0),
        delta=float(delta),
        intensity=float(intensity),
        s=float(s),
        t=float(t),
        pricing=tuple(pricing),
        long_zero_gap_max=float(gap.max()),
        long_zero_bound_max=float(bound.max()),
        long_zero_identity_ok=not np.any(gap > bound),
        monotonicity=monotonicity,
        spread=spread,
    )


@dataclass(frozen=True)
class FleetMember:
    """Named model plus the regime it runs in."""

    name: str
    model: ModelSpec
    regime: Regime


def standard_fleet() -> tuple[FleetMember, ...]:
    """Default battery of models for the verification harness.

    Chain initial states sit where the initial-state discounting bias is
    smallest, so forward and zero curves agree to 1e-4 by maturity 500.
    """
    return (
        FleetMember("constant", ConstantRate(0.03), Regime.DISCRETE),
        FleetMember(
            "markov2",
            MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0),
            Regime.DISCRETE,
        ),
        FleetMember(
            "markov3",
            MarkovChain(
                [0.02, 0.05, 0.08],
                [[0.6, 0.3, 0.1], [0.25, 0.5, 0.25], [0.1, 0.3, 0.6]],
                1,
            ),
            Regime.DISCRETE,
        ),
        FleetMember(
            "markov4",
            MarkovChain(
                [0.01, 0.04, 0.07, 0.10],
                [
                    [0.4, 0.3, 0.2, 0.1],
                    [0.3, 0.3, 0.2, 0.2],
                    [0.2, 0.2, 0.3, 0.3],
                    [0.1, 0.2, 0.3, 0.4],
                ],
                1,
            ),
            Regime.DISCRETE,
        ),
        FleetMember("poisson", PoissonJump(0.05, 0.1, 0.5), Regime.CONTINUOUS),
    )
