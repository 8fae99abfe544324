"""End-to-end certification that extracted long rates never fall.

For each simulated scenario the harness builds discount curves at two
observation times, conditioning on the realized state, extracts the
asymptotic price-growth factor x at both times, and counts paths where x
rises (equivalently, where the long zero rate falls) by more than a per-path
tolerance derived from the extraction residuals. For finite-state chains the
exact spectral long rate is attached as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .longrate import ExtractionMethod, extract_long_rate, perron_long_rate
from .models import (
    ConstantRate,
    MarkovChain,
    ModelSpec,
    PoissonJump,
    Regime,
    STREAM_CONTINUATION,
    _batch_states,
    model_label,
    path_rng,
    require_regime,
)
from .pricing import build_curves, chain_log_prices, price_closed_form, price_mc

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

# relative float floor added to every per-path tolerance so that exactly flat
# curves (zero residual) still get a strictly positive epsilon
_EPS_FLOOR = 64.0 * np.finfo(float).eps


class NonConvergenceError(RuntimeError):
    """Extraction did not stabilize; the maturity schedule is too short."""


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
    spectral_value: float | None = None
    spectral_gap: float | None = None

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
    if epsilon_multiplier <= 0:
        raise ValueError("epsilon_multiplier must be positive")
    scale = np.maximum(1.0, np.maximum(np.abs(x_s), np.abs(x_t)))
    epsilon = epsilon_multiplier * (residual_s + residual_t) + _EPS_FLOOR * scale
    rise = x_t - x_s
    return np.nonzero(rise > epsilon)[0], epsilon


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
    threads: int = 1,
) -> MonotonicityReport:
    """Simulate to t and certify x(s) >= x(t) - epsilon path by path.

    The maturity schedule lists times to maturity appended to each
    observation time. Conditioning on the information at s and t uses the
    Markov state there, read off the batch sampler without building paths,
    so each distinct state is priced and extracted once and shared by all
    paths that visit it. Extractions that fail to stabilize on more than 1%
    of paths abort with NonConvergenceError. ``threads`` has no effect.
    """
    require_regime(model, regime)
    if not 0 <= s < t < math.inf:
        raise ValueError("need 0 <= s < t < inf")
    taus = np.asarray(maturity_schedule, dtype=float)
    if taus.size < 4 or np.any(taus <= 0) or np.any(np.diff(taus) <= 0):
        raise ValueError("maturity schedule must be >= 4 increasing positive times")
    if regime is Regime.DISCRETE:
        if float(s) != int(s) or float(t) != int(t):
            raise ValueError("discrete observation times must be integers")
        if np.any(taus != np.round(taus)):
            raise ValueError("discrete maturity schedule must be integers")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")

    states = _batch_states(model, t, (s, t), n_paths, seed)
    if isinstance(model, MarkovChain):
        # time-homogeneous: log P(obs, obs + tau) from state i depends on tau
        # only, so one pricing pass serves both observation times
        log_prices = chain_log_prices(model, taus)
        table = np.column_stack([log_prices[int(tau)] for tau in taus])

    def estimate(column: int, obs: float) -> tuple[np.ndarray, ...]:
        """Value, residual and convergence per path at obs, with one
        extraction per distinct state."""
        if states is None:
            distinct, inverse = [None], np.zeros(n_paths, dtype=np.intp)
        else:
            distinct, inverse = np.unique(states[:, column], return_inverse=True)
        if isinstance(model, MarkovChain):
            curves = np.exp(table[distinct] / (obs + taus))
        else:
            curves = [
                build_curves(model, state, obs, obs + taus, regime)[1].x
                for state in distinct
            ]
        ests = [
            extract_long_rate(np.column_stack([taus, x]), method, tol) for x in curves
        ]
        return tuple(
            np.array([getattr(e, name) for e in ests])[inverse]
            for name in ("value", "residual", "converged")
        )

    x_s, res_s, conv_s = estimate(0, float(s))
    x_t, res_t, conv_t = estimate(1, float(t))
    n_nonconv = int(n_paths - conv_s.sum() + n_paths - conv_t.sum())
    if n_nonconv > 0.01 * (2 * n_paths):
        worst = max(res_s.max(), res_t.max())
        raise NonConvergenceError(
            f"{n_nonconv} of {2 * n_paths} extractions exceeded tol={tol:g} "
            f"(worst residual {worst:.3e}); extend the maturity schedule"
        )

    violations, epsilon = monotonicity_violations(
        x_s, x_t, res_s, res_t, epsilon_multiplier
    )
    change = x_t - x_s
    qs = np.quantile(change, [0.0, 0.25, 0.5, 0.75, 1.0])
    quantiles = {
        "min": float(qs[0]),
        "q25": float(qs[1]),
        "median": float(qs[2]),
        "q75": float(qs[3]),
        "max": float(qs[4]),
    }

    spectral_value = None
    spectral_gap = None
    if isinstance(model, MarkovChain):
        spectral = perron_long_rate(model)
        spectral_value = spectral.value
        spectral_gap = float(
            max(np.abs(x_s - spectral.value).max(), np.abs(x_t - spectral.value).max())
        )

    return MonotonicityReport(
        model_id=model_id if model_id is not None else model_label(model),
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
        spectral_value=spectral_value,
        spectral_gap=spectral_gap,
    )


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
    threads: int = 1,
) -> PoissonExampleReport:
    """Exercise the jump model end to end.

    Checks closed-form prices against Monte Carlo, the identity that the
    extrapolated long zero rate equals the current rate plus the jump
    intensity, per-path long-rate monotonicity between s and t, and the
    spread of the time-t long rate seen from s. delta = 0 degenerates to the
    constant model, where the long rate is just the rate and the spread is
    exactly zero.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if not 0 <= s < t:
        raise ValueError("need 0 <= s < t")
    model: ModelSpec
    if delta == 0.0:
        model = ConstantRate(r0)
    else:
        model = PoissonJump(r0, delta, intensity)
    regime = Regime.CONTINUOUS

    pricing = []
    for T in mc_maturities:
        closed = price_closed_form(model, None, 0.0, float(T), regime)
        mc = price_mc(model, None, 0.0, float(T), n_mc, seed, regime)
        pricing.append(PricingCheckRow(
            float(T), closed, mc.value, mc.std_error, mc.z_score(closed)
        ))

    taus = np.asarray(maturity_schedule, dtype=float)
    monotonicity = verify_dir(
        model, s, t, taus, n_paths, seed, regime,
        method=ExtractionMethod.RECIPROCAL_EXTRAPOLATION,
        epsilon_multiplier=epsilon_multiplier,
        tol=tol,
    )

    # long-zero identity at t, one extraction per distinct state
    states = _batch_states(model, float(t), (t,), n_paths, seed)
    distinct = [None] if states is None else np.unique(states[:, 0]).tolist()
    gap_max = 0.0
    bound_max = 0.0
    identity_ok = True
    for state in distinct:
        _, rates = build_curves(model, state, float(t), float(t) + taus, regime)
        est = extract_long_rate(
            np.column_stack([taus, rates.zero]),
            ExtractionMethod.RECIPROCAL_EXTRAPOLATION,
            tol,
        )
        rate_now = float(r0 if state is None else state)
        target = rate_now + intensity if delta > 0 else rate_now
        gap = abs(est.value - target)
        bound = epsilon_multiplier * est.residual + _EPS_FLOOR * max(1.0, abs(est.value))
        gap_max = max(gap_max, gap)
        bound_max = max(bound_max, bound)
        if gap > bound:
            identity_ok = False

    # spread of the time-t long rate seen from s, via exact count draws
    window = float(t - s)
    if delta == 0.0:
        spread = LongRateSpread(0.0, 0.0, 0.0, 0.0, n_continuations)
    else:
        rng = path_rng(seed, STREAM_CONTINUATION, 0)
        counts = rng.poisson(intensity * window, size=n_continuations)
        z_vals = r0 + delta * counts + intensity
        variance = float(np.var(z_vals, ddof=1))
        mean_count = intensity * window
        theoretical = delta**2 * mean_count
        # exact sampling error of the variance estimator from Poisson moments
        mu4 = delta**4 * (mean_count + 3.0 * mean_count**2)
        n = n_continuations
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
        long_zero_gap_max=float(gap_max),
        long_zero_bound_max=float(bound_max),
        long_zero_identity_ok=identity_ok,
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
