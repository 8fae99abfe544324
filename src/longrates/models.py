"""Short-rate models and exact scenario simulation under the pricing measure.

Three model families are supported:

- ``ConstantRate``: flat deterministic short rate, valid in discrete or
  continuous time.
- ``PoissonJump``: continuous-time rate ``r0 + delta * N_u`` driven by a
  Poisson process ``N`` with the given intensity. Paths store their exact
  jump times, so rate integrals carry no discretization error.
- ``MarkovChain``: discrete-time chain over finitely many one-period rates.

The three share one protocol, so no caller needs to know which one it holds:
``regimes`` and ``require_regime(regime)``; ``label``; ``initial_state``;
``conditioned(state)``, the model restarted from a state; ``rate_of(state)``,
the short rate in a state; ``state_at(path, u)``, a path's state at time u;
and ``log_price_table(states, t, maturities, regime)``, log P(t, T) with one
row per state and one column per maturity. Private hooks serve the batch
layers: ``_paths`` (scenario paths), ``_states_at`` (path states at given
times), ``_mc_discounts`` (Monte Carlo discounts), ``_tower`` (the
forward-measure check) and ``_spectral`` (the exact long rate, chains only).

Every model is Markov in its state, and a state is encoded as the current
rate for the jump model, the chain index for the chain, and None for the
constant model, which has a single state (written 0 in batch state arrays).
None always means the initial state.

Per-path randomness is keyed by ``(seed, stream, path_index)`` through the
counter-based Philox generator. A scenario set is therefore a pure function
of its arguments: re-running with the same seed reproduces it bit for bit,
independent of execution order. Paths are drawn in batches: one generator is
re-keyed per path, chain steps advance every path at once as an
``(n_paths, n_steps + 1)`` state matrix, and jump paths keep their own
jump-time arrays. Consumers that need only states or jump times (Monte Carlo
pricing, the forward-measure check, the monotonicity certificate) read the
batches directly and never build path objects.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

import numpy as np

__all__ = [
    "Regime",
    "TimeGrid",
    "ConstantRate",
    "PoissonJump",
    "MarkovChain",
    "ModelSpec",
    "JumpPath",
    "LatticePath",
    "ShortRatePath",
    "ScenarioSet",
    "path_rng",
    "simulate_paths",
    "bank_account",
    "integrated_rate",
    "STREAM_PATHS",
    "STREAM_PRICING",
    "STREAM_CONTINUATION",
]

_MASK64 = (1 << 64) - 1
_ROW_SUM_TOL = 1e-12

# Stream tags keep generators drawn for different purposes out of each
# other's key space even when they share a user seed.
STREAM_PATHS = 0x9E3779B97F4A7C15
STREAM_PRICING = 0xC2B2AE3D27D4EB4F
STREAM_CONTINUATION = 0x165667B19E3779F9


class Regime(Enum):
    """Time regime a model or grid lives in."""

    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


def path_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Counter-based generator for one path: key = (seed ^ stream, index).

    `_keyed_streams` reproduces these streams by re-keying a single
    generator per path, so both routes draw identical numbers.
    """
    _check_seed(seed)
    key = np.array(
        [(int(seed) ^ int(stream)) & _MASK64, int(index) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    if not 0 <= int(seed) <= _MASK64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class TimeGrid:
    """Simulation horizon plus, for continuous time, a reporting step.

    The reporting step only affects where paths are sampled for output;
    simulation itself is exact and never touches the grid.
    """

    regime: Regime
    horizon: float
    output_step: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError("horizon must be a positive finite number")
        if self.regime is Regime.DISCRETE:
            if self.horizon != int(self.horizon):
                raise ValueError("discrete horizon must be an integer")
            if self.output_step is not None:
                raise ValueError("output_step applies to continuous grids only")
        else:
            if self.output_step is None:
                raise ValueError("continuous grids need an output_step")
            if not 0 < self.output_step <= self.horizon:
                raise ValueError("output_step must lie in (0, horizon]")

    def reporting_times(self) -> np.ndarray:
        if self.regime is Regime.DISCRETE:
            return np.arange(int(self.horizon) + 1)
        step = float(self.output_step)
        n = int(math.floor(self.horizon / step + 1e-9))
        times = step * np.arange(n + 1)
        if times[-1] < self.horizon - 1e-12 * max(1.0, self.horizon):
            times = np.append(times, self.horizon)
        return times


class _Model:
    """Members the three model classes share; see the module docstring."""

    def require_regime(self, regime: Regime) -> None:
        if regime not in self.regimes:
            raise ValueError(
                f"{self.label} does not support the {regime.value} regime"
            )

    def _spectral(self):
        """Exact long rate as a `LongRateEstimate`, where one is known."""
        return None


@dataclass(frozen=True)
class ConstantRate(_Model):
    """Flat short rate; valid in both time regimes."""

    rate: float

    regimes = frozenset((Regime.DISCRETE, Regime.CONTINUOUS))
    initial_state = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate):
            raise ValueError("constant rate must be finite")

    @property
    def label(self) -> str:
        return f"constant(rate={self.rate:g})"

    def require_regime(self, regime: Regime) -> None:
        super().require_regime(regime)
        if regime is Regime.DISCRETE and self.rate <= -1.0:
            raise ValueError("discrete constant rate must satisfy 1 + R > 0")

    def conditioned(self, state=None) -> ConstantRate:
        return self

    def rate_of(self, state=None) -> float:
        return float(self.rate)

    def state_at(self, path, u) -> None:
        return None

    def log_price_table(self, states, t, maturities, regime: Regime) -> np.ndarray:
        self.require_regime(regime)
        if regime is Regime.DISCRETE:
            row = -_periods(t, maturities) * math.log1p(self.rate)
        else:
            row = -self.rate * (np.asarray(maturities, dtype=float) - t)
        return np.tile(row, (len(states), 1))

    def _paths(self, grid: TimeGrid, n: int, seed: int, stream: int) -> tuple:
        # every path is the same flat path
        if grid.regime is Regime.CONTINUOUS:
            return (JumpPath(self.rate, 0.0, np.empty(0), float(grid.horizon)),) * n
        return (LatticePath(np.full(int(grid.horizon) + 1, self.rate)),) * n

    def _states_at(self, horizon, times, n: int, seed: int) -> np.ndarray:
        _check_seed(seed)
        return np.zeros((n, len(times)))

    def _mc_discounts(self, grid: TimeGrid, n: int, seed: int) -> np.ndarray:
        _check_seed(seed)
        path = self._paths(grid, 1, seed, STREAM_PRICING)[0]
        return np.full(n, path.discount(0, grid.horizon))

    def _tower(self, s, t, T, regime: Regime, n: int, seed: int) -> tuple:
        from . import pricing

        lhs = pricing.price_closed_form(self, None, s, T, regime)
        # deterministic bank account: B_s / B_t = P(s, t)
        rhs = pricing.price_closed_form(
            self, None, s, t, regime
        ) * pricing.price_closed_form(self, None, t, T, regime)
        return lhs, rhs, rhs - lhs, 0.0, 0, True


@dataclass(frozen=True)
class PoissonJump(_Model):
    """Short rate r0 + delta * N_u, N a Poisson process with rate `intensity`."""

    r0: float
    delta: float
    intensity: float

    regimes = frozenset((Regime.CONTINUOUS,))

    def __post_init__(self) -> None:
        if not math.isfinite(self.r0):
            raise ValueError("r0 must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("jump size delta must be positive")
        if not (math.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError("intensity must be positive")

    @property
    def label(self) -> str:
        return (
            f"poisson_jump(r0={self.r0:g}, delta={self.delta:g}, "
            f"intensity={self.intensity:g})"
        )

    @property
    def initial_state(self) -> float:
        return self.r0

    def conditioned(self, state=None) -> PoissonJump:
        r_now = self.r0 if state is None else float(state)
        if r_now < self.r0 - 1e-12:
            raise ValueError("jump-model rate cannot fall below r0")
        return dataclasses.replace(self, r0=r_now)

    def rate_of(self, state=None) -> float:
        return float(self.r0 if state is None else state)

    def state_at(self, path: JumpPath, u) -> float:
        # exact float: r0 + delta * (jump count), same arithmetic as rate_at
        return float(path.rate_at(float(u)))

    def log_price_table(self, states, t, maturities, regime: Regime) -> np.ndarray:
        self.require_regime(regime)
        lam, delta = self.intensity, self.delta
        tau = np.asarray(maturities, dtype=float) - t
        # math.expm1, as np.expm1 can differ from it in the last bit
        decay = np.array([math.expm1(-delta * x) for x in tau])
        rates = np.array([self.rate_of(state) for state in states])[:, None]
        return -rates * tau - lam * tau - lam * decay / delta

    def _paths(self, grid: TimeGrid, n: int, seed: int, stream: int) -> tuple:
        horizon = float(grid.horizon)
        batch = _batch_jump_times(self.intensity, horizon, n, seed, stream)
        return tuple(JumpPath(self.r0, self.delta, t, horizon) for t in batch)

    def _states_at(self, horizon, times, n: int, seed: int) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if np.any(times < 0) or np.any(times > horizon):
            raise ValueError("time outside [0, horizon]")
        batch = _batch_jump_times(self.intensity, float(horizon), n, seed, STREAM_PATHS)
        counts = np.array([jumps.searchsorted(times, side="right") for jumps in batch])
        # exact float: r0 + delta * (jump count), the arithmetic of JumpPath.rate_at
        return self.r0 + self.delta * counts

    def _mc_discounts(self, grid: TimeGrid, n: int, seed: int) -> np.ndarray:
        window = float(grid.horizon)
        batch = _batch_jump_times(self.intensity, window, n, seed, STREAM_PRICING)
        return np.array([
            math.exp(-_integral_from_zero(self.r0, self.delta, times, window))
            for times in batch
        ])

    def _tower(self, s, t, T, regime: Regime, n: int, seed: int) -> tuple:
        """Simulated continuations of [s, t] from the initial state."""
        from . import pricing

        if n < 2:
            raise ValueError("need at least 2 paths")
        window = float(t - s)
        lhs = pricing.price_closed_form(self, self.r0, s, T, regime)
        if window == 0.0:
            return lhs, lhs, 0.0, 0.0, n, False
        TimeGrid(regime, window, output_step=window)  # validates the window
        batch = _batch_jump_times(self.intensity, window, n, seed, STREAM_CONTINUATION)
        price_by_count: dict[int, float] = {}
        samples = np.empty(n)
        for k, times in enumerate(batch):
            discount = math.exp(-_integral_from_zero(self.r0, self.delta, times, window))
            if times.size not in price_by_count:
                # end rate as JumpPath.rate_at(window): every jump lies in [0, window]
                r_end = float(self.r0 + self.delta * times.size)
                price_by_count[times.size] = pricing.price_closed_form(
                    self, r_end, t, T, regime
                )
            samples[k] = discount * price_by_count[times.size]
        rhs = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(n))
        return lhs, rhs, rhs - lhs, se, n, False


@dataclass(frozen=True, eq=False)
class MarkovChain(_Model):
    """Finite-state chain of one-period rates with a row-stochastic matrix.

    Its members price through `pricing.chain_log_prices` and take the exact
    long rate from `longrate.perron_long_rate`, looked up in those modules
    at call time (they import this one).
    """

    state_rates: np.ndarray
    transition: np.ndarray
    initial_state: int

    regimes = frozenset((Regime.DISCRETE,))

    def __post_init__(self) -> None:
        rates = np.asarray(self.state_rates, dtype=float)
        trans = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "state_rates", rates)
        object.__setattr__(self, "transition", trans)
        if rates.ndim != 1 or rates.size == 0:
            raise ValueError("state_rates must be a non-empty vector")
        if not np.all(np.isfinite(rates)):
            raise ValueError("state_rates must be finite")
        if np.any(rates <= -1.0):
            # one-period growth factors 1 + R must stay positive
            raise ValueError("state rates must satisfy 1 + R > 0")
        if trans.shape != (rates.size, rates.size):
            raise ValueError("transition must be square and match state_rates")
        if not np.all(np.isfinite(trans)) or np.any(trans < 0):
            raise ValueError("transition entries must be finite and non-negative")
        row_err = float(np.abs(trans.sum(axis=1) - 1.0).max())
        if row_err > _ROW_SUM_TOL:
            raise ValueError(
                f"transition rows must sum to 1 (max deviation {row_err:.3e})"
            )
        if not 0 <= int(self.initial_state) < rates.size:
            raise ValueError("initial_state out of range")
        object.__setattr__(self, "initial_state", int(self.initial_state))

    @property
    def n_states(self) -> int:
        return int(self.state_rates.size)

    @property
    def label(self) -> str:
        return f"markov_chain({self.n_states} states)"

    def discounted_transition(self) -> np.ndarray:
        """Transition matrix with row i scaled by 1 / (1 + R_i)."""
        return self.transition / (1.0 + self.state_rates)[:, None]

    def _index(self, state) -> int:
        idx = self.initial_state if state is None else int(state)
        if not 0 <= idx < self.n_states:
            raise ValueError("chain state out of range")
        return idx

    def conditioned(self, state=None) -> MarkovChain:
        return dataclasses.replace(self, initial_state=self._index(state))

    def rate_of(self, state=None) -> float:
        return float(self.state_rates[self._index(state)])

    def state_at(self, path: LatticePath, u) -> int:
        if path.states is None:
            raise ValueError("chain path lacks recorded states")
        return int(path.states[_as_period(u, path.horizon)])

    def log_price_table(self, states, t, maturities, regime: Regime) -> np.ndarray:
        """One `chain_log_prices` pass serves every state and maturity."""
        from . import pricing

        self.require_regime(regime)
        gaps = _periods(t, maturities)
        rows = [self._index(state) for state in states]
        per_gap = pricing.chain_log_prices(self, gaps)
        return np.column_stack([per_gap[gap][rows] for gap in gaps])

    def _paths(self, grid: TimeGrid, n: int, seed: int, stream: int) -> tuple:
        states = _batch_chain_states(self, int(grid.horizon), n, seed, stream)
        return tuple(map(LatticePath, self.state_rates[states], states))

    def _states_at(self, horizon, times, n: int, seed: int) -> np.ndarray:
        periods = [_as_period(u, int(horizon)) for u in times]
        states = _batch_chain_states(self, int(horizon), n, seed, STREAM_PATHS)
        return states[:, periods]

    def _mc_discounts(self, grid: TimeGrid, n: int, seed: int) -> np.ndarray:
        window = int(grid.horizon)
        states = _batch_chain_states(self, window, n, seed, STREAM_PRICING)
        # row-wise products of the growth factors before the window's end,
        # the arithmetic of bank_account
        growth = 1.0 + self.state_rates[states[:, :window]]
        return 1.0 / np.prod(growth, axis=1)

    def _tower(self, s, t, T, regime: Regime, n: int, seed: int) -> tuple:
        """Exact: the discounted one-step operator carries P(t, T) back to s
        from every state; the gap is the worst state's."""
        from . import pricing

        n_st, n_tT = int(t - s), int(T - t)
        lp = pricing.chain_log_prices(self, [n_st + n_tT, n_tT])
        lhs_vec = np.exp(lp[n_st + n_tT])
        v = np.exp(lp[n_tT])
        discounted = self.discounted_transition()
        for _ in range(n_st):
            v = discounted @ v
        gap = float(np.abs(v - lhs_vec).max())
        idx = self.initial_state
        return float(lhs_vec[idx]), float(v[idx]), gap, 0.0, 0, True

    def _spectral(self):
        from . import longrate

        return longrate.perron_long_rate(self)


ModelSpec = Union[ConstantRate, PoissonJump, MarkovChain]


@dataclass(frozen=True, eq=False)
class JumpPath:
    """Piecewise-constant, non-decreasing continuous-time rate path.

    The rate at time u is ``r0 + delta * N_u`` where ``N_u`` counts jump
    times <= u. Jump times are exact, so integrals over the path are too.
    """

    r0: float
    delta: float
    jump_times: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        times = np.asarray(self.jump_times, dtype=float)
        object.__setattr__(self, "jump_times", times)
        if times.ndim != 1:
            raise ValueError("jump_times must be a vector")
        if times.size and (times[0] < 0 or times[-1] > self.horizon):
            raise ValueError("jump times must lie in [0, horizon]")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise ValueError("jump times must be sorted")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")

    def _check_time(self, u) -> None:
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > self.horizon):
            raise ValueError("time outside [0, horizon]")

    def jump_count(self, u):
        """N_u: number of jumps at or before u (scalar or array)."""
        self._check_time(u)
        return np.searchsorted(self.jump_times, u, side="right")

    def rate_at(self, u):
        return self.r0 + self.delta * self.jump_count(u)

    def integrated(self, s: float, t: float) -> float:
        """Exact rate integral over [s, t].

        `_integral_from_zero` repeats this arithmetic for bare jump-time
        arrays; the two must stay in step.
        """
        if not 0 <= s <= t <= self.horizon:
            raise ValueError("need 0 <= s <= t <= horizon")
        n_before = int(np.searchsorted(self.jump_times, s, side="right"))
        inside = self.jump_times[(self.jump_times > s) & (self.jump_times <= t)]
        level = n_before * (t - s) + float(np.sum(t - inside))
        return self.r0 * (t - s) + self.delta * level

    def bank_account(self, t) -> float:
        return math.exp(self.integrated(0.0, float(t)))

    def discount(self, s, t) -> float:
        """B_s / B_t along the path."""
        return math.exp(-self.integrated(float(s), float(t)))


@dataclass(frozen=True, eq=False)
class LatticePath:
    """Discrete-time rate path; entry k is the one-period rate R_k."""

    rates: np.ndarray
    states: np.ndarray | None = None

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", rates)
        if rates.ndim != 1 or rates.size == 0:
            raise ValueError("rates must be a non-empty vector")
        if np.any(rates <= -1.0):
            raise ValueError("rates must satisfy 1 + R > 0")
        if self.states is not None:
            states = np.asarray(self.states)
            object.__setattr__(self, "states", states)
            if states.shape != rates.shape:
                raise ValueError("states must align with rates")

    @property
    def horizon(self) -> int:
        return int(self.rates.size - 1)

    def rate_at(self, u):
        """Rate at a whole time u (scalar or array), like `JumpPath.rate_at`."""
        k = _as_period(u, self.horizon)
        return self.rates[k] if np.ndim(k) else float(self.rates[k])

    def bank_account(self, t) -> float:
        return float(np.prod(1.0 + self.rates[: _as_period(t, self.horizon)]))

    def discount(self, s, t) -> float:
        """B_s / B_t along the path."""
        lo, hi = _as_period(s, self.horizon), _as_period(t, self.horizon)
        return 1.0 / float(np.prod(1.0 + self.rates[lo:hi]))


ShortRatePath = Union[JumpPath, LatticePath]


def _as_period(u, horizon: int):
    """Period index of a whole time in [0, horizon], or an index array."""
    k = np.asarray(u, dtype=float)
    if np.any(k != np.trunc(k)):
        raise ValueError("discrete times must be integers")
    if np.any(k < 0) or np.any(k > horizon):
        raise ValueError("time outside [0, horizon]")
    return k.astype(int) if k.ndim else int(k)


def _periods(t, maturities) -> np.ndarray:
    """Whole periods from t to each maturity; discrete times are integers."""
    mats = np.asarray(maturities, dtype=float)
    if float(t) != int(t) or not np.all(np.isfinite(mats) & (mats == np.trunc(mats))):
        raise ValueError("discrete times must be integers")
    return mats.astype(int) - int(t)


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Immutable batch of simulated paths plus the inputs that produced it."""

    model: ModelSpec
    grid: TimeGrid
    paths: tuple[ShortRatePath, ...]
    seed: int

    @property
    def n_paths(self) -> int:
        return len(self.paths)


def simulate_paths(
    model: ModelSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    *,
    stream: int = STREAM_PATHS,
) -> ScenarioSet:
    """Simulate n_paths exact paths of the model over the grid's horizon."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    _check_seed(seed)
    model.require_regime(grid.regime)
    paths = model._paths(grid, n_paths, seed, stream)
    return ScenarioSet(model, grid, paths, int(seed))


def _sample_jump_times(
    rng: np.random.Generator, intensity: float, horizon: float
) -> np.ndarray:
    """Exact Poisson jump times on [0, horizon] via exponential gaps."""
    mean_count = intensity * horizon
    block = int(mean_count + 10.0 * math.sqrt(mean_count) + 16.0)
    # ndarray methods rather than np.* wrappers: this runs once per path
    times = rng.exponential(1.0 / intensity, size=block).cumsum()
    while times[-1] <= horizon:
        more = rng.exponential(1.0 / intensity, size=block).cumsum()
        times = np.concatenate([times, times[-1] + more])
    # cumulative sums of non-negative gaps are sorted: keep a prefix
    return times[: times.searchsorted(horizon, side="right")].copy()


def _keyed_streams(n: int, seed: int, stream: int) -> Iterator[np.random.Generator]:
    """Generators that draw as ``path_rng(seed, stream, i)`` for i = 0..n-1.

    Rather than building a generator per path, one Philox generator is reset
    to the state a freshly keyed one starts in (key ``(seed ^ stream, i)``,
    zero counter, empty buffer), which costs a fraction of the construction.
    Each yielded generator is the same object, valid until the next is drawn.
    """
    _check_seed(seed)
    key = np.array([(int(seed) ^ int(stream)) & _MASK64, 0], dtype=np.uint64)
    bit_gen = np.random.Philox(key=key)
    fresh = bit_gen.state  # a copy; only its key's path index changes below
    rng = np.random.Generator(bit_gen)

    def rekey() -> Iterator[np.random.Generator]:
        for index in range(n):
            fresh["state"]["key"][1] = index
            bit_gen.state = fresh
            yield rng

    return rekey()


def _batch_jump_times(
    intensity: float, horizon: float, n: int, seed: int, stream: int
) -> Iterator[np.ndarray]:
    """Jump times on [0, horizon] of paths 0..n-1, as `simulate_paths` draws them."""
    return (
        _sample_jump_times(rng, intensity, horizon)
        for rng in _keyed_streams(n, seed, stream)
    )


def _batch_chain_states(
    model: MarkovChain, n_steps: int, n: int, seed: int, stream: int
) -> np.ndarray:
    """States of chain paths 0..n-1 over n_steps periods, one row per path.

    Row i is the path that ``path_rng(seed, stream, i)`` draws: its uniforms
    ``rng.random(n_steps)`` pick each next state by inverse CDF from the
    current state's cumulative transition row. Each step advances every path
    at once, with one ``searchsorted`` per occupied state, so no temporary
    grows with n_paths times n_states.
    """
    draws = np.empty((n, n_steps))
    for row, rng in zip(draws, _keyed_streams(n, seed, stream)):
        rng.random(out=row)
    cum = np.cumsum(model.transition, axis=1)
    states = np.empty((n, n_steps + 1), dtype=np.int64)
    states[:, 0] = model.initial_state
    for k in range(n_steps):
        now, nxt, u = states[:, k], states[:, k + 1], draws[:, k]
        for i in np.unique(now):
            rows = now == i
            nxt[rows] = cum[i].searchsorted(u[rows], side="right")
        # the clamp guards u above a row sum rounded below 1
        np.minimum(nxt, model.n_states - 1, out=nxt)
    return states


def _integral_from_zero(
    r0: float, delta: float, jump_times: np.ndarray, t: float
) -> float:
    """``JumpPath(r0, delta, jump_times, t).integrated(0.0, t)`` without the path.

    Same arithmetic, hence the same float: the jump times are sorted and lie
    in [0, t], so the ones inside (0, t] are those after the jumps at 0.
    """
    n_at_zero = int(jump_times.searchsorted(0.0, side="right"))
    level = n_at_zero * t + float((t - jump_times[n_at_zero:]).sum())
    return r0 * t + delta * level


def bank_account(path: ShortRatePath, t) -> float:
    """Value at t of one unit rolled at the short rate from time 0.

    Discrete paths use the exact product of per-period growth factors over
    periods strictly before t, so the value is determined by rates the
    market has already set. Continuous paths use the exact rate integral.
    """
    return path.bank_account(t)


def integrated_rate(path: ShortRatePath, s: float, t: float) -> float:
    if not isinstance(path, JumpPath):
        raise ValueError("integrated_rate applies to continuous-regime paths")
    return path.integrated(float(s), float(t))
