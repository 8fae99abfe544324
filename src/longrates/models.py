"""Short-rate models and exact scenario simulation under the pricing measure.

Three model families are supported:

- ``ConstantRate``: flat deterministic short rate, valid in discrete or
  continuous time.
- ``PoissonJump``: continuous-time rate ``r0 + delta * N_u`` driven by a
  Poisson process ``N`` with the given intensity. Scenarios store their exact
  jump times, so rate integrals carry no discretization error.
- ``MarkovChain``: discrete-time chain over finitely many one-period rates.

The three share one protocol, so no caller needs to know which one it holds:
``regimes`` and ``require_regime(regime)``; ``label``; ``initial_state``;
``conditioned(state)``, the model restarted from a state; ``rate_of(state)``,
the short rate in a state; and ``log_price_table(states, t, maturities,
regime)``, log P(t, T) with one row per state and one column per maturity.
Three private hooks complete it: ``_sample(grid, n, seed, stream)``, the one
sampler, which only ``simulate_paths`` calls; ``_tower`` (the forward-measure
check); and ``_spectral`` (the exact long rate, chains only).

``simulate_paths`` returns a ``ScenarioSet`` of arrays, keyed by regime, and
every consumer reads scenarios from it through ``states_at``, ``rates_at``
and ``discounts``. A discrete set holds the ``(n_paths, horizon + 1)`` matrix
of state indices and the one-period rate of each index. A continuous set
holds the rate ``level + jump * N_u`` as its two numbers and every path's
sorted jump times in one vector, path i's from ``offsets[i]`` up to
``offsets[i + 1]``.

Every model is Markov in its state, and a state is encoded as the current
rate for the jump model and as the chain index for the chain. The constant
model has a single state, None. Its discrete scenarios are a one-state chain
whose states read 0; its continuous scenarios are paths without jumps whose
states read the rate. ``conditioned`` and ``rate_of`` ignore the state of a
constant model. None always means the initial state.

Per-path randomness is keyed by ``(seed, stream, path_index)`` through the
counter-based Philox generator. A scenario set is therefore a pure function
of its arguments: re-running with the same seed reproduces it bit for bit,
independent of execution order. Paths are drawn in batches: one generator is
re-keyed per path, chain steps advance every path at once, and jump paths
write their jump times into one shared vector.
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
    "ScenarioSet",
    "path_rng",
    "simulate_paths",
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
            return np.append(times, self.horizon)
        times[-1] = self.horizon  # n * step may round past it: 3 * 0.1 > 0.3
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

    def log_price_table(self, states, t, maturities, regime: Regime) -> np.ndarray:
        self.require_regime(regime)
        if regime is Regime.DISCRETE:
            row = -_periods(t, maturities) * math.log1p(self.rate)
        else:
            row = -self.rate * (np.asarray(maturities, dtype=float) - t)
        return np.tile(row, (len(states), 1))

    def _sample(self, grid: TimeGrid, n: int, seed: int, stream: int) -> ScenarioSet:
        # nothing to draw: a one-state chain, or paths without jumps
        if grid.regime is Regime.DISCRETE:
            states = np.zeros((n, int(grid.horizon) + 1), dtype=np.int64)
            rates = np.array([self.rate], dtype=float)
            return ScenarioSet(grid, states=states, state_rates=rates)
        offsets = np.zeros(n + 1, dtype=np.int64)
        return ScenarioSet(
            grid, level=self.rate, jump_times=np.empty(0), offsets=offsets
        )

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

    def log_price_table(self, states, t, maturities, regime: Regime) -> np.ndarray:
        self.require_regime(regime)
        lam, delta = self.intensity, self.delta
        tau = np.asarray(maturities, dtype=float) - t
        # math.expm1, as np.expm1 can differ from it in the last bit
        decay = np.array([math.expm1(-delta * x) for x in tau])
        rates = np.array([self.rate_of(state) for state in states])[:, None]
        return -rates * tau - lam * tau - lam * decay / delta

    def _sample(self, grid: TimeGrid, n: int, seed: int, stream: int) -> ScenarioSet:
        horizon = float(grid.horizon)
        offsets = np.zeros(n + 1, dtype=np.int64)
        # one flat buffer, doubled when full, so no per-path array is kept
        flat = np.empty(int(n * self.intensity * horizon) + 16)
        end = 0
        for i, rng in enumerate(_keyed_streams(n, seed, stream)):
            times = _sample_jump_times(rng, self.intensity, horizon)
            if end + times.size > flat.size:
                flat = np.concatenate([flat, np.empty(flat.size + times.size)])
            flat[end : end + times.size] = times
            end += times.size
            offsets[i + 1] = end
        return ScenarioSet(
            grid, level=self.r0, jump=self.delta, jump_times=flat[:end].copy(),
            offsets=offsets,
        )

    def _tower(self, s, t, T, regime: Regime, n: int, seed: int) -> tuple:
        """Simulated continuations of [s, t] from the initial state."""
        from . import pricing

        if n < 2:
            raise ValueError("need at least 2 paths")
        window = float(t - s)
        lhs = pricing.price_closed_form(self, self.r0, s, T, regime)
        if window == 0.0:
            return lhs, lhs, 0.0, 0.0, n, False
        scen = simulate_paths(
            self, _window_grid(regime, window), n, seed, stream=STREAM_CONTINUATION
        )
        # P(t, T) once per distinct end rate
        ends, per_path = np.unique(scen.states_at((window,)), return_inverse=True)
        prices = np.array([
            pricing.price_closed_form(self, r_end, t, T, regime)
            for r_end in ends.tolist()
        ])
        samples = scen.discounts(0.0, window) * prices[per_path.ravel()]
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

    def log_price_table(self, states, t, maturities, regime: Regime) -> np.ndarray:
        """One `chain_log_prices` pass serves every state and maturity."""
        from . import pricing

        self.require_regime(regime)
        gaps = _periods(t, maturities)
        rows = [self._index(state) for state in states]
        per_gap = pricing.chain_log_prices(self, gaps)
        return np.column_stack([per_gap[gap][rows] for gap in gaps])

    def _sample(self, grid: TimeGrid, n: int, seed: int, stream: int) -> ScenarioSet:
        """Row i is the path that ``path_rng(seed, stream, i)`` draws: its
        uniforms ``rng.random(n_steps)`` pick each next state by inverse CDF
        from the current state's cumulative transition row. Each step
        advances every path at once, with one ``searchsorted`` per occupied
        state, so no temporary grows with n_paths times n_states."""
        n_steps = int(grid.horizon)
        draws = np.empty((n, n_steps))
        for row, rng in zip(draws, _keyed_streams(n, seed, stream)):
            rng.random(out=row)
        cum = np.cumsum(self.transition, axis=1)
        states = np.empty((n, n_steps + 1), dtype=np.int64)
        states[:, 0] = self.initial_state
        for k in range(n_steps):
            now, nxt, u = states[:, k], states[:, k + 1], draws[:, k]
            for i in np.unique(now):
                rows = now == i
                nxt[rows] = cum[i].searchsorted(u[rows], side="right")
            # the clamp guards u above a row sum rounded below 1
            np.minimum(nxt, self.n_states - 1, out=nxt)
        return ScenarioSet(grid, states=states, state_rates=self.state_rates)

    def _tower(self, s, t, T, regime: Regime, n: int, seed: int) -> tuple:
        """Exact: the discounted one-step operator carries P(t, T) back to s
        from every state; the gap is the worst state's."""
        from . import pricing

        n_st, n_sT = _periods(s, (t, T))
        lp = pricing.chain_log_prices(self, [n_sT, n_sT - n_st])
        lhs_vec = np.exp(lp[n_sT])
        v = np.exp(lp[n_sT - n_st])
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


def _as_period(u, horizon: int):
    """Period index of a whole time in [0, horizon], or an index array."""
    k = np.asarray(u, dtype=float)
    if np.any(k != np.trunc(k)):
        raise ValueError("discrete times must be integers")
    if np.any(k < 0) or np.any(k > horizon):
        raise ValueError("time outside [0, horizon]")
    return k.astype(int) if k.ndim else int(k)


def _window_grid(regime: Regime, horizon) -> TimeGrid:
    """A grid over [0, horizon]; a continuous one reports only the end."""
    step = float(horizon) if regime is Regime.CONTINUOUS else None
    return TimeGrid(regime, horizon, output_step=step)


def _periods(t, maturities) -> np.ndarray:
    """Whole periods from t to each maturity; discrete times are integers."""
    mats = np.asarray(maturities, dtype=float)
    if float(t) != int(t) or not np.all(np.isfinite(mats) & (mats == np.trunc(mats))):
        raise ValueError("discrete times must be integers")
    return mats.astype(int) - int(t)


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Simulated paths as arrays, keyed by the grid's regime.

    Discrete: ``states`` is the (n_paths, horizon + 1) matrix of state
    indices and ``state_rates`` the one-period rate of each index.
    Continuous: the rate is ``level + jump * N_u``, N_u counting a path's
    jumps at or before u; path i's jump times, sorted, are
    ``jump_times[offsets[i]:offsets[i + 1]]``.
    """

    grid: TimeGrid
    states: np.ndarray | None = None
    state_rates: np.ndarray | None = None
    level: float = 0.0
    jump: float = 0.0
    jump_times: np.ndarray | None = None
    offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.grid.regime is Regime.DISCRETE:
            shape = np.shape(self.states)
            if len(shape) != 2 or shape[1] != int(self.grid.horizon) + 1:
                raise ValueError("discrete scenarios need recorded states, "
                                 "one row of horizon + 1 per path")
            return
        times, offsets = self.jump_times, self.offsets
        if offsets[0] != 0 or offsets[-1] != times.size or np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must rise from 0 to the number of jump times")
        if times.size and (times.min() < 0 or times.max() > self.grid.horizon):
            raise ValueError("jump times must lie in [0, horizon]")
        if not np.isin(np.flatnonzero(np.diff(times) < 0) + 1, offsets).all():
            raise ValueError("each path's jump times must be sorted")

    @property
    def n_paths(self) -> int:
        if self.grid.regime is Regime.DISCRETE:
            return len(self.states)
        return len(self.offsets) - 1

    def states_at(self, times) -> np.ndarray:
        """States at each time, one row per path: chain indices in discrete
        time, rates in continuous time."""
        if self.grid.regime is Regime.DISCRETE:
            return self.states[:, _as_period(times, int(self.grid.horizon))]
        return self.level + self.jump * self._jump_counts(times)

    def rates_at(self, times) -> np.ndarray:
        """Short rates at each time, one row per path."""
        if self.grid.regime is Regime.DISCRETE:
            return self.state_rates[self.states_at(times)]
        return self.states_at(times)

    def discounts(self, s, t) -> np.ndarray:
        """B_s / B_t of each path. A discrete bank account grows by 1 + R_k
        in period k, so the ratio is set by the rates before t; a continuous
        one by the exact rate integral."""
        if self.grid.regime is Regime.DISCRETE:
            lo, hi = _as_period((s, t), int(self.grid.horizon))
            growth = 1.0 + self.state_rates
            # blocks of rows bound the (paths, periods) growth matrix
            rows = 1 + (1 << 20) // max(1, hi - lo)
            return np.concatenate([
                1.0 / np.prod(growth[block[:, lo:hi]], axis=1)
                for block in np.split(self.states, range(rows, self.n_paths, rows))
            ])
        s, t = float(s), float(t)
        if not 0 <= s <= t <= self.grid.horizon:
            raise ValueError("need 0 <= s <= t <= horizon")
        before, upto = self._jump_counts((s, t)).T
        gaps = t - self.jump_times
        first = self.offsets[:-1]
        # one ndarray.sum per path, the float a lone path's integral gets;
        # np.add.reduceat over all paths rounds differently
        inside = np.fromiter(
            (gaps[a:b].sum() for a, b in zip(first + before, first + upto)),
            float, count=self.n_paths,
        )
        integrals = self.level * (t - s) + self.jump * (before * (t - s) + inside)
        # math.exp, as np.exp can differ from it in the last bit
        return np.fromiter((math.exp(-x) for x in integrals), float, count=self.n_paths)

    def _jump_counts(self, times) -> np.ndarray:
        """Each path's number of jumps at or before each time."""
        u = np.asarray(times, dtype=float)
        if np.any(u < 0) or np.any(u > self.grid.horizon):
            raise ValueError("time outside [0, horizon]")
        n = self.n_paths
        path = np.repeat(np.arange(n), np.diff(self.offsets))
        return np.column_stack(
            [np.bincount(path[self.jump_times <= v], minlength=n) for v in u]
        )


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
    return model._sample(grid, n_paths, int(seed), stream)


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
