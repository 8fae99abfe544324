"""Short-rate models and exact scenario simulation under the pricing measure.

Three model families are supported:

- ``ConstantRate``: flat deterministic short rate, valid in discrete or
  continuous time.
- ``PoissonJump``: continuous-time rate ``r0 + delta * N_u`` driven by a
  Poisson process ``N`` with the given intensity. Paths store their exact
  jump times, so rate integrals carry no discretization error.
- ``MarkovChain``: discrete-time chain over finitely many one-period rates.

Per-path randomness is keyed by ``(seed, stream, path_index)`` through the
counter-based Philox generator. A scenario set is therefore a pure function
of its arguments: re-running with the same seed reproduces it bit for bit,
independent of execution order. Paths are drawn in batches: one generator is
re-keyed per path, chain steps advance every path at once as an
``(n_paths, n_steps + 1)`` state matrix, and jump paths keep their own
jump-time arrays. Consumers that need only states or jump times (Monte Carlo
pricing, the forward-measure check, the monotonicity certificate) read the
batches directly and never build path objects. ``threads`` arguments are
accepted for compatibility and have no effect.
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
    "conditioned",
    "initial_state_of",
    "state_at",
    "current_rate",
    "supported_regimes",
    "require_regime",
    "model_label",
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


@dataclass(frozen=True)
class ConstantRate:
    """Flat short rate; valid in both time regimes."""

    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate):
            raise ValueError("constant rate must be finite")


@dataclass(frozen=True)
class PoissonJump:
    """Short rate r0 + delta * N_u, N a Poisson process with rate `intensity`."""

    r0: float
    delta: float
    intensity: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r0):
            raise ValueError("r0 must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("jump size delta must be positive")
        if not (math.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError("intensity must be positive")


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Finite-state chain of one-period rates with a row-stochastic matrix."""

    state_rates: np.ndarray
    transition: np.ndarray
    initial_state: int

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

    def discounted_transition(self) -> np.ndarray:
        """Transition matrix with row i scaled by 1 / (1 + R_i)."""
        return self.transition / (1.0 + self.state_rates)[:, None]


ModelSpec = Union[ConstantRate, PoissonJump, MarkovChain]


def supported_regimes(model: ModelSpec) -> frozenset[Regime]:
    if isinstance(model, ConstantRate):
        return frozenset((Regime.DISCRETE, Regime.CONTINUOUS))
    if isinstance(model, PoissonJump):
        return frozenset((Regime.CONTINUOUS,))
    if isinstance(model, MarkovChain):
        return frozenset((Regime.DISCRETE,))
    raise TypeError(f"unknown model type: {type(model).__name__}")


def require_regime(model: ModelSpec, regime: Regime) -> None:
    if regime not in supported_regimes(model):
        raise ValueError(
            f"{model_label(model)} does not support the {regime.value} regime"
        )
    if (
        regime is Regime.DISCRETE
        and isinstance(model, ConstantRate)
        and model.rate <= -1.0
    ):
        raise ValueError("discrete constant rate must satisfy 1 + R > 0")


def model_label(model: ModelSpec) -> str:
    if isinstance(model, ConstantRate):
        return f"constant(rate={model.rate:g})"
    if isinstance(model, PoissonJump):
        return (
            f"poisson_jump(r0={model.r0:g}, delta={model.delta:g}, "
            f"intensity={model.intensity:g})"
        )
    if isinstance(model, MarkovChain):
        return f"markov_chain({model.n_states} states)"
    raise TypeError(f"unknown model type: {type(model).__name__}")


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

    def rate_at(self, u) -> float:
        return float(self.rates[_as_period(u, self.horizon)])


ShortRatePath = Union[JumpPath, LatticePath]


def _as_period(u, horizon: int) -> int:
    k = float(u)
    if k != int(k):
        raise ValueError("discrete times must be integers")
    k = int(k)
    if not 0 <= k <= horizon:
        raise ValueError("time outside [0, horizon]")
    return k


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
    threads: int = 1,
) -> ScenarioSet:
    """Simulate n_paths exact paths of the model over the grid's horizon.

    ``threads`` is accepted for compatibility and has no effect.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    _check_seed(seed)
    require_regime(model, grid.regime)
    horizon = float(grid.horizon)
    if isinstance(model, PoissonJump):
        batch = _batch_jump_times(model.intensity, horizon, n_paths, seed, stream)
        paths = tuple(JumpPath(model.r0, model.delta, t, horizon) for t in batch)
    elif isinstance(model, MarkovChain):
        states = _batch_chain_states(model, int(horizon), n_paths, seed, stream)
        paths = tuple(map(LatticePath, model.state_rates[states], states))
    elif grid.regime is Regime.CONTINUOUS:
        paths = (JumpPath(model.rate, 0.0, np.empty(0), horizon),) * n_paths
    else:
        paths = (LatticePath(np.full(int(horizon) + 1, model.rate)),) * n_paths
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


def _batch_states(
    model: ModelSpec, horizon, times, n: int, seed: int
) -> np.ndarray | None:
    """`state_at` of paths 0..n-1 of `simulate_paths` over [0, horizon].

    Row i holds path i's states at the given times; constant models have no
    state and give None. No path objects are built.
    """
    if isinstance(model, ConstantRate):
        return None
    if isinstance(model, MarkovChain):
        periods = [_as_period(u, int(horizon)) for u in times]
        states = _batch_chain_states(model, int(horizon), n, seed, STREAM_PATHS)
        return states[:, periods]
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(times > horizon):
        raise ValueError("time outside [0, horizon]")
    batch = _batch_jump_times(model.intensity, float(horizon), n, seed, STREAM_PATHS)
    counts = np.array([jumps.searchsorted(times, side="right") for jumps in batch])
    # exact float: r0 + delta * (jump count), the arithmetic of JumpPath.rate_at
    return model.r0 + model.delta * counts


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
    if isinstance(path, JumpPath):
        t = float(t)
        return math.exp(path.integrated(0.0, t))
    k = _as_period(t, path.horizon)
    return float(np.prod(1.0 + path.rates[:k]))


def integrated_rate(path: ShortRatePath, s: float, t: float) -> float:
    if not isinstance(path, JumpPath):
        raise ValueError("integrated_rate applies to continuous-regime paths")
    return path.integrated(float(s), float(t))


def conditioned(model: ModelSpec, state) -> ModelSpec:
    """Copy of the model restarted from the given state.

    All supported models are Markov in their state, so conditioning on the
    information available at an observation time reduces to restarting the
    model there. ``state`` is the current rate for jump models and the chain
    index for chains; constant models ignore it.
    """
    if isinstance(model, ConstantRate):
        return model
    if isinstance(model, PoissonJump):
        r_now = model.r0 if state is None else float(state)
        if r_now < model.r0 - 1e-12:
            raise ValueError("jump-model rate cannot fall below r0")
        return dataclasses.replace(model, r0=r_now)
    if isinstance(model, MarkovChain):
        idx = model.initial_state if state is None else int(state)
        return dataclasses.replace(model, initial_state=idx)
    raise TypeError(f"unknown model type: {type(model).__name__}")


def initial_state_of(model: ModelSpec):
    """State the model starts in, in the encoding used by `conditioned`."""
    if isinstance(model, ConstantRate):
        return None
    if isinstance(model, PoissonJump):
        return model.r0
    if isinstance(model, MarkovChain):
        return model.initial_state
    raise TypeError(f"unknown model type: {type(model).__name__}")


def state_at(model: ModelSpec, path: ShortRatePath, u):
    """State of the path at time u, in the encoding used by `conditioned`."""
    if isinstance(model, ConstantRate):
        return None
    if isinstance(model, PoissonJump):
        # exact float: r0 + delta * (jump count), same arithmetic as rate_at
        return float(path.rate_at(float(u)))
    if isinstance(model, MarkovChain):
        if path.states is None:
            raise ValueError("chain path lacks recorded states")
        return int(path.states[_as_period(u, path.horizon)])
    raise TypeError(f"unknown model type: {type(model).__name__}")


def current_rate(model: ModelSpec, state) -> float:
    """Short rate implied by a model state."""
    if isinstance(model, ConstantRate):
        return float(model.rate)
    if isinstance(model, PoissonJump):
        return float(model.r0 if state is None else state)
    if isinstance(model, MarkovChain):
        idx = model.initial_state if state is None else int(state)
        return float(model.state_rates[idx])
    raise TypeError(f"unknown model type: {type(model).__name__}")
