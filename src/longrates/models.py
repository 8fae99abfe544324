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
regime)``, log P(t, T) with one row per state and one column per maturity,
and ``long_rate_table(states, regime)``, each state's exact long zero rate.
Two private hooks complete it: ``_sample(grid, n, seed, stream)``, the one
sampler, which only ``simulate_paths`` calls, and ``_tower`` (the tower
identity check). Each model implements them here, the chain's linear algebra
(`_price_pass`, `_advance`, `_perron_table`) included, so this module
imports no layer above it.

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
independent of execution order. No generator is built per path: `philox`
computes Philox4x64-10 in place on preallocated uint64 lanes, a block of
four uniforms for every path of a pass at once, exactly the numbers
``path_rng(seed, stream, i).random()`` gives. Chain steps take one uniform
each and advance every path at once. A jump path takes its Poisson jump
count from its first uniform, by inverse CDF, and its jump times from the
next ones, sorted and scaled to the horizon; a pass draws each later block
once, for the paths with that many jumps.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from . import philox

__all__ = [
    "Regime",
    "TimeGrid",
    "ConstantRate",
    "PoissonJump",
    "MarkovChain",
    "ModelSpec",
    "McEstimate",
    "ScenarioSet",
    "path_rng",
    "simulate_paths",
    "STREAM_PATHS",
    "STREAM_PRICING",
    "STREAM_CONTINUATION",
]

_MASK64 = (1 << 64) - 1
_ROW_SUM_TOL = 1e-12
_EPS = np.finfo(float).eps
_MAX_SQUARINGS = 64  # v has then taken 2^64 - 1 steps of B + sI
# float entries that one pass of a sampler or of continuous discounts may
# hold in temporary arrays
_CELLS = 1 << 17
# paths in one sampler pass, each with seven Philox lanes and a jump's draws
_PASS = _CELLS // 16

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

    The tests' reference for every scenario; no library route draws from
    it. `_uniforms` computes its Philox stream for many paths at once, so
    row i of a scenario set holds what this generator draws. A chain path
    uses one uniform per step; a jump path uses ``random(1 + N)``, its
    first uniform for the count N and the other N, sorted, for its jumps.
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
class McEstimate:
    """Monte Carlo estimate with standard error of the mean."""

    value: float
    std_error: float
    n: int

    @classmethod
    def of(cls, samples: np.ndarray) -> McEstimate:
        """Sample mean of a vector of draws and its standard error."""
        n = int(samples.size)
        return cls(float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n)), n)

    def z_score(self, reference: float) -> float:
        """Standard errors from a reference value; agreement at float
        precision is exact (0.0), so degenerate samples cannot turn rounding
        noise into a huge z. A real gap with no standard error gives inf."""
        diff = self.value - reference
        if abs(diff) <= 16.0 * _EPS * max(1.0, abs(reference)):
            return 0.0
        if self.std_error > 0:
            return diff / self.std_error
        return math.inf


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

    def long_rate_table(self, states, regime: Regime) -> np.ndarray:
        self.require_regime(regime)
        return np.full(len(states), float(self.rate))

    def _sample(self, grid: TimeGrid, n: int, seed: int, stream: int) -> ScenarioSet:
        # nothing to draw: a one-state chain, or paths without jumps
        if grid.regime is Regime.DISCRETE:
            states = np.zeros((n, int(grid.horizon) + 1), dtype=np.int64)
            rates = np.array([self.rate], dtype=float)
            return ScenarioSet(grid, states=states, state_rates=rates)
        return ScenarioSet(grid, level=self.rate, jump_times=np.empty(0),
                           offsets=np.zeros(n + 1, dtype=np.int64))

    def _tower(self, s, t, T, regime: Regime, n: int, seed: int) -> tuple:
        p_st, lhs = map(math.exp, self.log_price_table([None], s, [t, T], regime)[0])
        p_tT = math.exp(self.log_price_table([None], t, [T], regime)[0, 0])
        # deterministic bank account: B_s / B_t = P(s, t)
        rhs = p_st * p_tT
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

    def long_rate_table(self, states, regime: Regime) -> np.ndarray:
        """r + intensity, where the zero rate of `log_price_table` tends."""
        self.require_regime(regime)
        return np.array([self.rate_of(state) for state in states]) + self.intensity

    def _sample(self, grid: TimeGrid, n: int, seed: int, stream: int) -> ScenarioSet:
        """Path i draws ``u = path_rng(seed, stream, i).random(1 + N_i)``:
        u[0] gives its jump count N_i ~ Poisson(intensity * horizon) by
        inverse CDF (`_poisson_cdf`), and its jump times are
        ``horizon * sort(u[1:])``, as N_i jumps of a Poisson process fall
        like N_i sorted uniforms. A pass of `_PASS` paths draws each block
        of four uniforms in one Philox call, for the paths whose count
        reaches into it; uniform c >= 1 goes straight to its output slot,
        jump c - 1, and the slots are sorted in sub-passes sized from the
        pass's largest count."""
        horizon = float(grid.horizon)
        mean = self.intensity * horizon
        cdf = _poisson_cdf(mean)
        offsets = np.zeros(n + 1, dtype=np.int64)
        # one flat buffer, grown only past ten standard deviations
        flat = np.empty(int(n * mean + 10.0 * math.sqrt(n * mean)) + 16)
        for lo in range(0, n, _PASS):
            index = np.arange(lo, min(n, lo + _PASS), dtype=np.uint64)
            block = _uniforms(seed, stream, index, 4)
            counts = cdf.searchsorted(block[:, 0], side="right")
            np.minimum(counts, cdf.size - 1, out=counts)
            ends = offsets[lo + 1 : lo + 1 + index.size]
            ends[:] = offsets[lo] + np.cumsum(counts)
            if ends[-1] > flat.size:
                flat = np.concatenate([flat, np.empty(ends[-1])])
            slots = ends - counts - 1  # plus c: the slot of uniform c
            top = int(counts.max())
            for col in range(0, top + 1, 4):
                paths = np.flatnonzero(counts >= col)
                if col:
                    block = _uniforms(seed, stream, index[paths], 4, col)
                for word in range(0 if col else 1, 4):  # uniform 0 is the count
                    hit = np.flatnonzero(counts[paths] >= col + word)
                    flat[slots[paths[hit]] + (col + word)] = block[hit, word]
                del block  # before the next block is drawn
            # sorted in (paths, top) matrices of at most _CELLS / 8 cells,
            # where a path's unused cells are infinite and so sort last
            step = max(1, _CELLS // 8 // max(1, top))
            for first in range(0, index.size, step):
                part = slice(first, first + step)
                span = flat[ends[first] - counts[first] : ends[part][-1]]
                jumps = np.full((counts[part].size, top), np.inf)
                used = np.arange(top) < counts[part, None]
                jumps[used] = span
                jumps.sort(axis=1)
                np.multiply(horizon, jumps[used], out=span)
        return ScenarioSet(
            grid, level=self.r0, jump=self.delta, jump_times=flat[: offsets[-1]],
            offsets=offsets,
        )

    def _tower(self, s, t, T, regime: Regime, n: int, seed: int) -> tuple:
        """Simulated continuations of [s, t] from the initial state."""
        if n < 2:
            raise ValueError("need at least 2 paths")
        window = float(t - s)
        lhs = math.exp(self.log_price_table([self.r0], s, [T], regime)[0, 0])
        if window == 0.0:
            return lhs, lhs, 0.0, 0.0, n, False
        scen = simulate_paths(
            self, _window_grid(regime, window), n, seed, stream=STREAM_CONTINUATION
        )
        # every jump falls in [0, window], so a path ends at the rate of its
        # jump count; P(t, T) is priced once per count up to the largest
        counts = np.diff(scen.offsets)
        ends = self.r0 + self.delta * np.arange(counts.max() + 1)
        prices = np.fromiter(
            map(math.exp, self.log_price_table(ends, t, [T], regime)[:, 0]), float
        )
        rhs = McEstimate.of(scen.discounts(0.0, window) * prices[counts])
        return lhs, rhs.value, rhs.value - lhs, rhs.std_error, n, False


@dataclass(frozen=True, eq=False)
class MarkovChain(_Model):
    """Finite-state chain of one-period rates with a row-stochastic matrix.

    Its members price through `_price_pass`, the binary powers of the
    discounted matrix, and take the exact long rate from `_perron_table`.
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
        """One `_price_pass` serves every state and maturity."""
        self.require_regime(regime)
        gaps = _periods(t, maturities)
        rows = [self._index(state) for state in states]
        per_gap = _price_pass(self, gaps)[0]
        return np.column_stack([per_gap[gap][rows] for gap in gaps])

    def long_rate_table(self, states, regime: Regime) -> np.ndarray:
        """1 / x - 1 for each state's Perron growth factor x."""
        self.require_regime(regime)
        x = _perron_table(self, 1e-12)[0]
        return 1.0 / x[[self._index(state) for state in states]] - 1.0

    def _sample(self, grid: TimeGrid, n: int, seed: int, stream: int) -> ScenarioSet:
        """Row i is the path that ``path_rng(seed, stream, i)`` draws: its
        uniforms, four steps at a time, pick each next state by inverse CDF.
        A step searches ``now + 1j * u`` in the sorted table of all ``s + 1j
        * cum[s]`` once: complex numbers order by real, then imaginary part,
        so u lands ``now * n_states`` past where ``cum[now]`` puts it."""
        n_steps, n_states = int(grid.horizon), self.n_states
        index = np.arange(n, dtype=np.uint64)
        edges = (np.arange(n_states)[:, None] + 1j * self.transition.cumsum(1)).ravel()
        states = np.empty((n, n_steps + 1), dtype=np.int64)
        states[:, 0] = self.initial_state
        keys = np.empty(n, dtype=complex)
        for k in range(n_steps):
            if k % 4 == 0:  # the next four uniforms, once the last four are freed
                draws = None
                draws = _uniforms(seed, stream, index, 4, k)
            now, nxt = states[:, k], states[:, k + 1]
            keys.real, keys.imag = now, draws[:, k % 4]
            np.subtract(edges.searchsorted(keys, side="right"), now * n_states, out=nxt)
            # the clamp guards u above a row sum rounded below 1
            np.minimum(nxt, n_states - 1, out=nxt)
        return ScenarioSet(grid, states=states, state_rates=self.state_rates)

    def _tower(self, s, t, T, regime: Regime, n: int, seed: int) -> tuple:
        """Exact: the binary powers of the discounted one-step operator carry
        P(t, T) back to s from every state; the gap is the worst state's."""
        n_st, n_sT = _periods(s, (t, T)).tolist()
        lp, powers = _price_pass(self, [n_sT, n_sT - n_st])
        lhs_vec = np.exp(lp[n_sT])
        v, log_scale = _advance(powers, np.exp(lp[n_sT - n_st]), n_st)
        rhs_vec = v * math.exp(log_scale)
        gap = float(np.abs(rhs_vec - lhs_vec).max())
        idx = self.initial_state
        return float(lhs_vec[idx]), float(rhs_vec[idx]), gap, 0.0, 0, True


ModelSpec = Union[ConstantRate, PoissonJump, MarkovChain]


def _window_grid(regime: Regime, horizon) -> TimeGrid:
    """A grid over [0, horizon]; a continuous one reports only the end."""
    step = float(horizon) if regime is Regime.CONTINUOUS else None
    return TimeGrid(regime, horizon, output_step=step)


def _periods(t, maturities) -> np.ndarray:
    """Whole periods from t to each maturity; discrete times are integers."""
    times = np.append(np.asarray(maturities, dtype=float), float(t))
    # past 2**53 floats skip integers, and past 2**63 int64 wraps
    if not np.all((times == np.trunc(times)) & (np.abs(times) <= 2.0**53)):
        raise ValueError("discrete times must be integers of magnitude at most 2**53")
    return times[:-1].astype(np.int64) - int(t)


def _price_pass(model: MarkovChain, horizons) -> tuple[dict, list]:
    """Log n-period prices D^n 1 from every chain state, n in horizons, and
    the binary powers of D taken, with which `_advance` carries further
    vectors. One product with a binary power per set bit of n, so a
    horizon's prices do not depend on which other horizons are asked for."""
    want = sorted({int(n) for n in horizons})
    if want and want[0] < 0:
        raise ValueError("horizons must be non-negative")
    squarings = _binary_powers(model.discounted_transition())
    powers = list(itertools.islice(squarings, max(want, default=0).bit_length()))
    out = {}
    for n in want:
        v, log_scale = _advance(powers, np.ones(model.n_states), n)
        out[n] = log_scale + np.log(v)
    return out, powers


def _binary_powers(power: np.ndarray):
    """Yield D^(2^k), k = 0, 1, ..., as (power rescaled to a largest entry of
    1, log scale); each squaring doubles the power's relative rounding error."""
    log_scale = 0.0
    while True:
        top = float(power.max())
        power, log_scale = power / top, log_scale + math.log(top)
        yield power, log_scale
        power, log_scale = power @ power, 2.0 * log_scale


def _advance(powers, v: np.ndarray, steps: int) -> tuple[np.ndarray, float]:
    """D^steps v as (vector, log scale), from the binary powers of D in order:
    one product per set bit of steps, each followed by a rescaling of v."""
    log_scale = 0.0
    for k, (power, power_scale) in zip(range(steps.bit_length()), powers):
        if steps >> k & 1:
            v = power @ v
            top = float(v.max())
            v, log_scale = v / top, log_scale + power_scale + math.log(top)
    return v, log_scale


def _perron_table(model: MarkovChain, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each state's price-growth factor x, with a residual that bounds its error.

    (D^T 1)_i grows like the largest Perron root of the discounted matrix D
    over the classes that state i reaches; its residual is theirs at most.
    A class's block B shares its Perron vector with B + sI, whose other
    eigenvalues are smaller in modulus for any s > 0, periodic B included;
    s = (largest row sum of B) / 16 keeps aperiodic classes about as quick
    as s = 0. The root is the l1 growth under B of v <- (B + sI)^(2^k) v,
    its residual the width of the Collatz-Wielandt bracket of Bv / v,
    floored at 4 * k * eps * ratio on k states. Squaring stops once that is
    at most ``tol * max(1, ratio)``, as the floor grows with the root, and
    raises NonConvergenceError after 64 squarings.
    """
    n = model.n_states
    # I | edges squared k times links walks of up to 2**k steps; n - 1 suffice
    reach = ((model.transition > 0) | np.eye(n, dtype=bool)).astype(float)
    for _ in range(n.bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    discounted = model.discounted_transition()
    # a class: the states that reach one another, labelled by its first
    label = np.argmax(reach * reach.T, axis=1)
    root, width = np.zeros(n), np.zeros(n)
    for members in (label == first for first in np.flatnonzero(label == np.arange(n))):
        block, v = discounted[np.ix_(members, members)], np.ones(members.sum())
        # a zero block, a state that leaves at once, has root 0 and any shift
        shift = block.sum(axis=1).max() / 16 or 1.0
        powers = _binary_powers(block + shift * np.eye(v.size))
        for power, _ in itertools.islice(powers, _MAX_SQUARINGS):
            v = power @ (v / v.sum())
            w = block @ v
            # for positive v the root and the l1 ratio lie in [min, max] of w / v
            ratio, bracket = float(w.sum() / v.sum()), w / v
            residual = max(float(bracket.max() - bracket.min()), 4 * v.size * _EPS * ratio)
            if residual <= tol * max(1.0, ratio):
                break
        else:
            from .config import NonConvergenceError  # a leaf; mc runs never load it
            raise NonConvergenceError(
                f"Perron squaring did not converge in {_MAX_SQUARINGS} squarings"
            )
        root[members], width[members] = ratio, residual
    return (reach * root).max(axis=1), (reach * width).max(axis=1)


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
        self._times(times)
        if not np.isin(np.flatnonzero(np.diff(times) < 0) + 1, offsets).all():
            raise ValueError("each path's jump times must be sorted")

    @property
    def n_paths(self) -> int:
        if self.grid.regime is Regime.DISCRETE:
            return len(self.states)
        return len(self.offsets) - 1

    def _times(self, times) -> np.ndarray:
        """Times checked to lie in [0, horizon]: period indices in discrete
        time, floats in continuous time."""
        if self.grid.regime is Regime.DISCRETE:
            u = _periods(0, times)
        else:
            u = np.asarray(times, dtype=float)
        # NaN fails both comparisons
        if not np.all((u >= 0) & (u <= self.grid.horizon)):
            raise ValueError("time outside [0, horizon]")
        return u

    def states_at(self, times) -> np.ndarray:
        """States at each time, one row per path: chain indices in discrete
        time, rates in continuous time."""
        u = self._times(times)
        if self.grid.regime is Regime.DISCRETE:
            return self.states[:, u]
        n = self.n_paths
        index = np.repeat(np.arange(n), np.diff(self.offsets))
        counts = [np.bincount(index[self.jump_times <= v], minlength=n) for v in u]
        return self.level + self.jump * np.reshape(counts, (u.size, n)).T

    def rates_at(self, times) -> np.ndarray:
        """Short rates at each time, one row per path."""
        if self.grid.regime is Regime.DISCRETE:
            return self.state_rates[self.states_at(times)]
        return self.states_at(times)

    def discounts(self, s, t) -> np.ndarray:
        """B_s / B_t of each path. A discrete bank account grows by 1 + R_k
        in period k; a continuous one by the exact rate integral, level *
        (t - s) + jump * the sum of (t - max(u, s))+ over a path's jumps u."""
        s, t = self._times((s, t)).tolist()
        if s > t:
            raise ValueError("need 0 <= s <= t <= horizon")
        if self.grid.regime is Regime.DISCRETE:
            return 1.0 / np.prod((1.0 + self.state_rates)[self.states[:, s:t]], axis=1)
        out = np.empty(self.n_paths)
        # a block's temporaries, 4 entries a path and a jump, fit in _CELLS
        n, m = self.n_paths, self.jump_times.size
        rows = 1 + _CELLS * n // max(1, 4 * (n + m))
        for lo in range(0, n, rows):
            bounds = self.offsets[lo : lo + rows + 1]
            k = bounds.size - 1
            gaps = np.clip(t - self.jump_times[bounds[0] : bounds[-1]], 0.0, t - s)
            # bincount adds each path's gaps in order, so that a path's
            # discount does not depend on the other paths in its set
            inside = np.bincount(np.repeat(np.arange(k), np.diff(bounds)), gaps, k)
            out[lo : lo + k] = np.exp(-(self.level * (t - s) + self.jump * inside))
        return out


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


def _poisson_cdf(mean: float) -> np.ndarray:
    """P(N <= k) for N ~ Poisson(mean), k = 0 .. K.

    Each term comes from log space (`math.lgamma`), so the table does not
    collapse to 0 where exp(-mean) underflows (mean above ~745). It stops at
    K = mean + 12 sqrt(mean) + 40: by the Chernoff bound the mass beyond K
    is below e^-60, far under the 2^-53 step of a uniform, and the rare
    uniform above the last entry, which rounding can leave below 1, counts
    K jumps.
    """
    top = int(mean + 12.0 * math.sqrt(mean) + 40.0)
    log_mean = math.log(mean)
    log_pmf = [k * log_mean - mean - math.lgamma(k + 1.0) for k in range(top + 1)]
    return np.cumsum(np.exp(log_pmf))


def _uniforms(seed: int, stream: int, index, k: int, first: int = 0) -> np.ndarray:
    """Uniforms first .. first + k - 1 of each path's stream, one row per
    path index: row i of ``_uniforms(seed, stream, index, k)`` is
    ``path_rng(seed, stream, index[i]).random(k)``. first is a multiple of 4.

    A fresh Philox generator fills its four-word buffer from counter
    (1, 0, 0, 0), then (2, 0, 0, 0), and so on, and a uniform is
    (word >> 11) * 2**-53. Here `philox._philox` runs each counter block for
    every path of a pass at once, in passes of at most `_PASS` paths.
    """
    index = np.asarray(index, dtype=np.uint64)
    key = (int(seed) ^ int(stream)) & _MASK64
    blocks = range(first // 4 + 1, -(-(first + k) // 4) + 1)
    out = np.empty((index.size, 4 * len(blocks)))
    # equal passes, so that none is a small remainder
    rows = -(-index.size // max(1, -(-index.size // _PASS))) or 1
    for lo in range(0, index.size, rows):
        philox._philox(key, index[lo : lo + rows], blocks, out[lo : lo + rows])
    return out[:, :k]
