import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longrates.models import (
    ConstantRate,
    MarkovChain,
    PoissonJump,
    Regime,
    STREAM_CONTINUATION,
    STREAM_PATHS,
    STREAM_PRICING,
    ScenarioSet,
    TimeGrid,
    _PASS,
    _uniforms,
    path_rng,
    simulate_paths,
)
from longrates.longrate import x_from_long_zero
from longrates.verify import standard_fleet, verify_dir

from jump_law import sample_jump_times

SYM2 = MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)


def jump_set(level, jump, paths, horizon):
    """Continuous scenarios from hand-written jump times, one list per path."""
    times = np.array([u for path in paths for u in path], dtype=float)
    offsets = np.cumsum([0] + [len(path) for path in paths])
    return ScenarioSet(
        TimeGrid(Regime.CONTINUOUS, horizon, horizon),
        level=level, jump=jump, jump_times=times, offsets=offsets,
    )


def lattice_set(*paths):
    """Discrete scenarios whose path k steps through the one-period rates
    ``paths[k]``: every (path, period) has a state of its own."""
    rates = np.asarray(paths, dtype=float)
    states = np.arange(rates.size).reshape(rates.shape)
    return ScenarioSet(
        TimeGrid(Regime.DISCRETE, rates.shape[1] - 1),
        states=states, state_rates=rates.ravel(),
    )


READ_HORIZON = 8.0


@st.composite
def jump_reads(draw):
    """Sorted jump paths on [0, READ_HORIZON] and times 0 <= s <= t <= it.
    A path holds 0, 8, 9, 129 or more jumps, or a few; jumps may sit at s,
    at t, at either end, or on one another."""
    s, t = sorted(draw(st.lists(st.floats(0.0, READ_HORIZON), min_size=2, max_size=2)))
    jump = st.one_of(st.sampled_from([0.0, s, t, READ_HORIZON]),
                     st.floats(0.0, READ_HORIZON))
    size = st.one_of(st.sampled_from([0, 8, 9, 129]), st.integers(0, 12),
                     st.integers(129, 160))
    paths = draw(st.lists(size.flatmap(lambda k: st.lists(jump, min_size=k, max_size=k)),
                          min_size=1, max_size=6))
    return [sorted(path) for path in paths], s, t


def integral_by_hand(level, jump, times, s, t):
    """One path's rate integral over [s, t]: each jump u adds
    (t - max(u, s))+, summed in the path's order."""
    inside = 0.0
    for u in times:
        inside += min(max(t - u, 0.0), t - s)
    return level * (t - s) + jump * inside


def chain_path(chain, seed, stream, i, n_steps):
    """Path i drawn by hand: a freshly keyed path_rng(seed, stream, i)
    stepped one state at a time by searchsorted on the CDF rows."""
    cum = np.cumsum(chain.transition, axis=1)
    u = path_rng(seed, stream, i).random(n_steps)
    path = [chain.initial_state]
    for k in range(n_steps):
        nxt = int(np.searchsorted(cum[path[-1]], u[k], side="right"))
        path.append(min(nxt, chain.n_states - 1))
    return path


def sparse_chain(n, seed):
    """n states whose rows are mostly exact zeros, so cumulative edges tie."""
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.ones(n), n) * (rng.random((n, n)) < 0.05)
    trans[np.arange(n), rng.integers(0, n, n)] += 1e-3  # no empty row
    trans /= trans.sum(axis=1, keepdims=True)
    return MarkovChain(rng.uniform(0.0, 0.1, n), trans, n // 2)


def short_row_chain():
    """A chain whose middle row sums to 0.5, set past validation, so that
    half its draws land above the row and take the sampler's clamp."""
    chain = MarkovChain([0.0, 0.02, 0.05], np.full((3, 3), 1 / 3), 1)
    trans = chain.transition.copy()
    trans[1] = [0.2, 0.3, 0.0]
    object.__setattr__(chain, "transition", trans)
    return chain


class TestTimeGrid:
    def test_discrete_reporting_times(self):
        grid = TimeGrid(Regime.DISCRETE, 5)
        assert grid.reporting_times().tolist() == [0, 1, 2, 3, 4, 5]

    def test_continuous_reporting_times_cover_horizon(self):
        grid = TimeGrid(Regime.CONTINUOUS, 10.0, 0.5)
        times = grid.reporting_times()
        assert times[0] == 0.0 and times[-1] == 10.0
        assert np.all(np.diff(times) > 0)

    def test_ragged_horizon_appends_endpoint(self):
        times = TimeGrid(Regime.CONTINUOUS, 1.3, 0.5).reporting_times()
        assert times[-1] == 1.3

    @pytest.mark.parametrize("horizon,step", [(0.3, 0.1), (0.7, 0.1), (1.0, 0.1)])
    def test_last_step_ends_at_the_horizon(self, horizon, step):
        # 3 * 0.1 rounds past 0.3, which states_at rejects as outside the grid
        grid = TimeGrid(Regime.CONTINUOUS, horizon, step)
        times = grid.reporting_times()
        assert times[-1] == horizon
        assert times.size == round(horizon / step) + 1
        scen = simulate_paths(PoissonJump(0.05, 0.1, 0.5), grid, 3, 0)
        assert scen.rates_at(times).shape == (3, times.size)

    @pytest.mark.parametrize(
        "args",
        [
            (Regime.DISCRETE, 0),
            (Regime.DISCRETE, -3),
            (Regime.DISCRETE, 2.5),
            (Regime.DISCRETE, 5, 0.5),
            (Regime.CONTINUOUS, 5.0),
            (Regime.CONTINUOUS, 5.0, 0.0),
            (Regime.CONTINUOUS, 5.0, 6.0),
            (Regime.CONTINUOUS, math.inf, 1.0),
        ],
    )
    def test_invalid_grids(self, args):
        with pytest.raises(ValueError):
            TimeGrid(*args)


class TestModelValidation:
    def test_constant_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ConstantRate(math.nan)

    @pytest.mark.parametrize("delta,lam", [(0.0, 0.5), (-0.1, 0.5), (0.1, 0.0),
                                           (0.1, -1.0)])
    def test_poisson_rejects_bad_params(self, delta, lam):
        with pytest.raises(ValueError):
            PoissonJump(0.05, delta, lam)

    def test_chain_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovChain([0.0, 0.1], [[0.6, 0.5], [0.5, 0.5]], 0)
        with pytest.raises(ValueError, match="non-negative"):
            MarkovChain([0.0, 0.1], [[1.2, -0.2], [0.5, 0.5]], 0)

    def test_chain_rejects_rates_at_minus_one(self):
        with pytest.raises(ValueError, match="1 \\+ R > 0"):
            MarkovChain([-1.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)

    def test_chain_rejects_initial_state_out_of_range(self):
        with pytest.raises(ValueError, match="initial_state"):
            MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 2)

    def test_regime_support(self):
        assert ConstantRate(0.02).regimes == {
            Regime.DISCRETE, Regime.CONTINUOUS,
        }
        assert PoissonJump(0.05, 0.1, 0.5).regimes == {Regime.CONTINUOUS}
        assert SYM2.regimes == {Regime.DISCRETE}
        with pytest.raises(ValueError, match="regime"):
            SYM2.require_regime(Regime.CONTINUOUS)
        for rate in (-1.5, -1.0):
            with pytest.raises(ValueError, match="1 \\+ R > 0"):
                ConstantRate(rate).require_regime(Regime.DISCRETE)

    def test_labels(self):
        assert SYM2.label == "markov_chain(2 states)"
        assert "poisson_jump" in PoissonJump(0.05, 0.1, 0.5).label


class TestRng:
    def test_same_key_reproduces(self):
        a = path_rng(42, STREAM_PATHS, 7).random(5)
        b = path_rng(42, STREAM_PATHS, 7).random(5)
        assert np.array_equal(a, b)

    def test_distinct_paths_and_streams_differ(self):
        a = path_rng(42, STREAM_PATHS, 0).random(4)
        b = path_rng(42, STREAM_PATHS, 1).random(4)
        c = path_rng(42, STREAM_PRICING, 0).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x"])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValueError):
            path_rng(seed, STREAM_PATHS, 0)

    @pytest.mark.parametrize("seed,stream,index", [
        (0, STREAM_PATHS, 0),
        (42, STREAM_PRICING, 5),
        (20260819, STREAM_CONTINUATION, 17),
        (2**64 - 1, STREAM_PRICING, 3),
        (STREAM_PATHS, STREAM_PATHS, 9),
    ])
    def test_batch_rekeying_matches_path_rng(self, seed, stream, index):
        # the sampler draws every path in one numpy Philox pass; row i must
        # hold what a freshly keyed path_rng(seed, stream, i) would draw
        lam, horizon = 2.0, 7.5
        grid = TimeGrid(Regime.CONTINUOUS, horizon, horizon)
        scen = simulate_paths(PoissonJump(0.0, 1.0, lam), grid, index + 1, seed,
                              stream=stream)
        assert scen.n_paths == index + 1
        for i in (0, index):
            want = sample_jump_times(path_rng(seed, stream, i), lam, horizon)
            got = scen.jump_times[scen.offsets[i]:scen.offsets[i + 1]]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_batch_rejects_bad_seed_before_drawing(self):
        for model, regime in [
            (ConstantRate(0.03), Regime.DISCRETE),
            (ConstantRate(0.03), Regime.CONTINUOUS),
            (SYM2, Regime.DISCRETE),
            (PoissonJump(0.05, 0.1, 0.5), Regime.CONTINUOUS),
        ]:
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                simulate_paths(model, four_period_grid(regime), 3, -1)

    @pytest.mark.parametrize("seed,stream,index", [
        (0, STREAM_PATHS, 0),
        (42, STREAM_PRICING, 5),
        (20260819, STREAM_CONTINUATION, 17),
        (2**64 - 1, STREAM_PRICING, 3),
        (STREAM_PATHS, STREAM_PATHS, 9),
    ])
    def test_chain_batch_rows_match_path_rng(self, seed, stream, index):
        # every row must be the path that path_rng(seed, stream, i) draws,
        # on one state, on a few, on ties between cumulative edges and where
        # a row ends below 1; index 0 samples a single path
        chains = [
            MarkovChain([0.03], [[1.0]], 0),
            MarkovChain(
                [0.0, 0.02, 0.05],
                [[0.2, 0.5, 0.3], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]],
                1,
            ),
            sparse_chain(211, index),
            short_row_chain(),
        ]
        n_steps = 12
        grid = TimeGrid(Regime.DISCRETE, n_steps)
        for chain in chains:
            states = simulate_paths(chain, grid, index + 1, seed, stream=stream).states
            assert states.shape == (index + 1, n_steps + 1)
            for i in range(index + 1):
                assert states[i].tolist() == chain_path(chain, seed, stream, i, n_steps)

    def test_batch_states_match_state_at(self):
        grid = TimeGrid(Regime.CONTINUOUS, 6.0, 6.0)
        model = PoissonJump(0.05, 0.1, 0.5)
        times = (0.0, 2.5, 6.0)
        scen = simulate_paths(model, grid, 50, 4)
        want = []
        for i in range(50):
            jumps = sample_jump_times(path_rng(4, STREAM_PATHS, i), 0.5, 6.0)
            want.append([0.05 + 0.1 * int(np.sum(jumps <= u)) for u in times])
        assert scen.states_at(times).tolist() == want
        # a constant model's paths have no jumps: their state is the rate
        flat = simulate_paths(ConstantRate(0.03), grid, 50, 4).states_at(times)
        assert np.array_equal(flat, np.full((50, 3), 0.03))
        # in discrete time they are a one-state chain, in state 0
        grid = TimeGrid(Regime.DISCRETE, 6)
        lattice = simulate_paths(ConstantRate(0.03), grid, 50, 4).states_at((0, 3, 6))
        assert np.array_equal(lattice, np.zeros((50, 3)))
        with pytest.raises(ValueError, match="horizon"):
            scen.states_at((7.0,))


class TestKeyedSampler:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("k", [1, 3, 4, 5, 9])
    def test_numpy_philox_equals_path_rng(self, seed, k):
        # k = 4 and 5 end at and just past a block of four; 9 spans three
        index = [0, 2**32 + 1, 2**64 - 1]
        for stream in (STREAM_PATHS, STREAM_CONTINUATION):
            want = np.array([path_rng(seed, stream, i).random(k) for i in index])
            got = _uniforms(seed, stream, np.array(index, dtype=np.uint64), k)
            assert got.shape == (3, k)
            assert np.array_equal(got, want)

    def test_later_blocks_continue_the_stream(self):
        index = np.arange(5)
        want = np.array([path_rng(7, STREAM_PATHS, i).random(12) for i in index])
        assert np.array_equal(_uniforms(7, STREAM_PATHS, index, 4, 4), want[:, 4:8])
        assert np.array_equal(_uniforms(7, STREAM_PATHS, index, 5, 4), want[:, 4:9])
        assert np.array_equal(_uniforms(7, STREAM_PATHS, [3], 4, 8), want[[3], 8:])

    def test_jump_counts_follow_the_poisson_law(self):
        # share of paths without a jump and mean count, within 5 SE
        n, mean = 200_000, 1.5
        scen = simulate_paths(PoissonJump(0.05, 0.1, 0.5),
                              TimeGrid(Regime.CONTINUOUS, 3.0, 3.0), n, 20260819)
        counts = np.diff(scen.offsets)
        p0 = math.exp(-mean)
        assert abs(np.mean(counts == 0) - p0) <= 5 * math.sqrt(p0 * (1 - p0) / n)
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(mean / n)

    def test_counts_survive_an_underflowing_zero_term(self):
        # mean 800: exp(-800) underflows to 0, yet the counts stay Poisson
        assert math.exp(-800.0) == 0.0
        n, mean = 400, 800.0
        scen = simulate_paths(PoissonJump(0.0, 0.01, 80.0),
                              TimeGrid(Regime.CONTINUOUS, 10.0, 10.0), n, 3)
        counts = np.diff(scen.offsets)
        assert counts.min() > 0
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(mean / n)
        assert abs(counts.var(ddof=1) - mean) <= 0.3 * mean
        # the sampler runs these paths in several passes; rows on either
        # side of a pass edge still hold their own path's draws
        for i in [*range(0, n, 37), n - 1]:
            want = sample_jump_times(path_rng(3, STREAM_PATHS, i), 80.0, 10.0)
            got = scen.jump_times[scen.offsets[i]:scen.offsets[i + 1]]
            assert np.array_equal(got, want)

    def test_mean_time_to_horizon_sum(self):
        # E[sum of (tau - U_i)] = intensity * tau**2 / 2 over the jumps U_i
        n, lam, tau = 100_000, 0.5, 4.0
        scen = simulate_paths(PoissonJump(0.0, 1.0, lam),
                              TimeGrid(Regime.CONTINUOUS, tau, tau), n, 17)
        path = np.repeat(np.arange(n), np.diff(scen.offsets))
        sums = np.bincount(path, weights=tau - scen.jump_times, minlength=n)
        se = sums.std(ddof=1) / math.sqrt(n)
        assert abs(sums.mean() - lam * tau**2 / 2) <= 5 * se

    @pytest.mark.parametrize("n_gaps", [7, 8, 9, 129])
    def test_rows_across_the_pairwise_edge_give_exact_discounts(self, n_gaps):
        # each row must get the float of its own in-order sum; ndarray.sum
        # adds 8 or more terms pairwise and over 128 in halves, and rounds
        # these rows otherwise
        rng = np.random.default_rng(n_gaps)
        paths = [
            sorted(10.0 * rng.random(n_gaps) ** rng.uniform(1, 12)) for _ in range(300)
        ]
        paths += [[], [0.0] * n_gaps, sorted(rng.random(2 * n_gaps))]
        scen = jump_set(0.02, 0.7, paths, 10.0)
        for s, t in ((0.0, 10.0), (0.0, 9.5)):
            want = [float(np.exp(-integral_by_hand(0.02, 0.7, p, s, t))) for p in paths]
            assert scen.discounts(s, t).tolist() == want


    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("stream", [STREAM_PATHS, STREAM_CONTINUATION])
    def test_rows_on_both_sides_of_each_pass_edge(self, seed, stream):
        # one pass and three paths run as two equal passes; the last path
        # has the largest index
        n = _PASS + 3
        index = np.arange(n, dtype=np.uint64)
        index[-1] = 2**64 - 1
        got = _uniforms(seed, stream, index, 9)
        assert got.shape == (n, 9)
        half = -(-n // 2)
        for row in (0, 1, half - 1, half, _PASS - 1, _PASS, n - 1):
            want = path_rng(seed, stream, int(index[row])).random(9)
            assert np.array_equal(got[row], want), row

    @pytest.mark.parametrize("first", [8, 20, 32, 36])
    def test_blocks_up_to_the_tenth(self, first):
        index = [0, 9, 2**64 - 1]
        want = [path_rng(11, STREAM_PRICING, i).random(first + 5)[first:]
                for i in index]
        assert np.array_equal(_uniforms(11, STREAM_PRICING, index, 5, first), want)

    def test_a_far_block(self):
        # block 2**20: the reference skips the 2**20 - 1 blocks before it
        first = 4 * (2**20 - 1)
        for i in (0, 2**64 - 1):
            rng = path_rng(2**64 - 1, STREAM_PATHS, i)
            rng.bit_generator.advance(first // 4)
            got = _uniforms(2**64 - 1, STREAM_PATHS, [i], 6, first)
            assert np.array_equal(got[0], rng.random(6))

    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.sampled_from([STREAM_PATHS, STREAM_PRICING, STREAM_CONTINUATION]),
        n=st.integers(1, 2 * _PASS + 5),
        k=st.integers(1, 9),
        first=st.integers(0, 9).map(lambda block: 4 * block),
        data=st.data(),
    )
    def test_any_stream_matches_path_rng(self, seed, stream, n, k, first, data):
        base = data.draw(st.integers(0, 2**64 - n), label="base")
        index = base + np.arange(n, dtype=np.uint64)
        got = _uniforms(seed, stream, index, k, first)
        assert got.shape == (n, k)
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="rows")
        for row in {0, n - 1, *rows}:
            want = path_rng(seed, stream, base + row).random(first + k)[first:]
            assert np.array_equal(got[row], want), row

    @pytest.mark.parametrize("kind,n,horizon,kib", [
        ("jump", 20_000, 10, 2_036),
        ("jump", 2_500, 5, 507),
        ("markov4", 10_000, 7, 1_489),
    ])
    def test_sampler_peak_memory_stays_pinned(self, kind, n, horizon, kib):
        # tracemalloc peak of simulate_paths after a warm call (Python 3.11,
        # numpy 2.4.6); margin 5 %. For the jump model kib is the peak of the
        # earlier kernel, which held about ten (2, paths) temporaries a
        # Philox call; for the chain it is the peak once the last four
        # steps' draws are freed before the next four are drawn
        if kind == "jump":
            model = PoissonJump(0.05, 0.1, 0.5)
            grid = TimeGrid(Regime.CONTINUOUS, horizon, horizon)
        else:
            model = next(m.model for m in standard_fleet() if m.name == kind)
            grid = TimeGrid(Regime.DISCRETE, horizon)
        simulate_paths(model, grid, n, 1)
        tracemalloc.start()
        try:
            simulate_paths(model, grid, n, 20260819)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * kib * 1024


class TestSamplerAcrossPasses:
    """Whole scenario sets, one pass and three paths long, against the
    path-by-path reference: row i is what ``path_rng(seed, stream, i)``
    draws, on either side of the pass edge and in every later block."""

    N = _PASS + 3

    @pytest.mark.parametrize("mean", [0.5, 20.0, 100.0])
    def test_jump_rows_match_path_rng(self, mean):
        lam, horizon = mean / 4.0, 4.0
        grid = TimeGrid(Regime.CONTINUOUS, horizon, horizon)
        model = PoissonJump(0.05, 0.1, lam)
        for n, seed, stream in ((self.N, 8, STREAM_PRICING),
                                (1, 2**64 - 1, STREAM_PATHS)):
            scen = simulate_paths(model, grid, n, seed, stream=stream)
            assert scen.n_paths == n
            for i in range(n):
                want = sample_jump_times(path_rng(seed, stream, i), lam, horizon)
                got = scen.jump_times[scen.offsets[i]:scen.offsets[i + 1]]
                assert np.array_equal(got, want), i

    def test_jump_buffer_grows_past_its_estimate(self, monkeypatch):
        # counts drawn from a table for mean 40, where the model's mean of
        # 0.5 sizes the buffer, overflow it in the first pass
        from longrates import models

        table = models._poisson_cdf(40.0)
        monkeypatch.setattr(models, "_poisson_cdf", lambda mean: table)
        grid = TimeGrid(Regime.CONTINUOUS, 5.0, 5.0)
        scen = simulate_paths(PoissonJump(0.0, 1.0, 0.1), grid, self.N, 3)
        assert scen.offsets[-1] > 0.5 * self.N + 10 * math.sqrt(0.5 * self.N) + 16
        for i in (0, _PASS - 1, _PASS, self.N - 1):
            rng = path_rng(3, STREAM_PATHS, i)
            count = int(table.searchsorted(rng.random(), side="right"))
            want = 5.0 * np.sort(rng.random(min(count, table.size - 1)))
            got = scen.jump_times[scen.offsets[i]:scen.offsets[i + 1]]
            assert np.array_equal(got, want)

    def test_chain_rows_match_path_rng(self):
        # seven steps: one block of four uniforms, then three of the next
        chain = next(m.model for m in standard_fleet() if m.name == "markov4")
        n_steps = 7
        grid = TimeGrid(Regime.DISCRETE, n_steps)
        for n, seed, stream in ((self.N, 12, STREAM_PATHS),
                                (1, 2**64 - 1, STREAM_PRICING)):
            states = simulate_paths(chain, grid, n, seed, stream=stream).states
            assert states.shape == (n, n_steps + 1)
            for i in range(n):
                assert states[i].tolist() == chain_path(chain, seed, stream, i, n_steps), i


class TestJumpPath:
    def test_integrated_matches_hand_computation(self):
        # r = 0.02 on [0,1), 0.52 on [1,3), 1.02 on [3,5]
        scen = jump_set(0.02, 0.5, [[1.0, 3.0]], 5.0)
        assert scen.discounts(0.0, 5.0)[0] == pytest.approx(math.exp(-3.1), rel=2e-15)
        assert scen.discounts(2.0, 4.0)[0] == pytest.approx(math.exp(-1.54), rel=2e-15)
        assert scen.discounts(2.0, 2.0)[0] == 1.0

    def test_rate_and_count_are_right_continuous(self):
        scen = jump_set(0.02, 0.5, [[1.0, 3.0]], 5.0)
        rates = scen.rates_at((1.0, 0.999, 5.0))[0]
        assert rates == pytest.approx([0.52, 0.02, 1.02])
        assert scen.states_at((5.0,))[0, 0] == 0.02 + 0.5 * 2

    def test_time_bounds_enforced(self):
        scen = jump_set(0.02, 0.5, [[1.0]], 5.0)
        with pytest.raises(ValueError):
            scen.rates_at((5.5,))
        with pytest.raises(ValueError):
            scen.discounts(3.0, 2.0)
        with pytest.raises(ValueError):
            scen.discounts(1.0, 5.5)

    def test_nan_time_is_outside_the_window(self):
        scen = jump_set(0.02, 0.5, [[1.0]], 5.0)
        with pytest.raises(ValueError, match="time outside"):
            scen.states_at((math.nan,))

    def test_no_times_give_no_columns_in_either_regime(self):
        for scen in (jump_set(0.02, 0.5, [[1.0], []], 5.0),
                     lattice_set([0.1, 0.2], [0.3, 0.4])):
            assert scen.states_at([]).shape == (2, 0)
            assert scen.rates_at([]).shape == (2, 0)

    def test_nan_jump_time_is_refused(self):
        with pytest.raises(ValueError, match="time outside"):
            jump_set(0.02, 0.5, [[1.0, math.nan]], 5.0)

    @pytest.mark.parametrize("times", [
        [], [0.0], [0.0, 0.0, 2.5], [1.0, 3.0], [0.5, 5.0], [5.0, 5.0],
        [0.4, 0.9, 1.1, 2.3, 3.2, 4.0, 4.3, 4.5, 4.7],
    ])
    def test_integral_from_zero_matches_path_exactly(self, times):
        # the route over a whole set must give each path the float of its
        # own in-order integral; the nine jumps of the last case sum to a
        # different float in order than ndarray.sum's pairwise sum
        paths = [times, [0.25, 4.0], [], sorted(5.0 - u for u in times)]
        scen = jump_set(0.02, 0.5, paths, 5.0)
        for s, t in ((0.0, 5.0), (0.0, 2.5), (1.0, 4.0)):
            want = [float(np.exp(-integral_by_hand(0.02, 0.5, p, s, t))) for p in paths]
            assert scen.discounts(s, t).tolist() == want

    @given(case=jump_reads(), level=st.floats(-0.1, 0.3), jump=st.floats(-0.5, 0.5),
           cells=st.sampled_from([1, 64, 1 << 17]))
    def test_reads_of_a_set_are_those_of_its_paths(self, case, level, jump, cells):
        # one block a path, several, or one for the whole set
        paths, s, t = case
        with mock.patch("longrates.models._CELLS", cells):
            scen = jump_set(level, jump, paths, READ_HORIZON)
            discounts, states = scen.discounts(s, t), scen.states_at((s, t))
            alone = [jump_set(level, jump, [p], READ_HORIZON) for p in paths]
            assert discounts.tolist() == [a.discounts(s, t)[0] for a in alone]
            assert states.tolist() == [a.states_at((s, t))[0].tolist() for a in alone]
        eps = np.finfo(float).eps
        for path, discount, row in zip(paths, discounts, states):
            counts = np.searchsorted(path, [s, t], side="right")
            assert row.tolist() == (level + jump * counts).tolist()
            gaps = [min(max(t - u, 0.0), t - s) for u in path]
            exact = math.fsum(gaps)
            # an in-order sum of m gaps >= 0 is off by at most (m - 1) u
            # times their sum, u = eps / 2, and fsum by u; the last product
            # and sum add 4 u of the integral's size, and the two exps, each
            # within an ulp or two, 4 eps of the discount
            size = abs(level) * (t - s) + abs(jump) * exact
            bound = math.expm1((len(path) + 4) * eps * size) + 4 * eps
            want = math.exp(-(level * (t - s) + jump * exact))
            assert abs(discount - want) <= bound * want

    def test_unsorted_jumps_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            jump_set(0.02, 0.5, [[3.0, 1.0]], 5.0)
        # a later path may start before an earlier one ends
        assert jump_set(0.02, 0.5, [[3.0], [1.0]], 5.0).n_paths == 2
        with pytest.raises(ValueError, match="horizon"):
            jump_set(0.02, 0.5, [[1.0, 6.0]], 5.0)

    @given(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=8),
        st.floats(0.0, 10.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
    )
    def test_integral_is_additive(self, times, a, b):
        scen = jump_set(0.03, 0.25, [sorted(times)], 10.0)
        s, t = sorted((a, b))
        whole = -math.log(scen.discounts(0.0, t)[0])
        split = -math.log(scen.discounts(0.0, s)[0]) - math.log(scen.discounts(s, t)[0])
        assert abs(whole - split) <= 1e-9


class TestBankAccount:
    def test_discrete_product_oracle(self):
        scen = lattice_set([0.1, 0.2, 0.3])
        assert scen.discounts(0, 0)[0] == 1.0
        assert 1.0 / scen.discounts(0, 1)[0] == pytest.approx(1.1, abs=1e-15)
        assert 1.0 / scen.discounts(0, 2)[0] == pytest.approx(1.32, abs=1e-15)

    def test_discrete_value_set_by_earlier_rates_only(self):
        scen = lattice_set([0.1, 0.2, 0.3], [0.1, 0.2, 0.9])
        base, tweaked = scen.discounts(0, 2)
        assert base == tweaked
        assert base != scen.discounts(0, 1)[0]

    def test_discrete_rejects_fractional_time(self):
        scen = lattice_set([0.1, 0.2])
        with pytest.raises(ValueError, match="integers"):
            scen.discounts(0, 0.5)

    @pytest.mark.parametrize("big", [1e19, -1e19, 2.0**53 + 2, math.inf])
    def test_discrete_times_past_float_integers_are_refused(self, big):
        # an int64 cast would wrap 1e19 into a negative horizon
        with pytest.raises(ValueError, match=r"integers of magnitude at most 2\*\*53"):
            SYM2.log_price_table([None], 0, [big], Regime.DISCRETE)
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            SYM2.log_price_table([None], big, [1], Regime.DISCRETE)

    def test_discrete_times_up_to_2_53_are_whole_periods(self):
        table = SYM2.log_price_table([None], 0, [2.0**53], Regime.DISCRETE)
        assert table[0, 0] == pytest.approx(2.0**53 * math.log(21.0 / 22.0), rel=1e-6)

    def test_discrete_rejects_a_reversed_window(self):
        scen = simulate_paths(SYM2, TimeGrid(Regime.DISCRETE, 8), 4, 0)
        with pytest.raises(ValueError, match="s <= t"):
            scen.discounts(5, 2)

    def test_discrete_window_must_lie_in_whole_periods_of_the_horizon(self):
        scen = simulate_paths(SYM2, TimeGrid(Regime.DISCRETE, 4), 10, 0)
        with pytest.raises(ValueError, match="horizon"):
            scen.discounts(0, 9)
        with pytest.raises(ValueError, match="integers"):
            scen.discounts(0.5, 2)

    def test_continuous_flat_path(self):
        scen = jump_set(0.04, 0.0, [[]], 10.0)
        growth = 1.0 / scen.discounts(0.0, 10.0)[0]
        assert growth == pytest.approx(math.exp(0.4), rel=1e-15)
        assert scen.discounts(2.0, 6.0)[0] == pytest.approx(math.exp(-0.16), rel=1e-15)

    def test_sets_without_paths_read_empty(self):
        # in both regimes a set with no path has no discount; the continuous
        # block rule must not divide by its zero paths and jumps
        no_jumps = jump_set(0.05, 0.1, [], 5.0)
        no_rows = ScenarioSet(TimeGrid(Regime.DISCRETE, 3),
                              states=np.zeros((0, 4), dtype=int), state_rates=np.zeros(1))
        for scen in (no_jumps, no_rows):
            assert scen.n_paths == 0
            assert scen.discounts(0, 1).shape == (0,)
            assert scen.states_at((1,)).shape == (0, 1)

    def test_discrete_blocks_give_the_whole_product(self):
        # 20,000 paths of 64 periods: one product of growth factors per row
        scen = simulate_paths(SYM2, TimeGrid(Regime.DISCRETE, 64), 20_000, 3)
        growth = (1.0 + SYM2.state_rates)[scen.states[:, 1:64]]
        want = 1.0 / np.prod(growth, axis=1)
        assert np.array_equal(scen.discounts(1, 64), want)

    @given(st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=8), st.data())
    def test_discrete_growth_is_multiplicative(self, rates, data):
        scen = lattice_set(rates)
        t = data.draw(st.integers(0, len(rates) - 1))
        u = data.draw(st.integers(t, len(rates) - 1))
        chunk = float(np.prod(1.0 + np.asarray(rates)[t:u]))
        assert 1.0 / scen.discounts(0, u)[0] == pytest.approx(
            chunk / scen.discounts(0, t)[0], rel=1e-12
        )


class TestSimulation:
    def test_constant_paths_are_flat_and_shared(self):
        for regime in Regime:
            grid = four_period_grid(regime)
            scen = simulate_paths(ConstantRate(0.03), grid, 5, 0)
            assert scen.n_paths == 5
            assert np.all(scen.rates_at(grid.reporting_times()) == 0.03)

    def test_bit_identical_reruns(self):
        model = PoissonJump(0.05, 0.1, 0.5)
        grid = TimeGrid(Regime.CONTINUOUS, 10.0, 1.0)
        a = simulate_paths(model, grid, 40, 7)
        b = simulate_paths(model, grid, 40, 7)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.offsets, b.offsets)

    def test_different_seeds_differ(self):
        grid = TimeGrid(Regime.CONTINUOUS, 10.0, 1.0)
        model = PoissonJump(0.05, 0.1, 0.5)
        a = simulate_paths(model, grid, 10, 1)
        b = simulate_paths(model, grid, 10, 2)
        assert a.jump_times.shape != b.jump_times.shape or not np.array_equal(
            a.jump_times, b.jump_times
        )

    def test_poisson_count_moments(self):
        # N(4) ~ Poisson(2): check mean and variance at 4 sigma
        model = PoissonJump(0.05, 0.1, 0.5)
        scen = simulate_paths(model, TimeGrid(Regime.CONTINUOUS, 4.0, 4.0), 20_000, 11)
        counts = np.diff(scen.offsets)
        mean_se = math.sqrt(2.0 / counts.size)
        assert abs(counts.mean() - 2.0) <= 4 * mean_se
        var_se = math.sqrt((2.0 + 3 * 4.0 - 4.0 * (counts.size - 3) / (counts.size - 1))
                           / counts.size)
        assert abs(counts.var(ddof=1) - 2.0) <= 4 * var_se

    def test_poisson_paths_never_fall(self):
        scen = simulate_paths(
            PoissonJump(0.05, 0.1, 0.5), TimeGrid(Regime.CONTINUOUS, 10.0, 0.5), 50, 5
        )
        rates = scen.rates_at(scen.grid.reporting_times())
        assert rates.shape == (50, 21)
        assert np.all(np.diff(rates, axis=1) >= 0)
        assert np.all(scen.jump_times <= 10.0)

    def test_chain_transition_frequency(self):
        model = MarkovChain([0.0, 0.1], [[0.7, 0.3], [0.4, 0.6]], 0)
        scen = simulate_paths(model, TimeGrid(Regime.DISCRETE, 1), 4000, 9)
        hits = np.mean(scen.states_at((1,)))
        se = math.sqrt(0.3 * 0.7 / 4000)
        assert abs(hits - 0.3) <= 4 * se

    def test_chain_paths_record_states_and_rates(self):
        scen = simulate_paths(SYM2, TimeGrid(Regime.DISCRETE, 5), 20, 1)
        assert scen.states.shape == (20, 6)
        assert np.array_equal(scen.rates_at(range(6)), SYM2.state_rates[scen.states])

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n_paths"):
            simulate_paths(SYM2, TimeGrid(Regime.DISCRETE, 3), 0, 0)
        with pytest.raises(ValueError, match="regime"):
            simulate_paths(SYM2, TimeGrid(Regime.CONTINUOUS, 3.0, 1.0), 1, 0)


class TestConditioning:
    def test_poisson_restart_shifts_r0(self):
        model = PoissonJump(0.05, 0.1, 0.5)
        restarted = model.conditioned(0.25)
        assert restarted.r0 == 0.25
        assert restarted.delta == model.delta
        with pytest.raises(ValueError, match="below r0"):
            model.conditioned(0.04)

    def test_chain_restart_moves_initial_state(self):
        assert SYM2.conditioned(1).initial_state == 1
        assert SYM2.conditioned(None).initial_state == 0

    def test_state_encodings_round_trip(self):
        model = PoissonJump(0.05, 0.1, 0.5)
        state = jump_set(0.05, 0.1, [[1.0, 2.0]], 5.0).states_at((3.0,))[0, 0]
        assert state == pytest.approx(0.25)
        assert model.rate_of(state) == pytest.approx(0.25)
        assert model.initial_state == 0.05
        assert SYM2.initial_state == 0
        flat = ConstantRate(0.03)
        assert flat.initial_state is None
        for regime in Regime:
            scen = simulate_paths(flat, four_period_grid(regime), 2, 0)
            for state in scen.states_at((0, 3))[0]:
                assert flat.rate_of(state) == 0.03
                assert flat.conditioned(state) == flat

    def test_chain_state_needs_recorded_states(self):
        grid = TimeGrid(Regime.DISCRETE, 1)
        with pytest.raises(ValueError, match="states"):
            ScenarioSet(grid, state_rates=SYM2.state_rates)
        with pytest.raises(ValueError, match="states"):
            ScenarioSet(grid, states=np.zeros((3, 3), dtype=int),
                        state_rates=SYM2.state_rates)


PROTOCOL_CASES = [
    pytest.param(m.model, m.regime, id=m.name) for m in standard_fleet()
] + [pytest.param(ConstantRate(0.03), Regime.CONTINUOUS, id="constant-continuous")]


def four_period_grid(regime):
    if regime is Regime.DISCRETE:
        return TimeGrid(regime, 4)
    return TimeGrid(regime, 4.0, 1.0)


@pytest.mark.parametrize("model,regime", PROTOCOL_CASES)
class TestProtocol:
    MATURITIES = (3, 4, 8, 25)

    def test_conditioned_on_the_initial_state_prices_like_the_model(
        self, model, regime
    ):
        restarted = model.conditioned(model.initial_state)
        want = model.log_price_table([None], 3, self.MATURITIES, regime)
        got = restarted.log_price_table([None], 3, self.MATURITIES, regime)
        assert np.array_equal(got, want)
        both = model.log_price_table(
            [model.initial_state, None], 3, self.MATURITIES, regime
        )
        assert np.array_equal(both, np.vstack([want, want]))

    def test_rate_of_the_initial_state_is_the_short_rate(self, model, regime):
        scen = simulate_paths(model, four_period_grid(regime), 1, 0)
        rate_0, rate_2 = scen.rates_at((0, 2))[0]
        assert model.rate_of(model.initial_state) == rate_0
        assert model.rate_of(None) == rate_0
        assert model.rate_of(scen.states_at((2,))[0, 0]) == rate_2

    def test_zero_time_to_maturity_has_log_price_zero(self, model, regime):
        table = model.log_price_table([None, model.initial_state], 3, (3, 5), regime)
        assert table.shape == (2, 2)
        assert np.all(table[:, 0] == 0.0)
        assert np.all(table[:, 1] < 0.0)

    def test_long_rate_table_is_where_the_zero_rate_tends(self, model, regime):
        table = model.long_rate_table([None, model.initial_state], regime)
        assert table.shape == (2,) and table[0] == table[1]
        tau = 1e7
        x_far = math.exp(model.log_price_table([None], 0, [tau], regime)[0, 0] / tau)
        assert x_from_long_zero(table[0], regime) == pytest.approx(x_far, abs=1e-6)

    def test_default_model_id_is_the_label(self, model, regime):
        report = verify_dir(model, 0, 1, (125, 250, 500, 1000), 20, 1, regime)
        assert report.model_id == model.label

    def test_unsupported_regimes_raise(self, model, regime):
        assert regime in model.regimes
        for other in Regime:
            if other in model.regimes:
                model.require_regime(other)
                continue
            with pytest.raises(ValueError, match="regime"):
                model.require_regime(other)
            with pytest.raises(ValueError, match="regime"):
                model.log_price_table([None], 0, self.MATURITIES, other)
            with pytest.raises(ValueError, match="regime"):
                model.long_rate_table([None], other)
            with pytest.raises(ValueError, match="regime"):
                simulate_paths(model, four_period_grid(other), 1, 0)
