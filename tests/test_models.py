import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longrates.models import (
    ConstantRate,
    JumpPath,
    LatticePath,
    MarkovChain,
    PoissonJump,
    Regime,
    STREAM_CONTINUATION,
    STREAM_PATHS,
    STREAM_PRICING,
    TimeGrid,
    _batch_chain_states,
    _batch_jump_times,
    _batch_states,
    _integral_from_zero,
    _sample_jump_times,
    bank_account,
    conditioned,
    current_rate,
    initial_state_of,
    integrated_rate,
    model_label,
    path_rng,
    require_regime,
    simulate_paths,
    state_at,
    supported_regimes,
)

SYM2 = MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)


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
        assert supported_regimes(ConstantRate(0.02)) == {
            Regime.DISCRETE, Regime.CONTINUOUS,
        }
        assert supported_regimes(PoissonJump(0.05, 0.1, 0.5)) == {Regime.CONTINUOUS}
        assert supported_regimes(SYM2) == {Regime.DISCRETE}
        with pytest.raises(ValueError, match="regime"):
            require_regime(SYM2, Regime.CONTINUOUS)
        with pytest.raises(ValueError, match="1 \\+ R > 0"):
            require_regime(ConstantRate(-1.5), Regime.DISCRETE)

    def test_labels(self):
        assert model_label(SYM2) == "markov_chain(2 states)"
        assert "poisson_jump" in model_label(PoissonJump(0.05, 0.1, 0.5))


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
        # the batch route resets one generator per path; it must draw what a
        # freshly keyed path_rng(seed, stream, index) would
        lam, horizon = 2.0, 7.5
        batch = _batch_jump_times(lam, horizon, index + 1, seed, stream)
        got = list(batch)
        assert len(got) == index + 1
        for i in (0, index):
            want = _sample_jump_times(path_rng(seed, stream, i), lam, horizon)
            assert got[i].dtype == want.dtype
            assert np.array_equal(got[i], want)

    def test_batch_rejects_bad_seed_before_drawing(self):
        with pytest.raises(ValueError):
            _batch_jump_times(0.5, 1.0, 3, -1, STREAM_PATHS)

    @pytest.mark.parametrize("seed,stream,index", [
        (0, STREAM_PATHS, 0),
        (42, STREAM_PRICING, 5),
        (20260819, STREAM_CONTINUATION, 17),
        (2**64 - 1, STREAM_PRICING, 3),
        (STREAM_PATHS, STREAM_PATHS, 9),
    ])
    def test_chain_batch_rows_match_path_rng(self, seed, stream, index):
        # row i must be the path that a freshly keyed path_rng(seed, stream, i)
        # draws, stepped one state at a time by searchsorted on the CDF rows
        chain = MarkovChain(
            [0.0, 0.02, 0.05],
            [[0.2, 0.5, 0.3], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]],
            1,
        )
        n_steps = 12
        states = _batch_chain_states(chain, n_steps, index + 1, seed, stream)
        assert states.shape == (index + 1, n_steps + 1)
        cum = np.cumsum(chain.transition, axis=1)
        for i in (0, index):
            u = path_rng(seed, stream, i).random(n_steps)
            want = [chain.initial_state]
            for k in range(n_steps):
                nxt = int(np.searchsorted(cum[want[-1]], u[k], side="right"))
                want.append(min(nxt, chain.n_states - 1))
            assert states[i].tolist() == want

    def test_batch_states_match_state_at(self):
        grid = TimeGrid(Regime.CONTINUOUS, 6.0, 6.0)
        model = PoissonJump(0.05, 0.1, 0.5)
        times = (0.0, 2.5, 6.0)
        scen = simulate_paths(model, grid, 50, 4)
        got = _batch_states(model, 6.0, times, 50, 4)
        want = [[state_at(model, p, u) for u in times] for p in scen.paths]
        assert got.tolist() == want
        assert _batch_states(ConstantRate(0.03), 6.0, times, 50, 4) is None
        with pytest.raises(ValueError, match="horizon"):
            _batch_states(model, 6.0, (7.0,), 5, 4)


class TestJumpPath:
    def test_integrated_matches_hand_computation(self):
        # r = 0.02 on [0,1), 0.52 on [1,3), 1.02 on [3,5]
        path = JumpPath(0.02, 0.5, np.array([1.0, 3.0]), 5.0)
        assert path.integrated(0.0, 5.0) == pytest.approx(3.1, abs=1e-15)
        assert path.integrated(2.0, 4.0) == pytest.approx(1.54, abs=1e-15)
        assert path.integrated(2.0, 2.0) == 0.0

    def test_rate_and_count_are_right_continuous(self):
        path = JumpPath(0.02, 0.5, np.array([1.0, 3.0]), 5.0)
        assert path.rate_at(1.0) == pytest.approx(0.52)
        assert path.rate_at(0.999) == pytest.approx(0.02)
        assert path.jump_count(5.0) == 2

    def test_time_bounds_enforced(self):
        path = JumpPath(0.02, 0.5, np.array([1.0]), 5.0)
        with pytest.raises(ValueError):
            path.rate_at(5.5)
        with pytest.raises(ValueError):
            path.integrated(3.0, 2.0)

    @pytest.mark.parametrize("times", [
        [], [0.0], [0.0, 0.0, 2.5], [1.0, 3.0], [0.5, 5.0], [5.0, 5.0],
    ])
    def test_integral_from_zero_matches_path_exactly(self, times):
        times = np.array(times, dtype=float)
        path = JumpPath(0.02, 0.5, times, 5.0)
        assert _integral_from_zero(0.02, 0.5, times, 5.0) == path.integrated(0.0, 5.0)

    def test_unsorted_jumps_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            JumpPath(0.02, 0.5, np.array([3.0, 1.0]), 5.0)

    @given(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=8),
        st.floats(0.0, 10.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
    )
    def test_integral_is_additive(self, times, a, b):
        path = JumpPath(0.03, 0.25, np.sort(np.asarray(times)), 10.0)
        s, t = sorted((a, b))
        whole = path.integrated(0.0, t)
        split = path.integrated(0.0, s) + path.integrated(s, t)
        assert abs(whole - split) <= 1e-9


class TestBankAccount:
    def test_discrete_product_oracle(self):
        path = LatticePath(np.array([0.1, 0.2, 0.3]))
        assert bank_account(path, 0) == 1.0
        assert bank_account(path, 1) == pytest.approx(1.1, abs=1e-15)
        assert bank_account(path, 2) == pytest.approx(1.32, abs=1e-15)

    def test_discrete_value_set_by_earlier_rates_only(self):
        base = LatticePath(np.array([0.1, 0.2, 0.3]))
        tweaked = LatticePath(np.array([0.1, 0.2, 0.9]))
        assert bank_account(base, 2) == bank_account(tweaked, 2)
        assert bank_account(base, 2) != bank_account(base, 1)

    def test_discrete_rejects_fractional_time(self):
        path = LatticePath(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="integers"):
            bank_account(path, 0.5)

    def test_continuous_flat_path(self):
        path = JumpPath(0.04, 0.0, np.empty(0), 10.0)
        assert bank_account(path, 10.0) == pytest.approx(math.exp(0.4), rel=1e-15)
        assert integrated_rate(path, 2.0, 6.0) == pytest.approx(0.16, abs=1e-15)

    def test_integrated_rate_rejects_lattice(self):
        with pytest.raises(ValueError, match="continuous"):
            integrated_rate(LatticePath(np.array([0.1, 0.2])), 0, 1)

    @given(st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=8), st.data())
    def test_discrete_growth_is_multiplicative(self, rates, data):
        path = LatticePath(np.asarray(rates))
        t = data.draw(st.integers(0, len(rates) - 1))
        u = data.draw(st.integers(t, len(rates) - 1))
        chunk = float(np.prod(1.0 + path.rates[t:u]))
        assert bank_account(path, u) == pytest.approx(
            bank_account(path, t) * chunk, rel=1e-12
        )


class TestSimulation:
    def test_constant_paths_are_flat_and_shared(self):
        scen = simulate_paths(ConstantRate(0.03), TimeGrid(Regime.DISCRETE, 4), 5, 0)
        assert scen.n_paths == 5
        for path in scen.paths:
            assert np.all(path.rates == 0.03)

    def test_bit_identical_reruns(self):
        model = PoissonJump(0.05, 0.1, 0.5)
        grid = TimeGrid(Regime.CONTINUOUS, 10.0, 1.0)
        a = simulate_paths(model, grid, 40, 7)
        b = simulate_paths(model, grid, 40, 7)
        for pa, pb in zip(a.paths, b.paths):
            assert np.array_equal(pa.jump_times, pb.jump_times)

    def test_thread_count_does_not_change_results(self):
        model = SYM2
        grid = TimeGrid(Regime.DISCRETE, 6)
        serial = simulate_paths(model, grid, 64, 3, threads=1)
        pooled = simulate_paths(model, grid, 64, 3, threads=4)
        for pa, pb in zip(serial.paths, pooled.paths):
            assert np.array_equal(pa.rates, pb.rates)
            assert np.array_equal(pa.states, pb.states)

    def test_different_seeds_differ(self):
        grid = TimeGrid(Regime.CONTINUOUS, 10.0, 1.0)
        model = PoissonJump(0.05, 0.1, 0.5)
        a = simulate_paths(model, grid, 10, 1)
        b = simulate_paths(model, grid, 10, 2)
        assert any(
            not np.array_equal(pa.jump_times, pb.jump_times)
            for pa, pb in zip(a.paths, b.paths)
        )

    def test_poisson_count_moments(self):
        # N(4) ~ Poisson(2): check mean and variance at 4 sigma
        model = PoissonJump(0.05, 0.1, 0.5)
        scen = simulate_paths(model, TimeGrid(Regime.CONTINUOUS, 4.0, 4.0), 20_000, 11)
        counts = np.array([p.jump_times.size for p in scen.paths])
        mean_se = math.sqrt(2.0 / counts.size)
        assert abs(counts.mean() - 2.0) <= 4 * mean_se
        var_se = math.sqrt((2.0 + 3 * 4.0 - 4.0 * (counts.size - 3) / (counts.size - 1))
                           / counts.size)
        assert abs(counts.var(ddof=1) - 2.0) <= 4 * var_se

    def test_poisson_paths_never_fall(self):
        scen = simulate_paths(
            PoissonJump(0.05, 0.1, 0.5), TimeGrid(Regime.CONTINUOUS, 10.0, 0.5), 50, 5
        )
        times = scen.grid.reporting_times()
        for path in scen.paths:
            rates = path.rate_at(times)
            assert np.all(np.diff(rates) >= 0)
            assert path.jump_times.size == 0 or path.jump_times[-1] <= 10.0

    def test_chain_transition_frequency(self):
        model = MarkovChain([0.0, 0.1], [[0.7, 0.3], [0.4, 0.6]], 0)
        scen = simulate_paths(model, TimeGrid(Regime.DISCRETE, 1), 4000, 9)
        hits = np.mean([p.states[1] for p in scen.paths])
        se = math.sqrt(0.3 * 0.7 / 4000)
        assert abs(hits - 0.3) <= 4 * se

    def test_chain_paths_record_states_and_rates(self):
        scen = simulate_paths(SYM2, TimeGrid(Regime.DISCRETE, 5), 20, 1)
        for path in scen.paths:
            assert np.array_equal(path.rates, SYM2.state_rates[path.states])

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n_paths"):
            simulate_paths(SYM2, TimeGrid(Regime.DISCRETE, 3), 0, 0)
        with pytest.raises(ValueError, match="regime"):
            simulate_paths(SYM2, TimeGrid(Regime.CONTINUOUS, 3.0, 1.0), 1, 0)


class TestConditioning:
    def test_poisson_restart_shifts_r0(self):
        model = PoissonJump(0.05, 0.1, 0.5)
        restarted = conditioned(model, 0.25)
        assert restarted.r0 == 0.25
        assert restarted.delta == model.delta
        with pytest.raises(ValueError, match="below r0"):
            conditioned(model, 0.04)

    def test_chain_restart_moves_initial_state(self):
        assert conditioned(SYM2, 1).initial_state == 1
        assert conditioned(SYM2, None).initial_state == 0

    def test_state_encodings_round_trip(self):
        model = PoissonJump(0.05, 0.1, 0.5)
        path = JumpPath(0.05, 0.1, np.array([1.0, 2.0]), 5.0)
        assert state_at(model, path, 3.0) == pytest.approx(0.25)
        assert current_rate(model, state_at(model, path, 3.0)) == pytest.approx(0.25)
        assert initial_state_of(model) == 0.05
        assert initial_state_of(SYM2) == 0
        assert state_at(ConstantRate(0.03), path, 1.0) is None

    def test_chain_state_needs_recorded_states(self):
        with pytest.raises(ValueError, match="states"):
            state_at(SYM2, LatticePath(np.array([0.0, 0.1])), 1)
