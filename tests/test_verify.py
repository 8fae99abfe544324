import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from longrates import verify
from longrates.longrate import ExtractionMethod, extract_long_rate, perron_long_rate
from longrates.models import (
    STREAM_CONTINUATION, STREAM_PATHS, ConstantRate, MarkovChain, PoissonJump, Regime, TimeGrid,
    path_rng, simulate_paths,
)
from longrates.pricing import build_curves
from longrates.verify import (
    NonConvergenceError,
    _quartiles,
    monotonicity_violations,
    run_poisson_example,
    standard_fleet,
    verify_dir,
)

from jump_law import sample_jump_times

SYM2 = MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)
POISSON = PoissonJump(0.05, 0.1, 0.5)
SCHEDULE = (125, 250, 500, 1000)
_RNG = np.random.default_rng(16)
CHAIN16 = MarkovChain(
    _RNG.uniform(0.0, 0.1, 16), _RNG.dirichlet(np.ones(16), size=16), 5
)


def per_path_reference(model, s, t, n_paths, seed, regime):
    """x and residuals at s and t, path by path: the states at s and t of a
    path drawn from its own path_rng -> build_curves -> extract_long_rate,
    with each (time, state) curve built once."""
    taus = np.asarray(SCHEDULE, dtype=float)

    def states(i):
        rng = path_rng(seed, STREAM_PATHS, i)
        if regime is Regime.CONTINUOUS:
            jumps = sample_jump_times(rng, model.intensity, float(t))
            return [model.r0 + model.delta * int(np.sum(jumps <= u)) for u in (s, t)]
        cum = np.cumsum(model.transition, axis=1)
        path = [model.initial_state]
        for u in rng.random(int(t)):
            nxt = int(np.searchsorted(cum[path[-1]], u, side="right"))
            path.append(min(nxt, model.n_states - 1))
        return [path[int(s)], path[int(t)]]

    per_path = [states(i) for i in range(n_paths)]
    cache = {}

    def estimate(obs, state):
        if (obs, state) not in cache:
            rates = build_curves(model, state, obs, obs + taus, regime)
            cache[obs, state] = extract_long_rate(np.column_stack([taus, rates.x]))
        return cache[obs, state]

    out = []
    for column, obs in enumerate((float(s), float(t))):
        ests = [estimate(obs, both[column]) for both in per_path]
        out.append(np.array([e.value for e in ests]))
        out.append(np.array([e.residual for e in ests]))
    return out


# mantissas spread over decimal exponents -300..300, and zeros of either sign
SPREAD = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-10.0, 10.0, allow_nan=False), st.integers(-300, 300)),
)


class TestQuartiles:
    @given(st.integers(1, 3000), st.lists(SPREAD, min_size=1, max_size=8),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_bit_equal_to_np_quantile(self, n, pool, seed, scatter):
        # n values drawn from a small pool, so that ties (zeros of both
        # signs among them) fall where the rule interpolates; scattered,
        # every nonzero value is nudged apart and only the zeros still tie
        rng = np.random.default_rng(seed)
        x = np.array(pool)[rng.integers(0, len(pool), n)]
        if scatter:
            x *= 1.0 + rng.random(n)
        before = x.copy()
        want = np.quantile(x, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert _quartiles(x).tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()


class TestViolationRule:
    def test_hand_case_flags_only_the_riser(self):
        x_s = np.array([1.0, 1.0])
        x_t = np.array([1.1, 1.0])
        zeros = np.zeros(2)
        idx, eps = monotonicity_violations(x_s, x_t, zeros, zeros, 3.0)
        assert list(idx) == [0]
        assert np.all(eps > 0)  # float floor keeps flat curves off the knife edge

    def test_residuals_widen_the_tolerance(self):
        x_s = np.array([1.0])
        x_t = np.array([1.0005])
        res = np.array([0.0001])
        idx, eps = monotonicity_violations(x_s, x_t, res, res, 3.0)
        assert idx.size == 0  # rise 5e-4 <= 3 * 2e-4
        idx, _ = monotonicity_violations(x_s, x_t, res, res, 2.0)
        assert list(idx) == [0]  # rise 5e-4 > 2 * 2e-4

    def test_falling_x_never_flagged(self):
        x_s = np.array([1.0, 2.0, 3.0])
        x_t = x_s - 0.5
        idx, _ = monotonicity_violations(x_s, x_t, np.zeros(3), np.zeros(3), 3.0)
        assert idx.size == 0

    def test_multiplier_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            monotonicity_violations(
                np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), 0.0
            )

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf])
    def test_multiplier_must_be_finite(self, multiplier):
        # NaN compares false with every rise, so it would pass any path
        x_s, x_t, zeros = np.array([0.9]), np.array([0.95]), np.zeros(1)
        with pytest.raises(ValueError, match="finite"):
            monotonicity_violations(x_s, x_t, zeros, zeros, multiplier)
        with pytest.raises(ValueError, match="finite"):
            verify_dir(SYM2, 0, 1, (62, 125, 250, 500), 20, 1, Regime.DISCRETE,
                       epsilon_multiplier=multiplier)

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, 0.0])
    def test_bad_multiplier_is_refused_before_any_sampling(
        self, monkeypatch, multiplier
    ):
        calls = []

        def counted(name):
            real = getattr(verify, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("simulate_paths", "price_mc"):
            monkeypatch.setattr(verify, name, counted(name))
        with pytest.raises(ValueError, match="epsilon_multiplier"):
            verify_dir(POISSON, 0.0, 5.0, SCHEDULE, 20, 1, Regime.CONTINUOUS,
                       epsilon_multiplier=multiplier)
        with pytest.raises(ValueError, match="epsilon_multiplier"):
            run_poisson_example(0.05, 0.1, 0.5, 0.0, 5.0, 20, 11, n_mc=100,
                                n_continuations=100, epsilon_multiplier=multiplier)
        assert calls == []


class TestVerifyDir:
    def test_chain_run_is_clean_and_carries_spectral_oracle(self):
        report = verify_dir(SYM2, 0, 5, (62, 125, 250, 500), 400, 7, Regime.DISCRETE)
        assert report.passed
        assert report.n_violations == 0
        assert report.violation_indices.size == 0
        assert report.n_paths == 400
        assert report.n_nonconverged == 0
        assert report.x_s.shape == report.x_t.shape == (400,)
        assert report.model_id == "markov_chain(2 states)"
        assert report.method is ExtractionMethod.RECIPROCAL_EXTRAPOLATION
        assert set(report.change_quantiles) == {"min", "q25", "median", "q75", "max"}
        assert report.change_quantiles["min"] <= report.change_quantiles["max"]
        assert report.spectral_value == pytest.approx(21.0 / 22.0, abs=1e-12)
        assert report.spectral_gap <= 1e-4
        assert np.all(np.abs(report.x_s - 21.0 / 22.0) <= report.spectral_gap)

    def test_model_id_override(self):
        report = verify_dir(
            SYM2, 0, 2, (62, 125, 250, 500), 50, 1, Regime.DISCRETE,
            model_id="markov2",
        )
        assert report.model_id == "markov2"

    def test_poisson_long_rate_only_moves_down(self):
        report = verify_dir(POISSON, 0.0, 5.0, SCHEDULE, 200, 3, Regime.CONTINUOUS)
        assert report.passed
        # the exact long zero rate from r0 is r0 + intensity
        assert report.spectral_value == math.exp(-(0.05 + 0.5))
        assert report.spectral_gap <= 1e-4
        # jumps raise the long zero rate, so x visibly drops on some path
        assert report.change_quantiles["min"] <= -0.01
        assert report.change_quantiles["max"] <= report.epsilon_max

    @pytest.mark.parametrize("model,s,t,regime", [
        (SYM2, 2, 7, Regime.DISCRETE),
        (CHAIN16, 2, 7, Regime.DISCRETE),
        (POISSON, 0.5, 4.0, Regime.CONTINUOUS),
    ])
    def test_a_path_that_keeps_its_state_keeps_its_x(self, model, s, t, regime):
        # x over time to maturity is one curve per state, whatever the time
        report = verify_dir(model, s, t, SCHEDULE, 300, 5, regime)
        grid = TimeGrid(regime, t) if regime is Regime.DISCRETE else TimeGrid(regime, t, t)
        states = simulate_paths(model, grid, 300, 5).states_at((s, t))
        same = states[:, 0] == states[:, 1]
        assert same.any()
        assert np.array_equal(report.x_s[same], report.x_t[same])
        assert np.array_equal(report.residual_s[same], report.residual_t[same])

    def test_close_schedule_gives_no_false_violations(self):
        # x over absolute maturity rose by O(t / tau) on paths without a jump
        report = verify_dir(POISSON, 0.0, 5.0, (1000, 1010, 1020, 1030), 2000, 1,
                            Regime.CONTINUOUS)
        assert report.passed and report.n_nonconverged == 0
        assert report.change_quantiles["max"] == 0.0

    @pytest.mark.parametrize("model,s,t,regime", [
        (CHAIN16, 2, 7, Regime.DISCRETE),
        (POISSON, 0.5, 4.0, Regime.CONTINUOUS),
    ])
    def test_equals_the_per_path_reference(self, model, s, t, regime):
        x_s, res_s, x_t, res_t = per_path_reference(model, s, t, 150, 8, regime)
        report = verify_dir(model, s, t, SCHEDULE, 150, 8, regime)
        assert np.array_equal(report.x_s, x_s)
        assert np.array_equal(report.x_t, x_t)
        assert np.array_equal(report.residual_s, res_s)
        assert np.array_equal(report.residual_t, res_t)
        idx, eps = monotonicity_violations(x_s, x_t, res_s, res_t, 3.0)
        assert np.array_equal(report.violation_indices, idx)
        assert np.array_equal(report.epsilon, eps)
        assert report.epsilon_max == eps.max()

    def test_one_chain_pricing_pass_per_certificate(self, monkeypatch):
        calls = []
        real = MarkovChain.log_price_table

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(MarkovChain, "log_price_table", counted)
        verify_dir(CHAIN16, 2, 7, SCHEDULE, 400, 3, Regime.DISCRETE)
        assert len(calls) == 1

    def test_a_few_unconverged_extractions_abort(self):
        # 24 of 8,000 extractions, the paths in state 0, miss tol by far
        # (residual 2.5e-8); a certificate must not pass over them
        chain = MarkovChain([0.01, 0.08], [[0.5, 0.5], [0.001, 0.999]], 1)
        with pytest.raises(NonConvergenceError, match="24 of 8000 extractions"):
            verify_dir(chain, 2, 7, (250, 500, 1000, 2000), 4000, 5,
                       Regime.DISCRETE, tol=5.85e-11)

    def test_short_schedule_aborts_instead_of_passing(self):
        with pytest.raises(NonConvergenceError, match="extend the maturity"):
            verify_dir(
                POISSON, 0.0, 2.0, (1, 2, 3, 4), 50, 1, Regime.CONTINUOUS,
                tol=1e-12,
            )

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="0 <= s < t"):
            verify_dir(SYM2, 5, 5, SCHEDULE, 10, 0, Regime.DISCRETE)
        with pytest.raises(ValueError, match="4 increasing"):
            verify_dir(SYM2, 0, 2, (125, 250, 500), 10, 0, Regime.DISCRETE)
        with pytest.raises(ValueError, match="4 increasing"):
            verify_dir(SYM2, 0, 2, (125, 125, 250, 500), 10, 0, Regime.DISCRETE)
        with pytest.raises(ValueError, match="integers"):
            verify_dir(SYM2, 0, 2.5, SCHEDULE, 10, 0, Regime.DISCRETE)
        with pytest.raises(ValueError, match="integers"):
            verify_dir(SYM2, 0, 2, (125.5, 250, 500, 1000), 10, 0, Regime.DISCRETE)
        with pytest.raises(ValueError, match="n_paths"):
            verify_dir(SYM2, 0, 2, SCHEDULE, 0, 0, Regime.DISCRETE)
        with pytest.raises(ValueError, match="regime"):
            verify_dir(POISSON, 0, 2, SCHEDULE, 10, 0, Regime.DISCRETE)


REDUCIBLE = MarkovChain([0.01, 0.08], [[0.99, 0.01], [0.0, 1.0]], 0)


class TestReducibleChain:
    """State 1 absorbs; from state 0 the long rate is that of its own
    discounted self-loop, x = 0.99 / 1.01, and from state 1 x = 1 / 1.08."""

    TAUS = (62, 125, 250, 500)

    def absorbed(self, s, t, n, seed):
        grid = TimeGrid(Regime.DISCRETE, t)
        states = simulate_paths(REDUCIBLE, grid, n, seed).states_at((s, t))
        return np.flatnonzero((states[:, 0] == 0) & (states[:, 1] == 1))

    def test_certifies_against_its_exact_table(self):
        report = verify_dir(REDUCIBLE, 2, 7, self.TAUS, 2000, 42, Regime.DISCRETE)
        assert report.passed and report.n_nonconverged == 0
        assert report.spectral_value == pytest.approx(0.99 / 1.01, abs=1e-12)
        assert report.spectral_gap <= 1e-6
        absorbed = self.absorbed(2, 7, 2000, 42)
        assert absorbed.size > 0
        fall = report.x_t[absorbed] - report.x_s[absorbed]
        assert np.allclose(fall, 1.0 / 1.08 - 0.99 / 1.01, atol=1e-6)

    def test_swapped_table_flags_exactly_the_absorbed_paths(self, monkeypatch):
        # a negative control: give the absorbing state the other state's
        # prices, so that x rises on absorption, and the harness must see it
        real = MarkovChain.log_price_table

        def swapped(self, states, t, maturities, regime):
            return real(self, [1 - int(state) for state in states], t, maturities, regime)

        monkeypatch.setattr(MarkovChain, "log_price_table", swapped)
        report = verify_dir(REDUCIBLE, 2, 7, self.TAUS, 2000, 42, Regime.DISCRETE)
        absorbed = self.absorbed(2, 7, 2000, 42)
        assert absorbed.size > 50
        assert not report.passed
        assert np.array_equal(report.violation_indices, absorbed)


class TestPoissonExample:
    def test_full_report(self):
        report = run_poisson_example(
            0.05, 0.1, 0.5, 0.0, 5.0, n_paths=200, seed=11,
            mc_maturities=(1.0, 5.0), n_mc=20_000,
            n_continuations=50_000,
        )
        assert report.delta == 0.1 and report.intensity == 0.5
        assert len(report.pricing) == 2
        for row in report.pricing:
            assert row.mc_std_error > 0
            assert abs(row.z_score) <= 4.0
            assert row.closed_form == pytest.approx(row.mc_value, abs=4 * row.mc_std_error)
        assert report.long_zero_identity_ok
        assert report.long_zero_gap_max <= report.long_zero_bound_max
        assert report.monotonicity.passed
        assert report.spread.n == 50_000
        assert report.spread.theoretical == pytest.approx(0.1**2 * 0.5 * 5.0)
        assert abs(report.spread.z_score) <= 4.0
        assert report.spread.variance > 10.0 * report.spread.std_error

    def test_delta_zero_degenerates_to_constant_model(self):
        report = run_poisson_example(
            0.04, 0.0, 0.5, 0.0, 3.0, n_paths=20, seed=2,
            mc_maturities=(2.0,), n_mc=100, n_continuations=100,
        )
        # constant model: identity target is the rate itself, spread is zero
        assert report.long_zero_identity_ok
        assert report.long_zero_gap_max <= report.long_zero_bound_max
        assert report.spread.variance == 0.0
        assert report.spread.theoretical == 0.0
        assert report.spread.z_score == 0.0
        assert report.monotonicity.passed
        assert report.pricing[0].z_score == 0.0

    def test_spread_reads_the_model_long_rate(self, monkeypatch):
        args = (0.05, 0.1, 0.5, 0.0, 5.0, 20, 11)
        kwargs = dict(mc_maturities=(1.0,), n_mc=100, n_continuations=1000)
        plain = run_poisson_example(*args, **kwargs).spread.variance
        continuations = simulate_paths(
            PoissonJump(0.05, 0.1, 0.5), TimeGrid(Regime.CONTINUOUS, 5.0, 5.0), 1000, 11,
            stream=STREAM_CONTINUATION,
        )
        counts = np.diff(continuations.offsets)
        assert plain == float(np.var(0.05 + 0.1 * counts + 0.5, ddof=1))
        # the long rate of each time-t rate comes from long_rate_table
        real = PoissonJump.long_rate_table
        monkeypatch.setattr(PoissonJump, "long_rate_table",
                            lambda self, states, regime: 2.0 * real(self, states, regime))
        doubled = run_poisson_example(*args, **kwargs).spread.variance
        assert doubled == pytest.approx(4.0 * plain, rel=1e-12)

    def test_samples_the_scenarios_once(self, monkeypatch):
        calls = []
        real = verify.simulate_paths

        def counted(model, grid, n, seed, stream=STREAM_PATHS):
            calls.append((grid.horizon, n, stream))
            return real(model, grid, n, seed, stream=stream)

        monkeypatch.setattr(verify, "simulate_paths", counted)
        run_poisson_example(
            0.05, 0.1, 0.5, 1.0, 5.0, 100, 11,
            mc_maturities=(1.0,), n_mc=100, n_continuations=300,
        )
        # the certificate's scenarios to t, then the continuations of [s, t]
        assert calls == [(5.0, 100, STREAM_PATHS), (4.0, 300, STREAM_CONTINUATION)]

    @pytest.mark.parametrize("delta", [0.1, 0.0])
    def test_long_zero_identity_equals_the_per_state_reference(self, delta):
        """Per end level of the continuations of [s, t]: build_curves at 0
        -> extract_long_rate on the zero curve over time to maturity, against
        the level plus the intensity."""
        s, t, n_paths, seed = 0.7, 2.9, 300, 4
        report = run_poisson_example(
            0.05, delta, 0.5, s, t, n_paths, seed,
            mc_maturities=(1.0,), n_mc=100, n_continuations=100,
        )
        model = PoissonJump(0.05, delta, 0.5) if delta > 0 else ConstantRate(0.05)
        grid = TimeGrid(Regime.CONTINUOUS, t - s, t - s)
        continuations = simulate_paths(model, grid, 100, seed, stream=STREAM_CONTINUATION)
        counts = np.diff(continuations.offsets)
        ends = 0.05 + delta * np.arange(counts.max() + 1)
        taus = np.asarray(SCHEDULE, dtype=float)
        gaps, bounds = [], []
        for state in ends.tolist():
            rates = build_curves(model, state, 0.0, taus, Regime.CONTINUOUS)
            est = extract_long_rate(np.column_stack([taus, rates.zero]))
            rate_now = model.rate_of(state)
            target = rate_now + 0.5 if delta > 0 else rate_now
            gaps.append(abs(est.value - target))
            floor = 64.0 * np.finfo(float).eps * max(1.0, abs(est.value))
            bounds.append(3.0 * est.residual + floor)
        assert report.long_zero_gap_max == max(gaps)
        assert report.long_zero_bound_max == max(bounds)
        assert report.long_zero_identity_ok == all(
            g <= b for g, b in zip(gaps, bounds)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_poisson_example(0.05, -0.1, 0.5, 0.0, 5.0, 10, 0)
        with pytest.raises(ValueError, match="s < t"):
            run_poisson_example(0.05, 0.1, 0.5, 5.0, 5.0, 10, 0)

    @pytest.mark.parametrize("n_continuations", [0, 1])
    def test_spread_needs_two_continuations(self, n_continuations):
        # the spread's standard error divides by n - 1
        with pytest.raises(ValueError, match="n_continuations"):
            run_poisson_example(
                0.05, 0.1, 0.5, 0.0, 5.0, 10, 0, n_continuations=n_continuations
            )


class TestStandardFleet:
    def test_composition(self):
        fleet = standard_fleet()
        assert len(fleet) == 5
        names = [m.name for m in fleet]
        assert len(set(names)) == 5
        assert names == ["constant", "markov2", "markov3", "markov4", "poisson"]
        regimes = {m.name: m.regime for m in fleet}
        assert regimes["poisson"] is Regime.CONTINUOUS
        assert all(
            regimes[n] is Regime.DISCRETE for n in names if n != "poisson"
        )

    def test_chains_have_spectral_long_rates(self):
        for member in standard_fleet():
            if isinstance(member.model, MarkovChain):
                est = perron_long_rate(member.model)
                assert est.converged
                assert 0.0 < est.value < 1.0

    def test_whole_fleet_passes_a_small_run(self):
        for member in standard_fleet():
            taus = SCHEDULE if member.regime is Regime.CONTINUOUS else (62, 125, 250, 500)
            report = verify_dir(
                member.model, 0, 3, taus, 60, 17, member.regime,
                model_id=member.name,
            )
            assert report.passed, member.name
            assert report.n_nonconverged == 0, member.name

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("member", standard_fleet(), ids=lambda m: m.name)
    def test_every_member_rejects_a_seed_outside_64_bits(self, member, seed):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            verify_dir(member.model, 0, 1, SCHEDULE, 10, seed, member.regime)
