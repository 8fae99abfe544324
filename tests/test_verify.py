import numpy as np
import pytest

from longrates import pricing, verify
from longrates.longrate import ExtractionMethod, extract_long_rate, perron_long_rate
from longrates.models import (
    MarkovChain, PoissonJump, Regime, TimeGrid, simulate_paths, state_at,
)
from longrates.pricing import build_curves
from longrates.verify import (
    NonConvergenceError,
    monotonicity_violations,
    run_poisson_example,
    standard_fleet,
    verify_dir,
)

SYM2 = MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)
POISSON = PoissonJump(0.05, 0.1, 0.5)
SCHEDULE = (125, 250, 500, 1000)
_RNG = np.random.default_rng(16)
CHAIN16 = MarkovChain(
    _RNG.uniform(0.0, 0.1, 16), _RNG.dirichlet(np.ones(16), size=16), 5
)


def per_path_reference(model, s, t, n_paths, seed, regime):
    """x and residuals at s and t, path object by path object:
    simulate_paths -> state_at -> build_curves -> extract_long_rate, with
    each (time, state) curve built once."""
    taus = np.asarray(SCHEDULE, dtype=float)
    continuous = regime is Regime.CONTINUOUS
    horizon = t if continuous else int(t)
    grid = TimeGrid(regime, horizon, float(t) if continuous else None)
    scen = simulate_paths(model, grid, n_paths, seed)
    cache = {}

    def estimate(obs, state):
        if (obs, state) not in cache:
            _, rates = build_curves(model, state, obs, obs + taus, regime)
            cache[obs, state] = extract_long_rate(np.column_stack([taus, rates.x]))
        return cache[obs, state]

    out = []
    for obs in (float(s), float(t)):
        ests = [estimate(obs, state_at(model, path, obs)) for path in scen.paths]
        out.append(np.array([e.value for e in ests]))
        out.append(np.array([e.residual for e in ests]))
    return out


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
        assert report.spectral_value is None
        # jumps raise the long zero rate, so x visibly drops on some path
        assert report.change_quantiles["min"] <= -0.01
        assert report.change_quantiles["max"] <= report.epsilon_max

    def test_thread_count_does_not_change_the_report(self):
        a = verify_dir(POISSON, 0.0, 3.0, SCHEDULE, 64, 5, Regime.CONTINUOUS)
        b = verify_dir(
            POISSON, 0.0, 3.0, SCHEDULE, 64, 5, Regime.CONTINUOUS, threads=4
        )
        assert np.array_equal(a.x_s, b.x_s)
        assert np.array_equal(a.x_t, b.x_t)

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
        real = pricing.chain_log_prices

        def counted(*args):
            calls.append(args)
            return real(*args)

        # the certificate may price through either module's name
        monkeypatch.setattr(pricing, "chain_log_prices", counted)
        monkeypatch.setattr(verify, "chain_log_prices", counted)
        verify_dir(CHAIN16, 2, 7, SCHEDULE, 400, 3, Regime.DISCRETE)
        assert len(calls) == 1

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

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_poisson_example(0.05, -0.1, 0.5, 0.0, 5.0, 10, 0)
        with pytest.raises(ValueError, match="s < t"):
            run_poisson_example(0.05, 0.1, 0.5, 5.0, 5.0, 10, 0)


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
