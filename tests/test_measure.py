import json
import math
from pathlib import Path

import numpy as np
import pytest

from longrates.measure import (
    ForwardWeights,
    TowerReport,
    forward_expectation,
    rn_weights,
    tower_identity_check,
)
from longrates.models import (
    ConstantRate,
    MarkovChain,
    PoissonJump,
    Regime,
    STREAM_CONTINUATION,
    TimeGrid,
    path_rng,
    simulate_paths,
)
from longrates.pricing import chain_log_prices, price_closed_form

from jump_law import sample_jump_times

SYM2 = MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)
POISSON = PoissonJump(0.05, 0.1, 0.5)
SLOW2 = MarkovChain([0.0, 0.001], [[1 - 1e-4, 1e-4], [1e-4, 1 - 1e-4]], 0)
_rng = np.random.default_rng(16)
RANDOM16 = MarkovChain(_rng.uniform(0.0, 0.1, 16), _rng.dirichlet(np.ones(16), 16), 0)


class TestWeights:
    def test_constant_model_weights_are_exactly_one(self):
        model = ConstantRate(0.03)
        grid = TimeGrid(Regime.DISCRETE, 6)
        scen = simulate_paths(model, grid, 50, seed=1)
        price = price_closed_form(model, None, 1, 4, Regime.DISCRETE)
        fw = rn_weights(scen, 1, 4, price)
        # B_s / B_t = P(s, t) path by path when the rate is deterministic
        assert np.all(fw.weights == 1.0)
        mean, se = fw.normalization()
        assert mean == 1.0 and se == 0.0

    def test_poisson_weights_average_to_one(self):
        grid = TimeGrid(Regime.CONTINUOUS, 3.0, output_step=1.0)
        scen = simulate_paths(POISSON, grid, 20_000, seed=11)
        price = price_closed_form(POISSON, None, 0.0, 3.0, Regime.CONTINUOUS)
        mean, se = rn_weights(scen, 0.0, 3.0, price).normalization()
        assert abs(mean - 1.0) <= 4.0 * se

    def test_chain_weights_average_to_one(self):
        grid = TimeGrid(Regime.DISCRETE, 5)
        scen = simulate_paths(SYM2, grid, 20_000, seed=12)
        price = float(np.exp(chain_log_prices(SYM2, [5])[5][SYM2.initial_state]))
        mean, se = rn_weights(scen, 0, 5, price).normalization()
        assert abs(mean - 1.0) <= 4.0 * se

    def test_invalid_arguments(self):
        grid = TimeGrid(Regime.DISCRETE, 4)
        scen = simulate_paths(SYM2, grid, 10, seed=0)
        with pytest.raises(ValueError, match="positive"):
            rn_weights(scen, 0, 2, 0.0)
        with pytest.raises(ValueError, match="horizon"):
            rn_weights(scen, 0, 9, 0.5)
        with pytest.raises(ValueError, match="integer"):
            rn_weights(scen, 0.5, 2, 0.9)
        with pytest.raises(ValueError):
            rn_weights(scen, 3, 2, 0.9)

    def test_weight_vector_validation(self):
        with pytest.raises(ValueError, match="two"):
            ForwardWeights(0, 1, np.array([1.0]))
        with pytest.raises(ValueError, match="positive"):
            ForwardWeights(0, 1, np.array([1.0, -0.5]))


class TestForwardExpectation:
    def test_hand_oracle(self):
        fw = ForwardWeights(0, 1, np.array([1.0, 3.0]))
        est = forward_expectation(fw, [2.0, 6.0])
        # (1*2 + 3*6) / 4 = 5; se = sqrt((1*-3)^2 + (3*1)^2) / 4
        assert est.value == 5.0
        assert est.std_error == pytest.approx(math.sqrt(18.0) / 4.0, rel=1e-15)
        assert est.n == 2

    def test_payoff_scaling(self):
        fw = ForwardWeights(0, 1, np.array([0.5, 1.2, 2.0, 0.3]))
        base = forward_expectation(fw, [1.0, 2.0, 3.0, 4.0])
        scaled = forward_expectation(fw, [7.0, 14.0, 21.0, 28.0])
        assert scaled.value == pytest.approx(7.0 * base.value, rel=1e-14)
        assert scaled.std_error == pytest.approx(7.0 * base.std_error, rel=1e-14)

    def test_misaligned_or_bad_payoff(self):
        fw = ForwardWeights(0, 1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="align"):
            forward_expectation(fw, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            forward_expectation(fw, [1.0, np.inf])


class TestTowerIdentity:
    @pytest.mark.parametrize("s,t,T", [(0, 2, 5), (0, 3, 8), (1, 4, 8)])
    def test_chain_is_exact(self, s, t, T):
        report = tower_identity_check(SYM2, s, t, T, Regime.DISCRETE)
        assert report.exact
        assert abs(report.gap) <= 1e-12
        assert report.passed()

    @pytest.mark.parametrize("s,t,T", [(0, 300, 1000), (3, 130, 257), (0, 1, 2000)])
    @pytest.mark.parametrize("chain", [SLOW2, RANDOM16], ids=["flip-1e-4", "random-16"])
    def test_chain_is_exact_over_long_windows(self, chain, s, t, T):
        # the carry from t back to s takes one product per set bit of t - s;
        # both sides then differ from D^(T-s) 1 by about (T - s) * eps
        report = tower_identity_check(chain, s, t, T, Regime.DISCRETE)
        assert report.exact and report.passed()
        assert abs(report.rhs - report.lhs) <= 4 * (T - s) * np.finfo(float).eps * report.lhs

    def test_fractional_discrete_times_rejected(self):
        # the chain's exact check counts whole periods, like every discrete
        # price; a fractional time must not be truncated to one
        for model in (SYM2, ConstantRate(0.03)):
            with pytest.raises(ValueError, match="integers"):
                tower_identity_check(model, 0.5, 2, 6, Regime.DISCRETE)
            with pytest.raises(ValueError, match="integers"):
                tower_identity_check(model, 0, 2.5, 6, Regime.DISCRETE)

    def test_chain_degenerate_window(self):
        report = tower_identity_check(SYM2, 2, 2, 6, Regime.DISCRETE)
        assert report.gap == 0.0
        assert report.lhs == report.rhs

    @pytest.mark.parametrize("regime,model", [
        (Regime.DISCRETE, ConstantRate(0.03)),
        (Regime.CONTINUOUS, ConstantRate(0.03)),
    ])
    def test_constant_is_exact(self, regime, model):
        report = tower_identity_check(model, 1.0, 3.0, 9.0, regime)
        assert report.exact
        assert abs(report.gap) <= 1e-12

    def test_poisson_within_monte_carlo_error(self):
        report = tower_identity_check(
            POISSON, 0.0, 5.0, 15.0, Regime.CONTINUOUS, n=50_000, seed=3
        )
        assert not report.exact
        assert report.se > 0
        assert abs(report.gap) <= 3.0 * report.se
        assert report.passed()

    def test_poisson_equals_per_path_route(self):
        # the check reads whole scenario arrays; it must return exactly the
        # report of the same continuations drawn and priced one by one
        s, t, T, n, seed = 1.0, 4.0, 9.0, 3000, 5
        reg = Regime.CONTINUOUS
        window = t - s
        r0, delta = POISSON.r0, POISSON.delta
        samples = []
        for i in range(n):
            rng = path_rng(seed, STREAM_CONTINUATION, i)
            jumps = sample_jump_times(rng, POISSON.intensity, window)
            level = 0.0
            for u in jumps:
                level += min(max(window - u, 0.0), window)
            discount = float(np.exp(-(r0 * window + delta * level)))
            r_end = r0 + delta * jumps.size
            samples.append(discount * price_closed_form(POISSON, r_end, t, T, reg))
        samples = np.array(samples)
        lhs = price_closed_form(POISSON, POISSON.r0, s, T, reg)
        rhs = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(n))
        want = TowerReport(s, t, T, lhs, rhs, rhs - lhs, se, n, False)
        assert tower_identity_check(POISSON, s, t, T, reg, n=n, seed=seed) == want

    def test_poisson_degenerate_window(self):
        report = tower_identity_check(POISSON, 2.0, 2.0, 6.0, Regime.CONTINUOUS)
        assert report.gap == 0.0 and report.se == 0.0
        assert report.passed()

    def test_time_ordering_enforced(self):
        with pytest.raises(ValueError, match="<="):
            tower_identity_check(SYM2, 3, 2, 6, Regime.DISCRETE)
        with pytest.raises(ValueError):
            tower_identity_check(POISSON, 0.0, 4.0, 2.0, Regime.CONTINUOUS)


class TestFullPipeline:
    def test_reweighted_chain_forecast_matches_price_ratio(self):
        s, t, T = 0, 2, 7
        grid = TimeGrid(Regime.DISCRETE, t)
        scen = simulate_paths(SYM2, grid, 40_000, seed=5)
        lp = chain_log_prices(SYM2, [t - s, T - s, T - t])
        p_st = float(np.exp(lp[t - s][SYM2.initial_state]))
        p_sT = float(np.exp(lp[T - s][SYM2.initial_state]))
        fw = rn_weights(scen, s, t, p_st)
        payoff = np.exp(lp[T - t][scen.states_at((t,))[:, 0]])
        est = forward_expectation(fw, payoff)
        assert abs(est.value - p_sT / p_st) <= 3.5 * est.std_error

    def test_reweighted_poisson_forecast_matches_price_ratio(self):
        s, t, T = 0.0, 2.0, 9.0
        grid = TimeGrid(Regime.CONTINUOUS, t, output_step=0.5)
        scen = simulate_paths(POISSON, grid, 40_000, seed=9)
        p_st = price_closed_form(POISSON, None, s, t, Regime.CONTINUOUS)
        p_sT = price_closed_form(POISSON, None, s, T, Regime.CONTINUOUS)
        fw = rn_weights(scen, s, t, p_st)
        payoff = np.array([
            price_closed_form(POISSON, state, t, T, Regime.CONTINUOUS)
            for state in scen.states_at((t,))[:, 0]
        ])
        est = forward_expectation(fw, payoff)
        assert abs(est.value - p_sT / p_st) <= 3.5 * est.std_error


class TestOnePriceTablePerSetOfStates:
    """Each route prices its set of states with one log-price table."""

    @pytest.fixture
    def tables(self, monkeypatch):
        calls = []
        for cls in (ConstantRate, PoissonJump, MarkovChain):
            def counted(self, *args, _table=cls.log_price_table, **kwargs):
                calls.append(type(self).__name__)
                return _table(self, *args, **kwargs)
            monkeypatch.setattr(cls, "log_price_table", counted)
        return calls

    @pytest.mark.parametrize("name", ["constant.json", "markov2.json", "poisson.json"])
    def test_price_run_builds_one_table(self, tables, tmp_path, name):
        from longrates.cli import main

        config = Path(__file__).resolve().parents[1] / "configs" / name
        assert main(["price", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert len(tables) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["closed_form"] == math.exp(summary["log_price"])

    @pytest.mark.parametrize("n", [2, 50, 2000])
    def test_jump_tower_takes_two_tables_whatever_its_path_count(self, tables, n):
        # one at s for P(s, T), one at t for every end rate the paths reach
        report = tower_identity_check(POISSON, 0.0, 5.0, 15.0, Regime.CONTINUOUS,
                                      n=n, seed=3)
        assert report.n == n
        assert tables == ["PoissonJump", "PoissonJump"]

    @pytest.mark.parametrize("regime,s,t,T", [
        (Regime.DISCRETE, 2, 7, 10), (Regime.CONTINUOUS, 0.5, 2.25, 9.0)])
    def test_constant_tower_reads_its_own_table(self, monkeypatch, regime, s, t, T):
        import longrates.pricing

        def refused(*args, **kwargs):
            raise AssertionError("priced one price at a time")

        monkeypatch.setattr(longrates.pricing, "price_closed_form", refused)
        model = ConstantRate(0.03)
        report = tower_identity_check(model, s, t, T, regime)
        assert report.exact and report.passed()
        monkeypatch.undo()
        assert report.lhs == price_closed_form(model, None, s, T, regime)
        assert report.rhs == (price_closed_form(model, None, s, t, regime)
                              * price_closed_form(model, None, t, T, regime))
