import math
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from longrates.models import (
    ConstantRate,
    MarkovChain,
    PoissonJump,
    Regime,
    STREAM_PRICING,
    TimeGrid,
    bank_account,
    conditioned,
    simulate_paths,
)
from longrates.pricing import (
    DiscountCurve,
    McEstimate,
    build_curves,
    chain_log_prices,
    curves_from_log_prices,
    log_price_closed_form,
    price_closed_form,
    price_mc,
    short_rate_consistency,
)

POISSON = PoissonJump(0.05, 0.1, 0.5)
SYM2 = MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)
CHAIN3 = MarkovChain(
    [0.02, 0.05, 0.08],
    [[0.6, 0.3, 0.1], [0.25, 0.5, 0.25], [0.1, 0.3, 0.6]],
    1,
)


def poisson_price_series(r0, delta, lam, tau):
    """Independent price route: condition on the jump count, then sum.

    Given k jumps in [0, tau] the jump times are sorted uniforms, so each
    jump contributes the same factor to E[exp(-delta * occupation time)].
    """
    mp.dps = 60
    tau = mp.mpf(tau)
    g = (1 - mp.e**(-mp.mpf(delta) * tau)) / (mp.mpf(delta) * tau)
    lt = mp.mpf(lam) * tau
    acc = mp.mpf(0)
    for k in range(0, 250):
        acc += mp.e**(-lt) * lt**k / mp.factorial(k) * g**k
    return mp.e**(-mp.mpf(r0) * tau) * acc


def enumerate_chain_price(chain, n):
    """Brute-force price: sum over every state path of prob * discount."""
    price = 0.0
    for seq in iproduct(range(chain.n_states), repeat=n):
        path = (chain.initial_state,) + seq
        prob = 1.0
        discount = 1.0
        for k in range(n):
            discount /= 1.0 + chain.state_rates[path[k]]
            prob *= chain.transition[path[k], path[k + 1]]
        price += prob * discount
    return price


class TestClosedForms:
    def test_constant_discrete_is_exact_power(self):
        model = ConstantRate(0.03)
        lp = log_price_closed_form(model, None, 0, 7, Regime.DISCRETE)
        assert lp == -7 * math.log1p(0.03)
        assert price_closed_form(model, None, 0, 7, Regime.DISCRETE) == pytest.approx(
            1.03**-7, rel=1e-15
        )

    def test_constant_continuous(self):
        model = ConstantRate(0.03)
        assert price_closed_form(model, None, 1.5, 4.0, Regime.CONTINUOUS) == (
            pytest.approx(math.exp(-0.03 * 2.5), rel=1e-15)
        )

    @pytest.mark.parametrize("tau", [0.5, 1.0, 10.0, 40.0])
    def test_poisson_matches_series_oracle(self, tau):
        got = price_closed_form(POISSON, None, 0.0, tau, Regime.CONTINUOUS)
        want = float(poisson_price_series(0.05, 0.1, 0.5, tau))
        assert got == pytest.approx(want, rel=1e-13)

    def test_poisson_conditioning_state_shifts_rate(self):
        base = log_price_closed_form(POISSON, None, 0.0, 5.0, Regime.CONTINUOUS)
        lifted = log_price_closed_form(POISSON, 0.25, 0.0, 5.0, Regime.CONTINUOUS)
        assert lifted == pytest.approx(base - 0.2 * 5.0, abs=1e-12)

    def test_poisson_time_homogeneous(self):
        a = log_price_closed_form(POISSON, None, 0.0, 7.0, Regime.CONTINUOUS)
        b = log_price_closed_form(POISSON, None, 2.0, 9.0, Regime.CONTINUOUS)
        assert a == pytest.approx(b, abs=1e-15)

    @pytest.mark.parametrize("chain,n", [(SYM2, 6), (CHAIN3, 6)])
    def test_chain_matches_enumeration(self, chain, n):
        got = price_closed_form(chain, None, 0, n, Regime.DISCRETE)
        assert got == pytest.approx(enumerate_chain_price(chain, n), rel=1e-13)

    def test_chain_state_argument_selects_row(self):
        lp = chain_log_prices(CHAIN3, [4])[4]
        for state in range(3):
            assert log_price_closed_form(
                CHAIN3, state, 0, 4, Regime.DISCRETE
            ) == pytest.approx(float(lp[state]), abs=1e-15)

    def test_chain_long_horizon_stays_finite(self):
        lp = chain_log_prices(SYM2, [5000])[5000]
        assert np.all(np.isfinite(lp))
        # per-period decay approaches the Perron factor 21/22
        assert lp[0] / 5000 == pytest.approx(math.log(21 / 22), abs=1e-3)

    def test_errors(self):
        with pytest.raises(ValueError, match="precedes"):
            log_price_closed_form(POISSON, None, 5.0, 4.0, Regime.CONTINUOUS)
        with pytest.raises(ValueError, match="integers"):
            log_price_closed_form(SYM2, None, 0, 4.5, Regime.DISCRETE)
        with pytest.raises(ValueError, match="out of range"):
            log_price_closed_form(SYM2, 5, 0, 4, Regime.DISCRETE)
        with pytest.raises(ValueError, match="regime"):
            price_closed_form(SYM2, None, 0, 4, Regime.CONTINUOUS)

    @given(st.floats(-0.4, 0.4), st.integers(1, 30))
    def test_discrete_constant_prices_decrease_in_maturity(self, rate, n):
        model = ConstantRate(rate)
        p1 = log_price_closed_form(model, None, 0, n, Regime.DISCRETE)
        p2 = log_price_closed_form(model, None, 0, n + 1, Regime.DISCRETE)
        if rate > 0:
            assert p2 < p1
        elif rate < 0:
            assert p2 > p1


class TestPriceMc:
    def test_constant_has_zero_error(self):
        mc = price_mc(ConstantRate(0.03), None, 0.0, 4.0, 100, 0, Regime.CONTINUOUS)
        assert mc.std_error <= 1e-15
        assert mc.value == pytest.approx(math.exp(-0.12), rel=1e-15)

    def test_chain_mc_within_4_sigma(self):
        closed = price_closed_form(SYM2, None, 0, 5, Regime.DISCRETE)
        mc = price_mc(SYM2, None, 0, 5, 50_000, 17, Regime.DISCRETE)
        assert abs(mc.value - closed) <= 4 * mc.std_error
        assert mc.n == 50_000

    def test_poisson_mc_from_lifted_state(self):
        closed = price_closed_form(POISSON, 0.25, 3.0, 8.0, Regime.CONTINUOUS)
        mc = price_mc(POISSON, 0.25, 3.0, 8.0, 40_000, 23, Regime.CONTINUOUS)
        assert abs(mc.value - closed) <= 4 * mc.std_error

    def test_poisson_mc_equals_per_path_route(self):
        # price_mc skips path objects for jump models; it must still return
        # exactly the estimate of the simulated paths it stands for
        state, t, T, n, seed = 0.25, 3.0, 8.0, 3000, 23
        grid = TimeGrid(Regime.CONTINUOUS, T - t, output_step=T - t)
        scen = simulate_paths(
            conditioned(POISSON, state), grid, n, seed, stream=STREAM_PRICING
        )
        samples = np.array([math.exp(-p.integrated(0.0, T - t)) for p in scen.paths])
        want = McEstimate(
            float(samples.mean()),
            float(samples.std(ddof=1) / math.sqrt(n)),
            n,
        )
        assert price_mc(POISSON, state, t, T, n, seed, Regime.CONTINUOUS) == want

    @pytest.mark.parametrize("state,t,T", [(None, 0, 1), (2, 3, 9), (0, 0, 40)])
    def test_chain_mc_equals_per_path_route(self, state, t, T):
        # the batch route discounts state rows directly; it must give the
        # same floats as 1 / bank_account over the simulated paths
        n, seed = 500, 13
        grid = TimeGrid(Regime.DISCRETE, T - t)
        scen = simulate_paths(
            conditioned(CHAIN3, state), grid, n, seed, stream=STREAM_PRICING
        )
        samples = np.array([1.0 / bank_account(p, T - t) for p in scen.paths])
        want = McEstimate(
            float(samples.mean()),
            float(samples.std(ddof=1) / math.sqrt(n)),
            n,
        )
        assert price_mc(CHAIN3, state, t, T, n, seed, Regime.DISCRETE) == want

    def test_z_score(self):
        est = McEstimate(1.0, 0.1, 10)
        assert est.z_score(0.8) == pytest.approx(2.0)
        assert est.z_score(1.0 + 1e-16) == 0.0  # agreement at float precision
        assert McEstimate(1.0, 0.0, 10).z_score(0.5) == math.inf
        assert McEstimate(1.0, 0.0, 10).z_score(1.0) == 0.0

    def test_degenerate_window(self):
        mc = price_mc(SYM2, None, 3, 3, 10, 0, Regime.DISCRETE)
        assert (mc.value, mc.std_error) == (1.0, 0.0)

    def test_needs_two_paths(self):
        with pytest.raises(ValueError, match="at least 2"):
            price_mc(SYM2, None, 0, 3, 1, 0, Regime.DISCRETE)

    def test_thread_invariance(self):
        a = price_mc(POISSON, None, 0.0, 5.0, 2000, 5, Regime.CONTINUOUS, threads=1)
        b = price_mc(POISSON, None, 0.0, 5.0, 2000, 5, Regime.CONTINUOUS, threads=4)
        assert a == b


class TestCurves:
    def test_discrete_identities_and_reconstruction(self):
        mats = np.arange(1, 31)
        disc, rates = build_curves(CHAIN3, None, 0, mats, Regime.DISCRETE)
        prices = disc.prices()
        next_prices = np.array(
            [price_closed_form(CHAIN3, None, 0, int(T) + 1, Regime.DISCRETE)
             for T in mats]
        )
        assert np.allclose(rates.forward, prices / next_prices - 1.0, atol=1e-13)
        assert np.allclose(rates.zero, prices ** (-1.0 / mats) - 1.0, atol=1e-13)
        assert np.allclose(rates.x, prices ** (1.0 / mats), atol=1e-14)
        # product of growth factors rebuilds the price from the front one
        rebuilt = prices[0] * np.concatenate(
            [[1.0], np.cumprod(1.0 / (1.0 + rates.forward[:-1]))]
        )
        assert np.allclose(rebuilt, prices, rtol=1e-10)

    def test_observation_time_shifts_discrete_curve(self):
        _, at0 = build_curves(SYM2, 1, 0, [5, 6, 7, 8], Regime.DISCRETE)
        _, at2 = build_curves(SYM2, 1, 2, [7, 8, 9, 10], Regime.DISCRETE)
        # same time-to-maturity from the same state: identical forwards
        assert np.allclose(at0.forward, at2.forward, atol=1e-15)

    def test_continuous_forward_matches_analytic_derivative(self):
        mats = np.linspace(1.0, 41.0, 41)
        _, rates = build_curves(POISSON, None, 0.0, mats, Regime.CONTINUOUS)
        analytic = 0.05 + 0.5 - 0.5 * np.exp(-0.1 * mats)
        # central differences: error h^2 |f''| / 6 <= 8.4e-4 here, O(h) at ends
        assert np.max(np.abs(rates.forward[1:-1] - analytic[1:-1])) <= 1e-3
        assert abs(rates.forward[0] - analytic[0]) <= 3e-2
        assert np.max(np.abs(rates.zero - (-np.array(
            [log_price_closed_form(POISSON, None, 0.0, T, Regime.CONTINUOUS)
             for T in mats]) / mats))) <= 1e-15

    def test_curves_from_log_prices_discrete_consumes_successor(self):
        mats = np.arange(1, 6)
        lp = np.array([log_price_closed_form(SYM2, None, 0, int(T), Regime.DISCRETE)
                       for T in mats])
        disc, rates = curves_from_log_prices(0, mats, lp, Regime.DISCRETE)
        assert rates.maturities.tolist() == [1, 2, 3, 4]
        direct = build_curves(SYM2, None, 0, mats[:-1], Regime.DISCRETE)[1]
        assert np.allclose(rates.forward, direct.forward, atol=1e-15)

    def test_curves_from_log_prices_requires_consecutive_integers(self):
        with pytest.raises(ValueError, match="consecutive"):
            curves_from_log_prices(0, [1, 3, 5], [-0.01, -0.03, -0.05],
                                   Regime.DISCRETE)

    def test_averaging_pulls_zero_toward_forward(self):
        # forward 0.05 + 1/(1+T) drifts down; zero averages it, so the gap
        # |f - z| decays like log(T)/T
        horizons = np.array([10.0, 100.0, 1000.0, 10_000.0, 100_000.0])
        gaps = []
        for top in horizons:
            mats = np.linspace(top / 200.0, top, 400)
            lp = -(0.05 * mats + np.log1p(mats))
            _, rates = curves_from_log_prices(0.0, mats, lp, Regime.CONTINUOUS)
            gaps.append(abs(rates.forward[-1] - rates.zero[-1]))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1.1e-4

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="increasing"):
            build_curves(SYM2, None, 0, [3, 2], Regime.DISCRETE)
        with pytest.raises(ValueError, match="exceed"):
            build_curves(SYM2, None, 3, [2, 3], Regime.DISCRETE)
        with pytest.raises(ValueError, match="integers"):
            build_curves(SYM2, None, 0, [1.5, 2.5], Regime.DISCRETE)
        with pytest.raises(ValueError, match="two maturities"):
            build_curves(POISSON, None, 0.0, [5.0], Regime.CONTINUOUS)

    def test_discount_curve_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="finite"):
            DiscountCurve(0.0, None, [1.0, 2.0], [-0.1, -np.inf], Regime.CONTINUOUS)
        with pytest.raises(ValueError, match="increasing"):
            DiscountCurve(0.0, None, [2.0, 1.0], [-0.1, -0.2], Regime.CONTINUOUS)


class TestShortRateConsistency:
    def test_discrete_models_are_exact(self):
        assert short_rate_consistency(SYM2, 0, 0, Regime.DISCRETE) <= 1e-15
        assert short_rate_consistency(CHAIN3, 2, 0, Regime.DISCRETE) <= 1e-15
        assert short_rate_consistency(
            ConstantRate(0.03), None, 4, Regime.DISCRETE
        ) <= 1e-15

    def test_continuous_gap_is_order_step(self):
        step = 0.01
        gap = short_rate_consistency(POISSON, None, 0.0, Regime.CONTINUOUS, step)
        assert gap <= 0.5 * 0.1 * step  # lam * delta * step bounds the curvature
        finer = short_rate_consistency(POISSON, None, 0.0, Regime.CONTINUOUS,
                                       step / 10)
        assert finer < gap
