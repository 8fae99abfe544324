import math
import tracemalloc
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
    path_rng,
    simulate_paths,
)
from longrates.pricing import (
    McEstimate,
    build_curves,
    chain_log_prices,
    curves_from_log_prices,
    log_price_closed_form,
    price_closed_form,
    price_mc,
    short_rate_consistency,
)

from jump_law import sample_jump_times

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

    @pytest.mark.parametrize("t,T", [(0.0, math.nan), (math.nan, 1.0)])
    def test_nan_times_are_refused(self, t, T):
        # T < t is False when either is NaN; the jump model would price nan
        for price in (log_price_closed_form, price_closed_form):
            with pytest.raises(ValueError, match="precedes"):
                price(POISSON, None, t, T, Regime.CONTINUOUS)

    def test_chain_state_out_of_range_raises_on_every_route(self):
        # a negative index must not wrap around to the last state
        for state in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                build_curves(SYM2, state, 0, [1, 2, 3], Regime.DISCRETE)
            with pytest.raises(ValueError, match="out of range"):
                SYM2.rate_of(state)
            with pytest.raises(ValueError, match="out of range"):
                SYM2.conditioned(state)
            with pytest.raises(ValueError, match="out of range"):
                price_mc(SYM2, state, 0, 3, 10, 0, Regime.DISCRETE)

    @given(st.floats(-0.4, 0.4), st.integers(1, 30))
    def test_discrete_constant_prices_decrease_in_maturity(self, rate, n):
        model = ConstantRate(rate)
        p1 = log_price_closed_form(model, None, 0, n, Regime.DISCRETE)
        p2 = log_price_closed_form(model, None, 0, n + 1, Regime.DISCRETE)
        if rate > 0:
            assert p2 < p1
        elif rate < 0:
            assert p2 > p1


def flip_chain(p):
    """Two states that switch with probability p; slowly mixing for small p."""
    return MarkovChain([0.0, 0.001], [[1 - p, p], [p, 1 - p]], 0)


def random_chain(n, seed):
    rng = np.random.default_rng(seed)
    return MarkovChain(rng.uniform(0.0, 0.1, n), rng.dirichlet(np.ones(n), n), 0)


def step_by_step_log_prices(chain, horizons):
    """Reference: one renormalised product with D per period."""
    discounted = chain.discounted_transition()
    v, log_scale, out = np.ones(chain.n_states), 0.0, {}
    for n in range(max(horizons, default=0) + 1):
        if n:
            v = discounted @ v
            top = float(v.max())
            v, log_scale = v / top, log_scale + math.log(top)
        if n in horizons:
            out[n] = log_scale + np.log(v)
    return out


POWER_HORIZONS = [1, 2, 3, 127, 128, 129, 255, 256, 257, 250, 500, 1000, 2000]


class TestChainPowers:
    @pytest.mark.parametrize("chain", [
        pytest.param(flip_chain(p), id=f"flip-{p:g}") for p in (0.5, 1e-2, 1e-4, 1e-7)
    ] + [pytest.param(SYM2, id="sym2")] + [
        pytest.param(random_chain(n, 10 + n), id=f"random-{n}") for n in (3, 5, 8)
    ])
    def test_log_prices_are_within_2n_eps_of_a_40_digit_reference(self, chain):
        # squaring doubles a power's relative error, so log P(n) carries an
        # absolute error of order n * eps; on a slowly mixing chain log P is
        # small, so that is a large relative error, and only the absolute
        # bound is a fair one
        got = chain_log_prices(chain, POWER_HORIZONS)
        eps = np.finfo(float).eps
        with mp.workdps(40):
            discounted = [[mp.mpf(float(d)) for d in row]
                          for row in chain.discounted_transition()]
            v = [mp.mpf(1)] * chain.n_states
            for n in range(1, max(POWER_HORIZONS) + 1):
                v = [mp.fsum(d * x for d, x in zip(row, v)) for row in discounted]
                if n in POWER_HORIZONS:
                    for i, x in enumerate(v):
                        error = abs(mp.mpf(float(got[n][i])) - mp.log(x))
                        assert error <= 2 * n * eps, (n, i, float(error))

    @pytest.mark.parametrize("horizons", [
        [], [0], [0, 0, 1], [5, 3, 5, 0, 3], [2000, 1, 1000, 500, 250],
        [127, 128, 129], [256, 255, 257, 0], [1, 2, 3, 4, 7, 8, 9],
        [1023, 1024, 1025, 2047, 2048, 2049],
    ])
    @pytest.mark.parametrize("chain", [SYM2, CHAIN3, random_chain(16, 7)],
                             ids=["sym2", "chain3", "random-16"])
    def test_horizon_sets_match_a_step_by_step_loop(self, chain, horizons):
        want = {int(n) for n in horizons}
        got = chain_log_prices(chain, horizons)
        assert list(got) == sorted(want)
        expected = step_by_step_log_prices(chain, want)
        for n in want:
            np.testing.assert_allclose(got[n], expected[n], rtol=1e-12, atol=0.0)
        if 0 in want:
            assert np.all(got[0] == 0.0)

    def test_a_horizon_does_not_depend_on_the_others_asked_for(self):
        # per-state curves and the certificate's table ask for different
        # horizon sets and must read the same prices
        chain = random_chain(8, 3)
        together = chain_log_prices(chain, range(0, 600, 7))
        for n in (0, 7, 252, 595):
            assert np.array_equal(chain_log_prices(chain, [n])[n], together[n])

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            chain_log_prices(SYM2, [3, -1])


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

    def test_jump_mc_memory_stays_under_the_per_path_sampler(self):
        # tracemalloc peak of criterion 1's price: the earlier sampler, one
        # re-keyed generator per path, peaked at 28,782,144 bytes (Python
        # 3.11, numpy 2.4.6); the margin is 2 %
        price_mc(POISSON, None, 0.0, 1.0, 100, 1, Regime.CONTINUOUS)
        tracemalloc.start()
        try:
            price_mc(POISSON, None, 0.0, 10.0, 200_000, 20260819, Regime.CONTINUOUS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * 28_782_144

    def test_poisson_mc_from_lifted_state(self):
        closed = price_closed_form(POISSON, 0.25, 3.0, 8.0, Regime.CONTINUOUS)
        mc = price_mc(POISSON, 0.25, 3.0, 8.0, 40_000, 23, Regime.CONTINUOUS)
        assert abs(mc.value - closed) <= 4 * mc.std_error

    def test_poisson_mc_equals_per_path_route(self):
        # price_mc discounts whole scenario arrays; it must give exactly the
        # estimate of the same paths drawn and integrated one by one
        state, t, T, n, seed = 0.25, 3.0, 8.0, 3000, 23
        window = T - t
        samples = []
        for i in range(n):
            rng = path_rng(seed, STREAM_PRICING, i)
            jumps = sample_jump_times(rng, POISSON.intensity, window)
            level = 0.0
            for u in jumps:
                level += min(max(window - u, 0.0), window)
            samples.append(float(np.exp(-(state * window + POISSON.delta * level))))
        # path by path first: a last-bit slip can vanish in the mean
        grid = TimeGrid(Regime.CONTINUOUS, window, window)
        scen = simulate_paths(POISSON.conditioned(state), grid, n, seed,
                              stream=STREAM_PRICING)
        assert scen.discounts(0.0, window).tolist() == samples
        samples = np.array(samples)
        want = McEstimate(
            float(samples.mean()),
            float(samples.std(ddof=1) / math.sqrt(n)),
            n,
        )
        assert price_mc(POISSON, state, t, T, n, seed, Regime.CONTINUOUS) == want

    @pytest.mark.parametrize("state,t,T", [(None, 0, 1), (2, 3, 9), (0, 0, 40)])
    def test_chain_mc_equals_per_path_route(self, state, t, T):
        # price_mc discounts the state matrix row by row; it must give the
        # same floats as paths stepped one by one by inverse CDF
        n, seed = 500, 13
        cum = np.cumsum(CHAIN3.transition, axis=1)
        samples = []
        for i in range(n):
            k = CHAIN3.conditioned(state).initial_state
            growth = []
            for u in path_rng(seed, STREAM_PRICING, i).random(T - t):
                growth.append(1.0 + CHAIN3.state_rates[k])
                nxt = int(np.searchsorted(cum[k], u, side="right"))
                k = min(nxt, CHAIN3.n_states - 1)
            samples.append(1.0 / np.prod(growth))
        grid = TimeGrid(Regime.DISCRETE, T - t)
        scen = simulate_paths(CHAIN3.conditioned(state), grid, n, seed,
                              stream=STREAM_PRICING)
        assert scen.discounts(0, T - t).tolist() == samples
        samples = np.array(samples)
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


class TestCurves:
    def test_discrete_identities_and_reconstruction(self):
        mats = np.arange(1, 31)
        rates = build_curves(CHAIN3, None, 0, mats, Regime.DISCRETE)
        prices = rates.prices()
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
        at0 = build_curves(SYM2, 1, 0, [5, 6, 7, 8], Regime.DISCRETE)
        at2 = build_curves(SYM2, 1, 2, [7, 8, 9, 10], Regime.DISCRETE)
        # same time-to-maturity from the same state: identical forwards
        assert np.allclose(at0.forward, at2.forward, atol=1e-15)

    def test_continuous_forward_matches_analytic_derivative(self):
        mats = np.linspace(1.0, 41.0, 41)
        rates = build_curves(POISSON, None, 0.0, mats, Regime.CONTINUOUS)
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
        rates = curves_from_log_prices(0, mats, lp, Regime.DISCRETE)
        assert rates.maturities.tolist() == [1, 2, 3, 4]
        direct = build_curves(SYM2, None, 0, mats[:-1], Regime.DISCRETE)
        assert np.allclose(rates.forward, direct.forward, atol=1e-15)

    def test_curves_from_log_prices_requires_consecutive_integers(self):
        with pytest.raises(ValueError, match="consecutive"):
            curves_from_log_prices(0, [1, 3, 5], [-0.01, -0.03, -0.05],
                                   Regime.DISCRETE)

    def test_curves_from_log_prices_requires_a_whole_observation_time(self):
        with pytest.raises(ValueError, match="discrete times must be integers"):
            curves_from_log_prices(0.5, [1, 2, 3, 4], [-0.01, -0.02, -0.03, -0.04],
                                   Regime.DISCRETE)

    def test_averaging_pulls_zero_toward_forward(self):
        # forward 0.05 + 1/(1+T) drifts down; zero averages it, so the gap
        # |f - z| decays like log(T)/T
        horizons = np.array([10.0, 100.0, 1000.0, 10_000.0, 100_000.0])
        gaps = []
        for top in horizons:
            mats = np.linspace(top / 200.0, top, 400)
            lp = -(0.05 * mats + np.log1p(mats))
            rates = curves_from_log_prices(0.0, mats, lp, Regime.CONTINUOUS)
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
            curves_from_log_prices(0.0, [1.0, 2.0], [-0.1, -np.inf], Regime.CONTINUOUS)
        with pytest.raises(ValueError, match="increasing"):
            curves_from_log_prices(0.0, [2.0, 1.0], [-0.1, -0.2], Regime.CONTINUOUS)

    def test_curve_rejects_x_that_underflows_to_zero(self):
        # finite log price, but exp(-1e6 / 1) is 0.0 in double precision
        with pytest.raises(ValueError, match="x values must be positive"):
            curves_from_log_prices(0.0, [1.0, 2.0], [-1e6, -0.2], Regime.CONTINUOUS)


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

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="step must be positive"):
            short_rate_consistency(POISSON, None, 0.0, Regime.CONTINUOUS, step)
