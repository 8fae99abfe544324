import numpy as np
import pytest
from hypothesis import given, strategies as st

from longrates.longrate import (
    ExtractionMethod,
    extract_long_rate,
    forward_zero_gap,
    long_zero_from_x,
    perron_long_rate,
    x_from_long_zero,
)
from longrates.models import MarkovChain, Regime
from longrates.pricing import build_curves

SYM2 = MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)
CHAIN3 = MarkovChain(
    [0.02, 0.05, 0.08],
    [[0.6, 0.3, 0.1], [0.25, 0.5, 0.25], [0.1, 0.3, 0.6]],
    1,
)
CHAIN4 = MarkovChain(
    [0.01, 0.04, 0.07, 0.10],
    [
        [0.4, 0.3, 0.2, 0.1],
        [0.3, 0.3, 0.2, 0.2],
        [0.2, 0.2, 0.3, 0.3],
        [0.1, 0.2, 0.3, 0.4],
    ],
    1,
)


def pairs(taus, values):
    return np.column_stack([np.asarray(taus, float), np.asarray(values, float)])


class TestExtraction:
    def test_plain_tail_reads_last_point(self):
        est = extract_long_rate(
            pairs([1, 2, 3, 4], [1.0, 0.5, 0.25, 0.125]),
            ExtractionMethod.PLAIN_TAIL,
        )
        assert est.value == 0.125
        assert est.residual == 0.125
        assert est.T_used == 4.0
        assert not est.converged  # residual far above the default tol

    def test_reciprocal_recovers_exact_intercept(self):
        taus = np.array([10.0, 20.0, 40.0, 80.0])
        est = extract_long_rate(pairs(taus, 0.7 + 3.0 / taus))
        assert est.value == pytest.approx(0.7, abs=1e-12)
        assert est.residual <= 1e-12
        assert est.converged

    def test_reciprocal_residual_sees_through_exact_interpolation(self):
        # tail half is 2 points, so a plain fit residual would be zero even
        # though the quadratic term biases the intercept; the nested-fit
        # residual stays informative and bounds the actual error
        taus = np.array([10.0, 20.0, 40.0, 80.0])
        est = extract_long_rate(pairs(taus, 0.7 + 3.0 / taus + 50.0 / taus**2))
        assert est.residual > 1e-3
        assert not est.converged
        assert abs(est.value - 0.7) <= est.residual

    def test_reciprocal_residual_bounds_error_on_price_like_tails(self):
        taus = np.array([125.0, 250.0, 500.0, 1000.0])
        for c in (-200.0, -20.0, 5.0, 80.0):
            est = extract_long_rate(pairs(taus, 0.55 + 5.0 / taus + c / taus**2))
            assert abs(est.value - 0.55) <= max(est.residual, 1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            pairs([1, 2, 3], [1, 2, 3]),  # too few points
            pairs([1, 2, 2, 4], [1, 2, 3, 4]),  # not increasing
            pairs([0, 1, 2, 3], [1, 2, 3, 4]),  # non-positive tau
            pairs([1, 2, 3, 4], [1, 2, np.nan, 4]),  # non-finite value
        ],
    )
    def test_bad_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            extract_long_rate(bad)

    def test_spectral_method_rejected_on_curve_values(self):
        with pytest.raises(ValueError, match="spectral"):
            extract_long_rate(pairs([1, 2, 3, 4], [1, 1, 1, 1]),
                              ExtractionMethod.SPECTRAL)

    @given(st.floats(-0.9, 0.9), st.floats(-5, 5))
    def test_reciprocal_exact_on_its_own_model_class(self, a, b):
        taus = np.array([125.0, 250.0, 500.0, 1000.0])
        est = extract_long_rate(pairs(taus, a + b / taus))
        assert abs(est.value - a) <= 1e-9 * max(1.0, abs(a), abs(b))


class TestPerron:
    def test_symmetric_two_state_has_rational_root(self):
        est = perron_long_rate(SYM2)
        assert est.value == pytest.approx(21.0 / 22.0, abs=1e-12)
        assert est.method is ExtractionMethod.SPECTRAL
        assert est.residual <= 1e-12
        assert est.converged

    @pytest.mark.parametrize("chain", [SYM2, CHAIN3, CHAIN4])
    def test_matches_dense_eigensolver(self, chain):
        # independent oracle: dominant eigenvalue from the dense solver
        eigs = np.linalg.eigvals(chain.discounted_transition())
        dominant = float(np.max(np.abs(eigs)))
        assert perron_long_rate(chain).value == pytest.approx(dominant, abs=1e-10)

    def test_residual_bounds_the_error_on_a_slowly_mixing_chain(self):
        # successive power-iteration ratios creep by less than 1e-12 a step
        # long before they reach the root, so only a bracket is an honest bound
        chain = MarkovChain([0.0, 0.001], [[1 - 1e-4, 1e-4], [1e-4, 1 - 1e-4]], 0)
        est = perron_long_rate(chain)
        root = float(np.max(np.abs(np.linalg.eigvals(chain.discounted_transition()))))
        assert est.converged
        assert abs(est.value - root) <= est.residual <= 1e-12

    def test_reducible_chain_rejected(self):
        chain = MarkovChain([0.0, 0.1], [[1.0, 0.0], [0.5, 0.5]], 0)
        with pytest.raises(ValueError, match="reducible"):
            perron_long_rate(chain)

    def test_periodic_chain_rejected(self):
        chain = MarkovChain([0.0, 0.1], [[0.0, 1.0], [1.0, 0.0]], 0)
        with pytest.raises(ValueError, match="periodic"):
            perron_long_rate(chain)

    def test_extraction_agrees_with_spectral_oracle(self):
        taus = np.array([62, 125, 250, 500])
        for chain in (SYM2, CHAIN3, CHAIN4):
            _, rates = build_curves(chain, None, 0, taus, Regime.DISCRETE)
            est = extract_long_rate(pairs(taus, rates.x))
            assert abs(est.value - perron_long_rate(chain).value) <= 1e-6


class TestForwardZeroGap:
    @pytest.mark.parametrize("chain", [SYM2, CHAIN3, CHAIN4])
    def test_gap_decays_below_1e4_by_500(self, chain):
        report = forward_zero_gap(chain, None, 0, np.arange(100, 501, 50))
        assert report.tail_gap <= 1e-4
        assert report.is_decreasing()

    def test_needs_discrete_model(self):
        from longrates.models import PoissonJump

        with pytest.raises(ValueError, match="regime"):
            forward_zero_gap(PoissonJump(0.05, 0.1, 0.5), None, 0, [10, 20])


class TestConversions:
    def test_known_values(self):
        assert long_zero_from_x(21.0 / 22.0, Regime.DISCRETE) == pytest.approx(
            1.0 / 21.0, abs=1e-15
        )
        assert x_from_long_zero(0.55, Regime.CONTINUOUS) == pytest.approx(
            np.exp(-0.55), rel=1e-15
        )

    @given(st.floats(0.5, 1.5))
    def test_round_trip_both_regimes(self, x):
        for regime in (Regime.DISCRETE, Regime.CONTINUOUS):
            z = long_zero_from_x(x, regime)
            assert x_from_long_zero(z, regime) == pytest.approx(x, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            long_zero_from_x(0.0, Regime.DISCRETE)
        with pytest.raises(ValueError):
            x_from_long_zero(-1.0, Regime.DISCRETE)
