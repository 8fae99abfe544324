import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longrates.longrate import (
    ExtractionMethod,
    _extract_table,
    _intercepts,
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


def random_chain(n, seed):
    rng = np.random.default_rng(seed)
    return MarkovChain(rng.uniform(0.0, 0.1, n), rng.dirichlet(np.ones(n), n), 0)


NEARLY_SPLIT = MarkovChain([0.0, 1e-9], [[1 - 1e-12, 1e-12], [1e-12, 1 - 1e-12]], 0)


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


class TestExtractTable:
    @pytest.mark.parametrize("method", [
        ExtractionMethod.PLAIN_TAIL, ExtractionMethod.RECIPROCAL_EXTRAPOLATION,
    ])
    @pytest.mark.parametrize("n", range(4, 10))
    def test_equals_extract_long_rate_row_by_row(self, method, n):
        rng = np.random.default_rng(n)
        taus = np.cumsum(rng.uniform(0.5, 400.0, n))
        curves = rng.normal(0.9, 0.1, (40, n)) + rng.normal(0.0, 3.0, (40, 1)) / taus
        curves[::5] = rng.normal(size=(8, 1))  # flat rows
        value, residual, converged = _extract_table(taus, curves, method, 1e-4)
        for k, row in enumerate(curves):
            est = extract_long_rate(pairs(taus, row), method, 1e-4)
            assert value[k] == est.value
            assert residual[k] == est.residual
            assert converged[k] == est.converged
        if method is ExtractionMethod.PLAIN_TAIL:
            assert np.all(residual[::5] == 0.0)
        else:
            assert np.all(residual[::5] <= 1e-14 * np.abs(curves[::5, 0]))


    @pytest.mark.parametrize("seed", range(6))
    def test_intercepts_match_per_row_lstsq(self, seed):
        # the reference solves each row on its own, and its last bits differ
        # from the fixed weights': allow a few ulps of max|c|, scaled by the
        # sum of |weights|, which is how far a fit amplifies a rounding error
        rng = np.random.default_rng(seed)
        for n in range(4, 17):
            taus = np.cumsum(rng.uniform(0.5, 400.0, n))
            curves = rng.normal(0.9, 0.1, (30, n)) + rng.normal(0.0, 3.0, (30, 1)) / taus
            curves[::3] = rng.normal(size=(10, 1))  # flat rows
            design = np.column_stack([np.ones(n), 1.0 / taus])
            want = [np.linalg.lstsq(design, row, rcond=None)[0][0] for row in curves]
            got = _intercepts(taus, curves)
            gain = np.abs(np.linalg.pinv(design)[0]).sum()
            ulp = np.spacing(np.abs(curves).max(axis=1))
            assert np.all(np.abs(got - want) <= 16 * gain * ulp), n
            assert np.array_equal(got[::3], curves[::3, 0])


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

    @pytest.mark.parametrize("chain", [
        pytest.param(MarkovChain([0.0, 0.001], [[1 - p, p], [p, 1 - p]], 0), id=f"flip-{p:g}")
        for p in (1e-4, 1e-7)
    ] + [pytest.param(random_chain(n, n), id=f"random-{n}") for n in (8, 32, 128)] + [
        # second eigenvalue within 2e-12 of the root: about 45 squarings
        pytest.param(NEARLY_SPLIT, id="nearly-split"),
    ])
    def test_squaring_residual_bounds_the_error(self, chain):
        root = float(np.max(np.abs(np.linalg.eigvals(chain.discounted_transition()))))
        est = perron_long_rate(chain)
        assert est.converged
        assert abs(est.value - root) <= est.residual <= 1e-12

    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("chain", [
        MarkovChain([0.0, 0.001], [[1 - 1e-4, 1e-4], [1e-4, 1 - 1e-4]], 0),
        random_chain(8, 8), NEARLY_SPLIT,
    ], ids=["flip-1e-4", "random-8", "nearly-split"])
    def test_residual_bounds_the_error_when_stopped_early(self, chain, tol):
        root = float(np.max(np.abs(np.linalg.eigvals(chain.discounted_transition()))))
        est = perron_long_rate(chain, tol)
        assert abs(est.value - root) <= est.residual <= tol

    def test_residual_never_reads_below_rounding_level(self):
        # a bracket computed in floats can close to 0 while the value is
        # still an ulp off the root; the floor keeps the residual honest
        est = perron_long_rate(SYM2)
        assert est.residual >= 8 * np.finfo(float).eps * est.value

    def test_tol_scales_with_a_root_above_one(self):
        # x = 1e4: the bracket's rounding floor, 4 n eps root = 1.8e-11, is
        # above 1e-12 but within 1e-12 * root
        chain = MarkovChain([-0.9999, -0.9999], [[0.5, 0.5], [0.5, 0.5]], 0)
        est = perron_long_rate(chain)
        root = 1.0 / (1.0 - 0.9999)
        assert 1e-12 < est.residual <= 1e-12 * root
        assert abs(est.value - root) <= est.residual

    def test_tol_stays_absolute_for_a_root_below_one(self):
        # x = 1e-6: a tol of 1e-16 is within reach of the rounding floor,
        # 4 n eps root = 8.9e-22, though 1e-16 * root is not
        chain = MarkovChain([1e6 - 1, 1e6 - 1], [[0.5, 0.5], [0.5, 0.5]], 0)
        est = perron_long_rate(chain, tol=1e-16)
        assert est.value == pytest.approx(1e-6, rel=1e-15)
        assert est.residual <= 1e-16

    def test_unreachable_tol_does_not_converge(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            perron_long_rate(SYM2, tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_non_negative(self, tol, monkeypatch):
        # refused before any squaring, by the rule extraction applies to tol
        monkeypatch.setattr("longrates.models._MAX_SQUARINGS", 0)
        with pytest.raises(ValueError, match="tol must be a non-negative number"):
            perron_long_rate(SYM2, tol=tol)

    def test_reducible_chain_takes_the_largest_root_it_reaches(self):
        # state 1 is absorbing; state 0 reaches it, and its own class is the
        # singleton whose root is its discounted self-loop, 0.99 / 1.01
        chain = MarkovChain([0.01, 0.08], [[0.99, 0.01], [0.0, 1.0]], 0)
        est = perron_long_rate(chain)
        assert est.converged
        assert est.value == pytest.approx(0.99 / 1.01, abs=1e-15)
        assert abs(est.value - 0.99 / 1.01) <= est.residual <= 1e-12
        absorbed = perron_long_rate(chain.conditioned(1))
        assert absorbed.value == pytest.approx(1.0 / 1.08, abs=1e-15)
        # the same chain with its states renumbered: a class is not the set
        # of states whose first reachable state is the same
        mirrored = MarkovChain([0.08, 0.01], [[1.0, 0.0], [0.01, 0.99]], 1)
        assert perron_long_rate(mirrored).value == pytest.approx(0.99 / 1.01, abs=1e-15)
        # an absorbing class with the larger root wins from every state
        chain = MarkovChain([0.0, 0.1], [[1.0, 0.0], [0.5, 0.5]], 1)
        assert perron_long_rate(chain).value == pytest.approx(1.0, abs=1e-15)

    def test_a_state_that_leaves_at_once_adds_a_zero_root(self):
        # states 0 and 1 are singleton classes without a self-loop
        chain = MarkovChain([0.0, 0.05, 0.1], [[0, 1, 0], [0, 0, 1], [0, 0, 1]], 0)
        for state in range(3):
            est = perron_long_rate(chain.conditioned(state))
            assert est.value == pytest.approx(1.0 / 1.1, abs=1e-15)

    def test_a_state_carries_the_residual_of_the_classes_it_reaches(self):
        # state 0 leaves at once (its own root 0 is exact) for markov2's pair
        chain = MarkovChain([0.0, 0.0, 0.1], [[0, 1, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]], 0)
        est, pair = perron_long_rate(chain), perron_long_rate(chain.conditioned(1))
        assert est.value == pair.value == pytest.approx(21.0 / 22.0, abs=1e-15)
        assert est.residual == pair.residual > 0.0

    @pytest.mark.parametrize("eps", [0.0, 1e-30])
    def test_periodic_chain_converges_to_its_root(self, eps):
        # eigenvalues +-rho of D: only the shift by s separates them
        chain = MarkovChain([0.0, 0.1], [[eps, 1.0 - eps], [1.0, eps]], 0)
        est = perron_long_rate(chain)
        root = math.sqrt(1.0 / 1.1)
        assert est.converged
        assert abs(est.value - root) <= est.residual <= 1e-12

    def test_random_patterns_match_brute_force_powers(self):
        # reference from the definitions, one matrix power at a time: j is
        # reachable from i within n - 1 steps, and the classes are the sets
        # of states that reach one another. A state's root is the largest
        # eigvals modulus over the blocks of the classes it reaches. The kind
        # of pattern only checks that the sample covers all three: an
        # irreducible pattern is periodic unless some power A^k with
        # k <= (n - 1)^2 + 1 (Wielandt's bound) is all positive
        def reference(chain, pattern):
            n = len(pattern)
            step = np.eye(n, dtype=int)
            powers = []
            for _ in range((n - 1) ** 2 + 1):
                step = np.minimum(step @ pattern, 1)
                powers.append(step)
            reach = (np.eye(n, dtype=int) + sum(powers[: n - 1])) > 0
            d = chain.discounted_transition()
            roots = []
            for j in range(n):
                cls = np.flatnonzero(reach[j] & reach[:, j])
                roots.append(np.abs(np.linalg.eigvals(d[np.ix_(cls, cls)])).max())
            if not reach.all():
                kind = "reducible"
            else:
                kind = "irreducible" if any(p.all() for p in powers) else "periodic"
            return [max(r for r, hit in zip(roots, row) if hit) for row in reach], kind

        rng = np.random.default_rng(2024)
        seen = {"reducible": 0, "periodic": 0, "irreducible": 0}
        for _ in range(300):
            n = int(rng.integers(1, 7))
            pattern = (rng.random((n, n)) < rng.uniform(0.1, 0.6)).astype(int)
            if rng.random() < 0.5:
                # edges only from one class of a cycle to the next: periodic
                # wherever irreducible
                d = int(rng.integers(2, 4))
                cls = rng.integers(0, d, n)
                pattern *= cls[None, :] == (cls[:, None] + 1) % d
            empty = pattern.sum(axis=1) == 0
            pattern[empty, rng.integers(0, n, empty.sum())] = 1
            weights = pattern * rng.uniform(0.5, 1.5, (n, n))
            chain = MarkovChain(
                rng.uniform(0.0, 0.1, n), weights / weights.sum(axis=1)[:, None], 0
            )
            want, kind = reference(chain, pattern)
            seen[kind] += 1
            for state, root in enumerate(want):
                est = perron_long_rate(chain.conditioned(state))
                assert est.converged and est.residual <= 1e-12
                assert est.value == pytest.approx(root, abs=1e-12), (pattern, state)
        assert min(seen.values()) >= 20, seen

    def test_extraction_agrees_with_spectral_oracle(self):
        taus = np.array([62, 125, 250, 500])
        for chain in (SYM2, CHAIN3, CHAIN4):
            rates = build_curves(chain, None, 0, taus, Regime.DISCRETE)
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
