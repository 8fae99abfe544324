import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from longrates.finiteprob import (
    FiniteProbSpace,
    Partition,
    Rv,
    cond_ess_sup,
    cond_expectation,
    cond_p_norm,
    conditional_holder_gap,
    dominated_convergence_trace,
    pnorm_liminf_bound,
    pnorm_limit_check,
)

FOUR = FiniteProbSpace(np.array([0.25, 0.25, 0.25, 0.25]))
SKEW = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.4]))


def mp_cell_norm(probs, values, p):
    """Independent arbitrary-precision power mean."""
    with mpmath.workdps(80):
        mass = mpmath.fsum(mpmath.mpf(w) for w in probs)
        s = mpmath.fsum(
            mpmath.mpf(w) * mpmath.mpf(v) ** mpmath.mpf(p)
            for w, v in zip(probs, values)
        )
        return float((s / mass) ** (1 / mpmath.mpf(p)))


@st.composite
def space_with_partition(draw):
    n = draw(st.integers(2, 8))
    weights = draw(st.lists(st.floats(0.05, 10.0), min_size=n, max_size=n))
    probs = np.asarray(weights) / np.sum(weights)
    space = FiniteProbSpace(probs)
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    cells: dict[int, list[int]] = {}
    for atom, lab in enumerate(labels):
        cells.setdefault(lab, []).append(atom)
    return space, space.partition(list(cells.values()))


class TestValidation:
    def test_space_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="positive"):
            FiniteProbSpace(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ValueError, match="sum"):
            FiniteProbSpace(np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match="vector"):
            FiniteProbSpace(np.array([[0.5, 0.5]]))

    def test_rv_shape_and_finiteness(self):
        with pytest.raises(ValueError, match="one entry per atom"):
            FOUR.rv([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            FOUR.rv([1.0, np.nan, 3.0, 4.0])

    def test_partition_must_be_disjoint_cover(self):
        with pytest.raises(ValueError, match="cover"):
            FOUR.partition([[0, 1], [2]])
        with pytest.raises(ValueError, match="disjoint"):
            FOUR.partition([[0, 1, 2], [2, 3]])
        with pytest.raises(ValueError, match="range"):
            FOUR.partition([[0, 1], [2, 7]])
        with pytest.raises(ValueError, match="non-empty"):
            FOUR.partition([[0, 1, 2, 3], []])

    def test_mismatched_spaces_rejected(self):
        x = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="different spaces"):
            cond_expectation(x, SKEW.partition([[0, 1], [2, 3]]))

    def test_cell_index_lookup(self):
        part = FOUR.partition([[1, 3], [0, 2]])
        assert list(part.cell_index()) == [1, 0, 1, 0]
        assert part.n_cells == 2


class TestConditionalExpectation:
    def test_hand_oracle(self):
        x = SKEW.rv([1.0, 2.0, 3.0, 4.0])
        part = SKEW.partition([[0, 2], [1, 3]])
        out = cond_expectation(x, part).values
        # cell {0,2}: (0.1*1 + 0.3*3) / 0.4; cell {1,3}: (0.2*2 + 0.4*4) / 0.6
        assert out[0] == out[2] == pytest.approx(2.5, rel=1e-15)
        assert out[1] == out[3] == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_trivial_and_singleton_partitions(self):
        x = SKEW.rv([1.0, 2.0, 3.0, 4.0])
        coarse = cond_expectation(x, SKEW.trivial_partition()).values
        assert np.allclose(coarse, x.expectation(), rtol=1e-15)
        fine = cond_expectation(x, SKEW.singleton_partition()).values
        assert np.array_equal(fine, x.values)

    @given(space_with_partition(), st.lists(st.floats(-100, 100), min_size=8, max_size=8))
    def test_tower_property(self, sp, raw):
        space, part = sp
        x = space.rv(raw[: space.n_atoms])
        projected = cond_expectation(x, part)
        assert projected.expectation() == pytest.approx(
            x.expectation(), rel=1e-12, abs=1e-12
        )


class TestConditionalPNorm:
    @pytest.mark.parametrize("p", [7.5, 3000.0])
    def test_matches_arbitrary_precision_oracle(self, p):
        values = np.array([0.5, 2.0, 3.25, 4.0])
        cells = [[0, 2], [1, 3]]
        out = cond_p_norm(SKEW.rv(values), p, SKEW.partition(cells)).values
        probs = SKEW.atom_probs
        for cell in cells:
            want = mp_cell_norm(probs[cell], values[cell], p)
            for atom in cell:
                assert out[atom] == pytest.approx(want, rel=1e-12)

    def test_frozen_four_atom_value_at_p_50(self):
        x = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        out = cond_p_norm(x, 50.0, FOUR.trivial_partition()).values
        assert out[0] == pytest.approx(3.8906198337159748, abs=1e-14)

    def test_p_equal_one_is_conditional_mean(self):
        x = SKEW.rv([0.5, 2.0, 3.25, 4.0])
        part = SKEW.partition([[0, 1], [2, 3]])
        assert np.allclose(
            cond_p_norm(x, 1.0, part).values,
            cond_expectation(x, part).values,
            rtol=1e-14,
        )

    @given(space_with_partition(), st.lists(st.floats(0, 50), min_size=8, max_size=8),
           st.floats(1, 40), st.floats(0.1, 40))
    def test_monotone_in_p(self, sp, raw, p_lo, dp):
        space, part = sp
        x = space.rv(raw[: space.n_atoms])
        lo = cond_p_norm(x, p_lo, part).values
        hi = cond_p_norm(x, p_lo + dp, part).values
        assert np.all(hi >= lo - 1e-9 * np.maximum(1.0, np.abs(lo)))

    def test_zeros_handled_exactly(self):
        x = SKEW.rv([0.0, 0.0, 3.0, 0.0])
        part = SKEW.partition([[0, 1], [2, 3]])
        out = cond_p_norm(x, 10.0, part).values
        assert out[0] == out[1] == 0.0  # all-zero cell
        want = mp_cell_norm(SKEW.atom_probs[[2, 3]], [3.0, 0.0], 10.0)
        assert out[2] == pytest.approx(want, rel=1e-12)

    def test_tiny_values_keep_their_own_norm(self):
        # values below 1e-300, subnormal ones too, are not raised to 1e-300
        half = FiniteProbSpace(np.array([0.5, 0.5]))
        x = half.rv([1e-310, 1e-310])
        out = cond_p_norm(x, 2.0, half.trivial_partition()).values
        assert out.tolist() == pytest.approx([1e-310, 1e-310], rel=1e-9, abs=0.0)

    def test_invalid_arguments(self):
        x = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        part = FOUR.trivial_partition()
        with pytest.raises(ValueError, match=">= 1"):
            cond_p_norm(x, 0.5, part)
        with pytest.raises(ValueError, match="non-negative"):
            cond_p_norm(FOUR.rv([1.0, -2.0, 3.0, 4.0]), 2.0, part)


class TestEssSupAndLimit:
    def test_ess_sup_is_cell_max(self):
        x = SKEW.rv([1.0, 5.0, 3.0, 2.0])
        out = cond_ess_sup(x, SKEW.partition([[0, 1], [2, 3]])).values
        assert list(out) == [5.0, 5.0, 3.0, 3.0]

    def test_limit_report_on_four_atoms(self):
        x = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        report = pnorm_limit_check(
            x, FOUR.trivial_partition(), [1, 2, 5, 10, 100, 10_000]
        )
        assert report.monotone_in_p()
        assert report.within_bound()
        assert np.all(report.ess_sup == 4.0)
        # at p = 1e4 the norm is within -log(1/4)/1e4 of the sup, relatively
        assert np.all(report.relative_gap <= np.log(4.0) / 10_000.0)
        assert report.norms[-1, 0] < 4.0

    def test_huge_values_and_huge_p_do_not_overflow(self):
        x = SKEW.rv([1e10, 3.0, 2e9, 0.0])
        report = pnorm_limit_check(
            x, SKEW.partition([[0, 1], [2, 3]]), [2, 100, 1e6]
        )
        assert np.all(np.isfinite(report.norms))
        assert report.within_bound()
        assert report.norms[-1, 0] == pytest.approx(1e10, rel=1e-4)

    def test_tiny_values_stay_below_the_ess_sup(self):
        half = FiniteProbSpace(np.array([0.5, 0.5]))
        x = half.rv([1e-305, 2e-305])
        report = pnorm_limit_check(x, half.trivial_partition(), [1, 2, 10])
        assert report.norms[0, 0] == pytest.approx(1.5e-305, rel=1e-12, abs=0.0)
        assert np.all(report.ess_sup == 2e-305)
        assert np.all(report.relative_gap >= 0.0)
        assert report.within_bound()

    def test_all_zero_variable(self):
        x = FOUR.rv([0.0, 0.0, 0.0, 0.0])
        report = pnorm_limit_check(x, FOUR.trivial_partition(), [1, 10])
        assert np.all(report.norms == 0.0)
        assert np.all(report.relative_gap == 0.0)
        assert report.within_bound()

    @given(space_with_partition(), st.lists(st.floats(0, 100), min_size=8, max_size=8))
    def test_gap_within_bound_generically(self, sp, raw):
        space, part = sp
        x = space.rv(raw[: space.n_atoms])
        report = pnorm_limit_check(x, part, [1, 10, 1000])
        assert report.within_bound()
        assert report.monotone_in_p()

    def test_schedule_validation(self):
        x = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        part = FOUR.trivial_partition()
        with pytest.raises(ValueError, match="increasing"):
            pnorm_limit_check(x, part, [2, 2])
        with pytest.raises(ValueError, match=">= 1"):
            pnorm_limit_check(x, part, [0.5, 2])
        with pytest.raises(ValueError):
            pnorm_limit_check(x, part, [])


class TestLiminfBound:
    def test_constant_limit_passes_at_zero_tol(self):
        limit = FOUR.rv([2.5, 2.5, 2.5, 2.5])
        report = pnorm_liminf_bound(
            lambda n: limit, limit, FOUR.trivial_partition(), [2, 4, 8, 16], tol=0.0
        )
        assert report.all_pass
        assert report.converged
        assert np.all(report.deviations == 0.0)

    def test_nonconstant_limit_needs_finite_n_allowance(self):
        limit = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        part = FOUR.trivial_partition()
        schedule = [2, 4, 8, 16, 32, 50]
        strict = pnorm_liminf_bound(lambda n: limit, limit, part, schedule, tol=0.0)
        # the max atom sits above the finite-n norms, so tol 0 must fail
        assert not strict.all_pass
        assert strict.converged
        # norm at n = 16 is the tail minimum; 4 - 3.6703... < 0.34
        eased = pnorm_liminf_bound(lambda n: limit, limit, part, schedule, tol=0.34)
        assert eased.all_pass
        assert eased.liminf_proxy[0] == pytest.approx(3.6703066031994140, abs=1e-12)

    def test_sequence_approaching_from_below(self):
        limit = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        part = FOUR.trivial_partition()

        def seq(n):
            return FOUR.rv(np.clip((1.0 - 1.0 / n) * limit.values, 0.0, None))

        report = pnorm_liminf_bound(seq, limit, part, [2, 4, 8, 16, 32, 50], tol=0.6)
        assert report.all_pass
        assert report.converged
        assert np.all(np.diff(report.deviations) < 0)

    def test_validation(self):
        limit = FOUR.rv([1.0, 1.0, 1.0, 1.0])
        part = FOUR.trivial_partition()
        with pytest.raises(ValueError, match="two"):
            pnorm_liminf_bound(lambda n: limit, limit, part, [4], tol=0.1)
        with pytest.raises(ValueError, match="increasing"):
            pnorm_liminf_bound(lambda n: limit, limit, part, [4, 4], tol=0.1)
        with pytest.raises(ValueError, match="non-negative"):
            pnorm_liminf_bound(lambda n: limit, limit, part, [2, 4], tol=-0.1)
        bad = FOUR.rv([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            pnorm_liminf_bound(lambda n: bad, limit, part, [2, 4], tol=0.1)

    def test_infinite_tol_is_refused(self):
        # an infinite tol would pass any limit: here 5 and 9 against norms of 2
        far = FOUR.rv([5.0, 9.0, 5.0, 9.0])
        small = FOUR.rv([2.0, 2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            pnorm_liminf_bound(lambda n: small, far, FOUR.trivial_partition(),
                               [2, 4], tol=math.inf)


class TestHolder:
    @given(space_with_partition(),
           st.lists(st.floats(0, 100), min_size=8, max_size=8),
           st.lists(st.floats(0, 100), min_size=8, max_size=8),
           st.floats(1.1, 10))
    def test_gap_never_negative(self, sp, raw_x, raw_y, p):
        space, part = sp
        x = space.rv(raw_x[: space.n_atoms])
        y = space.rv(raw_y[: space.n_atoms])
        gap = conditional_holder_gap(x, y, part, p)
        assert np.all(gap >= -1e-9)

    def test_equality_for_cell_constant_variables(self):
        part = SKEW.partition([[0, 1], [2, 3]])
        x = SKEW.rv([2.0, 2.0, 5.0, 5.0])
        y = SKEW.rv([3.0, 3.0, 0.5, 0.5])
        gap = conditional_holder_gap(x, y, part, 2.5)
        assert np.allclose(gap, 0.0, atol=1e-12)

    def test_p_must_exceed_one(self):
        x = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="exceed 1"):
            conditional_holder_gap(x, x, FOUR.trivial_partition(), 1.0)


class TestDominatedConvergence:
    def test_norms_descend_to_conditional_mean(self):
        x = SKEW.rv([1.0, 2.0, 3.0, 4.0])
        part = SKEW.partition([[0, 1], [2, 3]])
        trace = dominated_convergence_trace(x, part, [2, 4, 8, 16, 64, 256])
        assert np.all(np.diff(trace.deviations) <= 1e-15)
        assert np.all(trace.norms >= trace.target - 1e-12)
        assert trace.converged(atol=0.01)
        assert np.allclose(trace.target, cond_expectation(x, part).values)

    def test_schedule_validation(self):
        x = FOUR.rv([1.0, 2.0, 3.0, 4.0])
        part = FOUR.trivial_partition()
        with pytest.raises(ValueError, match=">= 2"):
            dominated_convergence_trace(x, part, [1, 2])
        with pytest.raises(ValueError, match="increasing"):
            dominated_convergence_trace(x, part, [4, 2])


def scale_space():
    """2,400 atoms in 300 cells: 20 singletons, one all-zero cell, some zero
    atoms elsewhere, and values rounded to 0.1 so cell maxima tie."""
    rng = np.random.default_rng(20011223)
    weights = rng.uniform(0.05, 1.0, 2400)
    space = FiniteProbSpace(weights / weights.sum())
    atoms = rng.permutation(2400)
    labels = np.concatenate([np.arange(300), rng.integers(20, 300, 2100)])
    cells = [atoms[labels == k].tolist() for k in range(300)]
    values = np.round(rng.exponential(2.0, 2400), 1)
    values[cells[20]] = 0.0
    return space, cells, values


def ref_cell_norm(probs, values, p):
    """Per-cell log-domain power mean, summed with math.fsum."""
    terms = [
        math.log(w) + p * math.log(v) if v > 0 else -math.inf
        for w, v in zip(probs, values)
    ]
    top = max(terms)
    if top == -math.inf:
        return 0.0
    lse = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    return math.exp((lse - math.log(math.fsum(probs))) / p)


class TestGroupedOperatorsAtScale:
    SPACE, CELLS, VALUES = scale_space()
    X, PART = SPACE.rv(VALUES), SPACE.partition(CELLS)

    def per_cell(self, fn):
        """One reference value per atom: fn(cell probs, cell values) on its cell."""
        out = np.empty(self.SPACE.n_atoms)
        for cell in self.CELLS:
            probs, values = self.SPACE.atom_probs[cell], self.VALUES[cell]
            out[cell] = fn(probs.tolist(), values.tolist())
        return out

    def test_the_space_has_the_awkward_cells(self):
        sizes = [len(c) for c in self.CELLS]
        assert len(self.CELLS) == 300 and min(sizes) >= 1
        assert sizes.count(1) >= 20
        assert np.all(self.VALUES[self.CELLS[20]] == 0.0) and sizes[20] > 1
        assert 0 < np.count_nonzero(self.VALUES == 0.0) - sizes[20]
        cell_values = [self.VALUES[c] for c in self.CELLS]
        assert sum(v.max() > 0 and np.sum(v == v.max()) > 1 for v in cell_values) > 1

    def test_cond_expectation(self):
        got = cond_expectation(self.X, self.PART)
        want = self.per_cell(
            lambda w, v: math.fsum(a * b for a, b in zip(w, v)) / math.fsum(w)
        )
        np.testing.assert_allclose(got.values, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 64.0, 1e4])
    def test_cond_p_norm(self, p):
        got = cond_p_norm(self.X, p, self.PART)
        want = self.per_cell(lambda w, v: ref_cell_norm(w, v, p))
        np.testing.assert_allclose(got.values, want, rtol=1e-13, atol=0)

    def test_cond_ess_sup(self):
        got = cond_ess_sup(self.X, self.PART)
        assert np.array_equal(got.values, self.per_cell(lambda w, v: max(v)))

    def test_limit_bound(self):
        report = pnorm_limit_check(self.X, self.PART, [1, 64, 1e4])

        def bound(w, v):
            top = max(v)
            if top <= 0:
                return 0.0
            mass_top = math.fsum(a for a, b in zip(w, v) if b == top)
            return -math.log(mass_top / math.fsum(w)) / 1e4

        want = self.per_cell(bound)
        np.testing.assert_allclose(report.bound, want, rtol=1e-13, atol=0)
