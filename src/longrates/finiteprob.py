"""Exact conditional-expectation calculus on finite probability spaces.

On a finite space with strictly positive atom probabilities everything is
exactly computable: a sub-sigma-algebra is a partition of the atoms, the
conditional expectation is a per-cell weighted mean, the conditional p-norm
is a per-cell weighted power mean, and the conditional essential supremum is
a per-cell maximum. Norms are evaluated in the log domain so exponents in
the thousands neither overflow nor lose the comparison with the supremum.

That machinery turns limit statements about conditional norms into finite,
machine-checkable inequalities, which is what the report builders at the
bottom of the module produce.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FiniteProbSpace",
    "Rv",
    "Partition",
    "cond_expectation",
    "cond_p_norm",
    "cond_ess_sup",
    "PNormLimitReport",
    "pnorm_limit_check",
    "LiminfBoundReport",
    "pnorm_liminf_bound",
    "conditional_holder_gap",
    "DominatedConvergenceTrace",
    "dominated_convergence_trace",
]


@dataclass(frozen=True, eq=False)
class FiniteProbSpace:
    """Finite sample space given by strictly positive atom probabilities."""

    atom_probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.atom_probs, dtype=float)
        object.__setattr__(self, "atom_probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("atom_probs must be a non-empty vector")
        if np.any(p <= 0) or not np.all(np.isfinite(p)):
            raise ValueError("atom probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1")

    @property
    def n_atoms(self) -> int:
        return int(self.atom_probs.size)

    def rv(self, values) -> "Rv":
        return Rv(self, np.asarray(values, dtype=float))

    def partition(self, cells: Sequence[Sequence[int]]) -> "Partition":
        return Partition(self, tuple(cells))

    def trivial_partition(self) -> "Partition":
        return self.partition([list(range(self.n_atoms))])

    def singleton_partition(self) -> "Partition":
        return self.partition([[k] for k in range(self.n_atoms)])


@dataclass(frozen=True, eq=False)
class Rv:
    """Random variable: one value per atom."""

    space: FiniteProbSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.space.n_atoms,):
            raise ValueError("values must have one entry per atom")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")

    def expectation(self) -> float:
        return float(np.dot(self.space.atom_probs, self.values))


@dataclass(frozen=True, eq=False)
class Partition:
    """Partition of the atoms; stands in for a sub-sigma-algebra."""

    space: FiniteProbSpace
    cells: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cells = tuple(np.asarray(c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        sizes = [cell.size for cell in cells]
        if 0 in sizes:
            raise ValueError("cells must be non-empty")
        # cell by cell: next to an int cell, a bool cell would concatenate as int
        if any(cell.ndim != 1 or cell.dtype.kind not in "iu" for cell in cells):
            raise ValueError("cells must be vectors of integer atom indices")
        n = self.space.n_atoms
        atoms = np.concatenate(cells, dtype=int) if cells else np.empty(0, dtype=int)
        if np.any(atoms < 0) or np.any(atoms >= n):
            raise ValueError("cell refers to an atom out of range")
        counts = np.bincount(atoms, minlength=n)
        if np.any(counts > 1):
            raise ValueError("cells must be disjoint")
        if np.any(counts == 0):
            raise ValueError("cells must cover every atom")
        index = np.empty(n, dtype=int)
        index[atoms] = np.repeat(np.arange(len(cells)), sizes)
        object.__setattr__(self, "_cell_index", index)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_index(self) -> np.ndarray:
        """Atom -> cell id lookup."""
        return self._cell_index

    def cell_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-cell sums of one value per atom, added in atom order."""
        return np.bincount(self._cell_index, weights=values, minlength=self.n_cells)

    def cell_maxima(self, values: np.ndarray) -> np.ndarray:
        """Per-cell maxima of one value per atom."""
        out = np.full(self.n_cells, -np.inf)
        np.maximum.at(out, self._cell_index, values)
        return out


def _check_same_space(x: Rv, partition: Partition) -> None:
    if x.space is not partition.space and not np.array_equal(
        x.space.atom_probs, partition.space.atom_probs
    ):
        raise ValueError("random variable and partition live on different spaces")


def _check_schedule(name: str, values, cast, least, min_len: int = 1) -> tuple:
    """Refuse an entry that is a bool or not a real number, then cast each
    entry; check that an int cast keeps it, the length, the lower bound and
    strict increase."""
    values = tuple(values)
    # float() and int() would read True as 1 and "2" as 2
    if any(isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real)
           for v in values):
        raise ValueError(f"{name} must hold real numbers")
    schedule = tuple(map(cast, values))
    if cast is int and schedule != values:
        raise ValueError(f"{name} must hold whole numbers")
    if len(schedule) < min_len or any(v < least for v in schedule):
        count = "two entries" if min_len == 2 else "one entry"
        raise ValueError(f"{name} needs at least {count}, each >= {least}")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return schedule


def cond_expectation(x: Rv, partition: Partition) -> Rv:
    """E[X | partition]: per-cell probability-weighted mean, constant on cells."""
    _check_same_space(x, partition)
    p = x.space.atom_probs
    means = partition.cell_sums(p * x.values) / partition.cell_sums(p)
    return Rv(x.space, means[partition.cell_index()])


def cond_p_norm(x: Rv, p: float, partition: Partition) -> Rv:
    """Conditional p-norm E[X^p | partition]^(1/p) for non-negative X.

    Computed in the log domain: the terms log w + p log x are shifted by their
    cell's maximum (by 0 in a cell of zeros), exponentiated, summed per cell and
    logged, so the norm stays finite for p in the thousands.
    """
    _check_same_space(x, partition)
    if not (math.isfinite(p) and p >= 1):
        raise ValueError("p must be a finite number >= 1")
    if np.any(x.values < 0):
        raise ValueError("conditional p-norms are defined for non-negative values")
    probs = x.space.atom_probs
    cells = partition.cell_index()
    with np.errstate(divide="ignore"):
        terms = np.log(probs) + p * np.log(x.values)
        shift = partition.cell_maxima(terms)
        shift[np.isneginf(shift)] = 0.0
        lse = np.log(partition.cell_sums(np.exp(terms - shift[cells]))) + shift
    norms = np.exp((lse - np.log(partition.cell_sums(probs))) / p)
    return Rv(x.space, norms[cells])


def cond_ess_sup(x: Rv, partition: Partition) -> Rv:
    """Conditional essential supremum: per-cell maximum (all atoms have mass)."""
    _check_same_space(x, partition)
    return Rv(x.space, partition.cell_maxima(x.values)[partition.cell_index()])


@dataclass(frozen=True, eq=False)
class PNormLimitReport:
    """Trace of conditional p-norms climbing to the essential supremum.

    The relative gap at the largest p obeys the a priori per-cell bound
    -log(P(maximizers | cell)) / p, reported here alongside the data.
    """

    p_schedule: tuple[float, ...]
    norms: np.ndarray
    ess_sup: np.ndarray
    relative_gap: np.ndarray
    bound: np.ndarray

    def within_bound(self, slack: float = 1e-12) -> bool:
        gap = self.relative_gap
        return bool(np.all((-slack <= gap) & (gap <= self.bound + slack)))

    def monotone_in_p(self) -> bool:
        return bool(np.all(np.diff(self.norms, axis=0) >= -1e-12))


def pnorm_limit_check(x: Rv, partition: Partition, p_schedule) -> PNormLimitReport:
    """Evaluate conditional p-norms along a p schedule against the ess sup."""
    schedule = _check_schedule("p_schedule", p_schedule, float, least=1)
    norms = np.vstack([cond_p_norm(x, p, partition).values for p in schedule])
    sup = cond_ess_sup(x, partition).values
    # a cell whose maximum is 0 holds only zeros, and so does its norm
    rel = (sup - norms[-1]) / np.where(sup > 0, sup, 1.0)
    probs = x.space.atom_probs
    mass_top = partition.cell_sums(np.where(x.values == sup, probs, 0.0))
    share = (mass_top / partition.cell_sums(probs))[partition.cell_index()]
    bound = np.where(sup > 0, -np.log(share) / schedule[-1], 0.0)
    return PNormLimitReport(schedule, norms, sup, rel, bound)


@dataclass(frozen=True, eq=False)
class LiminfBoundReport:
    """Verdict for: limit variable <= liminf of conditional n-norms of X_n.

    The liminf is approximated by the running minimum of the norm trace over
    the tail half of the schedule; `converged` reports whether the sequence
    actually settled (max deviation from the limit non-increasing on the
    tail), since a wandering sequence voids the hypothesis rather than the
    conclusion.
    """

    n_schedule: tuple[int, ...]
    norms: np.ndarray
    limit_values: np.ndarray
    liminf_proxy: np.ndarray
    deviations: np.ndarray
    tol: float
    atom_ok: np.ndarray
    converged: bool

    @property
    def all_pass(self) -> bool:
        return bool(self.atom_ok.all())


def pnorm_liminf_bound(
    sequence: Callable[[int], Rv],
    limit_rv: Rv,
    partition: Partition,
    n_schedule,
    tol: float,
) -> LiminfBoundReport:
    """Check limit <= liminf_n ||X_n | partition||_n + tol atom by atom.

    `sequence` maps n to the non-negative variable X_n; the X_n are expected
    to converge to `limit_rv` pointwise. With everything finite the check
    runs the schedule, takes the tail-half running minimum of the norms as
    the liminf stand-in, and compares.
    """
    schedule = _check_schedule("n_schedule", n_schedule, int, least=1, min_len=2)
    if not math.isfinite(tol) or tol < 0:
        raise ValueError("tol must be a finite non-negative number")
    _check_same_space(limit_rv, partition)
    norms = np.empty((len(schedule), limit_rv.space.n_atoms))
    deviations = np.empty(len(schedule))
    for k, n in enumerate(schedule):
        x_n = sequence(n)
        norms[k] = cond_p_norm(x_n, float(n), partition).values
        deviations[k] = float(np.abs(x_n.values - limit_rv.values).max())
    tail_start = len(schedule) // 2
    proxy = norms[tail_start:].min(axis=0)
    atom_ok = limit_rv.values <= proxy + tol
    tail_dev = deviations[tail_start:]
    converged = bool(np.all(np.diff(tail_dev) <= 1e-15)) if tail_dev.size > 1 else True
    return LiminfBoundReport(
        schedule, norms, limit_rv.values.copy(), proxy, deviations,
        float(tol), atom_ok, converged,
    )


def conditional_holder_gap(x: Rv, y: Rv, partition: Partition, p: float) -> np.ndarray:
    """Per-atom slack of conditional Hoelder: ||X||_p ||Y||_q - E[XY | .] >= 0."""
    if not (math.isfinite(p) and p > 1):
        raise ValueError("p must exceed 1 so the conjugate exponent is finite")
    q = p / (p - 1.0)
    # the norms check both variables before their product is formed
    rhs = cond_p_norm(x, p, partition).values * cond_p_norm(y, q, partition).values
    lhs = cond_expectation(Rv(x.space, x.values * y.values), partition).values
    return rhs - lhs


@dataclass(frozen=True, eq=False)
class DominatedConvergenceTrace:
    """Conditional q-norms with q = n/(n-1) -> 1 against the conditional mean."""

    n_schedule: tuple[int, ...]
    norms: np.ndarray
    target: np.ndarray
    deviations: np.ndarray

    def converged(self, atol: float) -> bool:
        return bool(self.deviations[-1] <= atol)


def dominated_convergence_trace(
    x: Rv, partition: Partition, n_schedule
) -> DominatedConvergenceTrace:
    """Trace ||X | partition||_{n/(n-1)} toward E[X | partition] as n grows.

    On a finite space the dominating bound is automatic (the max), so the
    norms must converge to the conditional mean; the trace exhibits it.
    """
    schedule = _check_schedule("n_schedule", n_schedule, int, least=2)
    target = cond_expectation(x, partition).values
    norms = np.empty((len(schedule), x.space.n_atoms))
    deviations = np.empty(len(schedule))
    for k, n in enumerate(schedule):
        q = n / (n - 1.0)
        norms[k] = cond_p_norm(x, q, partition).values
        deviations[k] = float(np.abs(norms[k] - target).max())
    return DominatedConvergenceTrace(schedule, norms, target, deviations)
