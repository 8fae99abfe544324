"""Independent reference values and output checks for the benchmark.

Nothing here imports longrates. Every reference is computed from the model
parameters with numpy or math alone, so a check fails only when the
program's output disagrees with a computation made apart from it. Each
check raises CheckError with a message naming the disagreement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np


class CheckError(AssertionError):
    """A program output disagrees with its independent reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def discounted(rates, transition) -> np.ndarray:
    """Transition matrix with row i divided by 1 + R_i."""
    return np.asarray(transition, float) / (1.0 + np.asarray(rates, float))[:, None]


def perron_root(rates, transition) -> float:
    """Dominant eigenvalue of the discounted matrix, from numpy.linalg.eigvals.

    For a non-negative irreducible matrix the Perron root is real and has
    the largest real part of all eigenvalues.
    """
    return float(np.linalg.eigvals(discounted(rates, transition)).real.max())


def chain_price(rates, transition, state: int, n: int) -> float:
    """P(0, n) from `state` by backward induction with matrix powers."""
    d = discounted(rates, transition)
    return float((np.linalg.matrix_power(d, n) @ np.ones(d.shape[0]))[state])


def chain_forward_zero_gaps(rates, transition, state: int, maturities) -> np.ndarray:
    """|forward - zero| at integer maturities from time 0, discrete compounding.

    Log prices come from repeated multiplication by the discounted matrix,
    renormalized every step, so prices hundreds of periods out stay finite.
    """
    d = discounted(rates, transition)
    mats = [int(m) for m in maturities]
    last = max(mats) + 1
    v = np.ones(d.shape[0])
    log_scale = 0.0
    lp = np.empty(last + 1)
    lp[0] = 0.0
    for n in range(1, last + 1):
        v = d @ v
        top = float(v.max())
        v /= top
        log_scale += math.log(top)
        lp[n] = log_scale + math.log(v[state])
    m = np.asarray(mats)
    forward = np.expm1(lp[m] - lp[m + 1])
    zero = np.expm1(-lp[m] / m)
    return np.abs(forward - zero)


def jump_log_price(r, delta, lam, tau) -> float:
    """log P(t, t + tau) in the jump model from current rate r (closed form)."""
    return -(r + lam) * tau + lam * (1.0 - math.exp(-delta * tau)) / delta


def jump_price(r, delta, lam, tau) -> float:
    return math.exp(jump_log_price(r, delta, lam, tau))


def check_mc(value: float, se: float, exact: float, k: float = 4.0, what="estimate"):
    """A Monte Carlo estimate lies within k standard errors of the exact value."""
    require(se > 0.0, f"{what}: standard error {se!r} is not positive")
    z = (value - exact) / se
    require(abs(z) <= k, f"{what}: {value!r} is {z:+.2f} standard errors from {exact!r}")


def check_near(values, target: float, tol: float, what="value"):
    """Every value lies within tol of target (absolute)."""
    worst = float(np.max(np.abs(np.asarray(values, float) - target)))
    require(worst <= tol, f"{what}: off {target!r} by {worst:.3e} > {tol:g}")


def check_rel(value: float, target: float, rtol: float, what="value"):
    err = abs(value - target) / abs(target)
    require(err <= rtol, f"{what}: {value!r} vs {target!r}, relative error {err:.3e} > {rtol:g}")


def jump_counts(x, r0: float, delta: float, lam: float, rtol: float = 1e-4) -> np.ndarray:
    """Jump counts k >= 0 with x = exp(-(r0 + k delta + lam)) to within rtol.

    The jump-model long growth factor from rate r0 + k delta is
    exp(-(r0 + k delta + lam)); consecutive k differ by a factor e^-delta,
    so the nearest k is the only candidate.
    """
    x = np.asarray(x, float)
    require(bool(np.all(x > 0)), "jump-model x must be positive")
    k = np.rint((-np.log(x) - r0 - lam) / delta)
    require(bool(np.all(k >= 0)), "jump-model x implies a negative jump count")
    target = np.exp(-(r0 + k * delta + lam))
    worst = float(np.max(np.abs(x / target - 1.0)))
    require(worst <= rtol, f"jump-model x off exp(-(r0 + k delta + lam)) by {worst:.3e} relative")
    return k.astype(np.int64)


def check_poisson_increments(k_s, k_t, mean: float, z: float = 5.0):
    """Count increments match Poisson(mean): share of zeros and mean within z SE."""
    inc = np.asarray(k_t) - np.asarray(k_s)
    n = inc.size
    require(bool(np.all(inc >= 0)), "jump counts fell between the observation times")
    p0 = math.exp(-mean)
    share = float(np.mean(inc == 0))
    se0 = math.sqrt(p0 * (1.0 - p0) / n)
    require(abs(share - p0) <= z * se0,
            f"share of zero increments {share:.5f} vs {p0:.5f} ({(share - p0) / se0:+.2f} SE)")
    se1 = math.sqrt(mean / n)
    got = float(inc.mean())
    require(abs(got - mean) <= z * se1,
            f"mean increment {got:.5f} vs {mean:.5f} ({(got - mean) / se1:+.2f} SE)")


def power_mean(values, weights, p: float) -> float:
    """(sum w v^p / sum w)^(1/p) with math.fsum, scaled by the maximum."""
    top = max(values)
    if top == 0.0:
        return 0.0
    num = math.fsum(w * (v / top) ** p for v, w in zip(values, weights))
    return top * (num / math.fsum(weights)) ** (1.0 / p)


def check_power_means(norms, rows, probs, cells, schedule, sample, rtol=1e-12):
    """Sampled conditional norms equal per-cell power means to rtol relative.

    `norms` has one row per schedule entry and one column per atom, `rows`
    the variable's values for each row, and `sample` (row, cell) pairs.
    """
    for row, c in sample:
        cell = cells[c]
        want = power_mean(rows[row][cell].tolist(), probs[cell].tolist(), schedule[row])
        got = float(norms[row][cell[0]])
        require(abs(got - want) <= rtol * abs(want),
                f"norm p={schedule[row]:g} cell {c}: {got!r} vs power mean {want!r}")


def check_rise_and_cap(norms, values, cells):
    """Norm rows rise with p and stay at or below each cell's maximum."""
    norms = np.asarray(norms, float)
    # rounding in exp/log may move a norm by a few ulp; allow exactly that
    ulp = 8.0 * np.finfo(float).eps
    require(bool(np.all(np.diff(norms, axis=0) >= -ulp * norms[1:])),
            "conditional norms fall as p rises")
    cell_max = np.empty(values.size)
    for cell in cells:
        cell_max[cell] = values[cell].max()
    require(bool(np.all(norms <= cell_max * (1.0 + ulp))),
            "a conditional norm exceeds its cell maximum")


def exact_power_mean(values, probs, p: int) -> float:
    """Power mean with the sum taken exactly in rationals (integer p)."""
    total = sum(Fraction(w) * Fraction(v) ** p for v, w in zip(values, probs))
    return float(total) ** (1.0 / p)


def check_same_files(a: Path, b: Path):
    """Two output directories hold the same file names with identical bytes."""
    require(a.is_dir() and b.is_dir(), f"{a} or {b} is missing")
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    require(names_a == names_b, f"{b} holds {names_b}, {a} holds {names_a}")
    require(bool(names_a), f"{a} is empty")
    for name in names_a:
        require((a / name).read_bytes() == (b / name).read_bytes(),
                f"{b / name} differs from {a / name}")
