"""The jump model's law for one path, drawn from its own `path_rng`.

`PoissonJump._sample` draws every path at once; the tests compare its rows
with this path-by-path reference, which shares no code with it.
"""

import math

import numpy as np


def poisson_count(u: float, mean: float) -> int:
    """The smallest k with P(N <= k) > u for N ~ Poisson(mean), summing the
    probabilities in order from log space; it stops where the sum does."""
    k, cdf = 0, 0.0
    log_mean = math.log(mean)
    while True:
        step = math.exp(k * log_mean - mean - math.lgamma(k + 1.0))
        cdf += step
        if u < cdf or (k > mean and cdf + step == cdf):
            return k
        k += 1


def sample_jump_times(
    rng: np.random.Generator, intensity: float, horizon: float
) -> np.ndarray:
    """One path's jump times on [0, horizon]: the first uniform picks the
    Poisson count N, and the next N, sorted and scaled, are the times."""
    count = poisson_count(rng.random(), intensity * horizon)
    return horizon * np.sort(rng.random(count))
