"""Tests of the benchmark's own checks and inputs.

The file name keeps it out of the repository's default test collection;
run it by path:

    python3 -m pytest -q -p no:cacheprovider perfbench/tests/self_checks.py
"""

import math
import sys
from pathlib import Path
from time import perf_counter, sleep

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks as C  # noqa: E402
import workloads as W  # noqa: E402

MARKOV2 = ([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]])
JUMP = (0.05, 0.1, 0.5)


def test_mc_estimate_five_standard_errors_off_is_rejected():
    exact, se = C.jump_price(*JUMP, 5.0), 2.5e-4
    C.check_mc(exact + 3.9 * se, se, exact)
    with pytest.raises(C.CheckError):
        C.check_mc(exact + 5.0 * se, se, exact)
    with pytest.raises(C.CheckError):
        C.check_mc(exact, 0.0, exact)


def test_perron_root_off_by_1e6_is_rejected():
    root = C.perron_root(*MARKOV2)
    assert abs(root - 21.0 / 22.0) <= 1e-15
    C.check_near([root + 1e-9], root, 1e-8)
    with pytest.raises(C.CheckError):
        C.check_near([root + 1e-6], root, 1e-8)


def test_jump_model_x_off_by_1e3_is_rejected():
    r0, delta, lam = JUMP
    x = np.exp(-(r0 + np.array([0, 1, 4]) * delta + lam))
    assert C.jump_counts(x, r0, delta, lam).tolist() == [0, 1, 4]
    bad = x.copy()
    bad[1] *= 1.0 + 1e-3
    with pytest.raises(C.CheckError):
        C.jump_counts(bad, r0, delta, lam)
    # a factor e^+delta above k = 0 would need k = -1
    with pytest.raises(C.CheckError):
        C.jump_counts([math.exp(-(r0 - delta + lam))], r0, delta, lam)


def test_wrong_share_of_zero_increments_is_rejected():
    rng = np.random.default_rng(11)
    mean, n = 2.5, 10_000
    k_s = rng.poisson(1.0, n)
    inc = rng.poisson(mean, n)
    C.check_poisson_increments(k_s, k_s + inc, mean)
    # move increments of 1 to 0 until the zero share is 2 points too high;
    # the mean moves by 0.02, well inside its own 5 SE
    ones = np.flatnonzero(inc == 1)[: n // 50]
    skewed = inc.copy()
    skewed[ones] = 0
    assert abs(skewed.mean() - mean) <= 5 * math.sqrt(mean / n)
    with pytest.raises(C.CheckError, match="zero increments"):
        C.check_poisson_increments(k_s, k_s + skewed, mean)


def test_one_flipped_byte_in_a_cli_output_is_rejected(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "summary.json").write_text('{"value": 0.95454545454545459}\n')
        (d / "report.csv").write_bytes(b"path,x\n0,0.95\n")
    C.check_same_files(a, b)
    data = bytearray((b / "report.csv").read_bytes())
    data[-2] ^= 0x01
    (b / "report.csv").write_bytes(bytes(data))
    with pytest.raises(C.CheckError, match="report.csv"):
        C.check_same_files(a, b)


def test_a_call_on_a_host_twice_as_slow_is_scaled_to_half(monkeypatch):
    monkeypatch.setattr(W, "timed_kernel", lambda: 2 * W.REF_KERNEL_S)
    tally = W.Tally()
    assert tally.call("nap", sleep, 0.05) is None
    assert tally.scaled["nap"][0] == pytest.approx(tally.times["nap"][0] / 2)
    assert tally.round_s() == pytest.approx(tally.round_s(scaled=False) / 2)
    assert W.scaled(0.3, W.REF_START_S, 0.1, 0.2) == pytest.approx(0.4)


def test_exact_power_mean_matches_the_frozen_lemma_row():
    assert C.exact_power_mean([1, 2, 3, 4], [0.25] * 4, 50) == 3.890619833715975


def test_forward_zero_gaps_of_markov2_shrink():
    gaps = C.chain_forward_zero_gaps(*MARKOV2, 0, range(100, 501, 50))
    assert np.all(np.diff(gaps) < 0) and gaps[-1] <= 1e-4


@pytest.mark.parametrize("cls", [W.ExactLab, W.McPricing])
def test_a_second_seed_gives_other_inputs_that_still_pass(cls):
    first, second = cls(), cls()
    first.build(1, perf_counter())
    second.build(2, perf_counter())
    if cls is W.ExactLab:
        assert not np.array_equal(first.chains[0].transition, second.chains[0].transition)
        assert not np.array_equal(first.limit[1], second.limit[1])
    else:
        assert first.seeds != second.seeds
    tally = W.Tally()
    second.round(tally)
    assert tally.attempted > 0
    assert tally.failed == 0 and tally.wrong == 0
