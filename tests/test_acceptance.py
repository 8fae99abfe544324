"""Acceptance battery: one test per shipped guarantee, with runtime caps.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion. Frozen oracle values were computed by independent routes
(arbitrary-precision series for the jump model, hand eigenvalues and exact
power sums for the chains) and must not drift.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import mpmath
import numpy as np
import pytest

from longrates.finiteprob import (
    FiniteProbSpace,
    cond_p_norm,
    conditional_holder_gap,
    dominated_convergence_trace,
    pnorm_limit_check,
)
from longrates.longrate import (
    ExtractionMethod,
    extract_long_rate,
    forward_zero_gap,
    long_zero_from_x,
    perron_long_rate,
)
from longrates.measure import tower_identity_check
from longrates.models import MarkovChain, PoissonJump, Regime
from longrates.pricing import (
    build_curves,
    log_price_closed_form,
    price_closed_form,
    price_mc,
)
from longrates.verify import run_poisson_example, standard_fleet, verify_dir

SEED = 20260819
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
POISSON = PoissonJump(0.05, 0.1, 0.5)
SYM2 = MarkovChain([0.0, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)


@contextmanager
def criterion(num: int, description: str, cap_seconds: float):
    """Emit exactly one verdict line and enforce the runtime cap."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num}: FAIL ({description}; {elapsed:.2f} s, "
              f"cap {cap_seconds:g} s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > cap_seconds:
        print(f"criterion {num}: FAIL ({description}; {elapsed:.2f} s over "
              f"cap {cap_seconds:g} s)")
        raise AssertionError(f"criterion {num} exceeded its cap: "
                             f"{elapsed:.2f} s > {cap_seconds:g} s")
    print(f"criterion {num}: PASS ({description}; {elapsed:.2f} s, "
          f"cap {cap_seconds:g} s)")


def test_criterion_1_poisson_pricing_oracle():
    with criterion(1, "jump-model closed form and 200k-path Monte Carlo", 10.0):
        lp = log_price_closed_form(POISSON, None, 0.0, 10.0, Regime.CONTINUOUS)
        z = -lp / 10.0
        assert abs(z - 0.23393972058572116) <= 1e-12  # frozen oracle
        assert abs(z - 0.233940) <= 1e-6
        price = price_closed_form(POISSON, None, 0.0, 10.0, Regime.CONTINUOUS)
        assert abs(price - 0.0963857214709668) <= 1e-15  # frozen oracle
        mc = price_mc(POISSON, None, 0.0, 10.0, 200_000, SEED, Regime.CONTINUOUS)
        assert mc.std_error > 0
        assert abs(mc.value - price) <= 3.0 * mc.std_error


def test_criterion_2_long_rate_convergence():
    with criterion(2, "long zero rate reaches r0 + intensity = 0.55", 1.0):
        taus = np.array([125.0, 250.0, 500.0, 1000.0])
        rates = build_curves(POISSON, None, 0.0, taus, Regime.CONTINUOUS)
        pairs = np.column_stack([taus, rates.zero])
        plain = extract_long_rate(pairs, ExtractionMethod.PLAIN_TAIL)
        # analytic tail gap is intensity/(delta*tau) = 0.005 at tau = 1000
        assert abs(plain.value - 0.55) <= 0.006
        recip = extract_long_rate(pairs)
        assert abs(recip.value - 0.55) <= 1e-3
        assert recip.converged


def test_criterion_3_spectral_oracle_agreement():
    with criterion(3, "Perron squaring vs hand eigenvalue 21/22", 1.0):
        spectral = perron_long_rate(SYM2)
        assert abs(spectral.value - 21.0 / 22.0) <= 1e-12
        z_long = long_zero_from_x(spectral.value, Regime.DISCRETE)
        assert abs(z_long - 1.0 / 21.0) <= 1e-12
        taus = np.array([62.0, 125.0, 250.0, 500.0])
        rates = build_curves(SYM2, None, 0, taus, Regime.DISCRETE)
        est = extract_long_rate(np.column_stack([taus, rates.x]))
        assert abs(est.value - spectral.value) <= 1e-6


def test_criterion_4_theorem_suite():
    with criterion(4, "no long-rate drop across the fleet, 10k paths", 120.0):
        schedule = (250, 500, 1000, 2000)
        for member in standard_fleet():
            for s, t in ((0, 1), (0, 5), (2, 7)):
                report = verify_dir(
                    member.model, s, t, schedule, 10_000, SEED, member.regime,
                    model_id=member.name,
                )
                cell = f"{member.name} ({s},{t})"
                assert report.passed, cell
                assert report.n_violations == 0, cell
                assert report.n_nonconverged == 0, cell
                assert report.spectral_gap <= 1e-4, cell


def test_criterion_5_forward_measure_identity():
    with criterion(5, "conditioning identity, exact chain and 200k-path MC", 20.0):
        chain = tower_identity_check(SYM2, 0, 2, 5, Regime.DISCRETE)
        assert chain.exact
        assert abs(chain.gap) <= 1e-12
        jump = tower_identity_check(
            POISSON, 0.0, 5.0, 15.0, Regime.CONTINUOUS, n=200_000, seed=SEED
        )
        assert not jump.exact
        assert jump.se > 0
        assert abs(jump.gap) <= 3.0 * jump.se


def test_criterion_6_conditional_norm_lab():
    with criterion(6, "conditional p-norms climb to the essential supremum", 5.0):
        space = FiniteProbSpace(np.array([0.25, 0.25, 0.25, 0.25]))
        x = space.rv([1.0, 2.0, 3.0, 4.0])
        trivial = space.trivial_partition()

        # frozen norm at p = 50 against an in-test arbitrary-precision sum
        with mpmath.workdps(60):
            want = float(
                mpmath.fsum(
                    mpmath.mpf(1) / 4 * mpmath.mpf(v) ** 50 for v in (1, 2, 3, 4)
                ) ** (1 / mpmath.mpf(50))
            )
        assert abs(want - 3.8906198337159748) <= 1e-15
        norm50 = float(cond_p_norm(x, 50.0, trivial).values[0])
        assert abs(norm50 - 3.8906198337159748) <= 1e-14
        assert abs(norm50 - 3.8907) <= 1e-4

        report = pnorm_limit_check(x, trivial, [1.0, 10.0, 100.0, 10_000.0])
        gap = 4.0 - float(report.norms[-1, 0])
        assert 0.0 <= gap <= 4.0 * math.log(4.0) / 10_000.0
        assert report.within_bound()
        assert report.monotone_in_p()

        # seed-fixed sweep of random spaces and partitions
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            probs = rng.dirichlet(np.ones(n))
            space = FiniteProbSpace(probs / probs.sum())
            labels = rng.integers(0, 3, n)
            cells: dict[int, list[int]] = {}
            for atom, lab in enumerate(labels):
                cells.setdefault(int(lab), []).append(atom)
            part = space.partition(list(cells.values()))
            u = space.rv(rng.uniform(0.0, 5.0, n))
            v = space.rv(rng.uniform(0.0, 5.0, n))
            for p in (1.5, 2.0, 4.0):
                assert np.all(conditional_holder_gap(u, v, part, p) >= -1e-12)
            trace = dominated_convergence_trace(
                u, part, [2, 4, 8, 16, 64, 256, 1024]
            )
            assert np.all(np.diff(trace.deviations) <= 1e-12)
            assert trace.converged(atol=0.05)


def test_criterion_7_forward_zero_gap_decay():
    with criterion(7, "forward and zero curves agree to 1e-4 by T = 500", 1.0):
        maturities = np.arange(100, 501, 50)
        for member in standard_fleet():
            if member.regime is not Regime.DISCRETE:
                continue
            report = forward_zero_gap(member.model, None, 0, maturities)
            assert report.tail_gap <= 1e-4, member.name
            assert report.is_decreasing(), member.name


def test_criterion_8_long_rate_spread():
    with criterion(8, "time-t long rate is genuinely random seen from s", 30.0):
        example = run_poisson_example(
            0.05, 0.1, 0.5, 0.0, 5.0, n_paths=500, seed=SEED,
            mc_maturities=(1.0, 5.0, 10.0), n_mc=20_000,
            n_continuations=100_000,
        )
        spread = example.spread
        assert spread.n == 100_000
        assert spread.theoretical == pytest.approx(0.025, rel=1e-12)
        assert abs(spread.variance - spread.theoretical) <= 4.0 * spread.std_error
        # far from degenerate: the variance towers over its own noise floor
        assert spread.variance >= 10.0 * spread.std_error
        assert example.long_zero_identity_ok
        assert example.monotonicity.passed


def _run(argv, out: Path) -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "longrates", *argv, "--out", str(out)],
        capture_output=True, text=True,
    )
    return proc.returncode


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "byte-identical CLI reruns across thread counts", 120.0):
        battery = [
            ("simulate", "poisson.json"),
            ("price", "poisson.json"),
            ("curve", "poisson.json"),
            ("long-rate", "markov2.json"),
            ("verify-measure", "markov2.json"),
            ("verify-dir", "markov2.json"),
            ("lemma-lab", "four_atoms.json"),
        ]
        for cmd, config_name in battery:
            config = CONFIGS / config_name
            outs = [tmp_path / cmd / run for run in ("a", "b", "threads")]
            assert _run([cmd, "--config", str(config)], outs[0]) == 0, cmd
            assert _run([cmd, "--config", str(config)], outs[1]) == 0, cmd
            assert _run([cmd, "--config", str(config), "--threads", "4"],
                        outs[2]) == 0, cmd
            names = sorted(p.name for p in outs[0].iterdir())
            assert names, cmd
            for out in outs[1:]:
                assert sorted(p.name for p in out.iterdir()) == names, cmd
                for name in names:
                    assert (out / name).read_bytes() == \
                        (outs[0] / name).read_bytes(), f"{cmd}/{name}"

        # frozen trace row: exact power sum rendered at round-trip precision
        trace = (tmp_path / "lemma-lab" / "a" / "trace.csv").read_text()
        assert trace.splitlines()[-1] == "50,3,3.890619833715975,4,true"

        # verification failure exits 2
        strict = json.loads((CONFIGS / "four_atoms.json").read_text())
        strict["tolerances"]["tol"] = 0.0
        strict_path = tmp_path / "strict.json"
        strict_path.write_text(json.dumps(strict))
        assert _run(["lemma-lab", "--config", str(strict_path)],
                    tmp_path / "strict_out") == 2

        # configuration error exits 1
        broken = json.loads((CONFIGS / "markov2.json").read_text())
        del broken["model"]
        broken_path = tmp_path / "broken.json"
        broken_path.write_text(json.dumps(broken))
        assert _run(["simulate", "--config", str(broken_path)],
                    tmp_path / "broken_out") == 1
