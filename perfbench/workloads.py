"""The four benchmark workloads and the tally of their operations.

Every workload builds its inputs from the benchmark seed, runs whole rounds
of the same operations, and checks each output against `checks`. Only the
program calls are timed; checks run between them, outside the timings.
Nothing here starts a thread, and CLI calls run one at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks as C

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SCHEDULE = (250, 500, 1000, 2000)  # maturity offsets of criterion 4


_REF_RNG = np.random.default_rng(20011223)
_REF_MATRIX = _REF_RNG.dirichlet(np.ones(32), size=32)
_REF_VECTOR = _REF_RNG.random(4096)

# seconds the reference kernel takes at the host's base speed (2-vCPU Xeon
# at 2.0 GHz, Python 3.11, numpy 2.4); scaled times are in these seconds
REF_KERNEL_S = 0.004


def reference_kernel() -> float:
    """A fixed piece of work that does not touch longrates.

    It mixes what the program spends its time on: interpreted loops with
    dict updates and float arithmetic, numpy ufuncs on 4k-element arrays,
    and small matrix-vector steps. Timed next to every program call, it
    measures the host's speed at that moment.
    """
    acc = 0.0
    table = {}
    for i in range(4000):
        table[i % 97] = acc
        acc += (i * 0.5) % 7.0
    v = _REF_VECTOR
    for _ in range(30):
        v = np.exp(-np.abs(np.log1p(v)))
        np.searchsorted(_REF_VECTOR[:512], v[:64])
    x = np.ones(32)
    for _ in range(300):
        x = _REF_MATRIX @ x
        x /= x.sum()
    return acc + float(x[0] + v[0])


def timed_kernel() -> float:
    """The reference kernel's time: the fastest of three back-to-back runs,
    so that a cold cache or the clean-up after a child process, which can
    stretch a single run several-fold, does not count as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - t0)
    return best


# seconds a fresh interpreter takes to import numpy and exit at the host's
# base speed: the reference for the CLI processes of cli-configs
REF_START_S = 0.2


def timed_start(env: dict) -> float:
    """Wall seconds of a fresh interpreter that imports numpy and exits.

    Starting a process and loading extension modules does not keep pace
    with the in-process kernel (a child may run on another vCPU, and page
    faults cost more than arithmetic when the host is busy), so CLI
    processes are measured against another process start.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=env,
                   capture_output=True, check=True)
    return perf_counter() - t0


def scaled(elapsed: float, reference_s: float, *measured: float) -> float:
    """Wall seconds at the host's base speed: `elapsed` times the reference's
    base-speed time over the mean of its times measured next to it."""
    return elapsed * reference_s * len(measured) / sum(measured)


class Tally:
    """Per-operation timings and the outcomes of a set of rounds.

    An operation is one timed program call. It fails when it raises (or, for
    the CLI, exits non-zero); a completed operation whose output disagrees
    with a check is wrong, which makes the run incorrect.

    The reference kernel runs right before and right after every operation.
    An operation's scaled time is its wall time times REF_KERNEL_S over the
    mean of those two kernel times: its wall time at the host's base speed.
    A caller that passes scale=False adds the scaled time itself.
    """

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}  # wall seconds
        self.scaled: dict[str, list[float]] = {}  # seconds at base speed
        self.reference: list[float] = []  # wall seconds of the reference runs
        self.paths: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def call(self, key: str, fn, *args, paths: int = 0, scale: bool = True, **kwargs):
        self.attempted += 1
        before = timed_kernel() if scale else 0.0
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing call is counted, not fatal
            self.failed += 1
            print(f"failed {key}: {exc!r}", file=sys.stderr)
            return None
        elapsed = perf_counter() - t0
        self.times.setdefault(key, []).append(elapsed)
        self.paths[key] = paths
        if scale:
            after = timed_kernel()
            self.reference += [before, after]
            self.scaled.setdefault(key, []).append(scaled(elapsed, REF_KERNEL_S, before, after))
        return result

    def check(self, key: str, fn, *args) -> None:
        try:
            fn(*args)
        except C.CheckError as exc:
            self.wrong += 1
            print(f"wrong {key}: {exc}", file=sys.stderr)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong

    def round_s(self, scaled: bool = True) -> float:
        """One round's time: each operation's median over the rounds, summed;
        in seconds at base speed, or in wall seconds."""
        times = self.scaled if scaled else self.times
        return sum(median(v) for v in times.values())

    def paths_per_s(self) -> float:
        """Paths of the path-simulating operations per second at base speed."""
        keys = [k for k, n in self.paths.items() if n > 0]
        return sum(self.paths[k] for k in keys) / sum(median(self.scaled[k]) for k in keys)


class Workload:
    """Rounds, metrics and clean-up shared by the workloads."""

    min_rounds = 1
    rusage = resource.RUSAGE_SELF  # whose peak resident set is reported

    def metrics(self, tally: Tally) -> dict[str, float]:
        return {
            "round_s": tally.round_s(),
            "paths_per_s": tally.paths_per_s(),
            "peak_rss_mb": resource.getrusage(self.rusage).ru_maxrss / 1024.0,
        }

    def close(self) -> None:
        pass


class InProcess(Workload):
    """A workload that calls the library in this process."""

    def build(self, seed: int, t0: float) -> float:
        """Import longrates and build the inputs; returns the wall seconds
        since t0.

        This one cold sample is not scaled: a reference measured after it
        tracks it too loosely, and dividing by one added spread."""
        import longrates

        if not Path(longrates.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"longrates was imported from {longrates.__file__}, not {SRC}")
        self.L = longrates
        self.make_inputs(np.random.default_rng([seed, self.tag]))
        return perf_counter() - t0

    def trace(self, rec, tally: Tally) -> dict[str, float]:
        """One untraced and one traced round; returns the trace figures."""
        self.round(tally)
        traced = Tally()
        rec.install()
        try:
            self.round(traced)
        finally:
            rec.uninstall()
        tally.merge(traced)
        return {
            "trace.overhead_s": traced.round_s() - tally.round_s(),
            "trace.top_share": rec.top_s / traced.round_s(scaled=False),
            "host.kernel_s": median(tally.reference + traced.reference),
            "cli.work_s": 0.0,
            "cli.start_s": 0.0,
        }


class DirFleet(InProcess):
    """verify_dir on every standard_fleet() member and window, 2,500 paths a cell."""

    name = "dir-fleet"
    tag = 1
    windows = ((0, 1), (0, 5), (2, 7))
    n_paths = 2_500

    def make_inputs(self, rng) -> None:
        self.seed = int(rng.integers(2**63))
        self.cells = [(m, s, t) for m in self.L.standard_fleet() for s, t in self.windows]
        self.roots: dict[str, float] = {}

    def warm_up(self) -> None:
        for member in self.L.standard_fleet():
            self.L.verify_dir(member.model, 0, 1, SCHEDULE, 50, self.seed, member.regime)

    def round(self, tally: Tally) -> None:
        for member, s, t in self.cells:
            key = f"{member.name} ({s},{t})"
            report = tally.call(
                key, self.L.verify_dir, member.model, s, t, SCHEDULE, self.n_paths,
                self.seed, member.regime, model_id=member.name, paths=self.n_paths,
            )
            if report is not None:
                tally.check(key, self.check, member, s, t, report)

    def check(self, member, s, t, report) -> None:
        L = self.L
        C.require(report.n_paths == self.n_paths, f"{report.n_paths} paths certified")
        C.require(report.passed and report.n_violations == 0,
                  f"{report.n_violations} violations")
        C.require(report.n_nonconverged == 0,
                  f"{report.n_nonconverged} extractions did not converge")
        model = member.model
        if isinstance(model, L.MarkovChain):
            if member.name not in self.roots:
                self.roots[member.name] = C.perron_root(model.state_rates, model.transition)
            root = self.roots[member.name]
            C.check_near(report.x_s, root, 1e-4, "x(s) against the Perron root")
            C.check_near(report.x_t, root, 1e-4, "x(t) against the Perron root")
        elif isinstance(model, L.PoissonJump):
            args = (model.r0, model.delta, model.intensity)
            k_s = C.jump_counts(report.x_s, *args)
            k_t = C.jump_counts(report.x_t, *args)
            C.check_poisson_increments(k_s, k_t, model.intensity * (t - s))
        else:
            C.check_near(report.x_s, 1.0 / (1.0 + model.rate), 1e-4, "constant x(s)")
            C.check_near(report.x_t, 1.0 / (1.0 + model.rate), 1e-4, "constant x(t)")


class McPricing(InProcess):
    """price_mc for the jump model and the 4-state fleet chain, and the
    jump-model forward-measure tower check, 10k-20k paths a call."""

    name = "mc-pricing"
    tag = 2
    jump = (0.05, 0.1, 0.5)
    maturities = (1.0, 2.0, 5.0, 10.0)
    horizons = (2, 6)
    n_paths = 10_000
    tower = (0.0, 5.0, 15.0)
    n_tower = 20_000

    def make_inputs(self, rng) -> None:
        L = self.L
        self.model = L.PoissonJump(*self.jump)
        self.chain = next(m.model for m in L.standard_fleet() if m.name == "markov4")
        n_seeds = len(self.maturities) + len(self.horizons) + 1
        self.seeds = [int(v) for v in rng.integers(2**63, size=n_seeds)]

    def warm_up(self) -> None:
        L = self.L
        L.price_mc(self.model, None, 0.0, 1.0, 100, 1, L.Regime.CONTINUOUS)
        L.price_mc(self.chain, None, 0, 2, 100, 1, L.Regime.DISCRETE)
        L.tower_identity_check(self.model, *self.tower, L.Regime.CONTINUOUS, n=100, seed=1)

    def round(self, tally: Tally) -> None:
        L = self.L
        seeds = iter(self.seeds)
        r0, delta, lam = self.jump
        for T in self.maturities:
            key = f"jump T={T:g}"
            est = tally.call(key, L.price_mc, self.model, None, 0.0, T, self.n_paths,
                             next(seeds), L.Regime.CONTINUOUS, paths=self.n_paths)
            if est is not None:
                tally.check(key, C.check_mc, est.value, est.std_error,
                            C.jump_price(r0, delta, lam, T), 4.0, key)
        chain = self.chain
        for n in self.horizons:
            key = f"chain n={n}"
            est = tally.call(key, L.price_mc, chain, None, 0, n, self.n_paths,
                             next(seeds), L.Regime.DISCRETE, paths=self.n_paths)
            if est is not None:
                exact = C.chain_price(chain.state_rates, chain.transition,
                                      chain.initial_state, n)
                tally.check(key, C.check_mc, est.value, est.std_error, exact, 4.0, key)
        s, t, T = self.tower
        report = tally.call("tower", L.tower_identity_check, self.model, s, t, T,
                            L.Regime.CONTINUOUS, n=self.n_tower, seed=next(seeds),
                            paths=self.n_tower)
        if report is not None:
            # the identity: E[(B_s / B_t) P(t, T)] = P(s, T), from r0 at s
            tally.check("tower", C.check_mc, report.rhs, report.se,
                        C.jump_price(r0, delta, lam, T - s), 4.0, "tower forecast")


class ExactLab(InProcess):
    """Seeded random chains through verify_dir (2k paths), the Perron root,
    the exact tower check and the forward/zero gap; conditional-norm reports
    on seeded random finite spaces with hundreds of cells."""

    name = "exact-lab"
    tag = 3
    sizes = (8, 16, 32, 64)
    n_paths = 2_000
    window = (2, 7)
    tower = (0, 2, 5)
    gap_maturities = tuple(range(100, 501, 50))
    limit_space = (2_400, 300)  # atoms, cells
    p_schedule = (1.0, 2.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)
    liminf_space = (1_600, 200)
    n_schedule = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
    n_sampled = 40  # norms recomputed per report

    def make_inputs(self, rng) -> None:
        L = self.L
        self.chains = []
        for n in self.sizes:
            transition = rng.dirichlet(np.ones(n), size=n)
            rates = rng.uniform(0.0, 0.1, n)
            self.chains.append(L.MarkovChain(rates, transition, int(rng.integers(n))))
        self.seed = int(rng.integers(2**63))
        self.limit = self._space(rng, *self.limit_space)
        self.liminf = self._space(rng, *self.liminf_space)
        self.samples = [
            [(int(rng.integers(len(sched))), int(rng.integers(len(space[2]))))
             for _ in range(self.n_sampled)]
            for sched, space in ((self.p_schedule, self.limit), (self.n_schedule, self.liminf))
        ]
        # tolerance of the liminf check, from the inputs: with X_n = X (1 + 1/n)
        # a cell's n-norm is at least its maximum m times q^(1/n), q the mass
        # share of the maximizing atoms, so the limit exceeds the tail minimum
        # by at most m (-log q) / n at the first tail n
        space, values, cells, _ = self.liminf
        probs = space.atom_probs
        worst = 0.0
        for cell in cells:
            top = values[cell].max()
            if top > 0:
                share = probs[cell][values[cell] == top].sum() / probs[cell].sum()
                worst = max(worst, -top * np.log(share))
        self.liminf_tol = 1.5 * worst / self.n_schedule[len(self.n_schedule) // 2]
        self.expected: dict[int, tuple] = {}

    def _space(self, rng, n_atoms: int, n_cells: int):
        probs = rng.dirichlet(np.ones(n_atoms))
        space = self.L.FiniteProbSpace(probs)
        labels = np.concatenate([np.arange(n_cells), rng.integers(0, n_cells, n_atoms - n_cells)])
        rng.shuffle(labels)
        cells = [np.flatnonzero(labels == c) for c in range(n_cells)]
        values = rng.uniform(0.0, 5.0, n_atoms)
        values[rng.random(n_atoms) < 0.05] = 0.0
        return space, values, cells, space.partition(cells)

    def warm_up(self) -> None:
        L = self.L
        chain = self.chains[0]
        L.verify_dir(chain, *self.window, SCHEDULE, 50, self.seed, L.Regime.DISCRETE)
        L.perron_long_rate(chain)
        L.tower_identity_check(chain, *self.tower, L.Regime.DISCRETE)
        L.forward_zero_gap(chain, None, 0, self.gap_maturities)
        space, values, _, partition = self.limit
        L.pnorm_limit_check(space.rv(values), partition, self.p_schedule[:2])

    def round(self, tally: Tally) -> None:
        L = self.L
        D = L.Regime.DISCRETE
        for i, chain in enumerate(self.chains):
            tag = f"chain{chain.n_states}"
            report = tally.call(f"{tag} verify_dir", L.verify_dir, chain, *self.window,
                                SCHEDULE, self.n_paths, self.seed, D, paths=self.n_paths)
            perron = tally.call(f"{tag} perron", L.perron_long_rate, chain)
            tower = tally.call(f"{tag} tower", L.tower_identity_check, chain, *self.tower, D)
            gap = tally.call(f"{tag} gap", L.forward_zero_gap, chain, None, 0,
                             self.gap_maturities)
            root, price, gaps = self._expected(i, chain)
            if report is not None:
                tally.check(f"{tag} verify_dir", self.check_dir, report, root)
            if perron is not None:
                tally.check(f"{tag} perron", C.check_near, [perron.value], root, 1e-8,
                            "Perron root against eigvals")
            if tower is not None:
                tally.check(f"{tag} tower", self.check_tower, tower, price)
            if gap is not None:
                tally.check(f"{tag} gap", self.check_gap, gap, gaps)

        space, values, _, partition = self.limit
        report = tally.call("pnorm_limit_check", L.pnorm_limit_check, space.rv(values),
                            partition, self.p_schedule)
        if report is not None:
            tally.check("pnorm_limit_check", self.check_limit, report)

        space, values, _, partition = self.liminf
        limit = space.rv(values)
        report = tally.call("pnorm_liminf_bound", L.pnorm_liminf_bound,
                            lambda n: space.rv(values * (1.0 + 1.0 / n)), limit,
                            partition, self.n_schedule, self.liminf_tol)
        if report is not None:
            tally.check("pnorm_liminf_bound", self.check_liminf, report)

    def _expected(self, i: int, chain) -> tuple:
        if i not in self.expected:
            args = (chain.state_rates, chain.transition)
            s, _, T = self.tower
            self.expected[i] = (
                C.perron_root(*args),
                C.chain_price(*args, chain.initial_state, T - s),
                C.chain_forward_zero_gaps(*args, chain.initial_state, self.gap_maturities),
            )
        return self.expected[i]

    def check_dir(self, report, root) -> None:
        C.require(report.passed and report.n_nonconverged == 0,
                  f"{report.n_violations} violations, {report.n_nonconverged} not converged")
        C.check_near(report.x_s, root, 1e-4, "x(s) against the Perron root")
        C.check_near(report.x_t, root, 1e-4, "x(t) against the Perron root")

    def check_tower(self, tower, price) -> None:
        C.require(tower.exact, "chain tower check is not exact")
        C.require(abs(tower.gap) <= 1e-12, f"exact tower gap {tower.gap:.3e}")
        C.check_rel(tower.lhs, price, 1e-12, "P(s, T) against matrix powers")

    def check_gap(self, gap, gaps) -> None:
        C.check_near(gap.gaps - gaps, 0.0, 1e-10, "forward/zero gaps")
        C.require(bool(np.all(np.diff(gaps) <= 0.0)), "forward/zero gap increases")

    def check_limit(self, report) -> None:
        space, values, cells, _ = self.limit
        rows = [values] * len(self.p_schedule)
        C.check_power_means(report.norms, rows, space.atom_probs, cells,
                            self.p_schedule, self.samples[0])
        C.check_rise_and_cap(report.norms, values, cells)
        C.require(report.within_bound(), "gap to the cell maximum exceeds its bound")

    def check_liminf(self, report) -> None:
        space, values, cells, _ = self.liminf
        rows = [values * (1.0 + 1.0 / n) for n in self.n_schedule]
        C.check_power_means(report.norms, rows, space.atom_probs, cells,
                            self.n_schedule, self.samples[1])
        for norms, row in zip(report.norms, rows):
            C.check_rise_and_cap(norms[None, :], row, cells)
        C.require(report.all_pass and report.converged, "liminf bound not certified")


class CliConfigs(Workload):
    """Every README command line on the shipped configs, as fresh
    `python -m longrates` processes, one at a time; rounds alternate
    --threads 1 and 2, and a run makes at least five rounds."""

    name = "cli-configs"
    min_rounds = 5
    rusage = resource.RUSAGE_CHILDREN
    commands = (
        ("simulate", "poisson.json", ()),
        ("price", "poisson.json", ()),
        ("curve", "poisson.json", ()),
        ("long-rate", "markov2.json", ()),
        ("long-rate", "poisson.json", ("--method", "plain_tail", "--tol", "1e-3")),
        ("verify-measure", "markov2.json", ()),
        ("verify-dir", "markov2.json", ()),
        ("lemma-lab", "four_atoms.json", ()),
    )
    path_commands = ("simulate", "price", "verify-dir")

    n_imports = 5  # fresh interpreters timed for setup_s

    def build(self, seed: int, t0: float) -> float:
        """Returns the median time of `import longrates` in a fresh
        interpreter, over n_imports interpreters started one after another,
        scaled by the median of as many reference starts, one before each."""
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        shutil.rmtree(OUT, ignore_errors=True)
        OUT.mkdir(parents=True)
        rng = np.random.default_rng([seed, 4])
        self.seed = str(int(rng.integers(2**31)))
        self.configs = {}
        for _, name, _ in self.commands:
            self.configs[name] = json.loads((ROOT / "configs" / name).read_text())
        self.rounds = 0
        self.work: dict[str, list[float]] = {}
        times, starts = [], []
        for _ in range(self.n_imports):
            starts.append(timed_start(self.env))
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", "import longrates; print(longrates.__file__)"],
                cwd=ROOT, env=self.env, capture_output=True, text=True, check=True)
            times.append(perf_counter() - start)
            if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
                raise RuntimeError(f"longrates was imported from {proc.stdout.strip()}, not {SRC}")
        return scaled(median(times), REF_START_S, median(starts))

    def argv(self, k: int, out: Path, threads: str) -> list[str]:
        cmd, config, extra = self.commands[k]
        return [cmd, "--config", f"configs/{config}", *extra, "--out", str(out),
                "--seed", self.seed, "--threads", threads]

    def key(self, k: int) -> str:
        return f"{k} {self.commands[k][0]} {self.commands[k][1]}"

    def _run(self, argv: list[str]) -> float:
        proc = subprocess.run([sys.executable, "-m", "longrates", *argv], cwd=ROOT,
                              env=self.env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return float(re.search(r"exit 0 in ([0-9.]+) s", proc.stderr).group(1))

    def warm_up(self) -> None:
        self._run(self.argv(2, OUT / "warm", "1"))

    def round(self, tally: Tally) -> None:
        """Every command once, with a reference start before every other
        command; the calls are scaled by the median reference start of the
        round."""
        r = self.rounds
        self.rounds += 1
        threads = "1" if r % 2 == 0 else "2"
        starts, done = [], []
        for k, (cmd, config, _) in enumerate(self.commands):
            key = self.key(k)
            out = OUT / f"r{r}" / str(k)
            paths = self.configs[config]["mc"]["n_paths"] if cmd in self.path_commands else 0
            if k % 2 == 0:
                starts.append(timed_start(self.env))
            work = tally.call(key, self._run, self.argv(k, out, threads), paths=paths,
                              scale=False)
            if work is None:
                continue
            done.append(key)
            self.work.setdefault(key, []).append(work)
            if r == 0:
                tally.check(key, self.check, k, out)
            else:
                tally.check(key, C.check_same_files, OUT / "r0" / str(k), out)
                shutil.rmtree(out)
        tally.reference += starts
        speed = median(starts)
        for key in done:
            tally.scaled.setdefault(key, []).append(
                scaled(tally.times[key][-1], REF_START_S, speed))

    def trace(self, rec, tally: Tally) -> dict[str, float]:
        """A round of CLI processes for the start/work split, then an untraced
        and a traced pass through `cli.main` in this process."""
        self.round(tally)
        work = sum(median(v) for v in self.work.values())
        wall = tally.round_s(scaled=False)
        from longrates import cli

        self._in_process(cli, "warm")
        plain = self._in_process(cli, "plain")
        rec.install()
        try:
            traced = self._in_process(cli, "traced")
        finally:
            rec.uninstall()
        kernel = plain.reference + traced.reference
        tally.merge(plain)
        tally.merge(traced)
        return {
            "trace.overhead_s": traced.round_s() - plain.round_s(),
            "trace.top_share": rec.top_s / traced.round_s(scaled=False),
            "host.kernel_s": median(kernel),
            "cli.work_s": work,
            "cli.start_s": wall - work,
        }

    def _in_process(self, cli, label: str) -> Tally:
        def main(argv):
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli.main exited {code}")
            return code

        tally = Tally()
        for k in range(len(self.commands)):
            key = f"in-process {self.key(k)}"
            out = OUT / label / str(k)
            if tally.call(key, main, self.argv(k, out, "1")) is not None:
                tally.check(key, C.check_same_files, OUT / "r0" / str(k), out)
        return tally

    def check(self, k: int, out: Path) -> None:
        cmd, config, _ = self.commands[k]
        doc = self.configs[config]
        summary = json.loads((out / "summary.json").read_text())
        rows = [line.split(",") for line in
                next(out.glob("*.csv")).read_text().splitlines()[1:]]
        getattr(self, "check_" + cmd.replace("-", "_"))(doc, summary, rows)

    def _jump(self, doc) -> tuple[float, float, float]:
        m = doc["model"]
        return m["r0"], m["delta"], m["lambda"]

    def _chain(self, doc):
        m = doc["model"]
        return m["state_rates"], m["transition"], m["initial_state"]

    def check_simulate(self, doc, summary, rows) -> None:
        r0, delta, _ = self._jump(doc)
        n_paths = doc["mc"]["n_paths"]
        grid = doc["grid"]
        n_times = round(grid["horizon"] / grid["output_step"]) + 1
        C.require(summary["n_rows"] == len(rows) == n_paths * n_times,
                  f"{len(rows)} rows, summary says {summary['n_rows']}")
        rates = np.array([float(r[2]) for r in rows]).reshape(n_paths, n_times)
        jumps = (rates - r0) / delta
        C.check_near(jumps, np.rint(jumps), 1e-9, "simulated rate is not r0 + k delta")
        C.require(bool(np.all(np.rint(jumps) >= 0)), "simulated rate below r0")
        C.require(bool(np.all(np.diff(rates, axis=1) >= 0)), "simulated rate falls")

    def check_price(self, doc, summary, rows) -> None:
        r0, delta, lam = self._jump(doc)
        tau = doc["times"]["T"] - doc["times"]["t"]
        exact = C.jump_price(r0, delta, lam, tau)
        C.check_rel(summary["closed_form"], exact, 1e-12, "closed-form price")
        C.require(summary["mc_n"] == doc["mc"]["n_paths"], "MC path count")
        C.check_mc(summary["mc_value"], summary["mc_std_error"], exact, 4.0, "MC price")

    def check_curve(self, doc, summary, rows) -> None:
        r0, delta, lam = self._jump(doc)
        taus = doc["schedule"]["taus"]
        C.require(len(rows) == len(taus), f"{len(rows)} curve rows")
        for (t, T, log_price, *_), tau in zip(rows, taus):
            C.check_rel(float(log_price), C.jump_log_price(r0, delta, lam, tau), 1e-12,
                        f"log price at tau {tau}")

    def check_long_rate(self, doc, summary, rows) -> None:
        if doc["model"]["kind"] == "markov_chain":
            root = C.perron_root(*self._chain(doc)[:2])
            C.check_near([root], 21.0 / 22.0, 1e-12, "eigvals root of markov2")
            C.check_near([summary["spectral_value"]], 21.0 / 22.0, 1e-12, "spectral value")
            C.check_near([summary["value"]], 21.0 / 22.0, 1e-4, "extracted x")
            return
        r0, delta, lam = self._jump(doc)
        taus = doc["schedule"]["taus"]
        zero = [-C.jump_log_price(r0, delta, lam, tau) / tau for tau in taus[-2:]]
        C.check_rel(summary["value"], zero[1], 1e-12, "plain-tail long zero rate")
        C.check_near([summary["residual"]], abs(zero[1] - zero[0]), 1e-12, "plain-tail residual")
        C.require(summary["converged"] == (summary["residual"] <= 1e-3), "converged flag")

    def check_verify_measure(self, doc, summary, rows) -> None:
        times = doc["times"]
        rates, transition, state = self._chain(doc)
        price = C.chain_price(rates, transition, state, int(times["T"] - times["s"]))
        C.require(summary["passed"] and summary["exact"], "tower identity not passed")
        C.require(abs(summary["gap"]) <= 1e-12, f"exact tower gap {summary['gap']}")
        C.check_rel(summary["lhs"], price, 1e-12, "P(s, T) against matrix powers")

    def check_verify_dir(self, doc, summary, rows) -> None:
        n_paths = doc["mc"]["n_paths"]
        C.require(summary["passed"] and summary["n_violations"] == 0, "DIR violations")
        C.require(summary["n_paths"] == len(rows) == n_paths, f"{len(rows)} report rows")
        C.check_near([summary["spectral_value"]], 21.0 / 22.0, 1e-12, "spectral value")
        x = np.array([[float(r[1]), float(r[2])] for r in rows])
        C.check_near(x, 21.0 / 22.0, 1e-4, "x against 21/22")
        C.require(all(r[6] == "false" for r in rows), "a path is flagged")

    def check_lemma_lab(self, doc, summary, rows) -> None:
        probs = doc["space"]["atom_probs"]
        values = doc["rv"]["values"]
        n = doc["schedule"]["n"][-1]
        C.require(summary["all_pass"], "lemma bound not certified")
        C.require(int(rows[-1][0]) == n, f"last trace row is n = {rows[-1][0]}")
        C.check_rel(float(rows[-1][2]), C.exact_power_mean(values, probs, n), 1e-15,
                    "last trace norm against the exact power sum")

    def close(self) -> None:
        shutil.rmtree(OUT, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DirFleet, McPricing, ExactLab, CliConfigs)}
