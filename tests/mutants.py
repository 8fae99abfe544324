"""Mutants that the test suite must kill.

Each entry of `MUTANTS` names a file of the tree, a text that must occur in
it exactly once, the text that replaces it, and the test module that must
fail on the result. Run

    python tests/mutants.py [NAME ...]

to copy the tree that holds this file into a temporary directory, check that
every named module passes there unmutated, and then run each mutant (all of
them, or the NAMEs given) against its module on that copy. A mutant is killed
only when pytest exits 1, a failed test; a collection or import error (exit
2) says nothing about the tests and is reported as an error. A mutant whose
text does not occur exactly once is reported as stale: the code it targets
moved, and its entry must be re-targeted or retired. The exit status is 0
when every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODELS, PRICING, VERIFY, PHILOX, OUTPUT, FINITEPROB, CONFIG = (
    f"src/longrates/{m}.py"
    for m in ("models", "pricing", "verify", "philox", "output", "finiteprob",
              "config")
)

# name -> (file, old text, new text, test module)
MUTANTS = {
    "time check that NaN passes": (
        MODELS,
        "if not np.all((u >= 0) & (u <= self.grid.horizon)):",
        "if np.any(u < 0) or np.any(u > self.grid.horizon):",
        "tests/test_models.py",
    ),
    "jump tower end rates shifted by one jump": (
        MODELS,
        "ends = self.r0 + self.delta * np.arange(counts.max() + 1)",
        "ends = self.r0 + self.delta * np.arange(1, counts.max() + 2)",
        "tests/test_measure.py",
    ),
    "Perron stops at 10 x tol": (
        MODELS,
        "if residual <= tol * max(1.0, ratio):",
        "if residual <= 10 * tol * max(1.0, ratio):",
        "tests/test_longrate.py",
    ),
    "violation rule without its float floor": (
        VERIFY,
        "epsilon = epsilon_multiplier * (residual_s + residual_t) + _EPS_FLOOR * scale",
        "epsilon = epsilon_multiplier * (residual_s + residual_t)",
        "tests/test_verify.py",
    ),
    "certificate swaps x(s) and x(t)": (
        VERIFY,
        "rows = inverse.reshape(-1, 2).T",
        "rows = inverse.reshape(-1, 2).T[::-1]",
        "tests/test_verify.py",
    ),
    "gaps clipped above at t": (
        MODELS,
        "gaps = np.clip(t - self.jump_times[bounds[0] : bounds[-1]], 0.0, t - s)",
        "gaps = np.clip(t - self.jump_times[bounds[0] : bounds[-1]], 0.0, t)",
        "tests/test_models.py",
    ),
    "gaps not clipped below": (
        MODELS,
        "gaps = np.clip(t - self.jump_times[bounds[0] : bounds[-1]], 0.0, t - s)",
        "gaps = np.minimum(t - self.jump_times[bounds[0] : bounds[-1]], t - s)",
        "tests/test_models.py",
    ),
    "gaps summed pairwise": (
        MODELS,
        "inside = np.bincount(np.repeat(np.arange(k), np.diff(bounds)), gaps, k)",
        "inside = np.array([g.sum() for g in np.split(gaps, bounds[1:-1] - bounds[0])])",
        "tests/test_models.py",
    ),
    "states count jumps before u only": (
        MODELS,
        "index[self.jump_times <= v]",
        "index[self.jump_times < v]",
        "tests/test_models.py",
    ),
    "level over [0, t]": (
        MODELS,
        "np.exp(-(self.level * (t - s) + ",
        "np.exp(-(self.level * t + ",
        "tests/test_models.py",
    ),
    "closed-form guard that NaN passes": (
        PRICING,
        "if not t <= T:  # NaN fails it",
        "if T < t:",
        "tests/test_pricing.py",
    ),
    "first maturity at t accepted": (
        PRICING,
        "if mats[0] <= t:",
        "if mats[0] < t:",
        "tests/test_pricing.py",
    ),
    "repeated maturities accepted": (
        PRICING,
        "if np.any(np.diff(mats) <= 0):",
        "if np.any(np.diff(mats) < 0):",
        "tests/test_pricing.py",
    ),
    "Monte Carlo price refuses 2 paths": (
        PRICING,
        "if n < 2:",
        "if n <= 2:",
        "tests/test_pricing.py",
    ),
    "continuous curve refuses 2 maturities": (
        PRICING,
        "if mats.size < 2:",
        "if mats.size <= 2:",
        "tests/test_pricing.py",
    ),
    "discrete constant rate of -1 accepted": (
        MODELS,
        "if regime is Regime.DISCRETE and self.rate <= -1.0:",
        "if regime is Regime.DISCRETE and self.rate < -1.0:",
        "tests/test_models.py",
    ),
    "Perron root without the max over reached classes": (
        MODELS,
        "return (reach * root).max(axis=1), (reach * width).max(axis=1)",
        "return root, (reach * width).max(axis=1)",
        "tests/test_longrate.py",
    ),
    "Perron residual of the own class only": (
        MODELS,
        "return (reach * root).max(axis=1), (reach * width).max(axis=1)",
        "return (reach * root).max(axis=1), width",
        "tests/test_longrate.py",
    ),
    "Perron block without its shift": (
        MODELS,
        "shift = block.sum(axis=1).max() / 16 or 1.0",
        "shift = 0.0",
        "tests/test_longrate.py",
    ),
    "absolute Perron tol": (
        MODELS,
        "if residual <= tol * max(1.0, ratio):",
        "if residual <= tol:",
        "tests/test_longrate.py",
    ),
    "Perron tol times the root": (
        MODELS,
        "if residual <= tol * max(1.0, ratio):",
        "if residual <= tol * ratio:",
        "tests/test_longrate.py",
    ),
    "Perron residual without its rounding floor": (
        MODELS,
        "residual = max(float(bracket.max() - bracket.min()), 4 * v.size * _EPS * ratio)",
        "residual = float(bracket.max() - bracket.min())",
        "tests/test_longrate.py",
    ),
    "reach matrix without the identity": (
        MODELS,
        "reach = ((model.transition > 0) | np.eye(n, dtype=bool)).astype(float)",
        "reach = (model.transition > 0).astype(float)",
        "tests/test_longrate.py",
    ),
    "16-squaring cap": (
        MODELS,
        "_MAX_SQUARINGS = 64",
        "_MAX_SQUARINGS = 16",
        "tests/test_longrate.py",
    ),
    "power log scale not doubled": (
        MODELS,
        "power, log_scale = power @ power, 2.0 * log_scale",
        "power, log_scale = power @ power, log_scale",
        "tests/test_pricing.py",
    ),
    "bits of n read in reverse": (
        MODELS,
        "if steps >> k & 1:",
        "if steps >> (steps.bit_length() - 1 - k) & 1:",
        "tests/test_pricing.py",
    ),
    "carry without the power's scale": (
        MODELS,
        "v, log_scale = v / top, log_scale + power_scale + math.log(top)",
        "v, log_scale = v / top, log_scale + math.log(top)",
        "tests/test_pricing.py",
    ),
    "uniforms from word >> 12": (
        PHILOX,
        "shift(word, 11, word)",
        "shift(word, 12, word)",
        "tests/test_models.py",
    ),
    "9 Philox rounds": (
        PHILOX,
        "for r in range(2, 10):",
        "for r in range(2, 9):",
        "tests/test_models.py",
    ),
    "jump times not sorted": (
        MODELS,
        "jumps.sort(axis=1)",
        "pass",
        "tests/test_models.py",
    ),
    "Poisson CDF in linear space": (
        MODELS,
        "return np.cumsum(np.exp(log_pmf))",
        "return np.cumsum([math.exp(-mean) * mean**k / math.factorial(k)"
        " for k in range(top + 1)])",
        "tests/test_models.py",
    ),
    "discrete discount one period too long": (
        MODELS,
        "self.states[:, s:t]",
        "self.states[:, s:t + 1]",
        "tests/test_models.py",
    ),
    "no sortedness check": (
        MODELS,
        "if not np.isin(np.flatnonzero(np.diff(times) < 0) + 1, offsets).all():",
        "if False:",
        "tests/test_models.py",
    ),
    "1 % of extractions let through unconverged": (
        VERIFY,
        "if n_nonconv:",
        "if n_nonconv > converged.size // 100:",
        "tests/test_verify.py",
    ),
    "spread written by hand": (
        VERIFY,
        "variance = float(np.var(z_exact[counts], ddof=1))",
        "variance = float(np.var(r0 + delta * counts + intensity, ddof=1))",
        "tests/test_verify.py",
    ),
    "spread read from the extracted long rates": (
        VERIFY,
        "variance = float(np.var(z_exact[counts], ddof=1))",
        "variance = float(np.var(z_long[counts], ddof=1))",
        "tests/test_verify.py",
    ),
    "continuations on the certificate's stream": (
        VERIFY,
        "model, _window_grid(regime, window), n, seed, stream=STREAM_CONTINUATION",
        "model, _window_grid(regime, window), n, seed",
        "tests/test_verify.py",
    ),
    "continuation end levels shifted by one jump": (
        VERIFY,
        "ends = r0 + delta * np.arange(counts.max() + 1)",
        "ends = r0 + delta * np.arange(1, counts.max() + 2)",
        "tests/test_verify.py",
    ),
    "long-zero identity over the first end level only": (
        VERIFY,
        "-model.log_price_table(ends, 0, taus, regime) / taus",
        "-model.log_price_table(ends[:1], 0, taus, regime) / taus",
        "tests/test_verify.py",
    ),
    "continuous discounts divide by a set's paths and jumps": (
        MODELS,
        "rows = 1 + _CELLS * n // max(1, 4 * (n + m))",
        "rows = 1 + _CELLS * n // (4 * (n + m))",
        "tests/test_models.py",
    ),
    "p-norm logs clamped at 1e-300": (
        FINITEPROB,
        "terms = np.log(probs) + p * np.log(x.values)",
        "terms = np.log(probs) + p * np.where("
        "x.values > 0, np.log(np.maximum(x.values, 1e-300)), -np.inf)",
        "tests/test_finiteprob.py",
    ),
    "p-norm limit bound one-sided": (
        FINITEPROB,
        "return bool(np.all((-slack <= gap) & (gap <= self.bound + slack)))",
        "return bool(np.all(gap <= self.bound + slack))",
        "tests/test_finiteprob.py",
    ),
    "partition cells cast to int": (
        FINITEPROB,
        "cells = tuple(np.asarray(c) for c in self.cells)",
        "cells = tuple(np.asarray(c, dtype=int) for c in self.cells)",
        "tests/test_finiteprob.py",
    ),
    "bool partition cells accepted": (
        FINITEPROB,
        'if any(cell.ndim != 1 or cell.dtype.kind not in "iu" for cell in cells):',
        'if any(cell.ndim != 1 or cell.dtype.kind not in "biu" for cell in cells):',
        "tests/test_finiteprob.py",
    ),
    "p-norm sign check deleted": (
        FINITEPROB,
        "if np.any(x.values < 0):",
        "if False:",
        "tests/test_finiteprob.py",
    ),
    "n schedule cast without the whole-number check": (
        FINITEPROB,
        "if cast is int and schedule != values:",
        "if False:",
        "tests/test_finiteprob.py",
    ),
    "schedules cast bools and text": (
        FINITEPROB,
        "if any(isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real)\n"
        "           for v in values):",
        "if False:",
        "tests/test_finiteprob.py",
    ),
    "config cells of any JSON value": (
        CONFIG,
        "isinstance(c, list) and all(map(_is_integer, c)) for c in cells",
        "isinstance(c, list) for c in cells",
        "tests/test_cli.py",
    ),
    "transition rows read without the number rule": (
        CONFIG,
        "transition = [[_finite(v, message) for v in row] for row in transition]",
        "pass",
        "tests/test_cli.py",
    ),
    "method name not checked for a string": (
        CONFIG,
        "if not isinstance(method_name, str) or method_name not in _METHODS:",
        "if method_name not in _METHODS:",
        "tests/test_cli.py",
    ),
    "floats written with 16 digits": (
        OUTPUT,
        'return "%.17g".__mod__',
        'return "%.16g".__mod__',
        "tests/test_cli.py",
    ),
    "no finiteness check in the writer": (
        OUTPUT,
        "if not np.isfinite(values).all():",
        "if False:",
        "tests/test_output.py",
    ),
    "no comma check in the writer": (
        OUTPUT,
        'if "," in text or "\\n" in text:',
        'if "\\n" in text:',
        "tests/test_output.py",
    ),
}


def run_module(tree: Path, module: str) -> tuple[int, float]:
    """Exit code and wall time of one pytest run of module on tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    code = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", module],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    return code, time.perf_counter() - start


def main(names: list[str]) -> int:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for module in sorted({entry[3] for entry in chosen.values()}):
            code, _ = run_module(tree, module)
            if code != 0:
                print(f"{module} fails unmutated (exit {code}); no mutant can be judged")
                return 1
        verdicts = []
        for name, (file, old, new, module) in chosen.items():
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                verdict, seconds = "stale", 0.0
            else:
                path.write_text(text.replace(old, new))
                try:
                    code, seconds = run_module(tree, module)
                finally:
                    path.write_text(text)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (exit {code})")
            verdicts.append(verdict)
            print(f"{verdict:<16} {seconds:5.1f} s  {name}  [{module}]", flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(verdicts)} killed")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
