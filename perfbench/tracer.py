"""Span and count recorder installed around longrates from outside.

`install` wraps the public functions of each layer module and puts each
wrapper on every name a caller looks up: modules import functions by name
(`verify` holds its own `build_curves`, `cli` its own `write_csv`), so the
wrapper replaces the original in every longrates module namespace, the
package itself included. `uninstall` puts the originals back, so measured
rounds run the program untouched.

A span's self time is its duration minus the durations of the wrapped
calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("models", "pricing", "longrate", "measure", "verify", "finiteprob",
          "config", "cli", "output")

# per-element helpers: a span each would cost more than the work it times
# and would empty the self time of the layer function that calls them
SKIP = {"models.path_rng", "output.fmt_float"}

# counts read off return values: wrapped name -> (counter, extractor)
RESULT_COUNTS = {
    "models.simulate_paths": ("models.paths", lambda r: r.n_paths),
    "verify.verify_dir": ("verify.paths", lambda r: r.n_paths),
    "output.write_csv": ("output.rows", lambda r: r),
}


class Recorder:
    """Per-function call counts, total and self time, and result counts."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.top_s = 0.0  # time inside spans entered from outside the program
        self._stack: list[list] = []  # [name, time in wrapped children]
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        counted = RESULT_COUNTS.get(name)
        curve_miss = name == "pricing.build_curves"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a curve built by verify_dir itself is a miss of its curve cache
            if curve_miss and stack and stack[-1][0] == "verify.verify_dir":
                self.counts["verify.curve_misses"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
            if counted is not None:
                self.counts[counted[0]] += int(counted[1](result))
            return result

        return wrapper

    def install(self) -> None:
        import longrates

        originals = {}  # id -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"longrates.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and name not in SKIP):
                    originals[id(fn)] = (fn, self.wrap(name, fn))
        namespaces = [longrates] + [
            importlib.import_module(f"longrates.{info.name}")
            for info in pkgutil.iter_modules(longrates.__path__)
            if info.name != "__main__"
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    out: dict[str, float] = {}
    for name in ("models.simulate_paths", "models.state_at", "pricing.price_mc",
                 "measure.tower_identity_check", "pricing.build_curves",
                 "pricing.chain_log_prices", "verify.verify_dir",
                 "longrate.extract_long_rate", "longrate.perron_long_rate",
                 "finiteprob.cond_p_norm"):
        out[f"{name}.self_s"] = rec.self_s(name)
        out[f"{name}.calls"] = rec.calls(name)
    out["models.paths"] = rec.counts["models.paths"]
    verify_paths = rec.counts["verify.paths"]
    misses = rec.counts["verify.curve_misses"]
    # 0 when the workload makes no verify_dir call
    out["verify.curve_hit_ratio"] = 1.0 - misses / (2 * verify_paths) if verify_paths else 0.0
    out["config.load_config.self_s"] = rec.self_s("config.load_config")
    out["output.write_csv.self_s"] = rec.self_s("output.write_csv")
    out["output.rows"] = rec.counts["output.rows"]
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times(env: dict, cwd) -> dict[str, float]:
    """Cumulative import seconds of longrates, scipy and networkx.

    Read from `python -X importtime -c "import longrates"` in a fresh
    interpreter. A package's figure sums its outermost entries, those whose
    importer is not part of the same package; scipy imported by networkx is
    therefore counted under both.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import longrates"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    )
    entries = []  # (depth, name, cumulative us), children listed before parents
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    parent = [None] * len(entries)
    stack: list[int] = []
    for i in range(len(entries) - 1, -1, -1):
        while stack and entries[stack[-1]][0] >= entries[i][0]:
            stack.pop()
        parent[i] = entries[stack[-1]][1] if stack else None
        stack.append(i)

    def total(package: str) -> float:
        def inside(name):
            return name is not None and (name == package or name.startswith(package + "."))
        return sum(cum for (_, name, cum), up in zip(entries, parent)
                   if inside(name) and not inside(up)) / 1e6

    return {f"import.{p}_s": total(p) for p in ("longrates", "scipy", "networkx")}
