"""The CLI lines whose every output is compared from one tree to another.

`README_LINES` are the eight command lines of the README, each named after
its `--out` there. `MATRIX` holds 29 lines: the seven subcommands on the four
shipped configs, and the README's `long-rate` line with overrides. Run

    python tests/cli_matrix.py OUT

to run every `MATRIX` line in this process, from the root of the tree that
holds this file and on that tree's `src`, each with `--out OUT/<name>`, and to
save its exit code and stderr, the wall time struck out, in OUT/<name>.log.
Run the same file in two trees, for example a `git archive` of a parent
commit and a working tree, and `diff -r` of the two OUT directories shows
every result file, exit code and message that differs.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = ("poisson.json", "markov2.json", "constant.json", "four_atoms.json")
COMMANDS = ("simulate", "price", "curve", "long-rate", "verify-measure",
            "verify-dir", "lemma-lab")
PLAIN_TAIL = ("long-rate", "--config", "configs/poisson.json",
              "--method", "plain_tail", "--tol", "1e-3")

# name -> argv without --out; config paths are relative to ROOT
README_LINES = {
    "sim": ("simulate", "--config", "configs/poisson.json"),
    "price": ("price", "--config", "configs/poisson.json"),
    "curve": ("curve", "--config", "configs/poisson.json"),
    "lr": ("long-rate", "--config", "configs/markov2.json"),
    "lr_plain_tail": PLAIN_TAIL,
    "measure": ("verify-measure", "--config", "configs/markov2.json"),
    "dir": ("verify-dir", "--config", "configs/markov2.json"),
    "lemma": ("lemma-lab", "--config", "configs/four_atoms.json"),
}

MATRIX = {
    f"{command}_{config.removesuffix('.json')}":
        (command, "--config", f"configs/{config}")
    for command in COMMANDS for config in CONFIGS
}
MATRIX["long-rate_poisson_plain_tail"] = PLAIN_TAIL


def record(out_root: Path) -> None:
    """Run every MATRIX line in this process into out_root/<name>, and log
    its exit code and its stderr, wall time struck out, in out_root/<name>.log."""
    from longrates.cli import main

    out_root.mkdir(parents=True, exist_ok=True)
    for name, argv in MATRIX.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out_root / name)])
        text = re.sub(r"(exit \d+) in [0-9.]+ s", r"\1", err.getvalue())
        (out_root / f"{name}.log").write_text(f"exit code {code}\n{text}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} OUT")
    target = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    record(target)
