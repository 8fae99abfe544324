"""Guards on the package as a whole: what importing it loads, that model
types are told apart by the model protocol, not by isinstance checks, that
scenarios reach every consumer by one route, and that no path gets a
generator of its own."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import longrates
from longrates import models

SRC = Path(__file__).resolve().parents[1] / "src"
MODEL_CLASSES = {"ConstantRate", "PoissonJump", "MarkovChain"}
# the one guard that rejects a wrong-typed public argument
ALLOWED_GUARDS = {("longrate.py", "perron_long_rate")}


def test_import_loads_neither_networkx_nor_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, longrates; print(longrates.__file__, "
         "'networkx' in sys.modules, 'scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    where, networkx, scipy = proc.stdout.split()
    assert Path(where).is_relative_to(SRC)
    assert (networkx, scipy) == ("False", "False")


class _IsinstanceSites(ast.NodeVisitor):
    """(file, enclosing function) of each isinstance naming a model class."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.scope = ["<module>"]
        self.sites: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            named = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node.args[1])
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if named & MODEL_CLASSES:
                self.sites.append((self.filename, self.scope[-1]))
        self.generic_visit(node)


def test_no_isinstance_dispatch_on_models_or_paths():
    sites = []
    for path in sorted((SRC / "longrates").glob("*.py")):
        visitor = _IsinstanceSites(path.name)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert set(sites) <= ALLOWED_GUARDS, sites
    assert len(sites) == len(set(sites))


def test_no_path_objects_are_exported():
    for name in ("JumpPath", "LatticePath", "bank_account", "integrated_rate"):
        assert not hasattr(longrates, name), name
        assert name not in longrates.__all__


def test_each_model_has_one_sampling_hook():
    # simulate_paths -> _sample is the only way to scenarios
    for name in sorted(MODEL_CLASSES):
        members = vars(getattr(models, name))
        assert "_sample" in members, name
        for old in ("state_at", "_paths", "_states_at", "_mc_discounts"):
            assert old not in members, (name, old)


def _philox_sites(tree: ast.AST, scope: str = "<module>") -> list[str]:
    """The enclosing function of each call that builds a Philox generator."""
    sites = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "attr", getattr(func, "id", None)) == "Philox":
                sites.append(scope)
        inner = child.name if isinstance(child, ast.FunctionDef) else scope
        sites += _philox_sites(child, inner)
    return sites


def test_paths_are_drawn_without_a_generator_each():
    # one numpy Philox pass draws every path; path_rng, the one-path
    # reference, is the only place that builds a Philox generator
    assert not hasattr(models, "_keyed_streams")
    sites = [
        (path.name, scope)
        for path in sorted((SRC / "longrates").glob("*.py"))
        for scope in _philox_sites(ast.parse(path.read_text()))
    ]
    assert sites == [("models.py", "path_rng")]
