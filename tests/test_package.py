"""Guards on the package as a whole: what importing it and running each
command loads, that every export is its home module's object, that model
types are told apart by the model protocol, not by isinstance checks, that
scenarios reach every consumer by one route, and that no path gets a
generator of its own."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longrates
from longrates import models

from cli_matrix import README_LINES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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


def _layers_loaded(code: str, cwd: Path) -> set[str]:
    """The longrates submodules in sys.modules after `code` runs in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*(m.split('.')[1] "
         "for m in sys.modules if m.startswith('longrates.')))"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


# README line -> the layers its run loads beside cli, config and output
COMMAND_LAYERS = {
    "sim": {"models", "philox"},
    "price": {"models", "philox", "pricing"},
    "curve": {"models", "philox", "pricing"},
    "lr": {"models", "philox", "pricing", "longrate"},
    "lr_plain_tail": {"models", "philox", "pricing", "longrate"},
    "measure": {"models", "philox", "pricing", "measure"},
    "dir": {"models", "philox", "pricing", "longrate", "verify"},
    "lemma": {"finiteprob"},
}


def test_import_loads_no_layer():
    assert _layers_loaded("import longrates", ROOT) == set()


@pytest.mark.parametrize("name", README_LINES)
def test_each_command_loads_only_its_layers(tmp_path, name):
    argv = [*README_LINES[name], "--out", str(tmp_path)]
    code = f"from longrates.cli import main\nmain({argv!r})"
    assert _layers_loaded(code, ROOT) == {"cli", "config", "output"} | COMMAND_LAYERS[name]


def test_every_export_is_the_object_in_its_home_module():
    for name in longrates.__all__:
        value = getattr(longrates, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    from longrates import config, longrate, verify

    assert (longrates.NonConvergenceError is config.NonConvergenceError
            is longrate.NonConvergenceError is verify.NonConvergenceError)
    assert set(longrates.__all__) <= set(dir(longrates))
    namespace = {}
    exec("from longrates import *", namespace)
    assert all(namespace[name] is getattr(longrates, name) for name in longrates.__all__)


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'longrates' has no attribute 'nope'"):
        longrates.nope


def test_exports_follow_their_home_module(monkeypatch):
    # nothing is cached in the package, so a wrapper put on the home module
    # (as perfbench's tracer does) is seen, and its removal too
    from longrates import verify

    original = verify.verify_dir
    monkeypatch.setattr(verify, "verify_dir", len)
    assert longrates.verify_dir is len
    monkeypatch.undo()
    assert longrates.verify_dir is original


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
