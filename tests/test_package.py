"""Guards on the package as a whole: what importing it and running each
command loads, that every export is its home module's object and is reached
by a CLI route, an acceptance criterion or a benchmark workload unless a
stated reason keeps it, that model types are told apart by the model
protocol, not by isinstance checks, that scenarios reach every consumer by
one route, and that no path gets a generator of its own."""

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
    "measure": {"models", "philox", "measure"},
    "dir": {"models", "philox", "pricing", "longrate", "verify"},
    "lemma": {"finiteprob"},
}


def test_import_loads_no_layer():
    assert _layers_loaded("import longrates", ROOT) == set()


def test_models_pricing_and_measure_load_no_config():
    code = "import longrates.models, longrates.pricing, longrates.measure"
    assert _layers_loaded(code, ROOT) == {"models", "philox", "pricing", "measure"}


def _imported_layers(path: Path) -> set[str]:
    """The longrates modules that a file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("longrates"):
            names |= {node.module.partition(".")[2] or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("longrates.")}
    return names


def test_models_import_no_layer_above_them():
    above = {"pricing", "longrate", "measure", "verify", "cli"}
    assert not _imported_layers(SRC / "longrates" / "models.py") & above


def test_the_chain_linear_algebra_lives_in_models():
    # one module knows the binary powers of the discounted matrix
    defined = {}
    for path in sorted((SRC / "longrates").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.name)
    for name in ("_binary_powers", "_advance", "_price_pass", "_perron_table"):
        assert defined[name] == ["models.py"], name
    assert "_chain_log_prices_and_powers" not in defined


@pytest.mark.parametrize("name", README_LINES)
def test_each_command_loads_only_its_layers(tmp_path, name):
    argv = [*README_LINES[name], "--out", str(tmp_path)]
    code = f"from longrates.cli import main\nmain({argv!r})"
    assert _layers_loaded(code, ROOT) == {"cli", "config", "output"} | COMMAND_LAYERS[name]


def test_commands_load_no_heavy_module(tmp_path):
    # all eight README lines in one interpreter; np.quantile and np.unique
    # without an inverse would load numpy.ma
    lines = [[*argv, "--out", str(tmp_path / name)] for name, argv in README_LINES.items()]
    code = (
        f"import sys\nfrom longrates.cli import main\nprint(*map(main, {lines!r}))\n"
        "print(*(m for m in ('numpy.ma', 'scipy', 'networkx') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n") == [" ".join(["0"] * len(README_LINES)), "", ""]


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


# the files whose code reaches an export: every CLI route, the acceptance
# criteria and the benchmark's workloads
REACHING_FILES = (
    SRC / "longrates" / "cli.py", SRC / "longrates" / "config.py",
    ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "workloads.py",
)
# export -> why it stays public although none of REACHING_FILES names it
UNREACHED_EXPORTS = {
    "Curve": "record type: build_curves returns it",
    "LongRateEstimate": "record type: extract_long_rate returns it",
    "McEstimate": "record type: price_mc returns it",
    "MonotonicityReport": "record type: verify_dir returns it",
    "PoissonExampleReport": "record type: run_poisson_example returns it",
    "ScenarioSet": "record type: simulate_paths returns it",
    "TowerReport": "record type: tower_identity_check returns it",
    "cond_ess_sup": "lemma operator: the conditional ess sup of the norm lemma",
    "cond_expectation": "lemma operator: the conditional mean of the norm lemma",
    "monotonicity_violations": "violation rule: verify_dir's test of each path",
    "path_rng": "test reference: the one-path generator scenarios are checked against",
}


def test_every_export_is_reached_or_has_a_reason():
    named = {
        getattr(node, "id", getattr(node, "attr", None))
        for path in REACHING_FILES
        for node in ast.walk(ast.parse(path.read_text()))
    }
    unreached = set(longrates.__all__) - named
    assert unreached <= set(UNREACHED_EXPORTS), sorted(unreached - set(UNREACHED_EXPORTS))
    assert set(UNREACHED_EXPORTS) <= set(longrates.__all__)


def test_second_routes_stay_deleted():
    # forward weights, curves from supplied prices, the short-rate gap and the
    # chain-price wrapper: only their own tests ever called them
    from longrates import measure, pricing

    for module, names in ((measure, ("ForwardWeights", "rn_weights", "forward_expectation")),
                          (pricing, ("curves_from_log_prices", "short_rate_consistency",
                                     "chain_log_prices"))):
        for name in names:
            assert not hasattr(module, name), name
            assert not hasattr(longrates, name), name
            assert name not in longrates.__all__
    assert "McEstimate" not in pricing.__all__


def test_each_model_has_one_sampling_hook():
    # simulate_paths -> _sample is the only way to scenarios
    for name in sorted(MODEL_CLASSES):
        members = vars(getattr(models, name))
        assert "_sample" in members, name
        for old in ("state_at", "_paths", "_states_at", "_mc_discounts"):
            assert old not in members, (name, old)


def test_scenario_times_have_one_check():
    # ScenarioSet._times is the one range test of scenario times
    assert hasattr(models.ScenarioSet, "_times")
    assert not hasattr(models, "_as_period")
    assert not hasattr(models.ScenarioSet, "_jump_counts")


def test_exact_long_rates_have_one_member():
    # long_rate_table is the one route to a model's exact long rate
    for name in MODEL_CLASSES:
        cls = getattr(models, name)
        assert callable(cls.long_rate_table)
        assert not hasattr(cls, "_spectral")
    assert not hasattr(models._Model, "_spectral")


def _call_sites(tree: ast.AST, names: set[str], scope: str = "<module>") -> list[str]:
    """The enclosing function of each call to one of names, bare or as an
    attribute."""
    sites = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "attr", getattr(func, "id", None)) in names:
                sites.append(scope)
        inner = child.name if isinstance(child, ast.FunctionDef) else scope
        sites += _call_sites(child, names, inner)
    return sites


def _package_call_sites(*names: str) -> list[tuple[str, str]]:
    return [
        (path.name, scope)
        for path in sorted((SRC / "longrates").glob("*.py"))
        for scope in _call_sites(ast.parse(path.read_text()), set(names))
    ]


def test_paths_are_drawn_without_a_generator_each():
    # one numpy Philox pass draws every path; path_rng, the one-path
    # reference, is the only place that builds a Philox generator
    assert not hasattr(models, "_keyed_streams")
    assert _package_call_sites("Philox") == [("models.py", "path_rng")]


def test_simulate_paths_is_the_one_sampler():
    # path_rng is the reference that tests draw single paths from: no
    # library route calls it or draws from a Generator's poisson
    assert _package_call_sites("path_rng", "poisson") == []
