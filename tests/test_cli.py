import json
import math
from pathlib import Path

import numpy as np
import pytest

from longrates import config as cfg
from longrates.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, build_parser, main
from longrates.models import simulate_paths
from longrates.verify import verify_dir

from cli_matrix import README_LINES

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def csv_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


class TestSimulate:
    def test_writes_paths_and_summary(self, tmp_path):
        code = run_cli("simulate", "--config", CONFIGS / "markov2.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        lines = csv_lines(tmp_path / "paths.csv")
        assert lines[0] == "path,time,rate"
        summary = read_summary(tmp_path)
        assert summary["command"] == "simulate"
        assert summary["n_paths"] == 2000
        assert summary["seed"] == 42
        # horizon 8 reports times 0..8 inclusive for every path
        assert summary["n_rows"] == len(lines) - 1 == 2000 * 9

    def test_reruns_and_threads_are_byte_identical(self, tmp_path):
        outs = [tmp_path / name for name in ("a", "b", "c")]
        run_cli("simulate", "--config", CONFIGS / "poisson.json", "--out", outs[0])
        run_cli("simulate", "--config", CONFIGS / "poisson.json", "--out", outs[1])
        run_cli("simulate", "--config", CONFIGS / "poisson.json", "--out", outs[2],
                "--threads", "4")
        ref_paths = (outs[0] / "paths.csv").read_bytes()
        ref_summary = (outs[0] / "summary.json").read_bytes()
        for out in outs[1:]:
            assert (out / "paths.csv").read_bytes() == ref_paths
            assert (out / "summary.json").read_bytes() == ref_summary

    def test_seed_override(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run_cli("simulate", "--config", CONFIGS / "markov2.json", "--out", a,
                "--seed", "1")
        run_cli("simulate", "--config", CONFIGS / "markov2.json", "--out", b,
                "--seed", "2")
        run_cli("simulate", "--config", CONFIGS / "markov2.json", "--out", c,
                "--seed", "1")
        assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()
        assert (a / "paths.csv").read_bytes() == (c / "paths.csv").read_bytes()
        assert read_summary(a)["seed"] == 1

    def test_nested_out_directory_is_created(self, tmp_path):
        out = tmp_path / "deep" / "nested"
        assert run_cli("simulate", "--config", CONFIGS / "constant.json",
                       "--out", out) == EXIT_OK
        assert (out / "paths.csv").exists()


class TestPrice:
    def test_constant_model_matches_exactly(self, tmp_path):
        code = run_cli("price", "--config", CONFIGS / "constant.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        lines = csv_lines(tmp_path / "price.csv")
        assert lines[0] == "t,T,log_price,closed_form,mc_value,mc_std_error,mc_n,z_score"
        summary = read_summary(tmp_path)
        assert summary["z_score"] == 0.0
        assert summary["closed_form"] == pytest.approx(1.03 ** -3, rel=1e-15)

    def test_poisson_mc_within_four_sigma(self, tmp_path):
        code = run_cli("price", "--config", CONFIGS / "poisson.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["mc_n"] == 2000
        assert summary["mc_std_error"] > 0
        assert abs(summary["z_score"]) <= 4.0


class TestCurve:
    def test_poisson_curve_tail(self, tmp_path):
        code = run_cli("curve", "--config", CONFIGS / "poisson.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        lines = csv_lines(tmp_path / "curve.csv")
        assert lines[0].startswith("observation_time,maturity,log_price")
        assert len(lines) == 1 + 4  # one row per scheduled maturity
        summary = read_summary(tmp_path)
        assert summary["tail_maturity"] == 1005.0  # t = 5 plus tau = 1000
        # zero curve tends to r0 + intensity = 0.55 from below
        assert summary["tail_zero"] == pytest.approx(0.545, abs=1e-3)
        assert summary["tail_zero"] < 0.55


class TestLongRate:
    def test_markov2_against_spectral_oracle(self, tmp_path):
        code = run_cli("long-rate", "--config", CONFIGS / "markov2.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["quantity"] == "x"
        assert summary["converged"] is True
        # observing at t = 2 shifts the absolute-maturity exponent, so the
        # tail fit lands ~2e-6 off the spectral value instead of ~8e-9 at t = 0
        assert summary["value"] == pytest.approx(21.0 / 22.0, abs=1e-5)
        assert summary["spectral_value"] == pytest.approx(21.0 / 22.0, abs=1e-12)
        assert summary["spectral_gap"] <= 1e-5
        lines = csv_lines(tmp_path / "long_rate.csv")
        assert len(lines) == 3  # extracted row plus spectral row
        assert lines[1].startswith("extracted,x,reciprocal_extrapolation,")
        assert lines[2].startswith("spectral,x,spectral,")

    def test_plain_tail_override_reports_nonconvergence(self, tmp_path):
        code = run_cli("long-rate", "--config", CONFIGS / "poisson.json",
                       "--out", tmp_path, "--method", "plain_tail")
        assert code == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["method"] == "plain_tail"
        assert summary["converged"] is False
        # plain tail reads z(1000) ~ 0.55 - 5/1000, still 5e-3 short
        assert summary["value"] == pytest.approx(0.545, abs=1e-3)

    def test_tol_override(self, tmp_path):
        code = run_cli("long-rate", "--config", CONFIGS / "poisson.json",
                       "--out", tmp_path, "--tol", "1e-12")
        assert code == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["tol"] == 1e-12
        assert summary["converged"] is False  # residual cannot meet 1e-12


class TestVerifyMeasure:
    def test_markov2_exact(self, tmp_path):
        code = run_cli("verify-measure", "--config", CONFIGS / "markov2.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["exact"] is True
        assert abs(summary["gap"]) <= 1e-12
        assert summary["passed"] is True
        assert csv_lines(tmp_path / "measure.csv")[0] == "s,t,T,lhs,rhs,gap,se"

    def test_fractional_discrete_time_is_a_config_error(self, tmp_path):
        doc = json.loads((CONFIGS / "markov2.json").read_text())
        doc["times"]["s"] = 0.5
        bad = tmp_path / "half.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("verify-measure", "--config", bad, "--out", out) == EXIT_USAGE
        assert not (out / "measure.csv").exists()

    def test_poisson_monte_carlo(self, tmp_path):
        code = run_cli("verify-measure", "--config", CONFIGS / "poisson.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["exact"] is False
        assert summary["se"] > 0
        assert abs(summary["gap"]) <= 3.0 * summary["se"]


class TestExactLongRates:
    """Every model's exact long rate is the spectral row of long-rate and
    the spectral value of verify-dir, reducible and periodic chains too."""

    def chain(self, tmp_path, transition, rates=(0.0, 0.1)):
        doc = json.loads((CONFIGS / "markov2.json").read_text())
        doc["model"].update(transition=transition, state_rates=list(rates))
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("command", ["long-rate", "verify-dir"])
    @pytest.mark.parametrize("transition,rates,root", [
        ([[0.99, 0.01], [0.0, 1.0]], (0.01, 0.08), 0.99 / 1.01),
        ([[1e-30, 1.0], [1.0, 1e-30]], (0.0, 0.1), math.sqrt(1.0 / 1.1)),
    ], ids=["reducible", "nearly-periodic"])
    def test_chain_certifies_against_its_root(self, tmp_path, command, transition,
                                              rates, root):
        config = self.chain(tmp_path, transition, rates)
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, "--out", out) == EXIT_OK
        summary = read_summary(out)
        assert summary["spectral_value"] == pytest.approx(root, abs=1e-12)
        assert summary["spectral_gap"] <= 1e-6

    @pytest.mark.parametrize("command", ["long-rate", "verify-dir"])
    def test_root_far_above_one_certifies(self, tmp_path, command):
        # x is 1e4 from both states: the rounding floor of the Perron
        # bracket, 4 n eps root = 1.8e-11, is within 1e-12 * root
        config = self.chain(tmp_path, [[0.5, 0.5], [0.5, 0.5]], (-0.9999, -0.9999))
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, "--out", out) == EXIT_OK
        summary = read_summary(out)
        assert summary["spectral_value"] == pytest.approx(1e4, rel=1e-12)
        assert summary["spectral_gap"] <= 1e-12 * 1e4

    def test_swapped_prices_fail_verify_dir(self, tmp_path, monkeypatch, capsys):
        # a negative control: the absorbing state takes the other state's
        # prices, so x rises on every path absorbed between s and t
        from longrates.models import MarkovChain

        real = MarkovChain.log_price_table

        def swapped(self, states, t, maturities, regime):
            return real(self, [1 - int(state) for state in states], t, maturities, regime)

        monkeypatch.setattr(MarkovChain, "log_price_table", swapped)
        config = self.chain(tmp_path, [[0.99, 0.01], [0.0, 1.0]], (0.01, 0.08))
        out = tmp_path / "out"
        assert run_cli("verify-dir", "--config", config, "--out", out) == EXIT_VERIFY
        summary = read_summary(out)
        assert summary["passed"] is False
        assert summary["n_violations"] > 0
        flagged = sum(line.endswith(",true") for line in csv_lines(out / "report.csv"))
        assert flagged == summary["n_violations"]

    @pytest.mark.parametrize("name,quantity,exact", [
        ("poisson.json", "zero", 0.05 + 0.5),
        ("constant.json", "x", 1.0 / 1.03),
    ])
    def test_closed_form_models_report_their_long_rate(self, tmp_path, name,
                                                       quantity, exact):
        assert run_cli("long-rate", "--config", CONFIGS / name, "--out", tmp_path) == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["quantity"] == quantity
        assert summary["spectral_value"] == pytest.approx(exact, rel=1e-15)
        assert summary["spectral_gap"] == abs(summary["value"] - summary["spectral_value"])
        lines = csv_lines(tmp_path / "long_rate.csv")
        assert lines[2].startswith(f"spectral,{quantity},spectral,")
        assert lines[2].endswith(",0,0,true")

    def test_close_schedule_has_no_false_violations(self, tmp_path):
        config = edited_config(tmp_path, "poisson.json", "schedule", "taus",
                               [1000, 1010, 1020, 1030])
        assert run_cli("verify-dir", "--config", config, "--out", tmp_path) == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["n_violations"] == 0
        assert summary["change_quantiles"]["max"] == 0.0


class TestVerifyDir:
    def test_markov2_run_is_clean(self, tmp_path):
        code = run_cli("verify-dir", "--config", CONFIGS / "markov2.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["n_violations"] == 0
        assert summary["n_nonconverged"] == 0
        assert summary["passed"] is True
        assert summary["spectral_gap"] <= 1e-4
        lines = csv_lines(tmp_path / "report.csv")
        assert lines[0] == "path,x_s,x_t,residual_s,residual_t,epsilon,violation"
        assert len(lines) == 1 + 2000
        assert all(line.endswith(",false") for line in lines[1:])


class TestLemmaLab:
    def test_four_atoms_passes(self, tmp_path):
        code = run_cli("lemma-lab", "--config", CONFIGS / "four_atoms.json",
                       "--out", tmp_path)
        assert code == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["all_pass"] is True
        assert summary["converged"] is True
        lines = csv_lines(tmp_path / "trace.csv")
        assert lines[0] == "n,atom,norm,limit,verdict"
        assert len(lines) == 1 + 6 * 4  # schedule length times atoms
        last = lines[-1].split(",")
        assert last[0] == "50" and last[1] == "3"
        assert float(last[2]) == 3.8906198337159748
        assert last[4] == "true"

    def test_zero_tolerance_fails_verification(self, tmp_path):
        doc = json.loads((CONFIGS / "four_atoms.json").read_text())
        doc["tolerances"]["tol"] = 0.0
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = run_cli("lemma-lab", "--config", strict, "--out", out)
        assert code == EXIT_VERIFY
        # a failed verdict still writes both result files
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace.csv"]
        summary = read_summary(out)
        assert summary["all_pass"] is False
        assert summary["converged"] is True

    def test_missing_tol_is_a_config_error(self, tmp_path):
        doc = json.loads((CONFIGS / "four_atoms.json").read_text())
        del doc["tolerances"]["tol"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("lemma-lab", "--config", bad, "--out", tmp_path) == EXIT_USAGE


RESULT_CSV = {
    "simulate": "paths.csv", "price": "price.csv", "curve": "curve.csv",
    "long-rate": "long_rate.csv", "verify-measure": "measure.csv",
    "verify-dir": "report.csv", "lemma-lab": "trace.csv",
}


def edited_config(tmp_path, name, section, key, value) -> Path:
    doc = json.loads((CONFIGS / name).read_text())
    doc[section][key] = value
    path = tmp_path / f"edited_{name}"
    path.write_text(json.dumps(doc))
    return path


class TestResultContract:
    """Every run that reaches a verdict leaves exactly its CSV and
    summary.json in --out; a run that stops before one leaves neither."""

    @pytest.mark.parametrize("name", README_LINES)
    def test_readme_line_writes_its_csv_and_summary(self, tmp_path, monkeypatch, name):
        argv = README_LINES[name]
        monkeypatch.chdir(ROOT)  # the README's config paths are relative
        out = tmp_path / name
        assert run_cli(*argv, "--out", out) == EXIT_OK
        command = argv[0]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [RESULT_CSV[command], "summary.json"])
        summary = read_summary(out)
        head = ["command"] if command == "lemma-lab" else ["command", "model", "regime"]
        assert list(summary)[:len(head)] == head
        assert summary["command"] == command

    def test_aborted_extraction_writes_neither_file(self, tmp_path, capsys):
        strict = edited_config(tmp_path, "markov2.json", "tolerances",
                               "extraction_tol", 0.0)
        out = tmp_path / "out"
        assert run_cli("verify-dir", "--config", strict, "--out", out) == EXIT_VERIFY
        assert "verify-dir: verification aborted: " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["long-rate", "verify-dir"])
    def test_unconverged_perron_root_aborts_without_a_traceback(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # with no squarings allowed no Perron root can be bracketed, while
        # markov2's extractions still converge
        from longrates import models

        monkeypatch.setattr(models, "_MAX_SQUARINGS", 0)
        out = tmp_path / "out"
        assert run_cli(command, "--config", CONFIGS / "markov2.json",
                       "--out", out) == EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.startswith(f"longrates {command}: verification aborted: "
                              "Perron squaring did not converge")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        code = run_cli("simulate", "--config", CONFIGS / "constant.json",
                       "--out", taken)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("longrates simulate: cannot write --out: ")
        assert err.count("\n") == 1
        assert taken.read_text() == "not a directory"


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path):
        code = run_cli("simulate", "--config", tmp_path / "absent.json",
                       "--out", tmp_path)
        assert code == EXIT_USAGE

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("simulate", "--config", bad, "--out", tmp_path) == EXIT_USAGE

    def test_missing_section(self, tmp_path):
        doc = json.loads((CONFIGS / "markov2.json").read_text())
        del doc["model"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("simulate", "--config", bad, "--out", tmp_path) == EXIT_USAGE

    def test_unknown_model_kind(self, tmp_path):
        doc = json.loads((CONFIGS / "markov2.json").read_text())
        doc["model"] = {"kind": "vasicek", "rate": 0.03}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("simulate", "--config", bad, "--out", tmp_path) == EXIT_USAGE

    def test_discrete_grid_rejects_output_step(self, tmp_path):
        doc = json.loads((CONFIGS / "markov2.json").read_text())
        doc["grid"]["output_step"] = 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("simulate", "--config", bad, "--out", tmp_path) == EXIT_USAGE

    @pytest.mark.parametrize("command,config,section,key,value,result", [
        ("verify-measure", "poisson.json", "tolerances", "k_sigma", "NaN",
         "measure.csv"),
        ("lemma-lab", "four_atoms.json", "tolerances", "tol", "NaN", "trace.csv"),
        ("price", "constant.json", "times", "T", "Infinity", "price.csv"),
        ("curve", "poisson.json", "times", "t", "-Infinity", "curve.csv"),
        ("verify-dir", "poisson.json", "schedule", "taus",
         "[125, 250, NaN, 1000]", "report.csv"),
    ])
    def test_non_finite_numbers_are_config_errors(
        self, tmp_path, capsys, command, config, section, key, value, result
    ):
        # json reads NaN and Infinity; each must name its field before any work
        doc = json.loads((CONFIGS / config).read_text())
        doc[section][key] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"@"', value))
        out = tmp_path / "out"
        assert run_cli(command, "--config", bad, "--out", out) == EXIT_USAGE
        assert f"config error: {section}.{key} must" in capsys.readouterr().err
        assert not (out / result).exists()
        assert not (out / "summary.json").exists()

    def test_short_schedule_is_a_config_error_where_a_long_rate_is_extracted(
        self, tmp_path, capsys
    ):
        doc = json.loads((CONFIGS / "markov2.json").read_text())
        doc["schedule"]["taus"] = [125, 250, 500]
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc))
        for command in ("long-rate", "verify-dir"):
            out = tmp_path / command
            assert run_cli(command, "--config", short, "--out", out) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "config error: schedule.taus needs at least 4 maturities" in err
            assert not (out / "summary.json").exists()
        # a curve needs no extraction and takes any schedule
        out = tmp_path / "curve"
        assert run_cli("curve", "--config", short, "--out", out) == EXIT_OK
        assert read_summary(out)["n_maturities"] == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("command", ["price", "curve", "long-rate"])
    def test_non_finite_closed_form_is_named_as_such(self, tmp_path, capsys, command):
        # r0 is finite, but the log price it implies is not
        config = edited_config(tmp_path, "poisson.json", "model", "r0", 1e308)
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, "--out", out) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"longrates {command}: invalid configuration: log prices must be finite\n")
        assert list(out.iterdir()) == []

    def test_method_choices_are_what_the_config_accepts(self):
        accepted = []
        for method in cfg.ExtractionMethod:
            try:
                parsed = cfg.parse_tolerances({"tolerances": {"method": method.value}})
            except cfg.ConfigError:
                continue
            assert parsed["method"] is method
            accepted.append(method.value)
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        (choices,) = [a.choices for a in commands.choices["long-rate"]._actions
                      if a.dest == "method"]
        assert choices == sorted(accepted) == ["plain_tail", "reciprocal_extrapolation"]

    def test_negative_seed_override(self, tmp_path):
        code = run_cli("simulate", "--config", CONFIGS / "markov2.json",
                       "--out", tmp_path, "--seed", "-3")
        assert code == EXIT_USAGE

    def test_bad_argv_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-command"])
        assert exc.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # missing required --config
        assert exc.value.code == EXIT_USAGE


def cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def rendered(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestBytesAgainstAnIndependentRendering:
    """The CLI's files against a cell-by-cell rendering of the library's
    values, so a deterministic change of format cannot pass unseen."""

    def test_simulate_paths_csv(self, tmp_path):
        doc = cfg.load_config(CONFIGS / "poisson.json")
        grid = cfg.parse_grid(doc)
        n_paths, seed = cfg.parse_mc(doc)
        times = grid.reporting_times()
        rates = simulate_paths(cfg.parse_model(doc), grid, n_paths, seed).rates_at(times)
        want = rendered(("path", "time", "rate"), (
            (k, u, r) for k in range(n_paths) for u, r in zip(times, rates[k])
        ))
        assert run_cli("simulate", "--config", CONFIGS / "poisson.json",
                       "--out", tmp_path) == EXIT_OK
        assert (tmp_path / "paths.csv").read_bytes() == want
        assert read_summary(tmp_path)["n_rows"] == n_paths * times.size == 62_000

    def test_verify_dir_report_csv(self, tmp_path):
        doc = cfg.load_config(CONFIGS / "markov2.json")
        grid = cfg.parse_grid(doc)
        times = cfg.parse_times(doc)
        taus, _ = cfg.parse_schedule(doc, grid.regime, extract=True)
        n_paths, seed = cfg.parse_mc(doc)
        tolerances = cfg.parse_tolerances(doc)
        report = verify_dir(
            cfg.parse_model(doc), times["s"], times["t"], taus, n_paths, seed,
            grid.regime, method=tolerances["method"],
            epsilon_multiplier=tolerances["epsilon_multiplier"],
            tol=tolerances["extraction_tol"],
        )
        flagged = set(report.violation_indices.tolist())
        want = rendered(
            ("path", "x_s", "x_t", "residual_s", "residual_t", "epsilon", "violation"),
            ((k, report.x_s[k], report.x_t[k], report.residual_s[k],
              report.residual_t[k], report.epsilon[k], k in flagged)
             for k in range(n_paths)),
        )
        assert run_cli("verify-dir", "--config", CONFIGS / "markov2.json",
                       "--out", tmp_path) == EXIT_OK
        assert (tmp_path / "report.csv").read_bytes() == want


GONE = object()  # the edit deletes the key

BROKEN_CONFIGS = {
    # id: (command, config, section, key, value, message after "config error: ");
    # section None replaces the whole document, key None the whole section
    "top-level": ("simulate", "markov2.json", None, None, [1],
                  "{path}: top level must be a JSON object"),
    "section": ("simulate", "markov2.json", "grid", None, [1],
                "section 'grid' must be an object"),
    "lambda": ("simulate", "poisson.json", "model", "lambda", -1,
               "model: intensity must be positive"),
    "transition": ("simulate", "markov2.json", "model", "transition", "x",
                   "model.transition must be a list of rows"),
    "transition-text": ("verify-dir", "markov2.json", "model", "transition",
                        [["0.5", "0.5"], ["0.5", "0.5"]],
                        "model.transition must contain only finite numbers"),
    "transition-bool": ("simulate", "markov2.json", "model", "transition",
                        [[True, False], [0.5, 0.5]],
                        "model.transition must contain only finite numbers"),
    "initial-state": ("simulate", "markov2.json", "model", "initial_state", 1.5,
                      "model.initial_state must be an integer"),
    "state-rates": ("simulate", "markov2.json", "model", "state_rates", [],
                    "model.state_rates must be a non-empty list of numbers"),
    "regime": ("simulate", "constant.json", "grid", "regime", "weekly",
               "grid.regime must be 'discrete' or 'continuous'"),
    "missing-T": ("price", "constant.json", "times", "T", GONE,
                  "times.T is required for this command"),
    "decreasing-taus": ("verify-dir", "markov2.json", "schedule", "taus",
                        [62, 500, 250, 1000],
                        "schedule.taus must be positive and strictly increasing"),
    "fractional-taus": ("long-rate", "markov2.json", "schedule", "taus",
                        [62, 125.5, 250, 500],
                        "schedule.taus must be integers in the discrete regime"),
    "quantity": ("long-rate", "markov2.json", "schedule", "quantity", "forward",
                 "schedule.quantity must be 'x' or 'zero'"),
    "n-paths": ("simulate", "markov2.json", "mc", "n_paths", 0,
                "mc.n_paths must be at least 1"),
    "seed": ("verify-measure", "poisson.json", "mc", "seed", -1,
             "mc.seed must be a non-negative integer"),
    "extraction-tol": ("verify-dir", "markov2.json", "tolerances", "extraction_tol",
                       -1e-4, "tolerances.extraction_tol must be non-negative"),
    "epsilon-multiplier": ("verify-dir", "poisson.json", "tolerances",
                           "epsilon_multiplier", 0,
                           "tolerances.epsilon_multiplier must be positive"),
    "method-list": ("verify-dir", "markov2.json", "tolerances", "method",
                    ["plain_tail"], "tolerances.method must be 'plain_tail' or "
                    "'reciprocal_extrapolation'"),
    "k-sigma": ("verify-measure", "markov2.json", "tolerances", "k_sigma", 0,
                "tolerances.k_sigma must be positive"),
    "space": ("lemma-lab", "four_atoms.json", "space", "atom_probs",
              [0.5, 0.5, 0.5, -0.5], "space: atom probabilities must be strictly positive"),
    "cells-shape": ("lemma-lab", "four_atoms.json", "partition", "cells", [[0, 1], 2],
                    "partition.cells must be a list of lists of atom indices"),
    "cells-fractional": ("lemma-lab", "four_atoms.json", "partition", "cells",
                         [[0, 1.9], [2, 3]],
                         "partition.cells must be a list of lists of atom indices"),
    "cells-text": ("lemma-lab", "four_atoms.json", "partition", "cells",
                   [["0", 1, 2, 3]],
                   "partition.cells must be a list of lists of atom indices"),
    "cells-bool": ("lemma-lab", "four_atoms.json", "partition", "cells",
                   [[True, False], [2, 3]],
                   "partition.cells must be a list of lists of atom indices"),
    "cells-overlap": ("lemma-lab", "four_atoms.json", "partition", "cells",
                      [[0, 1], [1, 2, 3]], "partition: cells must be disjoint"),
    "short-rv": ("lemma-lab", "four_atoms.json", "rv", "values", [1.0, 2.0, 3.0],
                 "rv: values must have one entry per atom"),
    "sequence-kind": ("lemma-lab", "four_atoms.json", "sequence", "kind", "wild",
                      "sequence.kind must be 'constant' or 'scaled'"),
    "sequence-c": ("lemma-lab", "four_atoms.json", "sequence", None,
                   {"kind": "scaled", "c": -1}, "sequence.c must be non-negative"),
    "empty-n": ("lemma-lab", "four_atoms.json", "schedule", "n", [],
                "schedule.n must be a non-empty list of integers"),
    "fractional-n": ("lemma-lab", "four_atoms.json", "schedule", "n", [2, 4.5],
                     "schedule.n must contain only integers"),
    "decreasing-n": ("lemma-lab", "four_atoms.json", "schedule", "n", [4, 2],
                     "schedule.n must be strictly increasing"),
    "short-n": ("lemma-lab", "four_atoms.json", "schedule", "n", [1],
                "schedule.n needs at least two entries, each >= 1"),
}


@pytest.mark.parametrize("case", BROKEN_CONFIGS.values(), ids=list(BROKEN_CONFIGS))
def test_broken_config_names_its_field_and_writes_nothing(tmp_path, capsys, case):
    command, name, section, key, value, message = case
    doc = json.loads((CONFIGS / name).read_text())
    if section is None:
        doc = value
    elif key is None:
        doc[section] = value
    elif value is GONE:
        del doc[section][key]
    else:
        doc[section][key] = value
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli(command, "--config", bad, "--out", out) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"longrates {command}: config error: {message.format(path=bad)}\n")
    assert not out.exists() or list(out.iterdir()) == []


def test_lemma_lab_scaled_sequence_traces_the_power_means(tmp_path):
    # X_n = (1 - c/n) X on four equally likely atoms, one cell: every atom's
    # n-norm is the power mean (sum of X_n^n / 4)^(1/n)
    c = 1.0
    doc = json.loads((CONFIGS / "four_atoms.json").read_text())
    doc["sequence"] = {"kind": "scaled", "c": c}
    config = tmp_path / "scaled.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run_cli("lemma-lab", "--config", config, "--out", out)
    summary = read_summary(out)
    assert code == (EXIT_OK if summary["all_pass"] else EXIT_VERIFY) == EXIT_VERIFY
    rows = [line.split(",") for line in csv_lines(out / "trace.csv")[1:]]
    assert len(rows) == 6 * 4
    x = [1.0, 2.0, 3.0, 4.0]
    for n, atom, norm, limit, _ in rows:
        n = int(n)
        scaled = [(1.0 - c / n) * v for v in x]
        want = math.fsum(0.25 * v**n for v in scaled) ** (1.0 / n)
        assert float(norm) == pytest.approx(want, rel=1e-13)
        assert float(limit) == x[int(atom)]


def test_long_rate_of_the_zero_curve_against_the_spectral_oracle(tmp_path):
    # the long zero rate of markov2 is 1 / x - 1 for its Perron factor 21/22
    config = edited_config(tmp_path, "markov2.json", "schedule", "quantity", "zero")
    assert run_cli("long-rate", "--config", config, "--out", tmp_path) == EXIT_OK
    summary = read_summary(tmp_path)
    assert summary["quantity"] == "zero"
    assert summary["spectral_value"] == pytest.approx(1.0 / 21.0, abs=1e-12)
    assert summary["value"] == pytest.approx(summary["spectral_value"], abs=1e-6)
    assert summary["spectral_gap"] <= 1e-6
    lines = csv_lines(tmp_path / "long_rate.csv")
    assert lines[1].startswith("extracted,zero,")
    assert lines[2].startswith("spectral,zero,spectral,")
