"""Command-line interface: each subcommand runs one JSON-configured batch.

Each handler returns its CSV columns, summary and verdict; `main` alone
writes them into --out, the CSV and then summary.json, and picks the exit
code: 0 success, 1 usage, configuration or --out error, 2 verification
failed or aborted for want of convergence. Files are written with
deterministic formatting; wall time goes to stderr only, so repeated runs
with the same config and seed are byte-identical, whatever --threads says.
Each handler imports its own layers, so a run loads only what it uses.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfg
from .output import dump_json, write_csv

__all__ = ["main", "run", "EXIT_OK", "EXIT_USAGE", "EXIT_VERIFY"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this artifact reserves 2 for
    # verification failures, so usage errors remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="longrates",
        description="Simulation and verification lab for long forward and "
        "zero-coupon rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True, type=Path,
                       help="JSON run configuration")
        q.add_argument("--out", type=Path, default=Path("."),
                       help="directory for result files (default: cwd)")
        q.add_argument("--seed", type=int, default=None,
                       help="override mc.seed from the config")
        q.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        return q

    add("simulate", "simulate short-rate paths and write them to CSV")
    add("price", "closed-form and Monte Carlo bond prices")
    add("curve", "discount, forward, zero, and growth-factor curves")
    lr = add("long-rate", "extract the long rate from a curve tail")
    lr.add_argument("--method", choices=sorted(cfg._METHODS), default=None,
                    help="override tolerances.method")
    lr.add_argument("--tol", type=float, default=None,
                    help="override tolerances.extraction_tol")
    add("verify-measure", "check the forward-measure pricing identity")
    add("verify-dir", "certify per-path long-rate monotonicity")
    add("lemma-lab", "conditional-norm checks on a finite probability space")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    handler, csv_name = _HANDLERS[args.command]

    def finish(message: str, code: int = EXIT_USAGE) -> int:
        print(f"longrates {args.command}: {message}", file=sys.stderr)
        return code

    try:
        doc = cfg.load_config(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        columns, summary, passed = handler(args, doc)
        write_csv(args.out / csv_name, columns)
        dump_json(args.out / "summary.json", {"command": args.command, **summary})
    except cfg.ConfigError as exc:
        return finish(f"config error: {exc}")
    except ValueError as exc:
        return finish(f"invalid configuration: {exc}")
    except cfg.NonConvergenceError as exc:
        return finish(f"verification aborted: {exc}", EXIT_VERIFY)
    except OSError as exc:
        # load_config reports its own OSError, so this one is from --out
        return finish(f"cannot write --out: {exc}")
    code = EXIT_OK if passed else EXIT_VERIFY
    return finish(f"exit {code} in {time.perf_counter() - start:.2f} s", code)


def run() -> None:
    sys.exit(main())


def _model(doc):
    """The model, the grid, and the head of summary.json that names both."""
    model = cfg.parse_model(doc)
    grid = cfg.parse_grid(doc)
    return model, grid, {"model": model.label, "regime": grid.regime.value}


def _mc_params(args, doc) -> tuple[int, int]:
    n_paths, seed = cfg.parse_mc(doc)
    if args.seed is not None:
        if args.seed < 0:
            raise cfg.ConfigError("--seed must be non-negative")
        seed = args.seed
    return n_paths, seed


def _cmd_simulate(args, doc) -> tuple[dict, dict, bool]:
    from .models import simulate_paths

    model, grid, head = _model(doc)
    n_paths, seed = _mc_params(args, doc)
    scen = simulate_paths(model, grid, n_paths, seed)
    times = grid.reporting_times()
    return {
        "path": np.repeat(np.arange(n_paths), times.size),
        "time": np.tile(times, n_paths),
        "rate": scen.rates_at(times).ravel(),
    }, {
        **head,
        "horizon": float(grid.horizon),
        "n_paths": n_paths,
        "seed": seed,
        "n_rows": n_paths * times.size,
    }, True


def _cmd_price(args, doc) -> tuple[dict, dict, bool]:
    from .pricing import log_price_closed_form, price_mc

    model, grid, head = _model(doc)
    times = cfg.parse_times(doc)
    t = cfg.require_time(times, "t")
    T = cfg.require_time(times, "T")
    log_price = log_price_closed_form(model, None, t, T, grid.regime)
    if not np.isfinite(log_price):
        # the message of curve and long-rate, not the CSV writer's refusal
        raise ValueError("log prices must be finite")
    closed = math.exp(log_price)
    row = {"t": t, "T": T, "log_price": log_price, "closed_form": closed}
    mc_seed = {}
    if "mc" in doc:
        n_paths, seed = _mc_params(args, doc)
        mc = price_mc(model, None, t, T, n_paths, seed, grid.regime)
        z_score = mc.z_score(closed)
        if np.isinf(z_score):
            raise cfg.ConfigError("mc produced a degenerate standard error")
        row.update({
            "mc_value": mc.value,
            "mc_std_error": mc.std_error,
            "mc_n": mc.n,
            "z_score": z_score,
        })
        mc_seed["seed"] = seed
    columns = {key: [value] for key, value in row.items()}
    return columns, {**head, **row, **mc_seed}, True


def _cmd_curve(args, doc) -> tuple[dict, dict, bool]:
    from .pricing import build_curves

    model, grid, head = _model(doc)
    t = cfg.require_time(cfg.parse_times(doc), "t")
    taus, _ = cfg.parse_schedule(doc, grid.regime)
    maturities = t + taus
    curve = build_curves(model, None, t, maturities, grid.regime)
    return {
        "observation_time": np.full(maturities.size, t),
        "maturity": curve.maturities,
        "log_price": curve.log_prices,
        "price": curve.prices(),
        "forward": curve.forward,
        "zero": curve.zero,
        "x": curve.x,
    }, {
        **head,
        "t": t,
        "n_maturities": int(taus.size),
        "tail_maturity": float(curve.maturities[-1]),
        "tail_forward": float(curve.forward[-1]),
        "tail_zero": float(curve.zero[-1]),
        "tail_x": float(curve.x[-1]),
    }, True


def _cmd_long_rate(args, doc) -> tuple[dict, dict, bool]:
    from .longrate import extract_long_rate, x_from_long_zero
    from .pricing import build_curves

    model, grid, head = _model(doc)
    t = cfg.require_time(cfg.parse_times(doc), "t")
    taus, quantity = cfg.parse_schedule(doc, grid.regime, extract=True)
    tolerances = cfg.parse_tolerances(doc)
    method = tolerances["method"]
    if args.method is not None:
        method = cfg._METHODS[args.method]
    tol = tolerances["extraction_tol"]
    if args.tol is not None:
        if args.tol < 0:
            raise cfg.ConfigError("--tol must be non-negative")
        tol = args.tol
    curve = build_curves(model, None, t, t + taus, grid.regime)
    values = curve.x if quantity == "x" else curve.zero
    est = extract_long_rate(np.column_stack([taus, values]), method, tol)
    z_exact = float(model.long_rate_table([None], grid.regime)[0])
    exact = z_exact if quantity == "zero" else x_from_long_zero(z_exact, grid.regime)
    summary = {
        **head,
        "t": t,
        "quantity": quantity,
        "method": est.method.value,
        "tol": tol,
        "value": est.value,
        "residual": est.residual,
        "T_used": est.T_used,
        "converged": bool(est.converged),
        "spectral_value": exact,
        "spectral_gap": abs(est.value - exact),
    }
    # the extracted row, then the model's exact long rate
    return {
        "source": ["extracted", "spectral"],
        "quantity": [quantity] * 2,
        "method": [est.method.value, "spectral"],
        "value": [est.value, exact],
        "residual": [est.residual, 0.0],
        "T_used": [est.T_used, 0.0],
        "converged": [est.converged, True],
    }, summary, True


def _cmd_verify_measure(args, doc) -> tuple[dict, dict, bool]:
    from .measure import tower_identity_check

    model, grid, head = _model(doc)
    times = cfg.parse_times(doc)
    s = cfg.require_time(times, "s")
    t = cfg.require_time(times, "t")
    T = cfg.require_time(times, "T")
    n_paths, seed = _mc_params(args, doc)
    tolerances = cfg.parse_tolerances(doc)
    report = tower_identity_check(
        model, s, t, T, grid.regime, n=n_paths, seed=seed
    )
    passed = report.passed(tolerances["k_sigma"], tolerances["exact_tol"])
    row = {key: getattr(report, key) for key in ("s", "t", "T", "lhs", "rhs", "gap", "se")}
    return {key: [value] for key, value in row.items()}, {
        **head,
        **row,
        "n": report.n,
        "exact": report.exact,
        "k_sigma": tolerances["k_sigma"],
        "exact_tol": tolerances["exact_tol"],
        "passed": passed,
    }, passed


def _cmd_verify_dir(args, doc) -> tuple[dict, dict, bool]:
    from .verify import verify_dir

    model, grid, head = _model(doc)
    times = cfg.parse_times(doc)
    s = cfg.require_time(times, "s")
    t = cfg.require_time(times, "t")
    taus, _ = cfg.parse_schedule(doc, grid.regime, extract=True)
    n_paths, seed = _mc_params(args, doc)
    tolerances = cfg.parse_tolerances(doc)
    report = verify_dir(
        model, s, t, taus, n_paths, seed, grid.regime,
        method=tolerances["method"],
        epsilon_multiplier=tolerances["epsilon_multiplier"],
        tol=tolerances["extraction_tol"],
    )
    summary = {
        **head,
        "method": report.method.value,
        "s": report.s,
        "t": report.t,
        "n_paths": report.n_paths,
        "seed": seed,
        "epsilon_multiplier": report.epsilon_multiplier,
        "epsilon_max": report.epsilon_max,
        "n_violations": report.n_violations,
        "n_nonconverged": report.n_nonconverged,
        "change_quantiles": report.change_quantiles,
        "passed": report.passed,
        "spectral_value": report.spectral_value,
        "spectral_gap": report.spectral_gap,
    }
    paths = np.arange(report.n_paths)
    return {
        "path": paths,
        "x_s": report.x_s,
        "x_t": report.x_t,
        "residual_s": report.residual_s,
        "residual_t": report.residual_t,
        "epsilon": report.epsilon,
        "violation": np.isin(paths, report.violation_indices),
    }, summary, report.passed


def _cmd_lemma_lab(args, doc) -> tuple[dict, dict, bool]:
    from .finiteprob import pnorm_liminf_bound

    space = cfg.parse_space(doc)
    partition = cfg.parse_partition(doc, space)
    limit = cfg.parse_rv(doc, space)
    sequence = cfg.parse_sequence(doc, space, limit)
    schedule = cfg.parse_n_schedule(doc)
    tolerances = cfg.parse_tolerances(doc)
    if tolerances["tol"] is None:
        raise cfg.ConfigError("tolerances.tol is required for lemma-lab")
    report = pnorm_liminf_bound(sequence, limit, partition, schedule,
                                tolerances["tol"])
    steps = len(report.n_schedule)
    return {
        "n": np.repeat(report.n_schedule, space.n_atoms),
        "atom": np.tile(np.arange(space.n_atoms), steps),
        "norm": report.norms.ravel(),
        "limit": np.tile(report.limit_values, steps),
        "verdict": np.tile(report.atom_ok, steps),
    }, {
        "n_atoms": space.n_atoms,
        "n_cells": partition.n_cells,
        "n_schedule": list(report.n_schedule),
        "tol": report.tol,
        "liminf_proxy": [float(v) for v in report.liminf_proxy],
        "limit": [float(v) for v in report.limit_values],
        "deviations": [float(v) for v in report.deviations],
        "converged": report.converged,
        "all_pass": report.all_pass,
    }, report.all_pass


# subcommand -> (handler, name of its CSV in --out)
_HANDLERS = {
    "simulate": (_cmd_simulate, "paths.csv"),
    "price": (_cmd_price, "price.csv"),
    "curve": (_cmd_curve, "curve.csv"),
    "long-rate": (_cmd_long_rate, "long_rate.csv"),
    "verify-measure": (_cmd_verify_measure, "measure.csv"),
    "verify-dir": (_cmd_verify_dir, "report.csv"),
    "lemma-lab": (_cmd_lemma_lab, "trace.csv"),
}
