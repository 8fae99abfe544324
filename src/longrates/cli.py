"""Command-line interface: each subcommand runs one JSON-configured batch.

Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure. Result files (CSV plus a summary JSON) are written with
deterministic formatting; wall time goes to stderr only, so repeated runs
with the same config and seed are byte-identical, whatever --threads says.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfg
from .finiteprob import pnorm_liminf_bound
from .longrate import (
    ExtractionMethod,
    extract_long_rate,
    long_zero_from_x,
    perron_long_rate,
)
from .measure import tower_identity_check
from .models import (
    JumpPath,
    MarkovChain,
    model_label,
    simulate_paths,
)
from .output import dump_json, write_csv
from .pricing import build_curves, log_price_closed_form, price_closed_form, price_mc
from .verify import NonConvergenceError, verify_dir

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
    lr.add_argument("--method", choices=sorted(m.value for m in (
        ExtractionMethod.PLAIN_TAIL, ExtractionMethod.RECIPROCAL_EXTRAPOLATION)),
        default=None, help="override tolerances.method")
    lr.add_argument("--tol", type=float, default=None,
                    help="override tolerances.extraction_tol")
    add("verify-measure", "check the forward-measure pricing identity")
    add("verify-dir", "certify per-path long-rate monotonicity")
    add("lemma-lab", "conditional-norm checks on a finite probability space")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    handler = _HANDLERS[args.command]
    try:
        doc = cfg.load_config(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        code = handler(args, doc)
    except cfg.ConfigError as exc:
        print(f"longrates {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"longrates {args.command}: invalid configuration: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"longrates {args.command}: verification aborted: {exc}",
              file=sys.stderr)
        return EXIT_VERIFY
    elapsed = time.perf_counter() - start
    print(f"longrates {args.command}: exit {code} in {elapsed:.2f} s",
          file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


def _mc_params(args, doc) -> tuple[int, int]:
    n_paths, seed = cfg.parse_mc(doc)
    if args.seed is not None:
        if args.seed < 0:
            raise cfg.ConfigError("--seed must be non-negative")
        seed = args.seed
    return n_paths, seed


def _cmd_simulate(args, doc) -> int:
    model = cfg.parse_model(doc)
    grid = cfg.parse_grid(doc)
    n_paths, seed = _mc_params(args, doc)
    scen = simulate_paths(model, grid, n_paths, seed)
    times = grid.reporting_times()
    rows = []
    for k, path in enumerate(scen.paths):
        if isinstance(path, JumpPath):
            rates = path.rate_at(times)
        else:
            rates = path.rates[np.asarray(times, dtype=int)]
        for u, r in zip(times, rates):
            rows.append((k, u, float(r)))
    n_rows = write_csv(args.out / "paths.csv", ("path", "time", "rate"), rows)
    dump_json(args.out / "summary.json", {
        "command": "simulate",
        "model": model_label(model),
        "regime": grid.regime.value,
        "horizon": float(grid.horizon),
        "n_paths": n_paths,
        "seed": seed,
        "n_rows": n_rows,
    })
    return EXIT_OK


def _cmd_price(args, doc) -> int:
    model = cfg.parse_model(doc)
    grid = cfg.parse_grid(doc)
    times = cfg.parse_times(doc)
    t = cfg.require_time(times, "t")
    T = cfg.require_time(times, "T")
    log_p = log_price_closed_form(model, None, t, T, grid.regime)
    closed = price_closed_form(model, None, t, T, grid.regime)
    summary = {
        "command": "price",
        "model": model_label(model),
        "regime": grid.regime.value,
        "t": t,
        "T": T,
        "log_price": log_p,
        "closed_form": closed,
    }
    header: tuple[str, ...] = ("t", "T", "log_price", "closed_form")
    row: list = [t, T, log_p, closed]
    if "mc" in doc:
        n_paths, seed = _mc_params(args, doc)
        mc = price_mc(model, None, t, T, n_paths, seed, grid.regime)
        z_score = mc.z_score(closed)
        if np.isinf(z_score):
            raise cfg.ConfigError("mc produced a degenerate standard error")
        header = header + ("mc_value", "mc_std_error", "mc_n", "z_score")
        row += [mc.value, mc.std_error, mc.n, z_score]
        summary.update({
            "mc_value": mc.value,
            "mc_std_error": mc.std_error,
            "mc_n": mc.n,
            "z_score": z_score,
            "seed": seed,
        })
    write_csv(args.out / "price.csv", header, [tuple(row)])
    dump_json(args.out / "summary.json", summary)
    return EXIT_OK


def _cmd_curve(args, doc) -> int:
    model = cfg.parse_model(doc)
    grid = cfg.parse_grid(doc)
    t = cfg.require_time(cfg.parse_times(doc), "t")
    taus, _ = cfg.parse_schedule(doc, grid.regime)
    maturities = t + taus
    disc, rates = build_curves(model, None, t, maturities, grid.regime)
    rows = [
        (t, T, lp, p, f, z, x)
        for T, lp, p, f, z, x in zip(
            disc.maturities, disc.log_prices, disc.prices(),
            rates.forward, rates.zero, rates.x,
        )
    ]
    write_csv(
        args.out / "curve.csv",
        ("observation_time", "maturity", "log_price", "price", "forward",
         "zero", "x"),
        rows,
    )
    dump_json(args.out / "summary.json", {
        "command": "curve",
        "model": model_label(model),
        "regime": grid.regime.value,
        "t": t,
        "n_maturities": int(taus.size),
        "tail_maturity": float(disc.maturities[-1]),
        "tail_forward": float(rates.forward[-1]),
        "tail_zero": float(rates.zero[-1]),
        "tail_x": float(rates.x[-1]),
    })
    return EXIT_OK


def _cmd_long_rate(args, doc) -> int:
    model = cfg.parse_model(doc)
    grid = cfg.parse_grid(doc)
    t = cfg.require_time(cfg.parse_times(doc), "t")
    taus, quantity = cfg.parse_schedule(doc, grid.regime)
    tolerances = cfg.parse_tolerances(doc)
    method = tolerances["method"]
    if args.method is not None:
        method = ExtractionMethod(args.method)
    tol = tolerances["extraction_tol"]
    if args.tol is not None:
        if args.tol < 0:
            raise cfg.ConfigError("--tol must be non-negative")
        tol = args.tol
    _, rates = build_curves(model, None, t, t + taus, grid.regime)
    values = rates.x if quantity == "x" else rates.zero
    est = extract_long_rate(np.column_stack([taus, values]), method, tol)
    rows = [("extracted", quantity, est.method.value, est.value, est.residual,
             est.T_used, est.converged)]
    summary = {
        "command": "long-rate",
        "model": model_label(model),
        "regime": grid.regime.value,
        "t": t,
        "quantity": quantity,
        "method": est.method.value,
        "tol": tol,
        "value": est.value,
        "residual": est.residual,
        "T_used": est.T_used,
        "converged": bool(est.converged),
    }
    if isinstance(model, MarkovChain):
        spectral = perron_long_rate(model)
        spectral_value = spectral.value
        if quantity == "zero":
            spectral_value = long_zero_from_x(spectral.value, grid.regime)
        rows.append(("spectral", quantity, "spectral", spectral_value,
                     spectral.residual, 0.0, True))
        summary["spectral_value"] = spectral_value
        summary["spectral_gap"] = abs(est.value - spectral_value)
    write_csv(
        args.out / "long_rate.csv",
        ("source", "quantity", "method", "value", "residual", "T_used",
         "converged"),
        rows,
    )
    dump_json(args.out / "summary.json", summary)
    return EXIT_OK


def _cmd_verify_measure(args, doc) -> int:
    model = cfg.parse_model(doc)
    grid = cfg.parse_grid(doc)
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
    write_csv(
        args.out / "measure.csv",
        ("s", "t", "T", "lhs", "rhs", "gap", "se"),
        [(report.s, report.t, report.T, report.lhs, report.rhs, report.gap,
          report.se)],
    )
    dump_json(args.out / "summary.json", {
        "command": "verify-measure",
        "model": model_label(model),
        "regime": grid.regime.value,
        "s": s,
        "t": t,
        "T": T,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "gap": report.gap,
        "se": report.se,
        "n": report.n,
        "exact": report.exact,
        "k_sigma": tolerances["k_sigma"],
        "exact_tol": tolerances["exact_tol"],
        "passed": passed,
    })
    return EXIT_OK if passed else EXIT_VERIFY


def _cmd_verify_dir(args, doc) -> int:
    model = cfg.parse_model(doc)
    grid = cfg.parse_grid(doc)
    times = cfg.parse_times(doc)
    s = cfg.require_time(times, "s")
    t = cfg.require_time(times, "t")
    taus, _ = cfg.parse_schedule(doc, grid.regime)
    n_paths, seed = _mc_params(args, doc)
    tolerances = cfg.parse_tolerances(doc)
    report = verify_dir(
        model, s, t, taus, n_paths, seed, grid.regime,
        method=tolerances["method"],
        epsilon_multiplier=tolerances["epsilon_multiplier"],
        tol=tolerances["extraction_tol"],
    )
    flagged = np.zeros(report.n_paths, dtype=bool)
    flagged[report.violation_indices] = True
    rows = [
        (k, report.x_s[k], report.x_t[k], report.residual_s[k],
         report.residual_t[k], report.epsilon[k], bool(flagged[k]))
        for k in range(report.n_paths)
    ]
    write_csv(
        args.out / "report.csv",
        ("path", "x_s", "x_t", "residual_s", "residual_t", "epsilon",
         "violation"),
        rows,
    )
    summary = {
        "command": "verify-dir",
        "model": report.model_id,
        "regime": grid.regime.value,
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
    }
    if report.spectral_value is not None:
        summary["spectral_value"] = report.spectral_value
        summary["spectral_gap"] = report.spectral_gap
    dump_json(args.out / "summary.json", summary)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_lemma_lab(args, doc) -> int:
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
    rows = []
    for k, n in enumerate(report.n_schedule):
        for atom in range(space.n_atoms):
            rows.append((n, atom, report.norms[k, atom],
                         report.limit_values[atom],
                         bool(report.atom_ok[atom])))
    write_csv(
        args.out / "trace.csv",
        ("n", "atom", "norm", "limit", "verdict"),
        rows,
    )
    dump_json(args.out / "summary.json", {
        "command": "lemma-lab",
        "n_atoms": space.n_atoms,
        "n_cells": partition.n_cells,
        "n_schedule": list(report.n_schedule),
        "tol": report.tol,
        "liminf_proxy": [float(v) for v in report.liminf_proxy],
        "limit": [float(v) for v in report.limit_values],
        "deviations": [float(v) for v in report.deviations],
        "converged": report.converged,
        "all_pass": report.all_pass,
    })
    return EXIT_OK if report.all_pass else EXIT_VERIFY


_HANDLERS = {
    "simulate": _cmd_simulate,
    "price": _cmd_price,
    "curve": _cmd_curve,
    "long-rate": _cmd_long_rate,
    "verify-measure": _cmd_verify_measure,
    "verify-dir": _cmd_verify_dir,
    "lemma-lab": _cmd_lemma_lab,
}
