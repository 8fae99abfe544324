"""JSON run configurations with field-precise validation errors.

A run is described by one JSON document with sections. Model-driven commands
use `model`, `grid`, `times`, `schedule`, `mc`, and `tolerances`; the finite
probability laboratory uses `space`, `partition`, `rv`, `sequence`,
`schedule`, and `tolerances`. Every parse failure raises :class:`ConfigError`
naming the offending section and field.

The extraction methods and `NonConvergenceError` live here, so that the CLI
can name and catch them without loading a model layer; the model and
finite-space types are imported by the parse functions that build them.
"""

from __future__ import annotations

import json
import sys
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .finiteprob import FiniteProbSpace, Partition, Rv
    from .models import ModelSpec, Regime, TimeGrid

__all__ = [
    "ConfigError",
    "NonConvergenceError",
    "ExtractionMethod",
    "load_config",
    "parse_model",
    "parse_grid",
    "parse_times",
    "require_time",
    "parse_schedule",
    "parse_mc",
    "parse_tolerances",
    "parse_space",
    "parse_partition",
    "parse_rv",
    "parse_sequence",
    "parse_n_schedule",
]


class ConfigError(Exception):
    """A configuration file is missing, malformed, or inconsistent."""


class NonConvergenceError(RuntimeError):
    """A long rate did not converge: tail extractions did not stabilize, so
    the maturity schedule is too short, or Perron squaring did not meet its
    tolerance within its budget of squarings."""


class ExtractionMethod(Enum):
    PLAIN_TAIL = "plain_tail"
    RECIPROCAL_EXTRAPOLATION = "reciprocal_extrapolation"
    SPECTRAL = "spectral"


# the methods that read a long rate off curve values, by config name
_METHODS = {m.value: m for m in ExtractionMethod if m is not ExtractionMethod.SPECTRAL}
# times to maturity that a tail extraction needs at least
_MIN_TAUS = 4


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _section(doc: dict, name: str, required: bool = True) -> dict | None:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"missing section '{name}'")
        return None
    if not isinstance(sec, dict):
        raise ConfigError(f"section '{name}' must be an object")
    return sec


def _field(sec: dict, ctx: str, key: str, required=True, default=None):
    if key not in sec:
        if required:
            raise ConfigError(f"{ctx}.{key} is required")
        return default
    return sec[key]


def _number(sec, ctx, key, required=True, default=None) -> float | None:
    value = _field(sec, ctx, key, required, default)
    if value is None:
        return None
    return _finite(value, f"{ctx}.{key} must be a finite number")


def _finite(value, message: str) -> float:
    """A JSON number as a float. NaN, Infinity, 1e999 (all read by json)
    and integers past the float range fail the comparison."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(message)
    return float(value)


def _integer(sec, ctx, key, required=True, default=None) -> int | None:
    value = _field(sec, ctx, key, required, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{ctx}.{key} must be an integer")
    return int(value)


def _number_list(sec, ctx, key) -> list[float]:
    value = _field(sec, ctx, key)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{ctx}.{key} must be a non-empty list of numbers")
    message = f"{ctx}.{key} must contain only finite numbers"
    return [_finite(v, message) for v in value]


def parse_model(doc: dict) -> ModelSpec:
    from .models import ConstantRate, MarkovChain, PoissonJump

    sec = _section(doc, "model")
    kind = _field(sec, "model", "kind")
    try:
        if kind == "constant":
            return ConstantRate(_number(sec, "model", "rate"))
        if kind == "poisson_jump":
            return PoissonJump(
                _number(sec, "model", "r0"),
                _number(sec, "model", "delta"),
                _number(sec, "model", "lambda"),
            )
        if kind == "markov_chain":
            rates = _number_list(sec, "model", "state_rates")
            transition = _field(sec, "model", "transition")
            if not isinstance(transition, list):
                raise ConfigError("model.transition must be a list of rows")
            initial = _integer(sec, "model", "initial_state", required=False, default=0)
            return MarkovChain(rates, transition, initial)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    raise ConfigError(
        "model.kind must be one of: constant, poisson_jump, markov_chain"
    )


def parse_grid(doc: dict) -> TimeGrid:
    from .models import Regime, TimeGrid

    sec = _section(doc, "grid")
    regime_name = _field(sec, "grid", "regime")
    try:
        regime = Regime(regime_name)
    except ValueError as exc:
        raise ConfigError("grid.regime must be 'discrete' or 'continuous'") from exc
    horizon = _number(sec, "grid", "horizon")
    step = _number(sec, "grid", "output_step", required=False)
    try:
        return TimeGrid(regime, horizon, step)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def parse_times(doc: dict) -> dict[str, float]:
    sec = _section(doc, "times")
    return {
        str(key): _finite(value, f"times.{key} must be a finite number")
        for key, value in sec.items()
    }


def require_time(times: dict[str, float], key: str) -> float:
    if key not in times:
        raise ConfigError(f"times.{key} is required for this command")
    return times[key]


def parse_schedule(
    doc: dict, regime: Regime, *, extract: bool = False
) -> tuple[np.ndarray, str]:
    """Times to maturity plus the curve quantity they index ('x' or 'zero').

    A schedule that a long rate is extracted from (extract=True) needs at
    least 4 maturities.
    """
    from .models import Regime

    sec = _section(doc, "schedule")
    taus = np.asarray(_number_list(sec, "schedule", "taus"), dtype=float)
    if extract and taus.size < _MIN_TAUS:
        raise ConfigError(
            f"schedule.taus needs at least {_MIN_TAUS} maturities to extract "
            "a long rate"
        )
    if np.any(taus <= 0) or np.any(np.diff(taus) <= 0):
        raise ConfigError("schedule.taus must be positive and strictly increasing")
    if regime is Regime.DISCRETE and np.any(taus != np.round(taus)):
        raise ConfigError("schedule.taus must be integers in the discrete regime")
    quantity = _field(sec, "schedule", "quantity", required=False, default="x")
    if quantity not in ("x", "zero"):
        raise ConfigError("schedule.quantity must be 'x' or 'zero'")
    return taus, quantity


def parse_mc(doc: dict) -> tuple[int, int]:
    sec = _section(doc, "mc")
    n_paths = _integer(sec, "mc", "n_paths")
    seed = _integer(sec, "mc", "seed")
    if n_paths < 1:
        raise ConfigError("mc.n_paths must be at least 1")
    if seed < 0:
        raise ConfigError("mc.seed must be a non-negative integer")
    return n_paths, seed


def parse_tolerances(doc: dict) -> dict:
    """Tolerance block with defaults filled in; `tol` has no default."""
    sec = _section(doc, "tolerances", required=False) or {}
    ctx = "tolerances"
    out = {
        "extraction_tol": _number(sec, ctx, "extraction_tol", False, 1e-4),
        "epsilon_multiplier": _number(sec, ctx, "epsilon_multiplier", False, 3.0),
        "k_sigma": _number(sec, ctx, "k_sigma", False, 3.0),
        "exact_tol": _number(sec, ctx, "exact_tol", False, 1e-12),
        "tol": _number(sec, ctx, "tol", False, None),
    }
    if out["extraction_tol"] < 0:
        raise ConfigError("tolerances.extraction_tol must be non-negative")
    if out["epsilon_multiplier"] <= 0:
        raise ConfigError("tolerances.epsilon_multiplier must be positive")
    if out["k_sigma"] <= 0:
        raise ConfigError("tolerances.k_sigma must be positive")
    method_name = _field(sec, ctx, "method", required=False,
                         default="reciprocal_extrapolation")
    if method_name not in _METHODS:
        names = " or ".join(f"'{name}'" for name in _METHODS)
        raise ConfigError(f"tolerances.method must be {names}")
    out["method"] = _METHODS[method_name]
    return out


def parse_space(doc: dict) -> FiniteProbSpace:
    from .finiteprob import FiniteProbSpace

    sec = _section(doc, "space")
    probs = _number_list(sec, "space", "atom_probs")
    try:
        return FiniteProbSpace(probs)
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from exc


def parse_partition(doc: dict, space: FiniteProbSpace) -> Partition:
    sec = _section(doc, "partition")
    cells = _field(sec, "partition", "cells")
    if not isinstance(cells, list) or not all(isinstance(c, list) for c in cells):
        raise ConfigError("partition.cells must be a list of lists of atom indices")
    try:
        return space.partition(cells)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"partition: {exc}") from exc


def parse_rv(doc: dict, space: FiniteProbSpace, name: str = "rv") -> Rv:
    sec = _section(doc, name)
    values = _number_list(sec, name, "values")
    try:
        return space.rv(values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_sequence(
    doc: dict, space: FiniteProbSpace, limit: Rv
) -> Callable[[int], Rv]:
    """Approximating sequence X_n with the configured limit.

    'constant' repeats the limit; 'scaled' approaches it from below as
    (1 - c/n) * limit, which exercises genuinely moving sequences.
    """
    sec = _section(doc, "sequence")
    kind = _field(sec, "sequence", "kind")
    if kind == "constant":
        return lambda n: limit
    if kind == "scaled":
        c = _number(sec, "sequence", "c", required=False, default=1.0)
        if c < 0:
            raise ConfigError("sequence.c must be non-negative")

        def scaled(n: int) -> Rv:
            factor = max(0.0, 1.0 - c / n)
            return space.rv(limit.values * factor)

        return scaled
    raise ConfigError("sequence.kind must be 'constant' or 'scaled'")


def parse_n_schedule(doc: dict) -> list[int]:
    sec = _section(doc, "schedule")
    values = _field(sec, "schedule", "n")
    if not isinstance(values, list) or not values:
        raise ConfigError("schedule.n must be a non-empty list of integers")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError("schedule.n must contain only integers")
        out.append(v)
    return out
