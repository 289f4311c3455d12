"""Line-based experiment configuration: ``[section]`` headers, ``key = value``.

Unknown sections, unknown keys, duplicate keys, and type errors are all
collected and reported together with their line numbers.
"""

from __future__ import annotations

import math
from typing import Any

from .core import PdeSpec, unsigned_seed, value_type
from .micro import SdeModel
from .patch import LIFTING_VARIANTS

__all__ = []

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid configuration; message lists every violation found."""


@value_type
class _Param:
    name: str
    kind: str            # a key of _KINDS
    default: Any = _REQUIRED
    choices: tuple[str, ...] | None = None


# the tables behind the schema's choices, in its order
# drift -> SdeModel factory of (ou_rate, noise_amplitude)
DRIFTS = {
    "zero": lambda rate, noise_amplitude: SdeModel.pure_noise(noise_amplitude),
    "ou": SdeModel.ornstein_uhlenbeck,
}
# pde -> (PdeSpec factory, default dt_ratio, default final_time)
PATCH_PDES = {
    "heat": (PdeSpec.heat, 0.4, 0.5),
    "advection": (PdeSpec.advection, 0.5, 0.5),
    "biharmonic": (PdeSpec.biharmonic, 0.0375, 0.005),
}
STABILITY_CODES = {"stable": 0, "marginal": 1, "unstable": 2}
# order-detect target other than "adversarial" -> (default d_max, PDE factory)
TARGET_PDES = {
    "heat": (2, PdeSpec.heat),
    "advection": (2, PdeSpec.advection),
    "biharmonic_d4": (4, PdeSpec.biharmonic),
    "biharmonic_d2": (2, PdeSpec.biharmonic),
}

# experiment -> (help line, parameters)
_SCHEMAS: dict[str, tuple[str, tuple[_Param, ...]]] = {
    "projective": ("coarse projective integration of a scalar SDE", (
        _Param("ensemble_size", "int", 10),
        _Param("micro_steps", "int", 10),
        _Param("dt_micro", "float", 1e-3),
        _Param("dt_macro", "float", 0.1),
        _Param("alpha", "float", 0.0),
        _Param("n_steps", "int", 10000),
        _Param("drift", "str", "zero", choices=tuple(DRIFTS)),
        _Param("ou_rate", "float", 1.0),
        _Param("noise_amplitude", "float", 1.0),
        _Param("x0", "float", 0.0),
        _Param("tolerance_fraction", "float", 0.1),
    )),
    "patch": ("gap-tooth stability probe and grid convergence study", (
        _Param("pde", "str", choices=tuple(PATCH_PDES)),
        _Param("coefficient", "float", 1.0),
        _Param("lifting", "str", choices=tuple(LIFTING_VARIANTS)),
        _Param("n_points", "int", 64),
        _Param("h_fraction", "float", 0.2),
        _Param("dt_ratio", "float", 0.0),
        _Param("dt_micro_factor", "float", 1e-3),
        _Param("alpha", "float", 0.0),
        _Param("probe_steps", "int", 400),
        _Param("grids", "int_list", ()),
        _Param("final_time", "float", 0.0),
        _Param("expect_stability", "str", "", choices=("", *STABILITY_CODES)),
        _Param("expect_order", "float", math.nan),
        _Param("order_tolerance", "float", 0.3),
    )),
    "order-detect": ("black-box spatial order detection", (
        _Param("target", "str", choices=(*TARGET_PDES, "adversarial")),
        _Param("dt_micro", "float", 1e-3),
        _Param("h", "float", 0.1),
        _Param("d_max", "int", 0),
        _Param("n_base", "int", 8),
        _Param("n_perturb", "int", 1024),
        _Param("halfwidth", "float", 1.0),
        _Param("stop_after", "int", 0),
        _Param("budget", "int", 0),
        _Param("expected_order", "int", -1),
    )),
    "kp": ("particle-in-random-field displacement exponents", (
        _Param("deltas", "float_list"),
        _Param("gamma_bands", "band_list", ()),
        _Param("n_trajectories", "int", 24),
        _Param("n_modes", "int", 256),
        _Param("spectrum", "float", 0.0),
        _Param("x0", "float", 0.0),
        _Param("v0", "float", 1.0),
        _Param("total_time", "float", 0.008),
        _Param("dt_scale", "float", 1e-3),
        _Param("n_samples", "int", 400),
        _Param("fit_lag_lo", "float", 1e-4),
        _Param("fit_lag_hi", "float", 1e-3),
        _Param("n_lags", "int", 10),
        _Param("calibrate", "bool", True),
        _Param("validate_dt", "bool", True),
    )),
}

# experiment -> its help line
EXPERIMENTS = {name: help_line for name, (help_line, _) in _SCHEMAS.items()}


@value_type
class ExperimentConfig:
    experiment: str
    parameters: dict[str, Any]
    seed: int = 0
    output: str = ""

    def output_dir(self) -> str:
        return self.output or f"{self.experiment.replace('-', '_')}_out"


def _boolean(raw: str) -> bool:
    if raw.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"not a boolean: {raw!r}")
    return raw.lower() in ("true", "yes", "1")


def _band(tok: str) -> tuple[float, float]:
    lo, _, hi = tok.strip().partition(":")
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"band {tok.strip()!r} needs finite ends")
    if not lo < hi:
        raise ValueError(f"band {tok.strip()!r} needs lo < hi")
    return lo, hi


def _items(parse):
    """Parser of a comma-separated list, each non-blank item read by ``parse``."""
    return lambda raw: tuple(parse(tok) for tok in raw.split(",") if tok.strip())


# kind -> (parse a value's stripped text, render a value as text that parses back)
_KINDS = {
    "int": (int, str),
    "float": (float, lambda value: repr(float(value))),
    "bool": (_boolean, lambda value: "true" if value else "false"),
    "str": (str, str),
    "int_list": (_items(int), lambda values: ", ".join(map(str, values))),
    "float_list": (_items(float), lambda values: ", ".join(map(repr, values))),
    "band_list": (_items(_band), lambda values: ", ".join(f"{lo!r}:{hi!r}" for lo, hi in values)),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document; collect all violations before raising."""
    errors: list[str] = []
    section = None
    # section -> key -> (line number, raw value)
    entries: dict[str, dict[str, tuple[int, str]]] = {"experiment": {}, "parameters": {}}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in entries:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside of a known section")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in entries[section]:
            first = entries[section][key][0]
            errors.append(f"line {lineno}: duplicate key {key!r} (first seen on line {first})")
            continue
        entries[section][key] = (lineno, raw.strip())

    name = None
    seed = 0
    output = ""
    for key, (lineno, raw) in entries["experiment"].items():
        if key == "name":
            name = raw
        elif key == "seed":
            try:
                seed = unsigned_seed(raw, "seed")
            except ValueError as err:
                errors.append(f"line {lineno}: {err}")
        elif key == "output":
            output = raw
        else:
            errors.append(f"line {lineno}: unknown key {key!r} in [experiment]")

    if name is None:
        errors.append("missing required key 'name' in [experiment]")
        raise ConfigError("; ".join(errors))
    if name not in _SCHEMAS:
        errors.append(f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENTS)}")
        raise ConfigError("; ".join(errors))

    params = _SCHEMAS[name][1]
    schema = {p.name: p for p in params}
    parameters: dict[str, Any] = {}
    for key, (lineno, raw) in entries["parameters"].items():
        param = schema.get(key)
        if param is None:
            errors.append(f"line {lineno}: unknown key {key!r} for experiment {name!r}")
            continue
        try:
            value = _KINDS[param.kind][0](raw)
        except ValueError as err:
            errors.append(f"line {lineno}: bad value for {key!r}: {err}")
            continue
        if param.choices is not None and value not in param.choices:
            errors.append(
                f"line {lineno}: {key!r} must be one of {', '.join(map(repr, param.choices))}"
            )
            continue
        if value == () and param.default is _REQUIRED:
            errors.append(f"line {lineno}: {key!r} needs at least one value")
        parameters[key] = value

    for param in params:
        if param.name not in entries["parameters"]:
            if param.default is _REQUIRED:
                errors.append(f"missing required key {param.name!r} in [parameters]")
            else:
                parameters[param.name] = param.default

    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(experiment=name, parameters=parameters, seed=seed, output=output)


def render_config(config: ExperimentConfig) -> str:
    """Effective configuration (defaults filled in), reparseable."""
    lines = [
        "[experiment]",
        f"name = {config.experiment}",
        f"seed = {config.seed}",
        f"output = {config.output}",
        "",
        "[parameters]",
    ]
    for param in _SCHEMAS[config.experiment][1]:
        lines.append(f"{param.name} = {_KINDS[param.kind][1](config.parameters[param.name])}")
    return "\n".join(lines) + "\n"
