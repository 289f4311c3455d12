"""Line-based experiment configuration: ``[section]`` headers, ``key = value``.

Each experiment's keys are the parameters of its row in
``runner.EXPERIMENTS``.  Unknown sections, unknown keys, duplicate keys, and
type errors are all collected and reported together with their line numbers.
"""

from __future__ import annotations

import math
from typing import Any

from .core import unsigned_seed, value_type
from .runner import EXPERIMENTS

__all__ = []


class ConfigError(ValueError):
    """Invalid configuration; message lists every violation found."""


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
    if name not in EXPERIMENTS:
        errors.append(f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENTS)}")
        raise ConfigError("; ".join(errors))

    params = EXPERIMENTS[name][1]
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
        if value == () and param.default is None:
            errors.append(f"line {lineno}: {key!r} needs at least one value")
        parameters[key] = value

    for param in params:
        if param.name not in entries["parameters"]:
            if param.default is None:
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
    for param in EXPERIMENTS[config.experiment][1]:
        lines.append(f"{param.name} = {_KINDS[param.kind][1](config.parameters[param.name])}")
    return "\n".join(lines) + "\n"
