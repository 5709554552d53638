"""INI-style run configuration.

One [model] section holds the physical parameters; each CLI command reads
its own section for numerical knobs.  Unknown sections, unknown keys, and
malformed values are reported by name with a nonzero exit, never guessed.
The errors a run ends with (exit 2, 3 and 4) live here, so the CLI maps
them to exit codes without loading numpy or a solver module.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import fields
from enum import Enum

from .params import ModelParams


class ConfigError(Exception):
    """Malformed or unknown configuration input."""


class ResourceLimitError(Exception):
    """A run would need more memory than its budget allows."""


class IterationError(Exception):
    """Iterative solver did not reach its residual tolerance."""

    def __init__(self, message, eigenvalues=None, residuals=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


#: every INI key by section, with its default.  A value is parsed by its
#: default's type (see _parser); [model] holds ModelParams' fields.
DEFAULTS: dict[str, dict] = {
    "model": {f.name: f.default for f in fields(ModelParams)},
    "solve1d": {
        "total_momentum": 0, "gap_threshold": 2.0, "method": "auto", "k": 8,
        "tol": 1e-10, "seed": 0, "dump_matrix": False, "scar_levels": 3,
    },
    "solve3d": {
        "total_momentum": [0, 0, 0], "method": "auto", "k": 8, "tol": 1e-10,
        "seed": 0,
    },
    "analyze": {
        "select": "band:1:top", "n_r": 128, "n_eta": 128,
        "strip_fraction": 0.0625, "times_max": 0.0, "n_times": 512,
        "broadening": 0.0, "n_radial": 48,
    },
    "orbit": {
        "dimension": 1, "initial": None, "dt": 0.0, "steps": 10000,
        "wrap": True, "singularity_tol": 0.0, "ensemble": "none",
        "n_orbits": 8, "spread": 0.15, "store_every": 1,
    },
    "estimate": {"n_levels": 3, "convention": "both"},
}


def _parser(default):
    """The parser of a key with this default: bool, int and float by their
    type, a list as integers, None (a computed default) as floats, and
    anything else (text, an Enum's value) as stripped text."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, (int, float)):
        return type(default)
    if isinstance(default, list):
        return _parse_ints
    return _parse_floats if default is None else str.strip


def load_config(path: str | None) -> dict[str, dict]:
    """Parse and validate an INI file into {section: {key: typed value}}.

    path=None returns an empty configuration (all defaults apply).
    """
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    out: dict[str, dict] = {}
    for section in cp.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        defaults = DEFAULTS[section]
        values = {}
        for key, raw in cp[section].items():
            if key not in defaults:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                values[key] = _parser(defaults[key])(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {exc}") from exc
        out[section] = values
    return out


def model_params(cfg: dict) -> ModelParams:
    """Build ModelParams from the [model] section, falling back to defaults;
    an Enum field is given by its value."""
    sec = dict(cfg.get("model", {}))
    for key, default in DEFAULTS["model"].items():
        if isinstance(default, Enum) and key in sec:
            try:
                sec[key] = type(default)(sec[key])
            except ValueError:
                use = " or ".join(f"'{member.value}'" for member in type(default))
                raise ConfigError(f"bad value for [model] {key}: {sec[key]!r} "
                                  f"(use {use})") from None
    try:
        return ModelParams(**sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [model] section: {exc}") from exc


def params_dict(params: ModelParams) -> dict:
    """The model parameters as the [model] keys of a configuration; the
    inverse of model_params."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    return {key: value.value if isinstance(value, Enum) else value
            for key, value in values.items()}


def section(cfg: dict, name: str) -> dict:
    """The [name] section merged over its DEFAULTS."""
    return {**DEFAULTS[name], **cfg.get(name, {})}


def require(ok: bool, name: str, key: str, value, must: str) -> None:
    """Refuse the value of [name] key, saying what it must be, unless ok.
    Callers write ok as `x > 0` and the like, so that nan fails it."""
    if not ok:
        raise ConfigError(f"bad value for [{name}] {key}: {value} (must be {must})")
