"""INI-style run configuration.

One [model] section holds the physical parameters; each CLI command reads
its own section for numerical knobs.  Unknown sections, unknown keys, and
malformed values are reported by name with a nonzero exit, never guessed.
The errors a run ends with (exit 2, 3 and 4) live here, so the CLI maps
them to exit codes without loading numpy or a solver module.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import fields
from enum import Enum

from .params import ModelParams


class ConfigError(Exception):
    """Malformed or unknown configuration input."""


class ResourceLimitError(Exception):
    """A run would need more memory than its budget allows."""


class IterationError(Exception):
    """A solve did not reach its residual bound, or gave a non-finite
    eigenvalue."""

    def __init__(self, message, eigenvalues=None, residuals=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


#: each domain of a command section's key: its wording, and its test (nan fails each)
DOMAINS = {
    "positive": lambda x: x > 0,
    "nonnegative": lambda x: x >= 0,
    "nonnegative and finite": lambda x: 0 <= x < math.inf,
    "finite": lambda x: -math.inf < x < math.inf,
    "at least 1": lambda x: x >= 1,
    "at least 2": lambda x: x >= 2,
    "an integer": lambda x: x // 1 == x,
    "three integers": lambda v: len(v) == 3 and all(x // 1 == x for x in v),
    "finite numbers": lambda v: v is None or all(-math.inf < x < math.inf for x in v),
    "true or false": lambda x: isinstance(x, bool),
    "text": lambda x: isinstance(x, str),
    "in (0, 0.5]": lambda x: 0 < x <= 0.5,
    "auto, dense or iterative": lambda x: x in ("auto", "dense", "iterative"),
    "1 or 3": lambda x: x in (1, 3),
    "none or straddle": lambda x: x in ("none", "straddle"),
    "sigma, rate or both": lambda x: x in ("sigma", "rate", "both"),
}

_SOLVER = {"method": ("auto", "auto, dense or iterative"), "k": (8, "at least 1"),
           "tol": (1e-10, "positive"), "seed": (0, "nonnegative")}

#: each command section's keys as (default, domain); a value is parsed by its
#: default's type (see _parser) and refused outside its domain (see check)
SETTINGS: dict[str, dict[str, tuple]] = {
    "solve1d": {"total_momentum": (0, "an integer"), "scar_levels": (3, "at least 1"),
                "gap_threshold": (2.0, "nonnegative and finite"), **_SOLVER,
                "dump_matrix": (False, "true or false")},
    "solve3d": {"total_momentum": ([0, 0, 0], "three integers"), **_SOLVER},
    "analyze": {"select": ("band:1:top", "text"), "n_r": (128, "at least 1"),
                "n_eta": (128, "at least 1"), "strip_fraction": (0.0625, "in (0, 0.5]"),
                "times_max": (0.0, "nonnegative and finite"), "n_times": (512, "at least 1"),
                "broadening": (0.0, "nonnegative and finite"), "n_radial": (48, "at least 2")},
    "orbit": {"dimension": (1, "1 or 3"), "initial": (None, "finite numbers"),
              "dt": (0.0, "nonnegative and finite"), "steps": (10000, "at least 1"),
              "wrap": (True, "true or false"), "store_every": (1, "at least 1"),
              "singularity_tol": (0.0, "nonnegative and finite"), "spread": (0.15, "finite"),
              "ensemble": ("none", "none or straddle"), "n_orbits": (8, "at least 1")},
    "estimate": {"n_levels": (3, "at least 1"),
                 "convention": ("both", "sigma, rate or both")},
}

#: every INI key by section, with its default; [model] holds ModelParams' fields.
DEFAULTS: dict[str, dict] = {"model": {f.name: f.default for f in fields(ModelParams)}}
DEFAULTS.update({name: {k: v[0] for k, v in sec.items()} for name, sec in SETTINGS.items()})


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
    """The [name] section merged over its DEFAULTS, each key in its domain."""
    return check(name, **{**DEFAULTS[name], **cfg.get(name, {})})


def check(name: str, **values) -> dict:
    """values, keys of [name], each refused unless in its domain in SETTINGS."""
    for key, value in values.items():
        must = SETTINGS[name][key][1]
        require(DOMAINS[must](value), name, key, value, must)
    return values


def require(ok: bool, name: str, key: str, value, must: str) -> None:
    """Refuse the value of [name] key, saying what it must be, unless ok.
    Callers write ok as `x > 0` and the like, so that nan fails it."""
    if not ok:
        raise ConfigError(f"bad value for [{name}] {key}: {value} (must be {must})")
