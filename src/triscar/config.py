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

from .params import LightCutoffMode, ModelParams, Scaling


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


def _box_coefficients_finite(L) -> bool:
    """Whether the models' kinetic coefficients (2 pi / L)^2 and pi / L^2 and
    the classical force's 2 pi^2 / L^3 are finite and positive, so L is too.
    A power that overflows raises, and so does one over a power that
    underflows to 0, but a subnormal L^3 makes 2 pi^2 / L^3 inf silently, so
    the values are tested too."""
    try:
        coefficients = ((2 * math.pi / L) ** 2, math.pi / L ** 2, 2 * math.pi ** 2 / L ** 3)
    except (OverflowError, ZeroDivisionError):
        return False
    return all(0 < c < math.inf for c in coefficients)


#: each domain of a key: its wording, and its test (nan fails each)
DOMAINS = {
    "positive": lambda x: x > 0,
    "positive and finite": lambda x: 0 < x < math.inf,
    "positive and finite, with (2π/L)², π/L² and 2π²/L³ finite and nonzero":
        _box_coefficients_finite,
    "nonnegative and finite": lambda x: 0 <= x < math.inf,
    "finite": lambda x: -math.inf < x < math.inf,
    # an int or numpy integer, not an integral float, which np.arange,
    # math.isqrt and ARPACK would take as a float
    "an integer": lambda x: hasattr(x, "__index__"),
    "a nonnegative integer": lambda x: hasattr(x, "__index__") and x >= 0,
    "an integer, at least 1": lambda x: hasattr(x, "__index__") and x >= 1,
    "an integer, at least 2": lambda x: hasattr(x, "__index__") and x >= 2,
    "three integers": lambda v: len(v) == 3 and all(hasattr(x, "__index__") for x in v),
    "finite numbers": lambda v: v is None or all(-math.inf < x < math.inf for x in v),
    "true or false": lambda x: isinstance(x, bool),
    "text": lambda x: isinstance(x, str),
    "in (0, 0.5]": lambda x: 0 < x <= 0.5,
    "auto, dense or iterative": lambda x: x in ("auto", "dense", "iterative"),
    "1 or 3": lambda x: x in (1, 3),
    "none or straddle": lambda x: x in ("none", "straddle"),
    "sigma, rate or both": lambda x: x in ("sigma", "rate", "both"),
    # an Enum key's member, or its value as INI files and archives give it
    "raw or multiplied-by-L": lambda x: x in (*Scaling, "raw", "multiplied-by-L"),
    "derived or product-filter":
        lambda x: x in (*LightCutoffMode, "derived", "product-filter"),
}

#: the domain of each [model] key, a field of ModelParams, which holds its default
_MODEL_DOMAINS = {
    "gamma": "positive and finite",
    "box_length": "positive and finite, with (2π/L)², π/L² and 2π²/L³ finite and nonzero",
    "coupling": "nonnegative and finite", "heavy_cutoff": "a nonnegative integer",
    "cutoff_sq": "a nonnegative integer", "scaling": "raw or multiplied-by-L",
    "light_cutoff_mode": "derived or product-filter"}

_AT_LEAST_1, _AT_LEAST_2 = "an integer, at least 1", "an integer, at least 2"

_SOLVER = {"method": ("auto", "auto, dense or iterative"), "k": (8, _AT_LEAST_1),
           "tol": (1e-10, "positive"), "seed": (0, "a nonnegative integer")}

#: each section's keys as (default, domain); a value is parsed by its
#: default's type (see _parser) and refused outside its domain (see check)
SETTINGS: dict[str, dict[str, tuple]] = {
    "model": {f.name: (f.default, _MODEL_DOMAINS[f.name]) for f in fields(ModelParams)},
    "solve1d": {"total_momentum": (0, "an integer"), "scar_levels": (3, _AT_LEAST_1),
                "gap_threshold": (2.0, "nonnegative and finite"), **_SOLVER,
                "dump_matrix": (False, "true or false")},
    "solve3d": {"total_momentum": ([0, 0, 0], "three integers"), **_SOLVER},
    "analyze": {"select": ("band:1:top", "text"), "n_r": (128, _AT_LEAST_1),
                "n_eta": (128, _AT_LEAST_1), "strip_fraction": (0.0625, "in (0, 0.5]"),
                "times_max": (0.0, "nonnegative and finite"), "n_times": (512, _AT_LEAST_1),
                "broadening": (0.0, "nonnegative and finite"), "n_radial": (48, _AT_LEAST_2)},
    "orbit": {"dimension": (1, "1 or 3"), "initial": (None, "finite numbers"),
              "dt": (0.0, "nonnegative and finite"), "steps": (10000, _AT_LEAST_1),
              "wrap": (True, "true or false"), "store_every": (1, _AT_LEAST_1),
              "singularity_tol": (0.0, "nonnegative and finite"), "spread": (0.15, "finite"),
              "ensemble": ("none", "none or straddle"), "n_orbits": (8, _AT_LEAST_1)},
    "estimate": {"n_levels": (3, _AT_LEAST_1),
                 "convention": ("both", "sigma, rate or both")},
}

#: every INI key by section, with its default
DEFAULTS: dict[str, dict] = {name: {k: v[0] for k, v in sec.items()}
                             for name, sec in SETTINGS.items()}


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
    ModelParams refuses a value out of its domain."""
    return ModelParams(**cfg.get("model", {}))


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
