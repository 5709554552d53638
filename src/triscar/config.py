"""INI-style run configuration.

One [model] section holds the physical parameters; each CLI command reads
its own section for numerical knobs.  Unknown sections, unknown keys, and
malformed values are reported by name with a nonzero exit, never guessed.
"""

from __future__ import annotations

import configparser
import os

from .params import LightCutoffMode, ModelParams, Scaling


class ConfigError(Exception):
    """Malformed or unknown configuration input."""


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


_PARSERS = {
    "int": int,
    "float": float,
    "str": str.strip,
    "bool": _parse_bool,
    "floats": _parse_floats,
    "ints": _parse_ints,
}

SCHEMAS: dict[str, dict[str, str]] = {
    "model": {
        "gamma": "float",
        "box_length": "float",
        "coupling": "float",
        "heavy_cutoff": "int",
        "cutoff_sq": "int",
        "scaling": "str",
        "light_cutoff_mode": "str",
    },
    "solve1d": {
        "total_momentum": "int",
        "gap_threshold": "float",
        "method": "str",
        "k": "int",
        "tol": "float",
        "seed": "int",
        "dump_matrix": "bool",
        "scar_levels": "int",
    },
    "solve3d": {
        "total_momentum": "ints",
        "method": "str",
        "k": "int",
        "tol": "float",
        "seed": "int",
    },
    "analyze": {
        "select": "str",
        "n_r": "int",
        "n_eta": "int",
        "strip_fraction": "float",
        "times_max": "float",
        "n_times": "int",
        "broadening": "float",
        "n_radial": "int",
    },
    "orbit": {
        "dimension": "int",
        "initial": "floats",
        "dt": "float",
        "steps": "int",
        "wrap": "bool",
        "singularity_tol": "float",
        "ensemble": "str",
        "n_orbits": "int",
        "spread": "float",
        "store_every": "int",
    },
    "estimate": {
        "n_levels": "int",
        "convention": "str",
    },
    "report": {},
}


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
        if section not in SCHEMAS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        schema = SCHEMAS[section]
        values = {}
        for key, raw in cp[section].items():
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            parser = _PARSERS[schema[key]]
            try:
                values[key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {exc}") from exc
        out[section] = values
    return out


def model_params(cfg: dict) -> ModelParams:
    """Build ModelParams from the [model] section, falling back to defaults."""
    sec = dict(cfg.get("model", {}))
    if "scaling" in sec:
        try:
            sec["scaling"] = Scaling(sec["scaling"])
        except ValueError:
            raise ConfigError(
                f"bad value for [model] scaling: {sec['scaling']!r} "
                f"(use 'raw' or 'multiplied-by-L')") from None
    if "light_cutoff_mode" in sec:
        try:
            sec["light_cutoff_mode"] = LightCutoffMode(sec["light_cutoff_mode"])
        except ValueError:
            raise ConfigError(
                f"bad value for [model] light_cutoff_mode: "
                f"{sec['light_cutoff_mode']!r} (use 'derived' or "
                f"'product-filter')") from None
    try:
        return ModelParams(**sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [model] section: {exc}") from exc


def section(cfg: dict, name: str, defaults: dict) -> dict:
    """Merge a config section over command defaults."""
    merged = dict(defaults)
    merged.update(cfg.get(name, {}))
    return merged
