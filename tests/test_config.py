"""The settings table: every key's default and domain, checked by
config.section, by the library entry points and by ModelParams, and
documented in the README's configuration reference."""

import math
import os
import re
from enum import Enum

import pytest

import triscar as ts
from triscar.config import (DEFAULTS, DOMAINS, SETTINGS, ConfigError, _parser, check,
                            section)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

SECTIONS = ["model", "solve1d", "solve3d", "analyze", "orbit", "estimate"]

#: the values every numeric key is tried with
PROBES = [0, -1, math.nan, math.inf]


def _numeric_keys():
    """(section, key, default) of every key whose default is a number, or a
    list of numbers ([solve3d] total_momentum, [orbit] initial)."""
    for name in SECTIONS:
        for key, (default, _) in SETTINGS[name].items():
            if default is None or isinstance(default, list) or (
                    isinstance(default, (int, float)) and not isinstance(default, bool)):
                yield name, key, default


def _with_first(default, value):
    """value in place of a number default, or of the first of a list's."""
    if default is None:
        return [value, 0.0, 0.0, 0.0]
    if isinstance(default, list):
        return [value] + default[1:]
    return value


def test_every_key_has_a_domain_from_the_vocabulary():
    """Each section's keys are the keys of SETTINGS, each with a
    domain DOMAINS can test; a DEFAULTS key without one fails here."""
    for name in SECTIONS:
        assert set(DEFAULTS[name]) == set(SETTINGS[name]), name
        for key, (default, domain) in SETTINGS[name].items():
            assert DEFAULTS[name][key] == default
            assert domain in DOMAINS, f"[{name}] {key}: {domain!r}"


@pytest.mark.parametrize("name", SECTIONS)
def test_every_default_lies_in_its_domain(name):
    assert section({}, name) == DEFAULTS[name]


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_every_domain_refuses_nan(domain):
    """A nan, or a list holding one, is in no domain."""
    ok = DOMAINS[domain]
    if domain in ("three integers", "finite numbers"):
        assert not ok([math.nan, 0, 0])
    else:
        assert not ok(math.nan)


@pytest.mark.parametrize("name, key, default",
                         list(_numeric_keys()),
                         ids=[f"{n}-{k}" for n, k, _ in _numeric_keys()])
@pytest.mark.parametrize("probe", PROBES, ids=["0", "-1", "nan", "inf"])
def test_numeric_keys_at_the_edges_are_refused_naming_the_key_or_kept(
        name, key, default, probe):
    """0, -1, nan and inf as each numeric key (or a list key's first
    number) either are refused by section() with the key and the domain
    named, or come back as given."""
    value = _with_first(default, probe)
    domain = SETTINGS[name][key][1]
    cfg = {name: {key: value}}
    if DOMAINS[domain](value):
        assert section(cfg, name)[key] is value
    else:
        with pytest.raises(ConfigError) as exc:
            section(cfg, name)
        assert str(exc.value) == (f"bad value for [{name}] {key}: {value} "
                                  f"(must be {domain})")


@pytest.mark.parametrize("name, key, value", [
    ("solve1d", "seed", -1), ("solve1d", "method", "fast"),
    ("solve3d", "total_momentum", [0, 0]), ("analyze", "n_times", 0),
    ("analyze", "strip_fraction", 0.9), ("orbit", "spread", math.nan),
    ("orbit", "ensemble", "fan"), ("estimate", "convention", "none")])
def test_check_refuses_a_keyword_out_of_its_domain(name, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"[{name}] {key}: {value} ")):
        check(name, **{key: value})


@pytest.mark.parametrize("call, key", [
    (lambda p: ts.solve_sector(p, 0, seed=-1), "[solve1d] seed"),
    (lambda p: ts.solve_sector(p, [0, 0], method="dense"), "[solve3d] total_momentum"),
    (lambda p: ts.run_orbits(p, dt=-1), "[orbit] dt"),
    (lambda p: ts.run_orbits(p, ensemble="straddle", spread=math.inf), "[orbit] spread"),
    (lambda p: ts.estimate(p, convention="sigmas"), "[estimate] convention"),
    (lambda p: ts.analyze_1d(None, [0], n_times=0), "[analyze] n_times"),
    (lambda p: ts.analyze_1d(None, [0], n_r=7), "[analyze] n_r"),
    (lambda p: ts.analyze_3d(None, 0, n_radial=1), "[analyze] n_radial"),
    (lambda p: ts.ModelParams(heavy_cutoff=math.inf), "[model] heavy_cutoff"),
    (lambda p: ts.ModelParams(cutoff_sq=2.5), "[model] cutoff_sq"),
    (lambda p: ts.ModelParams(cutoff_sq=2.0), "[model] cutoff_sq"),
    (lambda p: ts.ModelParams(scaling="scaled"), "[model] scaling"),
    (lambda p: ts.solve_sector(ts.ModelParams(heavy_cutoff=8), 0, method="iterative",
                               k=2.5), "[solve1d] k"),
    (lambda p: ts.run_orbits(p, steps=20.5), "[orbit] steps"),
    (lambda p: ts.solve_sector(ts.ModelParams(heavy_cutoff=4), 1.0),
     "[solve1d] total_momentum"),
    (lambda p: ts.solve_sector(ts.ModelParams(cutoff_sq=1), [0, 0, 1.0]),
     "[solve3d] total_momentum"),
    (lambda p: ts.solve_sector(ts.ModelParams(heavy_cutoff=8), 0, method="iterative",
                               seed=0.5), "[solve1d] seed")],
    ids=["solve1d-seed", "solve3d-momentum", "orbit-dt", "orbit-spread",
         "estimate-convention", "analyze1d-n_times", "analyze1d-odd-n_r",
         "analyze3d-n_radial", "model-heavy_cutoff-inf", "model-cutoff_sq-2.5",
         "model-cutoff_sq-2.0", "model-scaling", "solve1d-k-2.5", "orbit-steps-20.5",
         "solve1d-momentum-1.0", "solve3d-momentum-1.0", "solve1d-seed-0.5"])
def test_library_entry_points_check_their_keywords(params, call, key):
    """The entry points refuse a keyword out of its domain before they
    read the model or the archive, naming the [section] key, and
    ModelParams refuses a field out of its [model] domain."""
    with pytest.raises(ConfigError, match=re.escape(f"bad value for {key}: ")):
        call(params)


def _readme_tables() -> dict[str, dict[str, list[str]]]:
    """The configuration reference's key tables: {section: {key: cells}}."""
    with open(README) as fh:
        reference = fh.read().split("## Configuration reference")[1].split("\n## ")[0]
    tables = {}
    for name, body in re.findall(r"`\[(\w+)\]`\n\n((?:\|.*\n)+)", reference):
        rows = [[cell.strip() for cell in line.strip("|").split(" | ")]
                for line in body.splitlines()[2:]]
        tables[name] = {cells[0]: cells[1:] for cells in rows}
    return tables


def test_readme_gives_each_key_its_default_and_domain():
    """Each section's table in the README lists exactly its keys, each with
    a default whose text loads back to it (an Enum's to its value; [orbit]
    initial's is computed) and the domain SETTINGS gives it."""
    tables = _readme_tables()
    for name in SECTIONS:
        assert set(tables[name]) == set(SETTINGS[name]), name
        for key, (default, domain) in SETTINGS[name].items():
            text, documented = tables[name][key][:2]
            assert documented == domain, f"[{name}] {key}"
            if isinstance(default, Enum):
                default = default.value
            assert (text == "(computed)" if default is None
                    else _parser(default)(text) == default), f"[{name}] {key}"
