"""The benchmark's workloads: seeded inputs, command sequences and output checks.

Every workload is a closed loop with one client: its commands run back to
back, each in a fresh interpreter, and the next pipeline starts only after
the previous one has finished.  The seed only shapes the input files the CLI
reads: the solvers' `seed` (the start vector of an iterative solve; the dense
route these sizes take today does not read it) and the 3D state `analyze`
looks at.  The amount of work per pipeline does not depend on it.

There are two workloads, each dominated by one long solve.  On a small
shared host the wall time of a command swings by tens of percent over tens
of seconds, and with two workloads every run can be 60 s long.  The paper's
own 1D pipeline (dim 729, with `analyze` and `report`) and the classical
orbit ensemble were dropped for that reason; every layer they exercised is
still reached here (see README.md).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PAPER_E0 = -5.91              # acceptance criterion 1, within 1 %
RESIDUAL_MAX = 1e-8           # max_residual_ratio bound of the acceptance tests
SECTOR_DIMS_3D = {5: (733, 726)}   # cutoff_sq -> (sym, anti) block dims


@dataclass
class Step:
    """One CLI invocation and the checks on what it wrote."""

    command: str
    args: list[str]
    out: Path
    checks: list[Callable[[dict], list[str]]] = field(default_factory=list)

    def verify(self) -> list[str]:
        """Problems with this step's outputs; empty when they pass."""
        path = self.out / "manifest.json"
        if not path.is_file():
            return ["manifest.json missing"]
        try:
            manifest = json.loads(path.read_text())
            problems = [f"artifact {name} missing" for name in manifest["artifacts"]
                        if not (self.out / name).is_file()]
            for check in self.checks:
                problems += check(manifest["statistics"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable manifest.json: {exc!r}"]
        return problems


def _solve1d_checks(heavy_cutoff: int, converged: bool):
    """`converged`: the cutoff is at or past the paper point (13), where E0
    agrees with the paper's ground energy."""
    dim = (2 * heavy_cutoff + 1) ** 2

    def check(stats: dict) -> list[str]:
        problems = []
        if stats["dimension"] != dim:
            problems.append(f"dimension {stats['dimension']} != {dim}")
        if not stats["max_residual_ratio"] <= RESIDUAL_MAX:
            problems.append(f"max_residual_ratio {stats['max_residual_ratio']} > {RESIDUAL_MAX}")
        if converged:
            e0 = stats["ground_energy"]
            if not abs(e0 - PAPER_E0) <= 0.01 * abs(PAPER_E0):
                problems.append(f"E0 {e0} not within 1% of {PAPER_E0}")
        return problems

    return check


def _solve3d_checks(cutoff_sq: int):
    def check(stats: dict) -> list[str]:
        problems = []
        dims = (stats["symmetric_dimension"], stats["antisymmetric_dimension"])
        if sum(dims) != stats["sector_dimension"]:
            problems.append(f"block dims {dims} do not add up to {stats['sector_dimension']}")
        # the dims and the level ordering are known only at the benchmark size;
        # at cutoff_sq 2 the antisymmetric ground state lies lower
        expected = SECTOR_DIMS_3D.get(cutoff_sq)
        if expected is not None:
            if dims != expected:
                problems.append(f"block dims {dims} != {expected}")
            if stats["symmetric_ground_below_antisymmetric"] is not True:
                problems.append("symmetric ground state not below the antisymmetric one")
        return problems

    return check


def _write_ini(path: Path, sections: dict[str, dict]) -> Path:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def converge1d(rng: random.Random, smoke: bool, inputs: Path, runs: Path) -> list[Step]:
    hc = 5 if smoke else 24
    ini = _write_ini(inputs / "converge1d.ini", {"model": {"heavy_cutoff": hc},
                                                 "solve1d": {"seed": rng.randrange(2**31)}})
    solve, estimate = runs / "solve", runs / "estimate"
    cfg = ["--config", str(ini)]
    return [
        Step("solve1d", ["solve1d", *cfg, "--out", str(solve)], solve,
             [_solve1d_checks(hc, converged=not smoke)]),
        Step("estimate", ["estimate", *cfg, "--from", str(solve), "--out", str(estimate)], estimate),
    ]


def coulomb3d(rng: random.Random, smoke: bool, inputs: Path, runs: Path) -> list[Step]:
    cutoff_sq = 2 if smoke else 5
    ini = _write_ini(inputs / "coulomb3d.ini", {"model": {"cutoff_sq": cutoff_sq},
                                                "solve3d": {"seed": rng.randrange(2**31)}})
    # one of the lowest symmetric states; the work is the same for each
    index = rng.randrange(8)
    solve, analyze = runs / "solve", runs / "analyze"
    return [
        Step("solve3d", ["solve3d", "--config", str(ini), "--out", str(solve)], solve,
             [_solve3d_checks(cutoff_sq)]),
        Step("analyze", ["analyze", "--from", str(solve), "--parity", "sym", "--index", str(index),
                         "--out", str(analyze)], analyze),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, bool, Path, Path], list[Step]]
    layers: tuple[str, ...]   # layers the traced run must see spans from


WORKLOADS = {w.name: w for w in (
    Workload("converge1d", converge1d, ("basis", "hamiltonian1d", "eigensolve",
                                        "classical", "scars", "cli")),
    Workload("coulomb3d", coulomb3d, ("basis", "hamiltonian3d", "eigensolve",
                                      "wavefunction", "cli")),
)}
