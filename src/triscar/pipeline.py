"""One momentum sector solved block by block, as solve1d and solve3d run it,
and an eigenvector archive loaded with the sector and blocks it was solved in."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .basis import (Sector1D, Sector3D, SectorOperator, SymmetryBlock,
                    enumerate_basis_1d, sector_3d, symmetry_blocks)
from .config import ConfigError, IterationError, ResourceLimitError, check
from .eigensolve import choose_solver, merge_blocks, read_archive
from .hamiltonian1d import HamiltonianOperator1D, MatrixElementRule1D
from .hamiltonian3d import (HamiltonianOperator3D, MatrixElementRule3D,
                            OPERATOR_BUDGET_BYTES, SymmetrizedOperator3D,
                            count_bytes, operator_bytes, operator_size)
from .params import ModelParams

#: seconds into a sector solve after which each finished block is reported
#: on stderr
PROGRESS_AFTER_S = 2.0

#: largest ||Hv - Ev|| / max(1, |E|) a block's pair may have on either route:
#: the acceptance tests' bound (dense solves read 1.6e-13 at cutoff_sq 10)
RESIDUAL_BOUND = 1e-8


@dataclass
class SectorSolution:
    """What solve_sector returns.  `groups` maps "" (the whole 1D sector) or
    "sym" and "anti" (the 3D exchange halves) to merge_blocks' (Spectrum,
    labels, offsets); `operator` is the plain H; `counts` is the 3D gate's
    (dim, nnz, operator bytes), None in 1D; `timings` are in seconds."""

    sector: Sector1D | Sector3D
    blocks: list[SymmetryBlock]
    operator: SectorOperator
    groups: dict[str, tuple]
    counts: tuple[int, int, int] | None
    timings: dict[str, float]


def _gate(cutoff_sq: int, total, allow_large: bool) -> tuple[int, int, int]:
    """The 3D sector's (dim, nnz, operator bytes), counted from the
    single-particle vectors alone; a count or an operator over
    OPERATOR_BUDGET_BYTES is refused unless allow_large."""
    budget = f"over the operator budget of {OPERATOR_BUDGET_BYTES / 2 ** 20:.0f} MB"
    counting = count_bytes(cutoff_sq)
    if counting > OPERATOR_BUDGET_BYTES and not allow_large:
        raise ResourceLimitError(
            f"cutoff_sq={cutoff_sq} needs {counting / 2 ** 20:.0f} MB "
            f"just to count its states, {budget}; rerun with --allow-large "
            f"to proceed")
    dim, nnz = operator_size(total, cutoff_sq)
    need = operator_bytes(dim, nnz)
    if need > OPERATOR_BUDGET_BYTES and not allow_large:
        raise ResourceLimitError(
            f"cutoff_sq={cutoff_sq} gives {dim} states and {nnz} "
            f"operator nonzeros, whose labels and assembly need "
            f"{need / 2 ** 20:.0f} MB, {budget}; rerun with --allow-large "
            f"to proceed")
    return dim, nnz, need


def _accept(spec, block) -> None:
    """Refuse a block's spectrum, with IterationError, unless its eigenvalues
    are finite and no residual ratio exceeds RESIDUAL_BOUND (nan does)."""
    finite = bool(np.all(np.isfinite(spec.eigenvalues)))
    ratio = spec.max_residual_ratio()
    if finite and ratio <= RESIDUAL_BOUND:
        return
    why = (f"residual ratio {ratio:.3g} over the bound {RESIDUAL_BOUND:g}" if finite
           else "an eigenvalue is not finite")
    raise IterationError(f"block {spec.sector_key!r} (dim {block.dim}): {why}",
                         eigenvalues=spec.eigenvalues, residuals=spec.residuals)


def solve_sector(params: ModelParams, total_momentum, *, method: str = "auto",
                 k: int = 8, tol: float = 1e-10, seed: int = 0,
                 allow_large: bool = False) -> SectorSolution:
    """Solve the sector of total_momentum, an int in 1D or three ints in 3D.

    Each keyword, and total_momentum, is checked against its [solve1d] or
    [solve3d] domain before anything is built.  3D sectors pass the
    operator budget first (see _gate).  eigensolve.choose_solver picks the
    block solver once for all blocks, from method and the dense output
    budget.  The rows of H at the blocks' orbit representatives, the only
    rows any block reads, are assembled once (timings["assemble"]); each
    block S^T H S is solved from them and refused (IterationError) if an
    eigenvalue is not finite or a residual ratio exceeds RESIDUAL_BOUND.
    The steps each solver times are summed over the blocks into timings.
    Once the solve has run PROGRESS_AFTER_S, each finished block is
    reported on stderr.
    """
    three_d = np.ndim(total_momentum) > 0
    command = "solve3d" if three_d else "solve1d"
    check(command, total_momentum=total_momentum, method=method, k=k, tol=tol, seed=seed)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    counts = None
    if three_d:
        counts = _gate(params.cutoff_sq, total_momentum, allow_large)
        sector = sector_3d(params, total_momentum)
        plain_op = HamiltonianOperator3D(sector, MatrixElementRule3D(params))
    else:
        sector = enumerate_basis_1d(params, total_momentum)
        plain_op = HamiltonianOperator1D(sector, MatrixElementRule1D(params))
    if not sector.dim:
        raise ConfigError(f"sector {sector.key} holds no states")
    t1 = time.perf_counter()
    blocks = symmetry_blocks(sector)
    t2 = time.perf_counter()
    timings["build"] = t2 - t0
    timings["blocks"] = t2 - t1

    solver, cut = choose_solver(method, [block.dim for block in blocks], k,
                                tol=tol, seed=seed)
    groups: dict[str, list] = {}
    for block in blocks:
        name = block.label.partition(" ")[0] if three_d else ""
        groups.setdefault(name, []).append(block)

    t0 = time.perf_counter()
    # as in basis._orbit_blocks: return_counts keeps numpy.ma unloaded
    lowest = np.unique(np.concatenate([block.orbits[0] for block in blocks]),
                       return_counts=True)[0]
    triplets = plain_op.rows(lowest)
    timings["assemble"] = time.perf_counter() - t0

    def solve(members):
        """Each block of one group, solved when it is asked for."""
        for block in members:
            spec = solver(SymmetrizedOperator3D(block, plain_op, triplets))
            _accept(spec, block)
            for step, seconds in spec.meta["timings"].items():
                timings[step] = timings.get(step, 0.0) + seconds
            elapsed = time.perf_counter() - started
            if elapsed > PROGRESS_AFTER_S:
                print(f"{command}: block {block.label!r} (dim {block.dim}) solved "
                      f"at {elapsed:.1f} s", file=sys.stderr)
            yield block.label, spec
            del spec  # merge_blocks has spooled it: free it before the next solve

    started = time.perf_counter()
    solved = {name: merge_blocks(f"{sector.key} {name}".rstrip(), solve(members), cut)
              for name, members in groups.items()}
    timings["solve"] = time.perf_counter() - started
    return SectorSolution(sector, blocks, plain_op, solved, counts, timings)


def load_archive(path: str):
    """The arrays of an eigenvector archive, with the model, the sector and
    the symmetry blocks (by label) it was solved in.  The blocks are a
    deterministic function of the sector, so they are rebuilt."""
    data, params = read_archive(path)
    if "offset" not in data:
        raise ConfigError(f"{path} holds no block offsets; rerun solve1d/solve3d")
    total = [int(v) for v in data["total_momentum"]]
    if len(total) == 1:
        sector = Sector1D(total[0], data["n1"], data["n2"], data["p"])
    else:
        sector = Sector3D(tuple(total), data["n1"], data["n2"], data["p"])
    blocks = {block.label: block for block in symmetry_blocks(sector)}
    unknown = set(map(str, data["block"])) - set(blocks)
    if unknown:
        raise ConfigError(f"{path} names blocks {sorted(unknown)} that "
                          f"{sector.key} lacks")
    return data, params, sector, blocks
