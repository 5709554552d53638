"""Momentum-space Hamiltonian for the 3D periodic Coulomb three-body model.

Charges interact through the periodized Coulomb kernel whose Fourier data is

    f2(|alpha|) = (1 - cos(pi rho |alpha|)) / (2 pi |alpha|),   f2(0) = 0,

with rho = 2 (3 / 4 pi)^{1/3} the diameter of the volume-matching sphere in
box units.  As in 1D, every interaction term reduces to a single momentum
transfer q between a particle pair, with coupling +- f2(2|q|) / L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import (BasisState3D, Sector3D, SymmetrizedSector, assemble_csr,
                    enumerate_vectors)
from .params import ModelParams

TWO_PI = 2.0 * np.pi

#: sphere-diameter constant 2 (3/(4 pi))^(1/3)
RHO = 2.0 * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)


def f2(alpha_norm):
    """Radial Fourier weight of the periodized Coulomb kernel; f2(0) = 0."""
    a = np.asarray(alpha_norm, dtype=np.float64)
    if a.ndim == 0:
        x = float(a)
        if x == 0.0:
            return 0.0
        return (1.0 - np.cos(np.pi * RHO * x)) / (TWO_PI * x)
    out = np.zeros_like(a)
    nz = a != 0
    out[nz] = (1.0 - np.cos(np.pi * RHO * a[nz])) / (TWO_PI * a[nz])
    return out


@dataclass(frozen=True)
class MatrixElementRule3D:
    """Scaled coefficients entering 3D matrix elements."""

    params: ModelParams
    rho: float = RHO

    @property
    def kinetic_coeff(self) -> float:
        L = self.params.box_length
        return (TWO_PI / L) ** 2 * self.params.energy_scale

    @property
    def interaction_coeff(self) -> float:
        # bare 1/L Coulomb prefactor, times the reporting scale
        return self.params.energy_scale / self.params.box_length


def _unpack3(state):
    if isinstance(state, BasisState3D):
        return (np.asarray(state.n1, dtype=np.int64),
                np.asarray(state.n2, dtype=np.int64),
                np.asarray(state.p, dtype=np.int64))
    a, b, c = state
    return (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64),
            np.asarray(c, dtype=np.int64))


def matrix_element_3d(bra, ket, rule: MatrixElementRule3D) -> float:
    """<bra| H |ket> for 3D plane-wave product states (n1, n2, p).

    Same transfer structure as the 1D model with f2 in place of f1: the
    heavy-heavy repulsion enters with +, the two heavy-light attractions
    with -.
    """
    b1, b2, bp = _unpack3(bra)
    k1, k2, kp = _unpack3(ket)
    gamma = rule.params.gamma

    val = 0.0
    if (b1 == k1).all() and (b2 == k2).all() and (bp == kp).all():
        val += rule.kinetic_coeff * float(k1 @ k1 + k2 @ k2 + (kp @ kp) / gamma)

    w = rule.interaction_coeff
    d1 = k1 - b1
    d2 = k2 - b2
    dp = kp - bp
    if (bp == kp).all() and not (d1 == 0).all() and (d1 + d2 == 0).all():
        val += w * f2(float(np.linalg.norm(d1 - d2)))
    if (b2 == k2).all() and not (d1 == 0).all() and (d1 + dp == 0).all():
        val -= w * f2(float(np.linalg.norm(d1 - dp)))
    if (b1 == k1).all() and not (d2 == 0).all() and (d2 + dp == 0).all():
        val -= w * f2(float(np.linalg.norm(d2 - dp)))
    return val


def symmetrized_element_3d(sector: Sector3D, bra_entry, ket_entry,
                           rule: MatrixElementRule3D, parity: int) -> float:
    """Matrix element between exchange eigenstates given as (idx_a, idx_b) pairs.

    Each entry is expanded into its two exchange images with the parity sign
    and the 1/(c_bra c_ket) normalization applied.
    """
    ia, ib = bra_entry
    ja, jb = ket_entry
    c_bra = 2.0 if ia == ib else np.sqrt(2.0)
    c_ket = 2.0 if ja == jb else np.sqrt(2.0)
    total = 0.0
    for bi, bsign in ((ia, 1.0), (ib, float(parity))):
        bra = (sector.n1[bi], sector.n2[bi], sector.p[bi])
        for ki, ksign in ((ja, 1.0), (jb, float(parity))):
            ket = (sector.n1[ki], sector.n2[ki], sector.p[ki])
            total += bsign * ksign * matrix_element_3d(bra, ket, rule)
    return total / (c_bra * c_ket)


def dense_from_elements(sector: Sector3D, rule: MatrixElementRule3D) -> np.ndarray:
    """Elementwise dense build; quadratic cost, intended for small sectors."""
    n = sector.dim
    h = np.zeros((n, n))
    states = [(sector.n1[i], sector.n2[i], sector.p[i]) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = matrix_element_3d(states[i], states[j], rule)
            h[i, j] = v
            h[j, i] = v
    return h


#: the three pair interactions as (spectator, moving heavy label, sign): a
#: transfer q between the other two particles keeps the spectator's momentum
#: and moves the named heavy momentum by q
_PAIR_TYPES = (("p", "n1", +1.0),     # heavy-heavy repulsion
               ("n2", "n1", -1.0),    # heavy 1 - light attraction
               ("n1", "n2", -1.0))    # heavy 2 - light attraction


def _pairs_within_groups(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (rows, cols), rows != cols, of equal labels."""
    _, inverse, sizes = np.unique(labels, axis=0, return_inverse=True,
                                  return_counts=True)
    # rows sorted by label (stable), so each group is one run
    order = np.argsort(inverse.ravel(), kind="stable")
    # each sorted row meets every member of its group: repeat the row s times
    # and walk the group from its first sorted position
    per_row = np.repeat(sizes, sizes)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    offset = np.arange(per_row.sum()) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    rows = np.repeat(order, per_row)
    cols = order[np.repeat(start, per_row) + offset]
    keep = rows != cols
    return rows[keep], cols[keep]


def operator_size(total_momentum, cutoff_sq: int) -> tuple[int, int]:
    """(dim, nnz) of HamiltonianOperator3D on a sector, before building either.

    A state is a triple (n1, n2, p) of vectors within the cutoff that sums
    to P.  The states whose spectator is x number s(x), the vectors w with
    P - x - w also within the cutoff, whichever particle x belongs to; so
    every pair type has the same spectator groups.  Any two states of a
    group are coupled, since every transfer between in-sector states obeys
    |q|^2 <= 4 cutoff_sq: dim = sum(s) and nnz = dim + 3 sum(s^2 - s).
    Holds O(#vectors) memory.
    """
    vecs = enumerate_vectors(cutoff_sq)
    rest = np.asarray(total_momentum, dtype=np.int64) - vecs
    sizes = np.empty(len(vecs), dtype=np.int64)
    chunk = max(1, 2 ** 18 // max(len(vecs), 1))
    for a in range(0, len(vecs), chunk):
        pc = rest[a:a + chunk, None, :] - vecs[None, :, :]
        sizes[a:a + chunk] = np.count_nonzero(
            np.einsum("ijk,ijk->ij", pc, pc) <= cutoff_sq, axis=1)
    dim = int(sizes.sum())
    return dim, dim + 3 * int(np.sum(sizes * (sizes - 1)))


#: peak bytes per nonzero while the operator is assembled: the (row, col,
#: value) triplets of every pair type (3 x 8), their concatenation (3 x 8),
#: the int64 CSR (8 + 8) and one pair type's grouping transients; measured
#: with tracemalloc at 72-83 bytes for cutoff_sq 5 to 13
BYTES_PER_NONZERO = 84

#: bytes per sector state of its three int64 momentum labels
BYTES_PER_STATE = 9 * 8


#: largest operator_bytes solve3d assembles without --allow-large
OPERATOR_BUDGET_BYTES = 2 ** 30


def operator_bytes(dim: int, nnz: int) -> int:
    """Bytes the labels of dim states and the assembly of nnz nonzeros take."""
    return BYTES_PER_STATE * dim + BYTES_PER_NONZERO * nnz


class HamiltonianOperator3D:
    """3D Hamiltonian on one momentum sector, held as one CSR matrix.

    The kinetic energy fills the diagonal.  Each pair interaction moves a
    transfer q between two particles and leaves the third, the spectator,
    alone, so it couples exactly the states that share a spectator label:
    one grouping per pair type yields every (row, col) position, with
    coupling +-f2(2|q|)/L for the transfers 0 < |q|^2 <= 4 cutoff_sq.
    """

    def __init__(self, sector: Sector3D, rule: MatrixElementRule3D,
                 cutoff_sq: int | None = None):
        self.sector = sector
        self.rule = rule
        if cutoff_sq is None:
            cutoff_sq = rule.params.cutoff_sq
        gamma = rule.params.gamma
        n1, n2, p = sector.n1, sector.n2, sector.p
        kin = (np.einsum("ij,ij->i", n1, n1)
               + np.einsum("ij,ij->i", n2, n2)
               + np.einsum("ij,ij->i", p, p) / gamma)
        w = rule.interaction_coeff
        # the coupling depends on |q|^2 only; evaluated once per value
        coupling = np.array([w * f2(2.0 * np.sqrt(float(qsq)))
                             for qsq in range(4 * cutoff_sq + 1)])
        transfers = []
        for spectator, moving, sign in _PAIR_TYPES:
            rows, cols = _pairs_within_groups(getattr(sector, spectator))
            label = getattr(sector, moving)
            qsq = np.zeros(len(rows), dtype=np.int64)
            for axis in range(3):
                qsq += (label[rows, axis] - label[cols, axis]) ** 2
            inside = qsq <= 4 * cutoff_sq
            transfers.append((rows[inside], cols[inside], sign * coupling[qsq[inside]]))
        # q = 0 carries no weight (f2(0) = 0), so the diagonal is purely kinetic
        self.matrix = assemble_csr(rule.kinetic_coeff * kin, transfers)

    @property
    def dim(self) -> int:
        return self.sector.dim

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != operator dim {self.dim}")
        return self.matrix @ vec

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def nonzeros_per_row(self) -> float:
        return self.matrix.nnz / max(self.dim, 1)


class SymmetrizedOperator3D:
    """Symmetry block S^T H S of a plain-sector operator.

    `block` is an exchange half (a SymmetrizedSector) or one (label, S)
    pair of basis.symmetry_blocks.
    """

    def __init__(self, block, plain_op: HamiltonianOperator3D):
        if isinstance(block, SymmetrizedSector):
            if block.parent is not plain_op.sector:
                raise ValueError("symmetrized sector does not match the operator sector")
            self.key = block.key
            self.isometry = block.embedding_matrix()
        else:
            label, self.isometry = block
            if self.isometry.shape[0] != plain_op.dim:
                raise ValueError(f"block {label!r} has {self.isometry.shape[0]} "
                                 f"rows, the operator {plain_op.dim}")
            self.key = f"{plain_op.sector.key} {label}"
        self.plain_op = plain_op
        # every column of S holds one orbit with entries of magnitude
        # 1/sqrt(orbit size), so its nonzero count is the orbit size
        columns = self.isometry.tocsc()
        columns.sort_indices()
        self._orbit_norm = np.sqrt(np.diff(columns.indptr).astype(np.float64))
        # for a point-group block: the first stored row of each column, its
        # orbit's lowest row
        self._lowest = (None if isinstance(block, SymmetrizedSector)
                        else columns.indices[columns.indptr[:-1]])

    @property
    def dim(self) -> int:
        return self.isometry.shape[1]

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Block action S^T H S vec for the iterative solver."""
        s = self.isometry
        if self._lowest is None:
            return (s.sign().T @ self.plain_op.matvec(s @ vec)) / self._orbit_norm
        return (self._lowest_rows @ (s @ vec)) * self._orbit_norm

    def dense(self) -> np.ndarray:
        s = self.isometry
        if self._lowest is None:
            # Contract with the +-1 pattern of S, then divide each row by the
            # root of its orbit size: the operations SymmetrizedSector.project
            # applies, so the block is bit-identical to stacking
            # project(H embed(e_j)) column by column.
            h = (s.sign().T @ (self.plain_op.matrix @ s)).toarray()
            h /= self._orbit_norm[:, None]
        else:
            h = (self._lowest_rows @ s).toarray()
            h *= self._orbit_norm[:, None]
        return 0.5 * (h + h.T)

    @cached_property
    def _lowest_rows(self):
        # H commutes with the group, so row g a of H S is chi(g) times row
        # a: row i of S^T H S is sqrt(|orbit i|) times the row of H S at the
        # orbit's lowest state, whose entry in S is +1/sqrt(|orbit i|)
        return self.plain_op.matrix[self._lowest]
