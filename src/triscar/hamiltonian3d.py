"""Momentum-space Hamiltonian for the 3D periodic Coulomb three-body model.

Charges interact through the periodized Coulomb kernel whose Fourier data is

    f2(|alpha|) = (1 - cos(pi rho |alpha|)) / (2 pi |alpha|),   f2(0) = 0,

with rho = 2 (3 / 4 pi)^{1/3} the diameter of the volume-matching sphere in
box units.  As in 1D, every interaction term reduces to a single momentum
transfer q between a particle pair, with coupling +- f2(2|q|) / L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisState3D, Sector3D, SymmetrizedSector, assemble_csr
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


class HamiltonianOperator3D:
    """3D Hamiltonian on one momentum sector, held as one CSR matrix.

    For every transfer vector q (0 < |q|^2 <= 4 cutoff_sq) and every pair
    type, a label lookup produces the (row, col) positions; the three pair
    types share the scalar coupling +-f2(2|q|)/L.
    """

    def __init__(self, sector: Sector3D, rule: MatrixElementRule3D,
                 cutoff_sq: int | None = None):
        from .basis import enumerate_vectors

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
        transfers = []
        for q in enumerate_vectors(4 * cutoff_sq):
            if not q.any():
                continue
            coeff = w * f2(2.0 * np.linalg.norm(q))
            for t1, t2, sign in ((n1 + q, n2 - q, +1.0),
                                 (n1 + q, n2, -1.0),
                                 (n1, n2 + q, -1.0)):
                rows, cols = sector.locate(t1, t2)
                transfers.append((rows, cols, sign * coeff))
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
    """Exchange-parity block S^T H S of a plain-sector operator."""

    def __init__(self, sym: SymmetrizedSector, plain_op: HamiltonianOperator3D):
        if sym.parent is not plain_op.sector:
            raise ValueError("symmetrized sector does not match the operator sector")
        self.sym = sym
        self.plain_op = plain_op

    @property
    def dim(self) -> int:
        return self.sym.dim

    @property
    def sector(self) -> SymmetrizedSector:
        return self.sym

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free block action project(H embed(vec)) for the iterative solver."""
        return self.sym.project(self.plain_op.matvec(self.sym.embed(vec)))

    def dense(self) -> np.ndarray:
        # Contract with the +-1 pattern of S, then divide the pair rows by
        # sqrt(2): the same operations project applies, so the block is
        # bit-identical to stacking matvec(e_j) column by column.
        s = self.sym.embedding_matrix()
        h = (s.sign().T @ (self.plain_op.matrix @ s)).toarray()
        h[self.sym.idx_a != self.sym.idx_b] /= np.sqrt(2.0)
        return 0.5 * (h + h.T)
