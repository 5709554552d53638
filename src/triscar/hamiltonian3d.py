"""Momentum-space Hamiltonian for the 3D periodic Coulomb three-body model.

Charges interact through the periodized Coulomb kernel whose Fourier data is

    f2(|alpha|) = (1 - cos(pi rho |alpha|)) / (2 pi |alpha|),   f2(0) = 0,

with rho = 2 (3 / 4 pi)^{1/3} the diameter of the volume-matching sphere in
box units.  As in 1D, every interaction term reduces to a single momentum
transfer q between a particle pair, with coupling +- f2(2|q|) / L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import (Sector, SectorOperator, SymmetryBlock, csr_from_triplets,
                    enumerate_vectors)
from .params import ModelParams

TWO_PI = 2.0 * np.pi

#: sphere-diameter constant 2 (3/(4 pi))^(1/3)
RHO = 2.0 * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)


def f2(alpha_norm):
    """Radial Fourier weight of the periodized Coulomb kernel; f2(0) = 0.

    Elementwise over an array; a scalar argument gives a numpy scalar.
    """
    a = np.asarray(alpha_norm, dtype=np.float64)
    out = np.zeros_like(a)
    nz = a != 0
    out[nz] = (1.0 - np.cos(np.pi * RHO * a[nz])) / (TWO_PI * a[nz])
    return out[()]


@dataclass(frozen=True)
class MatrixElementRule3D:
    """Scaled coefficients entering 3D matrix elements."""

    params: ModelParams

    @property
    def kinetic_coeff(self) -> float:
        L = self.params.box_length
        return (TWO_PI / L) ** 2 * self.params.energy_scale

    @property
    def interaction_coeff(self) -> float:
        # bare 1/L Coulomb prefactor, times the reporting scale
        return self.params.energy_scale / self.params.box_length


def _unpack3(state):
    return tuple(np.asarray(v, dtype=np.int64) for v in state)


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


def dense_from_elements(sector: Sector, rule: MatrixElementRule3D) -> np.ndarray:
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


def operator_size(total_momentum, cutoff_sq: int) -> tuple[int, int]:
    """(dim, nnz) of HamiltonianOperator3D on a sector, before building either.

    A state is a triple (n1, n2, p) of vectors within the cutoff that sums
    to P.  The states whose spectator is x number s(x), the vectors w with
    P - x - w also within the cutoff, whichever particle x belongs to; so
    every pair type has the same spectator groups.  Any two states of a
    group are coupled, since every transfer between in-sector states obeys
    |q|^2 <= 4 cutoff_sq: dim = sum(s) and nnz = dim + 3 sum(s^2 - s).
    s(x) is the self-convolution of the cutoff ball's indicator at P - x,
    taken by FFT on a grid of 4c + 1 points per axis (c = floor(sqrt
    cutoff_sq)), wide enough that the cyclic convolution does not wrap.
    Holds count_bytes(cutoff_sq) at its peak; the sums are exact Python
    integers, so no count wraps.
    """
    vecs = enumerate_vectors(cutoff_sq)
    c = int(np.floor(np.sqrt(cutoff_sq)))
    ball = np.zeros((2 * c + 1,) * 3)
    ball[tuple((vecs + c).T)] = 1.0
    grid, axes = (4 * c + 1,) * 3, (0, 1, 2)
    counts = np.rint(np.fft.irfftn(np.fft.rfftn(ball, grid, axes=axes) ** 2,
                                   grid, axes=axes))
    # the convolution's index of P - x, outside the grid where no w fits
    at = np.asarray(total_momentum, dtype=np.int64) - vecs + 2 * c
    inside = np.all((at >= 0) & (at <= 4 * c), axis=1)
    sizes = np.zeros(len(vecs), dtype=np.int64)
    sizes[inside] = counts[tuple(at[inside].T)]
    sizes = sizes.tolist()
    dim = sum(sizes)
    return dim, dim + 3 * sum(s * (s - 1) for s in sizes)


#: peak bytes per point of operator_size's (4c + 1)^3 counting grid: the
#: padded real grid, its half-spectrum transform and that transform's square
#: coexist; measured with tracemalloc at 26.8-27.1 for cutoff_sq 100 to 1000
COUNT_BYTES_PER_POINT = 28


def count_bytes(cutoff_sq: int) -> int:
    """Peak bytes operator_size takes to count a sector at cutoff_sq."""
    return COUNT_BYTES_PER_POINT * (4 * math.isqrt(cutoff_sq) + 1) ** 3


#: bytes per nonzero the assembly of every row may take at its peak: the
#: (row, col, value) triplets of every pair type (3 x 8), their concatenation
#: (3 x 8), which `triplets` keeps, and one pair type's grouping transients.
#: Measured with tracemalloc at 56 bytes for cutoff_sq 5 to 13; the bound
#: stays at 84, so the sizes solve3d refuses do not move.  A solve assembles
#: only the rows at orbit representatives (186,596 of 2,220,679 nonzeros at
#: cutoff_sq 10), so charging every nonzero is an upper bound
BYTES_PER_NONZERO = 84

#: bytes per sector state of its three int64 momentum labels
BYTES_PER_STATE = 9 * 8


#: largest operator_bytes solve3d assembles, and largest count_bytes it
#: counts, without --allow-large
OPERATOR_BUDGET_BYTES = 2 ** 30


def operator_bytes(dim: int, nnz: int) -> int:
    """Bytes the labels of dim states and the assembly of nnz nonzeros take."""
    return BYTES_PER_STATE * dim + BYTES_PER_NONZERO * nnz


class HamiltonianOperator3D(SectorOperator):
    """3D Hamiltonian on one momentum sector, assembled by SectorOperator.rows.

    Each pair interaction couples the states that share a spectator label,
    with coupling +-f2(2|q|)/L for the transfers 0 < |q|^2 <= 4 cutoff_sq,
    which every transfer between in-sector states obeys; f2(0) = 0, so the
    diagonal is purely kinetic.
    """

    def __init__(self, sector: Sector, rule: MatrixElementRule3D,
                 cutoff_sq: int | None = None):
        self.sector = sector
        self.rule = rule
        self.cutoff_sq = rule.params.cutoff_sq if cutoff_sq is None else cutoff_sq
        self.coupling = rule.interaction_coeff * f2(
            2.0 * np.sqrt(np.arange(4 * self.cutoff_sq + 1.0)))

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != operator dim {self.dim}")
        return self.matrix @ vec


#: rows per strip of SymmetrizedOperator3D.dense's in-place symmetrization;
#: narrow strips keep the transposed reads in cache, about twice as fast as
#: h + h.T at dim 2000 to 4000, and no second dim x dim array is needed
_STRIP = 32

#: source entries per np.add.at pass of SymmetrizedOperator3D.dense, so its
#: keys and weights take a fixed few MB however many rows a block reads
_TERMS_CHUNK = 2 ** 16


class SymmetrizedOperator3D:
    """Symmetry block S^T H S of a plain-sector operator.

    `block` is a basis.SymmetryBlock, of symmetry_blocks or
    symmetrize_sector.  `plain_op` is a basis.SectorOperator, so a block of
    a 1D HamiltonianOperator1D works the same way.  `triplets` are the
    rows of plain_op it reads, plain_op.rows of states that include the
    lowest state of each of the block's orbits; without them it reads
    plain_op.triplets, which assembles every row.
    """

    def __init__(self, block: SymmetryBlock, plain_op, triplets=None):
        if block.shape[0] != plain_op.dim:
            raise ValueError(f"block {block.label!r} has {block.shape[0]} "
                             f"rows, the operator {plain_op.dim}")
        self.key = f"{plain_op.sector.key} {block.label}"
        self.block = block
        self.plain_op = plain_op
        self._source = plain_op.triplets if triplets is None else triplets

    @property
    def dim(self) -> int:
        return self.block.dim

    def _terms(self, chunk: int | None = None):
        """(keys, weights): S^T H S / 2 before symmetrization, one term per
        source entry, at the flat position key = i * dim + j; yielded for
        `chunk` source entries at a time in stored order, or for all of them
        at once.

        H commutes with the group, so row g a of H S is chi(g) times row a:
        row i of S^T H S is sqrt(|orbit i|) times the row of H S at the
        orbit's lowest state, whose entry in S is +1/sqrt(|orbit i|).  So an
        entry H[a, b] at the lowest state a of orbit i, with b in column j
        of S, adds sqrt(|orbit i|) H[a, b] S[b, j] at (i, j).  Any other
        entry adds an exact 0 at row or column 0, which leaves every sum
        as it is and spares a filtering pass.  The exact factor 1/2 of the
        symmetrization is taken here.
        """
        block, n = self.block, self.plain_op.dim
        lowest, size = block.orbits
        row_at = np.zeros(n, dtype=np.int64)
        row_at[lowest] = self.dim * np.arange(self.dim)
        half_norm = np.zeros(n)
        half_norm[lowest] = 0.5 * np.sqrt(size)
        col_of = np.zeros(n, dtype=np.int64)
        col_of[block.rows] = block.cols
        entry = np.zeros(n)
        entry[block.rows] = block.values
        rows, cols, values = self._source
        size = max(len(values), 1)    # one chunk, maybe empty, when chunk is None
        step = chunk or size
        for start in range(0, size, step):
            part = slice(start, start + step)
            r, c = rows[part], cols[part]
            yield row_at[r] + col_of[c], half_norm[r] * values[part] * entry[c]

    def dense(self) -> np.ndarray:
        """The block as a dense array: its terms added by np.add.at into a
        zeroed array, _TERMS_CHUNK of them at a time in stored order (the
        sums np.bincount takes, to the bit), then symmetrized as h + h^T in
        place, a strip of rows and the matching strip of columns at a time."""
        n = self.dim
        h = np.zeros(n * n)
        for keys, weights in self._terms(_TERMS_CHUNK):
            np.add.at(h, keys, weights)
        h = h.reshape(n, n)
        for a in range(0, n, _STRIP):
            # the strips hold only entries no earlier strip has written
            t = h[a:a + _STRIP, a:] + h[a:, a:a + _STRIP].T
            h[a:a + _STRIP, a:] = t
            h[a:, a:a + _STRIP] = t.T
        return h

    @cached_property
    def matrix(self):
        """The block as a scipy CSR matrix, summed exactly as dense() sums it."""
        (keys, weights), = self._terms()
        at, inverse = np.unique(keys, return_inverse=True)
        n = self.dim
        h = csr_from_triplets(at // n, at % n, np.bincount(inverse, weights=weights), (n, n))
        return h + h.T
