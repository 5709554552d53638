"""Plane-wave basis enumeration and momentum sectors.

Single-particle states are box-normalized plane waves L^{-1/2} exp(i 2 pi n x / L)
labeled by integer momenta.  Three-body product states |n1 n2 p> carry the two
heavy momenta and the light momentum; total momentum n1 + n2 + p is conserved,
so the Hamiltonian is block diagonal over sectors of fixed total momentum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # imported where used, so commands that never assemble a Hamiltonian
    # (estimate, orbit, report) do not pay for loading scipy.sparse
    from scipy import sparse


class ResourceLimitError(Exception):
    """Requested basis exceeds the configured state budget."""


#: default cap on the number of product states enumerated at once
DEFAULT_MAX_STATES = 1_000_000

#: bytes per basis row used for the memory estimate in diagnostics
_ROW_BYTES = 9 * 2


@dataclass(frozen=True)
class BasisState1D:
    n1: int
    n2: int
    p: int


@dataclass(frozen=True)
class BasisState3D:
    n1: tuple[int, int, int]
    n2: tuple[int, int, int]
    p: tuple[int, int, int]


class _PairLabels:
    """Rows labelled by the heavy momenta (n1, n2); shared by 1D and 3D sectors."""

    @property
    def dim(self) -> int:
        return len(self.n1)

    def locate(self, n1: np.ndarray, n2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Find the rows carrying the labels (n1[j], n2[j]).

        Labels are shaped like the sector's own (N,) in 1D, (N, 3) in 3D.
        Returns (rows, cols), cols ascending, with row rows[k] labelled
        (n1[cols[k]], n2[cols[k]]); labels not in the sector are skipped.
        """
        lo, span, strides, sorted_keys, order = self._label_keys
        want = _components(n1, n2) - lo
        # a negative offset wraps to a huge unsigned value, so one comparison
        # finds every component outside the sector's ranges
        cols = np.nonzero(np.all(want.view(np.uint64) < span, axis=0))[0]
        wanted = strides @ want[:, cols]
        pos = np.minimum(np.searchsorted(sorted_keys, wanted), max(self.dim - 1, 0))
        hit = sorted_keys[pos] == wanted
        return order[pos[hit]], cols[hit]

    @cached_property
    def _label_keys(self):
        # Mixed-radix key over the sector's own component ranges: distinct
        # labels inside the ranges get distinct keys, and a label with a
        # component outside them cannot be in the sector.  The initial values
        # only widen the ranges, except that an empty sector gets span 0.
        comps = _components(self.n1, self.n2)
        lo = comps.min(axis=1, keepdims=True, initial=0)
        span = comps.max(axis=1, keepdims=True, initial=-1) - lo + 1
        strides = np.cumprod(np.append(1, span[:0:-1]))[::-1]
        keys = strides @ (comps - lo)
        order = np.argsort(keys, kind="stable")
        return lo, span.astype(np.uint64), strides, keys[order], order

    def exchange_map(self) -> np.ndarray:
        """Index permutation realizing heavy-particle exchange n1 <-> n2."""
        rows, cols = self.locate(self.n2, self.n1)
        if len(cols) != self.dim:
            raise ValueError(f"sector {self.key} is not closed under exchange")
        return rows


def _components(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Labels as rows of components, n1 then n2: shape (2, N) in 1D, (6, N) in 3D."""
    return np.vstack([n1.T, n2.T], dtype=np.int64)


@dataclass
class Sector1D(_PairLabels):
    """All 1D states of fixed total momentum, ordered lexicographically by (n1, n2)."""

    total_momentum: int
    n1: np.ndarray
    n2: np.ndarray
    p: np.ndarray
    _index: dict = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        return f"P={self.total_momentum}"

    def state(self, i: int) -> BasisState1D:
        return BasisState1D(int(self.n1[i]), int(self.n2[i]), int(self.p[i]))

    def index_map(self) -> dict:
        """Map (n1, n2) -> row index.  p is fixed by the sector."""
        if self._index is None:
            self._index = {
                (int(a), int(b)): i
                for i, (a, b) in enumerate(zip(self.n1, self.n2))
            }
        return self._index


@dataclass
class Sector3D(_PairLabels):
    """All 3D states of fixed total momentum vector, ordered lexicographically by (n1, n2)."""

    total_momentum: tuple[int, int, int]
    n1: np.ndarray   # (N, 3) int
    n2: np.ndarray
    p: np.ndarray
    _index: dict = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        return "P=({},{},{})".format(*self.total_momentum)

    def state(self, i: int) -> BasisState3D:
        return BasisState3D(tuple(int(v) for v in self.n1[i]),
                            tuple(int(v) for v in self.n2[i]),
                            tuple(int(v) for v in self.p[i]))

    def index_map(self) -> dict:
        if self._index is None:
            self._index = {
                (tuple(int(v) for v in a), tuple(int(v) for v in b)): i
                for i, (a, b) in enumerate(zip(self.n1, self.n2))
            }
        return self._index


@dataclass
class SymmetrizedSector:
    """Exchange eigenbasis built on top of a plain sector.

    Each row combines a plain state a and its heavy-exchange image b as
    (|a> + parity |b>) / sqrt(2); a diagonal state (a = b, n1 = n2) is its
    own image and appears only at parity +1.
    """

    parent: object            # Sector1D or Sector3D
    parity: int               # +1 symmetric, -1 antisymmetric
    idx_a: np.ndarray
    idx_b: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.idx_a)

    @property
    def tag(self) -> str:
        return "sym" if self.parity == 1 else "anti"

    @property
    def key(self) -> str:
        return f"{self.parent.key} {self.tag}"

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Expand symmetrized coordinates into the plain sector."""
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != sector dim {self.dim}")
        out = np.zeros(self.parent.dim, dtype=np.result_type(vec.dtype, np.float64))
        # each parent index occurs in exactly one entry, so plain assignment is safe
        diag = self.idx_a == self.idx_b
        off = ~diag
        w = 1.0 / np.sqrt(2.0)
        out[self.idx_a[off]] = w * vec[off]
        out[self.idx_b[off]] = self.parity * w * vec[off]
        out[self.idx_a[diag]] = vec[diag]
        return out

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Adjoint of embed: restrict a plain-sector vector to this parity block."""
        if len(vec) != self.parent.dim:
            raise ValueError(f"vector length {len(vec)} != parent dim {self.parent.dim}")
        diag = self.idx_a == self.idx_b
        out = (vec[self.idx_a] + self.parity * vec[self.idx_b]) / np.sqrt(2.0)
        out[diag] = vec[self.idx_a[diag]]
        return out

    def embedding_matrix(self) -> sparse.csr_array:
        """Sparse (parent.dim x dim) isometry S with S^T S = identity.

        Holds the same entries embed writes, so S @ v equals embed(v).
        """
        return _pair_isometry(self.parent.dim, self.idx_a, self.idx_b, self.parity)


def _pair_isometry(n: int, idx_a: np.ndarray, idx_b: np.ndarray,
                   signs) -> sparse.csr_array:
    """Sparse (n x len(idx_a)) isometry whose column j is
    (|idx_a[j]> + signs[j] |idx_b[j]>) / sqrt(2), or |idx_a[j]> when
    idx_a[j] == idx_b[j].  signs is a scalar or one +-1 per column."""
    from scipy import sparse

    pair = idx_a != idx_b
    w = 1.0 / np.sqrt(2.0)
    cols = np.arange(len(idx_a))
    rows = np.concatenate([idx_a, idx_b[pair]])
    vals = np.concatenate([np.where(pair, w, 1.0),
                           np.broadcast_to(signs, idx_a.shape)[pair] * w])
    return sparse.csr_array((vals, (rows, np.concatenate([cols, cols[pair]]))),
                            shape=(n, len(idx_a)))


def enumerate_basis_1d(params, total_momentum: int = 0) -> Sector1D:
    """Enumerate the 1D sector of fixed total momentum.

    Heavy momenta run over [-heavy_cutoff, heavy_cutoff]^2; the light momentum
    is fixed by momentum balance.  In product-filter mode states whose light
    momentum exceeds the cutoff are dropped.
    """
    from .params import LightCutoffMode

    c = params.heavy_cutoff
    rng = np.arange(-c, c + 1)
    n1, n2 = np.meshgrid(rng, rng, indexing="ij")
    n1 = n1.ravel()
    n2 = n2.ravel()
    p = total_momentum - n1 - n2
    if params.light_cutoff_mode is LightCutoffMode.PRODUCT_FILTER:
        keep = np.abs(p) <= c
        n1, n2, p = n1[keep], n2[keep], p[keep]
    return Sector1D(total_momentum, n1.astype(np.int64), n2.astype(np.int64),
                    p.astype(np.int64))


def enumerate_vectors(cutoff_sq: int) -> np.ndarray:
    """Integer 3-vectors with |n|^2 <= cutoff_sq, sorted lexicographically."""
    c = int(np.floor(np.sqrt(cutoff_sq)))
    rng = range(-c, c + 1)
    vecs = [v for v in itertools.product(rng, rng, rng)
            if v[0] * v[0] + v[1] * v[1] + v[2] * v[2] <= cutoff_sq]
    vecs.sort()
    return np.array(vecs, dtype=np.int64).reshape(len(vecs), 3)


def basis_size_3d(cutoff_sq: int) -> tuple[int, int]:
    """(number of single-particle vectors, number of product states)."""
    nv = len(enumerate_vectors(cutoff_sq))
    return nv, nv ** 3


def estimate_basis_bytes(n_states: int) -> int:
    return n_states * _ROW_BYTES


def enumerate_basis_3d(params, cutoff_sq: int | None = None,
                       max_states: int = DEFAULT_MAX_STATES) -> dict:
    """Enumerate all 3D product states and partition them into momentum sectors.

    Returns a dict mapping total-momentum tuples to Sector3D.  Raises
    ResourceLimitError before allocating anything when the product basis
    exceeds max_states.
    """
    if cutoff_sq is None:
        cutoff_sq = params.cutoff_sq
    n_vec, n_states = basis_size_3d(cutoff_sq)
    if n_states > max_states:
        mb = estimate_basis_bytes(n_states) / 2 ** 20
        raise ResourceLimitError(
            f"cutoff_sq={cutoff_sq} gives {n_vec} vectors and {n_states} product "
            f"states (~{mb:.0f} MB of labels), over the budget of {max_states}; "
            f"raise the budget explicitly to proceed")
    vecs = enumerate_vectors(cutoff_sq)
    sectors: dict[tuple[int, int, int], list] = {}
    for i1 in range(n_vec):
        for i2 in range(n_vec):
            for i3 in range(n_vec):
                total = tuple(int(v) for v in vecs[i1] + vecs[i2] + vecs[i3])
                sectors.setdefault(total, []).append((i1, i2, i3))
    out = {}
    for total, rows in sorted(sectors.items()):
        rows = np.array(rows, dtype=np.int64)
        out[total] = Sector3D(total, vecs[rows[:, 0]], vecs[rows[:, 1]],
                              vecs[rows[:, 2]])
    return out


def sector_3d(params, total_momentum=(0, 0, 0),
              cutoff_sq: int | None = None) -> Sector3D:
    """Enumerate a single 3D momentum sector without building the full basis.

    For fixed (n1, n2) the light momentum is p = P - n1 - n2; the state is
    kept when p also satisfies the per-vector cutoff.
    """
    if cutoff_sq is None:
        cutoff_sq = params.cutoff_sq
    vecs = enumerate_vectors(cutoff_sq)
    total = np.asarray(total_momentum, dtype=np.int64)
    rows_n1, rows_n2, rows_p = [], [], []
    for i in range(len(vecs)):
        pc = total - vecs[i] - vecs          # candidate light momenta vs all n2
        keep = np.einsum("ij,ij->i", pc, pc) <= cutoff_sq
        if np.any(keep):
            rows_n1.append(np.repeat(vecs[i][None, :], int(keep.sum()), axis=0))
            rows_n2.append(vecs[keep])
            rows_p.append(pc[keep])
    if not rows_n1:
        empty = np.zeros((0, 3), dtype=np.int64)
        return Sector3D(tuple(int(v) for v in total), empty, empty.copy(), empty.copy())
    return Sector3D(tuple(int(v) for v in total),
                    np.concatenate(rows_n1), np.concatenate(rows_n2),
                    np.concatenate(rows_p))


def symmetrize_sector(sector) -> tuple[SymmetrizedSector, SymmetrizedSector]:
    """Split a sector into heavy-exchange symmetric and antisymmetric blocks.

    Returns (symmetric, antisymmetric).  Block dimensions add up to the
    parent dimension; diagonal states contribute to the symmetric block only.
    """
    xmap = sector.exchange_map()
    idx = np.arange(sector.dim, dtype=np.int64)
    # each exchange pair is listed once, from its lower index
    sym = idx <= xmap
    anti = idx < xmap
    return (SymmetrizedSector(sector, 1, idx[sym], xmap[sym]),
            SymmetrizedSector(sector, -1, idx[anti], xmap[anti]))


def symmetry_blocks(sector: Sector1D) -> list[tuple[str, sparse.csr_array]]:
    """Split a 1D sector into the joint eigenspaces of its label symmetries.

    Heavy exchange (n1 <-> n2) always commutes with H1 and gives the two
    blocks of symmetrize_sector.  Inversion (n -> -n) commutes only at total
    momentum 0, since elsewhere it maps p to P + n1 + n2 instead of -p; there
    it maps each exchange column to +- another one, and splits every
    exchange block once more into even and odd.  Returns one (label, S) per
    block, S a sparse (dim x block_dim) isometry.  The columns of all blocks
    together form an orthogonal matrix, and each row of S holds one entry,
    of equal magnitude over a symmetry orbit, so S @ V reproduces V up to an
    exact +-1 on each orbit.
    """
    halves = symmetrize_sector(sector)
    if sector.total_momentum != 0:
        return [(half.tag, half.embedding_matrix()) for half in halves]
    rows, cols = sector.locate(-sector.n1, -sector.n2)
    if len(cols) != sector.dim:
        raise ValueError(f"sector {sector.key} is not closed under inversion")
    inverse = np.empty(sector.dim, dtype=np.int64)
    inverse[cols] = rows
    blocks = []
    for half in halves:
        # column j (|a> + parity |b>) / sqrt(2) goes to sign[j] * column
        # image[j], the column listed from the lower of the rows -a, -b
        a, b = inverse[half.idx_a], inverse[half.idx_b]
        image = np.searchsorted(half.idx_a, np.minimum(a, b))
        sign = np.where(a <= b, 1, half.parity)
        col = np.arange(half.dim)
        s = half.embedding_matrix()
        for parity, tag in ((1, "even"), (-1, "odd")):
            keep = (col < image) | ((col == image) & (sign == parity))
            t = _pair_isometry(half.dim, col[keep], image[keep], parity * sign[keep])
            blocks.append((f"{half.tag} {tag}", (s @ t).tocsr()))
    return blocks


def assemble_csr(diagonal: np.ndarray, transfers) -> sparse.csr_array:
    """CSR matrix with `diagonal` plus `coeff` at every (rows, cols) of `transfers`.

    `transfers` holds (rows, cols, coeff) triples whose positions must not
    overlap each other or the diagonal.  Zero diagonal entries stay stored, so
    nnz counts every structurally nonzero element.
    """
    from scipy import sparse

    n = len(diagonal)
    diag = np.arange(n)
    rows = np.concatenate([diag, *(r for r, _, _ in transfers)])
    cols = np.concatenate([diag, *(c for _, c, _ in transfers)])
    vals = np.concatenate([diagonal, *(np.full(len(r), coeff) for r, _, coeff in transfers)])
    return sparse.csr_array((vals, (rows, cols)), shape=(n, n))


def sector_summary(sectors: dict) -> list[dict]:
    """JSON-ready per-sector statistics for run manifests."""
    out = []
    for total, sec in sectors.items():
        out.append({"total_momentum": list(total), "dimension": sec.dim})
    return out
