"""Plane-wave basis enumeration and momentum sectors.

Single-particle states are box-normalized plane waves L^{-1/2} exp(i 2 pi n x / L)
labeled by integer momenta.  Three-body product states |n1 n2 p> carry the two
heavy momenta and the light momentum; total momentum n1 + n2 + p is conserved,
so the Hamiltonian is block diagonal over sectors of fixed total momentum.
One `Sector` type holds a sector of either model, 1D (integer momenta) or
3D (integer 3-vectors), with one label row per state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .config import ResourceLimitError  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    # imported where a CSR is built, so commands that build none (a dense
    # solve, estimate, orbit, report and analyze) never load scipy
    from scipy import sparse


def _axes(labels: np.ndarray) -> np.ndarray:
    """(N,) or (N, C) labels as rows of components: shape (1, N) or (C, N)."""
    return np.atleast_2d(np.asarray(labels, dtype=np.int64).T)


def _components(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Labels as rows of components, n1 then n2: shape (2, N) in 1D, (6, N) in 3D."""
    return np.vstack([n1.T, n2.T], dtype=np.int64)


def _mixed_radix(comps: np.ndarray):
    """(keys, lo, span, strides): keys = strides @ (comps - lo), one per
    column of comps (int64, a row per component), in radix [lo, lo + span)
    per component, so they ascend in the columns' lexicographic order.  The
    initial values only widen the ranges, except that empty input gets span 0.
    """
    lo = comps.min(axis=1, keepdims=True, initial=0)
    span = comps.max(axis=1, keepdims=True, initial=-1) - lo + 1
    strides = np.cumprod(np.append(1, span[:0:-1]))[::-1]
    return strides @ (comps - lo), lo, span, strides


@dataclass
class Sector:
    """All states of one total momentum, ordered lexicographically by (n1, n2).

    In 1D total_momentum is an int and the labels n1, n2, p are (N,) int
    arrays; in 3D it is three ints and they are (N, 3).  `key` reads
    "P=0" in 1D and "P=(0,0,0)" in 3D.
    """

    total_momentum: int | tuple[int, int, int]
    n1: np.ndarray
    n2: np.ndarray
    p: np.ndarray

    @property
    def key(self) -> str:
        if np.ndim(self.total_momentum):
            return "P=({},{},{})".format(*self.total_momentum)
        return f"P={self.total_momentum}"

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
        # a label with a component outside the sector's ranges cannot be in it
        keys, lo, span, strides = _mixed_radix(_components(self.n1, self.n2))
        order = np.argsort(keys, kind="stable")
        return lo, span.astype(np.uint64), strides, keys[order], order


@dataclass(frozen=True, eq=False)
class SymmetryBlock:
    """One joint eigenspace of a sector's symmetry maps.

    Held as the entries S[rows[j], cols[j]] = values[j], rows ascending, of
    a sparse isometry S of `shape` (sector dim x block dim), S^T S =
    identity, whose columns span the block; each row of S holds at most one
    entry, and each column the states of one orbit.  `label` names the
    block's sign under each map, e.g. "sym" or "anti +x -y +z".
    A block unpacks as (label, isometry); `embed` needs numpy alone, and
    the scipy `isometry` is built on first use.
    """

    label: str
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @property
    def dim(self) -> int:
        return self.shape[1]

    @cached_property
    def isometry(self) -> sparse.csr_array:
        return csr_from_triplets(self.rows, self.cols, self.values, self.shape)

    @cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """(lowest, size): each column's orbit's lowest row and state count;
        a column holds one entry per state of its orbit."""
        lowest = np.full(self.dim, self.shape[0])
        np.minimum.at(lowest, self.cols, self.rows)
        return lowest, np.bincount(self.cols, minlength=self.dim)

    def __iter__(self):
        return iter((self.label, self.isometry))

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Expand block coordinates into the plain sector: S @ vec.

        Every row of S holds one entry at most, so each output entry is
        0.0 plus one product, exactly as the sparse product forms it.
        """
        vec = np.asarray(vec)
        if len(vec) != self.dim:
            raise ValueError(f"block {self.label!r} has {self.dim} columns, "
                             f"the vector {len(vec)} entries")
        # one value per row of vec, broadcast over any further axes
        values = self.values.reshape((-1,) + (1,) * (vec.ndim - 1))
        out = np.zeros((self.shape[0],) + vec.shape[1:],
                       dtype=np.result_type(values, vec))
        out[self.rows] += values * vec[self.cols]
        return out


@dataclass(frozen=True)
class LabelMap:
    """An involution on heavy-momentum labels (n1, n2) -> (n1', n2').

    `names` label the +1 and the -1 eigenspace of the map.
    """

    names: tuple[str, str]
    apply: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


#: heavy-particle exchange n1 <-> n2
EXCHANGE = LabelMap(("sym", "anti"), lambda n1, n2: (n2, n1))

#: 1D inversion n -> -n
INVERSION = LabelMap(("even", "odd"), lambda n1, n2: (-n1, -n2))


def _axis_flip(axis: int) -> LabelMap:
    """3D reflection n -> n with component `axis` negated."""
    sign = np.ones(3, dtype=np.int64)
    sign[axis] = -1
    name = "xyz"[axis]
    return LabelMap((f"+{name}", f"-{name}"), lambda n1, n2: (n1 * sign, n2 * sign))


def point_group(sector) -> list[LabelMap]:
    """Label maps that commute with H on this sector.

    Heavy exchange always does.  A reflection negates every momentum along
    its axis, so it maps the sector onto itself only where the total
    momentum has no component along that axis: inversion at P = 0 in 1D,
    and each of the three axis flips with P_axis = 0 in 3D.  H depends on
    momenta only through |n|^2 and |q|, so these commute with it and with
    each other.
    """
    total = np.atleast_1d(sector.total_momentum)
    if len(total) == 1:
        return [EXCHANGE] + ([INVERSION] if total[0] == 0 else [])
    return [EXCHANGE] + [_axis_flip(axis) for axis in range(3) if total[axis] == 0]


def enumerate_basis_1d(params, total_momentum: int = 0) -> Sector:
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
    return Sector(total_momentum, n1.astype(np.int64), n2.astype(np.int64),
                  p.astype(np.int64))


def enumerate_vectors(cutoff_sq: int) -> np.ndarray:
    """Integer 3-vectors with |n|^2 <= cutoff_sq, sorted lexicographically."""
    c = int(np.floor(np.sqrt(cutoff_sq)))
    grid = np.mgrid[-c:c + 1, -c:c + 1, -c:c + 1].reshape(3, -1).T.astype(np.int64)
    return grid[np.einsum("ij,ij->i", grid, grid) <= cutoff_sq]


def basis_size_3d(cutoff_sq: int) -> tuple[int, int]:
    """(number of single-particle vectors, number of product states)."""
    nv = len(enumerate_vectors(cutoff_sq))
    return nv, nv ** 3


def sector_3d(params, total_momentum=(0, 0, 0),
              cutoff_sq: int | None = None) -> Sector:
    """Enumerate a single 3D momentum sector without building the full basis.

    For fixed (n1, n2) the light momentum is p = P - n1 - n2; the state is
    kept when p also satisfies the per-vector cutoff.
    """
    if cutoff_sq is None:
        cutoff_sq = params.cutoff_sq
    vecs = enumerate_vectors(cutoff_sq)
    total = tuple(int(v) for v in total_momentum)
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
        return Sector(total, empty, empty.copy(), empty.copy())
    return Sector(total, np.concatenate(rows_n1), np.concatenate(rows_n2),
                  np.concatenate(rows_p))


def symmetrize_sector(sector) -> tuple[SymmetryBlock, SymmetryBlock]:
    """Split a sector into heavy-exchange symmetric and antisymmetric blocks.

    Returns (sym, anti), the orbit blocks of exchange alone.  Block
    dimensions add up to the sector dimension; a diagonal state (n1 = n2)
    is its own image and enters the symmetric block only, so the
    antisymmetric one may have no columns.
    """
    return tuple(_orbit_blocks(sector, [EXCHANGE]))


def symmetry_blocks(sector) -> list[SymmetryBlock]:
    """Split a sector into the joint eigenspaces of its point group.

    Returns the nonempty orbit blocks of point_group(sector).
    """
    return [block for block in _orbit_blocks(sector, point_group(sector)) if block.dim]


def _orbit_blocks(sector, maps) -> list[SymmetryBlock]:
    """The joint eigenspaces of commuting label involutions on a sector.

    The r maps generate a group G of 2^r elements, and each character chi
    of G, one sign per map, gives one block.  The block's columns are the
    projections chi(g_b) |b> / sqrt(|orbit|), summed over the distinct
    states b of one orbit (the G-images of its lowest row a, with
    g_b a = b), for every orbit on whose stabilizer chi is trivial.
    Returns all 2^r blocks, empty ones included, in character order (the
    first map varies slowest, +1 before -1) with the maps' names joined as
    label; columns ascend by their orbit's lowest row.  The columns of all
    blocks together form an orthogonal matrix, and each row of S holds one
    entry, of equal magnitude over an orbit, so S @ V reproduces V up to an
    exact +-1 on each orbit.
    """
    n = sector.dim
    # images[g, i]: state i under the group element g, bit j of g applying maps[j]
    images = np.arange(n, dtype=np.int64)[None, :]
    for m in maps:
        rows, cols = sector.locate(*m.apply(sector.n1, sector.n2))
        if len(cols) != n:
            raise ValueError(f"sector {sector.key} is not closed under the "
                             f"{'/'.join(m.names)} map")
        perm = np.empty(n, dtype=np.int64)
        perm[cols] = rows
        images = np.vstack([images, perm[images]])
    # np.unique with no index or count output calls np.ma.is_masked, which
    # imports numpy.ma (about 2 MB of RSS); with counts it sorts instead
    lowest = np.unique(images.min(axis=0), return_counts=True)[0]
    orbits = images[:, lowest]
    fixes = orbits == lowest
    # orbit size 2^k from the stabilizer size; the entry magnitude is w^k,
    # the product of k pair normalizations w = 1/sqrt(2)
    k = len(maps) - np.log2(fixes.sum(axis=0)).astype(np.int64)
    magnitude = np.cumprod(np.append(1.0, np.full(len(maps), 1.0 / np.sqrt(2.0))))[k]
    bits = (np.arange(len(images))[:, None] >> np.arange(len(maps))) & 1
    blocks = []
    for chi in itertools.product((0, 1), repeat=len(maps)):
        sign = 1 - 2 * (bits @ np.array(chi, dtype=np.int64) % 2)
        keep = np.nonzero(np.all((sign[:, None] == 1) | ~fixes, axis=0))[0]
        # every state of an orbit appears once per stabilizer element, with
        # the same sign; keep its first occurrence
        rows, first = np.unique(orbits[:, keep], return_index=True)
        g, col = np.divmod(first, len(keep))
        vals = sign[g] * magnitude[keep[col]]
        label = " ".join(m.names[c] for m, c in zip(maps, chi))
        blocks.append(SymmetryBlock(label, rows, col, vals, (n, len(keep))))
    return blocks


def _pairs_within_groups(labels: np.ndarray, states: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (rows, cols), rows != cols, of equal labels, one
    label per row of the (N, C) or (N,) `labels`.

    The pairs are ordered by label, ascending lexicographically, then by
    row and by column.  Given `states`, ascending, only the pairs whose row
    is in it, in the same order.
    """
    keys = _mixed_radix(_axes(labels))[0]
    _, inverse, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    # rows sorted by label (stable), so each group is one run
    order = np.argsort(inverse, kind="stable")
    paired = (order if states is None
              else states[np.argsort(inverse[states], kind="stable")])
    # each paired row meets every member of its group: repeat the row s times
    # and walk the group from its first sorted position
    group = inverse[paired]
    per_row = sizes[group]
    start = (np.cumsum(sizes) - sizes)[group]
    offset = np.arange(per_row.sum()) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    rows = np.repeat(paired, per_row)
    cols = order[np.repeat(start, per_row) + offset]
    keep = rows != cols
    return rows[keep], cols[keep]


#: the three pair interactions as (spectator, moving heavy label, sign): a
#: transfer q between the other two particles keeps the spectator's momentum
#: and moves the named heavy momentum by q
PAIR_TYPES = (("p", "n1", +1.0),     # heavy-heavy repulsion
              ("n2", "n1", -1.0),    # heavy 1 - light attraction
              ("n1", "n2", -1.0))    # heavy 2 - light attraction


def assemble_triplets(states: np.ndarray, diagonal: np.ndarray, transfers):
    """(rows, cols, values) of `diagonal` at the rows `states`, then `coeff`
    at every (rows, cols) of `transfers`.

    `transfers` holds (rows, cols, coeff) triples, coeff a scalar or one
    value per position, whose positions must not overlap each other or the
    diagonal.  Zero diagonal entries stay, so every structurally nonzero
    element is counted.
    """
    rows = np.concatenate([states, *(r for r, _, _ in transfers)])
    cols = np.concatenate([states, *(c for _, c, _ in transfers)])
    vals = np.concatenate([diagonal, *(np.broadcast_to(coeff, r.shape)
                                       for r, _, coeff in transfers)])
    return rows, cols, vals


def csr_from_triplets(rows, cols, values, shape) -> sparse.csr_array:
    """The scipy CSR matrix of (rows, cols, values); scipy is imported here."""
    from scipy import sparse

    return sparse.csr_array((values, (rows, cols)), shape=shape)


class SectorOperator:
    """H = kinetic energy + three pair potentials on one plain sector, held
    as numpy triplets.

    Subclasses set `sector`, `rule` (its kinetic_coeff and params.gamma) and
    `coupling`, a pair potential's Fourier weight indexed by the squared
    transfer |q|^2; a transfer at or past len(coupling) carries none.
    `key`, the label its spectra carry, is the sector's.  `rows(states)`
    assembles the rows `states` alone; a solve assembles only the rows it
    reads.  `triplets`, every row, is assembled on first use, and so are
    `dense()`, which places them with numpy, and `.matrix`, the scipy CSR.
    """

    sector: Sector
    coupling: np.ndarray

    @property
    def dim(self) -> int:
        return self.sector.dim

    @property
    def key(self) -> str:
        return self.sector.key

    def rows(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (rows, cols, values) of assemble_triplets in the rows
        `states` (ascending, unique); no position repeats.

        The diagonal holds the kinetic energy and the three pair potentials
        at q = 0, whose signs +1 - 1 - 1 sum to -1.  Each pair type couples
        a row to the other states of its spectator group, with the transfer
        q that moves the heavy label, at sign * coupling[|q|^2].  A row's
        entries come by pair type, then by ascending column.
        """
        sector, rule, coupling = self.sector, self.rule, self.coupling
        n1, n2, p = (_axes(getattr(sector, name)[states]) for name in ("n1", "n2", "p"))
        kin = (n1 * n1).sum(0) + (n2 * n2).sum(0) + (p * p).sum(0) / rule.params.gamma
        transfers = []
        for spectator, moving, sign in PAIR_TYPES:
            rows, cols = _pairs_within_groups(getattr(sector, spectator), states)
            # |q|^2 one axis at a time, with no (pairs, C) temporary
            qsq = np.zeros(len(rows), dtype=np.int64)
            for axis in _axes(getattr(sector, moving)):
                qsq += (axis[rows] - axis[cols]) ** 2
            inside = qsq < len(coupling)
            transfers.append((rows[inside], cols[inside], sign * coupling[qsq[inside]]))
        return assemble_triplets(states, rule.kinetic_coeff * kin - coupling[0], transfers)

    @cached_property
    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rows(np.arange(self.dim))

    @cached_property
    def matrix(self) -> sparse.csr_array:
        return csr_from_triplets(*self.triplets, (self.dim, self.dim))

    def dense(self) -> np.ndarray:
        rows, cols, values = self.triplets
        h = np.zeros((self.dim, self.dim))
        h[rows, cols] = values
        return h

    def nonzeros_per_row(self) -> float:
        return len(self.triplets[0]) / max(self.dim, 1)
