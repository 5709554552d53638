"""Eigensolvers and band assembly.

Two routes: numpy's LAPACK eigh on an operator's `dense()` for sectors
whose full set of eigenvectors fits one output budget, and shift-invert
ARPACK (scipy's eigsh) on its sparse `.matrix` for the lowest few pairs of
larger ones.  Only the second imports scipy.
Both report per-pair residual norms ||H v - E v|| so agreement can be
checked from the outside.  A sector split into symmetry blocks is solved one
block at a time, and merge_blocks joins the blocks' spectra with their
vectors left in block coordinates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .basis import ResourceLimitError

#: largest total of eigenvector arrays a dense solve returns (one dim 5792).
#: A solve_dense at this edge peaks at about 5.2 times it in RSS: the block,
#: numpy's working copy, syevd's 2 dim^2 workspace and the eigenvectors
#: (1320 MB at dim 5778, one BLAS thread; 4.4 times with scipy's syevr)
DENSE_OUTPUT_BYTES = 2 ** 28

#: relative margin within which canonicalize treats magnitudes as tied
_SIGN_TIE = 1e-8

#: relative spacing within which canonicalize treats eigenvalues as degenerate
_DEGEN_TOL = 1e-11

#: pairs solve_iterative finds beyond k, so clusters straddling k are whole
_EXTRA_PAIRS = 4


class IterationError(Exception):
    """Iterative solver did not reach its residual tolerance."""

    def __init__(self, message, eigenvalues=None, residuals=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


@dataclass
class Spectrum:
    """Eigenpairs of one sector, eigenvalues ascending."""

    sector_key: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray        # (dim, k), columns aligned with eigenvalues
    residuals: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def max_residual_ratio(self) -> float:
        """max over pairs of ||Hv - Ev|| / max(1, |E|)."""
        scale = np.maximum(1.0, np.abs(self.eigenvalues))
        return float(np.max(self.residuals / scale)) if self.k else 0.0


@dataclass(frozen=True)
class Band:
    """Contiguous eigenvalue cluster: [start, stop] indices into the spectrum."""

    band_id: int
    start: int
    stop: int
    head: float
    top: float

    @property
    def size(self) -> int:
        return self.stop - self.start + 1


def canonicalize(eigenvalues: np.ndarray, eigenvectors: np.ndarray):
    """Deterministic eigenvector representatives.

    Within clusters of eigenvalues closer than _DEGEN_TOL * max(1, |E|)
    (degenerate up to solver noise), rotate to the basis obtained by
    projecting and orthonormalizing coordinate axes, longest projection
    first (ties in index order), which depends only on the cluster's
    subspace and not on the basis the solver returned for it; then fix
    each column's sign so its first entry within a relative 1e-8 of its
    largest magnitude is positive.  Mixing
    across a cluster perturbs residuals by at most the cluster width, so the
    relative tolerance keeps ||Hv - Ev|| well below 1e-8 max(1, |E|).
    A float64 eigenvectors array is rotated in place and returned.
    """
    evals = np.asarray(eigenvalues, dtype=np.float64)
    vecs = np.asarray(eigenvectors, dtype=np.float64)
    n_pairs = len(evals)
    if n_pairs == 0:
        return evals, vecs

    # cluster boundaries on consecutive spacings
    start = 0
    for stop in range(1, n_pairs + 1):
        at_end = stop == n_pairs
        if not at_end and evals[stop] - evals[stop - 1] <= _DEGEN_TOL * max(
                1.0, abs(evals[stop]), abs(evals[stop - 1])):
            continue
        if stop - start > 1:
            block = vecs[:, start:stop]
            new = np.zeros_like(block)
            got = 0
            # project coordinate axes into the cluster subspace and keep the
            # independent ones, longest projection first; the squared
            # projection length does not change under a rotation inside the
            # cluster, and rounding it lets ties fall back to index order
            weight = np.round(np.einsum("ij,ij->i", block, block), 8)
            for row in np.argsort(-weight, kind="stable"):
                cand = block @ block[row, :]
                for c in range(got):
                    cand -= (new[:, c] @ cand) * new[:, c]
                nrm = np.linalg.norm(cand)
                if nrm > 1e-8:
                    new[:, got] = cand / nrm
                    got += 1
                    if got == stop - start:
                        break
            if got == stop - start:
                vecs[:, start:stop] = new
        start = stop

    # symmetry ties magnitudes exactly, so the sign is read at the first
    # entry within _SIGN_TIE of the largest, where rounding cannot decide it
    mag = np.abs(vecs)
    lead = np.argmax(mag >= (1.0 - _SIGN_TIE) * mag.max(axis=0), axis=0)
    vecs[:, vecs[lead, np.arange(n_pairs)] < 0] *= -1.0
    return evals, vecs


def dense_budget_error(dims) -> ResourceLimitError | None:
    """Why full spectra of blocks of these dimensions cannot be solved densely.

    The 8 * sum(dim^2) bytes of returned eigenvectors must fit
    DENSE_OUTPUT_BYTES; returns the ResourceLimitError to raise when they
    do not, else None.
    """
    need = 8 * sum(d * d for d in dims)
    if need <= DENSE_OUTPUT_BYTES:
        return None
    shapes = " + ".join(f"{d} x {d}" for d in dims)
    return ResourceLimitError(
        f"{shapes} eigenvectors need {need / 2 ** 20:.0f} MB, over the dense "
        f"output budget of {DENSE_OUTPUT_BYTES / 2 ** 20:.0f} MB; "
        f"use the iterative method")


def solve_dense(op) -> Spectrum:
    """Full spectrum of op.dense() by numpy's LAPACK eigh (divide and conquer,
    syevd).  Refuses sectors over the dense output budget.

    meta records the seconds spent in op.dense(), eigh, canonicalize and the
    residuals.
    """
    n = op.dim
    error = dense_budget_error([n])
    if error is not None:
        raise error
    t0 = time.perf_counter()
    h = op.dense()
    t1 = time.perf_counter()
    evals, vecs = np.linalg.eigh(h)
    t2 = time.perf_counter()
    # numpy returns the vectors in C order; canonicalize and merge_blocks
    # read them column by column, about twice as fast in Fortran order
    evals, vecs = canonicalize(evals, np.asfortranarray(vecs))
    t3 = time.perf_counter()
    resid = np.linalg.norm(h @ vecs - vecs * evals, axis=0)
    t4 = time.perf_counter()
    return Spectrum(_key(op), evals, vecs, resid, "dense",
                    meta={"dim": n, "dense_s": t1 - t0, "eigh_s": t2 - t1,
                          "canonicalize_s": t3 - t2, "residuals_s": t4 - t3})


def _key(op) -> str:
    """The label a spectrum of op carries: the operator's key, else its sector's."""
    return getattr(op, "key", None) or getattr(getattr(op, "sector", None), "key", "")


def merge_blocks(key: str, parts, size: int,
                 k: int | None = None) -> tuple[Spectrum, np.ndarray, np.ndarray]:
    """One spectrum from the spectra of symmetry blocks, in block coordinates.

    parts yields (label, Spectrum) pairs, one block at a time, of blocks
    that split one space.  Each block's eigenvectors are copied, column
    after column, into one flat array of `size` floats as the block
    arrives, so parts solved on demand need no block's vectors past its own
    solve.  The eigenvalues are merged in ascending order (stable, so equal
    values keep block order) and cut to the lowest k.  Returns the
    Spectrum, whose eigenvectors is that flat array, plus each pair's block
    label and the offset of its vector in the array; the vector is as long
    as its block's dimension.  meta records the block dimensions.
    """
    vecs = np.empty(size)
    labels, evals, resid, offsets = [], [], [], []
    dims: dict[str, int] = {}
    method = None
    start = 0
    for label, part in parts:
        m, n = part.eigenvectors.shape
        vecs[start:start + m * n] = part.eigenvectors.ravel(order="F")
        offsets.append(start + m * np.arange(n))
        labels.append(np.full(n, label))
        evals.append(part.eigenvalues)
        resid.append(part.residuals)
        dims[label] = m
        method = method or part.method
        start += m * n
    if not dims:
        raise ValueError("no blocks to merge")
    if start != size:
        raise ValueError(f"blocks hold {start} vector entries, not {size}")
    evals = np.concatenate(evals)
    order = np.argsort(evals, kind="stable")[:k]
    spectrum = Spectrum(key, evals[order], vecs, np.concatenate(resid)[order], method,
                        meta={"dim": sum(dims.values()), "block_dimensions": dims})
    return spectrum, np.concatenate(labels)[order], np.concatenate(offsets)[order]


def solve_iterative(op, k: int, *, tol: float = 1e-10, seed: int = 0) -> Spectrum:
    """The k lowest eigenpairs of the sparse op.matrix by shift-invert ARPACK.

    eigsh (implicitly restarted Lanczos) runs on H - sigma I with sigma one
    below the Gershgorin lower bound, so that operator is positive definite
    and its largest inverse eigenvalues are H's lowest.  ARPACK iterates to
    machine precision (tol 0), from a start vector drawn from seed.  It is
    asked for _EXTRA_PAIRS more pairs than k; all of them are canonicalized
    and then cut to k, so a degenerate cluster that straddles k gets
    representatives that do not depend on the solver.  Blocks too small for
    ARPACK go through LAPACK.  The pairs are accepted on their true
    residuals, ||H v - E v|| <= tol * max(1, |E|); otherwise, or when ARPACK
    does not converge, IterationError carries the k lowest eigenvalues
    found and their residuals.
    """
    n = op.dim
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    n_pairs = min(n, k + _EXTRA_PAIRS)
    key = _key(op)
    h = op.matrix
    failure = None
    if n_pairs >= n - 1:
        import scipy.linalg

        evals, vecs = scipy.linalg.eigh(h.toarray(), subset_by_index=(0, n_pairs - 1))
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        diagonal = h.diagonal()
        radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diagonal)
        sigma = float(np.min(diagonal - radius)) - 1.0
        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            evals, vecs = eigsh(h, k=n_pairs, sigma=sigma, which="LM", v0=v0, tol=0)
        except ArpackNoConvergence as exc:
            evals, vecs, failure = exc.eigenvalues, exc.eigenvectors, str(exc)
    order = np.argsort(evals, kind="stable")
    evals, vecs = canonicalize(evals[order], vecs[:, order])
    evals, vecs = evals[:k], vecs[:, :k]
    resid = np.linalg.norm(h @ vecs - vecs * evals, axis=0)
    if failure is None and not np.all(resid <= tol * np.maximum(1.0, np.abs(evals))):
        failure = f"residuals over tol = {tol:g} relative"
    if failure is not None:
        raise IterationError(
            f"no convergence for {key} (dim {n}, k {k}): {failure}; "
            f"residuals {np.array2string(resid, precision=3)}",
            eigenvalues=evals, residuals=resid)
    return Spectrum(key, evals, vecs, resid, "lanczos", meta={"dim": n, "seed": seed})


def assemble_bands(eigenvalues: np.ndarray, gap_threshold: float) -> list[Band]:
    """Split an ascending spectrum into bands at gaps above the threshold."""
    evals = np.asarray(eigenvalues, dtype=np.float64)
    if len(evals) == 0:
        return []
    if np.any(np.diff(evals) < 0):
        raise ValueError("eigenvalues must be ascending")
    splits = np.nonzero(np.diff(evals) > gap_threshold)[0]
    bounds = [0, *(splits + 1).tolist(), len(evals)]
    bands = []
    for bid, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), start=1):
        bands.append(Band(bid, lo, hi - 1, float(evals[lo]), float(evals[hi - 1])))
    return bands


def band_id_per_state(n_states: int, bands: list[Band]) -> np.ndarray:
    out = np.zeros(n_states, dtype=np.int64)
    for band in bands:
        out[band.start:band.stop + 1] = band.band_id
    return out
