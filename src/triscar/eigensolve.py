"""Eigensolvers and band assembly.

Two routes: numpy's LAPACK eigh on an operator's `dense()` for sectors
whose full set of eigenvectors fits one output budget, and shift-invert
ARPACK (scipy's eigsh) on its sparse `.matrix` for the lowest few pairs of
larger ones; choose_solver picks one for all of a sector's blocks, and only
the second imports scipy.  Both report per-pair residual norms ||H v - E v||,
so agreement can be checked from the outside, and the seconds of their
steps.  A sector split into symmetry blocks is solved one block at a time,
and merge_blocks joins the blocks' spectra with their vectors left in block
coordinates, spooled to a temporary file as each block arrives, so a run
holds one block's vectors at a time; write_archive copies them from there
into an archive, and read_archive reads it back.
"""

from __future__ import annotations

import functools
import json
import shutil
import tempfile
import time
import weakref
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .config import IterationError, ResourceLimitError, model_params, params_dict
from .params import ModelParams

#: largest total of eigenvector arrays a dense solve returns (one dim 5792).
#: merge_blocks spools each block's vectors as the block arrives, so a run
#: does not hold the returned vectors beside a block's solve, and that solve
#: is its peak: a solve_dense at this edge peaks at about 5.2 times the
#: budget in RSS: the block, numpy's working copy, syevd's 2 dim^2 workspace
#: and the eigenvectors (1320 MB at dim 5778, one BLAS thread; 4.4 times
#: with scipy's syevr)
DENSE_OUTPUT_BYTES = 2 ** 28

#: relative margin within which canonicalize treats magnitudes as tied
_SIGN_TIE = 1e-8

#: relative spacing within which canonicalize treats eigenvalues as degenerate
_DEGEN_TOL = 1e-11

#: pairs solve_iterative finds beyond k, so clusters straddling k are whole
_EXTRA_PAIRS = 4


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

    def write_vectors(self, fid) -> None:
        """The eigenvectors into fid as one .npy file (np.save's bytes)."""
        np.lib.format.write_array(fid, np.asanyarray(self.eigenvectors))


class _SpooledSpectrum(Spectrum):
    """A Spectrum whose eigenvectors, one flat float64 array of `size`
    entries, wait in `spool`, an anonymous temporary file, until they are
    first read: they are read back once and the file is closed, so the
    vectors live in one place, the spool or the array."""

    spool = None    # until __init__ sets it, so the dataclass __init__ can run

    def __init__(self, sector_key, eigenvalues, spool, size, residuals, method, meta):
        super().__init__(sector_key, eigenvalues, None, residuals, method, meta)
        self.spool, self.size = spool, size
        # closes the file also when the spectrum is dropped with it unread
        self._close = weakref.finalize(self, spool.close)

    @property
    def eigenvectors(self) -> np.ndarray:
        if self.spool is not None:
            vectors = np.empty(self.size)
            self.spool.seek(0)
            if self.spool.readinto(vectors) != vectors.nbytes:
                raise OSError("the eigenvector spool ended early")
            self.eigenvectors = vectors
        return self._vectors

    @eigenvectors.setter
    def eigenvectors(self, value) -> None:
        self._vectors = value
        if self.spool is not None:
            self._close()
            self.spool = None

    def write_vectors(self, fid) -> None:
        """As Spectrum.write_vectors; unread vectors are copied from the
        spool in fixed-size chunks, after write_array's header."""
        if self.spool is None:
            super().write_vectors(fid)
            return
        np.lib.format.write_array_header_1_0(fid, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
            "fortran_order": False, "shape": (self.size,)})
        self.spool.seek(0)
        shutil.copyfileobj(self.spool, fid)


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


def choose_solver(method: str, dims, k: int, *, tol: float = 1e-10, seed: int = 0):
    """The block solver for a method setting, and the cut merge_blocks takes.

    dims are the dimensions of the blocks to solve.  auto is dense exactly
    when their eigenvectors fit the dense output budget; an explicit dense
    that does not fit is refused (dense_budget_error) before any solve.  The
    dense route returns (solve_dense, None); the iterative route returns
    (solve_iterative bound to k, tol and seed, k), with scipy loaded here so
    that no step a solver times holds its import.
    """
    error = dense_budget_error(dims)
    if method == "dense" and error is not None:
        raise error
    if method == "dense" or (method == "auto" and error is None):
        return solve_dense, None
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    return functools.partial(solve_iterative, k=k, tol=tol, seed=seed), k


def _residuals(h, evals, vecs) -> np.ndarray:
    """||H v - E v|| per pair; a norm that overflows is inf (nan past it),
    which the residual bound reports, so numpy does not warn of it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(h @ vecs - vecs * evals, axis=0)


def solve_dense(op) -> Spectrum:
    """Full spectrum of op.dense() by numpy's LAPACK eigh (divide and conquer,
    syevd).  Refuses sectors over the dense output budget.

    meta["timings"] records the seconds spent in op.dense() ("blocks"),
    "eigh", "canonicalize" and "residuals".
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
    resid = _residuals(h, evals, vecs)
    t4 = time.perf_counter()
    return Spectrum(op.key, evals, vecs, resid, "dense", meta={"dim": n, "timings": {
        "blocks": t1 - t0, "eigh": t2 - t1, "canonicalize": t3 - t2, "residuals": t4 - t3}})


def merge_blocks(key: str, parts,
                 k: int | None = None) -> tuple[Spectrum, np.ndarray, np.ndarray]:
    """One spectrum from the spectra of symmetry blocks, in block coordinates.

    parts yields (label, Spectrum) pairs, one block at a time, of blocks
    that split one space.  Each block's eigenvectors are written, column
    after column, to an anonymous temporary file (the spool) as the block
    arrives, and the block is let go, so parts solved on demand need no
    block's vectors past its own solve.  The eigenvalues are merged in
    ascending order (stable, so equal values keep block order) and cut to
    the lowest k.  Returns the Spectrum, whose eigenvectors, one flat array
    of every spooled entry, are read back from the spool on first access, plus
    each pair's block label and the offset of its vector in that array; the
    vector is as long as its block's dimension.  meta records the block
    dimensions.
    """
    spool = tempfile.TemporaryFile()
    try:
        labels, evals, resid, offsets = [], [], [], []
        dims: dict[str, int] = {}
        method = None
        start = 0
        for label, part in parts:
            m, n = part.eigenvectors.shape
            # the columns' bytes, one after another: the transpose of a
            # Fortran-order block, written with no copy
            spool.write(np.asfortranarray(part.eigenvectors, dtype=np.float64).T)
            offsets.append(start + m * np.arange(n))
            labels.append(np.full(n, label))
            evals.append(part.eigenvalues)
            resid.append(part.residuals)
            dims[label] = m
            method = method or part.method
            start += m * n
            del part  # before the next block is solved
        if not dims:
            raise ValueError("no blocks to merge")
    except BaseException:
        spool.close()
        raise
    evals = np.concatenate(evals)
    order = np.argsort(evals, kind="stable")[:k]
    spectrum = _SpooledSpectrum(key, evals[order], spool, start,
                                np.concatenate(resid)[order], method,
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

    meta["timings"] records the seconds spent in op.matrix ("blocks"), the
    solve ("eigsh", also where LAPACK stands in for it), "canonicalize" and
    "residuals".
    """
    n = op.dim
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    n_pairs = min(n, k + _EXTRA_PAIRS)
    t0 = time.perf_counter()
    h = op.matrix
    t1 = time.perf_counter()
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
    t2 = time.perf_counter()
    order = np.argsort(evals, kind="stable")
    evals, vecs = canonicalize(evals[order], vecs[:, order])
    evals, vecs = evals[:k], vecs[:, :k]
    t3 = time.perf_counter()
    resid = _residuals(h, evals, vecs)
    t4 = time.perf_counter()
    if failure is None and not np.all(resid <= tol * np.maximum(1.0, np.abs(evals))):
        failure = f"residuals over tol = {tol:g} relative"
    if failure is not None:
        raise IterationError(
            f"no convergence for {op.key} (dim {n}, k {k}): {failure}; "
            f"residuals {np.array2string(resid, precision=3)}",
            eigenvalues=evals, residuals=resid)
    return Spectrum(op.key, evals, vecs, resid, "lanczos", meta={
        "dim": n, "seed": seed, "timings": {"blocks": t1 - t0, "eigsh": t2 - t1,
                                            "canonicalize": t3 - t2, "residuals": t4 - t3}})


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


def write_archive(path: str, sector, params: ModelParams, solved, **extra) -> None:
    """An eigenvector archive: one merged group of blocks, its vectors in
    block coordinates, each state's block label and vector offset, and what
    analyze needs to rebuild the blocks (sector labels, total momentum, model
    parameters); extra adds command-specific arrays.

    The archive is what np.savez writes (the same members in the same order,
    stored uncompressed, each forced to zip64), but the vectors of a merged
    spectrum are copied from its spool in chunks, never held whole."""
    spec, labels, offsets = solved
    total = np.atleast_1d(np.asarray(sector.total_momentum, dtype=np.int64))
    arrays = dict(eigenvalues=spec.eigenvalues, eigenvectors=None,  # spec writes them
                  residuals=spec.residuals, block=labels, offset=offsets,
                  n1=sector.n1, n2=sector.n2, p=sector.p, total_momentum=total,
                  dimension=np.array(f"{len(total)}d"),
                  params=np.array(json.dumps(params_dict(params))), **extra)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as npz:
        for name, value in arrays.items():
            with npz.open(f"{name}.npy", "w", force_zip64=True) as fid:
                if name == "eigenvectors":
                    spec.write_vectors(fid)
                else:
                    np.lib.format.write_array(fid, np.asanyarray(value))


def read_archive(path: str, names=None) -> tuple[dict, ModelParams]:
    """The arrays `names` (every array when None; "params" always) of an
    eigenvector archive, and the model it was solved in."""
    with np.load(path) as npz:
        data = {name: npz[name]
                for name in (npz.files if names is None else {*names, "params"})}
    return data, model_params({"model": json.loads(str(data["params"]))})
