"""Eigensolvers and band assembly.

Two independent routes: a dense LAPACK path for sectors up to a size
threshold, and a thick-restart Rayleigh-Ritz iteration with full
reorthogonalization that touches the Hamiltonian only through matvec.
Both report per-pair residual norms ||H v - E v|| so agreement can be
checked from the outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import ResourceLimitError

#: sectors above this size refuse the dense path
DENSE_THRESHOLD = 4096

#: largest plain-basis eigenvector array solve_blocks allocates (dim 5792)
DENSE_OUTPUT_BYTES = 2 ** 28

#: eigenvector columns per residual product in solve_blocks
_RESIDUAL_CHUNK = 256


class DenseSizeError(Exception):
    """Sector too large for the dense solver."""


class IterationError(Exception):
    """Iterative solver failed to converge within its restart budget."""

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


def canonicalize(eigenvalues: np.ndarray, eigenvectors: np.ndarray,
                 degen_tol: float = 1e-11):
    """Deterministic eigenvector representatives.

    Within clusters of eigenvalues closer than degen_tol * max(1, |E|)
    (degenerate up to solver noise), rotate to the basis obtained by
    projecting and orthonormalizing coordinate axes, longest projection
    first (ties in index order), which depends only on the cluster's
    subspace and not on the basis the solver returned for it; then fix
    each column's sign so its largest-magnitude entry is positive.  Mixing
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
        if not at_end and evals[stop] - evals[stop - 1] <= degen_tol * max(
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

    for c in range(n_pairs):
        imax = int(np.argmax(np.abs(vecs[:, c])))
        if vecs[imax, c] < 0:
            vecs[:, c] = -vecs[:, c]
    return evals, vecs


def residual_norms(op, eigenvalues, eigenvectors) -> np.ndarray:
    out = np.empty(len(eigenvalues))
    for c in range(len(eigenvalues)):
        v = eigenvectors[:, c]
        out[c] = np.linalg.norm(op.matvec(v) - eigenvalues[c] * v)
    return out


def solve_dense(op, *, sector_key: str | None = None,
                dense_threshold: int = DENSE_THRESHOLD,
                degen_tol: float = 1e-11) -> Spectrum:
    """Full spectrum via LAPACK.  Refuses sectors above dense_threshold."""
    n = op.dim
    if n > dense_threshold:
        raise DenseSizeError(
            f"sector dimension {n} exceeds dense threshold {dense_threshold}; "
            f"use solve_iterative")
    h = op.dense()
    asym = float(np.max(np.abs(h - h.T))) if n else 0.0
    evals, vecs = scipy.linalg.eigh(h)
    evals, vecs = canonicalize(evals, vecs, degen_tol)
    resid = np.linalg.norm(h @ vecs - vecs * evals, axis=0)
    key = sector_key if sector_key is not None else getattr(
        getattr(op, "sector", None), "key", "")
    return Spectrum(key, evals, vecs, resid, "dense",
                    meta={"dim": n, "hermiticity_defect": asym})


class _BlockOperator:
    """The block S^T H S of a sparse plain-sector matrix H, for solve_dense."""

    def __init__(self, matrix, isometry):
        self.matrix = matrix
        self.isometry = isometry

    @property
    def dim(self) -> int:
        return self.isometry.shape[1]

    def dense(self) -> np.ndarray:
        return (self.isometry.T @ (self.matrix @ self.isometry)).toarray()


def solve_blocks(op, blocks, *, dense_threshold: int = DENSE_THRESHOLD) -> Spectrum:
    """Full spectrum of op.matrix from its symmetry blocks, in the plain basis.

    blocks holds (label, S) pairs whose sparse isometries S commute with H
    and together span the sector.  Each block S^T H S goes through
    solve_dense (dense_threshold applies per block); the vectors S V land in
    one preallocated array in ascending eigenvalue order.  Degeneracies
    cross blocks, so canonicalize runs once more over the merged spectrum,
    and residuals are taken against op.matrix itself, a few hundred columns
    at a time so no second full-size array is allocated.  Refuses with
    ResourceLimitError, before any solve, when that array would exceed
    DENSE_OUTPUT_BYTES.
    """
    key = op.sector.key
    if 8 * op.dim ** 2 > DENSE_OUTPUT_BYTES:
        raise ResourceLimitError(
            f"{op.dim} x {op.dim} eigenvectors need {8 * op.dim ** 2 / 2 ** 20:.0f} MB, "
            f"over the dense output budget of {DENSE_OUTPUT_BYTES / 2 ** 20:.0f} MB; "
            f"use the iterative method")
    parts = [solve_dense(_BlockOperator(op.matrix, s), sector_key=f"{key} {label}",
                         dense_threshold=dense_threshold)
             for label, s in blocks]
    evals = np.concatenate([part.eigenvalues for part in parts])
    n = len(evals)
    if n != op.dim:
        raise ValueError(f"blocks span {n} of {op.dim} dimensions")
    order = np.argsort(evals, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    vecs = np.empty((n, n), order="F")
    start = 0
    for (_, s), part in zip(blocks, parts):
        vecs[:, position[start:start + part.k]] = s @ part.eigenvectors
        start += part.k
    evals, vecs = canonicalize(evals[order], vecs)
    resid = np.empty(n)
    for a in range(0, n, _RESIDUAL_CHUNK):
        cols = slice(a, a + _RESIDUAL_CHUNK)
        v = vecs[:, cols]
        resid[cols] = np.linalg.norm(op.matrix @ v - v * evals[cols], axis=0)
    return Spectrum(key, evals, vecs, resid, "dense", meta={
        "dim": n,
        "block_dimensions": {label: part.k for (label, _), part in zip(blocks, parts)},
        "hermiticity_defect": max(part.meta["hermiticity_defect"] for part in parts)})


def solve_iterative(op, k: int, *, window: tuple[float, float] | None = None,
                    which: str = "smallest", tol: float = 1e-10, seed: int = 0,
                    max_subspace: int | None = None, max_restarts: int = 80,
                    sector_key: str | None = None) -> Spectrum:
    """Thick-restart Rayleigh-Ritz iteration, matrix-free.

    Finds the k algebraically smallest (or largest) eigenpairs, or with
    window=(lo, hi) the pairs closest to the window center via the shifted
    and squared operator -(H - sigma)^2.  Convergence is decided on true
    residuals ||H x - theta x|| <= tol * max(1, |theta|).

    A converged set is only accepted after it survives a verification
    restart seeded with a fresh random direction; a single Krylov chain can
    otherwise return k converged pairs while silently skipping a copy of a
    degenerate eigenvalue.  Subspaces spanning the whole space are exact and
    skip the probe.

    Deterministic for a fixed seed.  Raises IterationError when the restart
    budget is exhausted, carrying the best eigenvalue/residual estimates.
    """
    n = op.dim
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")
    if max_subspace is None:
        max_subspace = min(n, max(4 * k + 24, 48))
    max_subspace = max(max_subspace, k + 2) if n > k + 2 else n
    max_subspace = min(max_subspace, n)

    sigma = None
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        if not hi > lo:
            raise ValueError(f"empty window {window}")
        sigma = 0.5 * (lo + hi)

        def amat(v):
            w = op.matvec(v) - sigma * v
            return sigma * w - op.matvec(w)   # -(H - sigma)^2 v
    else:
        sign = 1.0 if which == "smallest" else -1.0

        def amat(v):
            return sign * op.matvec(v)

    rng = np.random.default_rng(seed)
    V = np.zeros((n, max_subspace))
    S = np.zeros((max_subspace, max_subspace))
    v0 = rng.standard_normal(n)
    V[:, 0] = v0 / np.linalg.norm(v0)
    m = 1            # orthonormal columns currently held
    done = 0         # columns whose A-image has been projected into S
    nmv = 0
    keep = min(max(2 * k, k + 6), max(max_subspace - 6, k + 1))

    def orthonormal_against(w, ncols):
        w = w - V[:, :ncols] @ (V[:, :ncols].T @ w)
        w = w - V[:, :ncols] @ (V[:, :ncols].T @ w)
        nrm = np.linalg.norm(w)
        return w, nrm

    best_evals = None
    best_resid = None
    probe_ref = None
    for restart in range(max_restarts + 1):
        # expand: process the A-image of every held column, growing the basis
        # until max_subspace (or the whole space) is spanned
        while done < m:
            j = done
            w = amat(V[:, j])
            nmv += 1
            h = V[:, :m].T @ w
            S[:m, j] = h
            S[j, :m] = h
            done += 1
            if m < max_subspace:
                w, nrm = orthonormal_against(w, m)
                if nrm < 1e-12:
                    w, nrm = orthonormal_against(rng.standard_normal(n), m)
                if nrm >= 1e-12:
                    V[:, m] = w / nrm
                    m += 1
        mm = m
        theta, Y = scipy.linalg.eigh(S[:mm, :mm])

        pool = min(mm, k + 3) if window is not None else min(mm, k)
        order = np.argsort(-theta)[:pool] if window is not None else np.arange(pool)
        X = V[:, :mm] @ Y[:, order]

        evals = np.empty(pool)
        resid = np.empty(pool)
        HX = np.empty((n, pool))
        for c in range(pool):
            x = X[:, c]
            hx = op.matvec(x)
            nmv += 1
            evals[c] = x @ hx
            resid[c] = np.linalg.norm(hx - evals[c] * x)
            HX[:, c] = hx

        pool_ok = resid <= tol * np.maximum(1.0, np.abs(evals))
        if window is not None:
            inside = (evals >= lo) & (evals <= hi)
            cand = np.nonzero(inside)[0][:k]
        else:
            cand = np.arange(pool)
        ok = pool_ok[cand]
        exhausted = mm >= n
        best_evals, best_resid = evals[cand], resid[cand]

        key = sector_key if sector_key is not None else getattr(
            getattr(op, "sector", None), "key", "")
        if window is None:
            finished = len(cand) == k and ok.all()
        else:
            # candidate 0 targets the eigenvalue nearest the window center;
            # once that pair has converged outside the window, the window
            # holds no spectrum at all
            empty = exhausted or (pool_ok[0] and not lo <= evals[0] <= hi)
            if len(cand) == 0 and empty:
                return Spectrum(key, np.zeros(0), np.zeros((n, 0)), np.zeros(0),
                                "lanczos-window",
                                meta={"dim": n, "matvecs": nmv,
                                      "restarts": restart, "window": [lo, hi],
                                      "note": "window empty"})
            finished = (len(cand) > 0 and ok.all()
                        and (len(cand) == k or exhausted or pool_ok.all()))
        confirmed = False
        if finished:
            vals_now = np.sort(evals[cand])
            confirmed = exhausted or (
                probe_ref is not None and len(probe_ref) == len(vals_now)
                and np.all(np.abs(vals_now - probe_ref)
                           <= tol * np.maximum(1.0, np.abs(vals_now))))
            # unconfirmed: remember the values and fall through to a probe
            # restart; a missed degenerate copy would change them
            probe_ref = vals_now
        if confirmed:
            sel = cand[np.argsort(evals[cand], kind="stable")]
            out_vals = evals[sel]
            out_vecs = X[:, sel]
            out_vals, out_vecs = canonicalize(out_vals, out_vecs)
            out_res = residual_norms(op, out_vals, out_vecs)
            nmv += len(sel)
            method = "lanczos" if window is None else "lanczos-window"
            meta = {"dim": n, "matvecs": nmv, "restarts": restart,
                    "subspace": mm, "seed": seed}
            if window is not None:
                meta["window"] = [lo, hi]
                if len(cand) < k and not exhausted:
                    meta["note"] = "pool converged; window may hold further pairs"
            return Spectrum(key, out_vals, out_vecs, out_res, method, meta)

        if restart == max_restarts:
            break

        # thick restart: keep the best Ritz vectors, reseed with the residual
        # of the worst unconverged candidate
        keep_now = min(keep, mm - 1) if mm > 1 else mm
        korder = np.argsort(-theta)[:keep_now] if window is not None \
            else np.arange(keep_now)
        Xk = V[:, :mm] @ Y[:, korder]
        V[:, :keep_now] = Xk
        S[:, :] = 0.0
        S[:keep_now, :keep_now] = np.diag(theta[korder])
        m = keep_now
        done = keep_now

        if len(cand) and not finished:
            bad = cand[int(np.argmax(resid[cand]))]
            r = HX[:, bad] - evals[bad] * X[:, bad]
        else:
            # converged residuals carry no new directions, so the probe
            # restart must be seeded randomly
            r = rng.standard_normal(n)
        r, nrm = orthonormal_against(r, m)
        if nrm < 1e-12:
            r, nrm = orthonormal_against(rng.standard_normal(n), m)
        if nrm >= 1e-12 and m < max_subspace:
            V[:, m] = r / nrm
            m += 1

    raise IterationError(
        f"no convergence after {max_restarts} restarts ({nmv} matvecs); "
        f"best residuals {np.array2string(best_resid, precision=3)}",
        eigenvalues=best_evals, residuals=best_resid)


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
