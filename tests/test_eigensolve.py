"""Eigensolvers, canonicalization, and band assembly.

MPMATH_ORACLE_C1 holds the nine eigenvalues of the cutoff-1 zero-momentum
sector, scaled, frozen from a 40-digit mpmath.eigsy run on an independently
assembled matrix (analytic Fourier elements, no shared code).
"""

import json
import zipfile

import numpy as np
import pytest

import triscar as ts
from triscar import eigensolve

MPMATH_ORACLE_C1 = np.array([
    -5.151546329577804,
    -3.437123075591609,
    -1.9931771750905496,
    6.716798827764743,
    7.1599773397555175,
    9.577409730534944,
    10.72682547862644,
    42.00052897188961,
    42.00189216486563,
])


@pytest.fixture(scope="module")
def c1_operator():
    p = ts.ModelParams(heavy_cutoff=1)
    sec = ts.enumerate_basis_1d(p, 0)
    return ts.HamiltonianOperator1D(sec, ts.MatrixElementRule1D(p))


def test_dense_matches_mpmath_oracle(c1_operator):
    sp = ts.solve_dense(c1_operator)
    np.testing.assert_allclose(sp.eigenvalues, MPMATH_ORACLE_C1,
                               rtol=0.0, atol=1e-12)


def test_dense_residual_invariant(spectrum729):
    assert spectrum729.max_residual_ratio() < 1e-8


def test_dense_metadata(spectrum729):
    assert spectrum729.method == "dense"
    assert spectrum729.sector_key == "P=0"
    assert spectrum729.k == 729


def test_dense_threshold_guard(operator729, monkeypatch):
    """solve_dense refuses, before any solve, vectors over the output budget."""
    assert eigensolve.DENSE_OUTPUT_BYTES == 2 ** 28
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", 8 * 729 ** 2 - 1)
    with pytest.raises(ts.ResourceLimitError, match="729 x 729 eigenvectors"):
        ts.solve_dense(operator729)


def test_eigenvector_orthonormality(spectrum729, rng):
    cols = rng.choice(729, size=40, replace=False)
    v = spectrum729.eigenvectors[:, cols]
    np.testing.assert_allclose(v.T @ v, np.eye(40), atol=1e-12)


# ---------------------------------------------------------------------------
# dsyevd in place


def test_dsyevd_binding_is_found():
    """numpy's wheel bundles OpenBLAS with the ILP64 scipy_dsyevd_64_; a
    numpy that renames or drops it sends every dense solve to the
    numpy.linalg.eigh fallback, and fails here."""
    _, name = eigensolve._dsyevd()
    assert name.startswith("scipy_dsyevd_64_ in libscipy_openblas64_")
    assert eigensolve._eigh(np.eye(1))[2] == name


def _assert_numpys_to_the_bit(h):
    """_eigh(h) gives numpy.linalg.eigh(h)'s arrays; numpy's are taken
    first, since _eigh writes its vectors over h."""
    want_evals, want_vecs = np.linalg.eigh(h)
    evals, vecs, _ = eigensolve._eigh(h)
    assert np.array_equal(evals, want_evals)
    assert np.array_equal(vecs, want_vecs)
    assert vecs.flags.f_contiguous


@pytest.mark.parametrize("n", [0, 1, 2, 300])
def test_in_place_dsyevd_is_numpys_eigh_to_the_bit(rng, n):
    a = rng.standard_normal((n, n))
    _assert_numpys_to_the_bit(a + a.T)


@pytest.mark.parametrize("n", [2, 300])
def test_in_place_dsyevd_reads_only_the_lower_triangle(rng, n):
    """A matrix whose upper triangle differs from its lower one gives
    numpy's arrays too: both read the lower triangle alone."""
    _assert_numpys_to_the_bit(rng.standard_normal((n, n)))


@pytest.mark.parametrize("layout", ["C-order", "F-order", "read-only"])
def test_in_place_dsyevd_consumes_only_a_writable_c_order_input(rng, layout):
    """The vectors overwrite a C-order, writable float64 block; any other
    input is copied once and left as it was."""
    a = rng.standard_normal((70, 70))
    h = {"C-order": a, "F-order": np.asfortranarray(a), "read-only": a.copy()}[layout]
    h.flags.writeable = layout != "read-only"
    before = h.copy()
    want_evals, want_vecs = np.linalg.eigh(h)
    evals, vecs, _ = eigensolve._eigh(h)
    assert np.array_equal(evals, want_evals)
    assert np.array_equal(vecs, want_vecs)
    if layout == "C-order":
        assert np.shares_memory(vecs, h)
    else:
        assert not np.shares_memory(vecs, h)
        assert h.tobytes() == before.tobytes()


@pytest.mark.parametrize("dimension", ["1d", "3d"])
def test_in_place_dsyevd_is_numpys_eigh_on_every_block(dimension):
    """Every symmetry block of the 1D sector at heavy_cutoff 8 and of the 3D
    one at cutoff_sq 3."""
    if dimension == "1d":
        plain = _operator_1d(8)
    else:
        p = ts.ModelParams(cutoff_sq=3)
        plain = ts.HamiltonianOperator3D(ts.sector_3d(p, (0, 0, 0)), ts.MatrixElementRule3D(p))
    for block in ts.symmetry_blocks(plain.sector):
        _assert_numpys_to_the_bit(ts.SymmetrizedOperator3D(block, plain).dense())


def test_fallback_without_the_binding_solves_the_same(monkeypatch):
    """With no bundled dsyevd (a numpy built against MKL, Accelerate or a
    system BLAS), numpy.linalg.eigh runs, gives the same arrays, and the
    spectrum says so."""
    op = _operator_1d(8)
    bound = ts.solve_dense(op)
    monkeypatch.setattr(eigensolve, "_dsyevd", lambda: None)
    fallback = ts.solve_dense(op)
    assert bound.meta["lapack"].startswith("scipy_dsyevd_64_ in ")
    assert fallback.meta["lapack"] == "numpy.linalg.eigh"
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(fallback, name), getattr(bound, name)), name
    assert fallback.eigenvectors.flags.f_contiguous


def test_in_place_dsyevd_failure_is_linalg_error():
    """A block dsyevd cannot solve, or a matrix that is not square, raises
    numpy's LinAlgError, as numpy.linalg.eigh does, which the CLI reports as
    a numerical failure."""
    h = np.full((3, 3), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(h)
    with pytest.raises(np.linalg.LinAlgError, match=r"dsyevd failed \(info [1-9]"):
        eigensolve._eigh(h)
    with pytest.raises(np.linalg.LinAlgError, match=r"square matrix, not \(2, 3\)"):
        eigensolve._eigh(np.zeros((2, 3)))


def _largest_block_operator(plain):
    """The largest symmetry block of plain's sector, from the rows at its
    orbits' lowest states."""
    block = max(ts.symmetry_blocks(plain.sector), key=lambda b: b.dim)
    rows = plain.rows(np.unique(block.orbits[0], return_counts=True)[0])
    return ts.SymmetrizedOperator3D(block, plain, rows)


def test_dense_solve_peak_is_the_block_its_copy_and_the_workspace():
    """solve_dense of the largest block at heavy_cutoff 24 (dim 625) and at
    cutoff_sq 10 (dim 828) peaks, traced, at three dim x dim arrays: the
    block, whose entries dsyevd overwrites with the vectors, and dsyevd's
    1 + 6 n + 2 n^2 workspace; then the vectors, the block built again and
    H V - E V, squared in place.  3.12-3.17 times 8 n^2.  With a
    Fortran-order copy for dsyevd and np.linalg.norm's square beside
    H V - E V it was 4.02, and through numpy.linalg.eigh's own copy and
    output 4.52."""
    import tracemalloc

    p1, p3 = ts.ModelParams(heavy_cutoff=24), ts.ModelParams(cutoff_sq=10)
    cases = [(ts.HamiltonianOperator1D(ts.enumerate_basis_1d(p1, 0),
                                       ts.MatrixElementRule1D(p1)), 625),
             (ts.HamiltonianOperator3D(ts.sector_3d(p3, (0, 0, 0)),
                                       ts.MatrixElementRule3D(p3)), 828)]
    eigensolve._dsyevd()    # looked up before tracing, as after a run's first block
    for plain, dim in cases:
        op = _largest_block_operator(plain)
        n = op.dim
        assert n == dim
        tracemalloc.start()
        try:
            spec = ts.solve_dense(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.k == n
        assert peak <= 3.25 * 8 * n * n, (dim, peak / (8 * n * n))


@pytest.mark.parametrize("overflow", [False, True])
@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_residuals_are_numpys_norm_to_the_bit(rng, kind, overflow):
    """_residuals gives np.linalg.norm(H V - E V, axis=0) bit for bit, for a
    dense block and for a block's CSR matrix, and also where a square
    overflows to inf."""
    import scipy.sparse

    a = rng.standard_normal((150, 150)) * (1e160 if overflow else 1.0)
    h = a + a.T
    evals, vecs = np.linalg.eigh(h)
    vecs = vecs + 1e-3 * rng.standard_normal(vecs.shape)   # residuals well above rounding
    if kind == "csr":
        h = scipy.sparse.csr_array(h)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linalg.norm(h @ vecs - vecs * evals, axis=0)
    got = eigensolve._residuals(h, evals, vecs)
    assert np.array_equal(got, want)
    assert np.isinf(want).any() == overflow


# ---------------------------------------------------------------------------
# canonicalization


def test_sign_convention(spectrum729):
    """Each column's first entry within a relative 1e-8 of its largest
    magnitude is positive."""
    v = spectrum729.eigenvectors
    mag = np.abs(v)
    first = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    assert np.all(v[first, np.arange(v.shape[1])] > 0)
    # symmetry ties the largest magnitudes of many columns, which rounding
    # alone would otherwise order
    tied = np.sum(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0) > 1
    assert tied.sum() > 100


def test_sign_does_not_depend_on_the_seed(operator729, spectrum729):
    """Iterative vectors whose largest magnitudes are tied by symmetry get
    the same sign for every start vector, and the dense solve's."""
    a = ts.solve_iterative(operator729, 8, seed=0)
    b = ts.solve_iterative(operator729, 8, seed=1)
    np.testing.assert_allclose(b.eigenvectors, a.eigenvectors, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(a.eigenvectors, spectrum729.eigenvectors[:, :8],
                               rtol=0.0, atol=1e-11)


def test_canonicalize_deterministic(c1_operator, rng):
    h = c1_operator.dense()
    vals, vecs = np.linalg.eigh(h)
    # scramble signs and re-canonicalize
    flips = np.where(rng.random(len(vals)) < 0.5, -1.0, 1.0)
    v1, w1 = ts.canonicalize(vals.copy(), vecs * flips)
    v2, w2 = ts.canonicalize(vals.copy(), vecs.copy())
    np.testing.assert_allclose(w1, w2, atol=1e-14)
    np.testing.assert_allclose(v1, v2, atol=0.0)


def test_canonicalize_degenerate_cluster():
    """A 2-fold degenerate block must come out basis-independent."""
    vals = np.array([1.0, 2.0, 2.0, 5.0])
    base = np.eye(4)
    theta = 0.73
    rot = np.eye(4)
    rot[1, 1] = rot[2, 2] = np.cos(theta)
    rot[1, 2] = -np.sin(theta)
    rot[2, 1] = np.sin(theta)
    _, w1 = ts.canonicalize(vals, base.copy())
    _, w2 = ts.canonicalize(vals, base @ rot)
    np.testing.assert_allclose(np.abs(w1), np.abs(w2), atol=1e-12)


def test_canonicalize_generic_cluster_is_rotation_invariant():
    """A 3-fold cluster spanned by no coordinate axes comes out the same
    whatever orthonormal basis of it the solver returned."""
    rng = np.random.default_rng(0)
    vals = np.array([0.0, 1.0, 3.0, 3.0, 3.0, 4.0, 6.0, 7.0])
    base, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    turned = base.copy()
    turned[:, 2:5] = base[:, 2:5] @ rot
    _, w1 = ts.canonicalize(vals, base)
    _, w2 = ts.canonicalize(vals, turned)
    np.testing.assert_allclose(w2, w1, rtol=0.0, atol=1e-12)


def reference_canonicalize(eigenvalues, eigenvectors):
    """canonicalize with its cluster boundaries found by a loop over the
    consecutive spacings, one eigenpair at a time: the oracle for the
    vectorized comparison."""
    evals = np.asarray(eigenvalues, dtype=np.float64)
    vecs = np.asarray(eigenvectors, dtype=np.float64)
    n_pairs = len(evals)
    start = 0
    for stop in range(1, n_pairs + 1):
        at_end = stop == n_pairs
        if not at_end and evals[stop] - evals[stop - 1] <= eigensolve._DEGEN_TOL * max(
                1.0, abs(evals[stop]), abs(evals[stop - 1])):
            continue
        if stop - start > 1:
            block = vecs[:, start:stop]
            new = np.zeros_like(block)
            got = 0
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
    mag = np.abs(vecs)
    lead = np.argmax(mag >= (1.0 - eigensolve._SIGN_TIE) * mag.max(axis=0), axis=0)
    vecs[:, vecs[lead, np.arange(n_pairs)] < 0] *= -1.0
    return evals, vecs


_TOL = 1e-11


def _pairs_at_tolerance(ulps: int, starts=(-3.0, 0.0, 5.0)) -> list[float]:
    """Pairs (e0, e1), e0 in `starts`, whose spacing is the largest within
    the tolerance 1e-11 * max(1, |E|), stepped `ulps` units in the last
    place of e1 up or down."""
    out = []
    for e0 in starts:
        e1 = e0 + _TOL * max(1.0, abs(e0))
        while e1 - e0 <= _TOL * max(1.0, abs(e0), abs(e1)):
            e1 = np.nextafter(e1, np.inf)
        e1 = np.nextafter(e1, -np.inf)
        for _ in range(abs(ulps)):
            e1 = np.nextafter(e1, np.inf if ulps > 0 else -np.inf)
        out += [e0, float(e1)]
    return out


#: spectra whose spacings sit at the tolerance, one ulp under and over it,
#: and across a nan; a cluster merges only where its spacings are within
#: the tolerance, and a nan spacing ends one
_SPACED_SPECTRA = {
    "at": (_pairs_at_tolerance(0, [-3.0]) + [0.0, _TOL, 2 * _TOL]
           + _pairs_at_tolerance(0, [5.0])),
    "under": _pairs_at_tolerance(-1),
    "over": _pairs_at_tolerance(1),
    "nan": [0.0, 0.5 * _TOL, np.nan, 1.0, 1.0 + 0.5 * _TOL, 1.0 + _TOL],
}


@pytest.mark.parametrize("name", list(_SPACED_SPECTRA))
def test_canonicalize_clusters_match_the_spacing_loop(name):
    """The vectorized cluster boundaries give the loop's vectors bit for bit."""
    assert eigensolve._DEGEN_TOL == _TOL
    vals = np.array(_SPACED_SPECTRA[name])
    base, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(len(vals),) * 2))
    got_vals, got = ts.canonicalize(vals.copy(), base.copy())
    want_vals, want = reference_canonicalize(vals.copy(), base.copy())
    np.testing.assert_array_equal(got_vals, want_vals)
    assert got.tobytes() == want.tobytes()


def test_canonicalize_sign_step_keeps_signed_zeros():
    """The in-place multiply by each column's sign gives the fancy-indexed
    flip's bits: a flipped column's zeros change sign, and the others keep
    theirs."""
    vecs = np.random.default_rng(3).normal(size=(8, 8))
    vecs[::3] = 0.0
    vecs[1::3, ::2] = -0.0
    vecs[:, 1] = 0.0
    vecs[2, 1] = -1.0
    vals = np.arange(8.0)
    _, got = ts.canonicalize(vals.copy(), vecs.copy())
    _, want = reference_canonicalize(vals.copy(), vecs.copy())
    assert got.tobytes() == want.tobytes()
    flipped = np.signbit(got) != np.signbit(vecs)
    assert flipped[:, 1].all() and not flipped.all(axis=0).all()
    assert (np.signbit(got) & (got == 0)).any()


def test_canonicalize_keeps_near_degenerate_pairs_apart():
    """Gaps far above the relative tolerance must not be mixed."""
    vals = np.array([1.0, 1.0 + 1e-6])
    vecs = np.eye(2)
    _, w = ts.canonicalize(vals, vecs.copy())
    np.testing.assert_allclose(w, np.eye(2), atol=0.0)


def test_exact_degeneracies_in_paper_spectrum(spectrum729):
    gaps = np.diff(spectrum729.eigenvalues)
    assert np.any(gaps == 0.0)
    assert np.all(gaps >= 0.0)


# ---------------------------------------------------------------------------
# symmetry-block solver


def _operator_1d(heavy_cutoff, total_momentum=0):
    p = ts.ModelParams(heavy_cutoff=heavy_cutoff)
    sec = ts.enumerate_basis_1d(p, total_momentum)
    return ts.HamiltonianOperator1D(sec, ts.MatrixElementRule1D(p))


def _assert_same_spectrum(got, expected):
    np.testing.assert_array_less(
        np.abs(got - expected), 1e-12 * np.maximum(1.0, np.abs(expected)))


def _solve_by_blocks(op, blocks):
    """Every block S^T H S solved densely and merged in block coordinates,
    as the dense CLI route does."""
    parts = ((block.label, ts.solve_dense(ts.SymmetrizedOperator3D(block, op)))
             for block in blocks)
    return ts.merge_blocks(op.sector.key, parts)


@pytest.mark.parametrize("heavy_cutoff", [5, 13])
def test_blocks_drop_no_degenerate_copy(heavy_cutoff):
    """The four P = 0 blocks together hold every eigenvalue of the sector,
    and their vectors, embedded, are eigenvectors of the plain operator."""
    op = _operator_1d(heavy_cutoff)
    blocks = ts.symmetry_blocks(op.sector)
    assert [label for label, _ in blocks] == ["sym even", "sym odd",
                                               "anti even", "anti odd"]
    dims = [s.shape[1] for _, s in blocks]
    assert sum(dims) == op.dim
    q = np.hstack([s.toarray() for _, s in blocks])
    np.testing.assert_allclose(q.T @ q, np.eye(op.dim), rtol=0.0, atol=1e-15)

    split, labels, offsets = _solve_by_blocks(op, blocks)
    _assert_same_spectrum(split.eigenvalues, ts.solve_dense(op).eigenvalues)
    assert split.meta["block_dimensions"] == dict(zip(
        [label for label, _ in blocks], dims))
    assert split.method == "dense"
    assert split.max_residual_ratio() < 1e-8
    isometry = dict(blocks)
    for j, (label, start) in enumerate(zip(labels, offsets)):
        s = isometry[str(label)]
        v = s @ split.eigenvectors[start:start + s.shape[1]]
        e = split.eigenvalues[j]
        assert np.linalg.norm(op.matrix @ v - e * v) < 1e-8 * max(1.0, abs(e))


def test_blocks_at_nonzero_momentum_split_by_exchange_only():
    """Off P = 0, inversion maps p to P + n1 + n2, so only exchange splits."""
    op = _operator_1d(5, total_momentum=1)
    blocks = ts.symmetry_blocks(op.sector)
    assert [label for label, _ in blocks] == ["sym", "anti"]
    assert [s.shape[1] for _, s in blocks] == [
        half.dim for half in ts.symmetrize_sector(op.sector)]
    split, _, _ = _solve_by_blocks(op, blocks)
    _assert_same_spectrum(split.eigenvalues, ts.solve_dense(op).eigenvalues)


def test_block_output_budget_refuses_before_solving(monkeypatch):
    """The dense budget charges the blocks' own vectors, 8 sum(m^2) bytes,
    not a plain-basis array: it admits them exactly and refuses one byte
    less, naming every block, although each block alone would still fit."""
    op = _operator_1d(5)
    blocks = ts.symmetry_blocks(op.sector)
    dims = [s.shape[1] for _, s in blocks]
    assert dims == [36, 30, 25, 30]
    need = 8 * sum(m * m for m in dims)
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", need)
    assert eigensolve.dense_budget_error(dims) is None
    assert _solve_by_blocks(op, blocks)[0].k == 121
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", need - 1)
    error = eigensolve.dense_budget_error(dims)
    assert isinstance(error, ts.ResourceLimitError)
    assert "36 x 36 + 30 x 30 + 25 x 25 + 30 x 30 eigenvectors" in str(error)
    assert all(eigensolve.dense_budget_error([m]) is None for m in dims)


def test_choose_solver_routes_all_blocks_once(monkeypatch):
    """auto takes the dense solver, with no cut, while the blocks' vectors
    fit the output budget, and the iterative one, cut at k, past it; an
    explicit dense past it is refused naming every block; iterative is
    always iterative, with its k, tol and seed."""
    op = _operator_1d(5)
    dims = [block.dim for block in ts.symmetry_blocks(op.sector)]
    need = 8 * sum(m * m for m in dims)
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", need)
    assert eigensolve.choose_solver("auto", dims, 8) == (ts.solve_dense, None)
    assert eigensolve.choose_solver("dense", dims, 8) == (ts.solve_dense, None)
    solver, cut = eigensolve.choose_solver("iterative", dims, 6, tol=1e-9, seed=3)
    spec = solver(op)
    assert (spec.method, spec.k, spec.meta["seed"], cut) == ("lanczos", 6, 3, 6)
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", need - 1)
    solver, cut = eigensolve.choose_solver("auto", dims, 8)
    assert (solver(op).method, cut) == ("lanczos", 8)
    with pytest.raises(ts.ResourceLimitError,
                       match=r"^36 x 36 \+ 30 x 30 \+ 25 x 25 \+ 30 x 30 eigenvectors"):
        eigensolve.choose_solver("dense", dims, 8)
    # the solvers are looked up when the route is chosen, so a wrapper
    # installed on the module (as a tracer does) sees every block
    wrapped = object()
    monkeypatch.setattr(eigensolve, "solve_dense", wrapped)
    assert eigensolve.choose_solver("dense", [1], 8) == (wrapped, None)


# ---------------------------------------------------------------------------
# iterative solver


def test_iterative_matches_dense(spectrum729, operator729):
    sp = ts.solve_iterative(operator729, k=6, tol=1e-10, seed=0)
    np.testing.assert_allclose(sp.eigenvalues, spectrum729.eigenvalues[:6],
                               atol=1e-8)
    assert sp.method == "lanczos"
    assert np.all(sp.residuals <= 1e-10 * np.maximum(
        1.0, np.abs(sp.eigenvalues)))


def test_iterative_matches_oracle(c1_operator):
    sp = ts.solve_iterative(c1_operator, k=3, tol=1e-12, seed=2)
    np.testing.assert_allclose(sp.eigenvalues, MPMATH_ORACLE_C1[:3],
                               atol=1e-10)


def test_iterative_seed_reproducible(operator729):
    a = ts.solve_iterative(operator729, k=4, seed=7)
    b = ts.solve_iterative(operator729, k=4, seed=7)
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=0.0)
    np.testing.assert_allclose(a.eigenvectors, b.eigenvectors, atol=0.0)


def test_iterative_failure_carries_partial_results(operator729):
    with pytest.raises(ts.IterationError) as exc:
        ts.solve_iterative(operator729, k=6, tol=1e-14, seed=0)
    err = exc.value
    assert err.eigenvalues is not None
    assert len(err.eigenvalues) == 6
    assert err.residuals is not None


def test_iterative_cluster_straddling_k_matches_dense():
    """A degenerate pair cut by k gets the dense solve's representative,
    sign included, whatever the seed."""
    p = ts.ModelParams(cutoff_sq=2)
    sec = ts.sector_3d(p, (0, 0, 0))
    plain = ts.HamiltonianOperator3D(sec, ts.MatrixElementRule3D(p), cutoff_sq=2)
    block = next(b for b in ts.symmetry_blocks(sec) if b.label == "sym +x +y +z")
    op = ts.SymmetrizedOperator3D(block, plain)
    dense = ts.solve_dense(op)
    e = dense.eigenvalues
    assert e[2] - e[1] < 1e-12 < e[1] - e[0]
    for seed in (0, 3):
        sp = ts.solve_iterative(op, k=2, seed=seed)
        np.testing.assert_allclose(sp.eigenvectors, dense.eigenvectors[:, :2],
                                   rtol=0.0, atol=1e-10)


def test_iterative_arpack_failure_carries_partial_results(operator729, monkeypatch):
    """ARPACK's no-convergence error becomes IterationError with the pairs
    it did converge, lowest first, and their true residuals."""
    import scipy.sparse.linalg

    vals, vecs = np.linalg.eigh(operator729.dense())

    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", vals[[2, 0]], vecs[:, [2, 0]])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(ts.IterationError, match="^no convergence") as exc:
        ts.solve_iterative(operator729, k=6, seed=0)
    np.testing.assert_array_equal(exc.value.eigenvalues, vals[[0, 2]])
    assert np.all(exc.value.residuals < 1e-10)


# ---------------------------------------------------------------------------
# bands


def test_band_assembly(bands729, spectrum729):
    assert bands729[0].band_id == 1
    sizes = [b.size for b in bands729[:4]]
    assert sizes == [27, 52, 50, 48]
    assert bands729[0].head == spectrum729.eigenvalues[0]
    assert bands729[0].top == pytest.approx(-0.905343432679072, abs=1e-9)
    # contiguous, exhaustive cover; stop is inclusive
    assert bands729[0].start == 0
    for prev, cur in zip(bands729, bands729[1:]):
        assert cur.start == prev.stop + 1
    assert bands729[-1].stop == 728


def test_band_gap_definition(bands729, spectrum729):
    vals = spectrum729.eigenvalues
    for prev, cur in zip(bands729, bands729[1:]):
        assert vals[cur.start] - vals[cur.start - 1] > 2.0


def test_band_single_state():
    bands = ts.assemble_bands(np.array([1.0]), 2.0)
    assert len(bands) == 1
    assert bands[0].size == 1
    assert bands[0].head == bands[0].top == 1.0


def test_band_rejects_unsorted():
    with pytest.raises(ValueError):
        ts.assemble_bands(np.array([1.0, 0.5]), 2.0)


def test_band_id_per_state(bands729):
    ids = ts.band_id_per_state(729, bands729)
    assert len(ids) == 729
    assert ids[0] == 1
    assert ids[26] == 1
    assert ids[27] == 2


def test_merge_blocks_orders_stably_and_flattens():
    """Equal eigenvalues keep block order, k cuts the merged list, and each
    block's vectors land, column after column, in one unpadded flat array."""
    a = ts.Spectrum("a", np.array([1.0, 3.0]), np.array([[1.0, 2.0], [3.0, 4.0]]),
                    np.array([1e-15, 2e-15]), "dense", meta={"dim": 2})
    b = ts.Spectrum("b", np.array([1.0, 2.0, 5.0]), np.arange(9.0).reshape(3, 3),
                    np.array([3e-15, 4e-15, 5e-15]), "dense", meta={"dim": 3})
    merged, labels, offsets = ts.merge_blocks(
        "P=0 sym", iter([("a", a), ("b", b)]), k=4)
    assert merged.sector_key == "P=0 sym"
    assert list(merged.eigenvalues) == [1.0, 1.0, 2.0, 3.0]
    assert list(labels) == ["a", "b", "b", "a"]
    np.testing.assert_array_equal(merged.residuals, [1e-15, 3e-15, 4e-15, 2e-15])
    np.testing.assert_array_equal(merged.eigenvectors,
                                  [1, 3, 2, 4, 0, 3, 6, 1, 4, 7, 2, 5, 8])
    assert list(offsets) == [0, 4, 7, 2]
    for label, start, spec in zip(labels, offsets, (a, b, b, a)):
        m = spec.eigenvectors.shape[0]
        assert any(np.array_equal(merged.eigenvectors[start:start + m], col)
                   for col in spec.eigenvectors.T)
    assert merged.meta["block_dimensions"] == {"a": 2, "b": 3}
    assert ts.merge_blocks("P=0 sym", [("a", a), ("b", b)])[0].k == 5
    # sum over blocks of m * (pairs the block kept), whatever k cuts: a
    # block solved for 2 of its 3 pairs spools 6 entries
    c = ts.Spectrum("c", np.array([0.5, 4.0]), np.arange(6.0).reshape(3, 2),
                    np.zeros(2), "lanczos")
    cut = ts.merge_blocks("P=0 sym", [("a", a), ("c", c)], k=3)[0]
    assert cut.eigenvectors.size == 2 * 2 + 3 * 2


def test_merge_blocks_holds_one_block_at_a_time():
    """Each block's vectors are spooled to a temporary file as the block
    arrives: over 16 blocks of 300 x 300 made on demand, merge_blocks'
    traced peak stays below three blocks' bytes (a flat array of every
    block's vectors would be 16), and the vectors read back whole."""
    import tempfile  # noqa: F401  (loaded before tracing, as in a run)
    import tracemalloc

    m, n_blocks = 300, 16

    def parts():
        for i in range(n_blocks):
            yield f"b{i}", ts.Spectrum(f"b{i}", np.arange(m) + float(i),
                                       np.full((m, m), float(i), order="F"),
                                       np.zeros(m), "dense")

    tracemalloc.start()
    try:
        merged = ts.merge_blocks("P=0", parts())[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * m * m
    np.testing.assert_array_equal(merged.eigenvectors,
                                  np.repeat(np.arange(float(n_blocks)), m * m))


def _archive_members(path):
    """{member name: bytes} of a zip archive, in the archive's order."""
    with zipfile.ZipFile(path) as npz:
        assert {info.compress_type for info in npz.infolist()} == {zipfile.ZIP_STORED}
        return {name: npz.read(name) for name in npz.namelist()}


@pytest.mark.parametrize("read_first", [False, True], ids=["spooled", "read"])
def test_write_archive_writes_np_savez_members(tmp_path, read_first):
    """Every member write_archive writes holds the bytes np.savez writes for
    the same arrays, in savez's order, whether the merged vectors are still
    spooled or were read back before the write."""
    op = _operator_1d(5)
    params = op.rule.params
    spec, labels, offsets = solved = _solve_by_blocks(op, ts.symmetry_blocks(op.sector))
    if read_first:
        spec.eigenvectors
    band_ids = np.arange(spec.k) % 3
    eigensolve.write_archive(str(tmp_path / "written.npz"), op.sector, params, solved,
                             band_ids=band_ids)
    sector = op.sector
    np.savez(tmp_path / "saved.npz",
             eigenvalues=spec.eigenvalues, eigenvectors=spec.eigenvectors,
             residuals=spec.residuals, block=labels, offset=offsets,
             n1=sector.n1, n2=sector.n2, p=sector.p,
             total_momentum=np.atleast_1d(np.asarray(sector.total_momentum,
                                                     dtype=np.int64)),
             dimension=np.array("1d"),
             params=np.array(json.dumps(ts.config.params_dict(params))),
             band_ids=band_ids)
    written = _archive_members(tmp_path / "written.npz")
    assert list(written) == [f"{name}.npy" for name in (
        "eigenvalues", "eigenvectors", "residuals", "block", "offset", "n1", "n2",
        "p", "total_momentum", "dimension", "params", "band_ids")]
    assert written == _archive_members(tmp_path / "saved.npz")


def test_load_archive_round_trips_a_spooled_spectrum(tmp_path):
    """An archive written from a merged spectrum's spool loads back with its
    arrays, model, sector and blocks."""
    op = _operator_1d(5)
    blocks = ts.symmetry_blocks(op.sector)
    spec, labels, offsets = solved = _solve_by_blocks(op, blocks)
    path = str(tmp_path / "eigenvectors.npz")
    eigensolve.write_archive(path, op.sector, op.rule.params, solved)
    data, params, sector, archived = ts.load_archive(path)
    np.testing.assert_array_equal(data["eigenvectors"], spec.eigenvectors)
    np.testing.assert_array_equal(data["eigenvalues"], spec.eigenvalues)
    np.testing.assert_array_equal(data["residuals"], spec.residuals)
    np.testing.assert_array_equal(data["block"], labels)
    np.testing.assert_array_equal(data["offset"], offsets)
    assert params == op.rule.params
    assert sector.key == op.sector.key
    np.testing.assert_array_equal(sector.p, op.sector.p)
    assert list(archived) == [block.label for block in blocks]


def test_load_archive_round_trips_a_3d_sector(tmp_path):
    """A 3D solve's archive loads back to a Sector with the solve's key,
    total momentum and labels, and the blocks it was solved in."""
    params = ts.ModelParams(cutoff_sq=2)
    run = ts.solve_sector(params, (1, -1, 0), method="dense")
    path = str(tmp_path / "eigenvectors_anti.npz")
    eigensolve.write_archive(path, run.sector, params, run.groups["anti"])
    data, loaded, sector, archived = ts.load_archive(path)
    assert loaded == params
    assert type(sector) is ts.Sector
    assert sector.total_momentum == (1, -1, 0)
    assert sector.key == run.sector.key == "P=(1,-1,0)"
    for name in ("n1", "n2", "p"):
        np.testing.assert_array_equal(getattr(sector, name), getattr(run.sector, name))
    assert list(archived) == [block.label for block in run.blocks]
    np.testing.assert_array_equal(data["block"], run.groups["anti"][1])


# ---------------------------------------------------------------------------
# Cauchy interlacing across cutoffs


def _block_levels(params, total_momentum) -> dict[str, np.ndarray]:
    """Each symmetry block's full spectrum, ascending, from a dense solve."""
    solution = ts.solve_sector(params, total_momentum, method="dense")
    levels = {}
    for spectrum, labels, _ in solution.groups.values():
        for label in dict.fromkeys(labels):
            levels[str(label)] = spectrum.eigenvalues[labels == label]
    return levels


PRODUCT = ts.LightCutoffMode.PRODUCT_FILTER


@pytest.mark.parametrize("total_momentum, models", [
    ((0, 0, 0), [ts.ModelParams(cutoff_sq=c) for c in range(2, 10)]),
    ((1, 0, 0), [ts.ModelParams(cutoff_sq=c) for c in range(2, 7)]),
    (0, [ts.ModelParams(heavy_cutoff=c) for c in range(5, 17)]),
    (0, [ts.ModelParams(heavy_cutoff=c, light_cutoff_mode=PRODUCT) for c in range(5, 17)])],
    ids=["3d-P000-cutoff_sq-2-9", "3d-P100-cutoff_sq-2-6",
         "1d-derived-heavy_cutoff-5-16", "1d-product-filter-heavy_cutoff-5-16"])
def test_block_spectra_interlace_across_cutoffs(total_momentum, models):
    """The couplings do not depend on the cutoff, and a sector at one cutoff
    is a subset of the next, closed under each symmetry map, so each block
    at c is a principal submatrix of the same block at c + 1.  By Cauchy's
    interlacing theorem its n levels then lie between those of the m at
    c + 1: b[j] <= a[j] <= b[j + m - n], here within 1e-10 max(1, |E|)."""
    chain = [_block_levels(params, total_momentum) for params in models]
    for step, (small, large) in enumerate(zip(chain, chain[1:])):
        assert set(small) <= set(large), step
        for label, a in small.items():
            b = large[label]
            slack = 1e-10 * np.maximum(1.0, np.abs(a))
            where = f"block {label!r}, step {step} of the chain"
            assert np.all(b[:len(a)] <= a + slack), where
            assert np.all(a <= b[len(b) - len(a):] + slack), where
