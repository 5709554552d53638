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
