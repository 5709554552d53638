"""Eigensolvers, canonicalization, and band assembly.

MPMATH_ORACLE_C1 holds the nine eigenvalues of the cutoff-1 zero-momentum
sector, scaled, frozen from a 40-digit mpmath.eigsy run on an independently
assembled matrix (analytic Fourier elements, no shared code).
"""

import numpy as np
import pytest

import triscar as ts
from triscar import eigensolve
from triscar.eigensolve import residual_norms

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
    assert spectrum729.meta["hermiticity_defect"] == 0.0


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


def test_residual_norms_definition(c1_operator):
    # recomputation goes through matvec instead of the dense product, so the
    # two paths agree only to accumulation noise
    sp = ts.solve_dense(c1_operator)
    again = residual_norms(c1_operator, sp.eigenvalues, sp.eigenvectors)
    np.testing.assert_allclose(again, sp.residuals, atol=1e-13)


# ---------------------------------------------------------------------------
# canonicalization


def test_sign_convention(spectrum729):
    v = spectrum729.eigenvectors
    lead = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    assert np.all(lead > 0)


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


@pytest.mark.parametrize("heavy_cutoff", [5, 13])
def test_blocks_drop_no_degenerate_copy(heavy_cutoff):
    """The four P = 0 blocks together hold every eigenvalue of the sector."""
    op = _operator_1d(heavy_cutoff)
    blocks = ts.symmetry_blocks(op.sector)
    assert [label for label, _ in blocks] == ["sym even", "sym odd",
                                               "anti even", "anti odd"]
    dims = [s.shape[1] for _, s in blocks]
    assert sum(dims) == op.dim
    q = np.hstack([s.toarray() for _, s in blocks])
    np.testing.assert_allclose(q.T @ q, np.eye(op.dim), rtol=0.0, atol=1e-15)

    split = ts.solve_blocks(op, blocks)
    _assert_same_spectrum(split.eigenvalues, ts.solve_dense(op).eigenvalues)
    assert split.meta["block_dimensions"] == dict(zip(
        [label for label, _ in blocks], dims))
    assert split.method == "dense"
    assert split.max_residual_ratio() < 1e-8


def test_block_and_full_solves_pick_the_same_cluster_vectors(operator729,
                                                           spectrum729):
    """Clustered eigenvectors do not depend on the solver route."""
    blocks = ts.solve_blocks(operator729, ts.symmetry_blocks(operator729.sector))
    evals = spectrum729.eigenvalues
    close = np.diff(evals) <= 1e-11 * np.maximum(
        1.0, np.maximum(np.abs(evals[1:]), np.abs(evals[:-1])))
    clustered = np.zeros(len(evals), dtype=bool)
    clustered[:-1] |= close
    clustered[1:] |= close
    assert clustered.sum() > 100
    overlap = np.abs(np.einsum("ij,ij->j", blocks.eigenvectors[:, clustered],
                               spectrum729.eigenvectors[:, clustered]))
    assert overlap.min() >= 1.0 - 1e-8


def test_blocks_at_nonzero_momentum_split_by_exchange_only():
    """Off P = 0, inversion maps p to P + n1 + n2, so only exchange splits."""
    op = _operator_1d(5, total_momentum=1)
    blocks = ts.symmetry_blocks(op.sector)
    assert [label for label, _ in blocks] == ["sym", "anti"]
    assert [s.shape[1] for _, s in blocks] == [
        half.dim for half in ts.symmetrize_sector(op.sector)]
    split = ts.solve_blocks(op, blocks)
    _assert_same_spectrum(split.eigenvalues, ts.solve_dense(op).eigenvalues)


def test_block_output_budget_refuses_before_solving(monkeypatch):
    """Blocks are small, but the plain-basis eigenvector array is not."""
    op = _operator_1d(5)
    blocks = ts.symmetry_blocks(op.sector)
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", 8 * 121 ** 2)
    assert ts.solve_blocks(op, blocks).k == 121
    monkeypatch.setattr(eigensolve, "DENSE_OUTPUT_BYTES", 8 * 121 ** 2 - 1)
    with pytest.raises(ts.ResourceLimitError, match="dense output budget"):
        ts.solve_blocks(op, blocks)


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


def test_iterative_matvec_count(operator729):
    sp = ts.solve_iterative(operator729, k=6, tol=1e-10, seed=0)
    assert sp.meta["matvecs"] < 3000


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
        "P=0 sym", iter([("a", a), ("b", b)]), 13, k=4)
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
    assert ts.merge_blocks("P=0 sym", [("a", a), ("b", b)], 13)[0].k == 5
    with pytest.raises(ValueError, match="13 vector entries, not 14"):
        ts.merge_blocks("P=0 sym", [("a", a), ("b", b)], 14)
