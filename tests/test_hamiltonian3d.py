"""3D Hamiltonian: Fourier transfer function, operator assembly, parity blocks.

The F2 reference values below are frozen from a 50-digit mpmath evaluation
of (1 - cos(pi rho a)) / (2 pi a) with rho = 2 (3 / 4 pi)^(1/3).
"""

import itertools

import numpy as np
import pytest

import triscar as ts
from triscar import hamiltonian3d
from triscar.hamiltonian3d import f2, RHO

F2_FROZEN = {
    0.0: 0.0,
    1.0: 0.2749336948406208,
    2.0: 0.07493060738431274,
    2.0 * np.sqrt(2.0): 0.05463794121468644,
    4.0: 0.07930612155056337,
}


def test_rho_value():
    assert RHO == pytest.approx(2.0 * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0),
                                rel=1e-15)
    assert RHO == pytest.approx(1.2407009817988, rel=1e-13)


def test_f2_frozen_values():
    for a, want in F2_FROZEN.items():
        assert f2(a) == pytest.approx(want, abs=2e-16)


def test_f2_array_matches_scalar():
    args = np.array([0.0, 1.0, 2.0, 3.5, 2.0 * np.sqrt(2.0)])
    arr = f2(args)
    for i, a in enumerate(args):
        assert arr[i] == f2(float(a))


def test_f2_removable_zero_limit():
    # the a -> 0 limit of the quotient is (pi rho^2 / 4) * a -> 0; stay above
    # the float64 cancellation floor of 1 - cos
    assert f2(1e-5) == pytest.approx(np.pi * RHO ** 2 / 4.0 * 1e-5, rel=1e-5)


# ---------------------------------------------------------------------------
# matrix elements


@pytest.fixture(scope="module")
def c1_setup():
    p = ts.ModelParams(cutoff_sq=1)
    sec = ts.sector_3d(p, (0, 0, 0), cutoff_sq=1)
    return p, sec, ts.MatrixElementRule3D(p)


def test_single_transfer_element(c1_setup):
    """One momentum unit from heavy 1 to heavy 2 carries +f2(2)/L (scaled)."""
    p, sec, rule = c1_setup
    a = ((1, 0, 0), (-1, 0, 0), (0, 0, 0))
    b = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    got = ts.matrix_element_3d(a, b, rule)
    want = F2_FROZEN[2.0] / p.box_length * p.energy_scale
    assert got == pytest.approx(want, rel=1e-14)


def test_heavy_light_transfer_sign(c1_setup):
    p, sec, rule = c1_setup
    a = ((1, 0, 0), (0, 0, 0), (-1, 0, 0))
    b = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    got = ts.matrix_element_3d(a, b, rule)
    want = -F2_FROZEN[2.0] / p.box_length * p.energy_scale
    assert got == pytest.approx(want, rel=1e-14)


def test_diagonal_purely_kinetic(c1_setup):
    """f2(0) = 0, so the diagonal carries no interaction shift."""
    p, sec, rule = c1_setup
    st = ((1, 0, 0), (-1, 0, 0), (0, 0, 0))
    got = ts.matrix_element_3d(st, st, rule)
    want = (2.0 * np.pi / p.box_length) ** 2 * 2.0 * p.energy_scale
    assert got == pytest.approx(want, rel=1e-14)


def test_light_kinetic_mass_factor(c1_setup):
    p, sec, rule = c1_setup
    st = ((0, 0, 0), (0, 0, 0), (1, 0, 0))
    got = ts.matrix_element_3d(st, st, rule)
    want = (2.0 * np.pi / p.box_length) ** 2 / p.gamma * p.energy_scale
    assert got == pytest.approx(want, rel=1e-14)


def test_operator_matches_element_oracle(c1_setup):
    p, sec, rule = c1_setup
    op = ts.HamiltonianOperator3D(sec, rule, cutoff_sq=1)
    direct = ts.dense_from_elements(sec, rule)
    np.testing.assert_allclose(op.dense(), direct, atol=0.0)


def test_hermiticity(c1_setup):
    p, sec, rule = c1_setup
    h = ts.HamiltonianOperator3D(sec, rule, cutoff_sq=1).dense()
    np.testing.assert_allclose(h, h.T, atol=1e-18)


def test_matvec_matches_dense(c1_setup, rng):
    p, sec, rule = c1_setup
    op = ts.HamiltonianOperator3D(sec, rule, cutoff_sq=1)
    h = op.dense()
    v = rng.standard_normal(sec.dim)
    np.testing.assert_allclose(op.matvec(v), h @ v, rtol=1e-13, atol=1e-18)


# ---------------------------------------------------------------------------
# parity blocks


@pytest.fixture(scope="module")
def c2_blocks(params, sector3d_c2):
    rule = ts.MatrixElementRule3D(params)
    plain = ts.HamiltonianOperator3D(sector3d_c2, rule, cutoff_sq=2)
    sym, anti = ts.symmetrize_sector(sector3d_c2)
    return plain, ts.SymmetrizedOperator3D(sym, plain), \
        ts.SymmetrizedOperator3D(anti, plain), sym, anti


def symmetrized_element_3d(sector, bra_entry, ket_entry, rule, parity: int) -> float:
    """Matrix element between exchange eigenstates given as (a, b) pairs.

    Each entry names a state a and its exchange image b (b = a for a
    diagonal state); it is expanded into both with the parity sign and the
    1/(c_bra c_ket) normalization applied.
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
            total += bsign * ksign * ts.matrix_element_3d(bra, ket, rule)
    return total / (c_bra * c_ket)


def test_symmetrized_element_oracle(c2_blocks, params, sector3d_c2):
    """Blocked elements agree with the four-image sum evaluated per pair."""
    plain, op_s, op_a, sym, anti = c2_blocks
    rule = ts.MatrixElementRule3D(params)
    h = op_s.dense()
    # each column stores one state or an exchange pair, lowest row first
    columns = sym.isometry.tocsc()
    columns.sort_indices()
    rows = np.split(columns.indices, columns.indptr[1:-1])
    pair = [(int(r[0]), int(r[-1])) for r in rows]
    # column 68 holds the one diagonal state, n1 = n2 = p = 0
    idx = [0, 5, 17, 43, 68, 87]
    assert any(pair[i][0] == pair[i][1] for i in idx)
    assert any(pair[i][0] != pair[i][1] for i in idx)
    for i in idx:
        for j in idx:
            want = symmetrized_element_3d(sector3d_c2, pair[i], pair[j], rule,
                                          parity=+1)
            assert h[i, j] == pytest.approx(want, rel=1e-12, abs=1e-18)


def test_block_eigenvalues_complete(c2_blocks):
    """sym plus anti spectra reproduce the unsymmetrized spectrum."""
    plain, op_s, op_a, _, _ = c2_blocks
    full = np.linalg.eigvalsh(plain.dense())
    blocks = np.sort(np.concatenate([
        np.linalg.eigvalsh(op_s.dense()),
        np.linalg.eigvalsh(op_a.dense()),
    ]))
    np.testing.assert_allclose(blocks, full, atol=1e-10)


def test_blocks_are_symmetric(c2_blocks):
    _, op_s, op_a, _, _ = c2_blocks
    hs = op_s.dense()
    ha = op_a.dense()
    np.testing.assert_allclose(hs, hs.T, atol=1e-12)
    np.testing.assert_allclose(ha, ha.T, atol=1e-12)


def test_nonzeros_per_row_c2(c2_blocks):
    plain = c2_blocks[0]
    assert plain.dim == 175
    assert plain.nonzeros_per_row() * plain.dim == 4837


def test_exchange_commutes(params, sector3d_c2):
    """H commutes with the heavy-particle exchange permutation."""
    rule = ts.MatrixElementRule3D(params)
    h = ts.HamiltonianOperator3D(sector3d_c2, rule, cutoff_sq=2).dense()
    perm, _ = sector3d_c2.locate(sector3d_c2.n2, sector3d_c2.n1)
    np.testing.assert_allclose(h[np.ix_(perm, perm)], h, atol=1e-18)


def test_full_c1_block_completeness(product_sectors):
    """Eigenvalues of all momentum sectors together match the full matrix."""
    rule = ts.MatrixElementRule3D(ts.ModelParams(cutoff_sq=1))
    sectors = product_sectors(1)
    sector_vals = []
    for sec in sectors.values():
        h = ts.dense_from_elements(sec, rule)
        sector_vals.append(np.linalg.eigvalsh(h))
    got = np.sort(np.concatenate(sector_vals))
    # oracle: one dense matrix over the whole 343-state basis
    states = [(sec.n1[i], sec.n2[i], sec.p[i]) for sec in sectors.values()
              for i in range(sec.dim)]
    full = np.zeros((len(states), len(states)))
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            full[i, j] = ts.matrix_element_3d(a, b, rule)
    want = np.linalg.eigvalsh(full)
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# spectator-group assembly and point-group blocks


def reference_operator_matrix(sector, rule, cutoff_sq):
    """The former assembly: one label lookup per transfer q and pair type,
    as a CSR matrix."""
    from triscar.basis import assemble_triplets, csr_from_triplets, enumerate_vectors

    n1, n2, p = sector.n1, sector.n2, sector.p
    kin = (np.einsum("ij,ij->i", n1, n1) + np.einsum("ij,ij->i", n2, n2)
           + np.einsum("ij,ij->i", p, p) / rule.params.gamma)
    w = rule.interaction_coeff
    transfers = []
    for q in enumerate_vectors(4 * cutoff_sq):
        if not q.any():
            continue
        coeff = w * f2(2.0 * np.linalg.norm(q))
        for t1, t2, sign in ((n1 + q, n2 - q, +1.0), (n1 + q, n2, -1.0),
                             (n1, n2 + q, -1.0)):
            rows, cols = sector.locate(t1, t2)
            transfers.append((rows, cols, sign * coeff))
    triplets = assemble_triplets(np.arange(sector.dim), rule.kinetic_coeff * kin,
                                 transfers)
    return csr_from_triplets(*triplets, (sector.dim, sector.dim))


@pytest.mark.parametrize("cutoff_sq, total, operator_cutoff", [
    (2, (0, 0, 0), 2), (5, (0, 0, 0), 5), (5, (1, -1, 2), 5), (5, (0, 0, 0), 2)])
def test_spectator_assembly_matches_locate_loop(params, cutoff_sq, total,
                                                operator_cutoff):
    """Grouping by spectator label builds the same CSR as one lookup per
    transfer, bit for bit, also when the operator's cutoff is the smaller."""
    sector = ts.sector_3d(params, total, cutoff_sq=cutoff_sq)
    rule = ts.MatrixElementRule3D(params)
    got = ts.HamiltonianOperator3D(sector, rule, cutoff_sq=operator_cutoff).matrix
    want = reference_operator_matrix(sector, rule, operator_cutoff)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("cutoff_sq, total", [(2, (0, 0, 0)), (5, (0, 0, 0)),
                                             (5, (1, 0, 0)), (5, (1, -1, 2)),
                                             (3, (5, 5, 5))])
def test_operator_size_is_exact(params, cutoff_sq, total):
    """operator_size counts, without building the sector, its dimension and
    the nonzeros of the operator on it."""
    from triscar.hamiltonian3d import operator_size

    sector = ts.sector_3d(params, total, cutoff_sq=cutoff_sq)
    op = ts.HamiltonianOperator3D(sector, ts.MatrixElementRule3D(params),
                                  cutoff_sq=cutoff_sq)
    assert operator_size(total, cutoff_sq) == (sector.dim, op.matrix.nnz)
    if (cutoff_sq, total) == (5, (0, 0, 0)):
        assert op.matrix.nnz == 120847
    if total == (5, 5, 5):
        assert sector.dim == 0


def reference_vectors(cutoff_sq):
    """Lattice vectors within the cutoff, by a loop over the enclosing cube."""
    c = int(np.floor(np.sqrt(cutoff_sq)))
    rng = range(-c, c + 1)
    vecs = sorted(v for v in itertools.product(rng, rng, rng)
                  if v[0] * v[0] + v[1] * v[1] + v[2] * v[2] <= cutoff_sq)
    return np.array(vecs, dtype=np.int64).reshape(len(vecs), 3)


def reference_operator_size(total, cutoff_sq):
    """The former count: s(x) by testing every pair of vectors, in chunks."""
    vecs = reference_vectors(cutoff_sq)
    rest = np.asarray(total, dtype=np.int64) - vecs
    sizes = np.empty(len(vecs), dtype=np.int64)
    chunk = max(1, 2 ** 18 // max(len(vecs), 1))
    for a in range(0, len(vecs), chunk):
        pc = rest[a:a + chunk, None, :] - vecs[None, :, :]
        sizes[a:a + chunk] = np.count_nonzero(
            np.einsum("ijk,ijk->ij", pc, pc) <= cutoff_sq, axis=1)
    dim = int(sizes.sum())
    return dim, dim + 3 * int(np.sum(sizes * (sizes - 1)))


@pytest.mark.parametrize("cutoff_sq", [0, 1, 2, 3, 5, 10, 17, 40, 100])
def test_operator_size_matches_pair_count(cutoff_sq):
    """The FFT autocorrelation of the ball gives the pairwise count exactly,
    also for a total momentum whose sector is empty; enumerate_vectors
    gives the cube loop's vectors in its order."""
    from triscar.hamiltonian3d import operator_size

    assert np.array_equal(ts.enumerate_vectors(cutoff_sq), reference_vectors(cutoff_sq))
    far = 3 * int(np.floor(np.sqrt(cutoff_sq))) + 1
    for total in ((0, 0, 0), (1, 0, 0), (1, -1, 2), (far, 0, 1)):
        assert operator_size(total, cutoff_sq) == reference_operator_size(total, cutoff_sq)


@pytest.mark.parametrize("cutoff_sq", [100, 400])
def test_count_bytes_bounds_the_counting_peak(cutoff_sq):
    """count_bytes, which gates solve3d before operator_size runs, covers
    the traced peak of operator_size."""
    import tracemalloc

    from triscar.hamiltonian3d import count_bytes, operator_size

    tracemalloc.start()
    try:
        operator_size((0, 0, 0), cutoff_sq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 * count_bytes(cutoff_sq) <= peak <= count_bytes(cutoff_sq)


def test_operator_size_counts_in_exact_integers(monkeypatch):
    """Spectator groups whose sum of s(s - 1) overflows int64 still count
    exactly: operator_size sums in Python integers."""
    from triscar import hamiltonian3d

    big = 2 ** 32
    monkeypatch.setattr(hamiltonian3d, "enumerate_vectors",
                        lambda cutoff_sq: np.zeros((3, 3), dtype=np.int64))
    monkeypatch.setattr(np.fft, "irfftn", lambda *args, **kwargs: np.full((1, 1, 1), big))
    monkeypatch.setattr(np.fft, "rfftn", lambda *args, **kwargs: np.zeros((1, 1, 1)))
    dim, nnz = hamiltonian3d.operator_size((0, 0, 0), 0)
    assert dim == 3 * big
    assert nnz == 3 * big + 3 * 3 * big * (big - 1)
    assert nnz > np.iinfo(np.int64).max


@pytest.mark.parametrize("cutoff_sq, total", [(2, (0, 0, 0)), (5, (0, 0, 0)),
                                             (2, (1, 0, 0))])
def test_block_spectra_union_equals_exchange_halves(params, cutoff_sq, total):
    """The point-group blocks of each exchange half hold every eigenvalue of
    that half, degenerate copies included, within 1e-12 max(1, |E|)."""
    sector = ts.sector_3d(params, total, cutoff_sq=cutoff_sq)
    plain = ts.HamiltonianOperator3D(sector, ts.MatrixElementRule3D(params),
                                     cutoff_sq=cutoff_sq)
    blocks = ts.symmetry_blocks(sector)
    for half in ts.symmetrize_sector(sector):
        want = np.linalg.eigvalsh(ts.SymmetrizedOperator3D(half, plain).dense())
        mine = [b for b in blocks if b.label.partition(" ")[0] == half.label]
        got = np.sort(np.concatenate([
            np.linalg.eigvalsh(ts.SymmetrizedOperator3D(b, plain).dense())
            for b in mine]))
        np.testing.assert_array_less(np.abs(got - want),
                                     1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("model, total", [
    pytest.param("3d", (0, 0, 0), id="3d-P0"),
    pytest.param("1d", 0, id="1d-P0"),
    pytest.param("1d", 1, id="1d-P1"),
])
def test_block_assembly_equals_sparse_product(params, sector3d_c2, model, total):
    """Rows taken at each orbit's lowest state give S^T H S, for the
    point-group blocks and for the two exchange halves, of the 3D operator
    at cutoff_sq 2 and the 1D operator at heavy_cutoff 5; the block's CSR
    .matrix holds dense() exactly, and so do the rows at the block's lowest
    states alone."""
    if model == "3d":
        plain = ts.HamiltonianOperator3D(sector3d_c2, ts.MatrixElementRule3D(params),
                                         cutoff_sq=2)
    else:
        p = ts.ModelParams(heavy_cutoff=5)
        plain = ts.HamiltonianOperator1D(ts.enumerate_basis_1d(p, total),
                                         ts.MatrixElementRule1D(p))
    sector = plain.sector
    for block in [*ts.symmetry_blocks(sector), *ts.symmetrize_sector(sector)]:
        s = block.isometry
        want = (s.T @ (plain.matrix @ s)).toarray()
        op = ts.SymmetrizedOperator3D(block, plain)
        got = op.dense()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())
        assert np.array_equal(got, got.T)
        assert np.array_equal(op.matrix.toarray(), got)
        lowest_rows = plain.rows(block.orbits[0])
        assert np.array_equal(ts.SymmetrizedOperator3D(block, plain, lowest_rows).dense(), got)


@pytest.mark.parametrize("model, total, sector_cutoff, operator_cutoff", [
    pytest.param("1d", 0, 5, None, id="1d-P0"),
    pytest.param("1d", 1, 5, None, id="1d-P1"),
    pytest.param("1d-product-filter", 1, 5, None, id="1d-product-filter-P1"),
    pytest.param("3d", (0, 0, 0), 5, 5, id="3d-P000"),
    pytest.param("3d", (1, 0, 0), 5, 5, id="3d-P100"),
    pytest.param("3d", (1, -1, 2), 5, 5, id="3d-P1-12"),
    pytest.param("3d", (0, 0, 0), 5, 2, id="3d-operator-cutoff-2"),
])
def test_rows_equal_the_full_assembly_at_those_rows(model, total, sector_cutoff,
                                                    operator_cutoff):
    """rows(states) assembles, bit for bit and in stored order, the entries
    of `triplets` whose row is in states, for any ascending subset."""
    mode = ts.LightCutoffMode(model[3:] or "derived")
    params = ts.ModelParams(heavy_cutoff=sector_cutoff, cutoff_sq=sector_cutoff,
                            light_cutoff_mode=mode)
    if model.startswith("1d"):
        plain = ts.HamiltonianOperator1D(ts.enumerate_basis_1d(params, total),
                                         ts.MatrixElementRule1D(params))
    else:
        plain = ts.HamiltonianOperator3D(ts.sector_3d(params, total),
                                         ts.MatrixElementRule3D(params),
                                         cutoff_sq=operator_cutoff)
    full = plain.triplets
    rng = np.random.default_rng(7)
    subsets = [np.arange(0), np.array([plain.dim // 2])]
    subsets += [np.flatnonzero(rng.random(plain.dim) < share) for share in (0.05, 0.5)]
    for states in subsets:
        keep = np.isin(full[0], states)
        for got, want in zip(plain.rows(states), full):
            assert got.dtype == want.dtype
            assert got.tobytes() == want[keep].tobytes()


@pytest.mark.parametrize("model", ["1d", "3d"])
def test_dense_in_chunks_is_one_bincount(monkeypatch, model):
    """dense() adds its terms by np.add.at, a few at a time, and gives one
    np.bincount over every term, symmetrized, in values and in signed
    zeros, for every block of the 1D sector at heavy_cutoff 6 and of the
    3D one at cutoff_sq 3."""
    if model == "1d":
        p = ts.ModelParams(heavy_cutoff=6)
        plain = ts.HamiltonianOperator1D(ts.enumerate_basis_1d(p, 0),
                                         ts.MatrixElementRule1D(p))
    else:
        p = ts.ModelParams(cutoff_sq=3)
        plain = ts.HamiltonianOperator3D(ts.sector_3d(p, (0, 0, 0)),
                                         ts.MatrixElementRule3D(p))
    monkeypatch.setattr(hamiltonian3d, "_TERMS_CHUNK", 7)
    for block in ts.symmetry_blocks(plain.sector):
        op = ts.SymmetrizedOperator3D(block, plain)
        (keys, weights), = op._terms()
        assert len(keys) > 3 * hamiltonian3d._TERMS_CHUNK
        n = op.dim
        half = np.bincount(keys, weights=weights, minlength=n * n).reshape(n, n)
        want = half + half.T
        got = op.dense()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
