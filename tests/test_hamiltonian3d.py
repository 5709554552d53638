"""3D Hamiltonian: Fourier transfer function, operator assembly, parity blocks.

The F2 reference values below are frozen from a 50-digit mpmath evaluation
of (1 - cos(pi rho a)) / (2 pi a) with rho = 2 (3 / 4 pi)^(1/3).
"""

import numpy as np
import pytest

import triscar as ts
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
    a = ts.BasisState3D((1, 0, 0), (-1, 0, 0), (0, 0, 0))
    b = ts.BasisState3D((0, 0, 0), (0, 0, 0), (0, 0, 0))
    got = ts.matrix_element_3d(a, b, rule)
    want = F2_FROZEN[2.0] / p.box_length * p.energy_scale
    assert got == pytest.approx(want, rel=1e-14)


def test_heavy_light_transfer_sign(c1_setup):
    p, sec, rule = c1_setup
    a = ts.BasisState3D((1, 0, 0), (0, 0, 0), (-1, 0, 0))
    b = ts.BasisState3D((0, 0, 0), (0, 0, 0), (0, 0, 0))
    got = ts.matrix_element_3d(a, b, rule)
    want = -F2_FROZEN[2.0] / p.box_length * p.energy_scale
    assert got == pytest.approx(want, rel=1e-14)


def test_diagonal_purely_kinetic(c1_setup):
    """f2(0) = 0, so the diagonal carries no interaction shift."""
    p, sec, rule = c1_setup
    st = ts.BasisState3D((1, 0, 0), (-1, 0, 0), (0, 0, 0))
    got = ts.matrix_element_3d(st, st, rule)
    want = (2.0 * np.pi / p.box_length) ** 2 * 2.0 * p.energy_scale
    assert got == pytest.approx(want, rel=1e-14)


def test_light_kinetic_mass_factor(c1_setup):
    p, sec, rule = c1_setup
    st = ts.BasisState3D((0, 0, 0), (0, 0, 0), (1, 0, 0))
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


def test_symmetrized_element_oracle(c2_blocks, params, sector3d_c2):
    """Blocked elements agree with the four-image sum evaluated per pair."""
    plain, op_s, op_a, sym, anti = c2_blocks
    rule = ts.MatrixElementRule3D(params)
    h = op_s.dense()
    idx = [0, 5, 17, 43, 87]
    for i in idx:
        for j in idx:
            want = ts.symmetrized_element_3d(
                sector3d_c2, (sym.idx_a[i], sym.idx_b[i]),
                (sym.idx_a[j], sym.idx_b[j]), rule, parity=+1)
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


@pytest.mark.parametrize("parity", [+1, -1])
def test_block_assembly_matches_column_reference(c2_blocks, parity):
    """The sparse S^T H S block equals the column-by-column matvec build exactly."""
    plain, op_s, op_a, sym, anti = c2_blocks
    op, block = (op_s, sym) if parity == 1 else (op_a, anti)
    ref = np.empty((block.dim, block.dim))
    e = np.zeros(block.dim)
    for j in range(block.dim):
        e[j] = 1.0
        ref[:, j] = block.project(plain.matvec(block.embed(e)))
        e[j] = 0.0
    assert np.array_equal(op.dense(), 0.5 * (ref + ref.T))


def test_nonzeros_per_row_c2(c2_blocks):
    plain = c2_blocks[0]
    assert plain.dim == 175
    assert plain.nonzeros_per_row() * plain.dim == 4837


def test_exchange_commutes(params, sector3d_c2):
    """H commutes with the heavy-particle exchange permutation."""
    rule = ts.MatrixElementRule3D(params)
    h = ts.HamiltonianOperator3D(sector3d_c2, rule, cutoff_sq=2).dense()
    perm = sector3d_c2.exchange_map()
    np.testing.assert_allclose(h[np.ix_(perm, perm)], h, atol=1e-18)


def test_full_c1_block_completeness():
    """Eigenvalues of all momentum sectors together match the full matrix."""
    p = ts.ModelParams(cutoff_sq=1)
    rule = ts.MatrixElementRule3D(p)
    sectors = ts.enumerate_basis_3d(p, cutoff_sq=1)
    sector_vals = []
    for sec in sectors.values():
        h = ts.dense_from_elements(sec, rule)
        sector_vals.append(np.linalg.eigvalsh(h))
    got = np.sort(np.concatenate(sector_vals))
    # oracle: one dense matrix over the whole 343-state basis
    states = [st for sec in sectors.values()
              for st in (sec.state(i) for i in range(sec.dim))]
    full = np.zeros((len(states), len(states)))
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            full[i, j] = ts.matrix_element_3d(a, b, rule)
    want = np.linalg.eigvalsh(full)
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# spectator-group assembly and point-group blocks


def reference_operator_matrix(sector, rule, cutoff_sq):
    """The former assembly: one label lookup per transfer q and pair type."""
    from triscar.basis import assemble_csr, enumerate_vectors

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
    return assemble_csr(rule.kinetic_coeff * kin, transfers)


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
        mine = [b for b in blocks if b[0].partition(" ")[0] == half.tag]
        got = np.sort(np.concatenate([
            np.linalg.eigvalsh(ts.SymmetrizedOperator3D(b, plain).dense())
            for b in mine]))
        np.testing.assert_array_less(np.abs(got - want),
                                     1e-12 * np.maximum(1.0, np.abs(want)))


def test_block_assembly_equals_sparse_product(params, sector3d_c2):
    """Rows taken at each orbit's lowest state give S^T H S."""
    plain = ts.HamiltonianOperator3D(sector3d_c2, ts.MatrixElementRule3D(params),
                                     cutoff_sq=2)
    for block in ts.symmetry_blocks(sector3d_c2):
        s = block[1]
        want = (s.T @ (plain.matrix @ s)).toarray()
        got = ts.SymmetrizedOperator3D(block, plain).dense()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())
        assert np.array_equal(got, got.T)
