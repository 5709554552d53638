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
