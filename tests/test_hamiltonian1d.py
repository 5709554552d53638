"""1D Hamiltonian matrix elements against an independent quadrature oracle.

The oracle evaluates the defining pair-potential integral numerically on a
periodic grid instead of using the tabulated Fourier coefficients.  The
trapezoid rule on a full period is exact for trigonometric polynomials, so
the comparison is at machine precision.
"""

from fractions import Fraction

import numpy as np
import pytest

import triscar as ts
from triscar.hamiltonian1d import f1


# ---------------------------------------------------------------------------
# Fourier coefficients of the pair potential


def test_f1_rationals():
    assert f1(0) == Fraction(1, 2)
    assert f1(2) == Fraction(1, 4)
    assert f1(-2) == Fraction(1, 4)
    for alpha in (1, -1, 3, 4, -5):
        assert f1(alpha) == 0


# ---------------------------------------------------------------------------
# quadrature oracle


def _pair_integral(delta: int, params) -> float:
    """(1/L) * integral over one period of e^{i 2 pi delta u / L} V(u).

    V(u) = (g / 2L) (1 + cos(2 pi u / L)).  512 grid points keep the
    trapezoid rule exact for this integrand.
    """
    n = 512
    L = params.box_length
    u = L * np.arange(n) / n
    v = (params.coupling / (2.0 * L)) * (1.0 + np.cos(2.0 * np.pi * u / L))
    phase = np.exp(2j * np.pi * delta * u / L)
    val = np.sum(phase * v) / n
    assert abs(val.imag) < 1e-18
    return float(val.real)


def quadrature_element(bra, ket, params) -> float:
    """Plane-wave matrix element from numerical integrals.

    The Kronecker deltas below are plane-wave orthogonality; the radial
    integrals come from _pair_integral, not from the f1 table.
    """
    scale = params.energy_scale
    el = 0.0
    if (bra.n1, bra.n2, bra.p) == (ket.n1, ket.n2, ket.p):
        k = (2.0 * np.pi / params.box_length) ** 2
        el += k * (ket.n1 ** 2 + ket.n2 ** 2 + ket.p ** 2 / params.gamma)
    if bra.p == ket.p and bra.n1 + bra.n2 == ket.n1 + ket.n2:
        el += _pair_integral(bra.n1 - ket.n1, params)
    if bra.n2 == ket.n2 and bra.n1 + bra.p == ket.n1 + ket.p:
        el -= _pair_integral(bra.n1 - ket.n1, params)
    if bra.n1 == ket.n1 and bra.n2 + bra.p == ket.n2 + ket.p:
        el -= _pair_integral(bra.n2 - ket.n2, params)
    return el * scale


@pytest.fixture(scope="module")
def small_sector():
    p = ts.ModelParams(heavy_cutoff=2)
    return p, ts.enumerate_basis_1d(p, 0)


def test_elements_match_quadrature(small_sector):
    params, sec = small_sector
    rule = ts.MatrixElementRule1D(params)
    for i in range(sec.dim):
        for j in range(sec.dim):
            got = ts.matrix_element_1d(sec.state(i), sec.state(j), rule)
            want = quadrature_element(sec.state(i), sec.state(j), params)
            assert got == pytest.approx(want, abs=1e-10)


def test_operator_dense_matches_elements(small_sector):
    params, sec = small_sector
    rule = ts.MatrixElementRule1D(params)
    op = ts.HamiltonianOperator1D(sec, rule)
    dense = op.dense()
    for i in range(sec.dim):
        for j in range(sec.dim):
            want = ts.matrix_element_1d(sec.state(i), sec.state(j), rule)
            assert dense[i, j] == pytest.approx(want, rel=1e-14, abs=1e-18)


def test_dense_symmetric(operator729):
    h = operator729.dense()
    np.testing.assert_allclose(h, h.T, atol=0.0)


def test_matvec_matches_dense(small_sector, rng):
    params, sec = small_sector
    op = ts.HamiltonianOperator1D(sec, ts.MatrixElementRule1D(params))
    h = op.dense()
    v = rng.standard_normal(sec.dim)
    np.testing.assert_allclose(op.matvec(v), h @ v, rtol=1e-13, atol=1e-16)


def test_matvec_wrapper_checks_shape(small_sector):
    params, sec = small_sector
    op = ts.HamiltonianOperator1D(sec, ts.MatrixElementRule1D(params))
    with pytest.raises(ValueError):
        op.matvec(np.zeros(sec.dim + 1))


def test_origin_diagonal_scaled(params):
    """<000|H|000> has no kinetic part; the three pair averages give
    (g/2L - g/2L - g/2L) * L = -g/2 = -3 in scaled units."""
    sec = ts.enumerate_basis_1d(ts.ModelParams(heavy_cutoff=0), 0)
    op = ts.HamiltonianOperator1D(sec, ts.MatrixElementRule1D(params))
    assert op.dense()[0, 0] == pytest.approx(-3.0, abs=1e-12)


def test_selection_rules(params):
    rule = ts.MatrixElementRule1D(params)
    a = ts.BasisState1D(1, 0, -1)
    # two-unit transfer is not coupled by a single-cosine potential
    b = ts.BasisState1D(3, 0, -3)
    assert ts.matrix_element_1d(a, b, rule) == 0.0
    # momentum-violating pair
    c = ts.BasisState1D(1, 1, -1)
    assert ts.matrix_element_1d(a, c, rule) == 0.0


def test_heavy_heavy_sign_positive(params):
    """The heavy pair repels: its one-unit transfer element is +g/4 scaled."""
    rule = ts.MatrixElementRule1D(params)
    a = ts.BasisState1D(1, -1, 0)
    b = ts.BasisState1D(0, 0, 0)
    got = ts.matrix_element_1d(a, b, rule)
    assert got == pytest.approx(params.coupling / 4.0, rel=1e-14)


def test_heavy_light_sign_negative(params):
    rule = ts.MatrixElementRule1D(params)
    a = ts.BasisState1D(1, 0, -1)
    b = ts.BasisState1D(0, 0, 0)
    got = ts.matrix_element_1d(a, b, rule)
    assert got == pytest.approx(-params.coupling / 4.0, rel=1e-14)


def test_nonzero_triplets_consistent(small_sector):
    params, sec = small_sector
    op = ts.HamiltonianOperator1D(sec, ts.MatrixElementRule1D(params))
    h = np.zeros((sec.dim, sec.dim))
    for i, j, v in op.nonzero_triplets():
        h[i, j] += v
    np.testing.assert_allclose(h, op.dense(), rtol=1e-14, atol=1e-18)


def test_raw_vs_scaled_factor():
    raw = ts.ModelParams(heavy_cutoff=1, scaling=ts.Scaling.RAW)
    scl = ts.ModelParams(heavy_cutoff=1)
    sec_r = ts.enumerate_basis_1d(raw, 0)
    sec_s = ts.enumerate_basis_1d(scl, 0)
    h_r = ts.HamiltonianOperator1D(sec_r, ts.MatrixElementRule1D(raw)).dense()
    h_s = ts.HamiltonianOperator1D(sec_s, ts.MatrixElementRule1D(scl)).dense()
    np.testing.assert_allclose(h_s, h_r * raw.box_length, rtol=1e-13)
