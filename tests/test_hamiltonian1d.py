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


# ---------------------------------------------------------------------------
# element-by-element reference: the tabulated Fourier weights per state pair


def f1(alpha: int) -> Fraction:
    """Fourier weight of (1 + cos) against e^{i pi alpha u / L}: exact rational."""
    if alpha == 0:
        return Fraction(1, 2)
    if alpha == 2 or alpha == -2:
        return Fraction(1, 4)
    return Fraction(0)


def _unpack(state) -> tuple[int, int, int]:
    a, b, c = state
    return int(a), int(b), int(c)


def _state(sec, i: int) -> tuple[int, int, int]:
    """The labels (n1, n2, p) of row i of a 1D sector."""
    return int(sec.n1[i]), int(sec.n2[i]), int(sec.p[i])


def matrix_element_1d(bra, ket, rule: ts.MatrixElementRule1D) -> float:
    """<bra| H1 |ket> for plane-wave product states (n1, n2, p).

    Kinetic term on the diagonal; heavy-heavy attraction-free term with
    weight +f1, the two heavy-light terms with weight -f1.  Total momentum
    must be conserved or the element vanishes.
    """
    b1, b2, bp = _unpack(bra)
    k1, k2, kp = _unpack(ket)
    gamma = rule.params.gamma

    val = 0.0
    if (b1, b2, bp) == (k1, k2, kp):
        val += rule.kinetic_coeff * (k1 * k1 + k2 * k2 + kp * kp / gamma)

    g_over_l = rule.coupling_coeff
    # heavy-heavy: transfer between the two heavy particles
    if bp == kp and (k1 - b1) + (k2 - b2) == 0:
        val += g_over_l * float(f1((k1 - b1) - (k2 - b2)))
    # heavy 1 with light
    if b2 == k2 and (k1 - b1) + (kp - bp) == 0:
        val -= g_over_l * float(f1((k1 - b1) - (kp - bp)))
    # heavy 2 with light
    if b1 == k1 and (k2 - b2) + (kp - bp) == 0:
        val -= g_over_l * float(f1((k2 - b2) - (kp - bp)))
    return val


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
    b1, b2, bp = _unpack(bra)
    k1, k2, kp = _unpack(ket)
    el = 0.0
    if (b1, b2, bp) == (k1, k2, kp):
        k = (2.0 * np.pi / params.box_length) ** 2
        el += k * (k1 ** 2 + k2 ** 2 + kp ** 2 / params.gamma)
    if bp == kp and b1 + b2 == k1 + k2:
        el += _pair_integral(b1 - k1, params)
    if b2 == k2 and b1 + bp == k1 + kp:
        el -= _pair_integral(b1 - k1, params)
    if b1 == k1 and b2 + bp == k2 + kp:
        el -= _pair_integral(b2 - k2, params)
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
            got = matrix_element_1d(_state(sec, i), _state(sec, j), rule)
            want = quadrature_element(_state(sec, i), _state(sec, j), params)
            assert got == pytest.approx(want, abs=1e-10)


def test_operator_dense_matches_elements(small_sector):
    params, sec = small_sector
    rule = ts.MatrixElementRule1D(params)
    op = ts.HamiltonianOperator1D(sec, rule)
    dense = op.dense()
    for i in range(sec.dim):
        for j in range(sec.dim):
            want = matrix_element_1d(_state(sec, i), _state(sec, j), rule)
            assert dense[i, j] == pytest.approx(want, rel=1e-14, abs=1e-18)


def test_dense_symmetric(operator729):
    h = operator729.dense()
    np.testing.assert_allclose(h, h.T, atol=0.0)


def test_origin_diagonal_scaled(params):
    """<000|H|000> has no kinetic part; the three pair averages give
    (g/2L - g/2L - g/2L) * L = -g/2 = -3 in scaled units."""
    sec = ts.enumerate_basis_1d(ts.ModelParams(heavy_cutoff=0), 0)
    op = ts.HamiltonianOperator1D(sec, ts.MatrixElementRule1D(params))
    assert op.dense()[0, 0] == pytest.approx(-3.0, abs=1e-12)


def test_selection_rules(params):
    rule = ts.MatrixElementRule1D(params)
    a = (1, 0, -1)
    # two-unit transfer is not coupled by a single-cosine potential
    b = (3, 0, -3)
    assert matrix_element_1d(a, b, rule) == 0.0
    # momentum-violating pair
    c = (1, 1, -1)
    assert matrix_element_1d(a, c, rule) == 0.0


def test_heavy_heavy_sign_positive(params):
    """The heavy pair repels: its one-unit transfer element is +g/4 scaled."""
    rule = ts.MatrixElementRule1D(params)
    a = (1, -1, 0)
    b = (0, 0, 0)
    got = matrix_element_1d(a, b, rule)
    assert got == pytest.approx(params.coupling / 4.0, rel=1e-14)


def test_heavy_light_sign_negative(params):
    rule = ts.MatrixElementRule1D(params)
    a = (1, 0, -1)
    b = (0, 0, 0)
    got = matrix_element_1d(a, b, rule)
    assert got == pytest.approx(-params.coupling / 4.0, rel=1e-14)


def test_nonzero_triplets_consistent(small_sector):
    params, sec = small_sector
    op = ts.HamiltonianOperator1D(sec, ts.MatrixElementRule1D(params))
    h = np.zeros((sec.dim, sec.dim))
    for i, j, v in zip(*op.triplets):
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
