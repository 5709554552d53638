"""Position-space grids, overlaps, autocorrelation, and 3D radial densities."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import triscar as ts
from triscar import wavefunction


# ---------------------------------------------------------------------------
# 1D grids: closed-form two-wave superposition
#
# With equal weights on |0 0 0> and |1 -1 0> the density is
# (1 + cos(2 pi r / L)) / L^2, independent of eta, and the heavy overlap
# at r = 0 integrates to 2 / L.


@pytest.fixture(scope="module")
def two_wave(params):
    sec = ts.enumerate_basis_1d(params, 0)
    rows, _ = sec.locate(np.array([0, 1]), np.array([0, -1]))
    c = np.zeros(sec.dim)
    c[rows] = 1.0 / np.sqrt(2.0)
    grid = ts.position_wavefunction_1d(c, sec, params, n_r=64, n_eta=8)
    return sec, c, grid


def test_two_wave_closed_form(two_wave, params):
    sec, c, grid = two_wave
    L = params.box_length
    want = (1.0 + np.cos(2.0 * np.pi * grid.r_axis / L)) / L ** 2
    dens = grid.density()
    for j in range(len(grid.eta_axis)):
        np.testing.assert_allclose(dens[:, j], want, atol=1e-12 / L ** 2)


def test_two_wave_heavy_overlap(two_wave, params):
    sec, c, grid = two_wave
    got = ts.heavy_overlap(grid)
    assert got == pytest.approx(2.0 / params.box_length, rel=1e-12)


def test_grid_norm_parseval(two_wave):
    sec, c, grid = two_wave
    assert grid.norm() == pytest.approx(1.0, rel=1e-12)


def test_eigenstate_norm_parseval(spectrum729, sector729, params):
    c = spectrum729.eigenvectors[:, 26]
    grid = ts.position_wavefunction_1d(c, sector729, params, n_r=96, n_eta=96)
    assert grid.norm() == pytest.approx(1.0, rel=1e-10)


def reference_wavefunction_1d(coefficients, sector, L, n_r, n_eta):
    """(r_axis, eta_axis, Psi) with the coefficients scattered onto the
    (m = n1 - n2, p) lattice, one cell per state, and the Fourier sum taken
    there: the oracle for the lattice and synthesis the observables share."""
    m = sector.n1 - sector.n2
    p = sector.p
    m_lo, m_hi = int(m.min()), int(m.max())
    p_lo, p_hi = int(p.min()), int(p.max())
    grid = np.zeros((m_hi - m_lo + 1, p_hi - p_lo + 1), dtype=np.complex128)
    grid[m - m_lo, p - p_lo] = coefficients
    r_axis = -L / 2 + (L / n_r) * np.arange(n_r)
    eta_axis = -L / 2 + (L / n_eta) * np.arange(n_eta)
    er = np.exp(1j * np.pi * np.outer(r_axis, np.arange(m_lo, m_hi + 1)) / L)
    ep = np.exp(1j * wavefunction.TWO_PI
                * np.outer(np.arange(p_lo, p_hi + 1), eta_axis) / L)
    return r_axis, eta_axis, (er @ grid @ ep) / L


@pytest.mark.parametrize("kind", ["eigenvector", "complex"])
def test_wavefunction_is_the_scattered_lattice_sum(spectrum729, sector729, params,
                                                   kind):
    """Psi equals the scatter-and-sum oracle exactly, for a P = 0
    eigenvector and for complex coefficients."""
    c = (spectrum729.eigenvectors[:, 26] if kind == "eigenvector"
         else _random_unit(sector729.dim, seed=5))
    grid = ts.position_wavefunction_1d(c, sector729, params, n_r=96, n_eta=40)
    r_axis, eta_axis, values = reference_wavefunction_1d(
        c, sector729, params.box_length, 96, 40)
    assert np.array_equal(grid.r_axis, r_axis)
    assert np.array_equal(grid.eta_axis, eta_axis)
    assert np.array_equal(grid.values, values)


def test_requires_zero_momentum(params):
    sec = ts.enumerate_basis_1d(ts.ModelParams(heavy_cutoff=1), 2)
    with pytest.raises(ValueError):
        ts.position_wavefunction_1d(np.ones(sec.dim) / 3.0, sec, params)


def test_heavy_overlap_needs_origin_sample(two_wave, params):
    sec, c, _ = two_wave
    # odd grid spacing that misses r = 0
    grid = ts.position_wavefunction_1d(c, sec, params, n_r=63, n_eta=8)
    with pytest.raises(ValueError):
        ts.heavy_overlap(grid)


# ---------------------------------------------------------------------------
# concentration ratio


def test_flat_density_concentration(params):
    L = params.box_length
    n = 64
    r = -L / 2.0 + L * np.arange(n) / n
    eta = -L / 2.0 + L * np.arange(n) / n
    values = np.full((n, n), 1.0 / L, dtype=np.complex128)
    grid = ts.WavefunctionGrid(r, eta, values, L, kind="position")
    # strip of half-width L/4 covers half the area exactly
    assert ts.concentration_ratio(grid, L / 4.0) == pytest.approx(0.5,
                                                                  abs=1e-12)


def test_concentration_monotone_in_width(spectrum729, sector729, params):
    c = spectrum729.eigenvectors[:, 26]
    grid = ts.position_wavefunction_1d(c, sector729, params, n_r=128, n_eta=64)
    L = params.box_length
    widths = [L / 32.0, L / 16.0, L / 8.0, L / 4.0]
    ratios = [ts.concentration_ratio(grid, w) for w in widths]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert 0.0 < ratios[0] and ratios[-1] < 1.0


def test_concentration_rejects_wide_strip(two_wave, params):
    _, _, grid = two_wave
    with pytest.raises(ValueError):
        ts.concentration_ratio(grid, params.box_length)


# ---------------------------------------------------------------------------
# autocorrelation and spectral density


def test_autocorrelation_at_zero():
    energies = np.array([1.0, 3.0, 7.0])
    weights = np.array([0.2, 0.5, 0.3])
    series = ts.autocorrelation(np.sqrt(weights), energies,
                                times=np.linspace(0.0, 10.0, 101),
                                broadening=0.5)
    assert abs(series.values[0]) == pytest.approx(1.0, abs=1e-12)


def test_two_level_period():
    de = 0.7311
    energies = np.array([0.4, 0.4 + de])
    c = np.sqrt(np.array([0.5, 0.5]))
    period = 2.0 * np.pi / de
    t = np.array([0.0, period, 2.0 * period])
    series = ts.autocorrelation(c, energies, times=t, broadening=0.1)
    mags = np.abs(series.values)
    np.testing.assert_allclose(mags, 1.0, atol=1e-12)
    # halfway through the period the two phases cancel
    half = ts.autocorrelation(c, energies, times=np.array([period / 2.0]),
                              broadening=0.1)
    assert abs(half.values[0]) == pytest.approx(0.0, abs=1e-12)


def test_spectral_density_mass():
    energies = np.array([-2.0, 1.0, 5.0])
    weights = np.array([0.25, 0.45, 0.3])
    series = ts.autocorrelation(np.sqrt(weights), energies,
                                times=np.linspace(0.0, 1.0, 11),
                                broadening=0.8)
    assert series.spectral_mass() == pytest.approx(1.0, abs=1e-6)
    lo, hi = series.energy_grid[0], series.energy_grid[-1]
    assert lo < energies.min() and hi > energies.max()


def test_autocorrelation_rejects_unnormalized():
    with pytest.raises(ValueError):
        ts.autocorrelation(np.array([1.0, 1.0]), np.array([0.0, 1.0]),
                           times=np.array([0.0]), broadening=0.1)


# ---------------------------------------------------------------------------
# 3D radial density: analytic reduction vs direct angular quadrature


@pytest.fixture(scope="module")
def c1_state(params):
    sec = ts.sector_3d(params, (0, 0, 0), cutoff_sq=1)
    rule = ts.MatrixElementRule3D(params)
    h = ts.dense_from_elements(sec, rule)
    vals, vecs = np.linalg.eigh(h)
    return sec, vecs[:, 0]


def _sphere_points(n_angle):
    """Product angular rule: Gauss-Legendre in cos(theta), uniform in phi."""
    x, w = np.polynomial.legendre.leggauss(n_angle)
    phi = 2.0 * np.pi * np.arange(2 * n_angle) / (2 * n_angle)
    ct = x[:, None] + 0.0 * phi[None, :]
    st = np.sqrt(1.0 - x[:, None] ** 2) + 0.0 * phi[None, :]
    pts = np.stack([st * np.cos(phi[None, :]), st * np.sin(phi[None, :]), ct],
                   axis=-1).reshape(-1, 3)
    wts = (w[:, None] * (2.0 * np.pi / (2 * n_angle))
           * np.ones_like(phi)[None, :]).ravel()
    return pts, wts


def quadrature_radial_density(coefficients, sector, L, r_axis, eta_axis,
                              n_angle):
    """int |Psi|^2 dOmega_r dOmega_eta by direct quadrature over product
    angular grids: the oracle for the analytic Bessel reduction."""
    c = np.asarray(coefficients, dtype=np.complex128)
    k = np.pi * (sector.n1 - sector.n2) / L      # (N, 3)
    q = 2.0 * np.pi * sector.p / L
    pts, wts = _sphere_points(n_angle)
    values = np.empty((len(r_axis), len(eta_axis)))
    for i, r in enumerate(r_axis):
        er = np.exp(1j * (r * pts) @ k.T)        # (P, N)
        for j, eta in enumerate(eta_axis):
            ee = np.exp(1j * (eta * pts) @ q.T)
            amp = (er * c) @ ee.T                # (P_r, P_eta)
            values[i, j] = float(wts @ (np.abs(amp) ** 2) @ wts)
    return values / L ** 6


def test_radial_density_routes_agree(c1_state, params):
    sec, c = c1_state
    analytic = ts.integrated_probability_3d(c, sec, params, n_r=12, n_eta=12)
    quad = quadrature_radial_density(c, sec, params.box_length,
                                     analytic.r_axis, analytic.eta_axis,
                                     n_angle=20)
    scale = np.abs(analytic.values).max()
    assert scale > 0.0
    np.testing.assert_allclose(quad, analytic.values, atol=1e-8 * scale)


def test_radial_density_nonnegative(c1_state, params):
    sec, c = c1_state
    dens = ts.integrated_probability_3d(c, sec, params, n_r=16, n_eta=16)
    assert dens.values.min() > -1e-12 * np.abs(dens.values).max()


def test_radial_mass_crude_normalization(c1_state, params):
    """The radial ball misses the cube corners, so mass lands below but
    near 1 once both axes span [0, rho L / 2]."""
    sec, c = c1_state
    dens = ts.integrated_probability_3d(c, sec, params, n_r=40, n_eta=40)
    assert 0.6 < dens.mass() < 1.1


def test_mass_small_r_ordering(params, sector3d_c2):
    rule = ts.MatrixElementRule3D(params)
    plain = ts.HamiltonianOperator3D(sector3d_c2, rule, cutoff_sq=2)
    sym, anti = ts.symmetrize_sector(sector3d_c2)
    out = {}
    for tag, ssec in (("sym", sym), ("anti", anti)):
        op = ts.SymmetrizedOperator3D(ssec, plain)
        vals, vecs = np.linalg.eigh(op.dense())
        c = ssec.embed(vecs[:, 0])
        dens = ts.integrated_probability_3d(c, sector3d_c2, params,
                                            n_r=24, n_eta=24)
        out[tag] = dens.mass_small_r(0.1 * params.box_length)
    assert out["sym"] > 10.0 * out["anti"]


def test_pair_projection_consistency(c1_state, params):
    sec, c = c1_state
    proj = ts.pair_projection_3d(c, sec, params, component_r=0,
                                 component_eta=0, n_r=24, n_eta=24)
    assert proj.values.min() > -1e-20
    # projecting with swapped components gives the same density for an
    # exchange-symmetric ground state
    swap = ts.pair_projection_3d(c, sec, params, component_r=0,
                                 component_eta=1, n_r=24, n_eta=24)
    assert swap.values.shape == proj.values.shape


def test_pair_projection_component_validation(c1_state, params):
    sec, c = c1_state
    with pytest.raises(ValueError):
        ts.pair_projection_3d(c, sec, params, component_r=3, component_eta=0)


# ---------------------------------------------------------------------------
# chunked pair sums vs the direct N x N reference
#
# The references below build the full (N, N, 3) label-difference arrays, as
# the package did before it walked the pairs in row chunks.  They are the
# oracle for the chunked route and cost O(N^2) memory (about 330 MB at
# cutoff_sq 5).


def reference_signature_keys(sector):
    """Unique (|dm|^2, |dp|^2) signatures over all state pairs, and each
    pair's index into them, pairs in row-major order."""
    m = (sector.n1 - sector.n2).astype(np.int64)
    p = sector.p.astype(np.int64)
    dm = m[:, None, :] - m[None, :, :]
    dp = p[:, None, :] - p[None, :, :]
    dm2 = np.einsum("abk,abk->ab", dm, dm)
    dp2 = np.einsum("abk,abk->ab", dp, dp)
    key = dm2.ravel() * (dp2.max() + 1) + dp2.ravel()
    uniq, inverse = np.unique(key, return_inverse=True)
    return uniq // (dp2.max() + 1), uniq % (dp2.max() + 1), inverse


def summed_by_signature(coefficients, keys):
    """The signatures of `keys` and their summed Re(c_a conj(c_b))."""
    c = np.asarray(coefficients, dtype=np.complex128)
    dm2u, dp2u, inverse = keys
    wre = np.real(np.outer(c, np.conj(c)))
    return dm2u, dp2u, np.bincount(inverse, weights=wre.ravel())


def reference_signature_weights(coefficients, sector, orbits=None):
    """Unique (|dm|^2, |dp|^2) signatures and their summed Re(c_a conj(c_b)),
    over every pair; `orbits` is accepted and ignored."""
    return summed_by_signature(coefficients, reference_signature_keys(sector))


def reference_projection_grid(coefficients, sector, component_r,
                              component_eta):
    """Summed c_a conj(c_b) on the (dm_i, dp_j) grid, with its axes."""
    c = np.asarray(coefficients, dtype=np.complex128)
    m = (sector.n1 - sector.n2).astype(np.int64)
    p = sector.p.astype(np.int64)
    dm = m[:, None, :] - m[None, :, :]
    dp = p[:, None, :] - p[None, :, :]
    other_r = [ax for ax in range(3) if ax != component_r]
    other_e = [ax for ax in range(3) if ax != component_eta]
    keep = ((dm[:, :, other_r] == 0).all(axis=2)
            & (dp[:, :, other_e] == 0).all(axis=2))
    dmi = dm[:, :, component_r][keep]
    dpj = dp[:, :, component_eta][keep]
    wab = np.outer(c, np.conj(c))[keep]
    m_off, p_off = int(dmi.min()), int(dpj.min())
    grid = np.zeros((int(dmi.max()) - m_off + 1, int(dpj.max()) - p_off + 1),
                    dtype=np.complex128)
    np.add.at(grid, (dmi - m_off, dpj - p_off), wab)
    m_vals = np.arange(m_off, m_off + grid.shape[0])
    p_vals = np.arange(p_off, p_off + grid.shape[1])
    return grid, m_vals, p_vals


def _assert_close(got, want):
    scale = np.abs(want).max()
    assert scale > 0.0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


@pytest.fixture(scope="module")
def sector3d_c5(params):
    return ts.sector_3d(params, (0, 0, 0), cutoff_sq=5)


def _sym_ground_state(params, sector, cutoff_sq):
    plain = ts.HamiltonianOperator3D(sector, ts.MatrixElementRule3D(params),
                                     cutoff_sq=cutoff_sq)
    sym, _ = ts.symmetrize_sector(sector)
    _, vec = scipy.linalg.eigh(ts.SymmetrizedOperator3D(sym, plain).dense(),
                               subset_by_index=[0, 0])
    return sym.embed(vec[:, 0])


def _random_unit(dim, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c / np.linalg.norm(c)


@pytest.fixture(scope="module", params=[
    pytest.param((2, "eigenvector"), id="c2-eigenvector"),
    pytest.param((2, "random"), id="c2-random"),
    pytest.param((5, "eigenvector"), id="c5-eigenvector"),
    pytest.param((5, "random"), id="c5-random"),
])
def pair_case(request, params, sector3d_c2, sector3d_c5):
    cutoff_sq, kind = request.param
    sec = {2: sector3d_c2, 5: sector3d_c5}[cutoff_sq]
    if kind == "eigenvector":
        c = _sym_ground_state(params, sec, cutoff_sq)
    else:
        c = _random_unit(sec.dim, seed=cutoff_sq)
    return sec, c


def test_chunked_signatures_match_reference(pair_case, params, monkeypatch):
    sec, c = pair_case
    dm2, dp2, acc = wavefunction._pair_signature_weights(c, sec)
    ref = reference_signature_weights(c, sec)
    np.testing.assert_array_equal(dm2, ref[0])
    np.testing.assert_array_equal(dp2, ref[1])
    _assert_close(acc, ref[2])

    got = ts.integrated_probability_3d(c, sec, params, n_r=24, n_eta=24)
    monkeypatch.setattr(wavefunction, "_pair_signature_weights",
                        reference_signature_weights)
    want = ts.integrated_probability_3d(c, sec, params, n_r=24, n_eta=24)
    _assert_close(got.values, want.values)


@pytest.mark.parametrize("components", [(0, 0), (0, 1), (2, 1)])
def test_chunked_projection_matches_reference(pair_case, params, monkeypatch,
                                              components):
    sec, c = pair_case
    grid, m_vals, p_vals = wavefunction._pair_projection_grid(c, sec,
                                                              *components)
    ref = reference_projection_grid(c, sec, *components)
    np.testing.assert_array_equal(m_vals, ref[1])
    np.testing.assert_array_equal(p_vals, ref[2])
    _assert_close(grid, ref[0])

    got = ts.pair_projection_3d(c, sec, params, *components, n_r=24, n_eta=24)
    monkeypatch.setattr(wavefunction, "_pair_projection_grid",
                        reference_projection_grid)
    want = ts.pair_projection_3d(c, sec, params, *components, n_r=24,
                                 n_eta=24)
    _assert_close(got.values, want.values)


@pytest.fixture(scope="module", params=[(0, 0, 0), (1, 0, 0)],
                ids=["P000", "P100"])
def orbit_case(request, params):
    """A cutoff_sq 5 sector, its nonempty blocks and its reference keys."""
    sec = ts.sector_3d(params, request.param, cutoff_sq=5)
    return sec, ts.symmetry_blocks(sec), reference_signature_keys(sec)


def _block_vectors(blocks, seed):
    """One random unit vector per block, embedded in the plain sector."""
    return [block.embed(_random_unit(block.dim, seed + i))
            for i, block in enumerate(blocks)]


def _on_union(got, want):
    """Both signature sums on the union of their signatures, zero-filled."""
    sums = [dict(zip(zip(dm2.tolist(), dp2.tolist()), acc))
            for dm2, dp2, acc in (got, want)]
    union = sorted(set(sums[0]) | set(sums[1]))
    return [np.array([s.get(k, 0.0) for k in union]) for s in sums]


def test_orbit_signatures_match_reference(orbit_case):
    """A block vector's sums over orbit rows weighted by orbit size equal
    the sums over every pair."""
    sec, blocks, keys = orbit_case
    for block, c in zip(blocks, _block_vectors(blocks, seed=11)):
        got = wavefunction._pair_signature_weights(c, sec, orbits=block.orbits)
        _assert_close(*_on_union(got, summed_by_signature(c, keys)))


def test_orbit_walk_visits_one_row_per_orbit(orbit_case, monkeypatch):
    """Given a block's orbits, the walk visits its lowest rows, one per
    orbit, not all N rows."""
    sec, blocks, _ = orbit_case
    visited = []
    squared_distance = wavefunction._squared_distance

    def counting(x, weights, rows):
        visited.append(np.array(rows))
        return squared_distance(x, weights, rows)

    monkeypatch.setattr(wavefunction, "_squared_distance", counting)
    for block, c in zip(blocks, _block_vectors(blocks, seed=11)):
        visited.clear()
        wavefunction._pair_signature_weights(c, sec, orbits=block.orbits)
        # one call per row chunk
        np.testing.assert_array_equal(np.concatenate(visited), block.orbits[0])
        assert block.dim < sec.dim
    visited.clear()
    wavefunction._pair_signature_weights(c, sec)
    assert sum(map(len, visited)) == sec.dim


def _traced_peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_observables_run_in_bounded_memory(params, sector3d_c5):
    """At N = 1459 the full N x N route peaks near 262 MiB (radial) and
    136 MiB (projection); the chunked route stays below 32 MiB."""
    c = _random_unit(sector3d_c5.dim, seed=3)
    budget = 32 * 2 ** 20
    assert _traced_peak_bytes(ts.integrated_probability_3d, c, sector3d_c5,
                              params) < budget
    assert _traced_peak_bytes(ts.pair_projection_3d, c, sector3d_c5, params,
                              0, 1) < budget
