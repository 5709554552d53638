"""Position-space reconstruction and scar observables.

Zero-total-momentum eigenvectors are mapped to wavefunctions of the relative
coordinates r = x1 - x2 (heavy-heavy) and eta = y - (x1 + x2)/2 (light vs
heavy center), sampled on rectangular grids over one periodic cell.  The
same coefficient data feeds the collision-state diagnostics: the heavy
overlap integral at r = 0, strip concentration ratios, angular-averaged 3D
radial densities, pair projections, and the autocorrelation / local density
of states of an initial vector; the 1D wavefunction and the 3D pair
projections share one (m = n1 - n2, p) lattice and Fourier synthesis.
analyze_1d and analyze_3d run the [analyze] settings on an eigenvector archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import _pairs_within_groups
from .config import ConfigError, check, require
from .manifest import Steps

TWO_PI = 2.0 * np.pi

#: bytes of one int64 row block of the state-pair space, N columns wide; the
#: 3D radial density walks its rows in chunks of this size (about 90 rows at
#: N = 1459), so its memory grows as N rather than N^2
PAIR_CHUNK_BYTES = 2 ** 20

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class WavefunctionGrid:
    """Values sampled on a rectangular (r, eta) grid over one cell."""

    r_axis: np.ndarray
    eta_axis: np.ndarray
    values: np.ndarray          # (n_r, n_eta); complex amplitude or real density
    box_length: float
    kind: str = "wavefunction"
    meta: dict = field(default_factory=dict)

    @property
    def dr(self) -> float:
        return float(self.r_axis[1] - self.r_axis[0])

    @property
    def deta(self) -> float:
        return float(self.eta_axis[1] - self.eta_axis[0])

    def density(self) -> np.ndarray:
        if self.kind == "wavefunction":
            return np.abs(self.values) ** 2
        return np.real(self.values)

    def norm(self) -> float:
        """Cell integral of the density by the rectangle rule (exact for
        band-limited data on a full period)."""
        return float(np.sum(self.density()) * self.dr * self.deta)


def _check_sizes(grid: str, least: int, **sizes) -> None:
    """Refuse a size below least of the named grid, naming the size."""
    for name, n in sizes.items():
        if n < least:
            raise ValueError(f"{grid} grid size {name} = {n} is below {least}")


def _check_coefficients(coefficients, sector) -> None:
    """Refuse a coefficient vector whose length is not the sector's dim."""
    if len(coefficients) != sector.dim:
        raise ValueError(f"coefficient length {len(coefficients)} != sector dim "
                         f"{sector.dim}")


def _lattice(weights, m: np.ndarray, p: np.ndarray):
    """(grid, m axis, p axis): weights[j] summed at (m[j], p[j]) over the
    range the labels occupy; a cell one weight alone reaches holds it exactly."""
    w = np.asarray(weights, dtype=np.complex128)
    m_lo, p_lo = m.min(), p.min()
    shape = (m.max() - m_lo + 1, p.max() - p_lo + 1)
    key = (m - m_lo) * shape[1] + (p - p_lo)
    nbins = shape[0] * shape[1]
    grid = (np.bincount(key, w.real, minlength=nbins)
            + 1j * np.bincount(key, w.imag, minlength=nbins))
    return (grid.reshape(shape), np.arange(m_lo, m_lo + shape[0]),
            np.arange(p_lo, p_lo + shape[1]))


def _synthesis(grid, m_axis, p_axis, L: float, n_r: int, n_eta: int):
    """(r_axis, eta_axis, sum_mp grid[m, p] exp(i pi m r / L) exp(i 2 pi p eta / L))
    on endpoint-free grids over [-L/2, L/2); an even n_r has a node at r = 0."""
    r_axis = -L / 2 + (L / n_r) * np.arange(n_r)
    eta_axis = -L / 2 + (L / n_eta) * np.arange(n_eta)
    er = np.exp(1j * np.pi * np.outer(r_axis, m_axis) / L)
    ep = np.exp(1j * TWO_PI * np.outer(p_axis, eta_axis) / L)
    return r_axis, eta_axis, er @ grid @ ep


def position_wavefunction_1d(coefficients, sector, params, n_r: int = 128,
                             n_eta: int = 128) -> WavefunctionGrid:
    """Evaluate Psi(r, eta) = (1/L) sum c exp(i pi m r / L) exp(i 2 pi p eta / L).

    (n1, n2) -> (m = n1 - n2, p) is one-to-one inside a sector, so each
    lattice cell holds one coefficient.  The endpoint-free square
    [-L/2, L/2)^2 is a fundamental domain of the relative-coordinate cell;
    an even n_r places a node exactly at r = 0.
    """
    _check_sizes("wavefunction", 1, n_r=n_r, n_eta=n_eta)
    if tuple(np.atleast_1d(sector.total_momentum)) != (0,):
        raise ValueError("position reconstruction requires the P = 0 sector")
    _check_coefficients(coefficients, sector)
    L = params.box_length
    r_axis, eta_axis, values = _synthesis(
        *_lattice(coefficients, sector.n1 - sector.n2, sector.p), L, n_r, n_eta)
    return WavefunctionGrid(r_axis, eta_axis, values / L, L, "wavefunction",
                            meta={"n_r": n_r, "n_eta": n_eta})


def heavy_overlap(grid: WavefunctionGrid) -> float:
    """Integral of |Psi(0, eta)|^2 over eta: weight on the heavy collision set."""
    j = int(np.argmin(np.abs(grid.r_axis)))
    if abs(grid.r_axis[j]) > 1e-9 * grid.box_length:
        raise ValueError("grid has no node at r = 0; use an even r count")
    return float(np.sum(grid.density()[j, :]) * grid.deta)


def concentration_ratio(grid: WavefunctionGrid, strip_half_width: float) -> float:
    """Probability fraction inside the strip |r| <= strip_half_width.

    Nodes exactly on the strip boundary count with half weight, so a flat
    density with strip_half_width = L/4 gives exactly 0.5.
    """
    if not 0 < strip_half_width <= grid.box_length / 2:
        raise ValueError(f"strip_half_width must lie in (0, L/2], got "
                         f"{strip_half_width}")
    absr = np.abs(grid.r_axis)
    w = np.where(absr < strip_half_width, 1.0,
                 np.where(absr == strip_half_width, 0.5, 0.0))
    dens = grid.density()
    total = float(np.sum(dens))
    if total == 0:
        raise ValueError("grid carries no probability")
    return float(np.sum(w @ dens) / total)


@dataclass
class AutocorrelationSeries:
    """C(t) of an initial vector and its Gaussian-broadened energy profile."""

    times: np.ndarray
    values: np.ndarray          # complex C(t)
    weights: np.ndarray         # |c_n|^2
    energies: np.ndarray        # eigenvalues carrying the weights
    energy_grid: np.ndarray
    spectral_density: np.ndarray
    broadening: float

    def spectral_mass(self) -> float:
        return float(_trapz(self.spectral_density, self.energy_grid))


def autocorrelation(coefficients, eigenvalues, times,
                    broadening: float) -> AutocorrelationSeries:
    """C(t) = sum |c_n|^2 exp(-i E_n t) and S(E) = sum |c_n|^2 N(E; E_n, lambda).

    Requires a unit-norm coefficient vector.  The energy grid covers
    every weighted eigenvalue plus six broadening widths on each side, at a
    step of broadening / 8; trapezoid integration of S over that grid is then
    accurate to well below 1e-6.
    """
    c = np.asarray(coefficients)
    evals = np.asarray(eigenvalues, dtype=np.float64)
    if len(c) != len(evals):
        raise ValueError(f"coefficient length {len(c)} != eigenvalue count "
                         f"{len(evals)}")
    if not broadening > 0:
        raise ValueError(f"broadening must be positive, got {broadening}")
    w = np.abs(c) ** 2
    total = float(w.sum())
    if not abs(total - 1.0) <= 1e-8:
        raise ValueError(f"coefficients must have unit norm, got |c|^2 = {total}")
    times = np.asarray(times, dtype=np.float64)
    values = np.exp(-1j * np.outer(times, evals)) @ w

    heavy = evals[w > 1e-14]
    if len(heavy) == 0:
        heavy = evals
    lo = float(heavy.min()) - 6.0 * broadening
    hi = float(heavy.max()) + 6.0 * broadening
    n_pts = int(np.ceil((hi - lo) / (broadening / 8.0))) + 1
    energy_grid = np.linspace(lo, hi, n_pts)
    z = (energy_grid[:, None] - evals[None, :]) / broadening
    dens = np.exp(-0.5 * z * z) @ w / (broadening * np.sqrt(TWO_PI))
    return AutocorrelationSeries(times, values, w, evals, energy_grid, dens,
                                 broadening)


# ---------------------------------------------------------------------------
# 3D observables


@dataclass
class RadialDensity:
    """Angular-integrated density P(r, eta) = int |Psi|^2 dOmega_r dOmega_eta
    on a rectangular radial grid, with trapezoid weights for moment taking."""

    r_axis: np.ndarray
    eta_axis: np.ndarray
    values: np.ndarray
    r_weights: np.ndarray
    eta_weights: np.ndarray
    box_length: float
    meta: dict = field(default_factory=dict)

    def mass(self) -> float:
        """int P r^2 eta^2 dr deta over the covered radial rectangle."""
        wr = self.r_weights * self.r_axis ** 2
        we = self.eta_weights * self.eta_axis ** 2
        return float(wr @ self.values @ we)

    def mass_small_r(self, r_cut: float) -> float:
        """Same moment restricted to nodes with r <= r_cut (no cell splitting)."""
        keep = self.r_axis <= r_cut
        wr = (self.r_weights * self.r_axis ** 2)[keep]
        we = self.eta_weights * self.eta_axis ** 2
        return float(wr @ self.values[keep] @ we)


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.full(len(axis), axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _row_chunks(rows: np.ndarray, n: int):
    """Consecutive slices of `rows`, each a PAIR_CHUNK_BYTES int64 block of
    pairs against all n columns."""
    step = max(1, PAIR_CHUNK_BYTES // (8 * n))
    return (slice(lo, lo + step) for lo in range(0, len(rows), step))


def _squared_distance(x: np.ndarray, weights: np.ndarray,
                      rows: np.ndarray) -> np.ndarray:
    """sum_k weights_k (x_ak - x_bk)^2 for the rows a in `rows` against every
    row b of the integer (N, K) `x`.

    Formed as |x_a|^2 + |x_b|^2 - 2 x_a . x_b in the weights' metric, with
    one float64 matrix product; it is exact while every partial sum of that
    product stays below 2^53 in magnitude.
    """
    wx = x * weights
    norm = np.sum(wx * x, axis=1)
    out = (wx[rows].astype(np.float64) @ x.T.astype(np.float64)).astype(np.int64)
    out *= -2
    out += norm[rows, None]
    out += norm
    return out


def _pair_signature_weights(coefficients, sector, orbits=None):
    """Occurring (|dm|^2, |dp|^2) signatures over the state pairs (a, b), in
    increasing (dm2, dp2) order, and their summed Re(c_a conj(c_b)).

    Pairs are binned on the key dm2 * (dp2max + 1) + dp2, the squared
    distance of the labels (m, p) in the metric (dp2max + 1, 1), whose range
    follows from the per-axis label spans, one row chunk at a time.  Rows a
    run over every state with weight 1, or, given the (lowest, size)
    `orbits` of the symmetry block holding the vector, over each orbit's
    lowest state weighted by its orbit's size: the key and the pair weight
    are invariant under the block's group, so every row of an orbit sums
    alike.  Rows outside the block's orbits carry zero coefficients, so only
    signatures whose sum is exactly zero can drop out.
    """
    c = np.asarray(coefficients, dtype=np.complex128)
    cr, ci = c.real, c.imag
    m = (sector.n1 - sector.n2).astype(np.int64)
    p = sector.p.astype(np.int64)
    rows, size = (np.arange(len(c)), np.ones(len(c))) if orbits is None else orbits
    dm2max = int(np.sum(np.ptp(m, axis=0) ** 2))
    dp2max = int(np.sum(np.ptp(p, axis=0) ** 2))
    nbins = (dm2max + 1) * (dp2max + 1)
    acc = np.zeros(nbins)
    count = np.zeros(nbins, dtype=np.int64)
    labels = np.hstack([m, p])
    metric = np.repeat([dp2max + 1, 1], [m.shape[1], p.shape[1]])
    for chunk in _row_chunks(rows, len(c)):
        a, w = rows[chunk], size[chunk]
        key = _squared_distance(labels, metric, a).ravel()
        wre = np.outer(w * cr[a], cr) + np.outer(w * ci[a], ci)
        acc += np.bincount(key, wre.ravel(), minlength=nbins)
        count += np.bincount(key, minlength=nbins)
    keys = np.flatnonzero(count)
    return keys // (dp2max + 1), keys % (dp2max + 1), acc[keys]


def _j0(x: np.ndarray) -> np.ndarray:
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def integrated_probability_3d(coefficients, sector, params, n_r: int = 48,
                              n_eta: int = 48, orbits=None) -> RadialDensity:
    """Angular-integrated two-radius density of a 3D eigenvector.

    Each angular average reduces to a spherical Bessel factor,
    P = (4 pi)^2 / L^6 * sum_ab Re(c_a c_b*) j0(|dk| r) j0(|dq| eta).
    Both radial axes run to the volume-matching sphere radius rho L / 2.
    For a vector in one symmetry block, pass that block's `orbits`: the
    sum then walks only the orbits' lowest rows, weighted by orbit size.
    Each axis needs at least 2 points, its two ends.
    """
    _check_sizes("radial density", 2, n_r=n_r, n_eta=n_eta)
    _check_coefficients(coefficients, sector)
    from .hamiltonian3d import RHO

    L = params.box_length
    r_max = eta_max = RHO * L / 2.0
    r_axis = np.linspace(0.0, r_max, n_r)
    eta_axis = np.linspace(0.0, eta_max, n_eta)

    dm2, dp2, acc = _pair_signature_weights(coefficients, sector, orbits=orbits)
    kr = np.pi * np.sqrt(dm2.astype(np.float64)) / L
    qe = TWO_PI * np.sqrt(dp2.astype(np.float64)) / L
    jr = _j0(np.outer(r_axis, kr))            # (n_r, U)
    je = _j0(np.outer(eta_axis, qe))          # (n_eta, U)
    values = (4.0 * np.pi) ** 2 / L ** 6 * (jr * acc) @ je.T
    return RadialDensity(r_axis, eta_axis, values,
                         _trapezoid_weights(r_axis), _trapezoid_weights(eta_axis),
                         L, meta={"r_max": r_max, "eta_max": eta_max})


def _pair_projection_grid(coefficients, sector, component_r: int,
                          component_eta: int):
    """Summed c_a conj(c_b) over the state pairs that agree on every axis but
    r_i and eta_j, binned by (dm_i, dp_j) over the range the pairs occupy.

    Those pairs are each state with itself and the pairs within groups of
    equal other coordinates, as H pairs states within spectator groups.
    Returns the complex grid and its dm_i and dp_j axes.
    """
    c = np.asarray(coefficients, dtype=np.complex128)
    m = (sector.n1 - sector.n2).astype(np.int64)
    p = sector.p.astype(np.int64)
    mi, pj = m[:, component_r], p[:, component_eta]
    others = np.column_stack([m[:, ax] for ax in range(3) if ax != component_r]
                             + [p[:, ax] for ax in range(3) if ax != component_eta])
    a, b = _pairs_within_groups(others)
    diag = np.arange(len(c))
    a, b = np.concatenate([diag, a]), np.concatenate([diag, b])
    return _lattice(c[a] * c.conj()[b], mi[a] - mi[b], pj[a] - pj[b])


def pair_projection_3d(coefficients, sector, params, component_r: int,
                       component_eta: int, n_r: int = 64,
                       n_eta: int = 64) -> WavefunctionGrid:
    """Joint density of one heavy-pair component r_i and one light component
    eta_j, all other coordinates integrated out.

    Like pairs (i == j) probe the coupled motion of matching components;
    unlike pairs (i != j) factor through independent marginals.
    """
    _check_sizes("pair projection", 1, n_r=n_r, n_eta=n_eta)
    if component_r not in (0, 1, 2) or component_eta not in (0, 1, 2):
        raise ValueError(f"component indices must be 0, 1 or 2, got "
                         f"({component_r}, {component_eta})")
    _check_coefficients(coefficients, sector)
    L = params.box_length
    grid = _pair_projection_grid(coefficients, sector, component_r, component_eta)
    u_axis, v_axis, values = _synthesis(*grid, L, n_r, n_eta)
    return WavefunctionGrid(u_axis, v_axis, np.real(values) / L ** 2, L, "pair-density",
                            meta={"component_r": component_r,
                                  "component_eta": component_eta,
                                  "like": component_r == component_eta})


# ---------------------------------------------------------------------------
# analyze

def _embedded(data: dict, blocks: dict, i: int) -> np.ndarray:
    """Archived state i as a plain-sector vector: S v for its block's S."""
    block = blocks[str(data["block"][i])]
    start = data["offset"][i]
    return block.embed(data["eigenvectors"][start:start + block.dim])


@dataclass
class Analysis1D:
    """What analyze_1d returns; each grid's meta adds its heavy_overlap and
    concentration_ratio, and series is None without coefficients."""

    overlaps: np.ndarray
    grids: dict[int, WavefunctionGrid]
    strip_half_width: float
    series: AutocorrelationSeries | None
    steps: Steps


def analyze_1d(archive, chosen, coefficients=None, *, n_r: int = 128,
               n_eta: int = 128, strip_fraction: float = 0.0625,
               times_max: float = 0.0, n_times: int = 512,
               broadening: float = 0.0) -> Analysis1D:
    """The [analyze] settings on a 1D pipeline.load_archive result: every
    state's heavy overlap, the grids of the states `chosen` and, given
    coefficients over the states, their autocorrelation.  A broadening or
    times_max of 0 is omega / 2 or three periods 2 pi / omega, omega the
    stable frequency of the model's saddle."""
    check("analyze", n_r=n_r, n_eta=n_eta, strip_fraction=strip_fraction,
          times_max=times_max, n_times=n_times, broadening=broadening)
    require(n_r % 2 == 0, "analyze", "n_r", n_r, "even for a 1D run")
    data, params, sector, blocks = archive
    L = params.box_length
    steps = Steps()

    # heavy overlap for every state: group coefficient mass by light
    # momentum, block by block, so no full set of plain vectors is formed
    p_vals, light = np.unique(sector.p, return_inverse=True)
    overlaps = np.empty(len(data["eigenvalues"]))
    for label, block in blocks.items():
        members = np.nonzero(data["block"] == label)[0]
        columns = data["offset"][members] + np.arange(block.dim)[:, None]
        # the entries of S summed by light momentum, column by column
        by_light = np.bincount(light[block.rows] * block.dim + block.cols,
                               weights=block.values, minlength=len(p_vals) * block.dim)
        amp = by_light.reshape(len(p_vals), block.dim) @ data["eigenvectors"][columns]
        overlaps[members] = np.sum(amp ** 2, axis=0) / L
    steps.end("overlaps")

    strip = strip_fraction * L
    grids = {}
    for i in chosen:
        grid = grids[i] = position_wavefunction_1d(_embedded(data, blocks, i), sector,
                                                   params, n_r=n_r, n_eta=n_eta)
        grid.meta.update(heavy_overlap=heavy_overlap(grid),
                         concentration_ratio=concentration_ratio(grid, strip))
    steps.end("grids")

    series = None
    if coefficients is not None:
        if broadening == 0 or times_max == 0:
            from .classical import find_saddle
            from .scars import stable_frequency

            saddle = find_saddle(params)
            if saddle is None:
                raise ConfigError("no saddle found to derive broadening; set "
                                  "[analyze] broadening and times_max")
            omega = stable_frequency(saddle.in_convention(params))
            broadening = broadening or omega / 2.0
            times_max = times_max or 3.0 * 2.0 * np.pi / omega
        series = autocorrelation(coefficients, data["eigenvalues"],
                                 np.linspace(0.0, times_max, n_times), broadening)
        steps.end("autocorrelation")
    return Analysis1D(overlaps, grids, strip, series, steps)


@dataclass
class Analysis3D:
    """What analyze_3d returns; projections holds the "like" (r_x, eta_x)
    and "unlike" (r_x, eta_y) pair densities."""

    radial: RadialDensity
    projections: dict[str, WavefunctionGrid]
    steps: Steps


def analyze_3d(archive, index: int, *, n_radial: int = 48, n_r: int = 128,
               n_eta: int = 128) -> Analysis3D:
    """The [analyze] settings on state `index` of a 3D pipeline.load_archive
    result: its radial density, walking the orbits of its block alone, and
    its pair projections."""
    check("analyze", n_radial=n_radial, n_r=n_r, n_eta=n_eta)
    data, params, sector, blocks = archive
    steps = Steps()
    coeffs = _embedded(data, blocks, index)
    radial = integrated_probability_3d(
        coeffs, sector, params, n_r=n_radial, n_eta=n_radial,
        orbits=blocks[str(data["block"][index])].orbits)
    steps.end("radial")
    projections = {label: pair_projection_3d(coeffs, sector, params, 0, comp_eta,
                                             n_r=n_r, n_eta=n_eta)
                   for comp_eta, label in ((0, "like"), (1, "unlike"))}
    steps.end("projections")
    return Analysis3D(radial, projections, steps)
