"""Classical center-of-mass dynamics of the charged three-body system.

In the center-of-mass frame the heavy pair is described by r = x1 - x2 and
the light particle by eta = y - (x1 + x2)/2, with

    H = 2 p_r^2 + (2 + gamma) / (2 gamma) p_eta^2 + U(r, eta),

i.e. effective masses mu_r = 1/4 and mu_eta = gamma / (2 + gamma).  The 1D
effective potential U = g [Vb(r) - Vb(r/2 - eta) - Vb(r/2 + eta)] with
Vb(x) = (1 + cos(2 pi x / L)) / (2 L) has a saddle at the triple collision
(0, 0) and minima at (+-L/3, 0); the 3D variant replaces Vb by the bare
Coulomb kernel.  Orbits are integrated with the kick-drift-kick leapfrog,
which is symplectic and time reversible; run_orbits runs the [orbit]
settings.  find_critical_points analyses every point it finds, and its
result's saddle is the one saddle lookup of the solves, analyze and the scar
estimates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, check, require
from .params import ModelParams, Scaling

TWO_PI = 2.0 * np.pi

MU_R = 0.25


def mu_eta(params: ModelParams) -> float:
    return params.gamma / (2.0 + params.gamma)


def bar_potential(x, L):
    """Unit-coupling pair potential (1 + cos(2 pi x / L)) / (2 L)."""
    return (1.0 + np.cos(TWO_PI * np.asarray(x, dtype=np.float64) / L)) / (2.0 * L)


def bar_potential_d1(x, L):
    return -(np.pi / L ** 2) * np.sin(TWO_PI * np.asarray(x, dtype=np.float64) / L)


def bar_potential_d2(x, L):
    return -(2.0 * np.pi ** 2 / L ** 3) * np.cos(
        TWO_PI * np.asarray(x, dtype=np.float64) / L)


def effective_potential(r, eta, params: ModelParams, scaled: bool | None = None):
    """U(r, eta) of the 1D model; scaled=True multiplies by L."""
    L, g = params.box_length, params.coupling
    u = g * (bar_potential(r, L) - bar_potential(np.asarray(r) / 2.0 - eta, L)
             - bar_potential(np.asarray(r) / 2.0 + eta, L))
    if scaled is None:
        scaled = params.scaling is Scaling.TIMES_L
    return u * (L if scaled else 1.0)


def effective_potential_grad(r, eta, params: ModelParams) -> np.ndarray:
    """Raw-units gradient (U_r, U_eta), analytic."""
    L, g = params.box_length, params.coupling
    da = bar_potential_d1(r / 2.0 - eta, L)
    db = bar_potential_d1(r / 2.0 + eta, L)
    u_r = g * (bar_potential_d1(r, L) - 0.5 * da - 0.5 * db)
    u_eta = g * (da - db)
    return np.array([u_r, u_eta])


def effective_potential_hessian(r, eta, params: ModelParams) -> np.ndarray:
    """Raw-units Hessian of U, analytic."""
    L, g = params.box_length, params.coupling
    aa = bar_potential_d2(r / 2.0 - eta, L)
    bb = bar_potential_d2(r / 2.0 + eta, L)
    u_rr = g * (bar_potential_d2(r, L) - 0.25 * aa - 0.25 * bb)
    u_re = g * (0.5 * aa - 0.5 * bb)
    u_ee = g * (-aa - bb)
    return np.array([[u_rr, u_re], [u_re, u_ee]])


def hamiltonian_cm_1d(state, params: ModelParams) -> float:
    r, pr, eta, pe = state
    kin = 2.0 * pr * pr + (2.0 + params.gamma) / (2.0 * params.gamma) * pe * pe
    return float(kin + effective_potential(r, eta, params, scaled=False))


def coulomb_potential_cm(r_vec, eta_vec) -> float:
    a = r_vec / 2.0 - eta_vec
    b = r_vec / 2.0 + eta_vec
    return float(1.0 / np.linalg.norm(r_vec) - 1.0 / np.linalg.norm(a)
                 - 1.0 / np.linalg.norm(b))


def pair_distances_3d(r_vec, eta_vec) -> tuple[float, float, float]:
    """(heavy-heavy, heavy1-light, heavy2-light) separations."""
    return (float(np.linalg.norm(r_vec)),
            float(np.linalg.norm(r_vec / 2.0 - eta_vec)),
            float(np.linalg.norm(r_vec / 2.0 + eta_vec)))


def _coulomb_grads(r_vec, eta_vec):
    a = r_vec / 2.0 - eta_vec
    b = r_vec / 2.0 + eta_vec
    ra3 = np.linalg.norm(a) ** 3
    rb3 = np.linalg.norm(b) ** 3
    rr3 = np.linalg.norm(r_vec) ** 3
    g_r = -r_vec / rr3 + 0.5 * a / ra3 + 0.5 * b / rb3
    g_eta = -a / ra3 + b / rb3
    return g_r, g_eta


def hamiltonian_cm_3d(state, params: ModelParams) -> float:
    r, pr, eta, pe = (state[0:3], state[3:6], state[6:9], state[9:12])
    kin = 2.0 * float(pr @ pr) + (2.0 + params.gamma) / (2.0 * params.gamma) \
        * float(pe @ pe)
    return kin + coulomb_potential_cm(r, eta)


@dataclass
class OrbitEvent:
    step: int
    time: float
    kind: str          # "wrap" or "singularity"
    detail: str


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray         # (n_stored, 4) or (n_stored, 12)
    energies: np.ndarray
    events: list = field(default_factory=list)
    stopped: bool = False
    stop_reason: str | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def energy_drift(self) -> float:
        e0 = self.energies[0]
        return float(np.max(np.abs(self.energies - e0))
                     / max(1.0, abs(e0)))


def integrate_orbit(initial, dt: float, steps: int, params: ModelParams,
                    dimension: int = 1, wrap: bool = True,
                    singularity_tol: float | None = None) -> Trajectory:
    """Leapfrog (kick-drift-kick) integration of the center-of-mass system.

    1D orbits wrap out-of-range relative coordinates back into [-L/2, L/2),
    logging an event per wrapped component.  3D orbits stop when any pair
    distance falls below singularity_tol (None or 0: 1e-6 L), logging the
    event and truncating the trajectory.  The start must be a finite state of
    4 (1D) or 12 (3D) numbers and dt positive; run_orbits checks the rest.
    """
    state = np.array(initial, dtype=np.float64)
    n = 4 if dimension == 1 else 12
    require(state.shape == (n,) and np.all(np.isfinite(state)), "orbit", "initial",
            state.tolist(), f"{n} finite numbers for dimension {dimension}")
    require(0 < dt < np.inf, "orbit", "dt", dt, "positive and finite")
    L = params.box_length
    gamma = params.gamma
    singularity_tol = singularity_tol or 1e-6 * L

    if dimension == 1:
        def force(s):
            g = effective_potential_grad(s[0], s[2], params)
            return -g          # (F_r, F_eta)

        def energy(s):
            return hamiltonian_cm_1d(s, params)
    else:
        def force(s):
            g_r, g_eta = _coulomb_grads(s[0:3], s[6:9])
            return np.concatenate([-g_r, -g_eta])

        def energy(s):
            return hamiltonian_cm_3d(s, params)

    times = np.empty(steps + 1)
    stored = np.empty((steps + 1, len(state)))
    energies = np.empty(steps + 1)
    events: list[OrbitEvent] = []
    times[0] = 0.0
    stored[0] = state
    energies[0] = energy(state)

    def singular(step: int) -> bool:
        """Stop at step, logging the event, when a pair distance of the 3D
        state is below singularity_tol."""
        nonlocal stop_reason
        dmin = min(pair_distances_3d(state[0:3], state[6:9]))
        if dmin >= singularity_tol:
            return False
        stop_reason = f"pair distance {dmin:.3e} below {singularity_tol:.3e}"
        events.append(OrbitEvent(step, step * dt, "singularity", stop_reason))
        return True

    vel_eta = (2.0 + gamma) / gamma
    stop_reason = None
    # positions change only in the drift, which is checked, so the start is
    # the one state checked outside the loop
    stopped = dimension == 3 and singular(0)
    n_done = 0
    for step in range(1, 1 if stopped else steps + 1):
        f = force(state)
        if dimension == 1:
            state[1] += 0.5 * dt * f[0]
            state[3] += 0.5 * dt * f[1]
            state[0] += dt * 4.0 * state[1]
            state[2] += dt * vel_eta * state[3]
            if wrap:
                # in-range components stay untouched bit for bit
                t_now = step * dt
                if state[0] < -L / 2.0 or state[0] >= L / 2.0:
                    state[0] = (state[0] + L / 2.0) % L - L / 2.0
                    events.append(OrbitEvent(step, t_now, "wrap", "r"))
                if state[2] < -L / 2.0 or state[2] >= L / 2.0:
                    state[2] = (state[2] + L / 2.0) % L - L / 2.0
                    events.append(OrbitEvent(step, t_now, "wrap", "eta"))
            f = force(state)
            state[1] += 0.5 * dt * f[0]
            state[3] += 0.5 * dt * f[1]
        else:
            state[3:6] += 0.5 * dt * f[0:3]
            state[9:12] += 0.5 * dt * f[3:6]
            state[0:3] += dt * 4.0 * state[3:6]
            state[6:9] += dt * vel_eta * state[9:12]
            if singular(step):
                stopped = True
                break
            f = force(state)
            state[3:6] += 0.5 * dt * f[0:3]
            state[9:12] += 0.5 * dt * f[3:6]
        times[step] = step * dt
        stored[step] = state
        energies[step] = energy(state)
        n_done = step

    n_keep = n_done + 1
    return Trajectory(times[:n_keep], stored[:n_keep], energies[:n_keep],
                      events, stopped, stop_reason)


@dataclass
class OrbitRun:
    """What run_orbits returns: the trajectories (the first starts at
    initial), and the start and the step they used."""

    trajectories: list[Trajectory]
    initial: list[float]
    dt: float
    timings: dict[str, float]


def run_orbits(params: ModelParams, *, dimension: int = 1, initial=None,
               dt: float = 0.0, steps: int = 10000, wrap: bool = True,
               singularity_tol: float = 0.0, ensemble: str = "none",
               n_orbits: int = 8, spread: float = 0.15) -> OrbitRun:
    """The orbits of the [orbit] settings, each by integrate_orbit.  initial
    None is a stable-region state; dt 0 is suggest_timestep's step (1D only).
    A straddle ensemble starts pair k at +- |initial[0]| (1 + spread k)."""
    check("orbit", dimension=dimension, initial=initial, dt=dt, steps=steps,
          wrap=wrap, singularity_tol=singularity_tol, ensemble=ensemble,
          n_orbits=n_orbits, spread=spread)
    L = params.box_length
    if initial is None:
        initial = [L / 3.0, 0.0, 0.02 * L, 0.0] if dimension == 1 else \
            [0.2 * L, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1 * L, 0.0, 0.0, 0.0, 0.0]
    require(dt or dimension == 1, "orbit", "dt", dt, "positive for a 3D run")
    dt = dt or suggest_timestep(params)

    t0 = time.perf_counter()
    base = np.array(initial, dtype=np.float64)
    starts = [base]
    if ensemble == "straddle":
        if n_orbits < 2 or n_orbits % 2:
            raise ConfigError(f"[orbit] n_orbits must be even and at least 2 "
                              f"for a straddle ensemble, got {n_orbits}")
        require(dimension == 1 or base[0] != 0, "orbit", "initial", base.tolist(),
                "nonzero in its first component for a 3D straddle ensemble")
        starts = [np.r_[sign * abs(base[0]) * (1.0 + spread * k), base[1:]]
                  for k in range(n_orbits // 2) for sign in (1.0, -1.0)]
    trajectories = [integrate_orbit(st, dt, steps, params, dimension=dimension,
                                    wrap=wrap, singularity_tol=singularity_tol)
                    for st in starts]
    return OrbitRun(trajectories, list(initial), dt,
                    {"integrate": time.perf_counter() - t0})


@dataclass(frozen=True)
class CriticalPoint:
    r: float
    eta: float
    kind: str                  # minimum / maximum / saddle / degenerate
    hessian: tuple             # raw 2x2 as nested tuples
    grad_norm: float


@dataclass
class CriticalPointResult:
    points: list
    failed_seeds: list
    analyses: list             # hessian_analysis of each point, raw units

    @property
    def saddle(self) -> SaddleAnalysis | None:
        """The analysis of the first saddle found, if any."""
        return next((a for a in self.analyses if a.kind == "saddle"), None)


def find_critical_points(params: ModelParams) -> CriticalPointResult:
    """Newton search, at most 100 steps each, for critical points of the 1D
    effective potential.

    The seeds are one point near the origin and one near each +-L/3 well.
    Non-converged seeds are reported, not fatal.  Duplicate finds (within
    1e-8 L) are merged.  Each point found comes with its hessian_analysis.
    """
    L = params.box_length
    seeds = [(0.02 * L, 0.01 * L), (0.30 * L, 0.02 * L), (-0.30 * L, 0.02 * L)]
    points: list[CriticalPoint] = []
    failed: list = []
    for seed in seeds:
        x = np.array(seed, dtype=np.float64)
        ok = False
        for _ in range(100):
            grad = effective_potential_grad(x[0], x[1], params)
            hess = effective_potential_hessian(x[0], x[1], params)
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                break
            norm = np.linalg.norm(step)
            if norm > 0.2 * L:
                step *= 0.2 * L / norm
            x -= step
            if np.linalg.norm(step) <= 1e-12 * L:
                ok = True
                break
        if not ok:
            failed.append(tuple(seed))
            continue
        grad = effective_potential_grad(x[0], x[1], params)
        hess = effective_potential_hessian(x[0], x[1], params)
        sig = np.linalg.eigvalsh(hess)
        tol = 1e-8 * max(abs(sig[0]), abs(sig[1]), 1e-300)
        if abs(sig[0]) <= tol or abs(sig[1]) <= tol:
            kind = "degenerate"
        elif sig[0] > 0:
            kind = "minimum"
        elif sig[1] < 0:
            kind = "maximum"
        else:
            kind = "saddle"
        dup = any(abs(p.r - x[0]) <= 1e-8 * L and abs(p.eta - x[1]) <= 1e-8 * L
                  for p in points)
        if not dup:
            points.append(CriticalPoint(float(x[0]), float(x[1]), kind,
                                        tuple(map(tuple, hess.tolist())),
                                        math.hypot(*grad)))
    return CriticalPointResult(points, failed,
                               [hessian_analysis(p, params) for p in points])


@dataclass(frozen=True)
class SaddleAnalysis:
    """Normal-mode data of a critical point: curvatures, mode masses, and the
    derived frequencies / instability rates.

    sigmas are Hessian eigenvalues (ascending) and masses the matching mode
    masses 1 / (e^T M^{-1} e).  Under the L-scaling convention sigma -> L
    sigma and mass -> mass / L, so frequencies scale by L and the intensity
    ratio below is scale free.
    """

    r: float
    eta: float
    kind: str
    value: float               # U at the point
    sigmas: tuple
    masses: tuple
    axes: tuple                # mode eigenvectors as rows
    degenerate: bool
    scaling: str = "raw"

    @property
    def stable_frequencies(self) -> tuple:
        return tuple(np.sqrt(s / m) for s, m in zip(self.sigmas, self.masses)
                     if s > 0)

    @property
    def stable_periods(self) -> tuple:
        return tuple(TWO_PI / w for w in self.stable_frequencies)

    @property
    def unstable_rates(self) -> tuple:
        return tuple(np.sqrt(-s / m) for s, m in zip(self.sigmas, self.masses)
                     if s < 0)

    @property
    def lambda_sigma(self) -> float | None:
        """|sigma_min| convention for the instability parameter."""
        return -self.sigmas[0] if self.sigmas[0] < 0 else None

    @property
    def lambda_rate(self) -> float | None:
        """sqrt(|sigma_min| / mass) convention (a true inverse time)."""
        rates = self.unstable_rates
        return max(rates) if rates else None

    def scaled(self, L: float) -> "SaddleAnalysis":
        if self.scaling != "raw":
            raise ValueError("analysis already scaled")
        return replace(self, value=self.value * L,
                       sigmas=tuple(s * L for s in self.sigmas),
                       masses=tuple(m / L for m in self.masses),
                       scaling="multiplied-by-L")

    def in_convention(self, params: ModelParams) -> SaddleAnalysis:
        """This raw analysis in the reporting convention of params: scaled
        by its box length under Scaling.TIMES_L."""
        if params.scaling is Scaling.TIMES_L:
            return self.scaled(params.box_length)
        return self


def hessian_analysis(point: CriticalPoint, params: ModelParams) -> SaddleAnalysis:
    """Normal-mode decomposition of a critical point in raw units."""
    hess = np.array(point.hessian)
    sig, vec = np.linalg.eigh(hess)
    minv = np.diag([1.0 / MU_R, 1.0 / mu_eta(params)])
    masses = [1.0 / float(vec[:, i] @ minv @ vec[:, i]) for i in range(2)]
    value = float(effective_potential(point.r, point.eta, params, scaled=False))
    return SaddleAnalysis(point.r, point.eta, point.kind, value,
                          tuple(float(s) for s in sig),
                          tuple(masses),
                          tuple(map(tuple, vec.T.tolist())),
                          point.kind == "degenerate")


def find_saddle(params: ModelParams) -> SaddleAnalysis | None:
    """The raw-unit analysis of the first saddle find_critical_points finds
    (None when it finds none); .in_convention(params) reports it."""
    return find_critical_points(params).saddle


def suggest_timestep(params: ModelParams) -> float:
    """1/200 of the fastest stable normal-mode period over all critical
    points find_critical_points finds."""
    periods = [period for ana in find_critical_points(params).analyses
               for period in ana.stable_periods]
    if not periods:
        raise ValueError("no stable mode found; cannot suggest a timestep")
    return (1.0 / 200.0) * min(periods)
