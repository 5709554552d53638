"""Center-of-mass classical dynamics: potential, critical points, integrator."""

import numpy as np
import pytest

import triscar as ts
from triscar import classical
from triscar.classical import MU_R, bar_potential, mu_eta


# ---------------------------------------------------------------------------
# effective potential and derivatives


def _fd_grad(f, x, h):
    g = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _fd_hess(f, x, h):
    hess = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2)
            ej = np.zeros(2)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                          - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
    return hess


def test_grad_matches_finite_differences(raw_params):
    L = raw_params.box_length

    def f(x):
        return ts.effective_potential(x[0], x[1], raw_params)

    for r, eta in [(0.07 * L, 0.21 * L), (-0.31 * L, 0.02 * L),
                   (0.5 * L - 1.0, -0.4 * L)]:
        x = np.array([r, eta])
        got = ts.effective_potential_grad(r, eta, raw_params)
        want = _fd_grad(f, x, 1e-5 * L)
        # tolerance on the gradient norm; single components pass through zero
        assert np.abs(got - want).max() <= 1e-7 * np.abs(got).max()


def test_hessian_matches_finite_differences(raw_params):
    L = raw_params.box_length

    def f(x):
        return ts.effective_potential(x[0], x[1], raw_params)

    x = np.array([0.11 * L, -0.17 * L])
    got = ts.effective_potential_hessian(x[0], x[1], raw_params)
    want = _fd_hess(f, x, 1e-4 * L)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-18)


def test_saddle_hessian_closed_form(raw_params):
    """At the origin the averaged pair terms give U_rr = -g pi^2 / L^3 and
    U_ee = 4 g pi^2 / L^3 with no cross term."""
    g = raw_params.coupling
    L = raw_params.box_length
    hess = ts.effective_potential_hessian(0.0, 0.0, raw_params)
    assert hess[0, 0] == pytest.approx(-g * np.pi ** 2 / L ** 3, rel=1e-12)
    assert hess[1, 1] == pytest.approx(4.0 * g * np.pi ** 2 / L ** 3,
                                       rel=1e-12)
    assert hess[0, 1] == pytest.approx(0.0, abs=1e-30)


def test_bar_potential_periodicity(raw_params):
    L = raw_params.box_length
    x = 0.37 * L
    assert bar_potential(x, L) == pytest.approx(bar_potential(x - L, L),
                                                rel=1e-12)


def test_masses(raw_params):
    assert MU_R == 0.25
    gamma = raw_params.gamma
    assert mu_eta(raw_params) == pytest.approx(gamma / (2.0 + gamma),
                                               rel=1e-15)


def test_scaled_potential_factor(params, raw_params):
    L = params.box_length
    raw = ts.effective_potential(0.1 * L, 0.2 * L, raw_params)
    scl = ts.effective_potential(0.1 * L, 0.2 * L, params)
    assert scl == pytest.approx(raw * L, rel=1e-13)


# ---------------------------------------------------------------------------
# critical points


def test_critical_points_located(raw_params):
    L = raw_params.box_length
    res = ts.find_critical_points(raw_params)
    assert not res.failed_seeds
    kinds = sorted(p.kind for p in res.points)
    assert kinds == ["minimum", "minimum", "saddle"]
    sad = next(p for p in res.points if p.kind == "saddle")
    assert abs(sad.r) <= 1e-10 * L and abs(sad.eta) <= 1e-10 * L
    for p in res.points:
        if p.kind == "minimum":
            assert abs(abs(p.r) - L / 3.0) <= 1e-10 * L
            assert abs(p.eta) <= 1e-10 * L


def test_saddle_frequency_closed_form(raw_params):
    """eta-mode frequency: omega^2 = 4 g pi^2 (2 + gamma) / (gamma L^3)."""
    g = raw_params.coupling
    L = raw_params.box_length
    gamma = raw_params.gamma
    res = ts.find_critical_points(raw_params)
    sad = next(p for p in res.points if p.kind == "saddle")
    ana = ts.hessian_analysis(sad, raw_params)
    want = np.sqrt(4.0 * g * np.pi ** 2 * (2.0 + gamma) / (gamma * L ** 3))
    assert min(ana.stable_frequencies) == pytest.approx(want, rel=1e-12)


def test_saddle_analysis_scaled_consistency(raw_params, params):
    L = params.box_length
    res = ts.find_critical_points(raw_params)
    sad = next(p for p in res.points if p.kind == "saddle")
    raw_ana = ts.hessian_analysis(sad, raw_params)
    scl_ana = raw_ana.scaled(L)
    # curvatures pick up L, masses lose it; frequencies gain a factor L
    np.testing.assert_allclose(np.asarray(scl_ana.sigmas),
                               np.asarray(raw_ana.sigmas) * L, rtol=1e-13)
    np.testing.assert_allclose(scl_ana.stable_frequencies,
                               np.array(raw_ana.stable_frequencies) * L,
                               rtol=1e-12)
    assert scl_ana.scaling == "multiplied-by-L"


def test_lambda_conventions(saddle):
    assert saddle.lambda_sigma == pytest.approx(abs(min(saddle.sigmas)),
                                                rel=1e-15)
    mu_unstable = saddle.masses[int(np.argmin(saddle.sigmas))]
    want = np.sqrt(saddle.lambda_sigma / mu_unstable)
    assert saddle.lambda_rate == pytest.approx(want, rel=1e-13)


def test_minimum_value(raw_params):
    """U at (L/3, 0) sits at -g(1 + 2 cos(2 pi / 3)) / (2) ... evaluated
    directly instead: the averaged potential there equals -7.5 / L scaled,
    checked against the direct expression."""
    L = raw_params.box_length
    val = ts.effective_potential(L / 3.0, 0.0, raw_params)
    # direct sum of the three averaged pair terms at the triangle point
    g = raw_params.coupling
    direct = (g / (2.0 * L)) * (1.0 + np.cos(2.0 * np.pi / 3.0)) \
        - 2.0 * (g / (2.0 * L)) * (1.0 + np.cos(np.pi / 3.0) * 0.0)
    # the eta coordinate couples through both light-heavy separations; use
    # the package value only for the scaled magnitude
    assert val * L == pytest.approx(-7.5, abs=1e-9)


# ---------------------------------------------------------------------------
# integrator


def test_energy_drift_bound(raw_params):
    L = raw_params.box_length
    dt = ts.suggest_timestep(raw_params)
    traj = ts.integrate_orbit([L / 3.0, 0.0, 0.02 * L, 0.0], dt, 10_000,
                              raw_params, dimension=1)
    assert traj.energy_drift() <= 1e-8
    assert traj.n_steps == 10_000


def test_forward_backward_closure(raw_params):
    L = raw_params.box_length
    dt = ts.suggest_timestep(raw_params)
    init = np.array([L / 3.0, 0.0, 0.02 * L, 0.0])
    fwd = ts.integrate_orbit(init, dt, 10_000, raw_params, dimension=1)
    back_state = fwd.final.copy()
    back_state[1] *= -1.0
    back_state[3] *= -1.0
    back = ts.integrate_orbit(back_state, dt, 10_000, raw_params, dimension=1)
    closed = back.final.copy()
    closed[1] *= -1.0
    closed[3] *= -1.0
    rel = np.abs(closed - init).max() / np.linalg.norm(init)
    assert rel <= 1e-9


def test_harmonic_period_at_minimum(raw_params):
    L = raw_params.box_length
    res = ts.find_critical_points(raw_params)
    mn = next(p for p in res.points if p.kind == "minimum" and p.r > 0)
    ana = ts.hessian_analysis(mn, raw_params)
    expected = min(ana.stable_periods)
    dt = ts.suggest_timestep(raw_params) / 5.0
    traj = ts.integrate_orbit([mn.r, 0.0, 1e-3 * L, 0.0], dt, 60_000,
                              raw_params, dimension=1)
    eta = traj.states[:, 2]
    crossings = []
    for i in range(1, len(eta)):
        if eta[i - 1] < 0.0 <= eta[i]:
            t0, t1 = traj.times[i - 1], traj.times[i]
            frac = -eta[i - 1] / (eta[i] - eta[i - 1])
            crossings.append(t0 + frac * (t1 - t0))
    assert len(crossings) >= 2
    period = float(np.mean(np.diff(crossings)))
    assert period == pytest.approx(expected, rel=0.01)


def test_planar_3d_preserved(raw_params):
    L = raw_params.box_length
    init = np.zeros(12)
    init[0] = 0.2 * L
    init[7] = 0.1 * L
    traj = ts.integrate_orbit(init, 5.0, 2_000, raw_params, dimension=3)
    z_cols = [2, 5, 8, 11]
    for c in z_cols:
        assert np.all(traj.states[:, c] == 0.0)
    assert traj.energy_drift() <= 1e-6


def test_wrap_preserves_untouched_components(raw_params):
    """A wrap event rewrites only the out-of-range coordinate.

    p_eta = 3e-4 puts the light kinetic energy above the barrier between
    wells, so eta actually circulates.
    """
    L = raw_params.box_length
    dt = ts.suggest_timestep(raw_params)
    traj = ts.integrate_orbit([L / 3.0, 0.0, 0.2 * L, 3e-4], dt, 3_000,
                              raw_params, dimension=1, wrap=True)
    wraps = [e for e in traj.events if e.kind == "wrap"]
    assert wraps
    eta = traj.states[:, 2]
    assert np.all(np.abs(eta) <= 0.5 * L + 1e-9)


def test_no_wrap_mode(raw_params):
    L = raw_params.box_length
    dt = ts.suggest_timestep(raw_params)
    traj = ts.integrate_orbit([L / 3.0, 0.0, 0.2 * L, 3e-4], dt, 3_000,
                              raw_params, dimension=1, wrap=False)
    assert not traj.events
    assert np.abs(traj.states[:, 2]).max() > 0.5 * L


def test_wrap_conserves_energy(raw_params):
    """U is L-periodic in eta, so cell wraps must not inject energy.

    The circulating orbit needs a finer step than the oscillation default
    to hold the drift at the usual bound.
    """
    L = raw_params.box_length
    dt = ts.suggest_timestep(raw_params) / 4.0
    traj = ts.integrate_orbit([L / 3.0, 0.0, 0.2 * L, 3e-4], dt, 8_000,
                              raw_params, dimension=1, wrap=True)
    assert len([e for e in traj.events if e.kind == "wrap"]) > 2
    assert traj.energy_drift() <= 1e-8


def test_singularity_stop(raw_params):
    L = raw_params.box_length
    # light particle heading straight for heavy 1 along the x axis; the
    # stop tolerance is widened so the approach is caught before the step
    # size skips across the singular ball
    init = np.zeros(12)
    init[0] = 0.2 * L
    init[6] = 0.095 * L
    init[9] = 1e-4
    traj = ts.integrate_orbit(init, 1.0, 10_000, raw_params, dimension=3,
                              singularity_tol=0.002 * L)
    assert traj.stopped
    assert "pair distance" in traj.stop_reason
    assert traj.n_steps < 10_000
    kinds = {e.kind for e in traj.events}
    assert "singularity" in kinds
    assert len(traj.times) == traj.n_steps + 1


def test_3d_orbit_measures_each_position_once(raw_params, monkeypatch):
    """Positions change only in the drift, so a 3D orbit measures the pair
    distances of its start and of each drift: steps + 1 calls."""
    from triscar import classical
    calls = []
    measure = classical.pair_distances_3d

    def counted(r_vec, eta_vec):
        calls.append(1)
        return measure(r_vec, eta_vec)

    monkeypatch.setattr(classical, "pair_distances_3d", counted)
    L = raw_params.box_length
    init = np.zeros(12)
    init[0] = 0.2 * L
    init[7] = 0.1 * L
    traj = ts.integrate_orbit(init, 5.0, 200, raw_params, dimension=3)
    assert not traj.stopped and traj.n_steps == 200
    assert len(calls) == 201


def test_singular_start_stops_at_step_zero(raw_params):
    """A 3D start inside the singular ball stops before the first step,
    with one event at step 0 and the start's time."""
    L = raw_params.box_length
    init = np.zeros(12)
    init[0] = 0.2 * L
    init[6] = 0.0999 * L
    traj = ts.integrate_orbit(init, 1.0, 100, raw_params, dimension=3,
                              singularity_tol=0.002 * L)
    assert traj.stopped and traj.n_steps == 0
    assert len(traj.events) == 1
    event = traj.events[0]
    assert (event.kind, event.step, event.time) == ("singularity", 0, traj.times[0])
    assert event.detail == traj.stop_reason


def test_timestep_suggestion(raw_params):
    dt = ts.suggest_timestep(raw_params)
    res = ts.find_critical_points(raw_params)
    sad = next(p for p in res.points if p.kind == "saddle")
    ana = ts.hessian_analysis(sad, raw_params)
    period = min(ana.stable_periods)
    assert 0.0 < dt < period / 100.0


def reference_integrate_orbit(initial, dt, steps, params, dimension=1, wrap=True,
                              singularity_tol=None):
    """A per-step oracle of the leapfrog: one update block per dimension over
    index slices of the state, and each energy taken inside the loop.
    integrate_orbit must match it bit for bit."""
    state = np.array(initial, dtype=np.float64)
    L = params.box_length
    gamma = params.gamma
    singularity_tol = singularity_tol or 1e-6 * L

    if dimension == 1:
        def force(s):
            return -classical.effective_potential_grad(s[0], s[2], params)

        def energy(s):
            return classical.hamiltonian_cm_1d(s, params)
    else:
        def force(s):
            g_r, g_eta = classical._coulomb_grads(s[0:3], s[6:9])
            return np.concatenate([-g_r, -g_eta])

        def energy(s):
            return classical.hamiltonian_cm_3d(s, params)

    times = np.empty(steps + 1)
    stored = np.empty((steps + 1, len(state)))
    energies = np.empty(steps + 1)
    events = []
    times[0] = 0.0
    stored[0] = state
    energies[0] = energy(state)

    def singular(step):
        nonlocal stop_reason
        dmin = min(classical.pair_distances_3d(state[0:3], state[6:9]))
        if dmin >= singularity_tol:
            return False
        stop_reason = f"pair distance {dmin:.3e} below {singularity_tol:.3e}"
        events.append(classical.OrbitEvent(step, step * dt, "singularity", stop_reason))
        return True

    vel_eta = (2.0 + gamma) / gamma
    stop_reason = None
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
                t_now = step * dt
                if state[0] < -L / 2.0 or state[0] >= L / 2.0:
                    state[0] = (state[0] + L / 2.0) % L - L / 2.0
                    events.append(classical.OrbitEvent(step, t_now, "wrap", "r"))
                if state[2] < -L / 2.0 or state[2] >= L / 2.0:
                    state[2] = (state[2] + L / 2.0) % L - L / 2.0
                    events.append(classical.OrbitEvent(step, t_now, "wrap", "eta"))
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
    return classical.Trajectory(times[:n_keep], stored[:n_keep], energies[:n_keep],
                                events, stopped, stop_reason)


def _assert_same_orbit(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.energies, want.energies)
    assert got.events == want.events
    assert (got.stopped, got.stop_reason) == (want.stopped, want.stop_reason)


def _planar_3d(L):
    init = np.zeros(12)
    init[0], init[7] = 0.2 * L, 0.1 * L
    return init, 5.0, 2_000, {}


def _singular_start_3d(L):
    init = np.zeros(12)
    init[0], init[6] = 0.2 * L, 0.0999 * L
    return init, 1.0, 100, {"singularity_tol": 0.002 * L}


def _stops_mid_run_3d(L):
    init = np.zeros(12)
    init[0], init[6], init[9] = 0.2 * L, 0.095 * L, 1e-4
    return init, 1.0, 10_000, {"singularity_tol": 0.002 * L}


@pytest.mark.parametrize("case, dimension, expect", [
    (lambda L: ([L / 3.0, 0.0, 0.02 * L, 0.0], None, 10_000, {}), 1, "ran"),
    (lambda L: ([1000.0, 300.0, 20.0, 0.5], None, 4_000, {}), 1, "wraps r and eta"),
    (lambda L: ([L / 3.0, 0.0, 0.2 * L, 3e-4], None, 3_000, {"wrap": False}), 1, "ran"),
    (_planar_3d, 3, "ran"),
    (_singular_start_3d, 3, "stopped at 0"),
    (_stops_mid_run_3d, 3, "stopped"),
], ids=["1d-default", "1d-wraps", "1d-no-wrap", "3d-runs", "3d-singular-start",
        "3d-stops-mid-run"])
def test_orbit_matches_the_per_step_reference(raw_params, case, dimension, expect):
    init, dt, steps, options = case(raw_params.box_length)
    dt = dt or ts.suggest_timestep(raw_params)
    got = ts.integrate_orbit(init, dt, steps, raw_params, dimension=dimension,
                             **options)
    _assert_same_orbit(got, reference_integrate_orbit(
        init, dt, steps, raw_params, dimension=dimension, **options))
    # each case reaches the branch it is named for
    kinds = {(e.kind, e.detail) for e in got.events}
    if expect == "wraps r and eta":
        assert {("wrap", "r"), ("wrap", "eta")} <= kinds
    elif expect == "stopped at 0":
        assert got.stopped and got.n_steps == 0
    elif expect == "stopped":
        assert got.stopped and 0 < got.n_steps < steps
    else:
        assert not got.stopped and not got.events and got.n_steps == steps


@pytest.mark.parametrize("dimension, options", [
    (1, {"steps": 3_000}),
    (3, {"dt": 0.5, "steps": 4_000, "n_orbits": 4}),
], ids=["1d", "3d"])
def test_straddle_ensembles_match_the_per_step_reference(raw_params, monkeypatch,
                                                         dimension, options):
    run = ts.run_orbits(raw_params, dimension=dimension, ensemble="straddle",
                        **options)
    monkeypatch.setattr(classical, "integrate_orbit", reference_integrate_orbit)
    want = ts.run_orbits(raw_params, dimension=dimension, ensemble="straddle",
                         **options)
    assert len(run.trajectories) == len(want.trajectories) > 1
    for got, ref in zip(run.trajectories, want.trajectories):
        _assert_same_orbit(got, ref)


def test_hamiltonian_1d_of_a_stack_is_each_state_bit_for_bit(raw_params):
    L = raw_params.box_length
    states = np.random.default_rng(29).uniform(-1.0, 1.0, (257, 4)) * [L, 1e-2, L, 1e-2]
    stacked = ts.hamiltonian_cm_1d(states, raw_params)
    assert stacked.shape == (257,)
    rows = [ts.hamiltonian_cm_1d(st, raw_params) for st in states]
    assert all(isinstance(h, float) for h in rows)
    assert np.array_equal(stacked, rows)


def test_1d_energies_are_taken_once_per_chunk(raw_params, monkeypatch):
    """The loop takes no energy; hamiltonian_cm_1d runs once per
    ENERGY_CHUNK stored states after it."""
    calls = []
    energy = classical.hamiltonian_cm_1d

    def counted(state, params):
        calls.append(len(state))
        return energy(state, params)

    monkeypatch.setattr(classical, "hamiltonian_cm_1d", counted)
    monkeypatch.setattr(classical, "ENERGY_CHUNK", 100)
    L = raw_params.box_length
    traj = ts.integrate_orbit([L / 3.0, 0.0, 0.02 * L, 0.0],
                              ts.suggest_timestep(raw_params), 250, raw_params)
    assert calls == [100, 100, 51]
    assert traj.energy_drift() <= 1e-8


def hamilton_rhs_1d(state, params):
    """The 1D centre-of-mass Hamilton equations (dr, dp_r, deta, dp_eta)/dt."""
    r, pr, eta, pe = state
    g_r, g_eta = ts.effective_potential_grad(r, eta, params)
    return np.array([4.0 * pr, -g_r,
                     (2.0 + params.gamma) / params.gamma * pe, -g_eta])


def test_rhs_consistency(raw_params):
    """Hamilton equations match numerical derivatives of H.

    H is quadratic in the momenta, so a large momentum step keeps the
    central difference exact while staying clear of roundoff; the
    coordinate derivatives use a zero-momentum state so cancellation
    against the kinetic terms cannot occur.
    """
    L = raw_params.box_length

    def h_of(s):
        return ts.hamiltonian_cm_1d(s, raw_params)

    state = np.array([0.1 * L, 3.0, -0.2 * L, 5.0])
    got = hamilton_rhs_1d(state, raw_params)
    dp = np.zeros(4)
    dp[1] = 0.1
    assert got[0] == pytest.approx(
        (h_of(state + dp) - h_of(state - dp)) / 0.2, rel=1e-9)
    de = np.zeros(4)
    de[3] = 0.1
    assert got[2] == pytest.approx(
        (h_of(state + de) - h_of(state - de)) / 0.2, rel=1e-9)

    rest = np.array([0.1 * L, 0.0, -0.2 * L, 0.0])
    got0 = hamilton_rhs_1d(rest, raw_params)
    dq = np.zeros(4)
    dq[0] = 1e-3 * L
    assert got0[1] == pytest.approx(
        -(h_of(rest + dq) - h_of(rest - dq)) / (2e-3 * L), rel=1e-4)
    dqe = np.zeros(4)
    dqe[2] = 1e-3 * L
    assert got0[3] == pytest.approx(
        -(h_of(rest + dqe) - h_of(rest - dqe)) / (2e-3 * L), rel=1e-4)


def test_dynamics_ignores_reporting_scale(params, raw_params):
    """Orbits are computed in raw units regardless of the spectral
    reporting convention."""
    L = params.box_length
    state = [L / 3.0, 0.0, 0.02 * L, 0.0]
    dt = ts.suggest_timestep(raw_params)
    a = ts.integrate_orbit(state, dt, 500, raw_params, dimension=1)
    b = ts.integrate_orbit(state, dt, 500, params, dimension=1)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.energies, b.energies)
