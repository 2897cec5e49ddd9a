import numpy as np
import pytest

from arraymem import (
    ISOTROPIC,
    TWO_LEVEL,
    DetectionMode,
    apply_position_disorder,
    build_square_array,
    eigendecompose,
    eta_finite_time,
    interaction_matrix,
    k_matrix,
    max_efficiency,
    remove_holes,
    sample_mode,
    studies,
)
from arraymem.errors import InvalidArgumentError
from arraymem.retrieval import efficiency_of_spin_wave
from ode_oracle import (
    PIECEWISE,
    ControlSchedule,
    eta_from_trajectory,
    eta_pair_window,
    evolve,
    trajectory_to_rows,
)

# (geometry, model): the sector solve, two whole-space solves, three components
LATTICES = {
    "perfect": (lambda: build_square_array(4, 0.6), TWO_LEVEL),
    "holed": (lambda: remove_holes(build_square_array(4, 0.6), [3, 8]), TWO_LEVEL),
    "disordered": (lambda: apply_position_disorder(build_square_array(4, 0.6), 0.02, 5), TWO_LEVEL),
    "isotropic": (lambda: build_square_array(4, 0.6), ISOTROPIC),
}


@pytest.fixture(scope="module")
def array_3x3():
    g = build_square_array(3, 0.6)
    m = interaction_matrix(g)
    dec = eigendecompose(m)
    samples = sample_mode(DetectionMode(w0=1.2), g)
    sol = max_efficiency(k_matrix(dec, samples))
    return g, m, dec, samples, sol


def test_single_atom_free_decay():
    m = interaction_matrix(build_square_array(1, 0.6))
    traj = evolve(m, np.array([1.0 + 0j]), ControlSchedule(), 5.0, n_steps=51)
    np.testing.assert_allclose(
        np.abs(traj.e[:, 0]) ** 2, np.exp(-traj.times), rtol=0, atol=1e-12
    )


def test_spin_manifold_frozen_without_control(array_3x3):
    _, m, _, _, _ = array_3x3
    s0 = np.zeros(9, dtype=complex)
    s0[4] = 1.0
    sched = ControlSchedule(kind=PIECEWISE, segments=[(3.0, 0.0, 0.0)])
    traj = evolve(m, s0, sched, 3.0, n_steps=31)
    np.testing.assert_array_equal(traj.s, np.tile(s0, (len(traj.times), 1)))
    assert np.max(np.abs(traj.e)) == 0.0


@pytest.mark.parametrize("n", [3, 4])
def test_spectral_matches_ode(n):
    g = build_square_array(n, 0.6)
    m = interaction_matrix(g)
    dec = eigendecompose(m)
    samples = sample_mode(DetectionMode(w0=1.2), g)
    s0 = max_efficiency(k_matrix(dec, samples)).spin_wave
    sched = ControlSchedule()
    t_sp = evolve(m, s0, sched, 20.0, n_steps=81, method="spectral", dec=dec)
    t_ode = evolve(m, s0, sched, 20.0, n_steps=81, method="ode")
    assert np.max(np.abs(t_sp.e - t_ode.e)) < 1e-8


def test_norm_never_increases(array_3x3):
    _, m, dec, _, sol = array_3x3
    traj = evolve(m, sol.spin_wave, ControlSchedule(), 30.0, n_steps=301, dec=dec)
    norms = traj.total_norm()
    assert np.all(np.diff(norms) <= 1e-9)


def test_norm_decay_spectral_vs_ode(array_3x3):
    _, m, dec, _, sol = array_3x3
    sched = ControlSchedule()
    t_sp = evolve(m, sol.spin_wave, sched, 10.0, n_steps=101, dec=dec)
    t_ode = evolve(m, sol.spin_wave, sched, 10.0, n_steps=101, method="ode")
    np.testing.assert_allclose(
        t_sp.total_norm(), t_ode.total_norm(), rtol=0, atol=1e-8
    )


def test_finite_time_limit_matches_k_matrix(array_3x3):
    _, _, dec, samples, sol = array_3x3
    eta_lim = eta_finite_time(k_matrix(dec, samples), sol.spin_wave, 1e3)
    assert abs(eta_lim - sol.eta_max) < 1e-9


@pytest.fixture(scope="module", params=sorted(LATTICES))
def solved(request):
    build, model = LATTICES[request.param]
    return studies.solve(build(), DetectionMode(w0=1.2), model)


@pytest.mark.parametrize("t_d", [0.1, 1.0, 10.0, 1e3])
@pytest.mark.parametrize("spin", ["optimal", "random"])
def test_finite_time_matches_pair_window_oracle(solved, spin, t_d):
    if spin == "optimal":
        s = solved.solution.spin_wave
    else:
        n = solved.k.basis.n_atoms
        rng = np.random.default_rng(n)
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        s /= np.linalg.norm(s)
    eta = eta_finite_time(solved.k, s, t_d)
    assert abs(eta - eta_pair_window(solved.dec, solved.samples, s, t_d)) <= 1e-13


def test_finite_time_monotone_in_window(array_3x3):
    _, _, dec, samples, sol = array_3x3
    grid = np.geomspace(0.05, 50.0, 25)
    mat = k_matrix(dec, samples)
    vals = [eta_finite_time(mat, sol.spin_wave, t) for t in grid]
    assert np.all(np.diff(vals) >= -1e-12)


def test_closed_form_matches_trajectory_quadrature(array_3x3):
    _, m, dec, samples, sol = array_3x3
    t_d = 5.0
    traj = evolve(m, sol.spin_wave, ControlSchedule(), t_d, n_steps=5001, dec=dec)
    eta_closed = eta_finite_time(k_matrix(dec, samples), sol.spin_wave, t_d)
    eta_trapz = eta_from_trajectory(samples, traj)
    assert abs(eta_closed - eta_trapz) < 1e-6


def test_detected_never_exceeds_emitted(array_3x3):
    _, m, dec, samples, sol = array_3x3
    for t_d in (0.5, 2.0, 10.0):
        traj = evolve(m, sol.spin_wave, ControlSchedule(), t_d, n_steps=41, dec=dec)
        emitted = 1.0 - traj.total_norm()[-1]
        detected = eta_finite_time(k_matrix(dec, samples), sol.spin_wave, t_d)
        assert detected <= emitted + 1e-8


def test_fast_control_pulse_approaches_pi_pulse(array_3x3):
    _, m, dec, samples, sol = array_3x3
    omega = 400.0
    t_pulse = np.pi / (2 * omega)
    sched = ControlSchedule(kind=PIECEWISE, segments=[(t_pulse, omega, 0.0)])
    t_end = 6.0
    traj = evolve(m, sol.spin_wave, sched, t_end, n_steps=1201)
    eta_pulse = eta_from_trajectory(samples, traj)
    mat = k_matrix(dec, samples)
    eta_ref = eta_finite_time(mat, sol.spin_wave, t_end)
    # instantaneous-readout limit: fast pulse reproduces the pi-pulse value
    assert eta_pulse == pytest.approx(eta_ref, rel=0.01)
    assert eta_pulse <= efficiency_of_spin_wave(mat, sol.spin_wave) + 1e-9


def test_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        ControlSchedule(kind="ramp")
    with pytest.raises(InvalidArgumentError):
        ControlSchedule(segments=[(1.0, 1.0, 0.0)])
    with pytest.raises(InvalidArgumentError):
        ControlSchedule(kind=PIECEWISE, segments=[])
    with pytest.raises(InvalidArgumentError):
        ControlSchedule(kind=PIECEWISE, segments=[(-1.0, 1.0, 0.0)])


def test_evolve_argument_validation(array_3x3):
    _, m, _, _, _ = array_3x3
    good = np.zeros(9, dtype=complex)
    good[0] = 1.0
    with pytest.raises(InvalidArgumentError):
        evolve(m, good, ControlSchedule(), -1.0)
    with pytest.raises(InvalidArgumentError):
        evolve(m, 2 * good, ControlSchedule(), 1.0)
    with pytest.raises(InvalidArgumentError):
        evolve(m, good[:4], ControlSchedule(), 1.0)
    with pytest.raises(InvalidArgumentError):
        evolve(m, good, ControlSchedule(), 1.0, method="verlet")


def test_finite_time_requires_positive_window(array_3x3):
    _, _, dec, samples, sol = array_3x3
    mat = k_matrix(dec, samples)
    for t_d in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            eta_finite_time(mat, sol.spin_wave, t_d)


def test_trajectory_csv_rows(array_3x3):
    _, m, dec, samples, sol = array_3x3
    traj = evolve(m, sol.spin_wave, ControlSchedule(), 2.0, n_steps=21, dec=dec)
    rows = trajectory_to_rows(samples, traj)
    assert len(rows) == 21
    assert rows[0]["excited_norm"] == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["spin_norm"] == 0.0
    assert all(r["detected_flux"] >= 0.0 for r in rows)
    # flux integrates to the finite-window efficiency
    t = np.array([r["t"] for r in rows])
    f = np.array([r["detected_flux"] for r in rows])
    eta_ref = eta_finite_time(k_matrix(dec, samples), sol.spin_wave, 2.0)
    assert np.trapezoid(f, t) == pytest.approx(eta_ref, rel=5e-3)
