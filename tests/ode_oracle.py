"""Time-domain oracle for the closed-form efficiencies, used by the tests only.

Free decay after an instantaneous pi-pulse is propagated exactly in the
bilinear eigenbasis, e_xi(t) = exp(i lambda_xi t) e_xi(0), or integrated
directly as an ODE (an independent check of the same propagator).
Piecewise-constant control segments always integrate the coupled [e; s]
system. A trapezoid rule over the detected flux then checks
`arraymem.dynamics.eta_finite_time`, and so does `eta_pair_window`, the
same closed form summed pair by pair with its window factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from arraymem.errors import InvalidArgumentError, NumericalError
from arraymem.greens import InteractionMatrix
from arraymem.modes import ModeSamples
from arraymem.retrieval import (
    _check_spin_wave,
    efficiency_prefactor,
    mode_projections,
)
from arraymem.spectral import SpectralDecomposition, eigendecompose

PI_PULSE = "pi-pulse-at-zero"
PIECEWISE = "piecewise-constant"
NORM_STEP_TOL = 1e-9
ODE_TOL = 1e-10


@dataclass(frozen=True)
class ControlSchedule:
    """Readout control field.

    kind "pi-pulse-at-zero": the whole spin wave is transferred to the
    excited state at t = 0 and the array decays freely (no segments).
    kind "piecewise-constant": a list of (duration, omega_c, delta)
    segments in decay-rate units.
    """

    kind: str = PI_PULSE
    segments: tuple = ()

    def __post_init__(self):
        if self.kind not in (PI_PULSE, PIECEWISE):
            raise InvalidArgumentError(f"unknown schedule kind {self.kind!r}")
        if self.kind == PI_PULSE and self.segments:
            raise InvalidArgumentError("pi-pulse schedule carries no segments")
        if self.kind == PIECEWISE:
            if not self.segments:
                raise InvalidArgumentError("piecewise schedule needs segments")
            for seg in self.segments:
                duration = seg[0]
                if duration <= 0:
                    raise InvalidArgumentError("segment durations must be positive")
        object.__setattr__(self, "segments", tuple(tuple(s) for s in self.segments))


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Sampled amplitudes e_j(t), s_j(t) on a time grid."""

    times: np.ndarray
    e: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        norms = self.total_norm()
        if np.any(np.diff(norms) > NORM_STEP_TOL):
            worst = float(np.max(np.diff(norms)))
            raise NumericalError(
                f"total norm increased by {worst:.3e} along the trajectory",
                achieved=worst,
            )

    def total_norm(self) -> np.ndarray:
        return np.sum(np.abs(self.e) ** 2, axis=1) + np.sum(
            np.abs(self.s) ** 2, axis=1
        )


def evolve(
    m: InteractionMatrix,
    s0,
    schedule: ControlSchedule,
    t_end: float,
    n_steps: int = 801,
    method: str = "spectral",
    dec: SpectralDecomposition | None = None,
) -> AmplitudeTrajectory:
    """Propagate the amplitudes up to t_end (units of the single-atom lifetime).

    For the pi-pulse schedule, method "spectral" uses the exact eigenmode
    propagator while "ode" integrates the same equations with a high-order
    Runge-Kutta scheme (independent oracle). Piecewise-constant schedules
    always integrate the coupled 2N-dimensional linear system.
    """
    if t_end <= 0:
        raise InvalidArgumentError("t_end must be positive")
    s0 = _check_spin_wave(s0, m.basis.n_atoms)
    times = np.linspace(0.0, t_end, n_steps)
    size = len(m.entries)
    c = size // m.basis.n_atoms  # M has a row per (atom, dipole component)

    if schedule.kind == PI_PULSE:
        # the pi-pulse puts the spin wave into the x dipoles
        e0 = np.zeros(size, dtype=complex)
        e0[::c] = s0
        if method == "spectral":
            if dec is None:
                dec = eigendecompose(m)
            if dec.basis.columns < size:
                raise InvalidArgumentError(
                    "evolve propagates every mode, not those of a symmetry sector"
                )
            coeff = dec.eigenvectors.T @ e0
            phases = np.exp(1j * np.outer(times, dec.eigenvalues))
            e_t = (phases * coeff) @ dec.eigenvectors.T
        elif method == "ode":
            a = m.entries

            def rhs(_t, y):
                return 1j * (a @ y)

            sol = solve_ivp(
                rhs,
                (0.0, t_end),
                e0,
                t_eval=times,
                method="DOP853",
                rtol=ODE_TOL,
                atol=ODE_TOL,
            )
            if not sol.success:
                raise NumericalError(f"ODE integration failed: {sol.message}")
            e_t = sol.y.T
        else:
            raise InvalidArgumentError(f"unknown method {method!r}")
        s_t = np.zeros_like(e_t[:, : m.basis.n_atoms])
        return AmplitudeTrajectory(times=times, e=e_t, s=s_t)

    # piecewise-constant control: integrate [e; s] segment by segment
    a = m.entries

    def rhs_factory(omega, delta):
        def rhs(_t, y):
            e = y[:size]
            s = y[size:]
            de = 1j * delta * e + 1j * (a @ e)
            de[::c] += -1j * omega * s
            ds = -1j * np.conj(omega) * e[::c]
            return np.concatenate([de, ds])

        return rhs

    # segment boundaries clipped to [0, t_end]; control is off past the last
    bounds = []
    t_cursor = 0.0
    for duration, omega, delta in schedule.segments:
        seg_end = min(t_cursor + duration, t_end)
        if seg_end > t_cursor:
            bounds.append((t_cursor, seg_end, complex(omega), float(delta)))
        t_cursor = seg_end
        if t_cursor >= t_end:
            break
    if t_cursor < t_end:
        bounds.append((t_cursor, t_end, 0.0 + 0.0j, 0.0))

    state = np.concatenate([np.zeros(size, dtype=complex), s0])
    grid_out = [0.0]
    e_rows = [state[:size].copy()]
    s_rows = [state[size:].copy()]
    for t0, t1, omega, delta in bounds:
        pts = times[(times > t0 + 1e-15) & (times <= t1 + 1e-15)]
        t_eval = np.unique(np.concatenate([pts, [t1]]))
        sol = solve_ivp(
            rhs_factory(omega, delta),
            (t0, t1),
            state,
            t_eval=t_eval,
            method="BDF",
            rtol=ODE_TOL,
            atol=ODE_TOL,
        )
        if not sol.success:
            raise NumericalError(f"ODE integration failed: {sol.message}")
        for k, t in enumerate(t_eval):
            if np.any(np.abs(pts - t) < 1e-15):
                grid_out.append(t)
                e_rows.append(sol.y[:size, k])
                s_rows.append(sol.y[size:, k])
        state = sol.y[:, -1]
    return AmplitudeTrajectory(
        times=np.array(grid_out), e=np.array(e_rows), s=np.array(s_rows)
    )


def detected_amplitude(samples: ModeSamples, e_rows: np.ndarray) -> np.ndarray:
    """Projection of excited amplitudes onto the detection mode, per time:
    the beam reaches the x dipoles only."""
    e_rows = np.atleast_2d(e_rows)
    c = e_rows.shape[1] // samples.n_atoms
    return e_rows[:, ::c] @ samples.values.conj()


def eta_from_trajectory(
    samples: ModeSamples, traj: AmplitudeTrajectory
) -> float:
    """Trapezoid quadrature of the detected flux along a trajectory."""
    amp = detected_amplitude(samples, traj.e)
    flux = np.abs(amp) ** 2
    return float(
        efficiency_prefactor(samples) * np.trapezoid(flux, traj.times)
    )


def eta_pair_window(
    dec: SpectralDecomposition, samples: ModeSamples, s0, t_d: float
) -> float:
    """Efficiency collected in [0, t_d] as one sum over mode pairs, each
    pair integral i (1 - exp(i (lambda - lambda'*) t_d)) / (lambda - lambda'*)
    formed in full."""
    s0 = _check_spin_wave(s0, dec.basis.n_atoms)
    proj = mode_projections(dec, samples)
    amp0 = dec.eigenvectors[dec.basis.x].T @ (dec.basis.q_x.T @ s0)
    lam = dec.eigenvalues
    decay = np.exp(1j * (lam[:, None] - lam.conj()[None, :]) * t_d)
    window = dec.pair_kernel * (1.0 - decay)
    c = proj * amp0
    return float(efficiency_prefactor(samples) * np.real(c @ (window @ c.conj())))


def trajectory_to_rows(samples: ModeSamples, traj: AmplitudeTrajectory) -> list:
    """Rows (t, excited norm, spin norm, detected flux) along a trajectory."""
    flux = efficiency_prefactor(samples) * np.abs(
        detected_amplitude(samples, traj.e)
    ) ** 2
    e_norm = np.sum(np.abs(traj.e) ** 2, axis=1)
    s_norm = np.sum(np.abs(traj.s) ** 2, axis=1)
    return [
        {
            "t": float(traj.times[k]),
            "excited_norm": float(e_norm[k]),
            "spin_norm": float(s_norm[k]),
            "detected_flux": float(flux[k]),
        }
        for k in range(len(traj.times))
    ]
