"""Maximum retrieval efficiency from the collective-mode expansion.

Expanding the freely decaying excited-state amplitudes in the bilinear
eigenbasis turns the detected-photon-number integral into a Hermitian
quadratic form over the initial spin wave,

    eta = p sum_jl s_j(0) K_jl s_l(0)*,      p = (2 if two-sided) S / (4 F),

with S = 3/(2 pi) the resonant cross-section in wavelength units, F the
photon-flux norm of the detection beam, and

    K_jl = i sum_xi,xi'  v_xi,j  v_xi',l*  P_xi P_xi'* / (lambda_xi - lambda_xi'*),

where P_xi = sum_m v_xi,m E_m* projects the (conjugated) sampled mode onto
eigenmode xi. The i/(lambda - lambda*) kernel is the Gram matrix of decaying
exponentials, so K is Hermitian and positive semidefinite; the optimum spin
wave is the conjugate of its top eigenvector.

The eigensystem is solved in a basis Q (greens.SectorBasis): the beam's
mirror sector of a perfect lattice, or the whole space. M has c N_a
rows, one per atom and kept dipole component, and both the spin wave and
the beam (through E_x, greens.COMPONENTS) couple to its x rows alone.
Only the columns x of Q have weight there, and their x rows form Q_x.
With V_x the matching rows of the eigenvectors, a vector v over the atoms
enters the eigenmodes as V_x^T Q_x^T v: the beam as P = V_x^T Q_x^T E*,
and the spin wave alike. K is assembled over the columns x; the K over
the atoms is Q_x K Q_x^T, and the optimum lifts back as Q_x times the top
eigenvector. In the whole space Q_x = I.

K = V_x W V_x^H is formed only on request: a solve assembles the mode
Gram matrix W, and the top eigenpair comes from a block Rayleigh-Ritz
subspace iteration on x -> V_x (W (V_x^H x)) (Saad, Numerical Methods
for Large Eigenvalue Problems, 2nd ed., SIAM 2011, ch. 5).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalError
from .modes import ModeSamples
from .spectral import SpectralDecomposition

S_CROSS_SECTION = 3.0 / (2.0 * np.pi)
HERMITICITY_RTOL = 1e-10
NORM_TOL = 1e-9
DEGENERACY_RTOL = 1e-12
# The top Ritz pair stops at a residual |K v - theta v| of RITZ_RTOL theta,
# or of eps times the size of the terms K v sums if that is larger.
RITZ_RTOL = 1e-13
RITZ_BLOCK = 4
MAX_RITZ_ITERATIONS = 100


def _x_contraction(dec: SpectralDecomposition, v: np.ndarray) -> np.ndarray:
    """V_x^T Q_x^T v: a vector v over the atoms' x dipoles in the eigenmodes."""
    return dec.eigenvectors[dec.basis.x].T @ (dec.basis.q_x.T @ v)


def mode_projections(dec: SpectralDecomposition, samples: ModeSamples) -> np.ndarray:
    """P_xi = v_xi . E*: overlap of each eigenmode with the detection mode."""
    if samples.n_atoms != dec.basis.n_atoms:
        raise InvalidArgumentError(
            f"samples over {samples.n_atoms} atoms do not match a decomposition "
            f"over {dec.basis.n_atoms}"
        )
    return _x_contraction(dec, samples.values.conj())


def efficiency_prefactor(samples: ModeSamples) -> float:
    # Flux norm, not the raw surface norm: the detector counts photons per
    # unit time, and only this weighting reproduces the quartic small-waist
    # error law of a phased planar array.
    sided = 2.0 if samples.two_sided else 1.0
    return sided * S_CROSS_SECTION / (4.0 * samples.f_flux)


@dataclass(frozen=True)
class EfficiencyMatrix:
    """One configuration solved: the eigensystem dec of M, the beam
    samples at the atoms, and the efficiency matrix with its prefactor.

    w is the mode Gram matrix i P_xi P_xi'* / (lambda_xi - lambda_xi'*);
    a fixed spin wave is scored through it alone. K, over the x columns of
    dec.basis, is V_x w V_x^H with V_x the x rows of the eigenvectors, and
    is formed only on request; the K over the atoms is Q_x k Q_x^T.
    """

    dec: SpectralDecomposition
    samples: ModeSamples
    w: np.ndarray
    prefactor: float

    @functools.cached_property
    def k(self) -> np.ndarray:
        vx = self.dec.eigenvectors[self.dec.basis.x]
        return vx @ self.w @ vx.conj().T

    @functools.cached_property
    def solution(self) -> RetrievalSolution:
        """Top eigenpair of K, computed on first use: a study that scores
        a fixed spin wave never needs it."""
        return max_efficiency(self)

    @property
    def eta(self) -> float:
        return self.solution.eta_max


@dataclass(frozen=True)
class RetrievalSolution:
    """Top eigenpair of K expressed as an efficiency and a spin wave."""

    eta_max: float
    spin_wave: np.ndarray
    diagnostics: dict


def k_matrix(dec: SpectralDecomposition, samples: ModeSamples) -> EfficiencyMatrix:
    """Assemble the mode Gram matrix W of K = V_x W V_x^H, checked Hermitian."""
    proj = mode_projections(dec, samples)
    w = dec.pair_kernel * np.outer(proj, proj.conj())
    res = float(np.max(np.abs(w - w.conj().T)) / np.max(np.abs(w)))
    if res >= HERMITICITY_RTOL:
        raise NumericalError(
            f"assembled W lost Hermiticity, residual {res:.3e}", achieved=res
        )
    return EfficiencyMatrix(
        dec=dec, samples=samples, w=w, prefactor=efficiency_prefactor(samples)
    )


def _fix_phase(v: np.ndarray) -> np.ndarray:
    lead = v[np.argmax(np.abs(v))]
    mag = np.abs(lead)
    if mag == 0.0:
        return v
    return v * (mag / lead)


def _top_ritz_pair(vx: np.ndarray, w: np.ndarray):
    """Ritz values, top Ritz vector and its residual of K = vx w vx^H. The
    block starts from the eigenvectors of the brightest modes, largest Re W_xixi."""
    n = vx.shape[0]
    bright = np.argsort(-w.diagonal().real, kind="stable")[: min(RITZ_BLOCK, n)]
    q = np.linalg.qr(vx[:, bright])[0]
    # |vx| |W| |vx^H| <= |vx|_F^2 tr W bounds the terms K v sums
    floor = np.finfo(float).eps * np.linalg.norm(vx) ** 2 * np.trace(w).real
    for _ in range(MAX_RITZ_ITERATIONS):
        kq = vx @ (w @ (vx.conj().T @ q))
        theta, s = np.linalg.eigh(q.conj().T @ kq)
        top = q @ s[:, -1]
        residual = float(np.linalg.norm(kq @ s[:, -1] - theta[-1] * top))
        if residual <= max(RITZ_RTOL * theta[-1], floor):
            return theta, top, residual
        q = np.linalg.qr(kq)[0]
    raise NumericalError(
        f"top eigenpair of K not converged in {MAX_RITZ_ITERATIONS} iterations, "
        f"Ritz residual {residual:.3e} at eigenvalue {theta[-1]:.3e}",
        achieved=residual,
    )


def max_efficiency(mat: EfficiencyMatrix) -> RetrievalSolution:
    """Maximal efficiency and the spin wave that achieves it."""
    basis = mat.dec.basis
    ritz, top_vec, residual = _top_ritz_pair(mat.dec.eigenvectors[basis.x], mat.w)
    # the K over the atoms has the same spectrum plus zeros for the
    # atom-space directions outside the basis
    evals = np.sort(np.append(ritz, np.zeros(min(1, basis.n_atoms - len(top_vec)))))
    top = evals[-1]
    eta = float(mat.prefactor * top)
    gap = float(top - evals[-2]) if len(evals) > 1 else np.inf
    degenerate = len(evals) > 1 and gap <= DEGENERACY_RTOL * max(abs(top), 1e-300)
    # eta is s K s* with s entering unconjugated, so the optimizer is the
    # conjugate of the top eigenvector
    spin = _fix_phase((basis.q_x @ top_vec).conj())
    spin = spin / np.linalg.norm(spin)
    diagnostics = {
        "spectral_gap": gap,
        "degenerate_top": bool(degenerate),
        "ritz_residual": residual,
        "max_eigenvalue": float(top),
        "eta_bound_violation": max(0.0, eta - 1.0),
    }
    return RetrievalSolution(eta_max=eta, spin_wave=spin, diagnostics=diagnostics)


def _check_spin_wave(s, n_atoms: int) -> np.ndarray:
    """s as a complex array, rejected unless it is a unit vector over n_atoms."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (n_atoms,):
        raise InvalidArgumentError(
            f"spin wave must have {n_atoms} components, got shape {s.shape}"
        )
    norm_sq = float(np.sum(np.abs(s) ** 2))
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # a NaN entry fails this, not the > test
        raise InvalidArgumentError(
            f"spin wave must be unit-normalized, |s|^2 = {norm_sq!r}"
        )
    return s


def mode_amplitudes(mat: EfficiencyMatrix, s) -> np.ndarray:
    """a = V_x^T Q_x^T s, the modes that a unit spin wave s over the atoms
    excites; what lies outside the basis never reaches the beam."""
    return _x_contraction(mat.dec, _check_spin_wave(s, mat.dec.basis.n_atoms))


def efficiency_of_spin_wave(mat: EfficiencyMatrix, s) -> float:
    """eta = p Re(a^T W a*) for a given normalized initial spin wave (no
    silent rescaling): the all-time detection window."""
    a = mode_amplitudes(mat, s)
    return float(mat.prefactor * np.real(a @ (mat.w @ a.conj())))


def solution_to_dict(sol: RetrievalSolution, w0: float, geometry_json: str) -> dict:
    """JSON-ready export of a retrieval solution and the geometry it solves."""
    return {
        "eta_max": sol.eta_max,
        "epsilon": 1.0 - sol.eta_max,
        "w0": w0,
        "spin_wave": [[float(c.real), float(c.imag)] for c in sol.spin_wave],
        "diagnostics": sol.diagnostics,
        "geometry": geometry_json,
    }
