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
mirror sector of a perfect lattice, or the whole space. The mode
projection contracts the full sampled field with Q, while the spin wave
couples through the columns of Q that carry the x rows only: M has
c N_a rows, one per atom and kept dipole component. K is assembled
over those columns, whose x rows form Q_x; the K over the atoms is
Q_x K Q_x^T, so an atom-space spin wave s enters as Q_x^T s and the
optimum lifts back as Q_x times the top eigenvector. In the whole space
Q_x = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalError, SingularPairError
from .greens import SectorBasis
from .modes import ModeSamples
from .spectral import SpectralDecomposition

S_CROSS_SECTION = 3.0 / (2.0 * np.pi)
PAIR_DENOM_FLOOR = 1e-14
HERMITICITY_RTOL = 1e-10
NORM_TOL = 1e-9
DEGENERACY_RTOL = 1e-12


def _pair_kernel(lam: np.ndarray) -> np.ndarray:
    """Gram matrix i / (lambda_xi - lambda_xi'^*) with a dark-pair guard."""
    denom = lam[:, None] - lam.conj()[None, :]
    small = np.abs(denom) < PAIR_DENOM_FLOOR
    if np.any(small):
        pairs = [tuple(map(int, p)) for p in np.argwhere(small)[:8]]
        raise SingularPairError(
            "vanishing decay denominator for mode pairs (zero-decay pair "
            "cannot radiate into the detector): " + repr(pairs),
            pairs=pairs,
        )
    return 1j / denom


def mode_projections(dec: SpectralDecomposition, samples: ModeSamples) -> np.ndarray:
    """P_xi = v_xi . E*: overlap of each eigenmode with the detection mode."""
    field = samples.values.conj().reshape(-1)
    if samples.n_atoms != dec.basis.n_atoms or len(field) != dec.size:
        raise InvalidArgumentError(
            f"samples of shape {samples.values.shape} do not match a decomposition "
            f"of {dec.size} rows over {dec.basis.n_atoms} atoms"
        )
    return dec.eigenvectors.T @ (dec.basis.q.T @ field)


def efficiency_prefactor(samples: ModeSamples) -> float:
    # Flux norm, not the raw surface norm: the detector counts photons per
    # unit time, and only this weighting reproduces the quartic small-waist
    # error law of a phased planar array.
    sided = 2.0 if samples.two_sided else 1.0
    return sided * S_CROSS_SECTION / (4.0 * samples.f_flux)


@dataclass(frozen=True)
class EfficiencyMatrix:
    """Hermitian efficiency matrix plus its prefactor.

    k is over the x columns of the basis the eigensystem was solved in;
    the K over the atoms is Q_x k Q_x^T. k = vx w vx^H, with w the mode
    Gram matrix i P_xi P_xi'* / (lambda_xi - lambda_xi'*), vx the x rows
    of the eigenvectors and eigenvalues the lambda_xi (both views of the
    decomposition); a finite window reads the last three.
    """

    k: np.ndarray
    prefactor: float
    basis: SectorBasis
    w: np.ndarray
    vx: np.ndarray
    eigenvalues: np.ndarray

    def hermiticity_residual(self) -> float:
        return float(
            np.max(np.abs(self.k - self.k.conj().T)) / np.max(np.abs(self.k))
        )


@dataclass(frozen=True)
class RetrievalSolution:
    """Top eigenpair of K expressed as an efficiency and a spin wave."""

    eta_max: float
    spin_wave: np.ndarray
    diagnostics: dict


def k_matrix(dec: SpectralDecomposition, samples: ModeSamples) -> EfficiencyMatrix:
    """Assemble K as two dense products over the mode basis."""
    proj = mode_projections(dec, samples)
    w = _pair_kernel(dec.eigenvalues) * np.outer(proj, proj.conj())
    vx = dec.eigenvectors[dec.basis.x]
    mat = EfficiencyMatrix(
        k=vx @ w @ vx.conj().T,
        prefactor=efficiency_prefactor(samples),
        basis=dec.basis,
        w=w,
        vx=vx,
        eigenvalues=dec.eigenvalues,
    )
    res = mat.hermiticity_residual()
    if res >= HERMITICITY_RTOL:
        raise NumericalError(
            f"assembled K lost Hermiticity, residual {res:.3e}", achieved=res
        )
    return mat


def _fix_phase(v: np.ndarray) -> np.ndarray:
    lead = v[np.argmax(np.abs(v))]
    mag = np.abs(lead)
    if mag == 0.0:
        return v
    return v * (mag / lead)


def max_efficiency(mat: EfficiencyMatrix) -> RetrievalSolution:
    """Maximal efficiency and the spin wave that achieves it."""
    evals, evecs = np.linalg.eigh(mat.k)
    # the K over the atoms has the same spectrum plus zeros for the
    # atom-space directions outside the basis
    top_vec = mat.basis.q_x @ evecs[:, -1]
    evals = np.sort(np.concatenate([evals, np.zeros(mat.basis.n_atoms - len(evals))]))
    top = evals[-1]
    eta = float(mat.prefactor * top)
    gap = float(top - evals[-2]) if len(evals) > 1 else np.inf
    degenerate = len(evals) > 1 and gap <= DEGENERACY_RTOL * max(abs(top), 1e-300)
    # eta is s K s* with s entering unconjugated, so the optimizer is the
    # conjugate of the top eigenvector
    spin = _fix_phase(top_vec.conj())
    spin = spin / np.linalg.norm(spin)
    diagnostics = {
        "spectral_gap": gap,
        "degenerate_top": bool(degenerate),
        "min_eigenvalue": float(evals[0]),
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
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise InvalidArgumentError(
            f"spin wave must be unit-normalized, |s|^2 = {norm_sq!r}"
        )
    return s


def efficiency_of_spin_wave(mat: EfficiencyMatrix, s) -> float:
    """eta for a given normalized initial spin wave (no silent rescaling)."""
    s = mat.basis.q_x.T @ _check_spin_wave(s, mat.basis.n_atoms)
    return float(mat.prefactor * np.real(s @ (mat.k @ s.conj())))


def solution_to_dict(
    sol: RetrievalSolution, w0: float, geometry_json: str | None = None
) -> dict:
    """JSON-ready export of a retrieval solution."""
    doc = {
        "eta_max": sol.eta_max,
        "epsilon": 1.0 - sol.eta_max,
        "w0": w0,
        "spin_wave": [[float(c.real), float(c.imag)] for c in sol.spin_wave],
        "diagnostics": sol.diagnostics,
    }
    if geometry_json is not None:
        doc["geometry"] = geometry_json
    return doc
