"""Efficiency collected in a finite detection window.

Free decay after an instantaneous pi-pulse is exact in the bilinear
eigenbasis, e_xi(t) = exp(i lambda_xi t) e_xi(0), so the efficiency
collected in a finite window [0, T] has a closed form through the pair
integrals

    int_0^T exp(i (lambda_xi - lambda_xi'^*) t) dt
        = i (1 - exp(i (lambda_xi - lambda_xi'^*) T)) / (lambda_xi - lambda_xi'^*),

which recover the infinite-time K-matrix result as T -> infinity.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .modes import ModeSamples
from .retrieval import (
    _check_spin_wave,
    _pair_kernel,
    efficiency_prefactor,
    mode_projections,
)
from .spectral import SpectralDecomposition


def eta_finite_time(
    dec: SpectralDecomposition,
    samples: ModeSamples,
    s0,
    t_d: float,
) -> float:
    """Efficiency collected in [0, T_d] after a pi-pulse, in closed form."""
    if t_d <= 0:
        raise InvalidArgumentError("detection window must be positive")
    s0 = _check_spin_wave(s0, dec.basis.n_atoms)
    proj = mode_projections(dec, samples)
    # exact for any s0 in a sector too: what lies outside it never
    # reaches the beam
    amp0 = dec.eigenvectors[dec.basis.x].T @ (dec.basis.q_x.T @ s0)
    lam = dec.eigenvalues
    kernel = _pair_kernel(lam)
    decay = np.exp(1j * (lam[:, None] - lam.conj()[None, :]) * t_d)
    window = kernel * (1.0 - decay)
    c = proj * amp0
    value = np.real(c @ (window @ c.conj()))
    return float(efficiency_prefactor(samples) * value)
