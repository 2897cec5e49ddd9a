"""Efficiency collected in a finite detection window.

Free decay after an instantaneous pi-pulse is exact in the bilinear
eigenbasis, e_xi(t) = exp(i lambda_xi t) e_xi(0), so the efficiency
collected in a finite window [0, T] has a closed form through the pair
integrals

    int_0^T exp(i (lambda_xi - lambda_xi'^*) t) dt
        = i (1 - d_xi d_xi'^*) / (lambda_xi - lambda_xi'^*),   d = exp(i lambda T).

The factor 1 - d d^H makes the window all time minus the tail: with W the
mode Gram matrix of retrieval.k_matrix, a = V_x^T Q_x^T s and b = d * a,

    eta_T(s) = p Re(a^T W a* - b^T W b*),

which recovers the infinite-time K-matrix result as T -> infinity.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .retrieval import EfficiencyMatrix, _check_spin_wave


def eta_finite_time(mat: EfficiencyMatrix, s0, t_d: float) -> float:
    """Efficiency collected in [0, T_d] after a pi-pulse, in closed form."""
    if not 0 < t_d < np.inf:
        raise InvalidArgumentError(f"detection window must be positive and finite, got {t_d!r}")
    # exact for any s0 in a sector too: what lies outside it never
    # reaches the beam
    a = mat.vx.T @ (mat.basis.q_x.T @ _check_spin_wave(s0, mat.basis.n_atoms))
    b = np.exp(1j * mat.eigenvalues * t_d) * a
    value = np.real(a @ (mat.w @ a.conj()) - b @ (mat.w @ b.conj()))
    return float(mat.prefactor * value)
