"""Eigendecomposition of the complex symmetric coupling matrix.

A complex symmetric M (when diagonalizable) admits eigenvectors that are
orthonormal under the non-conjugated bilinear product, v_a^T v_b =
delta_ab, and complete, sum_a v_a v_a^T = I. A general dense solver does
not return this normalization: eigenvectors come back unit in the
Hermitian sense, and within (near-)degenerate clusters they need not be
bilinearly orthogonal at all. This module restores the bilinear structure
as a post-pass and turns the identities into hard, checked invariants.

M is decomposed in the basis Q it carries (greens.SectorBasis): the
eigensystem is that of Q^T M Q, its eigenvectors are the coordinates of
the eigenvectors Q v of M, and the decomposition carries Q along. With
Q = I, the whole space, that is M itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefectiveSpectrumError, InvalidArgumentError
from .greens import InteractionMatrix, SectorBasis

BILINEAR_TOL = 1e-8
DECAY_TOL = 1e-10
TRACE_RTOL = 1e-9
# Eigenvalues closer than this are treated as one (symmetry-degenerate)
# cluster and re-orthogonalized together.
CLUSTER_GAP = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Bilinearly normalized eigensystem of the coupling matrix.

    eigenvalues:          (n,) complex, ordered by descending imaginary
                          part (most radiant first)
    eigenvectors:         (n, n) complex, columns v_xi with v^T v = 1
    bilinear_condition:   max |V^T V - I| entry
    completeness_residual:max |V V^T - I| entry
    model:                model tag of the source matrix
    trace_residual:       |sum lambda - tr A| / |tr A| of the decomposed
                          matrix A (0 unless measured by eigendecompose)
    basis:                the basis Q of A = Q^T M Q; eigenvectors of M
                          are Q v_xi
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    bilinear_condition: float
    completeness_residual: float
    model: str
    basis: SectorBasis
    trace_residual: float = 0.0

    @property
    def size(self) -> int:
        """Rows of M."""
        return self.basis.q.shape[0]

    def diagnostics(self) -> dict:
        return {
            "bilinear_condition": self.bilinear_condition,
            "completeness_residual": self.completeness_residual,
            "min_im_lambda": float(self.eigenvalues.imag.min()),
            "trace_residual": self.trace_residual,
        }


def _cluster_eigenvalues(lam: np.ndarray, gap: float) -> list:
    """Group (near-)coincident eigenvalues into clusters: the connected
    components of |lambda_i - lambda_j| < gap, each in lexicographic order.

    Neighbours in lexicographic order need not be the closest pair: a
    third eigenvalue whose real part sorts between two near-degenerate
    ones would split them. Only values within gap in real part can be
    linked, so each is compared with the run of values that follows it.
    """
    order = np.lexsort((lam.imag, lam.real))
    ranked = lam[order].tolist()
    root = list(range(len(order)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i in range(len(order)):
        j = i + 1
        while j < len(order) and ranked[j].real - ranked[i].real < gap:
            if abs(ranked[j] - ranked[i]) < gap:
                root[find(j)] = find(i)
            j += 1
    clusters: dict = {}
    for i, idx in enumerate(order):
        clusters.setdefault(find(i), []).append(idx)
    return list(clusters.values())


def eigendecompose(m: InteractionMatrix) -> SpectralDecomposition:
    """Eigensystem of Q^T M Q in the basis Q that M carries, with bilinear
    normalization and diagnostics."""
    a = m.entries
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("interaction matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise InvalidArgumentError("interaction matrix is not symmetric")
    a = m.basis.project(a)

    lam, vecs = scipy.linalg.eig(a)

    bad: list = []
    for cluster in _cluster_eigenvalues(lam, CLUSTER_GAP):
        # Bilinear Gram-Schmidt inside each (near-)degenerate cluster;
        # distinct eigenvalues are bilinearly orthogonal automatically.
        done: list = []
        for idx in cluster:
            v = vecs[:, idx]
            for u in done:
                v = v - (u @ v) * u
            q = v @ v
            if np.abs(q) < BILINEAR_TOL:
                bad.append(idx)
                continue
            v = v / np.sqrt(q)
            vecs[:, idx] = v
            done.append(v)
    if bad:
        raise DefectiveSpectrumError(
            f"{len(bad)} eigenvector(s) have vanishing bilinear norm; "
            "matrix is near-defective",
            indices=sorted(bad),
        )

    order = np.argsort(-lam.imag, kind="stable")
    lam = lam[order]
    vecs = vecs[:, order]

    gram = vecs.T @ vecs
    bilinear = float(np.max(np.abs(gram - np.eye(len(lam)))))
    completeness = float(np.max(np.abs(vecs @ vecs.T - np.eye(len(lam)))))
    trace = np.trace(a)
    dec = SpectralDecomposition(
        eigenvalues=lam,
        eigenvectors=vecs,
        bilinear_condition=bilinear,
        completeness_residual=completeness,
        model=m.model,
        trace_residual=float(abs(lam.sum() - trace) / max(abs(trace), 1e-300)),
        basis=m.basis,
    )
    _check_invariants(dec)
    return dec


def _check_invariants(dec: SpectralDecomposition) -> None:
    problems = []
    if dec.bilinear_condition >= BILINEAR_TOL:
        problems.append(f"bilinear residual {dec.bilinear_condition:.3e}")
    if dec.completeness_residual >= BILINEAR_TOL:
        problems.append(f"completeness residual {dec.completeness_residual:.3e}")
    min_im = dec.eigenvalues.imag.min()
    if min_im <= -DECAY_TOL:
        problems.append(f"negative collective decay rate, Im lambda = {min_im:.3e}")
    if dec.trace_residual > TRACE_RTOL:
        problems.append(
            f"trace identity violated, sum lambda = {dec.eigenvalues.sum():.6e}"
        )
    if problems:
        raise DefectiveSpectrumError(
            "spectral invariants violated: " + "; ".join(problems)
        )


def reconstruction_residual(m: InteractionMatrix, dec: SpectralDecomposition) -> float:
    """Max-norm of V Lambda V^T - A relative to max |A|, for the matrix A
    that was decomposed, Q^T M Q."""
    a = dec.basis.project(m.entries)
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    return float(np.max(np.abs(rebuilt - a)) / np.max(np.abs(a)))
