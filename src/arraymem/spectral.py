"""Eigendecomposition of the complex symmetric coupling matrix.

A complex symmetric M (when diagonalizable) admits eigenvectors that are
orthonormal under the non-conjugated bilinear product, v_a^T v_b =
delta_ab, and complete, sum_a v_a v_a^T = I. A general dense solver does
not return this normalization: eigenvectors come back unit in the
Hermitian sense, and those of (near-)degenerate eigenvalues need not be
bilinearly orthogonal at all. This module restores the bilinear structure
as a post-pass: it scales every eigenvector to v^T v = 1, and the Gram
matrix V^T V names the ones that still overlap another by OVERLAP_TOL,
which alone are re-orthogonalized. The identities are then hard, checked
invariants.

M is decomposed in the basis Q it carries (greens.SectorBasis): the
eigensystem is that of Q^T M Q (greens.InteractionMatrix.in_basis), its
eigenvectors are the coordinates of the eigenvectors Q v of M, and the
decomposition carries Q along. With Q = I, the whole space, that is M
itself.

The eigensystem comes from numpy.linalg.eig (LAPACK's zgeev), run at the
thread count numpy's OpenBLAS picked for the process (blas.eig_threads):
the count moves the eigenvectors, and the efficiencies, in the last digits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import DefectiveSpectrumError, InvalidArgumentError, SingularPairError
from .greens import InteractionMatrix, SectorBasis

BILINEAR_TOL = 1e-8
DECAY_TOL = 1e-10
TRACE_RTOL = 1e-9
# Eigenvectors whose bilinear overlap reaches this are re-orthogonalized.
# Roundoff alone leaves overlaps below 7e-12 on holed lattices up to N = 30
# and on perfect lattices' sector matrices, so only (near-)degenerate
# eigenvalues reach it.
OVERLAP_TOL = 1e-10
PAIR_DENOM_FLOOR = 1e-14


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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Bilinearly normalized eigensystem of the coupling matrix.

    eigenvalues:          (n,) complex, ordered by descending imaginary
                          part (most radiant first)
    eigenvectors:         (n, n) complex, columns v_xi with v^T v = 1
    bilinear_condition:   max |V^T V - I| entry
    completeness_residual:max |V V^T - I| entry
    trace_residual:       |sum lambda - tr A| / |tr A| of the decomposed
                          matrix A (0 unless measured by eigendecompose)
    basis:                the basis Q of A = Q^T M Q; eigenvectors of M
                          are Q v_xi
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    bilinear_condition: float
    completeness_residual: float
    basis: SectorBasis
    trace_residual: float = 0.0

    @property
    def size(self) -> int:
        """Rows of M."""
        return self.basis.q.shape[0]

    @functools.cached_property
    def pair_kernel(self) -> np.ndarray:
        """i / (lambda_xi - lambda_xi'^*), formed once: every waist solved on
        this eigensystem reads it."""
        return _pair_kernel(self.eigenvalues)

    def diagnostics(self) -> dict:
        return {
            "bilinear_condition": self.bilinear_condition,
            "completeness_residual": self.completeness_residual,
            "min_im_lambda": float(self.eigenvalues.imag.min()),
            "trace_residual": self.trace_residual,
        }


def _scale_to_unit(vecs: np.ndarray, j: int) -> bool:
    """Scale column j to v^T v = 1; False if its bilinear norm vanishes."""
    v = vecs[:, j]
    q = v @ v
    if np.abs(q) < BILINEAR_TOL:
        return False
    vecs[:, j] = v / np.sqrt(q)
    return True


def _refuse_vanishing(bad: list) -> None:
    if bad:
        raise DefectiveSpectrumError(
            f"{len(bad)} eigenvector(s) have vanishing bilinear norm; "
            "matrix is near-defective",
            indices=sorted(bad),
        )


def eigendecompose(m: InteractionMatrix) -> SpectralDecomposition:
    """Eigensystem of Q^T M Q in the basis Q that M carries, with bilinear
    normalization and diagnostics."""
    a = m.in_basis()
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("interaction matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise InvalidArgumentError("interaction matrix is not symmetric")

    with blas.eig_threads():
        lam, vecs = np.linalg.eig(a)
    # eigenvectors are columns, which the post-pass scales one by one
    vecs = np.asfortranarray(vecs)
    _refuse_vanishing([i for i in range(len(lam)) if not _scale_to_unit(vecs, i)])
    order = np.argsort(-lam.imag, kind="stable")
    lam = lam[order]
    vecs = vecs[:, order]

    # Eigenvectors of distinct eigenvalues are bilinearly orthogonal up to
    # roundoff over the gap; those of (near-)degenerate ones can overlap
    # freely. The Gram matrix names them: each is Gram-Schmidted against
    # the earlier eigenvectors it still overlaps.
    eye = np.eye(len(lam))
    overlap = np.abs(vecs.T @ vecs - eye)
    if overlap.max() >= OVERLAP_TOL:
        flagged = np.flatnonzero(overlap.max(axis=0) >= OVERLAP_TOL)
        bad = []
        for k, j in enumerate(flagged):
            earlier = flagged[:k]
            v = vecs[:, j]
            for i in earlier[np.abs(v @ vecs[:, earlier]) >= OVERLAP_TOL]:
                v = v - (vecs[:, i] @ v) * vecs[:, i]
            vecs[:, j] = v
            if not _scale_to_unit(vecs, j):
                bad.append(order[j])
        _refuse_vanishing(bad)
        overlap = np.abs(vecs.T @ vecs - eye)
    bilinear = float(overlap.max())
    completeness = float(np.max(np.abs(vecs @ vecs.T - eye)))
    trace = np.trace(a)
    dec = SpectralDecomposition(
        eigenvalues=lam,
        eigenvectors=vecs,
        bilinear_condition=bilinear,
        completeness_residual=completeness,
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
