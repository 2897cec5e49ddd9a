"""Free-space electromagnetic Green's tensor and the photon-exchange matrix.

The dyadic Green's function of the vector wave equation,

    G(R) = e^{ikR}/(4 pi R) [ (1 + (ikR - 1)/(kR)^2) I
                              + (3 - 3ikR - (kR)^2)/(kR)^2  RR/R^2 ],

couples pairs of dipoles. In wavelength units k = 2 pi and single-atom
rates are measured in units of the vacuum decay rate, which fixes the
coupling matrix to

    M_jl = 3 pi k^{-1} d_j* . G(r_j - r_l) . d_l      (j != l)
    M_jj = i/2

with the divergent real self-term dropped (a resonance-frequency
renormalization) and the imaginary part fixed so a lone atom decays at
exactly the single-atom rate.

M is solved in a real orthonormal basis Q of the space the beam can
reach, as the complex symmetric Q^T M Q. On a perfect lattice M commutes
with the mirrors x -> -x and y -> -y, and the x-polarized beam lies in one
of their four symmetry sectors: Q spans that sector, about a quarter of
the rows. Holes and disorder break the mirrors, and Q = I is the whole
space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularGeometryError
from .geometry import X_HAT, Geometry, _lattice_sites

K0 = 2.0 * np.pi

TWO_LEVEL = "two-level"
ISOTROPIC = "isotropic"
MODELS = (TWO_LEVEL, ISOTROPIC)


def _scalar_parts(r_norm):
    """Transverse/longitudinal scalar factors multiplying I and RR/R^2."""
    kr = K0 * r_norm
    phase = np.exp(1j * kr) / (4.0 * np.pi * r_norm)
    f_t = phase * (1.0 + (1j * kr - 1.0) / kr**2)
    f_l = phase * (3.0 - 3.0j * kr - kr**2) / kr**2
    return f_t, f_l


@dataclass(frozen=True)
class SectorBasis:
    """Real orthonormal basis of the space M is solved in: the mirror sector
    a perfect lattice's x-polarized beam excites, or the whole space.

    q:    (size, n) columns over the rows of M
    q_x:  (N_a, n_x) the x rows of the columns x of q, the only columns
          with weight on the rows the spin wave couples to
    x:    the slice of q's columns that carry the x rows
    """

    q: np.ndarray
    q_x: np.ndarray
    x: slice

    @property
    def n_atoms(self) -> int:
        return self.q_x.shape[0]

    def project(self, a: np.ndarray) -> np.ndarray:
        """Q^T A Q, made exactly symmetric (it is so up to roundoff)."""
        r = self.q.T @ a @ self.q
        return 0.5 * (r + r.T)


def whole_space(n_atoms: int, model: str) -> SectorBasis:
    """Q = I over the rows of M; the x rows are every third in the
    isotropic model."""
    q_x = np.eye(n_atoms)
    if model != ISOTROPIC:
        return SectorBasis(q=q_x, q_x=q_x, x=slice(None))
    return SectorBasis(q=np.eye(3 * n_atoms), q_x=q_x, x=slice(0, None, 3))


def _parity_basis(n: int, sign: float) -> np.ndarray:
    """Orthonormal columns v over 0..n-1 with v[n-1-i] = sign * v[i]."""
    half = n // 2
    i = np.arange(half)
    q = np.zeros((n, half + (n % 2 if sign > 0 else 0)))
    q[i, i] = np.sqrt(0.5)
    q[n - 1 - i, i] = sign * np.sqrt(0.5)
    if q.shape[1] > half:
        q[half, half] = 1.0
    return q


def sector_basis(g: Geometry, model: str) -> SectorBasis:
    """The beam's mirror sector of a perfect lattice; the whole space for
    any other geometry.

    Site i*N + j sits at x index i and y index j, so a function of the
    sites with parities (a, b) under the two mirrors is a Kronecker product
    of 1D parity vectors. The two-level beam E_x d_x is even/even. In the
    isotropic model the (site, component) rows also flip with the mirrored
    component, and the beam (E_x even/even, E_z odd in x) lies in the
    sector whose x, y and z rows are even/even, odd/odd and odd/even
    functions of the sites; its x columns come first.
    """
    n = g.linear_size
    perfect = (
        not g.hole_indices
        and g.sigma == 0.0
        and np.array_equal(g.positions, _lattice_sites(n, g.lattice_constant))
        and np.all(g.dipole_orientations == X_HAT)
    )
    if not perfect:
        return whole_space(g.n_atoms, model)
    even, odd = _parity_basis(n, 1.0), _parity_basis(n, -1.0)
    q_x = np.kron(even, even)
    if model != ISOTROPIC:
        return SectorBasis(q=q_x, q_x=q_x, x=slice(None))
    blocks = (q_x, np.kron(odd, odd), np.kron(odd, even))
    q = np.zeros((3 * n * n, sum(b.shape[1] for b in blocks)))
    col = 0
    for component, b in enumerate(blocks):
        q[component::3, col : col + b.shape[1]] = b
        col += b.shape[1]
    return SectorBasis(q=q, q_x=q_x, x=slice(0, q_x.shape[1]))


@dataclass(frozen=True)
class InteractionMatrix:
    """Dense complex symmetric coupling matrix.

    entries: (N_a, N_a) for the two-level model or (3 N_a, 3 N_a) for the
    isotropic three-excited-state model, with rows/columns of the latter
    ordered atom-major as (atom 0 x, y, z, atom 1 x, ...).
    basis:   the space to solve M in; interaction_matrix gives the whole
             space
    """

    entries: np.ndarray
    model: str
    basis: SectorBasis

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _pair_couplings(positions, orientations=None):
    """Upper-triangle couplings, either projected scalars or 3x3 blocks."""
    n = len(positions)
    iu, ju = np.triu_indices(n, k=1)
    dr = positions[iu] - positions[ju]
    dist = np.linalg.norm(dr, axis=1)
    if np.any(dist <= 0.0):
        raise SingularGeometryError("duplicate atom positions in geometry")
    f_t, f_l = _scalar_parts(dist)
    rhat = dr / dist[:, None]
    if orientations is not None:
        di = orientations[iu]
        dj = orientations[ju]
        proj = f_t * np.sum(di * dj, axis=1) + f_l * np.sum(di * rhat, axis=1) * np.sum(
            rhat * dj, axis=1
        )
        return iu, ju, proj
    outer = rhat[:, :, None] * rhat[:, None, :]
    blocks = f_t[:, None, None] * np.eye(3)[None] + f_l[:, None, None] * outer
    return iu, ju, blocks


def interaction_matrix(g: Geometry, model: str = TWO_LEVEL) -> InteractionMatrix:
    """Assemble M for a geometry; exactly symmetric by construction."""
    if model not in MODELS:
        raise InvalidArgumentError(f"model must be one of {MODELS}, got {model!r}")
    n = g.n_atoms
    coupling = 3.0 * np.pi / K0
    if model == TWO_LEVEL:
        m = np.zeros((n, n), dtype=complex)
        if n > 1:
            iu, ju, proj = _pair_couplings(g.positions, g.dipole_orientations)
            m[iu, ju] = coupling * proj
            m[ju, iu] = coupling * proj
        np.fill_diagonal(m, 0.5j)
        return InteractionMatrix(entries=m, model=model, basis=whole_space(n, model))

    m = np.zeros((n, 3, n, 3), dtype=complex)
    if n > 1:
        iu, ju, blocks = _pair_couplings(g.positions)
        m[iu, :, ju, :] = coupling * blocks
        # G(-R) = G(R), so the mirrored block is the same 3x3 matrix
        m[ju, :, iu, :] = coupling * blocks
    m = m.reshape(3 * n, 3 * n)
    idx = np.arange(3 * n)
    m[idx, idx] = 0.5j
    return InteractionMatrix(entries=m, model=model, basis=whole_space(n, model))
