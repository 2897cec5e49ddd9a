"""Free-space electromagnetic Green's tensor and the photon-exchange matrix.

The dyadic Green's function of the vector wave equation,

    G(R) = e^{ikR}/(4 pi R) [ (1 + (ikR - 1)/(kR)^2) I
                              + (3 - 3ikR - (kR)^2)/(kR)^2  RR/R^2 ],

couples pairs of dipoles. In wavelength units k = 2 pi and single-atom
rates are measured in units of the vacuum decay rate. Each atom keeps c
dipole components, the first c of (x, y, z): c = 3 in the isotropic
(three-excited-state) model, c = 1 in the two-level model, whose dipoles
all lie along the beam polarization x. The coupling matrix has one row per
(atom, component),

    M_ja,lb = 3 pi k^{-1} G_ab(r_j - r_l)     (j != l)
    M_ja,ja = i/2

with the divergent real self-term dropped (a resonance-frequency
renormalization) and the imaginary part fixed so a lone atom decays at
exactly the single-atom rate. The two-level M is therefore the xx entries
of the isotropic one, the same numbers to the last bit. The operand order
of a pair's c x c block, coupling * (f_t delta_ab + (f_l r_a) r_b), is
fixed: it is the order of the two-level coupling f_t + (f_l r_x) r_x,
whose values the benchmark references (perfbench/references.json, met to
1e-12) were made with. Grouping f_l (r_a r_b) moves that M by an ulp,
enough to push hole-study results past 1e-12. The mirrored pair stores the
block's transpose, which keeps M exactly symmetric.

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

from .errors import InvalidArgumentError
from .geometry import Geometry, _lattice_sites

K0 = 2.0 * np.pi

TWO_LEVEL = "two-level"
ISOTROPIC = "isotropic"
# dipole components (x, y, z)[:c] each atom keeps in the model
COMPONENTS = {TWO_LEVEL: 1, ISOTROPIC: 3}


def _components(model: str) -> int:
    """The component count c of a model, refusing an unknown one."""
    if model not in COMPONENTS:
        raise InvalidArgumentError(f"model must be one of {tuple(COMPONENTS)}, got {model!r}")
    return COMPONENTS[model]


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
        """Q^T A Q, made exactly symmetric (it is so up to roundoff); A
        itself in the whole space, where Q = I."""
        if self.q.shape[1] == self.q.shape[0]:
            return a
        r = self.q.T @ a @ self.q
        return 0.5 * (r + r.T)


def whole_space(n_atoms: int, model: str) -> SectorBasis:
    """Q = I over the rows of M; the x rows are every c-th."""
    c = _components(model)
    q = np.eye(c * n_atoms)
    x = slice(0, None, c)
    return SectorBasis(q=q, q_x=q[x, x], x=x)


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
    of 1D parity vectors. The (site, component) rows also flip with the
    mirrored component, and the beam (E_x even/even, E_z odd in x) lies in
    the sector whose x, y and z rows are even/even, odd/odd and odd/even
    functions of the sites. The model keeps the first c of those blocks;
    the x columns come first.
    """
    c = _components(model)
    n = g.linear_size
    perfect = (
        not g.hole_indices
        and g.sigma == 0.0
        and np.array_equal(g.positions, _lattice_sites(n, g.lattice_constant))
    )
    if not perfect:
        return whole_space(g.n_atoms, model)
    even, odd = _parity_basis(n, 1.0), _parity_basis(n, -1.0)
    parities = ((even, even), (odd, odd), (odd, even))[:c]
    blocks = [np.kron(a, b) for a, b in parities]
    q = np.zeros((c * n * n, sum(b.shape[1] for b in blocks)))
    col = 0
    for component, b in enumerate(blocks):
        q[component::c, col : col + b.shape[1]] = b
        col += b.shape[1]
    return SectorBasis(q=q, q_x=blocks[0], x=slice(0, blocks[0].shape[1]))


@dataclass(frozen=True)
class InteractionMatrix:
    """Dense complex symmetric coupling matrix.

    entries: (c N_a, c N_a), rows and columns ordered atom-major as
             (atom 0 x[, y, z], atom 1 x[, y, z], ...)
    basis:   the space to solve M in; interaction_matrix gives the whole
             space
    """

    entries: np.ndarray
    basis: SectorBasis

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def interaction_matrix(g: Geometry, model: str = TWO_LEVEL) -> InteractionMatrix:
    """Assemble M for a geometry; exactly symmetric by construction."""
    c = _components(model)
    n = g.n_atoms
    coupling = 3.0 * np.pi / K0
    m = np.zeros((n, c, n, c), dtype=complex)
    if n > 1:
        iu, ju = np.triu_indices(n, k=1)
        dr = g.positions[iu] - g.positions[ju]
        dist = np.linalg.norm(dr, axis=1)
        f_t, f_l = _scalar_parts(dist)
        r = dr[:, :c] / dist[:, None]
        blocks = coupling * (
            f_t[:, None, None] * np.eye(c) + (f_l[:, None] * r)[:, :, None] * r[:, None, :]
        )
        m[iu, :, ju, :] = blocks
        # G(-R) = G(R) = G(R)^T, but (f_l r_a) r_b and (f_l r_b) r_a can
        # round apart: the transpose keeps M exactly symmetric
        m[ju, :, iu, :] = blocks.transpose(0, 2, 1)
    m = m.reshape(c * n, c * n)
    np.fill_diagonal(m, 0.5j)
    return InteractionMatrix(entries=m, basis=whole_space(n, model))
