"""Free-space electromagnetic Green's tensor and the photon-exchange matrix.

The dyadic Green's function of the vector wave equation,

    G(R) = e^{ikR}/(4 pi R) [ (1 + (ikR - 1)/(kR)^2) I
                              + (3 - 3ikR - (kR)^2)/(kR)^2  RR/R^2 ],

couples pairs of dipoles. In wavelength units k = 2 pi and single-atom
rates are measured in units of the vacuum decay rate. Each atom keeps c
dipole components, the first c of (x, y) (COMPONENTS, which says why the
isotropic atoms' z dipoles are left out): c = 2 in the isotropic
(three-excited-state) model, c = 1 in the two-level model, whose dipoles
all lie along the beam polarization x. The coupling matrix has one row per
(atom, component),

    M_ja,lb = 3 pi k^{-1} G_ab(r_j - r_l)     (j != l)
    M_ja,ja = i/2

with the divergent real self-term dropped (a resonance-frequency
renormalization) and the imaginary part fixed so a lone atom decays at
exactly the single-atom rate. The two-level M is therefore the xx entries
of the isotropic one, the same numbers to the last bit.

M is solved in a real orthonormal basis Q of the space the beam can
reach, as the complex symmetric Q^T M Q. On a perfect lattice M commutes
with the mirrors x -> -x and y -> -y, and the x-polarized beam lies in one
of their four symmetry sectors, whose x and y rows Q spans: about a
quarter of the rows of M. Holes and disorder break the mirrors, and Q = I
is the whole space. Q is never formed: the spin wave and the beam reach M
through its x rows only, which SectorBasis keeps.

A perfect lattice's Q^T M Q is assembled without M. Two sites couple only
through their per-axis coordinate differences, so G is evaluated once per
pair of distinct differences (dx, dy), keyed by their exact floating-point
values: the table takes the very inputs the pair path takes (77^2
evaluations at N = 20, against 79,800 pairs). Each sector column is a
product of 1D parity vectors P, so the block of components a, b is a
separable contraction of the table T_ab,

    R_ab = C_x T_ab C_y^T,   C[p, p', k] = sum_{i, i'} P_a[i, p] P_b[i', p'] [k(i, i') = k],

and R is made exactly symmetric (it is so up to roundoff). Every other
geometry is solved from M itself, formed pair by pair, whose operand order
is fixed: a pair's c x c block is coupling * (f_t delta_ab + (f_l r_a) r_b),
the order of the two-level coupling f_t + (f_l r_x) r_x that the benchmark
references (perfbench/references.json, met to 1e-12) were made with.
Grouping f_l (r_a r_b) moves that M by an ulp, enough to push hole-study
results past 1e-12, so holed and disordered M keep this path. The mirrored
pair stores the block's transpose, which keeps M exactly symmetric.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .geometry import Geometry, _lattice_sites

K0 = 2.0 * np.pi

TWO_LEVEL = "two-level"
ISOTROPIC = "isotropic"
# Dipole components (x, y)[:c] each atom keeps in the model. The arrays are
# planar (geometry refuses z != 0), and in their plane G_xz = G_yz = 0: a z
# dipole couples to no x or y dipole (Shahmoon et al., PRL 118, 113601,
# 2017). The spin wave and the beam enter M through the x dipoles alone
# (the beam through E_x), so z dipoles never change eta, and the
# isotropic atoms keep x and y.
COMPONENTS = {TWO_LEVEL: 1, ISOTROPIC: 2}
# parities under the mirrors x -> -x and y -> -y of the site functions on
# the x and y rows of the beam's sector
SECTOR_PARITIES = ((1.0, 1.0), (-1.0, -1.0))


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


def _coupling_blocks(dr: np.ndarray, c: int) -> np.ndarray:
    """The c x c blocks 3 pi k^{-1} G(dr) of nonzero separations dr (n, 3)."""
    dist = np.linalg.norm(dr, axis=1)
    f_t, f_l = _scalar_parts(dist)
    r = dr[:, :c] / dist[:, None]
    return (3.0 * np.pi / K0) * (
        f_t[:, None, None] * np.eye(c) + (f_l[:, None] * r)[:, :, None] * r[:, None, :]
    )


@dataclass(frozen=True)
class SectorBasis:
    """Real orthonormal basis Q of the space M is solved in: the mirror
    sector a perfect lattice's x-polarized beam excites, or the whole space.

    Q itself is not stored: the spin wave and the beam couple to M
    through its x rows, on which only the columns x of Q have weight.

    q_x:      (N_a, n_x) the x rows of the columns x of Q
    x:        the slice of Q's columns that carry the x rows
    columns:  the number of Q's columns, the order of Q^T M Q
    """

    q_x: np.ndarray
    x: slice
    columns: int

    @property
    def n_atoms(self) -> int:
        return self.q_x.shape[0]


def whole_space(n_atoms: int, model: str) -> SectorBasis:
    """Q = I over the rows of M; the x rows are every c-th."""
    c = _components(model)
    return SectorBasis(q_x=np.eye(n_atoms), x=slice(0, None, c), columns=c * n_atoms)


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
    mirrored component, and the beam (E_x even/even) lies in the sector
    whose x and y rows are even/even and odd/odd functions of the sites.
    Q spans the blocks the model keeps, the x columns first.
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
    blocks = [
        np.kron(_parity_basis(n, a), _parity_basis(n, b)) for a, b in SECTOR_PARITIES[:c]
    ]
    q_x = blocks[0]
    return SectorBasis(q_x=q_x, x=slice(0, q_x.shape[1]), columns=sum(b.shape[1] for b in blocks))


@dataclass(frozen=True)
class InteractionMatrix:
    """The complex symmetric coupling matrix M of a geometry, in the basis
    Q it is solved in.

    geometry: the atoms M couples
    model:    TWO_LEVEL or ISOTROPIC, the dipole components each atom keeps
    basis:    the space to solve M in; interaction_matrix gives the whole
              space, greens.sector_basis a perfect lattice's mirror sector

    M itself, entries, is (c N_a, c N_a) with rows and columns ordered
    atom-major as (atom 0 x[, y], atom 1 x[, y], ...). It is formed
    pair by pair only when something reads it: in_basis() assembles a
    perfect lattice's Q^T M Q from the coupling table without it.
    """

    geometry: Geometry
    model: str
    basis: SectorBasis

    @functools.cached_property
    def entries(self) -> np.ndarray:
        return _pair_matrix(self.geometry.positions, _components(self.model))

    def in_basis(self) -> np.ndarray:
        """Q^T M Q, exactly symmetric: M itself in the whole space."""
        c = _components(self.model)
        if self.basis.columns == c * self.basis.n_atoms:
            return self.entries
        return _sector_matrix(self.geometry, c)


def interaction_matrix(g: Geometry, model: str = TWO_LEVEL) -> InteractionMatrix:
    """M of a geometry in the whole space; exactly symmetric by construction."""
    return InteractionMatrix(geometry=g, model=model, basis=whole_space(g.n_atoms, model))


def _pair_matrix(positions: np.ndarray, c: int) -> np.ndarray:
    """M of atoms at positions, assembled pair by pair."""
    n = len(positions)
    m = np.zeros((n, c, n, c), dtype=complex)
    if n > 1:
        iu, ju = np.triu_indices(n, k=1)
        blocks = _coupling_blocks(positions[iu] - positions[ju], c)
        m[iu, :, ju, :] = blocks
        # G(-R) = G(R) = G(R)^T, but (f_l r_a) r_b and (f_l r_b) r_a can
        # round apart: the transpose keeps M exactly symmetric
        m[ju, :, iu, :] = blocks.transpose(0, 2, 1)
    m = m.reshape(c * n, c * n)
    np.fill_diagonal(m, 0.5j)
    return m


def _difference_keys(coords: np.ndarray):
    """The distinct differences u of coords and, as one-hot (len(u), n, n),
    which pairs (i, i') have coords[i] - coords[i'] = u[k]."""
    n = len(coords)
    u, key = np.unique(np.subtract.outer(coords, coords), return_inverse=True)
    onehot = np.zeros((len(u), n * n))
    onehot[key.ravel(), np.arange(n * n)] = 1.0
    return u, onehot.reshape(len(u), n, n)


def _sector_matrix(g: Geometry, c: int) -> np.ndarray:
    """Q^T M Q of a perfect lattice, from its coupling table (module docstring)."""
    parities = SECTOR_PARITIES[:c]
    n = g.linear_size
    ux, onehot_x = _difference_keys(g.positions[::n, 0])
    uy, onehot_y = _difference_keys(g.positions[:n, 1])
    dr = np.zeros((len(ux), len(uy), 3))
    dr[..., 0] = ux[:, None]
    dr[..., 1] = uy[None, :]
    dr = dr.reshape(-1, 3)
    apart = np.any(dr != 0.0, axis=1)
    table = np.empty((len(dr), c, c), dtype=complex)
    table[apart] = _coupling_blocks(dr[apart], c)
    table[~apart] = 0.5j * np.eye(c)  # the self term, dx = dy = 0
    if not np.all(np.isfinite(table)):
        raise InvalidArgumentError("coupling table has non-finite entries")
    table = table.reshape(len(ux), len(uy), c, c)

    parity = {s: _parity_basis(n, s) for s in (1.0, -1.0)}

    def contraction(onehot, sign_a, sign_b):
        # (keys, p, p'): the parity-vector pairs each difference couples
        return parity[sign_a].T @ onehot @ parity[sign_b]

    rows = []
    for a in range(c):
        row = []
        for b in range(c):
            cx = contraction(onehot_x, parities[a][0], parities[b][0])
            cy = contraction(onehot_y, parities[a][1], parities[b][1])
            r = np.tensordot(np.tensordot(table[:, :, a, b], cx, axes=(0, 0)), cy, axes=(0, 0))
            # (p, p', q, q') -> rows (p, q), columns (p', q'): the kron order
            p, p2, q, q2 = r.shape
            row.append(r.transpose(0, 2, 1, 3).reshape(p * q, p2 * q2))
        rows.append(row)
    r = np.block(rows)
    return 0.5 * (r + r.T)
