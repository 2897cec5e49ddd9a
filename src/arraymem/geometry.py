"""Atom configurations: perfect square arrays, holes, and position disorder.

Lengths are in units of the resonant wavelength. Arrays live in the z = 0
plane and are centered on the origin, so the focus of the detection beam
(on-axis, z = 0) coincides with the array center.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, SingularGeometryError

MIN_SEPARATION = 1e-9


@dataclass(frozen=True)
class Geometry:
    """Immutable atom configuration.

    positions:         (N_a, 3) array, wavelength units
    lattice_constant:  lattice spacing d
    linear_size:       N for an N x N parent lattice
    hole_indices:      removed sites, indexed into the parent lattice
                       (row-major, 0 .. N^2-1)
    site_indices:      parent-lattice index of each remaining atom
    sigma:             in-plane Gaussian disorder std (0 for none)
    disorder_seed:     64-bit PRNG seed, None when sigma == 0
    """

    positions: np.ndarray
    lattice_constant: float
    linear_size: int
    hole_indices: frozenset = frozenset()
    site_indices: np.ndarray = None
    sigma: float = 0.0
    disorder_seed: int | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise InvalidArgumentError("positions must be an (N_a, 3) array")
        if len(pos) == 0:
            raise InvalidArgumentError("a geometry needs at least one atom")
        # a NaN position would pass the separation check: NaN <= x is False
        if not np.all(np.isfinite(pos)):
            raise InvalidArgumentError("atom positions must be finite")
        site = self.site_indices
        if site is None:
            site = np.arange(len(pos))
        site = np.asarray(site, dtype=int)
        if site.shape != (len(pos),):
            raise InvalidArgumentError("site_indices must match atom count")
        pos.setflags(write=False)
        site.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "site_indices", site)
        object.__setattr__(self, "hole_indices", frozenset(self.hole_indices))
        self._check_separation()

    def _check_separation(self):
        # atoms on distinct sites of their lattice are d apart or more: no pair scan
        on_lattice = self.n_atoms > 1 and self._on_lattice()
        dmin = abs(self.lattice_constant) if on_lattice else self.min_separation()
        if dmin <= MIN_SEPARATION:
            raise SingularGeometryError(
                f"minimum atom separation {dmin:.3e} is below {MIN_SEPARATION:.0e}"
            )

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def _on_lattice(self) -> bool:
        """Whether the atoms sit exactly on distinct sites of their parent
        lattice, as site_indices name them."""
        n, site = self.linear_size, self.site_indices
        if site.min() < 0 or site.max() >= n * n or len(np.unique(site)) < len(site):
            return False
        return np.array_equal(self.positions, _lattice_sites(n, self.lattice_constant)[site])

    def min_separation(self) -> float:
        """Smallest pair distance, summed over per-coordinate differences,
        which stay exact away from the origin (|p|^2 terms would cancel)."""
        pos = self.positions
        if len(pos) < 2:
            return np.inf
        dist_sq = sum(np.subtract.outer(c, c) ** 2 for c in pos.T)
        np.fill_diagonal(dist_sq, np.inf)
        return float(np.sqrt(dist_sq.min()))

    def to_json(self) -> str:
        """The fields that regenerate the geometry: build_square_array(N, d),
        remove_holes(holes), apply_position_disorder(sigma, seed)."""
        doc = {
            "N": int(self.linear_size),
            "d": float(self.lattice_constant),
            "holes": sorted(int(h) for h in self.hole_indices),
            "sigma": float(self.sigma),
            "seed": None if self.disorder_seed is None else int(self.disorder_seed),
        }
        return json.dumps(doc)


def _lattice_sites(n: int, d: float) -> np.ndarray:
    """Row-major N x N sites in the z = 0 plane, centered on the origin."""
    offs = (np.arange(n) - (n - 1) / 2.0) * d
    xx, yy = np.meshgrid(offs, offs, indexing="ij")
    pos = np.zeros((n * n, 3))
    pos[:, 0] = xx.ravel()
    pos[:, 1] = yy.ravel()
    return pos


def build_square_array(n: int, d: float) -> Geometry:
    """Perfect N x N square array with lattice constant d.

    A geometry is positions only: which dipole components the atoms keep
    is the model's choice (greens.COMPONENTS).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"linear size must be a positive integer, got {n!r}")
    if not 0 < d < np.inf:
        raise InvalidArgumentError(f"lattice constant must be positive and finite, got {d!r}")
    pos = _lattice_sites(int(n), float(d))
    return Geometry(
        positions=pos,
        lattice_constant=float(d),
        linear_size=int(n),
    )


def remove_holes(g: Geometry, holes) -> Geometry:
    """Delete lattice sites by parent-lattice index.

    Hole indices always refer to the original N x N lattice (row-major),
    so removal commutes with position disorder and repeated calls
    accumulate. Removing an index twice is an error.
    """
    holes = list(holes)
    if len(set(holes)) != len(holes):
        raise InvalidArgumentError("hole indices must be distinct")
    n_sites = g.linear_size**2
    for h in holes:
        if not isinstance(h, (int, np.integer)) or h < 0 or h >= n_sites:
            raise InvalidArgumentError(f"hole index {h!r} outside 0..{n_sites - 1}")
        if h in g.hole_indices:
            raise InvalidArgumentError(f"site {h} was already removed")
    if not holes:
        return g
    hole_set = set(int(h) for h in holes)
    keep = np.array([s not in hole_set for s in g.site_indices])
    return replace(
        g,
        positions=g.positions[keep],
        hole_indices=g.hole_indices | frozenset(hole_set),
        site_indices=g.site_indices[keep],
    )


def _site_displacements(n: int, sigma: float, seed: int) -> np.ndarray:
    """In-plane Gaussian displacements for every parent-lattice site.

    Drawn for all N^2 sites regardless of holes, so a given (N, sigma,
    seed) triple always produces the same displacement at a given site.
    """
    rng = np.random.default_rng(seed)
    delta = np.zeros((n * n, 3))
    delta[:, :2] = rng.normal(0.0, sigma, size=(n * n, 2))
    return delta


def apply_position_disorder(g: Geometry, sigma: float, seed: int) -> Geometry:
    """Displace every atom in-plane by independent Gaussian draws of std sigma."""
    if not 0 <= sigma < np.inf:
        raise InvalidArgumentError(f"disorder sigma must be non-negative and finite, got {sigma!r}")
    if g.sigma != 0.0:
        raise InvalidArgumentError("geometry already carries position disorder")
    if sigma == 0:
        return g
    delta = _site_displacements(g.linear_size, float(sigma), int(seed))
    positions = g.positions + delta[g.site_indices]
    return replace(g, positions=positions, sigma=float(sigma), disorder_seed=int(seed))
