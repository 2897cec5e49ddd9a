"""The dense basis Q that greens.SectorBasis stands for, used by the tests only.

The package keeps of Q only what the spin wave and the beam reach: the x
rows of its x columns. The tests that compare a solve in a basis with M
itself build all of Q here, from the parity vectors its columns are
products of.
"""

from __future__ import annotations

import numpy as np

from arraymem import greens


def dense_basis(g, model: str) -> np.ndarray:
    """Q of greens.sector_basis(g, model) as a (c N_a) x columns array:
    the identity in the whole space; in a perfect lattice's sector the x
    columns, then the y columns, each on the rows of its component."""
    c = greens.COMPONENTS[model]
    columns = greens.sector_basis(g, model).columns
    if columns == c * g.n_atoms:
        return np.eye(columns)
    n = g.linear_size
    q = np.zeros((c * n * n, columns))
    col = 0
    for component, (a, b) in enumerate(greens.SECTOR_PARITIES[:c]):
        block = np.kron(greens._parity_basis(n, a), greens._parity_basis(n, b))
        q[component::c, col : col + block.shape[1]] = block
        col += block.shape[1]
    return q
