"""The mirror-symmetry sector solve of perfect lattices against the full matrix."""

from dataclasses import replace

import numpy as np
import pytest

from arraymem import (
    ISOTROPIC,
    TWO_LEVEL,
    DetectionMode,
    apply_position_disorder,
    build_square_array,
    eigendecompose,
    eta_finite_time,
    interaction_matrix,
    k_matrix,
    remove_holes,
    sample_mode,
)
from arraymem.errors import InvalidArgumentError
from arraymem.modes import _FIELD_CHUNK
from arraymem.retrieval import efficiency_of_spin_wave
from arraymem import greens, modes
from arraymem.greens import COMPONENTS, InteractionMatrix, sector_basis
from arraymem import studies
from ode_oracle import ControlSchedule, evolve
from sector_oracle import dense_basis

SIZES = (1, 2, 3, 4, 5, 8)
MODELS = (TWO_LEVEL, ISOTROPIC)


def sector_columns(n, model):
    half, rest = (n + 1) // 2, n // 2
    # x and y rows: even/even and odd/odd functions of the sites
    return sum((half * half, rest * rest)[: COMPONENTS[model]])


def assert_x_columns(basis, q, model):
    """The columns basis.x of the dense basis q carry the x rows, as
    q_x, and no other column has weight on them."""
    rows_x = q[:: COMPONENTS[model]]
    x = np.zeros(basis.columns, dtype=bool)
    x[basis.x] = True
    assert np.array_equal(rows_x[:, x], basis.q_x)
    assert not np.any(rows_x[:, ~x])


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", SIZES)
def test_basis_is_orthonormal_and_invariant(n, model):
    g = build_square_array(n, 0.6)
    basis = sector_basis(g, model)
    q = dense_basis(g, model)
    assert q.shape[1] == basis.columns == sector_columns(n, model)
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-15
    assert_x_columns(basis, q, model)
    # M maps the sector into itself
    m = interaction_matrix(g, model).entries
    residual = np.linalg.norm(m @ q - q @ (q.T @ m @ q))
    assert residual <= 1e-13 * np.linalg.norm(m)


@pytest.mark.parametrize("d", (0.1, 0.6, 1.37))
@pytest.mark.parametrize(
    "n, model",
    [(n, model) for model in MODELS for n in (1, 2, 3, 4, 5)]
    + [(20, TWO_LEVEL), (14, ISOTROPIC)],
)
def test_table_sector_matrix_matches_the_pair_path(n, model, d):
    # N = 1 has empty odd-parity blocks
    g = build_square_array(n, d)
    q = dense_basis(g, model)
    m = interaction_matrix(g, model).entries
    want = q.T @ m @ q
    got = InteractionMatrix(g, model, sector_basis(g, model)).in_basis()
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class PairMatrixFormed(Exception):
    pass


def test_only_broken_symmetry_forms_the_pair_matrix(monkeypatch):
    def refuse(*args):
        raise PairMatrixFormed

    monkeypatch.setattr(greens, "_pair_matrix", refuse)
    g0 = build_square_array(4, 0.6)
    mode = DetectionMode(w0=1.2)
    for model in MODELS:
        studies.solve(g0, mode, model)
    for g in (remove_holes(g0, [5]), apply_position_disorder(g0, 0.02, 5)):
        with pytest.raises(PairMatrixFormed):
            studies.solve(g, mode)


def test_isotropic_sector_of_n14_has_98_columns():
    # 49 even/even x rows and 49 odd/odd y rows
    basis = sector_basis(build_square_array(14, 0.6), ISOTROPIC)
    assert basis.columns == 98
    assert basis.q_x.shape == (196, 49)


@pytest.mark.parametrize("n", range(2, 9))
def test_planar_z_dipoles_couple_to_no_in_plane_dipole(n):
    # the isotropic model keeps x and y alone because of this: in the
    # z = 0 plane G_xz = G_yz = 0, so the z rows of the three-component M
    # have exact zeros in every x and y column
    g0 = build_square_array(n, 0.6)
    for g in (g0, remove_holes(g0, [0, n + 1]), apply_position_disorder(g0, 0.05, n)):
        m = greens._pair_matrix(g.positions, 3)
        z = np.arange(2, m.shape[0], 3)
        xy = np.setdiff1d(np.arange(m.shape[0]), z)
        assert np.all(m[np.ix_(z, xy)] == 0.0)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", SIZES)
def test_beam_lies_in_the_sector(n, model):
    # the beam's E_x lies in the span of the sector's x rows
    g = build_square_array(n, 0.6)
    q_x = sector_basis(g, model).q_x
    field = sample_mode(DetectionMode(w0=1.2), g).values
    leak = np.linalg.norm(field - q_x @ (q_x.T @ field))
    assert leak <= 1e-15 * np.linalg.norm(field)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", SIZES)
def test_sector_matches_dense(n, model):
    g = build_square_array(n, 0.6)
    mode = DetectionMode(w0=0.3 * n + 0.5)
    sector = studies.solve(g, mode, model)
    assert sector.dec.basis.columns == sector_columns(n, model)
    dense = k_matrix(eigendecompose(interaction_matrix(g, model)), sector.samples)
    assert abs(sector.eta - dense.eta) <= 1e-12
    spin = dense.solution.spin_wave
    assert np.max(np.abs(sector.solution.spin_wave - spin)) <= 1e-9
    for t_d in (0.3, 2.0, 10.0):
        eta_s = eta_finite_time(sector, spin, t_d)
        eta_d = eta_finite_time(dense, spin, t_d)
        assert abs(eta_s - eta_d) <= 1e-12
    # exact for spin waves outside the sector too
    rng = np.random.default_rng(n)
    s = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    s /= np.linalg.norm(s)
    assert abs(
        efficiency_of_spin_wave(sector, s) - efficiency_of_spin_wave(dense, s)
    ) <= 1e-12
    assert abs(
        eta_finite_time(sector, s, 2.0)
        - eta_finite_time(dense, s, 2.0)
    ) <= 1e-12


@pytest.mark.parametrize("model", MODELS)
def test_broken_symmetry_is_solved_whole(model):
    g0 = build_square_array(4, 0.6)
    for g in (
        remove_holes(g0, [0]),
        remove_holes(g0, [0, 3, 12, 15]),  # mirror-symmetric holes too
        apply_position_disorder(g0, 0.02, 5),
    ):
        basis = sector_basis(g, model)
        size = COMPONENTS[model] * g.n_atoms
        assert basis.columns == size
        assert np.array_equal(basis.q_x, np.eye(g.n_atoms))
        assert_x_columns(basis, np.eye(size), model)
        dec = studies.solve(g, DetectionMode(w0=1.2), model).dec
        assert dec.eigenvectors.shape == (size, size)


def test_evolve_rejects_a_sector_eigensystem():
    g = build_square_array(3, 0.6)
    m = interaction_matrix(g)
    m_sector = replace(m, basis=sector_basis(g, TWO_LEVEL))
    s0 = np.full(9, 1 / 3, dtype=complex)
    with pytest.raises(InvalidArgumentError):
        evolve(m, s0, ControlSchedule(), 1.0, dec=eigendecompose(m_sector))
    with pytest.raises(InvalidArgumentError):
        evolve(m_sector, s0, ControlSchedule(), 1.0)


def test_sampling_matches_pointwise_field():
    # the chunked samples against the package's field, one radius at a time
    g = build_square_array(30, 0.6)
    assert g.n_atoms > _FIELD_CHUNK
    samples = sample_mode(DetectionMode(w0=4.0), g)
    rho = np.hypot(g.positions[:, 0], g.positions[:, 1])
    pointwise = np.array([modes._field_x(4.0, rho[i : i + 1])[0] for i in range(len(rho))])
    assert np.max(np.abs(samples.values - pointwise)) <= 1e-15
