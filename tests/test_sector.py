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
from arraymem import greens
from arraymem.greens import COMPONENTS, InteractionMatrix, sector_basis
from arraymem import studies
from field_oracle import detection_field
from ode_oracle import ControlSchedule, evolve

SIZES = (1, 2, 3, 4, 5, 8)
MODELS = (TWO_LEVEL, ISOTROPIC)


def sector_columns(n, model):
    half, rest = (n + 1) // 2, n // 2
    # x and y rows: even/even and odd/odd functions of the sites; the
    # planar z rows decouple and are left out
    return sum((half * half, rest * rest)[: COMPONENTS[model]])


def assert_x_columns(basis, model):
    """The columns basis.x of q carry the x rows, as q_x, and no other
    column has weight on them."""
    rows_x = basis.q[:: COMPONENTS[model]]
    x = np.zeros(basis.q.shape[1], dtype=bool)
    x[basis.x] = True
    assert np.array_equal(rows_x[:, x], basis.q_x)
    assert not np.any(rows_x[:, ~x])


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", SIZES)
def test_basis_is_orthonormal_and_invariant(n, model):
    g = build_square_array(n, 0.6)
    basis = sector_basis(g, model)
    q = basis.q
    assert q.shape[1] == sector_columns(n, model)
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-15
    assert_x_columns(basis, model)
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
    basis = sector_basis(g, model)
    m = interaction_matrix(g, model).entries
    want = basis.q.T @ m @ basis.q
    got = InteractionMatrix(g, model, basis).in_basis()
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
    # 49 even/even x rows and 49 odd/odd y rows; the 49 odd/even z rows
    # are left out
    g = build_square_array(14, 0.6)
    assert sector_basis(g, ISOTROPIC).q.shape == (3 * 196, 98)


@pytest.mark.parametrize("n", range(2, 9))
def test_planar_z_dipoles_couple_to_no_in_plane_dipole(n):
    # the reduced sector rests on this: in the z = 0 plane G_xz = G_yz = 0,
    # so M's z rows have exact zeros in every x and y column
    g0 = build_square_array(n, 0.6)
    for g in (g0, remove_holes(g0, [0, n + 1]), apply_position_disorder(g0, 0.05, n)):
        m = interaction_matrix(g, ISOTROPIC).entries
        z = np.arange(2, m.shape[0], 3)
        xy = np.setdiff1d(np.arange(m.shape[0]), z)
        assert np.all(m[np.ix_(z, xy)] == 0.0)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", SIZES)
def test_beam_lies_in_the_sector(n, model):
    # the sector spans the beam's x and y rows; its z rows reach no x row
    g = build_square_array(n, 0.6)
    q = sector_basis(g, model).q
    values = sample_mode(DetectionMode(w0=1.2), g, model).values.conj()
    field = values[:, :2].reshape(-1)
    xy = q.reshape(g.n_atoms, -1, q.shape[1])[:, :2].reshape(len(field), -1)
    leak = np.linalg.norm(field - xy @ (xy.T @ field))
    assert leak <= 1e-15 * np.linalg.norm(field)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", SIZES)
def test_sector_matches_dense(n, model):
    g = build_square_array(n, 0.6)
    mode = DetectionMode(w0=0.3 * n + 0.5)
    sector = studies.solve(g, mode, model)
    assert sector.dec.basis.q.shape[1] == sector_columns(n, model)
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
        size = interaction_matrix(g, model).size
        assert np.array_equal(basis.q, np.eye(size))
        assert np.array_equal(basis.q_x, np.eye(g.n_atoms))
        assert_x_columns(basis, model)
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
    g = build_square_array(30, 0.6)
    assert g.n_atoms > _FIELD_CHUNK
    mode = DetectionMode(w0=4.0)
    samples = sample_mode(mode, g, ISOTROPIC)
    pointwise = np.array([detection_field(mode, r) for r in g.positions])
    assert np.max(np.abs(samples.values - pointwise)) <= 1e-15
