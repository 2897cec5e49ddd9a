import numpy as np
import pytest

from arraymem import (
    ISOTROPIC,
    TWO_LEVEL,
    DetectionMode,
    apply_position_disorder,
    build_square_array,
    interaction_matrix,
    remove_holes,
    sample_mode,
)
from arraymem.errors import (
    InvalidArgumentError,
    SingularGeometryError,
)
from arraymem.geometry import Geometry
from arraymem.greens import K0, InteractionMatrix, sector_basis

RNG = np.random.default_rng(314)


def im_part_min_eigenvalue(m: InteractionMatrix) -> float:
    """Smallest eigenvalue of the Im-part quadratic form.

    Non-negative (up to roundoff) for physical geometries: no collective
    excitation can have a negative total emission rate.
    """
    im = (m.entries - m.entries.conj()) / 2j
    return float(np.linalg.eigvalsh(im.real).min())


def greens_block(r, r_prime) -> np.ndarray:
    """G(r - r') read off the isotropic M of two atoms at r and r': its
    off-diagonal 3x3 block is (3 pi / k0) G."""
    g = Geometry(
        positions=np.array([r, r_prime], dtype=float),
        lattice_constant=1.0,
        linear_size=1,
        site_indices=[0, 1],
    )
    return interaction_matrix(g, ISOTROPIC).entries[0:3, 3:6] / (3.0 * np.pi / K0)


def test_reciprocity_random_points():
    for _ in range(20):
        a = RNG.uniform(-3, 3, 3)
        b = RNG.uniform(-3, 3, 3)
        gab = greens_block(a, b)
        gba = greens_block(b, a)
        np.testing.assert_allclose(gab, gba.T, rtol=1e-12, atol=0)


def test_on_axis_longitudinal_component():
    # for r - r' = (R, 0, 0) the xx entry reduces to
    # e^{i 2 pi R}/(4 pi R) * 2 (1 - i 2 pi R)/(2 pi R)^2
    for r_dist in (0.3, 0.75, 2.0):
        g = greens_block([r_dist, 0, 0], [0, 0, 0])
        kr = K0 * r_dist
        want = np.exp(1j * kr) / (4 * np.pi * r_dist) * 2 * (1 - 1j * kr) / kr**2
        assert g[0, 0] == pytest.approx(want, rel=1e-12)


def test_far_field_transverse_magnitude():
    r_dist = 1e3
    g = greens_block([r_dist, 0, 0], [0, 0, 0])
    assert abs(g[1, 1]) * r_dist == pytest.approx(1 / (4 * np.pi), rel=1e-3)


def test_single_atom_matrix():
    m = interaction_matrix(build_square_array(1, 0.6))
    np.testing.assert_array_equal(m.entries, [[0.5j]])


def test_trace_identity():
    for model, factor in ((TWO_LEVEL, 1), (ISOTROPIC, 3)):
        m = interaction_matrix(build_square_array(3, 0.6), model)
        eigs = np.linalg.eigvals(m.entries)
        assert eigs.sum() == pytest.approx(0.5j * 9 * factor, abs=1e-10)


def test_distant_pair_coupling_is_small():
    g = Geometry(
        positions=np.array([[0.0, 0, 0], [1e3, 0, 0]]),
        lattice_constant=1e3,
        linear_size=1,
        site_indices=[0, 1],
    )
    m = interaction_matrix(g)
    assert abs(m.entries[0, 1]) < 1e-3


@pytest.mark.parametrize("model", [TWO_LEVEL, ISOTROPIC])
def test_matrix_exactly_symmetric(model):
    g = build_square_array(4, 0.55)
    m = interaction_matrix(g, model).entries
    assert np.array_equal(m, m.T)


def test_isotropic_diagonal_blocks():
    m = interaction_matrix(build_square_array(2, 0.6), ISOTROPIC).entries
    for j in range(4):
        blk = m[3 * j : 3 * j + 3, 3 * j : 3 * j + 3]
        np.testing.assert_array_equal(blk, 0.5j * np.eye(3))


def test_permutation_similarity():
    g = build_square_array(3, 0.6)
    m = interaction_matrix(g).entries
    perm = RNG.permutation(9)
    g2 = Geometry(
        positions=g.positions[perm],
        lattice_constant=0.6,
        linear_size=3,
        site_indices=g.site_indices[perm],
    )
    m2 = interaction_matrix(g2).entries
    np.testing.assert_allclose(m2, m[np.ix_(perm, perm)], rtol=0, atol=1e-15)


@pytest.mark.parametrize("g", [
    build_square_array(4, 0.6),
    remove_holes(build_square_array(4, 0.6), [0, 5]),
    apply_position_disorder(build_square_array(4, 0.6), 0.03, 99),
], ids=["perfect", "holed", "disordered"])
def test_two_level_is_the_isotropic_x_component(g):
    # bit for bit: the x dipoles of the isotropic model are the two-level atoms
    assert np.array_equal(
        interaction_matrix(g, TWO_LEVEL).entries, interaction_matrix(g, ISOTROPIC).entries[::3, ::3]
    )
    mode = DetectionMode(w0=1.2)
    assert np.array_equal(
        sample_mode(mode, g, TWO_LEVEL).values, sample_mode(mode, g, ISOTROPIC).values[:, :1]
    )
    assert np.array_equal(sector_basis(g, TWO_LEVEL).q, sector_basis(g, ISOTROPIC).q_x)


@pytest.mark.parametrize("model", [TWO_LEVEL, ISOTROPIC])
def test_im_part_positive_semidefinite(model):
    for g in (
        build_square_array(4, 0.45),
        apply_position_disorder(build_square_array(4, 0.7), 0.04, 3),
    ):
        m = interaction_matrix(g, model)
        assert im_part_min_eigenvalue(m) > -1e-10


def test_duplicate_positions_rejected():
    bad = Geometry(
        positions=np.array([[0.0, 0, 0], [1e-8, 0, 0]]),
        lattice_constant=0.6,
        linear_size=2,
        site_indices=[0, 1],
    )
    # construction passes the 1e-9 floor but coupling stays finite
    assert np.isfinite(interaction_matrix(bad).entries).all()
    with pytest.raises(SingularGeometryError):
        Geometry(
            positions=np.array([[0.0, 0, 0], [0.0, 0, 0]]),
            lattice_constant=0.6,
            linear_size=2,
        )


def test_unknown_model_rejected():
    with pytest.raises(InvalidArgumentError):
        interaction_matrix(build_square_array(2, 0.6), "four-level")
