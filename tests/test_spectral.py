import numpy as np
import pytest
import scipy.linalg

from arraymem import (
    ISOTROPIC,
    TWO_LEVEL,
    apply_position_disorder,
    build_square_array,
    eigendecompose,
    interaction_matrix,
    remove_holes,
)
from arraymem.errors import DefectiveSpectrumError, InvalidArgumentError
from arraymem.greens import InteractionMatrix, whole_space
from arraymem.spectral import reconstruction_residual


def test_single_atom_spectrum():
    dec = eigendecompose(interaction_matrix(build_square_array(1, 0.6)))
    assert dec.eigenvalues[0] == pytest.approx(0.5j, abs=1e-15)
    np.testing.assert_allclose(np.abs(dec.eigenvectors), [[1.0]], atol=1e-15)


def test_two_atom_exchange_symmetry():
    g = build_square_array(2, 0.6)
    pair = remove_holes(g, [1, 2])  # keeps sites 0 and 3
    m = interaction_matrix(pair)
    dec = eigendecompose(m)
    m12 = m.entries[0, 1]
    want = {0.5j + m12, 0.5j - m12}
    got = set(dec.eigenvalues)
    assert all(min(abs(w - v) for v in got) < 1e-12 for w in want)
    for v in dec.eigenvectors.T:
        np.testing.assert_allclose(np.abs(v), [np.sqrt(0.5)] * 2, atol=1e-12)


@pytest.mark.parametrize(
    "geometry,model",
    [
        (build_square_array(10, 0.6), TWO_LEVEL),
        (remove_holes(build_square_array(6, 0.6), [0, 7, 18]), TWO_LEVEL),
        (apply_position_disorder(build_square_array(6, 0.6), 0.03, 17), TWO_LEVEL),
        (build_square_array(4, 0.6), ISOTROPIC),
    ],
)
def test_identities_across_geometries(geometry, model):
    m = interaction_matrix(geometry, model)
    dec = eigendecompose(m)
    assert dec.bilinear_condition < 1e-8
    assert dec.completeness_residual < 1e-8
    assert dec.eigenvalues.imag.min() > -1e-10
    expected = 0.5j * dec.size
    assert abs(dec.eigenvalues.sum() - expected) < 1e-9 * abs(expected)
    assert reconstruction_residual(m, dec) < 1e-9


def test_eigenvalues_invariant_under_relabeling():
    from arraymem.geometry import Geometry

    g = build_square_array(3, 0.6)
    dec = eigendecompose(interaction_matrix(g))
    rng = np.random.default_rng(5)
    perm = rng.permutation(9)
    g2 = Geometry(
        positions=g.positions[perm],
        lattice_constant=0.6,
        linear_size=3,
        site_indices=g.site_indices[perm],
    )
    dec2 = eigendecompose(interaction_matrix(g2))
    a = np.sort_complex(dec.eigenvalues)
    b = np.sort_complex(dec2.eigenvalues)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-11)


def test_decomposition_is_reproducible():
    m = interaction_matrix(build_square_array(4, 0.6))
    d1 = eigendecompose(m)
    d2 = eigendecompose(m)
    np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
    np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)


def test_defective_matrix_raises():
    # symmetric, eigenvalue 0 twice, rank 1: a genuine Jordan block whose
    # lone eigenvector (1, i) has vanishing bilinear norm
    m = InteractionMatrix(
        entries=np.array([[1.0 + 0j, 1.0j], [1.0j, -1.0 + 0j]]),
        basis=whole_space(2, TWO_LEVEL),
    )
    with pytest.raises(DefectiveSpectrumError) as err:
        eigendecompose(m)
    assert err.value.indices or "defective" in str(err.value).lower()


@pytest.mark.parametrize(
    "third", [1 + 2e-10 + 3j, 1 + 2e-9 + 3j], ids=["between-the-pair", "beside-the-pair"]
)
def test_near_degenerate_pair_is_one_cluster(third):
    # a near-degenerate pair whose real parts bracket a third eigenvalue's
    # sorts apart in lexicographic order, and is still one cluster
    rng = np.random.default_rng(1)
    a = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    o = scipy.linalg.expm(a - a.T)  # complex orthogonal, o^T o = I
    entries = o @ np.diag([1 + 0.5j, 1 + 5e-10 + 0.5j, third]) @ o.T
    m = InteractionMatrix(
        entries=0.5 * (entries + entries.T),
        basis=whole_space(3, TWO_LEVEL),
    )
    dec = eigendecompose(m)
    assert dec.bilinear_condition < 1e-12
    assert reconstruction_residual(m, dec) < 1e-13


def test_asymmetric_matrix_rejected():
    m = InteractionMatrix(
        entries=np.array([[0.5j, 0.1], [0.2, 0.5j]]),
        basis=whole_space(2, TWO_LEVEL),
    )
    with pytest.raises(InvalidArgumentError):
        eigendecompose(m)


def test_nonfinite_matrix_rejected():
    m = InteractionMatrix(
        entries=np.array([[0.5j, np.inf], [np.inf, 0.5j]]),
        basis=whole_space(2, TWO_LEVEL),
    )
    with pytest.raises(InvalidArgumentError):
        eigendecompose(m)


def test_diagnostics_payload():
    dec = eigendecompose(interaction_matrix(build_square_array(3, 0.6)))
    diag = dec.diagnostics()
    assert set(diag) >= {
        "bilinear_condition",
        "completeness_residual",
        "min_im_lambda",
        "trace_residual",
    }
