from dataclasses import replace

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
from arraymem import greens
from arraymem.greens import InteractionMatrix, sector_basis, whole_space
from sector_oracle import dense_basis


def given(entries) -> InteractionMatrix:
    """An M given entry by entry, in the whole space: the entries fill the
    slot that InteractionMatrix.entries caches M in."""
    basis = whole_space(len(entries), TWO_LEVEL)
    m = InteractionMatrix(geometry=None, model=TWO_LEVEL, basis=basis)
    m.__dict__["entries"] = np.asarray(entries)
    return m


def reconstruction_residual(m: InteractionMatrix, dec, q) -> float:
    """Max-norm of V Lambda V^T - A relative to max |A|, for the matrix A
    that was decomposed, Q^T M Q."""
    a = q.T @ m.entries @ q
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    return float(np.max(np.abs(rebuilt - a)) / np.max(np.abs(a)))


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
    "geometry,model,in_sector",
    [
        pytest.param(build_square_array(10, 0.6), TWO_LEVEL, False, id="geometry0-two-level"),
        pytest.param(
            remove_holes(build_square_array(6, 0.6), [0, 7, 18]), TWO_LEVEL, False,
            id="geometry1-two-level",
        ),
        pytest.param(
            apply_position_disorder(build_square_array(6, 0.6), 0.03, 17), TWO_LEVEL, False,
            id="geometry2-two-level",
        ),
        pytest.param(build_square_array(4, 0.6), ISOTROPIC, False, id="geometry3-isotropic"),
        # a perfect lattice is solved in its mirror sector, Q^T M Q
        pytest.param(build_square_array(4, 0.6), TWO_LEVEL, True, id="sector-4x4-two-level"),
        pytest.param(build_square_array(3, 0.6), ISOTROPIC, True, id="sector-3x3-isotropic"),
    ],
)
def test_identities_across_geometries(geometry, model, in_sector):
    m = interaction_matrix(geometry, model)
    if in_sector:
        m = replace(m, basis=sector_basis(geometry, model))
    dec = eigendecompose(m)
    assert dec.bilinear_condition < 1e-8
    assert dec.completeness_residual < 1e-8
    assert dec.eigenvalues.imag.min() > -1e-10
    # tr Q^T M Q; over the whole space, 0.5j on each of M's rows
    q = dense_basis(geometry, model) if in_sector else np.eye(len(m.entries))
    expected = np.trace(q.T @ m.entries @ q) if in_sector else 0.5j * len(q)
    assert abs(dec.eigenvalues.sum() - expected) < 1e-9 * abs(expected)
    assert reconstruction_residual(m, dec, q) < 1e-9


def test_eigenvalues_are_scipys_bit_for_bit(monkeypatch):
    # numpy's and scipy's wheels bundle OpenBLAS builds whose zgeev agrees
    # at this size, and the eigensolve runs at the thread count scipy's
    # library keeps: same raw eigenvalues, in the same order
    raw = []
    eig = np.linalg.eig

    def recorded(a):
        raw.append(eig(a))
        return raw[-1]

    monkeypatch.setattr(np.linalg, "eig", recorded)
    # at one thread zgeev orders this matrix's eigenvalues differently
    g = remove_holes(build_square_array(10, 0.6), [3, 17, 55])
    m = InteractionMatrix(g, TWO_LEVEL, sector_basis(g, TWO_LEVEL))
    eigendecompose(m)
    assert np.array_equal(raw[0][0], scipy.linalg.eig(m.in_basis())[0])


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
    m = given(np.array([[1.0 + 0j, 1.0j], [1.0j, -1.0 + 0j]]))
    with pytest.raises(DefectiveSpectrumError) as err:
        eigendecompose(m)
    assert err.value.indices or "defective" in str(err.value).lower()


@pytest.mark.parametrize(
    "third", [1 + 2e-10 + 3j, 1 + 2e-9 + 3j], ids=["between-the-pair", "beside-the-pair"]
)
def test_near_degenerate_pair_is_reorthogonalized(third):
    # the eigenvectors of a near-degenerate pair overlap bilinearly, whether
    # a third eigenvalue lies between the pair's or beside it; the Gram
    # matrix names the pair and it comes out orthonormal
    rng = np.random.default_rng(1)
    a = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    o = scipy.linalg.expm(a - a.T)  # complex orthogonal, o^T o = I
    entries = o @ np.diag([1 + 0.5j, 1 + 5e-10 + 0.5j, third]) @ o.T
    m = given(0.5 * (entries + entries.T))
    dec = eigendecompose(m)
    assert dec.bilinear_condition < 1e-12
    assert reconstruction_residual(m, dec, np.eye(3)) < 1e-13


def test_asymmetric_matrix_rejected():
    m = given(np.array([[0.5j, 0.1], [0.2, 0.5j]]))
    with pytest.raises(InvalidArgumentError):
        eigendecompose(m)


def test_nonfinite_matrix_rejected():
    m = given(np.array([[0.5j, np.inf], [np.inf, 0.5j]]))
    with pytest.raises(InvalidArgumentError):
        eigendecompose(m)


@pytest.mark.parametrize(
    "bad", [[[0.5j, 0.1], [0.2, 0.5j]], [[0.5j, np.nan], [np.nan, 0.5j]]],
    ids=["asymmetric", "nonfinite"],
)
def test_sector_matrix_is_checked_as_m_is(monkeypatch, bad):
    g = build_square_array(3, 0.6)
    monkeypatch.setattr(greens, "_sector_matrix", lambda *args: np.array(bad))
    with pytest.raises(InvalidArgumentError):
        eigendecompose(InteractionMatrix(g, TWO_LEVEL, sector_basis(g, TWO_LEVEL)))


@pytest.mark.parametrize("model", [TWO_LEVEL, ISOTROPIC])
def test_nonfinite_coupling_table_rejected(monkeypatch, model):
    g = build_square_array(3, 0.6)

    def nan_parts(r):
        nan = np.full(r.shape, np.nan, dtype=complex)
        return nan, nan

    monkeypatch.setattr(greens, "_scalar_parts", nan_parts)
    with pytest.raises(InvalidArgumentError, match="coupling table"):
        eigendecompose(InteractionMatrix(g, model, sector_basis(g, model)))


def test_diagnostics_payload():
    dec = eigendecompose(interaction_matrix(build_square_array(3, 0.6)))
    diag = dec.diagnostics()
    assert set(diag) >= {
        "bilinear_condition",
        "completeness_residual",
        "min_im_lambda",
        "trace_residual",
    }
