from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from arraymem import (
    ISOTROPIC,
    TWO_LEVEL,
    DetectionMode,
    apply_position_disorder,
    build_square_array,
    eigendecompose,
    efficiency_of_spin_wave,
    interaction_matrix,
    k_matrix,
    max_efficiency,
    remove_holes,
    sample_mode,
)
from arraymem.errors import InvalidArgumentError, NumericalError, SingularPairError
from arraymem.greens import COMPONENTS, whole_space
from arraymem.modes import ModeSamples
from arraymem.retrieval import (
    EfficiencyMatrix,
    _fix_phase,
    efficiency_prefactor,
    solution_to_dict,
)
from arraymem.spectral import SpectralDecomposition
from arraymem import retrieval, studies


def pipeline(geometry, w0=1.5, model=TWO_LEVEL, two_sided=True):
    dec = eigendecompose(interaction_matrix(geometry, model))
    samples = sample_mode(DetectionMode(w0=w0, two_sided=two_sided), geometry, model)
    return dec, samples, k_matrix(dec, samples)


def test_single_atom_k_is_intensity():
    g = build_square_array(1, 0.6)
    _, samples, mat = pipeline(g, w0=2.0)
    assert mat.k[0, 0] == pytest.approx(np.abs(samples.values[0, 0]) ** 2, rel=1e-12)
    sol = max_efficiency(mat)
    want = mat.prefactor * np.abs(samples.values[0, 0]) ** 2
    assert sol.eta_max == pytest.approx(want, rel=1e-12)


def test_k_is_hermitian():
    for n, d in ((3, 0.6), (3, 0.45), (4, 0.8)):
        _, _, mat = pipeline(build_square_array(n, d))
        k = mat.k
        assert np.max(np.abs(k - k.conj().T)) < 1e-10 * np.max(np.abs(k))


def test_two_atom_exchange_commutes_with_k():
    pair = remove_holes(build_square_array(2, 0.6), [1, 2])
    _, _, mat = pipeline(pair, w0=1.2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    comm = swap @ mat.k - mat.k @ swap
    assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(mat.k))


def test_efficiency_bounds_and_psd():
    for n in (2, 3, 4):
        _, _, mat = pipeline(build_square_array(n, 0.6))
        evals = np.linalg.eigvalsh(mat.k)
        assert evals[0] > -1e-10 * evals[-1]
        sol = max_efficiency(mat)
        assert 0.0 <= sol.eta_max <= 1.0 + 1e-9
        assert mat.prefactor * evals[-1] <= 1.0 + 1e-9


def test_variational_property():
    _, _, mat = pipeline(build_square_array(3, 0.6))
    sol = max_efficiency(mat)
    rng = np.random.default_rng(8)
    for _ in range(100):
        s = rng.normal(size=9) + 1j * rng.normal(size=9)
        s /= np.linalg.norm(s)
        assert efficiency_of_spin_wave(mat, s) <= sol.eta_max + 1e-12


def test_optimum_spin_wave_reproduces_eta_max():
    _, _, mat = pipeline(build_square_array(3, 0.6))
    sol = max_efficiency(mat)
    assert np.sum(np.abs(sol.spin_wave) ** 2) == pytest.approx(1.0, abs=1e-12)
    eta = efficiency_of_spin_wave(mat, sol.spin_wave)
    assert eta == pytest.approx(sol.eta_max, rel=1e-12)


def test_gauge_invariance_of_k():
    g = build_square_array(3, 0.6)
    dec = eigendecompose(interaction_matrix(g))
    samples = sample_mode(DetectionMode(w0=1.5), g)
    rotated = replace(samples, values=samples.values * np.exp(0.7j))
    k1 = k_matrix(dec, samples).k
    k2 = k_matrix(dec, rotated).k
    np.testing.assert_allclose(k2, k1, rtol=0, atol=1e-12 * np.max(np.abs(k1)))


def test_one_sided_is_half_of_two_sided():
    g = build_square_array(3, 0.6)
    dec = eigendecompose(interaction_matrix(g))
    s2 = sample_mode(DetectionMode(w0=1.5, two_sided=True), g)
    s1 = sample_mode(DetectionMode(w0=1.5, two_sided=False), g)
    eta2 = max_efficiency(k_matrix(dec, s2)).eta_max
    eta1 = max_efficiency(k_matrix(dec, s1)).eta_max
    assert eta2 == pytest.approx(2.0 * eta1, rel=1e-12)
    assert efficiency_prefactor(s2) == pytest.approx(
        2.0 * efficiency_prefactor(s1), rel=1e-15
    )


def test_spin_wave_norm_enforced():
    _, _, mat = pipeline(build_square_array(2, 0.6))
    with pytest.raises(InvalidArgumentError):
        efficiency_of_spin_wave(mat, np.ones(4, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        efficiency_of_spin_wave(mat, np.ones(3, dtype=complex) / np.sqrt(3))
    for bad in (np.nan, np.inf):  # a NaN norm passes a > tolerance test
        with pytest.raises(InvalidArgumentError):
            efficiency_of_spin_wave(mat, np.array([bad, 0.0, 0.0, 0.0]))


def test_optimum_has_lattice_mirror_symmetry_on_10x10():
    # the x-polarized mode breaks the fourfold lattice symmetry down to
    # the two mirrors and the 180-degree rotation; those are exact
    g = build_square_array(10, 0.6)
    _, _, mat = pipeline(g, w0=1.5)
    sol = max_efficiency(mat)
    mags = np.abs(sol.spin_wave).reshape(10, 10)
    np.testing.assert_allclose(mags, mags[::-1, :], atol=1e-8)
    np.testing.assert_allclose(mags, mags[:, ::-1], atol=1e-8)
    np.testing.assert_allclose(mags, mags[::-1, ::-1], atol=1e-8)


def test_uniform_wave_close_to_optimal_on_10x10():
    g = build_square_array(10, 0.6)
    _, _, mat = pipeline(g, w0=2.0)
    sol = max_efficiency(mat)
    uniform = np.ones(100, dtype=complex) / 10.0
    eta_u = efficiency_of_spin_wave(mat, uniform)
    assert eta_u < sol.eta_max
    assert eta_u > 0.5 * sol.eta_max


def test_checkerboard_wave_is_suboptimal():
    g = build_square_array(10, 0.6)
    _, _, mat = pipeline(g, w0=1.5)
    sol = max_efficiency(mat)
    signs = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (10, 10)).ravel()
    eta_c = efficiency_of_spin_wave(mat, (signs / 10.0).astype(complex))
    assert eta_c < sol.eta_max


def test_dark_pair_guard():
    dec = SpectralDecomposition(
        eigenvalues=np.array([0.3 + 0.0j]),
        eigenvectors=np.array([[1.0 + 0j]]),
        bilinear_condition=0.0,
        completeness_residual=0.0,
        basis=whole_space(1, TWO_LEVEL),
    )
    samples = ModeSamples(values=np.array([[0.1 + 0j]]), f_flux=1.0, w0=1.0, two_sided=True)
    with pytest.raises(SingularPairError):
        k_matrix(dec, samples)


def test_isotropic_contractions_coincide_for_planar_arrays():
    # in-plane separations give G_xz = G_yz = 0, so z-polarized eigenmodes
    # never acquire x components: the z part of the sampled field cannot
    # reach K, and on a planar array contracting the full field or just its
    # x part gives the same K (they differ only out of plane)
    g = build_square_array(3, 0.6)
    dec = eigendecompose(interaction_matrix(g, ISOTROPIC))
    samples = sample_mode(DetectionMode(w0=1.2), g, ISOTROPIC)
    x_values = np.zeros_like(samples.values)
    x_values[:, 0] = samples.values[:, 0]
    full = k_matrix(dec, samples)
    xonly = k_matrix(dec, replace(samples, values=x_values))
    assert full.k.shape == (9, 9)
    np.testing.assert_allclose(
        full.k, xonly.k, rtol=0, atol=1e-12 * np.max(np.abs(full.k))
    )
    for mat in (full, xonly):
        eta = max_efficiency(mat).eta_max
        assert 0.0 <= eta <= 1.0 + 1e-9


def test_model_mismatch_rejected():
    g = build_square_array(2, 0.6)
    dec = eigendecompose(interaction_matrix(g, TWO_LEVEL))
    samples = sample_mode(DetectionMode(w0=1.5), g, ISOTROPIC)
    with pytest.raises(InvalidArgumentError):
        k_matrix(dec, samples)


def test_solution_export_is_json_ready():
    import json

    g = build_square_array(2, 0.6)
    _, _, mat = pipeline(g)
    sol = max_efficiency(mat)
    doc = solution_to_dict(sol, w0=1.5, geometry_json=g.to_json())
    text = json.dumps(doc)
    assert "eta_max" in text


@pytest.mark.parametrize(
    "geometry, model",
    [
        (build_square_array(4, 0.6), TWO_LEVEL),
        (build_square_array(4, 0.6), ISOTROPIC),
        (remove_holes(build_square_array(5, 0.6), [0, 7, 13, 21]), TWO_LEVEL),
        (apply_position_disorder(build_square_array(4, 0.6), 0.03, 11), TWO_LEVEL),
        (remove_holes(build_square_array(3, 0.6), [4]), ISOTROPIC),
        # small disorder splits the lattice's degenerate pairs only slightly:
        # their eigenvectors still overlap bilinearly and are re-orthogonalized
        (apply_position_disorder(build_square_array(4, 0.6), 1e-8, 12345), ISOTROPIC),
        (apply_position_disorder(build_square_array(3, 0.6), 1e-7, 12345), ISOTROPIC),
    ],
    ids=["perfect-4-two-level", "perfect-4-isotropic", "holes-5", "disorder-4",
         "holes-3-isotropic", "near-degenerate-4-isotropic", "near-degenerate-3-isotropic"],
)
def test_k_matrix_is_the_controllability_gramian(geometry, model):
    # K = int u u^H dt with u(t) = exp(iMt) E* solves the Lyapunov equation
    # (iM) X + X (iM)^H = -E* E^T; Bartels-Stewart gives X with no
    # eigenvectors at all, and K is its block on the x rows and columns.
    # The K over the atoms is Q_x K Q_x^T in the sector and the whole space
    # alike.
    res = studies.solve(geometry, DetectionMode(w0=1.2), model)
    m = interaction_matrix(geometry, model).entries
    b = res.samples.values.conj().reshape(-1)
    gramian = scipy.linalg.solve_continuous_lyapunov(1j * m, -np.outer(b, b.conj()))
    x = slice(None, None, COMPONENTS[model])
    q_x = res.dec.basis.q_x
    k = q_x @ res.k @ q_x.T
    assert np.max(np.abs(k - gramian[x, x])) <= 1e-10 * np.max(np.abs(k))
    # a fixed spin wave is scored through the mode Gram matrix; the quadratic
    # form of K itself, p Re(u^T K u*) with u = Q_x^T s, is its oracle
    n = q_x.shape[0]
    rng = np.random.default_rng(n)
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    for spin in (res.solution.spin_wave, s / np.linalg.norm(s)):
        u = q_x.T @ spin
        oracle = res.prefactor * np.real(u @ (res.k @ u.conj()))
        assert abs(efficiency_of_spin_wave(res, spin) - oracle) <= 1e-13


def dense_top(mat):
    """eta, spin wave and gap from a dense eigh of the formed K: the top
    pair as it was computed before the iteration."""
    evals, evecs = np.linalg.eigh(mat.k)
    basis = mat.dec.basis
    evals = np.sort(np.concatenate([evals, np.zeros(basis.n_atoms - len(evals))]))
    spin = _fix_phase((basis.q_x @ evecs[:, -1]).conj())
    gap = evals[-1] - evals[-2] if len(evals) > 1 else np.inf
    return mat.prefactor * evals[-1], spin / np.linalg.norm(spin), gap, evals[-1]


@pytest.mark.parametrize(
    "geometry, model",
    [
        *((build_square_array(n, 0.6), TWO_LEVEL) for n in (1, 2, 4, 10, 20)),
        (build_square_array(3, 0.6), ISOTROPIC),
        (build_square_array(14, 0.6), ISOTROPIC),
        (remove_holes(build_square_array(10, 0.6), [3, 44, 56, 71]), TWO_LEVEL),
        (apply_position_disorder(build_square_array(10, 0.6), 0.02, 3), TWO_LEVEL),
    ],
    ids=["perfect-1", "perfect-2", "perfect-4", "perfect-10", "perfect-20",
         "isotropic-3", "isotropic-14", "holes-10", "disorder-10"],
)
def test_top_pair_matches_dense_eigh(geometry, model):
    mat = studies.solve(geometry, DetectionMode(w0=1.5), model)
    eta, spin, gap, top = dense_top(mat)
    sol = max_efficiency(mat)
    assert abs(sol.eta_max - eta) <= 1e-13
    assert np.max(np.abs(sol.spin_wave - spin)) <= 1e-12
    if np.isinf(gap):
        assert sol.diagnostics["spectral_gap"] == gap
    else:
        assert abs(sol.diagnostics["spectral_gap"] - gap) <= 1e-12 * top
    assert not sol.diagnostics["degenerate_top"]
    assert sol.diagnostics["ritz_residual"] <= 1e-13 * top


def test_degenerate_top_is_found_as_an_eigenspace():
    # K = V W V^H with V real orthogonal has the spectrum of W, here a
    # doubly degenerate top: any vector of that plane is a top eigenvector
    n = 8
    rng = np.random.default_rng(5)
    v = np.linalg.qr(rng.normal(size=(n, n)))[0].astype(complex)
    z = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    w = z @ np.diag([1.0, 1.0, 0.5, 0.3, 0.1, 0.05, 0.02, 0.01]) @ z.conj().T
    dec = SpectralDecomposition(
        eigenvalues=0.1 * np.arange(n) + 0.5j,
        eigenvectors=v,
        bilinear_condition=0.0,
        completeness_residual=0.0,
        basis=whole_space(n, TWO_LEVEL),
    )
    samples = ModeSamples(values=np.ones((n, 1), complex), f_flux=1.0, w0=1.0, two_sided=True)
    mat = EfficiencyMatrix(dec=dec, samples=samples, w=w, prefactor=0.5)
    eta, _, gap, top = dense_top(mat)
    sol = max_efficiency(mat)
    assert abs(sol.eta_max - eta) <= 1e-13
    assert sol.diagnostics["degenerate_top"]
    assert abs(sol.diagnostics["spectral_gap"] - gap) <= 1e-12 * top
    u = sol.spin_wave.conj()
    assert np.linalg.norm(mat.k @ u - top * u) <= 1e-12 * top


def test_top_pair_that_does_not_converge_is_a_numerical_error(monkeypatch):
    # the 10x10 perfect lattice needs more than one block product
    _, _, mat = pipeline(build_square_array(10, 0.6))
    monkeypatch.setattr(retrieval, "MAX_RITZ_ITERATIONS", 1)
    with pytest.raises(NumericalError) as info:
        max_efficiency(mat)
    assert info.value.achieved > retrieval.RITZ_RTOL * np.linalg.eigvalsh(mat.k)[-1]
