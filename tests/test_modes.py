import pickle

import numpy as np
import pytest

from arraymem import (
    ISOTROPIC,
    DetectionMode,
    build_square_array,
    detection_field,
    mode_flux_norm,
    mode_norm,
    sample_mode,
    validate_projection,
)
from arraymem.errors import InvalidArgumentError, NumericalError
from arraymem.greens import K0
from arraymem.modes import _field_components


def focus_amplitude(w0):
    """Closed form of E^x at the focus from the radial antiderivative:
    2/(k0 w0)^2 * (1 - exp(-(k0 w0)^2/4))."""
    a = (K0 * w0) ** 2 / 4.0
    return (1.0 - np.exp(-a)) / (2.0 * a)


def mode_norm_realspace(m: DetectionMode, z: float = 0.0) -> float:
    """Surface integral of |E_det|^2 at a plane z = const (cross-check).

    Azimuthal integration is analytic (|E^x|^2 is axial, |E^z|^2 carries
    cos^2), leaving radial quadrature on composite Gauss-Legendre panels.
    """
    tol = m.quadrature_tolerance
    w_z = m.w0 * np.sqrt(1.0 + (z / (np.pi * m.w0**2)) ** 2)
    r_max = max(10.0 * w_z, 8.0)

    def value(order):
        x, w = np.polynomial.legendre.leggauss(order)
        width = min(0.5, m.w0 / 4.0)
        n_panels = int(np.ceil(r_max / width))
        edges = np.linspace(0.0, r_max, n_panels + 1)
        mid = (edges[1:] + edges[:-1]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        rho = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        wts = (half[:, None] * w[None, :]).ravel()
        ex, g = _field_components(m.w0, rho, [z], tol)
        ez_mag2 = np.abs(g) ** 2
        radial = 2.0 * np.pi * np.abs(ex) ** 2 + np.pi * ez_mag2
        return float(np.sum(wts * rho * radial))

    prev = value(12)
    for order in (24, 48):
        cur = value(order)
        if abs(cur - prev) <= 1e-9 * abs(cur):
            return cur
        prev = cur
    return prev


def test_waist_and_tolerance_validation():
    with pytest.raises(InvalidArgumentError):
        DetectionMode(w0=0.0)
    with pytest.raises(InvalidArgumentError):
        DetectionMode(w0=1.0, quadrature_tolerance=0.0)
    with pytest.raises(InvalidArgumentError):
        DetectionMode(w0=1.0, quadrature_tolerance=1e-5)
    for w0 in (np.inf, np.nan):
        with pytest.raises(InvalidArgumentError, match="finite"):
            DetectionMode(w0=w0)


def test_a_beam_without_a_waist_cannot_be_sampled():
    m = DetectionMode(w0=None)
    for call in (
        lambda: sample_mode(m, build_square_array(2, 0.6)),
        lambda: detection_field(m, [0.0, 0.0, 0.0]),
        lambda: mode_norm(m),
        lambda: mode_flux_norm(m),
        lambda: validate_projection(m, [0, 0, 0], [1, 0, 0], 5.0),
    ):
        with pytest.raises(InvalidArgumentError, match="without a waist"):
            call()


def test_mode_pickle_round_trip():
    m = DetectionMode(w0=1.5, two_sided=False, quadrature_tolerance=1e-9)
    back = pickle.loads(pickle.dumps(m))
    assert back == m
    assert mode_norm(back) == mode_norm(m)
    assert mode_flux_norm(back) == mode_flux_norm(m)


def test_z_component_vanishes_on_axis():
    m = DetectionMode(w0=1.5)
    for z in (-2.0, 0.0, 3.7):
        f = detection_field(m, [0.0, 0.0, z])
        assert f[2] == 0.0


def test_focus_closed_form():
    for w0 in (0.8, 2.0, 5.0):
        m = DetectionMode(w0=w0)
        f = detection_field(m, [0.0, 0.0, 0.0])
        assert f[0] == pytest.approx(focus_amplitude(w0), rel=1e-10)


def test_y_component_identically_zero():
    m = DetectionMode(w0=2.0)
    f = detection_field(m, [0.7, -0.3, 1.2])
    assert f[1] == 0.0


def test_large_waist_paraxial_limit():
    w0 = 20.0
    m = DetectionMode(w0=w0)
    e00 = detection_field(m, [0.0, 0.0, 0.0])[0]
    for rho in np.linspace(0.0, w0, 9):
        val = detection_field(m, [rho, 0.0, 0.0])[0]
        want = e00 * np.exp(-(rho**2) / w0**2)
        assert abs(val - want) <= 1e-4 * abs(want)


def test_field_is_deterministic():
    m = DetectionMode(w0=1.3)
    a = detection_field(m, [0.4, 0.2, 1.1])
    b = detection_field(m, [0.4, 0.2, 1.1])
    assert np.array_equal(a, b)


def test_conjugate_mirror_symmetry():
    m = DetectionMode(w0=1.4)
    for rho, z in ((0.5, 0.8), (1.2, 2.5)):
        up = detection_field(m, [rho, 0.0, z])
        down = detection_field(m, [rho, 0.0, -z])
        assert down[0] == pytest.approx(np.conj(up[0]), rel=1e-12)
        assert down[2] == pytest.approx(-np.conj(up[2]), rel=1e-12)


def test_surface_norm_plane_independent():
    m = DetectionMode(w0=2.0)
    fk = mode_norm(m)
    assert mode_norm_realspace(m, 0.0) == pytest.approx(fk, rel=1e-8)
    assert mode_norm_realspace(m, 5.0) == pytest.approx(fk, rel=1e-8)


def test_two_quadratures_agree_at_w0_3():
    m = DetectionMode(w0=3.0)
    assert mode_norm_realspace(m, 0.0) == pytest.approx(mode_norm(m), rel=1e-8)


def test_flux_norm_below_surface_norm():
    # the obliquity factor strictly reduces every spectral weight
    for w0 in (1.0, 2.0, 4.0):
        m = DetectionMode(w0=w0)
        assert 0.0 < mode_flux_norm(m) < mode_norm(m)


def test_single_atom_sample_is_focus_value():
    g = build_square_array(1, 0.6)
    s = sample_mode(DetectionMode(w0=2.0), g)
    assert s.values[0, 0] == pytest.approx(focus_amplitude(2.0), rel=1e-10)


def test_fourfold_symmetry_on_2x2():
    g = build_square_array(2, 0.6)
    s = sample_mode(DetectionMode(w0=1.5), g)
    assert s.values.shape == (4, 1)
    mags = np.abs(s.values[:, 0])
    np.testing.assert_allclose(mags, mags[0], rtol=1e-12)


def test_focal_plane_samples_are_real():
    g = build_square_array(5, 0.7)
    s = sample_mode(DetectionMode(w0=1.5), g)
    assert np.max(np.abs(s.values.imag)) <= 1e-10 * np.max(np.abs(s.values))


def test_isotropic_samples_shape_and_y_zero():
    g = build_square_array(3, 0.6)
    s = sample_mode(DetectionMode(w0=1.5), g, ISOTROPIC)
    assert s.values.shape == (9, 3)
    assert np.all(s.values[:, 1] == 0.0)
    # z-component is purely imaginary in the focal plane
    assert np.max(np.abs(s.values[:, 2].real)) <= 1e-12


def test_radial_monotonicity_on_lattice():
    g = build_square_array(10, 0.6)
    s = sample_mode(DetectionMode(w0=1.5), g)
    rho = np.hypot(g.positions[:, 0], g.positions[:, 1])
    order = np.argsort(rho)
    mags = np.abs(s.values[:, 0])[order]
    rho_sorted = rho[order]
    for i in range(len(mags) - 1):
        if rho_sorted[i + 1] - rho_sorted[i] > 1e-9:
            assert mags[i + 1] <= mags[i] * (1 + 1e-12)


def test_projection_identity_x_dipole():
    chk = validate_projection(DetectionMode(w0=2.0), [0, 0, 0], [1, 0, 0], 5.0)
    assert chk.discrepancy < 1e-4


def test_projection_orthogonal_dipole_is_null():
    m = DetectionMode(w0=2.0)
    ref = validate_projection(m, [0, 0, 0], [1, 0, 0], 5.0)
    chk = validate_projection(m, [0, 0, 0], [0, 1, 0], 5.0)
    assert abs(chk.closed_form) == 0.0
    assert abs(chk.numeric) < 1e-6 * abs(ref.closed_form)


def test_projection_displaced_dipole_overlap_small():
    m = DetectionMode(w0=2.0)
    ref = validate_projection(m, [0, 0, 0], [1, 0, 0], 5.0)
    chk = validate_projection(m, [5 * m.w0, 0, 0], [1, 0, 0], 5.0)
    assert abs(chk.numeric) < 1e-3 * abs(ref.numeric)


@pytest.mark.parametrize("offset", [2.0, 5.0])
@pytest.mark.parametrize("axis", [0, 1])
def test_projection_identity_off_axis(offset, axis):
    m = DetectionMode(w0=2.0)
    r_d = [0.0, 0.0, 0.0]
    r_d[axis] = offset * m.w0
    chk = validate_projection(m, r_d, [1, 0, 0], 5.0)
    assert chk.discrepancy < 1e-4


def test_projection_nonconvergence_names_threshold():
    m = DetectionMode(w0=2.0)
    with pytest.raises(NumericalError, match=r"below 1\.01e-33 ") as info:
        validate_projection(m, [0, 0, 0], [1, 0, 0], 5.0, radius=4.0, rel_tol=1e-30)
    assert info.value.achieved > 0.0


def test_projection_requires_propagating_side():
    with pytest.raises(InvalidArgumentError):
        validate_projection(DetectionMode(w0=2.0), [0, 0, 1.0], [1, 0, 0], 0.5)


def test_sample_csv_rows():
    from arraymem.modes import samples_to_rows

    g = build_square_array(2, 0.6)
    s = sample_mode(DetectionMode(w0=1.5), g)
    rows = samples_to_rows(g, s)
    assert [r["site"] for r in rows] == [0, 1, 2, 3]
    assert rows[0]["x"] == pytest.approx(-0.3)
    assert rows[0]["re_e"] == pytest.approx(float(s.values[0, 0].real))
