"""Exact evanescent-free Gaussian-like detection mode.

The beam is defined in wavevector space by a Gaussian amplitude on the
propagating disk,

    E_x(k_x, k_y) ~ exp(-(k_x^2 + k_y^2) w0^2 / 4),   k_x^2 + k_y^2 <= k0^2,

with E_y = 0 and E_z fixed by transversality. Fourier transforming gives
two Bessel-kernel integrals over b = k_t/k0 in [0, 1]:

    E^x(rho, z) = Int db b  exp(-b^2 k0^2 w0^2/4) exp(i k0 z sqrt(1-b^2)) J0(b k0 rho)
    E^z(rho, z) = -i (x/rho) Int db b^2/sqrt(1-b^2) (same weights) J1(b k0 rho)

Both are evaluated with the substitution b = sin(theta), which removes the
endpoint singularity of the E^z kernel, followed by Gauss-Legendre
quadrature with node doubling until the requested tolerance is met.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1

from .errors import InvalidArgumentError, NumericalError
from .geometry import Geometry
from .greens import TWO_LEVEL, K0, _components, _scalar_parts

_PANEL_ORDER = 32
_MAX_PANELS = 1 << 10
_NORM_MAX_PANELS = 1 << 8
_FIELD_CHUNK = 512

_base_x, _base_w = np.polynomial.legendre.leggauss(_PANEL_ORDER)
_panel_cache: dict = {}


def _gl_rule(n_panels: int):
    """Composite Gauss-Legendre rule on theta in [0, pi/2].

    Fixed 32-point rule per panel; refinement doubles the panel count, so
    node construction stays O(n) and oscillatory integrands are resolved
    panel by panel.
    """
    rule = _panel_cache.get(n_panels)
    if rule is None:
        edges = np.linspace(0.0, np.pi / 2.0, n_panels + 1)
        mid = (edges[1:] + edges[:-1]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        theta = (mid[:, None] + half[:, None] * _base_x[None, :]).ravel()
        weights = (half[:, None] * _base_w[None, :]).ravel()
        rule = (theta, weights)
        if n_panels <= 64:
            _panel_cache[n_panels] = rule
    return rule


def _start_panels(max_arg: float) -> int:
    """Initial panel count, scaled to the fastest oscillation present."""
    n = 1
    while n * _PANEL_ORDER < 0.75 * max_arg and n < _MAX_PANELS:
        n *= 2
    return n


def _field_block(w0, rho, z, tol, flux_weight=False):
    """Adaptive evaluation of (E^x, g) on a batch of (rho, z) points.

    g is the azimuth-free part of the z-component: E^z = -i (x/rho) g.
    With flux_weight the spectrum is multiplied by k_z/k0, producing the
    auxiliary field whose plane overlaps measure photon flux.
    """
    a = (K0 * w0) ** 2 / 4.0
    karg = K0 * (np.max(rho) + np.max(np.abs(z)) if len(rho) else 0.0)
    n = _start_panels(karg)
    prev = None
    err = np.inf
    while n <= _MAX_PANELS:
        theta, w = _gl_rule(n)
        s = np.sin(theta)
        c = np.cos(theta)
        weight = w * s * np.exp(-a * s * s)
        if flux_weight:
            weight = weight * c
        phase = np.exp(1j * K0 * np.outer(c, z))
        bess_arg = K0 * np.outer(s, rho)
        ex = (weight * c) @ (j0(bess_arg) * phase)
        g = (weight * s) @ (j1(bess_arg) * phase)
        if prev is not None:
            err = max(
                np.max(np.abs(ex - prev[0]), initial=0.0),
                np.max(np.abs(g - prev[1]), initial=0.0),
            )
            if err <= tol:
                return ex, g
        prev = (ex, g)
        n *= 2
    raise NumericalError(
        f"field quadrature did not converge below {tol:g} "
        f"with {_MAX_PANELS * _PANEL_ORDER} nodes",
        achieved=err,
    )


def _field_components(w0, rho, z, tol, flux_weight=False):
    """Chunked wrapper around _field_block, run once per distinct (rho, z).

    The fields depend on the point only through (rho, z), which a centred
    lattice repeats up to eight times.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size == 1:
        z = np.full_like(rho, z[0])
    points, inverse = np.unique(
        np.stack([rho, z], axis=1), axis=0, return_inverse=True
    )
    ex = np.empty(len(points), dtype=complex)
    g = np.empty(len(points), dtype=complex)
    for lo in range(0, len(points), _FIELD_CHUNK):
        sl = slice(lo, lo + _FIELD_CHUNK)
        ex[sl], g[sl] = _field_block(
            w0, points[sl, 0], points[sl, 1], tol, flux_weight
        )
    inverse = inverse.reshape(-1)
    return ex[inverse], g[inverse]


@dataclass
class DetectionMode:
    """Detection beam: waist, sidedness, quadrature tolerance.

    The beam has unit amplitude: eta does not depend on it.

    two_sided selects the symmetric superposition of beams leaving the
    array toward +z and -z; it enters only as a factor 2 on efficiencies
    (the array sits in the z = 0 mirror plane), never in the sampled
    fields or the norms, which always refer to the single +z beam.

    w0 = None means no waist has been chosen: such a beam cannot be
    sampled, and studies.solve solves it at its best waist.
    """

    w0: float | None
    two_sided: bool = True
    quadrature_tolerance: float = 1e-10

    def __post_init__(self):
        if self.w0 is not None and not 0 < self.w0 < np.inf:
            raise InvalidArgumentError(f"beam waist must be positive and finite, got {self.w0!r}")
        _check_tolerance(self.quadrature_tolerance)


def _waist(m: DetectionMode) -> float:
    """The beam's waist; a beam without one has no field to evaluate."""
    if m.w0 is None:
        raise InvalidArgumentError("a beam without a waist has no field; solve searches one")
    return m.w0


def _check_tolerance(tol):
    if not (0.0 < tol <= 1e-6):
        raise InvalidArgumentError(
            f"quadrature tolerance must be in (0, 1e-6], got {tol!r}"
        )


def _field_vectors(m: DetectionMode, pos: np.ndarray, c: int) -> np.ndarray:
    """The first c components of (E^x, 0, E^z) of the +z beam at each row
    of pos, one quadrature batch."""
    rho = np.hypot(pos[:, 0], pos[:, 1])
    ex, g = _field_components(_waist(m), rho, pos[:, 2], m.quadrature_tolerance)
    ez = np.zeros_like(ex)  # J1(0) = 0 on the axis
    off_axis = rho != 0.0
    ez[off_axis] = -1j * (pos[off_axis, 0] / rho[off_axis]) * g[off_axis]
    return np.stack((ex, np.zeros_like(ex), ez)[:c], axis=1)


def detection_field(m: DetectionMode, r) -> np.ndarray:
    """Complex field vector (E^x, 0, E^z) of the +z beam at a point."""
    return _field_vectors(m, np.asarray(r, dtype=float)[None], 3)[0]


@functools.lru_cache(maxsize=256)
def _radial_norm_integral(w0: float, flux_weighted: bool) -> float:
    """Radial k-space integral common to both norms, b = sin(theta).

    Cached: a pure function of the waist, asked for by every mode of a
    study with the same few waists.
    """
    two_a = (K0 * w0) ** 2 / 2.0

    def value(n):
        theta, w = _gl_rule(n)
        s = np.sin(theta)
        c = np.cos(theta)
        integrand = s * (2.0 - s * s) * np.exp(-two_a * s * s)
        if not flux_weighted:
            integrand = integrand / c
        return float(w @ integrand)

    n = 1
    prev = value(n)
    while n < _NORM_MAX_PANELS:
        n *= 2
        cur = value(n)
        if abs(cur - prev) <= 1e-12 * abs(cur):
            return cur
        prev = cur
    # Only reachable for the surface norm at small waist: its grazing-wave
    # tail carries weight exp(-k0^2 w0^2 / 2) and creeps logarithmically
    # with refinement; accept the capped value.
    return prev


def mode_norm(m: DetectionMode) -> float:
    """Single-beam surface norm F_det on the propagating disk in k-space.

    Parseval over k_x^2 + k_y^2 <= k0^2 with the transversality weight
    (2 - b^2)/(1 - b^2) reduces the surface integral of |E|^2 to one
    radial quadrature; the propagation phases are unimodular, so the
    result does not depend on the plane z = const chosen.
    """
    return np.pi / K0**2 * _radial_norm_integral(_waist(m), flux_weighted=False)


def mode_flux_norm(m: DetectionMode) -> float:
    """Photon-flux norm of the single beam: the surface integrand weighted
    by the obliquity factor k_z/k0 of each plane wave.

    This is the normalization under which the detector operator counts
    photons per unit time; it agrees with the surface norm to O((lambda/w0)^2)
    but has no grazing-wave singularity (the integrand is entire).
    """
    return np.pi / K0**2 * _radial_norm_integral(_waist(m), flux_weighted=True)


@dataclass(frozen=True)
class ModeSamples:
    """Detection-mode field sampled at the atoms plus the flux norm.

    values: (N_a, c) complex field components E_det(r_j), the first c of
    (x, y, z) that the model's dipoles keep: (N_a, 1) holds E^x for the
    two-level model, (N_a, 3) the full vector for the isotropic one.
    f_flux is the photon-flux norm entering efficiencies.
    """

    values: np.ndarray
    f_flux: float
    w0: float
    two_sided: bool

    @property
    def n_atoms(self) -> int:
        return len(self.values)

    def intensities(self) -> np.ndarray:
        """|E_j|^2 per atom, summed over the kept components."""
        return (np.abs(self.values) ** 2).sum(axis=1)


def sample_mode(m: DetectionMode, g: Geometry, model: str = TWO_LEVEL) -> ModeSamples:
    """Sample the +z beam at the atom positions, the model's c components."""
    c = _components(model)
    return ModeSamples(
        values=_field_vectors(m, g.positions, c),
        f_flux=mode_flux_norm(m),
        w0=m.w0,
        two_sided=m.two_sided,
    )


def samples_to_rows(g: Geometry, samples: ModeSamples) -> list:
    """CSV-ready rows (site, x, y, Re E, Im E) of the sampled E^x, the
    component the spin wave couples to."""
    values = samples.values[:, 0]
    return [
        {
            "site": int(g.site_indices[j]),
            "x": float(g.positions[j, 0]),
            "y": float(g.positions[j, 1]),
            "re_e": float(values[j].real),
            "im_e": float(values[j].imag),
        }
        for j in range(g.n_atoms)
    ]


@dataclass(frozen=True)
class ProjectionCheck:
    """Result of the dipole-overlap validation integral."""

    numeric: complex
    closed_form: complex
    discrepancy: float
    radius: float
    n_phi: int


def validate_projection(
    m: DetectionMode,
    dipole_position,
    dipole_orientation,
    plane_z: float,
    radius: float | None = None,
    rel_tol: float = 1e-6,
) -> ProjectionCheck:
    """Check the mode-projection identity against direct plane integration.

    For a single oscillating dipole, the flux-weighted overlap of its
    radiated field with the detection mode over a transverse plane on the
    propagating side collapses to a local sample of the mode:

        Int_{z = z_p} d^2r  W*(r) . G(r, r_d) . d  =  (i / 2 k0) E_det*(r_d) . d,

    where W is the mode with each plane-wave component weighted by k_z/k0
    (the obliquity factor cancels the 1/k_z of the Green's-function angular
    spectrum, which is what makes the right-hand side local). This is the
    identity behind the sampled-field detector operator. Returns the
    relative discrepancy between the two sides, relative to the closed
    form with the focus amplitude |E_det(0)| / 2k0 as a floor, so the
    zero-overlap case remains meaningful. The floor is an amplitude of the
    beam, not of the dipole: the mode amplitude at the dipole falls like
    exp(-rho^2 / w0^2) off axis, while the plane integrand stays of the
    focus size, so a floor taken at the dipole would ask the quadrature
    for less than the roundoff of its own sum. The same floor sets the
    convergence threshold rel_tol * max(|closed form|, floor) between
    successive quadrature levels.
    """
    r_d = np.asarray(dipole_position, dtype=float)
    dvec = np.asarray(dipole_orientation, dtype=float)
    if abs(np.linalg.norm(dvec) - 1.0) > 1e-9:
        raise InvalidArgumentError("dipole orientation must be a unit vector")
    if plane_z <= r_d[2]:
        raise InvalidArgumentError(
            "integration plane must lie beyond the dipole on the +z side"
        )
    if radius is None:
        radius = 40.0 * _waist(m)
    tol = m.quadrature_tolerance

    closed = (0.5j / K0) * np.vdot(detection_field(m, r_d), dvec)
    scale = np.linalg.norm(detection_field(m, np.zeros(3))) / (2.0 * K0)
    threshold = rel_tol * max(abs(closed), scale)

    def level_value(order, n_phi):
        x, w = np.polynomial.legendre.leggauss(order)
        n_panels = int(np.ceil(radius / 0.5))
        edges = np.linspace(0.0, radius, n_panels + 1)
        mid = (edges[1:] + edges[:-1]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        rho = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        w_rho = (half[:, None] * w[None, :]).ravel()
        ex, gz = _field_components(m.w0, rho, [plane_z], tol, flux_weight=True)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        w_phi = 2.0 * np.pi / n_phi
        total = 0.0 + 0.0j
        chunk = max(1, int(2e6 / max(len(rho), 1)))
        for lo in range(0, n_phi, chunk):
            ph = phi[lo : lo + chunk]
            cos_p = np.cos(ph)
            sin_p = np.sin(ph)
            pts = np.empty((len(rho), len(ph), 3))
            pts[:, :, 0] = rho[:, None] * cos_p[None, :]
            pts[:, :, 1] = rho[:, None] * sin_p[None, :]
            pts[:, :, 2] = plane_z
            flat = pts.reshape(-1, 3)
            dr = flat - r_d[None, :]
            dist = np.linalg.norm(dr, axis=1)
            f_t, f_l = _scalar_parts(dist)
            rhat = dr / dist[:, None]
            gd = f_t[:, None] * dvec[None, :] + (f_l * (rhat @ dvec))[:, None] * rhat
            gd = gd.reshape(len(rho), len(ph), 3)
            e_x = ex[:, None]
            e_z = -1j * cos_p[None, :] * gz[:, None]
            integrand = e_x.conj() * gd[:, :, 0] + e_z.conj() * gd[:, :, 2]
            total += np.sum((w_rho * rho)[:, None] * integrand) * w_phi
        return total

    levels = ((8, 64), (16, 128), (32, 256), (64, 512))
    prev = None
    err = np.inf
    for order, n_phi in levels:
        cur = level_value(order, n_phi)
        if prev is not None:
            err = abs(cur - prev)
            if err <= threshold:
                break
        prev = cur
    else:
        raise NumericalError(
            f"projection integral did not converge below {threshold:.3g} "
            f"(radius {radius:g})",
            achieved=err,
        )
    discrepancy = abs(cur - closed) / max(abs(closed), scale)
    return ProjectionCheck(
        numeric=complex(cur),
        closed_form=complex(closed),
        discrepancy=float(discrepancy),
        radius=float(radius),
        n_phi=n_phi,
    )
