"""Plane-integration oracle for the sampled-field identity, used by the tests only.

The package samples the detection mode's E^x in the array's plane and
reduces the light a dipole sends into the mode to that sample. This
module evaluates the beam on its own, with scipy's Bessel functions and
its own quadrature, at any z and with both of its components:
`plane_fields` on a set of radii, `detection_field` at one point.
`validate_projection` checks the sampled-field identity against a direct
quadrature of the overlap over a transverse plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from arraymem.errors import InvalidArgumentError, NumericalError
from arraymem.greens import K0, _scalar_parts

FIELD_TOL = 1e-13  # change between two quadrature levels, relative to the focus amplitude
_ORDER = 20  # Gauss-Legendre points per panel of theta
_CHUNK = 256  # radii per Bessel table


def plane_fields(w0: float, rho, z: float, flux_weight: bool = False):
    """(E^x, g) of the +z beam at radii rho in the plane z, E^z = -i (x/rho) g:

        E^x = Int db b exp(-b^2 k0^2 w0^2/4) exp(i k0 z sqrt(1-b^2)) J0(b k0 rho)
        g   = Int db b^2/sqrt(1-b^2) (same weights) J1(b k0 rho)

    over b = k_t/k0 in [0, 1]. With flux_weight each plane wave is weighted
    by k_z/k0 = sqrt(1 - b^2), which gives the auxiliary field whose plane
    overlaps count photon flux. b = sin(theta) on panels of theta, doubled
    until two levels agree to FIELD_TOL of the focus amplitude.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    a = (K0 * w0) ** 2 / 4.0
    scale = (1.0 - np.exp(-a)) / (2.0 * a)
    x, wx = np.polynomial.legendre.leggauss(_ORDER)
    n = 1 + int(K0 * (rho.max() + abs(z)) / _ORDER)
    prev = None
    while n <= 1 << 12:
        edges = np.linspace(0.0, np.pi / 2.0, n + 1)
        half = np.diff(edges) / 2.0
        theta = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
        w = (half[:, None] * wx).ravel()
        s, c = np.sin(theta), np.cos(theta)
        weight = w * np.exp(-a * s * s + 1j * K0 * z * c) * (c if flux_weight else 1.0)
        cur = np.empty((2, len(rho)), dtype=complex)
        for lo in range(0, len(rho), _CHUNK):
            arg = K0 * np.outer(s, rho[lo : lo + _CHUNK])
            cur[0, lo : lo + _CHUNK] = (weight * s * c) @ special.j0(arg)
            cur[1, lo : lo + _CHUNK] = (weight * s * s) @ special.j1(arg)
        if prev is not None and np.max(np.abs(cur - prev)) <= FIELD_TOL * scale:
            return cur[0], cur[1]
        prev = cur
        n *= 2
    raise NumericalError("oracle field quadrature did not converge", achieved=np.inf)


def detection_field(w0: float, r) -> np.ndarray:
    """Complex field vector (E^x, 0, E^z) of the +z beam at a point."""
    r = np.asarray(r, dtype=float)
    rho = np.hypot(r[0], r[1])
    ex, g = plane_fields(w0, rho, r[2])
    ez = -1j * (r[0] / rho) * g[0] if rho > 0.0 else 0.0  # J1(0) = 0 on the axis
    return np.array([ex[0], 0.0, ez])


@dataclass(frozen=True)
class ProjectionCheck:
    """Result of the dipole-overlap validation integral."""

    numeric: complex
    closed_form: complex
    discrepancy: float
    radius: float
    n_phi: int


def validate_projection(
    w0: float,
    sampled,
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
    identity behind the sampled-field detector operator. sampled is the
    field vector E_det(r_d) under test, whose closed form the plane integral
    is compared with. Returns the relative discrepancy between the two
    sides, relative to the closed form with the focus amplitude
    |E_det(0)| / 2k0 as a floor, so the zero-overlap case remains
    meaningful. The floor is an amplitude of the beam, not of the dipole:
    the mode amplitude at the dipole falls like exp(-rho^2 / w0^2) off
    axis, while the plane integrand stays of the focus size, so a floor
    taken at the dipole would ask the quadrature for less than the
    roundoff of its own sum. The same floor sets the convergence threshold
    rel_tol * max(|closed form|, floor) between successive quadrature
    levels.
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
        radius = 40.0 * w0

    closed = (0.5j / K0) * np.vdot(np.asarray(sampled, dtype=complex), dvec)
    scale = np.linalg.norm(detection_field(w0, np.zeros(3))) / (2.0 * K0)
    threshold = rel_tol * max(abs(closed), scale)

    def level_value(order, n_phi):
        x, w = np.polynomial.legendre.leggauss(order)
        n_panels = int(np.ceil(radius / 0.5))
        edges = np.linspace(0.0, radius, n_panels + 1)
        mid = (edges[1:] + edges[:-1]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        rho = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        w_rho = (half[:, None] * w[None, :]).ravel()
        ex, gz = plane_fields(w0, rho, plane_z, flux_weight=True)
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
