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
quadrature with node doubling until successive levels agree to
QUADRATURE_TOL. J0 and J1 are this module's own (j0, j1): committed
Chebyshev series, within 1e-14 of scipy.special's on [0, 500].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import InvalidArgumentError, NumericalError
from .geometry import Geometry
from .greens import TWO_LEVEL, K0, _components

_PANEL_ORDER = 32
_MAX_PANELS = 1 << 10
_NORM_MAX_PANELS = 1 << 8
_FIELD_CHUNK = 512
QUADRATURE_TOL = 1e-10  # largest change of a field value between the last two levels

_base_x, _base_w = np.polynomial.legendre.leggauss(_PANEL_ORDER)

# Chebyshev coefficients of J0 and J1, fitted to scipy.special once by
# tests/bessel_fit.py, whose docstring gives the two forms they enter.
_J0_NEAR = np.array((
    0.1577279714748901,
    -0.008723442352852159,
    0.26517861320333663,
    -0.37009499387265005,
    0.1580671023320972,
    -0.034893769411408926,
    0.004819180069467558,
    -0.00046062616620629434,
    3.246032882074454e-05,
    -1.761946907745173e-06,
    7.608163586715585e-08,
    -2.6792534397694803e-09,
    7.848677849313446e-11,
    -1.943780841506076e-12,
    4.1076477193913935e-14,
    -7.617592827404984e-16,
    -8.243138714826546e-17,
))
_J0_MODULUS = np.array((
    0.9995206260460309,
    -0.00047649307545687115,
    2.830408572909483e-06,
    -4.8825682197197364e-08,
    1.5627404282553708e-09,
    -7.602537574417608e-11,
    5.023904636820834e-12,
    -4.199083607837881e-13,
    4.2371095789318853e-14,
    -4.886188879059783e-15,
    7.31493859342432e-16,
    -6.791516782903383e-17,
))
_J0_PHASE = np.array((
    -0.015563613038830734,
    6.068787451222509e-05,
    -6.813979669795745e-07,
    1.6948341468833272e-08,
    -6.961426118565414e-10,
    4.0761389944540536e-11,
    -3.114934584693616e-12,
    2.9319788237851487e-13,
    -3.269274121139221e-14,
    4.225750797641977e-15,
    -6.375339701324522e-16,
    1.195355362003142e-16,
))
_J1_NEAR = np.array((
    0.648358770605265,
    -1.1918011605412173,
    1.2879940988576788,
    -0.6614439341345435,
    0.177709117239728,
    -0.029175524806153996,
    0.003240270182683694,
    -0.00026044438934893225,
    1.588701923946607e-05,
    -7.61758780465509e-07,
    2.9497069528190014e-08,
    -9.424211847507105e-10,
    2.5280168356857987e-11,
    -5.778258086962862e-13,
    1.0992708363489831e-14,
    2.7796880579602267e-17,
    -9.806867565664002e-16,
))
_J1_MODULUS = np.array((
    1.0014479976616393,
    0.0014425159303077869,
    -5.404894863390766e-06,
    7.459524732254167e-08,
    -2.136705019034168e-09,
    9.773680411224155e-11,
    -6.215089959116612e-12,
    5.062468195584895e-13,
    -4.997656387886724e-14,
    5.895424868191771e-15,
    -6.71851831904838e-16,
    1.5596612117213049e-16,
))
_J1_PHASE = np.array((
    0.04671872325224191,
    -0.00015500971430805805,
    1.2406555300276326e-06,
    -2.5379613395377062e-08,
    9.41995217928251e-10,
    -5.207703746030109e-11,
    3.83775342345926e-12,
    -3.523166249504251e-13,
    3.86105909246665e-14,
    -4.959864512722258e-15,
    8.040210714151453e-16,
    -1.9507258657764663e-16,
))


def _bessel(x, nu, near, modulus, phase):
    """J_nu at every x >= 0: a series in (x/8)^2 up to 8, modulus and phase
    series in 8/x beyond."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 8.0
    t = x[small] / 8.0
    out[small] = chebval(2.0 * t * t - 1.0, near) * (t if nu else 1.0)
    big = x[~small]
    u = 8.0 / big
    y = 2.0 * u * u - 1.0
    shift = u * chebval(y, phase) - (2 * nu + 1) * np.pi / 4.0
    out[~small] = np.sqrt(2.0 / (np.pi * big)) * chebval(y, modulus) * np.cos(big + shift)
    return out


def j0(x):
    """Bessel function J0 of x >= 0."""
    return _bessel(x, 0, _J0_NEAR, _J0_MODULUS, _J0_PHASE)


def j1(x):
    """Bessel function J1 of x >= 0."""
    return _bessel(x, 1, _J1_NEAR, _J1_MODULUS, _J1_PHASE)


@functools.lru_cache(maxsize=None)
def _gl_rule(n_panels: int):
    """Composite Gauss-Legendre rule on theta in [0, pi/2].

    Fixed 32-point rule per panel; refinement doubles the panel count, so
    node construction stays O(n) and oscillatory integrands are resolved
    panel by panel. Cached: the panel counts are powers of two up to
    _MAX_PANELS.
    """
    edges = np.linspace(0.0, np.pi / 2.0, n_panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    theta = (mid[:, None] + half[:, None] * _base_x[None, :]).ravel()
    weights = (half[:, None] * _base_w[None, :]).ravel()
    return theta, weights


def _start_panels(max_arg: float) -> int:
    """Initial panel count, scaled to the fastest oscillation present."""
    n = 1
    while n * _PANEL_ORDER < 0.75 * max_arg and n < _MAX_PANELS:
        n *= 2
    return n


def _field_block(w0, rho, z, flux_weight, tables):
    """Adaptive evaluation of (E^x, g) on a batch of (rho, z) points.

    g is the azimuth-free part of the z-component: E^z = -i (x/rho) g.
    With flux_weight the spectrum is multiplied by k_z/k0, producing the
    auxiliary field whose plane overlaps measure photon flux (the plane
    quadrature of tests/field_oracle.py). The Bessel tables of each panel
    count, which do not depend on the waist, are kept in tables.
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
        if n not in tables:
            phase = np.exp(1j * K0 * np.outer(c, z))
            bess_arg = K0 * np.outer(s, rho)
            tables[n] = (j0(bess_arg) * phase, j1(bess_arg) * phase)
        j0_phase, j1_phase = tables[n]
        ex = (weight * c) @ j0_phase
        g = (weight * s) @ j1_phase
        if prev is not None:
            err = max(
                np.max(np.abs(ex - prev[0]), initial=0.0),
                np.max(np.abs(g - prev[1]), initial=0.0),
            )
            if err <= QUADRATURE_TOL:
                return ex, g
        prev = (ex, g)
        n *= 2
    raise NumericalError(
        f"field quadrature did not converge below {QUADRATURE_TOL:g} "
        f"with {_MAX_PANELS * _PANEL_ORDER} nodes",
        achieved=err,
    )


# The last (rho, z) sampled, its distinct points, inverse and Bessel tables
# by chunk and panel count: a waist search samples one geometry at every waist.
_last_points: tuple = ()


def _field_components(w0, rho, z, flux_weight=False):
    """Chunked wrapper around _field_block, run once per distinct (rho, z).

    The fields depend on the point only through (rho, z), which a centred
    lattice repeats up to eight times.
    """
    global _last_points
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    last = _last_points
    if not (last and np.array_equal(last[0], rho) and np.array_equal(last[1], z)):
        points, inverse = np.unique(
            np.stack([rho, z], axis=1), axis=0, return_inverse=True
        )
        _last_points = (rho.copy(), z.copy(), points, inverse.reshape(-1), {})
    _, _, points, inverse, tables = _last_points
    ex = np.empty(len(points), dtype=complex)
    g = np.empty(len(points), dtype=complex)
    for lo in range(0, len(points), _FIELD_CHUNK):
        sl = slice(lo, lo + _FIELD_CHUNK)
        ex[sl], g[sl] = _field_block(
            w0, points[sl, 0], points[sl, 1], flux_weight, tables.setdefault(lo, {})
        )
    return ex[inverse], g[inverse]


@dataclass(frozen=True)
class DetectionMode:
    """Detection beam: its waist and its detected sides. Immutable: a
    beam at another waist is dataclasses.replace(mode, w0=...).

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

    def __post_init__(self):
        if self.w0 is not None and not 0 < self.w0 < np.inf:
            raise InvalidArgumentError(f"beam waist must be positive and finite, got {self.w0!r}")


def _waist(m: DetectionMode) -> float:
    """The beam's waist; a beam without one has no field to evaluate."""
    if m.w0 is None:
        raise InvalidArgumentError("a beam without a waist has no field; solve searches one")
    return m.w0


def _field_vectors(m: DetectionMode, pos: np.ndarray, c: int) -> np.ndarray:
    """The first c components of (E^x, 0, E^z) of the +z beam at each row
    of pos, one quadrature batch."""
    rho = np.hypot(pos[:, 0], pos[:, 1])
    ex, g = _field_components(_waist(m), rho, pos[:, 2])
    ez = np.zeros_like(ex)  # J1(0) = 0 on the axis
    off_axis = rho != 0.0
    ez[off_axis] = -1j * (pos[off_axis, 0] / rho[off_axis]) * g[off_axis]
    return np.stack((ex, np.zeros_like(ex), ez)[:c], axis=1)


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

    n, cur, converged = 1, value(1), False
    while n < _NORM_MAX_PANELS and not converged:
        n *= 2
        prev, cur = cur, value(n)
        converged = abs(cur - prev) <= 1e-12 * abs(cur)
    # The surface norm at small waist reaches the cap: its grazing-wave
    # tail carries weight exp(-k0^2 w0^2 / 2) and creeps logarithmically
    # with refinement; accept the capped value. The flux norm reaches it,
    # and either norm underflows to zero, only for a beam too wide to resolve.
    if cur <= 0.0 or (flux_weighted and not converged):
        kind = "flux" if flux_weighted else "surface"
        raise NumericalError(
            f"{kind} norm of a beam of waist {w0:g} not resolved ({cur:.3g} "
            f"with {n * _PANEL_ORDER} nodes): the beam is too wide",
            achieved=abs(cur - prev) / cur if cur > 0.0 else np.inf,
        )
    return cur


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

