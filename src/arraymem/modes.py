"""Exact evanescent-free Gaussian-like detection mode, sampled in its focal plane.

The beam is defined in wavevector space by a Gaussian amplitude on the
propagating disk,

    E_x(k_x, k_y) ~ exp(-(k_x^2 + k_y^2) w0^2 / 4),   k_x^2 + k_y^2 <= k0^2,

with E_y = 0 and E_z fixed by transversality. The atoms sit in the focal
plane z = 0, where the beam reaches their dipoles through E^x alone
(greens.COMPONENTS). There the Fourier transform is one real
Bessel-kernel integral over b = k_t/k0 in [0, 1]:

    E^x(rho) = Int db b exp(-b^2 k0^2 w0^2/4) J0(b k0 rho),

evaluated with the substitution b = sin(theta) and Gauss-Legendre
quadrature with node doubling until successive levels agree to
QUADRATURE_TOL. J0 is this module's own (_j0): a committed Chebyshev
series, within 1e-14 of scipy.special.j0 on [0, 500]. The norms
integrate |E|^2, E_z included, over the propagating disk in k-space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import InvalidArgumentError, NumericalError
from .geometry import Geometry
from .greens import K0

_PANEL_ORDER = 32
_MAX_PANELS = 1 << 10
_NORM_MAX_PANELS = 1 << 8
_FIELD_CHUNK = 512
QUADRATURE_TOL = 1e-10  # largest change of a field value between the last two levels

_base_x, _base_w = np.polynomial.legendre.leggauss(_PANEL_ORDER)

# Chebyshev coefficients of J0, fitted to scipy.special once by
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


def _j0(x):
    """J0 at every x >= 0: a series in (x/8)^2 up to 8, modulus and phase
    series in 8/x beyond."""
    x = np.asarray(x, dtype=float)
    j0 = np.empty_like(x)
    small = x <= 8.0
    t = x[small] / 8.0
    j0[small] = chebval(2.0 * t * t - 1.0, _J0_NEAR)
    big = x[~small]
    u = 8.0 / big
    y = 2.0 * u * u - 1.0
    shift = u * chebval(y, _J0_PHASE) - np.pi / 4.0
    j0[~small] = np.sqrt(2.0 / (np.pi * big)) * chebval(y, _J0_MODULUS) * np.cos(big + shift)
    return j0


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


def _field_block(w0, rho, tables):
    """Adaptive evaluation of E^x in the focal plane on a batch of radii.

    The J0 tables of each panel count, which do not depend on the waist,
    are kept in tables.
    """
    a = (K0 * w0) ** 2 / 4.0
    n = _start_panels(K0 * np.max(rho) if len(rho) else 0.0)
    prev = None
    err = np.inf
    while n <= _MAX_PANELS:
        theta, w = _gl_rule(n)
        s = np.sin(theta)
        weight = w * s * np.exp(-a * s * s)
        if n not in tables:
            tables[n] = _j0(K0 * np.outer(s, rho))
        ex = (weight * np.cos(theta)) @ tables[n]
        if prev is not None:
            err = np.max(np.abs(ex - prev), initial=0.0)
            if err <= QUADRATURE_TOL:
                return ex
        prev = ex
        n *= 2
    raise NumericalError(
        f"field quadrature did not converge below {QUADRATURE_TOL:g} "
        f"with {_MAX_PANELS * _PANEL_ORDER} nodes",
        achieved=err,
    )


# The last radii sampled, their distinct values, inverse and J0 tables by
# chunk and panel count: a waist search samples one geometry at every waist.
_last_points: tuple = ()


def _field_x(w0, rho):
    """Chunked wrapper around _field_block, run once per distinct radius,
    which a centred lattice repeats up to eight times."""
    global _last_points
    rho = np.asarray(rho, dtype=float)
    if not (_last_points and np.array_equal(_last_points[0], rho)):
        points, inverse = np.unique(rho, return_inverse=True)
        _last_points = (rho.copy(), points, inverse.reshape(-1), {})
    _, points, inverse, tables = _last_points
    ex = np.empty(len(points))
    for lo in range(0, len(points), _FIELD_CHUNK):
        sl = slice(lo, lo + _FIELD_CHUNK)
        ex[sl] = _field_block(w0, points[sl], tables.setdefault(lo, {}))
    return ex[inverse]


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


@functools.lru_cache(maxsize=256)
def _radial_norm_integral(w0: float, flux: bool) -> float:
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
        if not flux:
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
    if cur <= 0.0 or (flux and not converged):
        kind = "flux" if flux else "surface"
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
    return np.pi / K0**2 * _radial_norm_integral(_waist(m), flux=False)


def mode_flux_norm(m: DetectionMode) -> float:
    """Photon-flux norm of the single beam: the surface integrand weighted
    by the obliquity factor k_z/k0 of each plane wave.

    This is the normalization under which the detector operator counts
    photons per unit time; it agrees with the surface norm to O((lambda/w0)^2)
    but has no grazing-wave singularity (the integrand is entire).
    """
    return np.pi / K0**2 * _radial_norm_integral(_waist(m), flux=True)


@dataclass(frozen=True)
class ModeSamples:
    """Detection-mode field sampled at the atoms plus the flux norm.

    values: (N_a,) E^x(r_j) of the +z beam at each atom, real in the focal
    plane; it is all of the beam that either model's dipoles see
    (greens.COMPONENTS). f_flux is the photon-flux norm entering
    efficiencies.
    """

    values: np.ndarray
    f_flux: float
    w0: float
    two_sided: bool

    @property
    def n_atoms(self) -> int:
        return len(self.values)


def sample_mode(m: DetectionMode, g: Geometry) -> ModeSamples:
    """Sample E^x of the +z beam at the atom positions."""
    return ModeSamples(
        values=_field_x(_waist(m), np.hypot(g.positions[:, 0], g.positions[:, 1])),
        f_flux=mode_flux_norm(m),
        w0=m.w0,
        two_sided=m.two_sided,
    )
