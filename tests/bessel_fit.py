"""Fit the Chebyshev coefficients of modes.j0 and modes.j1 with scipy.

Run from the repository root; prints the tables that modes.py commits:

    python3 tests/bessel_fit.py

For x <= 8 each function is a Chebyshev series in y = 2 (x/8)^2 - 1 (J1
divided by x/8 first). Above 8, with u = 8/x and y = 2 u^2 - 1, each is
sqrt(2/(pi x)) m(u) cos(x - (2 nu + 1) pi/4 + u p(u)), and the modulus m and
the phase correction p are Chebyshev series in y, read from scipy's
exponentially scaled Hankel function H_nu(x) exp(-i x), which carries the
phase without reducing x. Each series is a least-squares fit at 400
Chebyshev points; the degrees stop where scipy's roundoff takes over the
coefficients.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev
from scipy import special

NEAR_DEGREE = 16
FAR_DEGREE = 11
POINTS = 400


def fit(f, degree):
    y = np.cos(np.pi * (np.arange(POINTS) + 0.5) / POINTS)
    return chebyshev.chebfit(y, f(y), degree)


def near(nu):
    def f(y):
        x = 8.0 * np.sqrt((y + 1.0) / 2.0)
        return special.j0(x) if nu == 0 else special.j1(x) / (x / 8.0)

    return fit(f, NEAR_DEGREE)


def far(nu):
    def hankel(y):
        u = np.sqrt((y + 1.0) / 2.0)
        x = 8.0 / u
        h = special.hankel1e(nu, x)
        return u, x, h

    def modulus(y):
        _, x, h = hankel(y)
        return np.abs(h) * np.sqrt(np.pi * x / 2.0)

    def phase(y):
        u, _, h = hankel(y)
        return (np.angle(h) + (2 * nu + 1) * np.pi / 4.0) / u

    return fit(modulus, FAR_DEGREE), fit(phase, FAR_DEGREE)


def table(name, coefficients):
    rows = ",\n".join(f"    {float(c)!r}" for c in coefficients)
    return f"{name} = (\n{rows},\n)"


def main():
    for nu in (0, 1):
        modulus, phase = far(nu)
        print(table(f"_J{nu}_NEAR", near(nu)))
        print(table(f"_J{nu}_MODULUS", modulus))
        print(table(f"_J{nu}_PHASE", phase))


if __name__ == "__main__":
    main()
