"""Thread counts of the OpenBLAS libraries loaded into this process.

numpy and scipy wheels each bundle their own OpenBLAS: numpy's (ILP64, in
``numpy.libs``) runs the matrix products, scipy's (in ``scipy.libs``) runs
LAPACK's ``zgeev`` behind ``scipy.linalg.eig``. Each starts one thread per
core, and while one library works the other's helper threads spin-wait,
so the two contend for the cores even in a serial program. Importing
``arraymem`` sets numpy's library to one thread, once, for the whole
process: every entry point (the CLI, a library import, a pool worker that
unpickles its task) solves with that setting. scipy's library is left
alone: its thread count changes zgeev's eigenvectors, and with them the
efficiencies, in the last digits.

Libraries are found through ``/proc/self/maps``. Where that file, a
library or its thread-control symbols are missing, the functions here do
nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy


def _loaded_paths() -> list:
    """Paths of the OpenBLAS shared libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    return sorted(
        {
            f[5].strip()
            for f in fields
            if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()
        }
    )


@functools.lru_cache(maxsize=None)
def _controls(path: str):
    """(get, set) thread-count functions of one library, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _numpy_controls():
    package = os.path.dirname(numpy.__file__)
    libs = os.path.realpath(os.path.join(package, os.pardir, "numpy.libs"))
    for path in _loaded_paths():
        if os.path.dirname(os.path.realpath(path)) == libs:
            return _controls(path)
    return None


def set_numpy_threads() -> None:
    """Run numpy's OpenBLAS on one thread, where it can be found."""
    controls = _numpy_controls()
    if controls:
        controls[1](1)


def max_threads() -> int:
    """Largest thread count among the loaded OpenBLAS libraries (1 if none is readable)."""
    counts = [c[0]() for c in map(_controls, _loaded_paths()) if c]
    return max(counts, default=1)
