"""Thread count of numpy's OpenBLAS.

numpy's wheel bundles one OpenBLAS (ILP64, in ``numpy.libs``). It runs the
matrix products and LAPACK's ``zgeev`` behind ``numpy.linalg.eig``, and
starts with one thread per usable core (or ``OPENBLAS_NUM_THREADS``).
Importing this module records that count as EIG_THREADS and then sets the
library to one thread, once, for the whole process: every entry point (the
CLI, a library import, a pool worker that unpickles its task) solves with
that setting. Only the eigensolve runs at EIG_THREADS (eig_threads): its
thread count changes zgeev's eigenvectors, and with them the efficiencies,
in the last digits, so it stays at the count OpenBLAS itself picks.

The library is found through ``/proc/self/maps``. Where that file, the
library or its thread-control symbols are missing, EIG_THREADS is 1 and
the functions here do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
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
    """(get, set) of the OpenBLAS in numpy's wheel, or None."""
    package = os.path.dirname(numpy.__file__)
    libs = os.path.realpath(os.path.join(package, os.pardir, "numpy.libs"))
    for path in _loaded_paths():
        if os.path.dirname(os.path.realpath(path)) == libs:
            return _controls(path)
    return None


_CONTROLS = _numpy_controls()

# The thread count OpenBLAS picked for this process, read before the pin.
EIG_THREADS = _CONTROLS[0]() if _CONTROLS else 1


def _set_threads(n: int) -> None:
    if _CONTROLS:
        _CONTROLS[1](n)


_set_threads(1)


@contextlib.contextmanager
def eig_threads():
    """Run the enclosed eigensolve at EIG_THREADS, then go back to one thread."""
    _set_threads(EIG_THREADS)
    try:
        yield
    finally:
        _set_threads(1)
