"""Thread counts of the OpenBLAS libraries loaded into this process.

numpy and scipy wheels each bundle their own OpenBLAS: numpy's (ILP64, in
``numpy.libs``) runs the matrix products, scipy's (in ``scipy.libs``) runs
LAPACK's ``zgeev`` behind ``scipy.linalg.eig``. Each starts one thread per
core, and while one library works the other's helper threads spin-wait,
so the two contend for the cores even in a serial program. The Monte
Carlo drivers run numpy's library on one thread, which removes most of
that waste. scipy's library is left alone: its thread count changes
zgeev's eigenvectors, and with them the efficiencies, in the last digits.

Libraries are found through ``/proc/self/maps``. Where that file, a
library or its thread-control symbols are missing, the functions here do
nothing. ``ctypes`` is imported on first use, not at import.
"""

from __future__ import annotations

import contextlib
import functools
import os


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
    import ctypes

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
    import numpy

    package = os.path.dirname(numpy.__file__)
    libs = os.path.realpath(os.path.join(package, os.pardir, "numpy.libs"))
    for path in _loaded_paths():
        if os.path.dirname(os.path.realpath(path)) == libs:
            return _controls(path)
    return None


def numpy_threads() -> int | None:
    """Thread count of numpy's OpenBLAS, or None where it cannot be found."""
    controls = _numpy_controls()
    return controls[0]() if controls else None


def set_numpy_threads(n: int) -> None:
    """Set the thread count of numpy's OpenBLAS, where it can be found."""
    controls = _numpy_controls()
    if controls:
        controls[1](n)


def max_threads() -> int:
    """Largest thread count among the loaded OpenBLAS libraries (1 if none is readable)."""
    counts = [c[0]() for c in map(_controls, _loaded_paths()) if c]
    return max(counts, default=1)


@contextlib.contextmanager
def numpy_single_threaded():
    """Run numpy's OpenBLAS on one thread inside the block, then restore its count."""
    controls = _numpy_controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
