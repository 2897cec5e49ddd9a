"""Study drivers: waist scans, error-model fits, disorder Monte Carlo.

Reproduces the quantitative behavior of finite square arrays: the two-term
error model

    eps(N, d, w0) ~ C(d) (lambda/w0)^4 + 1 - Erf^2(N d / sqrt(2) w0),

the optimal-waist scaling eps_opt ~ (log N_a)^2 / (4 N_a^2), the hole
(defect) regression, the sigma^2 position-disorder law, and the two-level
vs isotropic comparison. Every Monte Carlo result is reproducible from
(config, seed); outputs are plain CSV tables plus JSON summaries.

A result holds only what its study computed: the table's rows, the fits
drawn from them and, for the Monte Carlo studies, the waist the beam was
solved at. The inputs are the caller's to record; the command line
writes them once, as each summary's config.

Each driver takes what it studies: one DetectionMode for the beam, whose
w0 the waist searches replace, and the geometry itself (scan_waist,
optimal_waist) or the (N, d) of the perfect lattice that a Monte Carlo
study perturbs. A beam without a waist (w0=None) is solved at its best
waist, by solve, for every caller alike. The drivers solve any size they
are given; the desk-scale cap on N belongs to the command line.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from .errors import FitWindowError, InvalidArgumentError, NumericalError
from .geometry import apply_position_disorder, build_square_array, remove_holes
from .greens import ISOTROPIC, TWO_LEVEL, InteractionMatrix, sector_basis
from .modes import DetectionMode, sample_mode
from .retrieval import EfficiencyMatrix, efficiency_of_spin_wave, k_matrix
from .spectral import eigendecompose

DEFAULT_C_SEED = 2.4e-3
DEFAULT_SEED = 12345
W0_TOL = 1e-3  # width of the golden-section bracket at which the waist search stops


@dataclass
class FitResult:
    """Least-squares slope through the origin; window names the points
    fitted when the fit chose them from a larger table."""

    slope: float
    stderr: float
    residual_norm: float
    window: dict | None = None


_erf = np.vectorize(math.erf, otypes=[float])


def clipping_error(n: int, d: float, w0) -> np.ndarray:
    """Fraction of the beam's energy beyond the array boundary."""
    return 1.0 - _erf(n * d / (np.sqrt(2.0) * np.asarray(w0, dtype=float))) ** 2


def model_error(n: int, d: float, w0, c: float = DEFAULT_C_SEED) -> np.ndarray:
    """Two-term error model with fit constant c."""
    w0 = np.asarray(w0, dtype=float)
    return c / w0**4 + clipping_error(n, d, w0)


def _eigensystem(g, model: str = TWO_LEVEL):
    """The eigensystem of g's interaction matrix: in the mirror sector of
    the beam for a perfect lattice, in the whole space for any other
    geometry (greens.sector_basis). Every waist of g shares it."""
    return eigendecompose(InteractionMatrix(g, model, sector_basis(g, model)))


def solve(g, mode: DetectionMode, model: str = TWO_LEVEL) -> EfficiencyMatrix:
    """The efficiency matrix of one geometry and detection mode, whose
    eta = p lambda_max(K) is computed on first use.

    A beam without a waist is solved at its best waist: the result is
    optimal_waist(g, mode, model).result, whose samples record the waist.
    """
    if mode.w0 is None:
        return optimal_waist(g, mode, model).result
    return k_matrix(_eigensystem(g, model), sample_mode(mode, g))


def scan_waist(g, mode: DetectionMode, w0_list, model: str = TWO_LEVEL) -> list:
    """Minimum retrieval error of geometry g for each waist of the beam
    mode: one row per waist, with the clipping term the fit subtracts."""
    w0_list = [float(w) for w in w0_list]
    if not all(0 < w < np.inf for w in w0_list) or any(
        b <= a for a, b in zip(w0_list, w0_list[1:])
    ):
        raise InvalidArgumentError("w0_list must be finite, positive and strictly increasing")
    n, d = g.linear_size, g.lattice_constant
    dec = _eigensystem(g, model)
    rows = []
    for w0 in w0_list:
        sol = k_matrix(dec, sample_mode(replace(mode, w0=w0), g)).solution
        eps = 1.0 - sol.eta_max
        if not -1e-9 <= eps <= 1.0 + 1e-9:  # a solve that broke the bound, not an input
            raise NumericalError(f"error {eps!r} outside [0, 1]", achieved=max(-eps, eps - 1.0))
        rows.append(
            {
                "w0": w0,
                "eta": sol.eta_max,
                "epsilon": eps,
                "clip_term": float(clipping_error(n, d, w0)),
                "spectral_gap": sol.diagnostics["spectral_gap"],
            }
        )
    return rows


def _fit_through_origin(x, y, window: dict | None = None) -> FitResult:
    """Least-squares slope of y = slope * x, with its standard error."""
    sxx = np.sum(x * x)
    slope = float(np.sum(x * y) / sxx)
    resid = y - slope * x
    stderr = float(np.sqrt(np.sum(resid**2) / max(len(x) - 1, 1) / sxx))
    return FitResult(
        slope=slope, stderr=stderr, residual_norm=float(np.linalg.norm(resid)), window=window
    )


def fit_error_model(rows) -> FitResult:
    """Least-squares C (the slope) with the exponent pinned at 4, from the
    w0, epsilon and clip_term columns of scan_waist's rows.

    Only points where the clipping term stays below 10% of the measured
    error enter the fit; the window is recorded explicitly.
    """
    w0, eps, clip = (
        np.array([row[key] for row in rows], dtype=float) for key in ("w0", "epsilon", "clip_term")
    )
    mask = clip < 0.1 * eps
    if not np.any(mask):
        raise FitWindowError("no scan points with clipping below 10% of the error")
    window = {"criterion": "clip < 0.1*eps", "w0_used": [float(v) for v in w0[mask]]}
    return _fit_through_origin(1.0 / w0[mask] ** 4, eps[mask] - clip[mask], window)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x; FitWindowError unless
    there are two points or more and every value is positive."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 2 or np.any(x <= 0) or np.any(y <= 0):
        raise FitWindowError("a log-log slope needs two or more positive points")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass
class OptimalWaist:
    """The best configuration the waist search solved, and how it got there."""

    result: EfficiencyMatrix = field(repr=False)
    n_evaluations: int
    bracket_fallback: bool

    @property
    def w0(self) -> float:
        return self.result.samples.w0

    @property
    def eta(self) -> float:
        return self.result.eta

    @property
    def epsilon(self) -> float:
        return 1.0 - self.eta


def _model_seed_waist(n: int, d: float) -> float:
    """Analytic-model minimizer used to seed the bracketed search."""
    grid = np.geomspace(0.25, max(1.5 * n * d, 1.0), 300)
    return float(grid[np.argmin(model_error(n, d, grid))])


def optimal_waist(g, mode: DetectionMode, model: str = TWO_LEVEL) -> OptimalWaist:
    """Golden-section minimization of eps(w0) over the waist of the beam
    mode on geometry g, seeded by the error model of g's parent lattice.
    A beam too wide to resolve scores eps = 1; no resolved waist fails."""
    if g.linear_size < 2:
        raise InvalidArgumentError("waist optimization needs N >= 2")
    dec = _eigensystem(g, model)
    evaluations = {}
    best = None  # only the running best keeps its K

    def eps_of(w0):
        nonlocal best
        w0 = round(float(w0), 12)
        if w0 not in evaluations:
            try:
                samples = sample_mode(replace(mode, w0=w0), g)
            except NumericalError:  # a beam too wide to resolve
                evaluations[w0] = 1.0
                return 1.0
            res = k_matrix(dec, samples)
            evaluations[w0] = 1.0 - res.eta
            if best is None or evaluations[w0] < 1.0 - best.eta:
                best = res
        return evaluations[w0]

    seed = _model_seed_waist(g.linear_size, g.lattice_constant)
    fallback = False
    a, b = seed / 1.4, seed * 1.4
    fa, fm, fb = eps_of(a), eps_of(seed), eps_of(b)
    grow = 0
    while not (fm < fa and fm < fb) and grow < 12:
        if fa <= fm:
            a /= 1.4
            fa = eps_of(a)
        if fb <= fm:
            b *= 1.4
            fb = eps_of(b)
        mid = np.sqrt(a * b)
        fm = eps_of(mid)
        grow += 1
    if not (fm < fa and fm < fb):
        # no clean bracket: fall back to a fine grid scan
        fallback = True
        for w in np.geomspace(a, b, 80):
            eps_of(w)
    else:
        # golden-section contraction of [a, b]
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        lo, hi = a, b
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1, f2 = eps_of(x1), eps_of(x2)
        while hi - lo > W0_TOL:
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = eps_of(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = eps_of(x2)
    if best is None:
        raise NumericalError(f"no waist searched on [{a:g}, {b:g}] could be resolved")
    return OptimalWaist(
        result=best, n_evaluations=len(evaluations), bracket_fallback=fallback
    )


# ---------------------------------------------------------------------------
# Monte Carlo studies. Randomness is drawn up front in the driving process,
# so parallel and serial runs produce identical tables.
# ---------------------------------------------------------------------------


def default_workers() -> int:
    """Worker processes that fit on the usable cores.

    Each process keeps as many cores busy as its eigensolve has threads,
    so the usable cores are divided by blas.EIG_THREADS, the count numpy's
    OpenBLAS picked before arraymem set it to one: serial when the
    eigensolve already uses every core, one worker per core when the
    library was started with one thread (OPENBLAS_NUM_THREADS=1).
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // blas.EIG_THREADS)


def _check_study_size(axis: list, n_samples: int, name: str) -> None:
    """Refuse a study without configurations: its fit or means would be NaN."""
    if not axis:
        raise InvalidArgumentError(f"{name} must not be empty")
    if n_samples < 1:
        raise InvalidArgumentError(f"n_samples must be positive, got {n_samples!r}")


def _run_tasks(fn, tasks, workers):
    """Map fn over tasks, in this process or in a pool of worker processes.

    Tasks run numpy's BLAS on one thread outside the eigensolve either
    way: importing arraymem sets it (arraymem.blas), a forked worker
    inherits it, and a spawned or forkserver worker imports arraymem to
    unpickle its task. The pool is imported only here: a serial run, and
    the CLI's start-up, load no multiprocessing module.
    """
    if workers <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 4))
        return list(pool.map(fn, tasks, chunksize=chunk))


def _samples_at(samples, g):
    """The perfect lattice's samples at the sites g keeps.

    Atoms that stay put see the same field, so slicing replaces the
    Bessel quadrature of a fresh sample_mode.
    """
    return replace(samples, values=samples.values[g.site_indices])


def _hole_task(args):
    n, d, holes, samples0 = args
    g = remove_holes(build_square_array(n, d), list(holes))
    return k_matrix(_eigensystem(g), _samples_at(samples0, g)).eta


@dataclass
class HoleStudy:
    rows: list
    alpha: FitResult  # rel_loss = alpha * intensity_fraction
    eta_perfect: float
    w0: float  # the beam's waist, on every lattice


def hole_study(
    n: int,
    d: float,
    mode: DetectionMode,
    hole_counts,
    n_samples: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> HoleStudy:
    """Random-hole Monte Carlo with per-configuration re-optimization.

    Regresses the relative efficiency loss against the fraction of the
    detection-mode intensity falling on the removed sites; the slope is
    the defect constant alpha. Every holed lattice sees the beam of the
    perfect one, at the perfect lattice's best waist when mode has none.
    """
    if not all(isinstance(h, (int, np.integer)) and not isinstance(h, bool) for h in hole_counts):
        raise InvalidArgumentError(f"hole counts must be integers, got {list(hole_counts)!r}")
    hole_counts = [int(h) for h in hole_counts]
    _check_study_size(hole_counts, n_samples, "hole_counts")
    if any(h < 1 or h > 0.2 * n * n for h in hole_counts):
        raise InvalidArgumentError("hole counts must stay within 20% of the sites")
    res0 = solve(build_square_array(n, d), mode)
    eta0, samples0 = res0.eta, res0.samples
    weights = samples0.values ** 2
    total_intensity = float(weights.sum())

    rng = np.random.default_rng(seed)
    draws = [
        (n_holes, k, tuple(sorted(int(v) for v in rng.choice(n * n, size=n_holes, replace=False))))
        for n_holes in hole_counts
        for k in range(n_samples)
    ]
    etas = _run_tasks(_hole_task, [(n, d, holes, samples0) for _, _, holes in draws], workers)
    rows = [
        {
            "n_holes": n_holes,
            "sample": k,
            "holes": " ".join(str(h) for h in holes),
            "intensity_fraction": float(weights[list(holes)].sum() / total_intensity),
            "eta_def": eta_def,
            "rel_loss": (eta0 - eta_def) / eta0,
        }
        for (n_holes, k, holes), eta_def in zip(draws, etas)
    ]
    x, y = (np.array([row[key] for row in rows]) for key in ("intensity_fraction", "rel_loss"))
    return HoleStudy(rows=rows, alpha=_fit_through_origin(x, y), eta_perfect=eta0, w0=samples0.w0)


def _disorder_task(args):
    n, d, mode, sigma, sub_seed, spin_wave = args
    g = apply_position_disorder(build_square_array(n, d), sigma, sub_seed)
    return efficiency_of_spin_wave(solve(g, mode), np.asarray(spin_wave))


@dataclass
class DisorderStudy:
    rows: list
    summary: list
    eta_perfect: float
    w0: float  # the beam's waist, on every configuration


def position_disorder_study(
    n: int,
    d: float,
    mode: DetectionMode,
    sigma_list,
    n_samples: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> DisorderStudy:
    """Mean efficiency loss under in-plane Gaussian position disorder.

    The spin wave and beam stay fixed at the perfect-lattice optimum for
    the beam mode, at the perfect lattice's best waist when mode has none
    (no re-optimization per configuration), so the result isolates the
    disorder penalty.
    """
    sigma_list = [float(s) for s in sigma_list]
    _check_study_size(sigma_list, n_samples, "sigma_list")
    if not all(0 < s < np.inf for s in sigma_list) or sorted(sigma_list) != sigma_list:
        raise InvalidArgumentError("sigma_list must be finite, positive and sorted")
    res0 = solve(build_square_array(n, d), mode)
    mode = replace(mode, w0=res0.samples.w0)
    eta0, spin = res0.eta, res0.solution.spin_wave

    rng = np.random.default_rng(seed)
    sub_seeds = rng.integers(0, 2**63 - 1, size=(len(sigma_list), n_samples))
    tasks = []
    for i, sigma in enumerate(sigma_list):
        for k in range(n_samples):
            tasks.append((n, d, mode, sigma, int(sub_seeds[i, k]), spin))
    etas = np.reshape(_run_tasks(_disorder_task, tasks, workers), (len(sigma_list), n_samples))
    rows = [
        {"sigma": sigma, "sample": k, "seed": int(sub_seeds[i, k]), "eta_dis": float(etas[i, k])}
        for i, sigma in enumerate(sigma_list)
        for k in range(n_samples)
    ]
    summary = [
        {
            "sigma": sigma,
            "eta_mean": float(vals.mean()),
            "eta_stderr": float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0,
            "loss_mean": float(eta0 - vals.mean()),
        }
        for sigma, vals in zip(sigma_list, etas)
    ]
    return DisorderStudy(rows=rows, summary=summary, eta_perfect=eta0, w0=mode.w0)


def isotropic_comparison(n_list, d: float, mode: DetectionMode) -> list:
    """Optimal error of the three-excited-state model vs the two-level one."""
    rows = []
    for n in n_list:
        g = build_square_array(n, d)
        tl, iso = (optimal_waist(g, mode, model) for model in (TWO_LEVEL, ISOTROPIC))
        rows.append(
            {
                "N": int(n),
                "eps_two_level": tl.epsilon,
                "eps_isotropic": iso.epsilon,
                "relative_increase": (iso.epsilon - tl.epsilon) / tl.epsilon,
                "w0_two_level": tl.w0,
                "w0_isotropic": iso.w0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Artifact output: CSV tables (deterministic bytes) + JSON summaries.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, rows) -> None:
    """Plain CSV with shortest round-trip float formatting.

    The header is the first row's keys, in order. Rows are written in a
    deterministic order and contain no timestamps, so identical
    (config, seed) runs produce identical bytes.
    """
    if not rows or any(list(row) != list(rows[0]) for row in rows):
        raise InvalidArgumentError("CSV rows must exist and share the first row's keys")
    header = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])


def write_summary(path, payload: dict) -> None:
    """Strict JSON (RFC 8259): every non-finite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _plain(obj):
    """obj with numpy arrays as lists, numpy scalars as Python values and
    non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def artifact_stem(study: str, n: int, d: float, timestamp: bool = True) -> str:
    stem = f"{study}_{n}_{d:g}"
    if timestamp:
        stem += time.strftime("_%Y%m%dT%H%M%S")
    return stem
