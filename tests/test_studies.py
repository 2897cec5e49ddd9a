import concurrent.futures
import functools
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from arraymem import (
    ISOTROPIC,
    TWO_LEVEL,
    DetectionMode,
    apply_position_disorder,
    build_square_array,
    eigendecompose,
    interaction_matrix,
    k_matrix,
    max_efficiency,
    remove_holes,
    sample_mode,
)
from arraymem.errors import FitWindowError, InvalidArgumentError, NumericalError
from arraymem.greens import COMPONENTS
from arraymem.retrieval import efficiency_of_spin_wave
from arraymem import blas, modes, retrieval, spectral, studies

BEAM = DetectionMode(w0=1.5)  # the waist searches replace its w0


def broken_bound(monkeypatch, eta):
    """Make every solve of studies report eta, whatever it solved."""
    solved = SimpleNamespace(solution=SimpleNamespace(eta_max=eta, diagnostics={"spectral_gap": 0.0}))
    monkeypatch.setattr(studies, "k_matrix", lambda dec, samples: solved)


def eta_at(geometry, w0):
    dec = eigendecompose(interaction_matrix(geometry))
    samples = sample_mode(DetectionMode(w0=w0), geometry)
    return max_efficiency(k_matrix(dec, samples))


def scan_rows(n, d, w0s, eps):
    """Scan rows as scan_waist writes them, for a given error curve."""
    return [
        {"w0": w0, "epsilon": e, "clip_term": float(studies.clipping_error(n, d, w0))}
        for w0, e in zip(w0s, eps)
    ]


def test_single_atom_error_grows_with_waist():
    rows = studies.scan_waist(build_square_array(1, 0.6), BEAM, [1.0, 1.5, 2.0, 3.0, 4.0])
    assert all(np.diff([row["epsilon"] for row in rows]) > 0)


def test_scan_waist_rejects_bad_axis(nothing_solved):
    # the axis is checked before anything is solved
    g = build_square_array(3, 0.6)
    bad = ([2.0, 1.0], [-1.0, 1.0], [2.0, 2.0, 2.0, 2.0], [1.0, np.nan], [1.0, np.inf])
    for w0_list in bad:
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            studies.scan_waist(g, BEAM, w0_list)


@pytest.mark.parametrize("eta", [1.5, -0.5])
def test_a_scan_error_outside_the_unit_interval_is_a_numerical_error(monkeypatch, eta):
    # a solve that breaks 0 <= eps <= 1 is a numerical failure, not a bad input
    broken_bound(monkeypatch, eta)
    with pytest.raises(NumericalError, match=r"outside \[0, 1\]") as info:
        studies.scan_waist(build_square_array(3, 0.6), BEAM, [1.0, 2.0])
    assert info.value.achieved == pytest.approx(0.5)


def test_synthetic_fit_recovers_constant():
    w0s = list(np.geomspace(1.2, 4.0, 12))
    true_c = 1.9e-3
    eps = studies.model_error(20, 0.6, np.array(w0s), c=true_c)
    fit = studies.fit_error_model(scan_rows(20, 0.6, w0s, eps))
    assert fit.slope == pytest.approx(true_c, abs=1e-6 * true_c)


def test_fit_window_excluding_crossover_fits_better():
    # inject a mismatch bump at the crossover: the windowed fit must beat
    # an all-points fit on the clipping-free points
    w0s = np.geomspace(1.0, 3.5, 14)
    n, d, true_c = 12, 0.6, 2.0e-3
    clip = studies.clipping_error(n, d, w0s)
    eps = true_c / w0s**4 + clip + 0.3 * np.sqrt((true_c / w0s**4) * clip)
    fit = studies.fit_error_model(scan_rows(n, d, w0s, eps))
    mask = clip < 0.1 * eps
    x_all = 1.0 / w0s**4
    y_all = eps - clip
    c_all = float(np.sum(x_all * y_all) / np.sum(x_all * x_all))
    resid_windowed = np.linalg.norm(y_all[mask] - fit.slope * x_all[mask])
    resid_allfit = np.linalg.norm(y_all[mask] - c_all * x_all[mask])
    assert resid_windowed < resid_allfit


@pytest.mark.parametrize("n, d", [(20, 0.6), (4, 0.6), (1, 1.0)])
def test_clipping_error_matches_scipy(n, d):
    # math.erf against scipy.special.erf on a dense waist grid of (0, 500];
    # largest error 5.6e-16
    w0 = np.linspace(0.0, 500.0, 500_001)[1:]
    want = 1.0 - special.erf(n * d / (np.sqrt(2.0) * w0)) ** 2
    assert np.max(np.abs(studies.clipping_error(n, d, w0) - want)) < 1e-15


def test_fit_requires_clipping_free_points():
    w0s = [5.0, 6.0, 8.0]
    eps = studies.clipping_error(4, 0.6, np.array(w0s)) * 1.05
    with pytest.raises(FitWindowError):
        studies.fit_error_model(scan_rows(4, 0.6, w0s, eps))


@pytest.mark.parametrize(
    "x, y", [([0.01], [1e-3]), ([1e-6, 2e-6], [-2.3e-7, -6.8e-8]), ([0.0, 1.0], [1.0, 2.0])],
    ids=["one-point", "negative-loss", "zero-x"],
)
def test_loglog_slope_needs_two_positive_points(x, y):
    with pytest.raises(FitWindowError):
        studies.loglog_slope(x, y)


def test_optimal_waist_four_by_four():
    opt = studies.optimal_waist(build_square_array(4, 0.6), BEAM)
    assert opt.epsilon < 0.01
    assert 0.5 < opt.w0 < 1.2
    assert not opt.bracket_fallback
    fresh = studies.solve(build_square_array(4, 0.6), DetectionMode(w0=opt.w0))
    assert opt.result.eta == fresh.eta == opt.eta
    with pytest.raises(InvalidArgumentError):
        studies.optimal_waist(build_square_array(1, 0.6), BEAM)


def test_optimal_waist_fallback_keeps_the_best_result(monkeypatch):
    # a seed far above the optimum leaves no bracket, so the grid scan runs
    monkeypatch.setattr(studies, "_model_seed_waist", lambda n, d: 1000.0)
    opt = studies.optimal_waist(build_square_array(3, 0.6), BEAM)
    assert opt.bracket_fallback
    fresh = studies.solve(build_square_array(3, 0.6), DetectionMode(w0=opt.w0))
    assert opt.eta == fresh.eta


def test_optimal_waist_fails_when_no_waist_resolves(monkeypatch):
    # every waist the search tries is too wide for the flux norm
    monkeypatch.setattr(studies, "_model_seed_waist", lambda n, d: 1e6)
    with pytest.raises(NumericalError, match="could be resolved"):
        studies.optimal_waist(build_square_array(3, 0.6), BEAM)


@pytest.mark.parametrize(
    "g, model",
    [
        (build_square_array(4, 0.6), TWO_LEVEL),
        (build_square_array(3, 0.6), ISOTROPIC),
        (remove_holes(build_square_array(4, 0.6), [0, 5]), TWO_LEVEL),
    ],
    ids=["perfect-4x4", "isotropic-3x3", "holes-4x4"],
)
def test_a_beam_without_a_waist_is_solved_at_its_best_waist(g, model):
    beam = DetectionMode(w0=None)
    res, opt = studies.solve(g, beam, model), studies.optimal_waist(g, beam, model).result
    assert res.eta == opt.eta
    assert res.samples.w0 == opt.samples.w0


@pytest.mark.parametrize(
    "g, model, sliced, sector",
    [
        (build_square_array(4, 0.6), TWO_LEVEL, False, True),
        (remove_holes(build_square_array(4, 0.6), [0, 5]), TWO_LEVEL, True, False),
        (apply_position_disorder(build_square_array(4, 0.6), 0.03, 99), TWO_LEVEL, False, False),
        (build_square_array(3, 0.6), ISOTROPIC, False, True),
    ],
    ids=["perfect-4x4", "holes-4x4", "disordered-4x4", "isotropic-3x3"],
)
def test_solve_matches_hand_chain(g, model, sliced, sector):
    mode = DetectionMode(w0=1.2)
    if sliced:  # the path a hole study runs: the perfect lattice's beam, sliced
        samples0 = sample_mode(mode, build_square_array(4, 0.6))
        samples = studies._samples_at(samples0, g)
        res = k_matrix(studies._eigensystem(g), samples)
        assert studies._hole_task((4, 0.6, (0, 5), samples0)) == res.eta
    else:
        samples = sample_mode(mode, g)
        res = studies.solve(g, mode, model)
    mat = k_matrix(eigendecompose(interaction_matrix(g, model)), samples)
    sol = max_efficiency(mat)
    # a perfect lattice is solved in its mirror sector, another algorithm
    # for the same K = Q_x K_r Q_x^T; holes and disorder in the whole
    # space, Q_x = I, which is the dense chain itself
    assert (res.dec.basis.columns < COMPONENTS[model] * g.n_atoms) == sector
    eta_tol, spin_tol = (1e-12, 1e-9) if sector else (0.0, 0.0)
    q_x = res.dec.basis.q_x
    assert abs(res.eta - sol.eta_max) <= eta_tol
    assert np.max(np.abs(q_x @ res.k @ q_x.T - mat.k)) <= eta_tol
    assert np.max(np.abs(res.solution.spin_wave - sol.spin_wave)) <= spin_tol


def test_disorder_task_skips_the_top_eigenpair(monkeypatch):
    spin = np.full(16, 0.25, dtype=complex)
    args = (4, 0.6, DetectionMode(w0=1.2), 0.02, 7, spin)
    expected = studies._disorder_task(args)

    def unused(_mat):
        raise AssertionError("the top eigenpair was computed")

    monkeypatch.setattr(retrieval, "max_efficiency", unused)
    assert studies._disorder_task(args) == expected


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's first
    argument."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_a_waist_search_forms_the_waist_free_parts_once(monkeypatch):
    # the pair kernel belongs to the eigensystem, the Bessel tables to the
    # geometry; a waist evaluation forms neither again, nor K itself
    monkeypatch.setattr(modes, "_last_points", ())
    kernels = counting(monkeypatch, spectral, "_pair_kernel")
    tables = counting(monkeypatch, modes, "_j0")
    opt = studies.optimal_waist(build_square_array(6, 0.6), BEAM)
    assert opt.n_evaluations > 10
    assert len(kernels) == 1
    panels = [arg.shape[0] // modes._PANEL_ORDER for arg in tables]
    assert panels and len(panels) == len(set(panels))
    assert "k" not in opt.result.__dict__


def test_a_disorder_task_never_forms_k(monkeypatch):
    solved = counting(monkeypatch, studies, "efficiency_of_spin_wave")
    studies._disorder_task((4, 0.6, DetectionMode(w0=1.2), 0.02, 7, np.full(16, 0.25)))
    assert len(solved) == 1 and "k" not in solved[0].__dict__


def test_samples_do_not_depend_on_the_bessel_table_memo(monkeypatch):
    g = build_square_array(7, 0.6)
    mode = DetectionMode(w0=1.3)
    monkeypatch.setattr(modes, "_last_points", ())
    cold = sample_mode(mode, g).values
    for w0 in (0.4, 3.0, 1.1):  # fill tables at other panel counts
        sample_mode(DetectionMode(w0=w0), g)
    assert np.array_equal(sample_mode(mode, g).values, cold)
    monkeypatch.setattr(modes, "_last_points", ())
    assert np.array_equal(sample_mode(mode, g).values, cold)


def test_scan_is_unimodal_around_optimum():
    rows = studies.scan_waist(build_square_array(4, 0.6), BEAM, list(np.geomspace(0.5, 2.0, 9)))
    eps = [row["epsilon"] for row in rows]
    assert sum(eps[i] < min(eps[i - 1], eps[i + 1]) for i in range(1, len(eps) - 1)) <= 1


def test_zero_holes_loss_is_exactly_zero():
    g = build_square_array(6, 0.6)
    eta0 = eta_at(g, 1.2).eta_max
    eta_same = eta_at(remove_holes(g, []), 1.2).eta_max
    assert eta_same == eta0


def test_center_hole_hurts_more_than_corner():
    g = build_square_array(10, 0.6)
    eta0 = eta_at(g, 1.5).eta_max
    eta_corner = eta_at(remove_holes(g, [0]), 1.5).eta_max
    eta_center = eta_at(remove_holes(g, [44]), 1.5).eta_max
    assert eta_center < eta_corner < eta0


def test_hole_study_regression_behaviour():
    hs = studies.hole_study(6, 0.6, DetectionMode(w0=1.0), [1, 3, 5], 6, seed=3)
    assert len(hs.rows) == 18
    for row in hs.rows:
        assert row["eta_def"] <= hs.eta_perfect + 1e-10
        assert row["rel_loss"] >= -1e-10
    assert 0.5 < hs.alpha.slope < 2.0


def test_hole_study_rejects_too_many_holes():
    with pytest.raises(InvalidArgumentError):
        studies.hole_study(4, 0.6, DetectionMode(w0=1.0), [4], 2)  # > 20% of 16 sites


@pytest.mark.parametrize("count", [1.9, np.nan, True])
def test_hole_study_refuses_a_count_that_is_not_an_integer(nothing_solved, count):
    # 1.9 ran as one hole, nan raised a bare ValueError and True ran one hole
    with pytest.raises(InvalidArgumentError, match="integers"):
        studies.hole_study(4, 0.6, DetectionMode(w0=1.0), [count], 2)


@pytest.mark.parametrize(
    "study, axis, n_samples",
    [
        (studies.hole_study, [1], 0),
        (studies.hole_study, [], 2),
        (studies.position_disorder_study, [0.01], 0),
        (studies.position_disorder_study, [], 2),
    ],
    ids=["hole-no-samples", "hole-no-counts", "disorder-no-samples", "disorder-no-sigmas"],
)
def test_monte_carlo_studies_refuse_an_empty_study(nothing_solved, study, axis, n_samples):
    # refused before the perfect lattice is solved; it had a NaN fit or mean
    with pytest.raises(InvalidArgumentError, match="empty|positive"):
        study(3, 0.6, DetectionMode(w0=1.2), axis, n_samples)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_disorder_study_refuses_a_non_finite_sigma_before_solving(nothing_solved, sigma):
    with pytest.raises(InvalidArgumentError, match="finite"):
        studies.position_disorder_study(3, 0.6, DetectionMode(w0=1.2), [0.01, sigma], 2)


def test_sigma_zero_disorder_loss_is_exactly_zero():
    g = build_square_array(5, 0.6)
    sol = eta_at(g, 1.2)

    def fixed_wave_eta(geometry):
        dec = eigendecompose(interaction_matrix(geometry))
        samples = sample_mode(DetectionMode(w0=1.2), geometry)
        return efficiency_of_spin_wave(k_matrix(dec, samples), sol.spin_wave)

    g_dis = apply_position_disorder(g, 0.0, 12345)
    assert fixed_wave_eta(g_dis) == fixed_wave_eta(g)


def test_disorder_study_reproducible_and_sigma_scaled():
    kwargs = dict(n_samples=4, seed=21)
    mode = DetectionMode(w0=1.2)
    a = studies.position_disorder_study(4, 0.6, mode, [0.01, 0.04], **kwargs)
    b = studies.position_disorder_study(4, 0.6, mode, [0.01, 0.04], **kwargs)
    assert a.rows == b.rows
    assert a.summary[0]["loss_mean"] < a.summary[1]["loss_mean"]


def test_disorder_stderr_shrinks_with_samples():
    mode = DetectionMode(w0=1.2)
    small = studies.position_disorder_study(4, 0.6, mode, [0.03], n_samples=25, seed=5)
    large = studies.position_disorder_study(4, 0.6, mode, [0.03], n_samples=100, seed=5)
    assert large.summary[0]["eta_stderr"] < small.summary[0]["eta_stderr"]


def test_parallel_matches_serial():
    mode = DetectionMode(w0=1.0)
    serial = studies.hole_study(5, 0.6, mode, [2], 4, seed=9, workers=1)
    parallel = studies.hole_study(5, 0.6, mode, [2], 4, seed=9, workers=2)
    assert serial.rows == parallel.rows


def test_disorder_parallel_matches_serial():
    kwargs = dict(n_samples=3, seed=17)
    mode = DetectionMode(w0=1.2)
    serial = studies.position_disorder_study(4, 0.6, mode, [0.01, 0.03], workers=1, **kwargs)
    parallel = studies.position_disorder_study(4, 0.6, mode, [0.01, 0.03], workers=2, **kwargs)
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary


def _numpy_threads(_=None):
    """Thread count of numpy's OpenBLAS, or None where it cannot be found."""
    controls = blas._numpy_controls()
    return controls[0]() if controls else None


def _failing_task(_):
    raise ValueError("task failed")


# OpenBLAS caps its thread count at the core count, so on one core a single
# thread is the default and the pin cannot be told from it
needs_two_cores = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="one thread is the default on one core"
)


def _fresh_interpreter(code, **env_vars):
    """stdout of code run by a fresh interpreter that imports this arraymem,
    with the BLAS thread variables replaced by env_vars."""
    src = str(Path(studies.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env.update(env_vars, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


@needs_two_cores
def test_importing_arraymem_runs_numpy_blas_on_one_thread():
    # a fresh interpreter asked for 2 threads: numpy's library is set to 1
    # at import, and the 2 it started with are kept for the eigensolve
    code = (
        "import arraymem; from arraymem import blas; "
        "print(blas._numpy_controls()[0](), blas.EIG_THREADS)"
    )
    assert _fresh_interpreter(code, OPENBLAS_NUM_THREADS="2").split() == ["1", "2"]


START_METHODS = multiprocessing.get_all_start_methods()


@needs_two_cores
@pytest.mark.parametrize(
    "workers, start_method",
    [(1, None)] + [(2, m) for m in START_METHODS],
    ids=["serial"] + START_METHODS,
)
def test_run_tasks_keep_numpy_blas_on_one_thread(monkeypatch, workers, start_method):
    # the caller, the serial loop and a pool of every start method read one
    # thread, and nothing is restored afterwards
    if start_method is not None:
        context = multiprocessing.get_context(start_method)
        pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=context)
        # studies imports the pool class when it runs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    assert _numpy_threads() == 1
    assert studies._run_tasks(_numpy_threads, [0, 1, 2], workers) == [1] * 3
    assert _numpy_threads() == 1
    with pytest.raises(ValueError, match="task failed"):
        studies._run_tasks(_failing_task, [0, 1], workers)
    assert _numpy_threads() == 1


def test_default_workers_fit_free_cores(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    workers = studies.default_workers()
    assert 1 <= workers <= max(1, cores // blas.EIG_THREADS)
    monkeypatch.setattr(blas, "EIG_THREADS", 1)
    assert studies.default_workers() == cores
    monkeypatch.setattr(blas, "EIG_THREADS", cores + 1)
    assert studies.default_workers() == 1


def test_default_workers_follow_the_eigensolve_threads():
    # read after the one-thread pin, numpy's library count would give one
    # worker per core, each running an eigensolve on every core
    code = "from arraymem import studies; print(studies.default_workers())"
    assert _fresh_interpreter(code) == "1\n"
    cores = len(os.sched_getaffinity(0))
    assert _fresh_interpreter(code, OPENBLAS_NUM_THREADS="1") == f"{cores}\n"


@pytest.mark.parametrize(
    "holes",
    [
        [0],  # corner
        [9, 90, 99],  # the other corners
        [1, 5, 19, 50, 98],  # edges
        [44, 45, 54, 55],  # centre
        [0, 3, 27, 44, 61, 72, 88, 99],
    ],
)
def test_hole_samples_match_fresh_sampling(holes):
    mode = DetectionMode(w0=1.5)
    g0 = build_square_array(10, 0.6)
    g = remove_holes(g0, holes)
    reused = studies._samples_at(sample_mode(mode, g0), g)
    fresh = sample_mode(mode, g)
    assert np.max(np.abs(reused.values - fresh.values)) <= 1e-15
    for name in ("f_flux", "w0", "two_sided"):
        assert getattr(reused, name) == getattr(fresh, name)


def test_isotropic_comparison_rows():
    rows = studies.isotropic_comparison([4], 0.6, BEAM)
    row = rows[0]
    assert row["eps_isotropic"] > row["eps_two_level"]
    assert abs(row["w0_isotropic"] / row["w0_two_level"] - 1.0) < 0.2


def test_csv_bytes_are_deterministic(tmp_path):
    ds = studies.position_disorder_study(4, 0.6, DetectionMode(w0=1.2), [0.02], n_samples=3, seed=2)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    studies.write_csv(p1, ds.rows)
    studies.write_csv(p2, ds.rows)
    assert p1.read_bytes() == p2.read_bytes()
    # full double precision round-trips
    import csv

    with open(p1) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["eta_dis"]) == ds.rows[0]["eta_dis"]


@pytest.mark.parametrize(
    "rows", [[], [{"a": 1, "b": 2}, {"a": 3}], [{"a": 1}, {"a": 2, "b": 3}]],
    ids=["no-rows", "missing-key", "extra-key"],
)
def test_csv_rows_must_match_the_header(tmp_path, rows):
    with pytest.raises(InvalidArgumentError):
        studies.write_csv(tmp_path / "t.csv", rows)


def test_summary_json_is_readable(tmp_path):
    import json

    path = tmp_path / "s.json"
    studies.write_summary(path, {"value": np.float64(1.5), "arr": np.arange(3)})
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["value"] == 1.5 and doc["arr"] == [0, 1, 2]


def test_artifact_stem_format():
    stem = studies.artifact_stem("holes", 10, 0.6, timestamp=False)
    assert stem == "holes_10_0.6"
    assert studies.artifact_stem("holes", 10, 0.6, timestamp=True).startswith(
        "holes_10_0.6_"
    )
