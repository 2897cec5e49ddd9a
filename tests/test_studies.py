import os

import numpy as np
import pytest

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
from arraymem.errors import FitWindowError, InvalidArgumentError
from arraymem.retrieval import efficiency_of_spin_wave
from arraymem import blas, studies

BEAM = DetectionMode(w0=1.5)  # the waist searches replace its w0


def eta_at(geometry, w0):
    dec = eigendecompose(interaction_matrix(geometry))
    samples = sample_mode(DetectionMode(w0=w0), geometry)
    return max_efficiency(k_matrix(dec, samples))


def test_single_atom_error_grows_with_waist():
    scan = studies.scan_waist(build_square_array(1, 0.6), BEAM, [1.0, 1.5, 2.0, 3.0, 4.0])
    assert all(np.diff(scan.epsilon) > 0)


def test_scan_waist_rejects_bad_axis(monkeypatch):
    # the axis is checked before anything is solved
    def unused(*args, **kwargs):
        raise AssertionError("solved a rejected axis")

    monkeypatch.setattr(studies, "solve", unused)
    g = build_square_array(3, 0.6)
    for w0_list in ([2.0, 1.0], [-1.0, 1.0], [2.0, 2.0, 2.0, 2.0]):
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            studies.scan_waist(g, BEAM, w0_list)


def test_synthetic_fit_recovers_constant():
    w0s = list(np.geomspace(1.2, 4.0, 12))
    true_c = 1.9e-3
    eps = studies.model_error(20, 0.6, np.array(w0s), c=true_c)
    scan = studies.ScanResult(
        axis=w0s,
        eta=[1 - e for e in eps],
        epsilon=list(eps),
        rows=[],
        provenance={"N": 20, "d": 0.6},
    )
    fit = studies.fit_error_model(scan, 0.6)
    assert fit.parameters["C"] == pytest.approx(true_c, abs=1e-6 * true_c)


def test_fit_window_excluding_crossover_fits_better():
    # inject a mismatch bump at the crossover: the windowed fit must beat
    # an all-points fit on the clipping-free points
    w0s = np.geomspace(1.0, 3.5, 14)
    n, d, true_c = 12, 0.6, 2.0e-3
    clip = studies.clipping_error(n, d, w0s)
    eps = true_c / w0s**4 + clip + 0.3 * np.sqrt((true_c / w0s**4) * clip)
    scan = studies.ScanResult(
        axis=list(w0s),
        eta=[1 - e for e in eps],
        epsilon=list(eps),
        rows=[],
        provenance={"N": n, "d": d},
    )
    fit = studies.fit_error_model(scan, d)
    mask = clip < 0.1 * eps
    x_all = 1.0 / w0s**4
    y_all = eps - clip
    c_all = float(np.sum(x_all * y_all) / np.sum(x_all * x_all))
    resid_windowed = np.linalg.norm(y_all[mask] - fit.parameters["C"] * x_all[mask])
    resid_allfit = np.linalg.norm(y_all[mask] - c_all * x_all[mask])
    assert resid_windowed < resid_allfit


def test_fit_requires_clipping_free_points():
    w0s = [5.0, 6.0, 8.0]
    eps = studies.clipping_error(4, 0.6, np.array(w0s)) * 1.05
    scan = studies.ScanResult(
        axis=w0s,
        eta=[1 - e for e in eps],
        epsilon=list(eps),
        rows=[],
        provenance={"N": 4, "d": 0.6},
    )
    with pytest.raises(FitWindowError):
        studies.fit_error_model(scan, 0.6)


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


def test_a_beam_without_a_waist_takes_no_eigensystem():
    g = build_square_array(3, 0.6)
    with pytest.raises(InvalidArgumentError, match="without a waist"):
        studies.solve(g, DetectionMode(w0=None), dec=eigendecompose(interaction_matrix(g)))


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
    if sliced:
        samples = studies._samples_at(sample_mode(mode, build_square_array(4, 0.6)), g)
        res = studies.solve(g, None, model, samples=samples)
    else:
        samples = sample_mode(mode, g, model)
        res = studies.solve(g, mode, model)
    mat = k_matrix(eigendecompose(interaction_matrix(g, model)), samples)
    sol = max_efficiency(mat)
    # a perfect lattice is solved in its mirror sector, another algorithm
    # for the same K = Q_x K_r Q_x^T; holes and disorder in the whole
    # space, Q_x = I, which is the dense chain itself
    assert (res.dec.basis.q.shape[1] < res.dec.size) == sector
    eta_tol, spin_tol = (1e-12, 1e-9) if sector else (0.0, 0.0)
    q_x = res.k.basis.q_x
    assert abs(res.eta - sol.eta_max) <= eta_tol
    assert np.max(np.abs(q_x @ res.k.k @ q_x.T - mat.k)) <= eta_tol
    assert np.max(np.abs(res.solution.spin_wave - sol.spin_wave)) <= spin_tol


def test_disorder_task_skips_the_top_eigenpair(monkeypatch):
    spin = np.full(16, 0.25, dtype=complex)
    args = (4, 0.6, DetectionMode(w0=1.2), 0.02, 7, spin)
    expected = studies._disorder_task(args)

    def unused(_mat):
        raise AssertionError("the top eigenpair was computed")

    monkeypatch.setattr(studies, "max_efficiency", unused)
    assert studies._disorder_task(args) == expected


def test_scan_is_unimodal_around_optimum():
    scan = studies.scan_waist(build_square_array(4, 0.6), BEAM, list(np.geomspace(0.5, 2.0, 9)))
    assert scan.provenance["unimodal"]


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
    assert 0.5 < hs.alpha.parameters["alpha"] < 2.0


def test_hole_study_rejects_too_many_holes():
    with pytest.raises(InvalidArgumentError):
        studies.hole_study(4, 0.6, DetectionMode(w0=1.0), [4], 2)  # > 20% of 16 sites


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


@pytest.mark.parametrize("workers", [1, 2])
def test_run_tasks_pins_numpy_blas_and_restores_it(workers):
    before = _numpy_threads()
    inside = studies._run_tasks(_numpy_threads, [0, 1, 2], workers)
    assert inside == [None if before is None else 1] * 3
    assert _numpy_threads() == before
    with pytest.raises(ValueError, match="task failed"):
        studies._run_tasks(_failing_task, [0, 1], workers)
    assert _numpy_threads() == before


def test_default_workers_fit_free_cores(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    workers = studies.default_workers()
    assert 1 <= workers <= max(1, cores // blas.max_threads())
    monkeypatch.setattr(blas, "max_threads", lambda: 1)
    assert studies.default_workers() == cores
    monkeypatch.setattr(blas, "max_threads", lambda: cores + 1)
    assert studies.default_workers() == 1


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
    fields = ["sigma", "sample", "seed", "eta_dis"]
    studies.write_csv(p1, fields, ds.rows)
    studies.write_csv(p2, fields, ds.rows)
    assert p1.read_bytes() == p2.read_bytes()
    # full double precision round-trips
    import csv

    with open(p1) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["eta_dis"]) == ds.rows[0]["eta_dis"]


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
