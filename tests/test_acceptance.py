"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. The Monte Carlo criteria take a few minutes; everything
here is deterministic (fixed seeds).
"""

import time

import numpy as np
import pytest

from arraymem import (
    DetectionMode,
    apply_position_disorder,
    build_square_array,
    eigendecompose,
    eta_finite_time,
    interaction_matrix,
    k_matrix,
    max_efficiency,
    remove_holes,
    sample_mode,
    validate_projection,
)
from arraymem import studies
from ode_oracle import ControlSchedule, evolve

BEAM = DetectionMode(w0=1.5)  # the waist searches replace its w0


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def scan20():
    return studies.scan_waist(build_square_array(20, 0.6), BEAM, np.geomspace(1.5, 4.0, 10))


@pytest.fixture(scope="module")
def optima():
    return {n: studies.optimal_waist(build_square_array(n, 0.6), BEAM) for n in (10, 14, 20)}


def test_criterion_1_four_by_four_benchmark():
    start = time.perf_counter()
    opt = studies.optimal_waist(build_square_array(4, 0.6), BEAM)
    elapsed = time.perf_counter() - start
    ok = opt.epsilon < 0.01 and elapsed < 1.0
    report(
        1,
        "4x4 benchmark",
        ok,
        f"eps_opt={opt.epsilon:.4e} at w0={opt.w0:.3f}, {elapsed:.2f} s",
    )


def test_criterion_2_power_law_slope(scan20):
    w0 = np.asarray(scan20.axis)
    eps = np.asarray(scan20.epsilon)
    clip = studies.clipping_error(20, 0.6, w0)
    mask = clip < 0.1 * eps
    slope = studies.loglog_slope(w0[mask], eps[mask])
    ok = abs(slope + 4.0) <= 0.3
    report(
        2,
        "power-law regime",
        ok,
        f"slope={slope:.3f} over {mask.sum()} clipping-free points (want -4 +/- 0.3)",
    )


def test_criterion_3_fit_constant(scan20):
    fit = studies.fit_error_model(scan20, 0.6)
    c = fit.parameters["C"]
    ok = 1.6e-3 <= c <= 3.6e-3
    report(3, "fit constant", ok, f"C(0.6)={c:.3e} (want within [1.6, 3.6]e-3)")


def test_criterion_4_optimal_error_scaling(optima):
    details = []
    ok = True
    for n, opt in optima.items():
        n_atoms = n * n
        reference = np.log(n_atoms) ** 2 / (4.0 * n_atoms**2)
        ratio = opt.epsilon / reference
        ok = ok and 0.5 <= ratio <= 2.0
        details.append(f"N={n}: eps={opt.epsilon:.3e} ref={reference:.3e} ratio={ratio:.2f}")
    report(4, "scaling law", ok, "; ".join(details))


def test_criterion_5_clipping_regime():
    details = []
    ok = True
    for n, w0_list in ((10, [2.8, 3.4, 4.2, 5.0]), (20, [5.5, 6.5, 8.0])):
        scan = studies.scan_waist(build_square_array(n, 0.6), BEAM, w0_list)
        for w0, eps in zip(scan.axis, scan.epsilon):
            clip = float(studies.clipping_error(n, 0.6, w0))
            # quartic-term dominance check (10:1) with the fitted constant
            assert clip > 10.0 * studies.DEFAULT_C_SEED / w0**4
            rel = abs(eps / clip - 1.0)
            ok = ok and rel <= 0.2
            details.append(f"N={n},w0={w0}: eps/clip={eps / clip:.3f}")
    report(5, "clipping regime", ok, "; ".join(details))


def test_criterion_6_hole_regression():
    hs = studies.hole_study(
        10,
        0.6,
        DetectionMode(w0=1.5),
        list(range(1, 21)),
        100,
        seed=studies.DEFAULT_SEED,
        workers=studies.default_workers(),
    )
    alpha = hs.alpha.parameters["alpha"]
    ok = 1.10 <= alpha <= 1.40
    report(
        6,
        "hole regression",
        ok,
        f"alpha={alpha:.4f} +/- {hs.alpha.stderr['alpha']:.4f} "
        f"over {len(hs.rows)} configurations (want [1.10, 1.40])",
    )


def test_criterion_7_position_disorder_slope(optima):
    d = 0.6
    sigma_list = [round(f * d, 12) for f in (0.01, 0.0178, 0.0316, 0.0562, 0.1)]
    ds = studies.position_disorder_study(
        10,
        d,
        DetectionMode(w0=optima[10].w0),
        sigma_list,
        50,
        seed=studies.DEFAULT_SEED,
        workers=studies.default_workers(),
    )
    losses = [row["loss_mean"] for row in ds.summary]
    slope = studies.loglog_slope(sigma_list, losses)
    ok = abs(slope - 2.0) <= 0.2
    report(
        7,
        "position disorder",
        ok,
        f"slope={slope:.3f} over sigma/d in [0.01, 0.1] (want 2.0 +/- 0.2)",
    )


def test_criterion_8_finite_detection(optima):
    opt = optima[10]
    g = build_square_array(10, 0.6)
    dec = eigendecompose(interaction_matrix(g))
    samples = sample_mode(DetectionMode(w0=opt.w0), g)
    eta_td = eta_finite_time(k_matrix(dec, samples), opt.spin_wave, 10.0)
    rel = 1.0 - eta_td / opt.eta
    ok = rel <= 3e-3
    report(
        8,
        "finite detection",
        ok,
        f"1 - eta_Td/eta = {rel:.3e} at Td = 10 (want <= 3e-3)",
    )


def test_optimal_waist_stays_inside_array(optima):
    # Fig. 2c right axis: w0_opt/(N d) sits in (0, 1) and drifts slowly
    ratios = [opt.w0 / (n * 0.6) for n, opt in optima.items()]
    assert all(0.0 < r < 1.0 for r in ratios)
    assert max(ratios) / min(ratios) < 1.5


def test_criterion_9_isotropic_band():
    rows = studies.isotropic_comparison([6, 10, 14], 0.6, BEAM)
    ok = True
    details = []
    for row in rows:
        rel = row["relative_increase"]
        waist_shift = abs(row["w0_isotropic"] / row["w0_two_level"] - 1.0)
        ok = ok and 0.4 <= rel <= 1.0 and waist_shift <= 0.15
        details.append(f"N={row['N']}: +{100 * rel:.0f}%, waist shift {100 * waist_shift:.1f}%")
    # optimal-error scaling exponent in N matches across models
    n_vals = [row["N"] for row in rows]
    slope_tl = studies.loglog_slope(n_vals, [row["eps_two_level"] for row in rows])
    slope_iso = studies.loglog_slope(n_vals, [row["eps_isotropic"] for row in rows])
    ok = ok and abs(slope_iso - slope_tl) <= 0.5
    details.append(f"eps(N) exponents {slope_tl:.2f} vs {slope_iso:.2f}")
    report(9, "isotropic band", ok, "; ".join(details))


def test_criterion_10_oracle_equivalence():
    details = []
    ok = True
    for n in (3, 4):
        g = build_square_array(n, 0.6)
        m = interaction_matrix(g)
        dec = eigendecompose(m)
        samples = sample_mode(DetectionMode(w0=1.2), g)
        sol = max_efficiency(k_matrix(dec, samples))
        eta_lim = eta_finite_time(k_matrix(dec, samples), sol.spin_wave, 1e3)
        k_vs_time = abs(eta_lim - sol.eta_max)
        sched = ControlSchedule()
        t_sp = evolve(m, sol.spin_wave, sched, 20.0, n_steps=81, dec=dec)
        t_ode = evolve(m, sol.spin_wave, sched, 20.0, n_steps=81, method="ode")
        traj_diff = float(np.max(np.abs(t_sp.e - t_ode.e)))
        ok = ok and k_vs_time < 1e-6 and traj_diff < 1e-8
        details.append(f"N={n}: |eta_K - eta_T|={k_vs_time:.1e}, traj={traj_diff:.1e}")
    report(10, "oracle equivalence", ok, "; ".join(details))


def test_criterion_11_invariant_suite():
    rng = np.random.default_rng(20240901)
    worst = {"hermiticity": 0.0, "bilinear": 0.0, "completeness": 0.0,
             "trace": 0.0, "eta_excess": 0.0}
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = float(rng.uniform(0.4, 0.9))
        w0 = float(rng.uniform(1.0, 4.0))
        g = build_square_array(n, d)
        n_sites = n * n
        max_holes = int(0.2 * n_sites)
        if max_holes >= 1 and rng.random() < 0.5:
            k = int(rng.integers(1, max_holes + 1))
            holes = rng.choice(n_sites, size=k, replace=False)
            g = remove_holes(g, [int(h) for h in holes])
        if rng.random() < 0.5:
            g = apply_position_disorder(
                g, float(rng.uniform(0.0, 0.05 * d)), int(rng.integers(2**32))
            )
        m = interaction_matrix(g)
        dec = eigendecompose(m)
        samples = sample_mode(DetectionMode(w0=w0), g)
        mat = k_matrix(dec, samples)
        sol = max_efficiency(mat)
        worst["hermiticity"] = max(worst["hermiticity"], mat.hermiticity_residual())
        worst["bilinear"] = max(worst["bilinear"], dec.bilinear_condition)
        worst["completeness"] = max(worst["completeness"], dec.completeness_residual)
        trace_rel = abs(dec.eigenvalues.sum() - 0.5j * dec.size) / (0.5 * dec.size)
        worst["trace"] = max(worst["trace"], trace_rel)
        worst["eta_excess"] = max(worst["eta_excess"], sol.eta_max - 1.0)

    chk = validate_projection(DetectionMode(w0=2.0), [0, 0, 0], [1, 0, 0], 5.0)
    ok = (
        worst["hermiticity"] < 1e-10
        and worst["bilinear"] < 1e-8
        and worst["completeness"] < 1e-8
        and worst["trace"] < 1e-9
        and worst["eta_excess"] <= 1e-9
        and chk.discrepancy < 1e-4
    )
    report(
        11,
        "invariant suite",
        ok,
        f"200 random configs: worst K-hermiticity {worst['hermiticity']:.1e}, "
        f"bilinear {worst['bilinear']:.1e}, completeness {worst['completeness']:.1e}, "
        f"trace {worst['trace']:.1e}, eta excess {worst['eta_excess']:.1e}; "
        f"projection {chk.discrepancy:.1e}",
    )
