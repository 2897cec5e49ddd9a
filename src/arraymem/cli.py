"""Configuration-driven command-line front end.

Commands map one-to-one onto the study drivers; every run writes a CSV
table and/or a JSON summary that embeds the fully resolved configuration,
and prints a one-line human summary. Configuration comes from an optional
JSON file (nested sections below) with command-line flags taking
precedence; unknown keys are rejected rather than ignored.

Config file schema (all keys optional, defaults shown):

    {
      "geometry": {"N": 10, "d": 0.6, "holes": [], "sigma": 0.0, "seed": 12345},
      "mode":     {"w0": 1.5, "two_sided": true, "tol": 1e-10},
      "study":    {"w0_min": 1.0, "w0_max": 4.0, "w0_points": 12,
                   "hole_counts": [1, ..., 20], "sigma_list": [...],
                   "n_samples": 100, "seed": 12345, "Td": 10.0,
                   "N_list": [6, 10, 14], "model": "two-level",
                   "allow_large": false},
      "output":   {"dir": ".", "timestamp": true},
      "workers": null
    }

Exit codes: 0 success, 1 numerical failure, 2 configuration failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import eta_finite_time
from .errors import ArrayMemError, FitWindowError, InvalidArgumentError
from .geometry import apply_position_disorder, build_square_array, remove_holes
from .greens import ISOTROPIC, TWO_LEVEL, interaction_matrix
from .modes import DetectionMode, samples_to_rows, validate_projection
from .retrieval import solution_to_dict
from .spectral import eigendecompose, reconstruction_residual
from . import studies

COMMANDS = (
    "efficiency",
    "scan-waist",
    "optimal-waist",
    "holes",
    "disorder",
    "finite-time",
    "isotropic",
    "validate",
)

_DEFAULTS = {
    "geometry": {"N": 10, "d": 0.6, "holes": [], "sigma": 0.0, "seed": 12345},
    "mode": {"w0": 1.5, "two_sided": True, "tol": 1e-10},
    "study": {
        "w0_min": 1.0,
        "w0_max": 4.0,
        "w0_points": 12,
        "hole_counts": list(range(1, 21)),
        "sigma_list": [0.006, 0.012, 0.024, 0.048],
        "n_samples": 100,
        "seed": 12345,
        "Td": 10.0,
        "N_list": [6, 10, 14],
        "model": TWO_LEVEL,
        "allow_large": False,
    },
    "output": {"dir": ".", "timestamp": True},
    "workers": None,
}

_SCHEMA = {
    "geometry": {
        "N": (int, lambda v: v >= 1, "N must be a positive integer"),
        "d": ((int, float), lambda v: v > 0, "d must be positive"),
        "holes": (list, lambda v: all(isinstance(h, int) for h in v), "holes must be integers"),
        "sigma": ((int, float), lambda v: v >= 0, "sigma must be non-negative"),
        "seed": (int, lambda v: v >= 0, "seed must be a non-negative integer"),
    },
    "mode": {
        "w0": ((int, float), lambda v: v > 0, "w0 must be positive"),
        "two_sided": (bool, lambda v: True, ""),
        "tol": ((int, float), lambda v: 0 < v <= 1e-6, "tol must be in (0, 1e-6]"),
    },
    "study": {
        "w0_min": ((int, float), lambda v: v > 0, "w0_min must be positive"),
        "w0_max": ((int, float), lambda v: v > 0, "w0_max must be positive"),
        "w0_points": (int, lambda v: v >= 2, "w0_points must be >= 2"),
        "hole_counts": (list, lambda v: v and all(isinstance(h, int) and h >= 1 for h in v), "hole_counts must be a non-empty list of positive integers"),
        "sigma_list": (list, lambda v: v and all(isinstance(s, (int, float)) and s > 0 for s in v), "sigma_list must be a non-empty list of positive numbers"),
        "n_samples": (int, lambda v: v >= 1, "n_samples must be positive"),
        "seed": (int, lambda v: v >= 0, "seed must be a non-negative integer"),
        "Td": ((int, float), lambda v: v > 0, "Td must be positive"),
        "N_list": (list, lambda v: v and all(isinstance(n, int) and n >= 2 for n in v), "N_list must be a non-empty list of integers >= 2"),
        "model": (str, lambda v: v in (TWO_LEVEL, ISOTROPIC), f"model must be {TWO_LEVEL!r} or {ISOTROPIC!r}"),
        "allow_large": (bool, lambda v: True, ""),
    },
    "output": {
        "dir": (str, lambda v: True, ""),
        "timestamp": (bool, lambda v: True, ""),
    },
}


class ConfigError(Exception):
    pass


def _merge_config(path: str | None) -> tuple:
    """Defaults overlaid with the config file; returns the keys the user set."""
    config = json.loads(json.dumps(_DEFAULTS))  # deep copy
    explicit: set = set()
    if path is None:
        return config, explicit
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    for section, content in user.items():
        if section == "workers":
            if content is not None and (not isinstance(content, int) or content < 1):
                raise ConfigError("config error at workers: must be a positive integer")
            config["workers"] = content
            explicit.add("workers")
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"config error at {section}: unknown section")
        if not isinstance(content, dict):
            raise ConfigError(f"config error at {section}: expected an object")
        for key, value in content.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"config error at {section}.{key}: unknown key")
            config[section][key] = value
            explicit.add(f"{section}.{key}")
    return config, explicit


def _validate_config(config: dict) -> None:
    for section, keys in _SCHEMA.items():
        for key, (types, check, msg) in keys.items():
            value = config[section][key]
            if isinstance(value, bool) and types is int:
                raise ConfigError(f"config error at {section}.{key}: {msg}")
            if not isinstance(value, types):
                raise ConfigError(
                    f"config error at {section}.{key}: expected {types}, got {value!r}"
                )
            if not check(value):
                raise ConfigError(f"config error at {section}.{key}: {msg}")


def _int_list(text: str) -> list:
    """Parse '1,2,5' or '1-20' (inclusive range) into a list of ints.

    A descending range such as '5-3' is a ValueError, not an empty range.
    """
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (int(p) for p in part.split("-", 1))
            if lo > hi:
                raise ValueError(f"descending range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return out


def _float_list(text: str) -> list:
    return [float(p) for p in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraymem",
        description="Retrieval-efficiency calculations for free-space atomic arrays.",
    )
    parser.add_argument("--version", action="version", version=f"arraymem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--N", type=int, help="array linear size")
        p.add_argument("--d", type=float, help="lattice constant (wavelengths)")
        p.add_argument("--holes", help="hole site indices, e.g. 3,17")
        p.add_argument("--sigma", type=float, help="position disorder std")
        p.add_argument("--geometry-seed", type=int, help="disorder seed")
        p.add_argument("--w0", type=float, help="beam waist (wavelengths)")
        sided = p.add_mutually_exclusive_group()
        sided.add_argument("--two-sided", dest="two_sided", action="store_true", default=None)
        sided.add_argument("--one-sided", dest="two_sided", action="store_false", default=None)
        p.add_argument("--tol", type=float, help="quadrature tolerance")
        p.add_argument("--model", choices=[TWO_LEVEL, ISOTROPIC])
        p.add_argument("--allow-large", action="store_true", default=None)
        p.add_argument("--out", help="output directory")
        p.add_argument("--no-timestamp", action="store_true", default=None,
                       help="deterministic artifact names")
        p.add_argument("--workers", type=int, help="parallel workers for Monte Carlo")
        p.add_argument("--seed", type=int, help="study seed")
        return p

    p = common(sub.add_parser("efficiency", help="single-configuration efficiency"))
    p.add_argument("--optimize-waist", action="store_true")
    p.add_argument("--dump-samples", action="store_true",
                   help="also write the sampled mode field as CSV")
    p = common(sub.add_parser("scan-waist", help="error vs beam waist + C fit"))
    p.add_argument("--w0-min", type=float)
    p.add_argument("--w0-max", type=float)
    p.add_argument("--w0-points", type=int)
    common(sub.add_parser("optimal-waist", help="optimal waist and minimal error"))
    p = common(sub.add_parser("holes", help="random-hole Monte Carlo regression"))
    p.add_argument("--hole-counts", help="e.g. 1-20 or 1,5,10")
    p.add_argument("--samples", type=int)
    p = common(sub.add_parser("disorder", help="position-disorder Monte Carlo"))
    p.add_argument("--sigma-list", type=_float_list)
    p.add_argument("--samples", type=int)
    p = common(sub.add_parser("finite-time", help="finite detection-window error"))
    p.add_argument("--Td", type=float)
    p = common(sub.add_parser("isotropic", help="two-level vs isotropic comparison"))
    p.add_argument("--N-list")
    common(sub.add_parser("validate", help="projection and spectral invariant suite"))
    return parser


# integer-list flags are parsed here rather than by argparse, so that a
# malformed list is reported against its config key like any other value
_INT_LIST_FLAGS = ("holes", "hole_counts", "N_list")


def _apply_flags(config: dict, args: argparse.Namespace, explicit: set) -> None:
    mapping = {
        "N": ("geometry", "N"),
        "d": ("geometry", "d"),
        "holes": ("geometry", "holes"),
        "sigma": ("geometry", "sigma"),
        "geometry_seed": ("geometry", "seed"),
        "w0": ("mode", "w0"),
        "two_sided": ("mode", "two_sided"),
        "tol": ("mode", "tol"),
        "w0_min": ("study", "w0_min"),
        "w0_max": ("study", "w0_max"),
        "w0_points": ("study", "w0_points"),
        "hole_counts": ("study", "hole_counts"),
        "sigma_list": ("study", "sigma_list"),
        "samples": ("study", "n_samples"),
        "seed": ("study", "seed"),
        "Td": ("study", "Td"),
        "N_list": ("study", "N_list"),
        "model": ("study", "model"),
        "allow_large": ("study", "allow_large"),
        "out": ("output", "dir"),
    }
    for attr, (section, key) in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            if attr in _INT_LIST_FLAGS:
                try:
                    value = _int_list(value)
                except ValueError as exc:
                    raise ConfigError(f"config error at {section}.{key}: {exc}")
            config[section][key] = value
            explicit.add(f"{section}.{key}")
    if getattr(args, "no_timestamp", None):
        config["output"]["timestamp"] = False
    if getattr(args, "workers", None) is not None:
        config["workers"] = args.workers


def _build_geometry(gc: dict):
    g = build_square_array(gc["N"], gc["d"])
    if gc["holes"]:
        g = remove_holes(g, gc["holes"])
    if gc["sigma"] > 0:
        g = apply_position_disorder(g, gc["sigma"], gc["seed"])
    return g


def _outdir(config: dict) -> Path:
    path = Path(config["output"]["dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _workers(config: dict) -> int:
    return config["workers"] or studies.default_workers()


def _summary_payload(config: dict, body: dict) -> dict:
    return {"config": config, "version": __version__, **body}


def _solve(config: dict, g, optimize: bool) -> tuple:
    """(w0, Result, OptimalWaist or None): g solved at the optimal waist,
    or at the configured one."""
    gc, mc, sc = config["geometry"], config["mode"], config["study"]
    if optimize:
        opt = studies.optimal_waist(
            gc["N"], gc["d"], model=sc["model"], two_sided=mc["two_sided"],
            tol=mc["tol"], allow_large=sc["allow_large"], geometry=g,
        )
        return opt.w0, opt.result, opt
    mode = DetectionMode(w0=mc["w0"], two_sided=mc["two_sided"], quadrature_tolerance=mc["tol"])
    return mc["w0"], studies.solve(g, mode, sc["model"]), None


def _cmd_efficiency(config: dict, args, explicit) -> int:
    gc = config["geometry"]
    g = _build_geometry(gc)
    w0, res, opt = _solve(config, g, args.optimize_waist)
    if args.optimize_waist:
        sol_doc = {
            "eta_max": opt.eta, "epsilon": opt.epsilon, "w0": opt.w0,
            "spin_wave": [[float(c.real), float(c.imag)] for c in opt.spin_wave],
            "diagnostics": {"n_evaluations": opt.n_evaluations,
                            "bracket_fallback": opt.bracket_fallback},
        }
    else:
        sol_doc = solution_to_dict(res.solution, w0, g.to_json(include_positions=False))
        sol_doc["spectral"] = res.dec.diagnostics()
    out = _outdir(config)
    stem = studies.artifact_stem("efficiency", gc["N"], gc["d"], config["output"]["timestamp"])
    path = out / f"{stem}.json"
    studies.write_summary(path, _summary_payload(config, {"solution": sol_doc}))
    if args.dump_samples:
        studies.write_csv(out / f"{stem}_samples.csv",
                          ["site", "x", "y", "re_e", "im_e"], samples_to_rows(g, res.samples))
    print(f"eta={res.eta:.9f} eps={1.0 - res.eta:.3e} w0={w0:g} -> {path}")
    return 0


def _cmd_scan_waist(config: dict, args, explicit) -> int:
    gc, mc, sc = config["geometry"], config["mode"], config["study"]
    w0_list = np.geomspace(sc["w0_min"], sc["w0_max"], sc["w0_points"])
    scan = studies.scan_waist(
        gc["N"], gc["d"], w0_list, model=sc["model"], two_sided=mc["two_sided"],
        tol=mc["tol"], allow_large=sc["allow_large"],
    )
    try:
        fit = studies.fit_error_model(scan, gc["d"])
        fit_doc = {"C": fit.parameters["C"], "C_stderr": fit.stderr["C"],
                   "window": fit.window, "residual_norm": fit.residual_norm}
        fit_note = f"C={fit.parameters['C']:.3e}"
    except FitWindowError:
        fit_doc, fit_note = None, "C=n/a (no clipping-free window)"
    out = _outdir(config)
    stem = studies.artifact_stem("scan-waist", gc["N"], gc["d"], config["output"]["timestamp"])
    csv_path = out / f"{stem}.csv"
    studies.write_csv(csv_path, ["w0", "eta", "epsilon", "clip_term", "spectral_gap"], scan.rows)
    studies.write_summary(out / f"{stem}.json", _summary_payload(
        config, {"fit": fit_doc, "provenance": scan.provenance, "csv": csv_path.name}))
    best = int(np.argmin(scan.epsilon))
    print(f"min eps={scan.epsilon[best]:.3e} at w0={scan.axis[best]:g} {fit_note} -> {csv_path}")
    return 0


def _cmd_optimal_waist(config: dict, args, explicit) -> int:
    gc, mc, sc = config["geometry"], config["mode"], config["study"]
    opt = studies.optimal_waist(
        gc["N"], gc["d"], model=sc["model"], two_sided=mc["two_sided"],
        tol=mc["tol"], allow_large=sc["allow_large"],
    )
    out = _outdir(config)
    stem = studies.artifact_stem("optimal-waist", gc["N"], gc["d"], config["output"]["timestamp"])
    path = out / f"{stem}.json"
    studies.write_summary(path, _summary_payload(config, {
        "w0_opt": opt.w0, "epsilon_opt": opt.epsilon, "eta": opt.eta,
        "n_evaluations": opt.n_evaluations, "bracket_fallback": opt.bracket_fallback,
    }))
    print(f"w0_opt={opt.w0:.4f} eps_opt={opt.epsilon:.3e} -> {path}")
    return 0


def _cmd_holes(config: dict, args, explicit) -> int:
    gc, mc, sc = config["geometry"], config["mode"], config["study"]
    hs = studies.hole_study(
        gc["N"], gc["d"], mc["w0"], sc["hole_counts"], sc["n_samples"],
        seed=sc["seed"], two_sided=mc["two_sided"], tol=mc["tol"],
        workers=_workers(config), allow_large=sc["allow_large"],
    )
    out = _outdir(config)
    stem = studies.artifact_stem("holes", gc["N"], gc["d"], config["output"]["timestamp"])
    csv_path = out / f"{stem}.csv"
    studies.write_csv(
        csv_path,
        ["n_holes", "sample", "holes", "intensity_fraction", "eta_def", "rel_loss"],
        hs.rows,
    )
    studies.write_summary(out / f"{stem}.json", _summary_payload(config, {
        "alpha": hs.alpha.parameters["alpha"], "alpha_stderr": hs.alpha.stderr["alpha"],
        "eta_perfect": hs.eta_perfect, "provenance": hs.provenance, "csv": csv_path.name,
    }))
    print(f"alpha={hs.alpha.parameters['alpha']:.4f} (+/- {hs.alpha.stderr['alpha']:.4f}) -> {csv_path}")
    return 0


def _cmd_disorder(config: dict, args, explicit) -> int:
    gc, mc, sc = config["geometry"], config["mode"], config["study"]
    ds = studies.position_disorder_study(
        gc["N"], gc["d"], sc["sigma_list"], sc["n_samples"], seed=sc["seed"],
        w0=mc["w0"] if "mode.w0" in explicit else None,
        two_sided=mc["two_sided"], tol=mc["tol"],
        workers=_workers(config), allow_large=sc["allow_large"],
    )
    sigmas = [r["sigma"] for r in ds.summary]
    losses = [r["loss_mean"] for r in ds.summary]
    slope = studies.loglog_slope(sigmas, losses) if len(sigmas) > 1 else float("nan")
    out = _outdir(config)
    stem = studies.artifact_stem("disorder", gc["N"], gc["d"], config["output"]["timestamp"])
    csv_path = out / f"{stem}.csv"
    studies.write_csv(csv_path, ["sigma", "sample", "seed", "eta_dis"], ds.rows)
    studies.write_summary(out / f"{stem}.json", _summary_payload(config, {
        "summary": ds.summary, "loglog_slope": slope,
        "provenance": ds.provenance, "csv": csv_path.name,
    }))
    print(f"slope(log loss vs log sigma)={slope:.3f} -> {csv_path}")
    return 0


def _cmd_finite_time(config: dict, args, explicit) -> int:
    gc, sc = config["geometry"], config["study"]
    g = _build_geometry(gc)
    w0, res, _ = _solve(config, g, "mode.w0" not in explicit)
    eta_inf, spin = res.eta, res.solution.spin_wave
    td_grid = np.geomspace(0.1, sc["Td"], 25)
    rows = []
    for td in td_grid:
        eta_td = eta_finite_time(res.dec, res.samples, spin, float(td))
        rows.append({"Td": float(td), "eta_Td": eta_td,
                     "relative_error": 1.0 - eta_td / eta_inf})
    out = _outdir(config)
    stem = studies.artifact_stem("finite-time", gc["N"], gc["d"], config["output"]["timestamp"])
    csv_path = out / f"{stem}.csv"
    studies.write_csv(csv_path, ["Td", "eta_Td", "relative_error"], rows)
    studies.write_summary(out / f"{stem}.json", _summary_payload(config, {
        "w0": w0, "eta_infinite": eta_inf, "final": rows[-1], "csv": csv_path.name,
    }))
    print(f"1 - eta_Td/eta = {rows[-1]['relative_error']:.3e} at Td={sc['Td']:g} -> {csv_path}")
    return 0


def _cmd_isotropic(config: dict, args, explicit) -> int:
    gc, mc, sc = config["geometry"], config["mode"], config["study"]
    rows = studies.isotropic_comparison(
        sc["N_list"], gc["d"], tol=mc["tol"], allow_large=sc["allow_large"]
    )
    out = _outdir(config)
    stem = studies.artifact_stem("isotropic", max(sc["N_list"]), gc["d"],
                                 config["output"]["timestamp"])
    csv_path = out / f"{stem}.csv"
    studies.write_csv(
        csv_path,
        ["N", "eps_two_level", "eps_isotropic", "relative_increase",
         "w0_two_level", "w0_isotropic"],
        rows,
    )
    studies.write_summary(out / f"{stem}.json", _summary_payload(config, {
        "rows": rows, "csv": csv_path.name,
    }))
    rels = ", ".join(f"N={r['N']}: +{100 * r['relative_increase']:.0f}%" for r in rows)
    print(f"isotropic error increase {rels} -> {csv_path}")
    return 0


def _cmd_validate(config: dict, args, explicit) -> int:
    mc = config["mode"]
    checks = []

    chk = validate_projection(
        DetectionMode(w0=2.0, quadrature_tolerance=mc["tol"]), [0, 0, 0], [1, 0, 0], 5.0
    )
    checks.append(("projection identity (x dipole)", chk.discrepancy, 1e-4))

    for label, g in [
        ("perfect 4x4", build_square_array(4, 0.6)),
        ("4x4 with holes", remove_holes(build_square_array(4, 0.6), [0, 5])),
        ("disordered 4x4", apply_position_disorder(build_square_array(4, 0.6), 0.03, 99)),
    ]:
        m = interaction_matrix(g, TWO_LEVEL)
        mode = DetectionMode(w0=1.2, quadrature_tolerance=mc["tol"])
        res = studies.solve(g, mode, dec=eigendecompose(m))
        checks.append((f"bilinear orthogonality ({label})", res.dec.bilinear_condition, 1e-8))
        checks.append((f"completeness ({label})", res.dec.completeness_residual, 1e-8))
        checks.append((f"reconstruction ({label})", reconstruction_residual(m, res.dec), 1e-9))
        checks.append((f"K Hermiticity ({label})", res.k.hermiticity_residual(), 1e-10))
        checks.append((
            f"eta bound ({label})", res.solution.diagnostics["eta_bound_violation"], 1e-9
        ))

    # a perfect lattice is solved in its mirror sector; the full matrix is the oracle
    for label, g, model in [
        ("two-level 4x4", build_square_array(4, 0.6), TWO_LEVEL),
        ("isotropic 3x3", build_square_array(3, 0.6), ISOTROPIC),
    ]:
        m = interaction_matrix(g, model)
        sector = studies.solve(g, DetectionMode(w0=1.2, quadrature_tolerance=mc["tol"]), model)
        dense = studies.solve(g, None, model, dec=eigendecompose(m), samples=sector.samples)
        checks.append((
            f"sector reconstruction ({label})",
            reconstruction_residual(m, sector.dec), 1e-9,
        ))
        checks.append((f"sector vs dense eta ({label})", abs(sector.eta - dense.eta), 1e-12))
        checks.append((
            f"sector vs dense spin wave ({label})",
            float(np.max(np.abs(sector.solution.spin_wave - dense.solution.spin_wave))), 1e-9,
        ))

    failed = 0
    for name, value, bound in checks:
        ok = value < bound
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} (< {bound:g})")
    print(f"validate: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


_HANDLERS = {
    "efficiency": _cmd_efficiency,
    "scan-waist": _cmd_scan_waist,
    "optimal-waist": _cmd_optimal_waist,
    "holes": _cmd_holes,
    "disorder": _cmd_disorder,
    "finite-time": _cmd_finite_time,
    "isotropic": _cmd_isotropic,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, explicit = _merge_config(getattr(args, "config", None))
        _apply_flags(config, args, explicit)
        _validate_config(config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](config, args, explicit)
    except InvalidArgumentError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ArrayMemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
