"""Configuration-driven command-line front end.

Commands map one-to-one onto the study drivers; every run writes a CSV
table and/or a JSON summary that embeds the fully resolved configuration,
and prints a one-line human summary. Configuration comes from an optional
JSON file (nested sections below) with command-line flags taking
precedence; unknown keys are rejected rather than ignored. Each setting is
one row of ``_SETTINGS``, which gives its default, its check and its flag,
so a flag and a config key pass the same check. A command takes only the
flags its handler reads, and its JSON summary records only those
settings; a config file may set any key.

A command that takes --w0 solves at the given waist, or, when none is
given (``"w0": null``), at the best waist, found by ``studies.solve``.

The study drivers solve any N they are given. The desk-scale cap (N <= 30
two-level, N <= 14 isotropic) is checked here, once, before any solve, and
``--allow-large`` (``study.allow_large``) lifts it.

Config file schema (all keys optional, defaults shown):

    {
      "geometry": {"N": 10, "d": 0.6, "holes": [], "sigma": 0.0, "seed": 12345},
      "mode":     {"w0": null, "two_sided": true, "tol": 1e-10},
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
import copy
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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


MAX_N_TWO_LEVEL = 30
MAX_N_ISOTROPIC = 14

# the commands whose handlers read a setting
_GEOMETRY = ("efficiency", "scan-waist", "optimal-waist", "finite-time")  # geometry.*, model
_LATTICE = (*_GEOMETRY, "holes", "disorder")  # N
_SOLVING = (*_LATTICE, "isotropic")  # d, the beam's sides, the N cap
_WAIST = ("efficiency", "holes", "disorder", "finite-time")  # w0, searched if not given


class _Setting(NamedTuple):
    """One setting: its place in the config, its default and check, and its flags."""

    key: str  # "section.key", or a key at the config root
    default: object
    types: type | tuple
    check: Callable | None = None
    message: str = ""  # reported when the check fails
    flags: dict = {}  # option string -> argparse keywords; two form an exclusive pair
    commands: tuple | None = None  # the commands that take the flags; None: all
    # flag text -> value for the list flags, applied after argparse so that a
    # malformed list is reported against its config key like any other value
    parse: Callable | None = None


# rows in the order `--help` lists the flags: the shared ones, then each command's own
_SETTINGS = (
    _Setting("geometry.N", 10, int, lambda v: v >= 1, "N must be a positive integer",
             {"--N": dict(type=int, help="array linear size")}, _LATTICE),
    _Setting("geometry.d", 0.6, (int, float), lambda v: v > 0, "d must be positive",
             {"--d": dict(type=float, help="lattice constant (wavelengths)")}, _SOLVING),
    _Setting("geometry.holes", [], list, lambda v: all(isinstance(h, int) for h in v),
             "holes must be integers",
             {"--holes": dict(help="hole site indices, e.g. 3,17")}, _GEOMETRY, _int_list),
    _Setting("geometry.sigma", 0.0, (int, float), lambda v: v >= 0, "sigma must be non-negative",
             {"--sigma": dict(type=float, help="position disorder std")}, _GEOMETRY),
    _Setting("geometry.seed", 12345, int, lambda v: v >= 0, "seed must be a non-negative integer",
             {"--geometry-seed": dict(type=int, help="disorder seed")}, _GEOMETRY),
    _Setting("mode.w0", None, (int, float, type(None)), lambda v: v is None or v > 0,
             "w0 must be positive",
             {"--w0": dict(type=float, help="beam waist (wavelengths); searched if not given")},
             _WAIST),
    _Setting("mode.two_sided", True, bool, flags={
        "--two-sided": dict(action="store_true"), "--one-sided": dict(action="store_false")},
        commands=_SOLVING),
    _Setting("mode.tol", 1e-10, (int, float), lambda v: 0 < v <= 1e-6, "tol must be in (0, 1e-6]",
             {"--tol": dict(type=float, help="quadrature tolerance")}),
    _Setting("study.model", TWO_LEVEL, str, lambda v: v in (TWO_LEVEL, ISOTROPIC),
             f"model must be {TWO_LEVEL!r} or {ISOTROPIC!r}",
             {"--model": dict(choices=[TWO_LEVEL, ISOTROPIC])}, _GEOMETRY),
    _Setting("study.allow_large", False, bool, flags={"--allow-large": dict(action="store_true")},
             commands=_SOLVING),
    # every command takes these four, read or not: the benchmark passes them to each it runs
    _Setting("output.dir", ".", str, flags={"--out": dict(help="output directory")}),
    _Setting("output.timestamp", True, bool, flags={
        "--no-timestamp": dict(action="store_false", help="deterministic artifact names")}),
    _Setting("workers", None, (int, type(None)), lambda v: v is None or v >= 1,
             "workers must be a positive integer",
             {"--workers": dict(type=int, help="parallel workers for Monte Carlo")}),
    _Setting("study.seed", 12345, int, lambda v: v >= 0, "seed must be a non-negative integer",
             {"--seed": dict(type=int, help="study seed")}),
    _Setting("study.w0_min", 1.0, (int, float), lambda v: v > 0, "w0_min must be positive",
             {"--w0-min": dict(type=float)}, ("scan-waist",)),
    _Setting("study.w0_max", 4.0, (int, float), lambda v: v > 0, "w0_max must be positive",
             {"--w0-max": dict(type=float)}, ("scan-waist",)),
    _Setting("study.w0_points", 12, int, lambda v: v >= 2, "w0_points must be >= 2",
             {"--w0-points": dict(type=int)}, ("scan-waist",)),
    _Setting("study.hole_counts", list(range(1, 21)), list,
             lambda v: v and all(isinstance(h, int) and h >= 1 for h in v),
             "hole_counts must be a non-empty list of positive integers",
             {"--hole-counts": dict(help="e.g. 1-20 or 1,5,10")}, ("holes",), _int_list),
    _Setting("study.sigma_list", [0.006, 0.012, 0.024, 0.048], list,
             lambda v: v and all(isinstance(s, (int, float)) and s > 0 for s in v),
             "sigma_list must be a non-empty list of positive numbers",
             {"--sigma-list": {}}, ("disorder",), _float_list),
    _Setting("study.n_samples", 100, int, lambda v: v >= 1, "n_samples must be positive",
             {"--samples": dict(type=int)}, ("holes", "disorder")),
    _Setting("study.Td", 10.0, (int, float), lambda v: v > 0, "Td must be positive",
             {"--Td": dict(type=float)}, ("finite-time",)),
    _Setting("study.N_list", [6, 10, 14], list,
             lambda v: v and all(isinstance(n, int) and n >= 2 for n in v),
             "N_list must be a non-empty list of integers >= 2",
             {"--N-list": {}}, ("isotropic",), _int_list),
)
_KEYS = {s.key for s in _SETTINGS}


class ConfigError(Exception):
    pass


def _node(config: dict, key: str) -> tuple:
    """(the dict that holds a dotted config key, the key's last name)."""
    *sections, name = key.split(".")
    for section in sections:
        config = config.setdefault(section, {})
    return config, name


def _put(config: dict, key: str, value) -> None:
    node, name = _node(config, key)
    node[name] = value


def _dest(setting: _Setting) -> str:
    """The argparse attribute of a setting's flags, named after the first."""
    return next(iter(setting.flags)).lstrip("-").replace("-", "_")


def _merge_config(path: str | None) -> dict:
    """Defaults overlaid with the config file."""
    config: dict = {}
    for s in _SETTINGS:
        _put(config, s.key, copy.deepcopy(s.default))
    if path is None:
        return config
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
        if section in _KEYS:
            entries = {section: content}
        elif isinstance(config.get(section), dict):
            if not isinstance(content, dict):
                raise ConfigError(f"config error at {section}: expected an object")
            entries = {f"{section}.{key}": value for key, value in content.items()}
        else:
            raise ConfigError(f"config error at {section}: unknown section")
        for key, value in entries.items():
            if key not in _KEYS:
                raise ConfigError(f"config error at {key}: unknown key")
            _put(config, key, value)
    return config


def _apply_flags(config: dict, args: argparse.Namespace) -> None:
    for s in _SETTINGS:
        value = getattr(args, _dest(s), None)
        if value is None:
            continue
        if s.parse is not None:
            try:
                value = s.parse(value)
            except ValueError as exc:
                raise ConfigError(f"config error at {s.key}: {exc}")
        _put(config, s.key, value)


def _validate_config(config: dict) -> None:
    for s in _SETTINGS:
        node, name = _node(config, s.key)
        value = node[name]
        if not isinstance(value, s.types):
            raise ConfigError(f"config error at {s.key}: expected {s.types}, got {value!r}")
        # json.load and float() accept Infinity and NaN, and infinity passes the range checks
        entries = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not np.isfinite(v) for v in entries):
            raise ConfigError(f"config error at {s.key}: numbers must be finite, got {value!r}")
        bool_as_number = isinstance(value, bool) and s.types is not bool
        if bool_as_number or (s.check is not None and not s.check(value)):
            raise ConfigError(f"config error at {s.key}: {s.message}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraymem",
        description="Retrieval-efficiency calculations for free-space atomic arrays.",
    )
    parser.add_argument("--version", action="version", version=f"arraymem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        # no prefix matching: `isotropic --N 4` would otherwise read as --N-list
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        for s in _SETTINGS:
            if s.commands is None or command in s.commands:
                group = p.add_mutually_exclusive_group() if len(s.flags) > 1 else p
                for option, kwargs in s.flags.items():
                    group.add_argument(option, dest=_dest(s), default=None, **kwargs)
        if command == "efficiency":
            p.add_argument("--dump-samples", action="store_true",
                           help="also write the sampled mode field as CSV")
    return parser


def _check_scale(config: dict, command: str) -> None:
    """Refuse an N above the desk-scale cap of the model it is solved in."""
    sc = config["study"]
    if command not in _SOLVING or sc["allow_large"]:
        return
    if command == "isotropic":  # each N is solved in both models; isotropic caps lower
        key, sizes, model = "study.N_list", sc["N_list"], ISOTROPIC
    else:
        key, sizes = "geometry.N", [config["geometry"]["N"]]
        model = sc["model"] if command in _GEOMETRY else TWO_LEVEL
    cap = MAX_N_ISOTROPIC if model == ISOTROPIC else MAX_N_TWO_LEVEL
    if max(sizes) > cap:
        raise ConfigError(
            f"config error at {key}: N={max(sizes)} exceeds the desk-scale cap {cap} "
            f"for the {model} model; pass --allow-large to override"
        )


def _build_geometry(gc: dict):
    g = build_square_array(gc["N"], gc["d"])
    if gc["holes"]:
        g = remove_holes(g, gc["holes"])
    if gc["sigma"] > 0:
        g = apply_position_disorder(g, gc["sigma"], gc["seed"])
    return g


def _mode(config: dict) -> DetectionMode:
    mc = config["mode"]
    return DetectionMode(w0=mc["w0"], two_sided=mc["two_sided"], quadrature_tolerance=mc["tol"])


def _workers(config: dict) -> int:
    return config["workers"] or studies.default_workers()


def _write(config: dict, command: str, n: int, body: dict, fields=None, rows=None) -> Path:
    """Write a run's JSON summary, and its CSV table when rows are given.

    The summary records the settings the command takes. Returns the path
    the command prints: the table if there is one, else the summary.
    """
    out = Path(config["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    stem = studies.artifact_stem(command, n, config["geometry"]["d"], config["output"]["timestamp"])
    summary = out / f"{stem}.json"
    table = None if rows is None else summary.with_suffix(".csv")
    if table:
        studies.write_csv(table, fields, rows)
        body = {**body, "csv": table.name}
    taken: dict = {}
    for s in _SETTINGS:
        if s.commands is None or command in s.commands:
            node, name = _node(config, s.key)
            _put(taken, s.key, node[name])
    studies.write_summary(summary, {"config": taken, "version": __version__, **body})
    return table or summary


def _cmd_efficiency(config: dict, args) -> int:
    gc = config["geometry"]
    g = _build_geometry(gc)
    res = studies.solve(g, _mode(config), config["study"]["model"])
    w0 = res.samples.w0
    sol_doc = solution_to_dict(res.solution, w0, g.to_json())
    sol_doc["spectral"] = res.dec.diagnostics()
    path = _write(config, "efficiency", gc["N"], {"solution": sol_doc})
    if args.dump_samples:
        studies.write_csv(path.with_name(f"{path.stem}_samples.csv"),
                          ["site", "x", "y", "re_e", "im_e"], samples_to_rows(g, res.samples))
    print(f"eta={res.eta:.9f} eps={1.0 - res.eta:.3e} w0={w0:g} -> {path}")
    return 0


def _cmd_scan_waist(config: dict, args) -> int:
    gc, sc = config["geometry"], config["study"]
    w0_list = np.geomspace(sc["w0_min"], sc["w0_max"], sc["w0_points"])
    scan = studies.scan_waist(_build_geometry(gc), _mode(config), w0_list, sc["model"])
    try:
        fit = studies.fit_error_model(scan, gc["d"])
        fit_doc = {"C": fit.parameters["C"], "C_stderr": fit.stderr["C"],
                   "window": fit.window, "residual_norm": fit.residual_norm}
        fit_note = f"C={fit.parameters['C']:.3e}"
    except FitWindowError:
        fit_doc, fit_note = None, "C=n/a (no clipping-free window)"
    path = _write(config, "scan-waist", gc["N"], {"fit": fit_doc, "provenance": scan.provenance},
                  ["w0", "eta", "epsilon", "clip_term", "spectral_gap"], scan.rows)
    best = int(np.argmin(scan.epsilon))
    print(f"min eps={scan.epsilon[best]:.3e} at w0={scan.axis[best]:g} {fit_note} -> {path}")
    return 0


def _cmd_optimal_waist(config: dict, args) -> int:
    g = _build_geometry(config["geometry"])
    opt = studies.optimal_waist(g, _mode(config), config["study"]["model"])
    path = _write(config, "optimal-waist", config["geometry"]["N"], {
        "w0_opt": opt.w0, "epsilon_opt": opt.epsilon, "eta": opt.eta,
        "n_evaluations": opt.n_evaluations, "bracket_fallback": opt.bracket_fallback,
    })
    print(f"w0_opt={opt.w0:.4f} eps_opt={opt.epsilon:.3e} -> {path}")
    return 0


def _cmd_holes(config: dict, args) -> int:
    gc, sc = config["geometry"], config["study"]
    hs = studies.hole_study(
        gc["N"], gc["d"], _mode(config), sc["hole_counts"], sc["n_samples"],
        seed=sc["seed"], workers=_workers(config),
    )
    path = _write(config, "holes", gc["N"], {
        "alpha": hs.alpha.parameters["alpha"], "alpha_stderr": hs.alpha.stderr["alpha"],
        "eta_perfect": hs.eta_perfect, "provenance": hs.provenance,
    }, ["n_holes", "sample", "holes", "intensity_fraction", "eta_def", "rel_loss"], hs.rows)
    print(f"alpha={hs.alpha.parameters['alpha']:.4f} (+/- {hs.alpha.stderr['alpha']:.4f}) -> {path}")
    return 0


def _cmd_disorder(config: dict, args) -> int:
    gc, sc = config["geometry"], config["study"]
    ds = studies.position_disorder_study(
        gc["N"], gc["d"], _mode(config), sc["sigma_list"], sc["n_samples"], seed=sc["seed"],
        workers=_workers(config),
    )
    sigmas = [r["sigma"] for r in ds.summary]
    losses = [r["loss_mean"] for r in ds.summary]
    slope = studies.loglog_slope(sigmas, losses) if len(sigmas) > 1 else float("nan")
    path = _write(config, "disorder", gc["N"], {
        "summary": ds.summary, "loglog_slope": slope, "provenance": ds.provenance,
    }, ["sigma", "sample", "seed", "eta_dis"], ds.rows)
    print(f"slope(log loss vs log sigma)={slope:.3f} -> {path}")
    return 0


def _cmd_finite_time(config: dict, args) -> int:
    gc, sc = config["geometry"], config["study"]
    res = studies.solve(_build_geometry(gc), _mode(config), sc["model"])
    eta_inf, spin = res.eta, res.solution.spin_wave
    td_grid = np.geomspace(0.1, sc["Td"], 25)
    rows = []
    for td in td_grid:
        eta_td = eta_finite_time(res.k, spin, float(td))
        rows.append({"Td": float(td), "eta_Td": eta_td,
                     "relative_error": 1.0 - eta_td / eta_inf})
    path = _write(config, "finite-time", gc["N"], {
        "w0": res.samples.w0, "eta_infinite": eta_inf, "final": rows[-1],
    }, ["Td", "eta_Td", "relative_error"], rows)
    print(f"1 - eta_Td/eta = {rows[-1]['relative_error']:.3e} at Td={sc['Td']:g} -> {path}")
    return 0


def _cmd_isotropic(config: dict, args) -> int:
    sc = config["study"]
    rows = studies.isotropic_comparison(sc["N_list"], config["geometry"]["d"], _mode(config))
    path = _write(config, "isotropic", max(sc["N_list"]), {"rows": rows}, [
        "N", "eps_two_level", "eps_isotropic", "relative_increase", "w0_two_level", "w0_isotropic",
    ], rows)
    rels = ", ".join(f"N={r['N']}: +{100 * r['relative_increase']:.0f}%" for r in rows)
    print(f"isotropic error increase {rels} -> {path}")
    return 0


def _cmd_validate(config: dict, args) -> int:
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


# command -> (help, handler)
_COMMANDS = {
    "efficiency": ("single-configuration efficiency", _cmd_efficiency),
    "scan-waist": ("error vs beam waist + C fit", _cmd_scan_waist),
    "optimal-waist": ("optimal waist and minimal error", _cmd_optimal_waist),
    "holes": ("random-hole Monte Carlo regression", _cmd_holes),
    "disorder": ("position-disorder Monte Carlo", _cmd_disorder),
    "finite-time": ("finite detection-window error", _cmd_finite_time),
    "isotropic": ("two-level vs isotropic comparison", _cmd_isotropic),
    "validate": ("projection and spectral invariant suite", _cmd_validate),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args.config)
        _apply_flags(config, args)
        _validate_config(config)
        _check_scale(config, args.command)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command][1](config, args)
    except InvalidArgumentError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ArrayMemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
