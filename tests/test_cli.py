import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from arraymem import DetectionMode, apply_position_disorder, build_square_array, remove_holes
from arraymem import cli, studies
from arraymem.cli import main
from arraymem.greens import ISOTROPIC, TWO_LEVEL
from arraymem.spectral import eigendecompose


BEAM = DetectionMode(w0=1.5)  # the waist search replaces its w0


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_efficiency_defaults(tmp_path, capsys):
    code, out, _ = run(
        ["efficiency", "--out", str(tmp_path), "--no-timestamp"], capsys
    )
    assert code == 0
    assert "eta=" in out
    doc = json.loads((tmp_path / "efficiency_10_0.6.json").read_text())
    assert doc["config"]["geometry"]["N"] == 10
    assert doc["config"]["geometry"]["d"] == 0.6
    assert doc["config"]["mode"]["w0"] is None  # searched
    assert doc["config"]["mode"]["two_sided"] is True
    assert 0.0 <= doc["solution"]["eta_max"] <= 1.0


def test_rejects_nonpositive_size(tmp_path, capsys):
    code, _, err = run(["efficiency", "--N", "0", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "geometry.N" in err


def test_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {"N": 4, "shape": "hex"}}))
    code, _, err = run(["efficiency", "--config", str(cfg)], capsys)
    assert code == 2
    assert "geometry.shape" in err


def test_rejects_type_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": {"w0": "wide"}}))
    code, _, err = run(["efficiency", "--config", str(cfg)], capsys)
    assert code == 2
    assert "mode.w0" in err


@pytest.mark.parametrize(
    "config, argv, key",
    [
        ({"geometry": {"N": True}}, ["efficiency", "--w0", "1.2"], "geometry.N"),
        ({"geometry": {"holes": [True]}}, ["efficiency", "--N", "3", "--w0", "1.2"],
         "geometry.holes"),
        ({"study": {"hole_counts": [True]}},
         ["holes", "--N", "3", "--w0", "1.2", "--samples", "1"], "study.hole_counts"),
    ],
    ids=["N", "holes", "hole_counts"],
)
def test_config_booleans_are_not_numbers(tmp_path, capsys, config, argv, key):
    # a JSON true is a Python 1: it removed site 1 and ran one hole
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, _, err = run(argv + ["--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert f"config error at {key}" in err
    assert not out.exists()


def test_the_removed_settings_are_refused(tmp_path, capsys):
    # the quadrature tolerance (--tol, mode.tol) and efficiency --dump-samples
    for flags in (["--tol", "1e-9"], ["--dump-samples"]):
        with pytest.raises(SystemExit) as exc:
            main(["efficiency", "--N", "3", *flags, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": {"tol": 1e-9}}))
    code, _, err = run(["efficiency", "--N", "3", "--config", str(cfg)], capsys)
    assert code == 2
    assert "config error at mode.tol: unknown key" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": {"w0": 1.5}, "geometry": {"N": 3}}))
    code, out, _ = run(
        [
            "efficiency",
            "--config",
            str(cfg),
            "--w0",
            "2.5",
            "--out",
            str(tmp_path),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert "w0=2.5" in out
    doc = json.loads((tmp_path / "efficiency_3_0.6.json").read_text())
    assert doc["config"]["mode"]["w0"] == doc["solution"]["w0"] == 2.5  # a given waist is used


def test_optimize_waist_four_by_four(tmp_path, capsys):
    code, out, _ = run(
        [
            "efficiency",
            "--N",
            "4",
            "--d",
            "0.6",
            "--out",
            str(tmp_path),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert float(out.split("eps=")[1].split()[0]) < 1e-2  # the waist was searched
    doc = json.loads((tmp_path / "efficiency_4_0.6.json").read_text())
    assert doc["solution"]["epsilon"] < 0.01


def test_holes_without_a_waist_use_the_perfect_lattice_optimum(tmp_path, capsys):
    argv = ["holes", "--N", "4", "--hole-counts", "1", "--samples", "2", "--workers", "1"]
    assert run(argv + ["--out", str(tmp_path), "--no-timestamp"], capsys)[0] == 0
    doc = json.loads((tmp_path / "holes_4_0.6.json").read_text())
    assert doc["config"]["mode"]["w0"] is None
    assert doc["w0"] == studies.optimal_waist(build_square_array(4, 0.6), BEAM).w0


# command -> (its flags at desk-test size, the summary's keys besides config and version)
SUMMARIES = {
    "efficiency": (["--N", "3"], {"solution"}),
    "scan-waist": (["--N", "3", "--w0-points", "3"], {"csv", "fit", "unimodal"}),
    "optimal-waist": (["--N", "3"],
                      {"w0_opt", "epsilon_opt", "eta", "n_evaluations", "bracket_fallback"}),
    "holes": (["--N", "4", "--hole-counts", "1", "--samples", "2"],
              {"csv", "alpha", "alpha_stderr", "eta_perfect", "w0"}),
    "disorder": (["--N", "3", "--sigma-list", "0.01", "--samples", "2"],
                 {"csv", "summary", "loglog_slope", "eta_perfect", "w0"}),
    "finite-time": (["--N", "3"], {"csv", "w0", "eta_infinite", "final"}),
    "isotropic": (["--N-list", "3"], {"csv", "rows"}),
}


@pytest.mark.parametrize("command", list(SUMMARIES))
def test_summary_holds_the_config_once_and_what_was_computed(tmp_path, capsys, command):
    flags, keys = SUMMARIES[command]

    def summary(*extra):
        out = tmp_path / ("given" if extra else "default")
        argv = [command, *flags, *extra, "--workers", "1", "--out", str(out), "--no-timestamp"]
        assert run(argv, capsys)[0] == 0
        (path,) = out.glob("*.json")
        return json.loads(path.read_text())

    doc = summary()
    assert set(doc) == {"config", "version", *keys}
    if "w0" in keys:  # the waist the beam was solved at: the searched one, or the one given
        n = doc["config"]["geometry"]["N"]
        assert doc["w0"] == studies.optimal_waist(build_square_array(n, 0.6), BEAM).w0
        assert summary("--w0", "1.1")["w0"] == 1.1


def test_summary_records_only_the_settings_the_command_takes(tmp_path, capsys):
    # a config file may set any key; the summary keeps those the command reads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"study": {"model": "isotropic"}, "geometry": {"holes": [1]}}))
    argv = ["holes", "--config", str(cfg), "--N", "3", "--w0", "1", "--hole-counts", "1",
            "--samples", "2", "--out", str(tmp_path), "--no-timestamp"]
    assert run(argv, capsys)[0] == 0
    config = json.loads((tmp_path / "holes_3_0.6.json").read_text())["config"]
    assert {section: sorted(value) if isinstance(value, dict) else value
            for section, value in config.items()} == {
        "geometry": ["N", "d"],
        "mode": ["two_sided", "w0"],
        "study": ["allow_large", "hole_counts", "n_samples", "seed"],
        "output": ["dir", "timestamp"],
        "workers": None,
    }


def test_scan_waist_writes_csv_and_fit(tmp_path, capsys):
    code, out, _ = run(
        [
            "scan-waist",
            "--N",
            "4",
            "--w0-min",
            "0.7",
            "--w0-max",
            "1.6",
            "--w0-points",
            "5",
            "--out",
            str(tmp_path),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    csv_text = (tmp_path / "scan-waist_4_0.6.csv").read_text()
    assert csv_text.startswith("w0,eta,epsilon")
    assert len(csv_text.strip().splitlines()) == 6


def test_holes_command(tmp_path, capsys):
    code, out, _ = run(
        [
            "holes",
            "--N",
            "5",
            "--w0",
            "1.0",
            "--hole-counts",
            "1,2",
            "--samples",
            "3",
            "--workers",
            "1",
            "--out",
            str(tmp_path),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert "alpha=" in out
    doc = json.loads((tmp_path / "holes_5_0.6.json").read_text())
    assert "alpha" in doc


def test_disorder_command_reproducible(tmp_path, capsys):
    argv = [
        "disorder",
        "--N",
        "4",
        "--w0",
        "1.2",
        "--sigma-list",
        "0.01,0.03",
        "--samples",
        "3",
        "--seed",
        "77",
        "--workers",
        "1",
        "--no-timestamp",
    ]
    code1, _, _ = run(argv + ["--out", str(tmp_path / "a")], capsys)
    code2, _, _ = run(argv + ["--out", str(tmp_path / "b")], capsys)
    assert code1 == code2 == 0
    a = (tmp_path / "a" / "disorder_4_0.6.csv").read_bytes()
    b = (tmp_path / "b" / "disorder_4_0.6.csv").read_bytes()
    assert a == b


def test_disorder_honors_config_file_waist(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": {"w0": 1.3}}))
    code, _, _ = run(
        [
            "disorder",
            "--config",
            str(cfg),
            "--N",
            "4",
            "--sigma-list",
            "0.02",
            "--samples",
            "2",
            "--workers",
            "1",
            "--out",
            str(tmp_path),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads((tmp_path / "disorder_4_0.6.json").read_text())
    assert doc["w0"] == 1.3


def test_finite_time_command(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.geometry.n_atoms)
        return eigendecompose(m)

    monkeypatch.setattr(studies, "eigendecompose", counted)
    monkeypatch.setattr(cli, "eigendecompose", counted)
    code, out, _ = run(
        [
            "finite-time",
            "--N",
            "4",
            "--Td",
            "10",
            "--out",
            str(tmp_path),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert "1 - eta_Td/eta" in out
    doc = json.loads((tmp_path / "finite-time_4_0.6.json").read_text())
    assert doc["final"]["relative_error"] < 0.05
    assert calls == [16]  # the waist search's eigensystem serves the windows
    # no waist was given: the config says so, the body gives the one searched
    assert doc["config"]["mode"]["w0"] is None
    assert doc["w0"] == studies.optimal_waist(build_square_array(4, 0.6), BEAM).w0


def test_isotropic_command(tmp_path, capsys):
    code, out, _ = run(
        [
            "isotropic",
            "--N-list",
            "3",
            "--out",
            str(tmp_path),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert "isotropic error increase" in out


def test_validate_is_not_a_command(capsys):
    # every solve checks its own spectral invariants and K's Hermiticity
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    assert "invalid choice: 'validate'" in capsys.readouterr().err
    assert "validate" not in cli.build_parser().format_help()


def test_hole_range_flag_parsing(tmp_path, capsys):
    from arraymem.cli import _int_list

    assert _int_list("1-4") == [1, 2, 3, 4]
    assert _int_list("2,5,9") == [2, 5, 9]
    assert _int_list("1-3,7") == [1, 2, 3, 7]


def test_descending_range_flag_is_an_argument_error(tmp_path, capsys):
    from arraymem.cli import _int_list

    with pytest.raises(ValueError, match="descending"):
        _int_list("5-3,7")
    code, _, err = run(
        ["holes", "--hole-counts", "5-3,7", "--out", str(tmp_path), "--no-timestamp"],
        capsys,
    )
    assert code == 2
    assert "study.hole_counts" in err and "descending range '5-3'" in err
    assert not list(tmp_path.iterdir())


def test_cli_import_leaves_out_the_ode_solvers(tmp_path):
    # the ODE oracle and the scipy checks live with the tests; the CLI
    # loads no scipy module, neither at import nor in a solve, so scipy's
    # import chain can move into neither its start-up nor its passes. Nor
    # does it load the worker pool's modules, which only a pool run needs
    code = (
        "import sys, arraymem.cli; "
        "roots = ('scipy', 'concurrent', 'multiprocessing'); "
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in roots); "
        "print(loaded()); "
        f"arraymem.cli.main(['efficiency', '--N', '3', '--out', {str(tmp_path)!r}, "
        "'--no-timestamp']); "
        "print(loaded())"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    lines = out.splitlines()
    assert lines[0] == "[]"
    assert "eta=" in lines[1]
    assert lines[-1] == "[]"
    assert list(tmp_path.glob("efficiency_3_*.json"))


@pytest.mark.parametrize(
    "argv, key",
    [
        (["holes", "--hole-counts", "5-3"], "study.hole_counts"),
        (["isotropic", "--N-list", "9-6"], "study.N_list"),
    ],
)
def test_empty_range_flag_is_a_config_error(tmp_path, capsys, argv, key):
    code, out, err = run(argv + ["--out", str(tmp_path), "--no-timestamp"], capsys)
    assert code == 2
    assert key in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["hole_counts", "sigma_list", "N_list"])
def test_empty_study_list_in_config_is_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"study": {key: []}}))
    code, _, err = run(["optimal-waist", "--config", str(cfg)], capsys)
    assert code == 2
    assert f"study.{key}" in err


_GEOMETRY = ["--N", "--d", "--holes", "--sigma", "--geometry-seed"]
_BEAM = ["--two-sided", "--one-sided"]
# the settings each command reads, in table order, up to the four every command takes
_READS = {
    "efficiency": [*_GEOMETRY, "--w0", *_BEAM, "--model", "--allow-large"],
    "scan-waist": [*_GEOMETRY, *_BEAM, "--model", "--allow-large"],
    "optimal-waist": [*_GEOMETRY, *_BEAM, "--model", "--allow-large"],
    "holes": ["--N", "--d", "--w0", *_BEAM, "--allow-large"],
    "disorder": ["--N", "--d", "--w0", *_BEAM, "--allow-large"],
    "finite-time": [*_GEOMETRY, "--w0", *_BEAM, "--model", "--allow-large"],
    "isotropic": ["--d", *_BEAM, "--allow-large"],
}


@pytest.mark.parametrize(
    "command, own",
    [
        ("efficiency", []),
        ("scan-waist", ["--w0-min", "--w0-max", "--w0-points"]),
        ("optimal-waist", []),
        ("holes", ["--hole-counts", "--samples"]),
        ("disorder", ["--sigma-list", "--samples"]),
        ("finite-time", ["--Td"]),
        ("isotropic", ["--N-list"]),
    ],
)
def test_command_option_strings(command, own):
    # a command takes the flags its handler reads; the benchmark drives
    # finite-time, optimal-waist and holes through --seed, --workers, --out
    # and --no-timestamp, which every command takes
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [o for action in sub.choices[command]._actions for o in action.option_strings]
    every = ["--out", "--no-timestamp", "--workers", "--seed"]
    assert options == ["-h", "--help", "--config", *_READS[command], *every, *own]


@pytest.mark.parametrize(
    "argv",
    [
        ["holes", "--model", "isotropic"],
        ["disorder", "--holes", "0,5"],
        ["isotropic", "--sigma", "0.05"],
        ["optimal-waist", "--w0", "7"],
        ["scan-waist", "--w0", "2"],
        ["isotropic", "--N", "4"],  # not a prefix of --N-list
    ],
)
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path), "--no-timestamp"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "geometry, g",
    [
        (["--holes", "0,5"], remove_holes(build_square_array(4, 0.6), [0, 5])),
        (["--sigma", "0.05"], apply_position_disorder(build_square_array(4, 0.6), 0.05, 12345)),
    ],
    ids=["holes", "sigma"],
)
def test_scan_waist_scans_the_configured_geometry(tmp_path, capsys, geometry, g):
    argv = ["scan-waist", "--N", "4", *geometry, "--w0-min", "0.7", "--w0-max", "1.6",
            "--w0-points", "4", "--out", str(tmp_path), "--no-timestamp"]
    assert run(argv, capsys)[0] == 0
    lines = (tmp_path / "scan-waist_4_0.6.csv").read_text().splitlines()[1:]
    assert len(lines) == 4
    for line in lines:
        w0, eta = (float(v) for v in line.split(",")[:2])
        assert eta == studies.solve(g, DetectionMode(w0=w0)).eta


@pytest.mark.parametrize(
    "argv, key, model",
    [
        (["scan-waist", "--N", "31"], "geometry.N", TWO_LEVEL),
        (["efficiency", "--N", "15", "--model", "isotropic"], "geometry.N", ISOTROPIC),
        (["optimal-waist", "--N", "15", "--model", "isotropic"], "geometry.N", ISOTROPIC),
        (["holes", "--N", "31"], "geometry.N", TWO_LEVEL),
        (["disorder", "--N", "31"], "geometry.N", TWO_LEVEL),
        (["finite-time", "--N", "31"], "geometry.N", TWO_LEVEL),
        (["isotropic", "--N-list", "15"], "study.N_list", ISOTROPIC),
    ],
    ids=["scan-waist", "efficiency", "optimal-waist", "holes", "disorder", "finite-time",
         "isotropic"],
)
def test_desk_scale_caps(tmp_path, capsys, nothing_solved, argv, key, model):
    # the cap is checked before anything is solved
    code, _, err = run(argv + ["--out", str(tmp_path), "--no-timestamp"], capsys)
    assert code == 2
    assert f"config error at {key}" in err and f"for the {model} model" in err
    assert "--allow-large" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_an_unusable_output_dir_is_a_config_error(tmp_path, capsys, nothing_solved, below):
    # it was found after the solve, as a FileExistsError or NotADirectoryError
    # traceback and exit 1
    path = tmp_path / "taken"
    path.write_text("")
    out = path / "sub" if below else path
    code, stdout, err = run(["efficiency", "--N", "3", "--w0", "1", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("config error at output.dir:") and "Traceback" not in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == [path] and path.read_text() == ""


def test_allow_large_lifts_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_N_TWO_LEVEL", 3)
    argv = ["efficiency", "--N", "4", "--out", str(tmp_path), "--no-timestamp"]
    assert run(argv, capsys)[0] == 2
    assert run(argv + ["--allow-large"], capsys)[0] == 0


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_nonpositive_workers_flag_is_a_config_error(tmp_path, capsys, workers):
    argv = ["holes", "--N", "3", "--hole-counts", "1", "--samples", "1", "--workers", workers]
    code, _, err = run(argv + ["--out", str(tmp_path), "--no-timestamp"], capsys)
    assert code == 2
    assert "config error at workers" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, key",
    [
        (["finite-time", "--w0", "1", "--Td", "inf"], "study.Td"),
        (["efficiency", "--w0", "inf"], "mode.w0"),
        (["disorder", "--w0", "1", "--sigma-list", "0.01,inf", "--samples", "1"],
         "study.sigma_list"),
    ],
)
def test_non_finite_flag_is_a_config_error(tmp_path, capsys, argv, key):
    code, _, err = run(argv + ["--N", "3", "--out", str(tmp_path), "--no-timestamp"], capsys)
    assert code == 2
    assert f"config error at {key}: numbers must be finite" in err
    assert not list(tmp_path.iterdir())


def test_non_finite_config_value_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mode": {"w0": Infinity}}')
    out = tmp_path / "out"
    code, _, err = run(["efficiency", "--N", "3", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert "config error at mode.w0: numbers must be finite" in err
    assert not out.exists()


def test_disorder_one_sided_scores_against_the_one_sided_optimum(tmp_path, capsys):
    code, _, _ = run(
        ["disorder", "--N", "4", "--sigma-list", "1e-6", "--samples", "2", "--one-sided",
         "--workers", "1", "--out", str(tmp_path), "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads((tmp_path / "disorder_4_0.6.json").read_text())
    one_sided = DetectionMode(w0=1.5, two_sided=False)
    opt = studies.optimal_waist(build_square_array(4, 0.6), one_sided)
    assert doc["eta_perfect"] == opt.eta
    assert abs(doc["summary"][0]["loss_mean"]) < 1e-6


def test_isotropic_one_sided_compares_one_sided_optima(tmp_path, capsys):
    code, _, _ = run(
        ["isotropic", "--N-list", "3", "--one-sided", "--out", str(tmp_path), "--no-timestamp"],
        capsys,
    )
    assert code == 0
    row = json.loads((tmp_path / "isotropic_3_0.6.json").read_text())["rows"][0]
    g, one_sided = build_square_array(3, 0.6), DetectionMode(w0=1.5, two_sided=False)
    for model, key in ((TWO_LEVEL, "eps_two_level"), (ISOTROPIC, "eps_isotropic")):
        assert row[key] == studies.optimal_waist(g, one_sided, model).epsilon


@pytest.mark.parametrize("geometry", [["--holes", "0,5"], ["--sigma", "0.05"]])
def test_optimal_waist_solves_the_configured_geometry(tmp_path, capsys, geometry):
    flags = ["--N", "4", *geometry, "--out", str(tmp_path), "--no-timestamp"]
    assert run(["optimal-waist", *flags], capsys)[0] == 0
    assert run(["efficiency", *flags], capsys)[0] == 0
    opt = json.loads((tmp_path / "optimal-waist_4_0.6.json").read_text())
    eff = json.loads((tmp_path / "efficiency_4_0.6.json").read_text())["solution"]
    assert (opt["w0_opt"], opt["epsilon_opt"]) == (eff["w0"], eff["epsilon"])


@pytest.mark.parametrize(
    "argv",
    [
        ["efficiency", "--N", "2", "--holes", "0,1,2,3", "--w0", "1"],
        ["scan-waist", "--N", "3", "--holes", "0-8"],
    ],
    ids=["efficiency", "scan-waist"],
)
def test_a_geometry_without_atoms_is_an_invalid_configuration(tmp_path, capsys, argv):
    code, out, err = run([*argv, "--out", str(tmp_path), "--no-timestamp"], capsys)
    assert code == 2
    assert err.startswith("invalid configuration:") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("w0", ["1e3", "1e5"])
def test_a_beam_too_wide_to_resolve_is_a_numerical_failure(tmp_path, capsys, w0):
    # at w0 = 1e3 the flux norm stops at its panel cap and the field at the
    # atoms comes out 1,500 times too small; at 1e5 the norm underflows to 0
    code, out, err = run(
        ["efficiency", "--N", "3", "--w0", w0, "--out", str(tmp_path), "--no-timestamp"], capsys
    )
    assert code == 1
    assert err.startswith("numerical failure:") and "Traceback" not in err
    assert "eta=" not in out


def test_a_scan_error_outside_the_unit_interval_is_a_numerical_failure(
    tmp_path, capsys, monkeypatch
):
    solved = SimpleNamespace(solution=SimpleNamespace(eta_max=1.5, diagnostics={}))
    monkeypatch.setattr(studies, "k_matrix", lambda dec, samples: solved)
    code, _, err = run(
        ["scan-waist", "--N", "3", "--w0-points", "3", "--out", str(tmp_path), "--no-timestamp"],
        capsys,
    )
    assert code == 1
    assert err.startswith("numerical failure:") and "outside [0, 1]" in err


@pytest.mark.parametrize(
    "argv, stem, key",
    [
        (["efficiency", "--N", "1", "--w0", "1"], "efficiency_1_0.6", "spectral_gap"),
        (["disorder", "--N", "3", "--w0", "1", "--sigma-list", "0.01", "--samples", "2"],
         "disorder_3_0.6", "loglog_slope"),
        # at tiny sigma the mean losses come out negative, and have no logarithm
        (["disorder", "--N", "3", "--w0", "1", "--sigma-list", "1e-6,2e-6", "--samples", "2",
          "--workers", "1"], "disorder_3_0.6", "loglog_slope"),
    ],
    ids=["single-atom-gap", "single-sigma-slope", "non-positive-loss-slope"],
)
def test_summaries_are_strict_json(tmp_path, capsys, argv, stem, key):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    assert run([*argv, "--out", str(tmp_path), "--no-timestamp"], capsys)[0] == 0
    doc = json.loads((tmp_path / f"{stem}.json").read_text(), parse_constant=refuse)
    found = doc["solution"]["diagnostics"] if "solution" in doc else doc
    assert found[key] is None  # infinite gap of a single atom, slope without a fit
