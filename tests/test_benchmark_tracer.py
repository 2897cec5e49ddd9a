"""The benchmark's tracer still fits the package it traces.

perfbench/tracer.py wraps package functions by module and name, so a
rename in src/ breaks traced benchmark runs; this runs the tracer the way
the benchmark does, on small inputs.
"""

import importlib
import importlib.util
from pathlib import Path

from arraymem import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_traced_run_and_restores_every_name(tmp_path, capsys):
    tracer = _load_tracer()
    for module_name, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    argvs = [
        ["finite-time", "--N", "3"],
        ["optimal-waist", "--N", "3", "--model", "isotropic"],
        ["holes", "--N", "3", "--w0", "1", "--hole-counts", "1", "--samples", "1",
         "--workers", "1"],
    ]
    for argv in argvs:
        with tracer.Tracer() as t:
            wrapped = list(t._patches)  # (owner, name, original) of every wrapped name
            code = cli.main(argv + ["--out", str(tmp_path / argv[0]), "--no-timestamp"])
        assert code == 0, argv
        metrics = tracer.layer_metrics(t.spans)
        assert metrics["spectral.calls"] >= 1 and metrics["modes.norm_calls"] >= 1, argv
        assert len(wrapped) >= len(tracer.TARGETS)
        assert all(getattr(owner, name) is original for owner, name, original in wrapped)
    capsys.readouterr()
