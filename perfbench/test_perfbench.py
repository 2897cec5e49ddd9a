"""Tests of the benchmark harness and the layer tracer.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(autouse=True)
def one_setup_import(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(run.TINY_WORKLOADS))
def test_tiny_workload_untraced(name):
    record = run.measure(run.TINY_WORKLOADS[name], 12345, 0, trace=False)
    assert record["correct"], record["passes"]
    assert record["failed"] == 0
    assert record["checked_against_reference"]
    assert set(record["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(v > 0 for v in record["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.TINY_WORKLOADS))
def test_tiny_workload_traced(name):
    record = run.measure(run.TINY_WORKLOADS[name], 12345, 0, trace=True)
    assert record["correct"], record["passes"]
    assert [p["kind"] for p in record["passes"]] == ["warmup", "default", "workers1", "traced"]
    assert set(record["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    assert record["metrics"]["spectral.calls"] >= 1


def test_holes_seed_without_reference_still_checked():
    record = run.measure(run.TINY_WORKLOADS["holes-n4"], 7, 0, trace=False)
    assert not record["checked_against_reference"]
    assert record["correct"]
    # the serial warm-up and the default-workers pass agree byte for byte
    assert [p["kind"] for p in record["passes"]] == ["warmup", "default"]


def test_wrong_reference_fails_every_pass():
    workload = run.TINY_WORKLOADS["finite-time-n4"]
    references = copy.deepcopy(json.loads(run.REFERENCES.read_text()))
    references[workload.name]["values"]["eta_Td"][-1] += 1e-11
    record = run.measure(workload, 12345, 0, trace=False, references=references)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] >= 1


def test_check_outputs_flags_range_and_length():
    workload = run.TINY_WORKLOADS["holes-n4"]
    assert run.check_outputs(workload, {"eta_def": [0.5, 1.5]}, None)
    assert run.check_outputs(workload, {"eta_def": [0.5]}, {"eta_def": [0.5, 0.5]})
    assert not run.check_outputs(workload, {"eta_def": [0.5]}, {"eta_def": [0.5 + 1e-13]})


def test_pass_time_drops_the_extreme_tenths():
    assert run.pass_time([2.0, 4.0]) == 3.0
    assert run.pass_time([1.0] * 9 + [100.0]) == 1.0  # a stalled pass
    assert run.pass_time([0.5] + [1.0] * 18 + [100.0]) == 1.0


def test_thread_variables_are_inherited_not_set():
    env = run._env()
    for key in run.THREAD_VARS:
        assert env.get(key) == os.environ.get(key)


def _bindings():
    import numpy.linalg
    import scipy.linalg

    mods = [m for n, m in sys.modules.items() if n.startswith("arraymem")]
    state = {(id(m), k): v for m in mods for k, v in vars(m).items()}
    state["eig"] = scipy.linalg.eig
    state["eigh"] = numpy.linalg.eigh
    return state


def test_tracer_restores_every_wrapped_name():
    import arraymem.cli
    import arraymem.studies

    before = _bindings()
    original = arraymem.studies.eigendecompose
    with tracer.Tracer():
        assert arraymem.studies.eigendecompose is not original
        assert arraymem.cli.eigendecompose is arraymem.studies.eigendecompose
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_and_cli_ms_add_up_to_traced_wall(tmp_path):
    from arraymem import cli

    argv = [*run.TINY_WORKLOADS["finite-time-n4"].argv, "--out", str(tmp_path), "--no-timestamp"]
    with tracer.Tracer() as t:
        start = time.perf_counter()
        assert cli.main(argv) == 0
        wall = time.perf_counter() - start
    layers = tracer.layer_metrics(t.spans)
    assert sum(tracer.self_times(t.spans)) == pytest.approx(wall, rel=1e-2, abs=1e-3)
    # the time metrics partition the pass: no span is counted twice or lost
    timed = [k for k in layers if k.endswith("ms")]
    assert 1e-3 * sum(layers[k] for k in timed) == pytest.approx(wall, rel=1e-2, abs=1e-3)
    assert layers["dynamics.calls"] == 25
    assert layers["spectral.dim3"] == layers["spectral.calls"] * 16**3


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "holes-n10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rejected_arguments_fail_the_run_without_a_result():
    broken = run.Workload("broken", ("holes", "--N", "not-a-number"), 1)
    with pytest.raises(run.SetupError, match="no default pass"):
        run.measure(broken, 12345, 0, trace=False)
