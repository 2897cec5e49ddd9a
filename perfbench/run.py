"""arraymem benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload, both modes

The passes of a run execute in one fresh interpreter (``passes.py``) that
imports ``arraymem.cli`` from ``src/`` once and calls ``main`` as the
``arraymem`` command would. Pass 0 is a ``--workers 1`` warm-up left out
of the timings; every later pass must write the same CSV bytes, so for
the Monte Carlo workload the parallel tables are checked against it.
The harness checks every pass's output files and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it records the machine and the raw pass times.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median of several fresh imports), the pass wall time (a trimmed mean over
the run's passes), configs/s at that time and the peak RSS of the run's
process and its pool workers. --trace 1 cycles an untraced default-workers pass, an untraced
``--workers 1`` pass and a traced ``--workers 1`` pass, and reports the
per-layer metrics (medians over the traced passes).

The seed reaches the program only as ``--seed``. Only the Monte Carlo
workload depends on it; the other two pass it and ignore it.

The harness never sets a BLAS or OpenMP thread variable: passes inherit
the caller's environment, and the inherited values are recorded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
DEADLINE_S = 170.0
SETUP_REPEATS = 3
REF_ATOL = 1e-12
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments, without --seed and the output flags
    configs: int  # study configurations solved per pass

    @property
    def monte_carlo(self) -> bool:
        """Outputs depend on --seed."""
        return self.configs > 1


WORKLOADS = {
    w.name: w
    for w in (
        # Perfect lattice, two-level: golden-section waist search, a second
        # eigendecomposition in the CLI and 25 finite-window evaluations.
        # Retrieval (K and its eigh) dominates.
        Workload("finite-time-n20", ("finite-time", "--N", "20", "--Td", "10"), 1),
        # Same driver on the 588x588 isotropic matrix: the raw eig and the
        # bilinear post-pass of the spectral layer dominate.
        Workload("isotropic-n14", ("optimal-waist", "--N", "14", "--model", "isotropic"), 1),
        # Hole Monte Carlo at the default worker count: each config rebuilds
        # M and runs a full eig, and breaks the lattice symmetry. One sample
        # per hole count keeps a pass near 3 s, so a run holds about ten
        # passes: the pass-to-pass spread comes from BLAS threads
        # oversubscribing the cores and does not shrink with longer passes.
        Workload(
            "holes-n10",
            ("holes", "--N", "10", "--w0", "1.5", "--hole-counts", "1-20", "--samples", "1"),
            20,
        ),
    )
}

# Small variants of the workloads, for the benchmark's own tests.
TINY_WORKLOADS = {
    w.name: w
    for w in (
        Workload("finite-time-n4", ("finite-time", "--N", "4", "--Td", "10"), 1),
        Workload("isotropic-n4", ("optimal-waist", "--N", "4", "--model", "isotropic"), 1),
        Workload(
            "holes-n4",
            ("holes", "--N", "4", "--w0", "1.5", "--hole-counts", "1-2", "--samples", "1"),
            2,
        ),
    )
}


class SetupError(Exception):
    """The checkout cannot run the program at all."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd, deadline):
    """Run cmd in its own session; kill its whole group if the deadline passes.

    Returns the child's stdout, or None when it timed out or exited non-zero.
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
        return None
    return out


def measure_setup(deadline) -> list:
    """Seconds from spawning an interpreter to ``arraymem.cli`` imported."""
    if not (ROOT / "src" / "arraymem" / "cli.py").is_file():
        raise SetupError(f"no arraymem sources under {ROOT / 'src'}")
    code = (
        "import time, arraymem.cli; "
        "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), arraymem.cli.__file__)"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first import compiles bytecode
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = _run_child([sys.executable, "-c", code], deadline)
        if out is None:
            raise SetupError("importing arraymem.cli failed")
        stamp, path = out.split()
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise SetupError(f"arraymem imported from {path}, not from this checkout")
        if i:
            times.append(float(stamp) - start)
    return times


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _csv_column(path, column) -> list:
    with open(path, newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def read_outputs(command: str, outdir: Path) -> dict:
    """The checked values of one pass, read from its CSV and JSON files."""
    summary = json.loads(next(outdir.glob("*.json")).read_text())
    if command == "finite-time":
        return {
            "w0": summary["w0"],
            "eta_infinite": summary["eta_infinite"],
            "eta_Td": _csv_column(next(outdir.glob("*.csv")), "eta_Td"),
        }
    if command == "optimal-waist":
        return {"w0_opt": summary["w0_opt"], "epsilon_opt": summary["epsilon_opt"]}
    if command == "holes":
        return {
            "alpha": summary["alpha"],
            "eta_def": _csv_column(next(outdir.glob("*.csv")), "eta_def"),
        }
    raise ValueError(f"no output reader for {command!r}")


def reference_for(workload: Workload, seed: int, references: dict):
    """Reference values for this workload and seed, or None if there are none."""
    ref = references.get(workload.name)
    if ref is None:
        return None
    if tuple(ref["argv"]) != workload.argv:
        raise SetupError(f"references for {workload.name} were made for {ref['argv']}")
    if workload.monte_carlo:
        return ref["by_seed"].get(str(seed))
    return ref["values"]


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def check_outputs(workload: Workload, got: dict, expected) -> list:
    """Problems found in one pass's outputs (empty when it is correct)."""
    problems = [
        f"{key} outside [0, 1]"
        for key, value in got.items()
        if key.startswith("eta") and not all(0.0 <= v <= 1.0 for v in _as_list(value))
    ]
    for key, want in (expected or {}).items():
        have, want = _as_list(got.get(key)), _as_list(want)
        if len(have) != len(want) or any(abs(h - w) > REF_ATOL for h, w in zip(have, want)):
            problems.append(f"{key} differs from the reference by more than {REF_ATOL:g}")
    return problems


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def check_pass(workload: Workload, report: dict, expected) -> list:
    """Problems with one pass: its exit code and its output files."""
    if report["exit"] != 0:
        return [f"exit {report['exit']}: {report.get('error', '')}"]
    try:
        got = read_outputs(workload.argv[0], Path(report["outdir"]))
    except (StopIteration, KeyError, TypeError, ValueError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]
    return check_outputs(workload, got, expected)


def _csv_bytes(report):
    csvs = sorted(Path(report["outdir"]).glob("*.csv"))
    return csvs[0].read_bytes() if csvs else None


def _walls(passes, kind) -> list:
    return [p["wall_s"] for p in passes if p["kind"] == kind and "wall_s" in p]


def pass_time(walls) -> float:
    """Mean pass wall time without the fastest and slowest tenth of passes.

    Not the median: on the Monte Carlo workload single passes take one of
    two speeds, as the pool's BLAS threads happen to collide or not, and
    the median of a run's passes jumps between them. The trimmed mean
    averages over both and still drops a pass stalled by the machine.
    """
    cut = len(walls) // 10
    return statistics.mean(sorted(walls)[cut:len(walls) - cut])


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            references: dict | None = None) -> dict:
    """Run one workload for `seconds` and return the result record."""
    deadline = time.monotonic() + DEADLINE_S
    if references is None:
        references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    expected = reference_for(workload, seed, references)
    setup = measure_setup(deadline)
    outroot = OUT / workload.name
    shutil.rmtree(outroot, ignore_errors=True)
    spec = {
        "argv": [*workload.argv, "--seed", str(seed)],
        "seconds": seconds,
        # traced passes run serially: spans recorded in pool workers would be lost
        "cycle": ["default", "workers1", "traced"] if trace else ["default"],
        "outroot": str(outroot),
    }
    out = _run_child([sys.executable, str(HERE / "passes.py"), json.dumps(spec)], deadline)
    if out is None:
        raise SetupError("the passes did not complete")
    session = json.loads(out.strip().splitlines()[-1])
    passes = session["passes"]

    for p in passes:
        p["problems"] = check_pass(workload, p, expected)
    first_csv = next((c for c in map(_csv_bytes, passes) if c is not None), None)
    for p in passes:
        csv_now = _csv_bytes(p)
        if csv_now is not None and csv_now != first_csv:
            p["problems"].append("CSV differs from the run's first CSV")
    failed = sum(bool(p["problems"]) for p in passes)

    walls = _walls(passes, "default")
    if not walls:
        raise SetupError("no default pass reported a wall time")
    wall = pass_time(walls)
    if trace:
        traced = [p["layers"] for p in passes if "layers" in p]
        if not traced:
            raise SetupError("no traced pass completed")
        wall1 = pass_time(_walls(passes, "workers1"))
        metrics = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        metrics["studies.pool_speedup"] = wall1 / wall
        metrics["trace.overhead_s"] = pass_time(_walls(passes, "traced")) - wall1
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "configs_per_s": workload.configs / wall,
            "peak_rss_mb": max(session["rss_self_kb"], session["rss_children_kb"]) / 1024.0,
        }
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
        "passes": [
            {"kind": p["kind"], "wall_s": p.get("wall_s"), "problems": p["problems"]}
            for p in passes
        ],
        "setup_s": setup,
        "checked_against_reference": expected is not None,
    }


# ---------------------------------------------------------------------------
# Machine record and entry point
# ---------------------------------------------------------------------------


def git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    import numpy
    import scipy

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=["all", *WORKLOADS],
        help="one workload, or all of them, untraced and then traced (the default)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with one workload: report the per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    try:
        units = _units()
        info = machine()
        for name, trace in runs:
            record = measure(WORKLOADS[name], args.seed, args.seconds, trace)
            record.update(workload=name, seed=args.seed, machine=info)
            print(json.dumps(record), flush=True)
            result = {key: record[key] for key in ("correct", "attempted", "failed")}
            result["metrics"] = {
                key: {"value": value, "unit": units[key]} for key, value in record["metrics"].items()
            }
            print(json.dumps(result), flush=True)
    except (SetupError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
