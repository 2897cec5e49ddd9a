"""The passes of one benchmark run, in one fresh interpreter.

Usage: python3 perfbench/passes.py SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments without output flags),
``seconds``, ``cycle`` (pass kinds repeated until ``seconds`` have passed)
and ``outroot``. A pass of kind ``default`` runs at the CLI's default
worker count, ``workers1`` adds ``--workers 1`` and ``traced`` is a
``--workers 1`` pass under the layer tracer. Pass 0, of kind ``warmup``,
is a ``--workers 1`` pass that the timings leave out. Each pass calls
``arraymem.cli.main`` and writes its files to its own directory; traced
spans go next to it. The passes stop early at the first one that exits
non-zero or raises.

Prints one JSON line: per pass its kind, exit code, wall time, output
directory and (when traced) per-layer metrics; and the peak RSS of this
process and of its children (the Monte Carlo pool workers).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer


def run_pass(cli, argv, kind, outdir: Path) -> dict:
    outdir.mkdir(parents=True)
    argv = [*argv, "--out", str(outdir), "--no-timestamp"]
    if kind != "default":
        argv += ["--workers", "1"]
    record = {"kind": kind, "outdir": str(outdir)}
    t = tracer.Tracer() if kind == "traced" else contextlib.nullcontext()
    try:
        with t, contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            record["exit"] = cli.main(argv)
            record["wall_s"] = time.perf_counter() - start
    except (Exception, SystemExit):  # a crashing pass is a failed operation, not the end of the run
        record["exit"] = "exception"
        record["error"] = traceback.format_exc(limit=-3)
        return record
    if kind == "traced":
        Path(f"{outdir}.spans.json").write_text(json.dumps(t.spans))
        record["layers"] = tracer.layer_metrics(t.spans)
    return record


def main(spec_json: str) -> int:
    spec = json.loads(spec_json)
    from arraymem import cli

    outroot = Path(spec["outroot"])

    def one(kind) -> bool:
        passes.append(run_pass(cli, spec["argv"], kind, outroot / f"{len(passes):03d}-{kind}"))
        return passes[-1]["exit"] == 0

    passes: list = []
    start = time.perf_counter()
    ok = one("warmup")
    while ok and (time.perf_counter() - start < spec["seconds"] or len(passes) == 1):
        ok = all(one(kind) for kind in spec["cycle"])
    print(json.dumps({
        "passes": passes,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
