"""Write references.json: the checked outputs of every workload.

Run from the repository root, at the commit whose outputs the references
certify:

    python3 perfbench/make_references.py

A change that claims to keep the program's outputs must pass the checks
against the committed file. Regenerate it only with a change that alters
the outputs on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import passes
import run

# The Monte Carlo workload's outputs depend on the seed: 12345 is the
# program's default seed, the small range covers the seeds a benchmark
# run is likely to be given.
HOLE_SEEDS = (12345, *range(64))


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from arraymem import cli

    outroot = run.OUT / "references"
    shutil.rmtree(outroot, ignore_errors=True)

    def outputs(workload, seed):
        outdir = outroot / f"{workload.name}-{seed}"
        report = passes.run_pass(cli, [*workload.argv, "--seed", str(seed)], "workers1", outdir)
        if report["exit"] != 0:
            sys.exit(f"{workload.name} seed {seed}: {report}")
        return run.read_outputs(workload.argv[0], outdir)

    references = {"commit": run.git_commit()}
    for workload in (*run.WORKLOADS.values(), *run.TINY_WORKLOADS.values()):
        entry = {"argv": list(workload.argv)}
        if workload.monte_carlo:
            seeds = HOLE_SEEDS if workload.name in run.WORKLOADS else (12345,)
            entry["by_seed"] = {str(s): outputs(workload, s) for s in seeds}
        else:
            entry["values"] = outputs(workload, 12345)
        references[workload.name] = entry
        print(workload.name, "done", flush=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
