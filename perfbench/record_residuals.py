#!/usr/bin/env python3
"""Record the residuals the program prints on the spectral workload, for its checks.

    python3 perfbench/record_residuals.py --seeds 16

For each seed it writes the ``spectral`` workload's large family through the
CLI, runs ``pagree`` on each of the workload's member pairs, and stores the
printed residual in ``perfbench/recorded_residuals.json``.  The spectral
check compares later runs of the same seed against these values, so run this
only at a commit whose spectral path is trusted.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from workloads import make_plan

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_name("recorded_residuals.json")


def record(seed: int, main) -> dict[str, float]:
    plan = make_plan("spectral", seed)
    residuals = {}
    with contextlib.redirect_stderr(io.StringIO()):
        if main(plan.families[0]) != 0:
            raise RuntimeError(f"family for seed {seed} failed")
        for op in (op for op in plan.ops if op.kind == "pagree_spectral"):
            if main(op.cli_argv()) != 0:
                raise RuntimeError(f"pagree {op.argv} failed")
            pair = op.params["pair"]
            result = json.loads(Path(op.out).read_bytes())["result"]
            residuals[f"{pair[0]},{pair[1]}"] = result["residual"]
    return residuals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16, help="record seeds 0..N-1")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from sqsa.cli import main as cli_main

    table = {"residuals": {}}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=scratch)
    previous = os.getcwd()
    os.chdir(work)
    try:
        for seed in range(args.seeds):
            table["residuals"][str(seed)] = record(seed, cli_main)
            print(seed, table["residuals"][str(seed)], flush=True)
    finally:
        os.chdir(previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    table["note"] = ("residual printed by `sqsa pagree` (default method) for the spectral "
                     "workload's member pairs, keyed by seed and member pair")
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
