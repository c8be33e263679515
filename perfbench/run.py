#!/usr/bin/env python3
"""Benchmark of the sqsa CLI: two workloads, checked outputs, optional tracing.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see perfbench/README.md).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric's median, tail percentile and sample count, and
the environment.  ``--workload all`` runs every workload in its own process.

The program is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.  Scratch files go under
``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # every run compiles sqsa alike; nothing is left behind
# One BLAS thread: ``--jobs`` is the parallelism under test, and a second BLAS
# thread handing off each of certify's ~47k tiny matvecs doubles its run-to-run
# noise.  Set before numpy is first imported (in set-up); probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path

from harness import (
    Outcome, SetupError, describe, environment, peak_rss_mb, probe_setups, run_workload, set_up,
)
from workloads import WORKLOADS, Plan, make_plan

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_a_s": "s", "op_b_s": "s", "peak_rss_mb": "MB"}
RUN_TIMEOUT_S = 600


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(plan: Plan, seconds: int) -> tuple[dict, Outcome, list[str]]:
    run = run_workload(plan, ROOT, seconds)
    passes = run.passes
    samples = {
        "setup_s": [run.setup_s, *probe_setups(plan, ROOT)],
        "wall_s": [p.wall for p in passes],
        "op_a_s": [p.group(plan.group_a) for p in passes],
        "op_b_s": [p.group(plan.group_b) for p in passes],
        "peak_rss_mb": [peak_rss_mb()],
    }
    lines = [describe(name, END_TO_END_UNITS[name], values) for name, values in samples.items()]
    for kind in plan.kinds:
        latencies = [latency for p in passes for k, latency in p.latencies if k == kind]
        lines.append(describe(f"{kind}_s", "s", latencies))
    outcome = run.outcome
    error_rate = outcome.failed / outcome.attempted
    lines.append(f"{'error_rate':<24} {'ratio':<6} {error_rate:.6g} "
                 f"({outcome.failed} of {outcome.attempted} ops)")
    metrics = {name: _metric(statistics.median(values), END_TO_END_UNITS[name])
               for name, values in samples.items()}
    return metrics, outcome, lines


def per_layer(plan: Plan, seconds: int) -> tuple[dict, Outcome, list[str]]:
    from layers import PER_LAYER, TARGETS, layer_metrics
    from spans import Tracer, nesting_violations

    tracer = Tracer(TARGETS)
    run = run_workload(plan, ROOT, seconds, tracer)
    spans = tracer.take()
    for problem in nesting_violations(spans)[:10]:
        run.outcome.fail(f"trace: {problem}")
    traced = [index for index, p in enumerate(run.passes) if p.traced]
    by_pass = [[span for span in spans if span.phase == index] for index in traced]
    overhead = (statistics.median(p.wall for p in run.passes if p.traced)
                - statistics.median(p.wall for p in run.passes if not p.traced))
    values = layer_metrics(by_pass, run.setup_spans, overhead)
    lines = [f"{name:<34} {PER_LAYER[name]:<6} {value:.6g}" for name, value in values.items()]
    lines.append(f"{'traced passes':<34} {'count':<6} {len(traced)}")
    metrics = {name: _metric(value, PER_LAYER[name]) for name, value in values.items()}
    return metrics, run.outcome, lines


def run_one(args: argparse.Namespace) -> int:
    plan = make_plan(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{plan.workload}-", dir=WORK)
    previous = os.getcwd()
    os.chdir(work)  # relative file names keep the CLI's output bytes location-free
    try:
        if args.setup_probe:
            elapsed, _ = set_up(plan, ROOT)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, outcome, lines = measure(plan, args.seconds)
        env = environment(plan)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"# perfbench {plan.workload} seed={plan.seed} trace={args.trace}")
    for line in lines:
        print(line)
    for error in outcome.errors:
        print(f"# FAILED {error}")
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    results = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0 or not completed.stdout.strip():
            results[workload] = {"correct": False, "returncode": completed.returncode}
            continue
        results[workload] = json.loads(completed.stdout.strip().splitlines()[-1])
    correct = all(result.get("correct") for result in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sqsa" / "__init__.py").is_file():
        print(f"perfbench: no sqsa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
