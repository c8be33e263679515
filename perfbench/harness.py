"""One benchmark run of one workload: set up, time, check, report.

The run drives ``sqsa.cli.main(argv)`` in this process as a closed loop with
one client: each op starts when the previous one has finished.  A pass runs
the workload's op list once; passes repeat until ``--seconds`` have gone
by.  Op latency is the time around ``cli.main``; checks run outside it.

With tracing off the run reports the end-to-end metrics.  With tracing on,
passes alternate between untraced and traced (the same ops each time), the
traced ones give the per-layer metrics, and the difference between the two
kinds of pass is the tracing overhead.  Every op's output is checked; an op
repeated within the run must write the same bytes each time, traced or not.
After the timed passes, every warm-up op (at least one per subcommand) is
rerun with ``--jobs 1`` and must write the bytes it wrote with ``--jobs 2``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import JOBS, Op, Plan

MIN_PASSES = 2
SETUP_PROBES = 4  # extra set-ups in fresh processes; with the run's own, 5 samples
PROBE_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """The program could not be set up; the run prints no result."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    first_bytes: dict[tuple[str, ...], bytes] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.errors.append(message)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``sqsa.cli.main(argv)``, looked up at call time so a traced ``main`` is used."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = sys.modules["sqsa.cli"].main(argv)
    return code, stderr.getvalue()


def set_up(plan: Plan, root: Path, tracer=None) -> tuple[float, dict[str, bytes]]:
    """Import sqsa, write the families and query files, run the warm-up ops.

    Returns the elapsed seconds and each warm-up op's output bytes.
    """
    started = time.perf_counter()
    sqsa = importlib.import_module("sqsa.cli")
    source = (root / "src").resolve()
    if source not in Path(sqsa.__file__).resolve().parents:
        raise SetupError(f"imported sqsa from {sqsa.__file__}, not from {source}")
    if tracer is not None:
        tracer.install()
    try:
        for argv in plan.families:
            code, stderr = run_cli(argv)
            if code != 0:
                raise SetupError(f"sqsa {' '.join(argv)} failed: {stderr.strip()}")
        for name, text in plan.files.items():
            Path(name).write_text(text)
        outputs = {}
        for op in plan.warmups:
            code, stderr = run_cli(op.cli_argv())
            if code != 0:
                raise SetupError(f"warm-up sqsa {' '.join(op.argv)} failed: {stderr.strip()}")
            outputs[op.out] = Path(op.out).read_bytes()
        elapsed = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, outputs


class Checker:
    """Checks each op's output against references computed once per run."""

    def __init__(self, plan: Plan):
        import checks  # imported after set-up, whose time includes the numpy import

        self.checks = checks
        self.plan = plan
        self._references: dict[tuple, float] = {}

    def _spectral_p(self, op: Op) -> float:
        key = ("spectral", op.params["family"], op.params["pair"], op.params["t"])
        if key not in self._references:
            pair = op.params["pair"]
            argv = ["pagree", "--family", op.params["family"], "--members",
                    f"{pair[0]},{pair[1]}", "--t", str(op.params["t"]), "--out", "reference.json"]
            code, stderr = run_cli(argv)
            if code != 0:
                raise self.checks.CheckError(f"spectral reference failed: {stderr.strip()}")
            self._references[key] = json.loads(Path("reference.json").read_bytes())["result"]["p_agree"]
        return self._references[key]

    def _chain_residual(self, op: Op) -> float:
        key = ("chain", op.params["family"], op.params["pair"], op.params["t"])
        if key not in self._references:
            from sqsa.automata import deserialize_family

            family = deserialize_family(Path(op.params["family"]).read_bytes())
            a, b = (family.members[i] for i in op.params["pair"])
            self._references[key] = self.checks.pair_chain_residual(
                a.mask, b.mask, a.n_states, op.params["t"])
        return self._references[key]

    def prepare(self, ops: list[Op], outcome: Outcome) -> None:
        """Compute every reference the ops need, before any timing."""
        for op in ops:
            try:
                if op.kind == "pagree_spectral":
                    self._chain_residual(op)
                elif op.kind in ("pagree_brute", "pagree_mc"):
                    self._spectral_p(op)
            except (self.checks.CheckError, ValueError) as exc:
                outcome.fail(f"reference for {' '.join(op.argv)}: {exc}")

    def _check(self, op: Op, payload: bytes) -> None:
        checks, params = self.checks, op.params
        if op.kind == "pagree_spectral":
            recorded = None
            if op.params["family"] == "fbig.bin":
                recorded = checks.recorded_residual(self.plan.seed, params["pair"])
            checks.check_pagree_spectral(payload, params["n"], params["t"],
                                         self._chain_residual(op), recorded)
        elif op.kind == "certify":
            checks.check_certify(payload, params["d"], params["t"])
        elif op.kind == "pagree_brute":
            checks.check_pagree_brute(payload, self._spectral_p(op))
        elif op.kind == "pagree_mc":
            checks.check_pagree_mc(payload, self._spectral_p(op))
        elif op.kind == "spectrum":
            checks.check_spectrum(payload, params["n"])
        elif op.kind == "mixing":
            checks.check_mixing(payload, params["n"], params["t_max"])
        elif op.kind in ("oracle_exact", "oracle_sampled"):
            checks.check_oracle(payload, params["n"], params["m"], params["script"])
        else:
            raise checks.CheckError(f"no check for op kind {op.kind!r}")

    def problem(self, op: Op, payload: bytes) -> str | None:
        """Why ``payload`` is a wrong output of ``op``, or None when it is right.

        Malformed output (missing keys, wrong types) counts as wrong.
        """
        try:
            self._check(op, payload)
        except (self.checks.CheckError, KeyError, TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


def _run_op(op: Op, checker: Checker, outcome: Outcome) -> float:
    """Run, time and check one op; returns its latency in seconds."""
    argv = op.cli_argv()
    started = time.perf_counter()
    code, stderr = run_cli(argv)
    latency = time.perf_counter() - started
    if code != 0:
        problem = f"exit {code}: {stderr.strip()}"
    else:
        payload = Path(op.out).read_bytes()
        if payload != outcome.first_bytes.setdefault(tuple(argv), payload):
            problem = "bytes differ from an earlier run of the same op"
        else:
            problem = checker.problem(op, payload)
    outcome.attempted += 1
    outcome.failed += problem is not None
    if problem is not None:
        outcome.fail(f"{op.kind} ({' '.join(op.argv)}): {problem}")
    return latency


@dataclass
class Pass:
    traced: bool
    latencies: list[tuple[str, float]]

    @property
    def wall(self) -> float:
        return sum(latency for _, latency in self.latencies)

    def group(self, kinds: tuple[str, ...]) -> float:
        return sum(latency for kind, latency in self.latencies if kind in kinds)


def timed_passes(plan: Plan, checker: Checker, outcome: Outcome, seconds: float,
                 tracer=None) -> list[Pass]:
    """Closed loop over the op list until ``seconds`` have passed.

    With a tracer, odd passes are traced, so traced and untraced passes
    alternate and each traced pass follows an untraced one.
    """
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_PASSES or time.perf_counter() < deadline or (tracer and index % 2):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.phase = index
            tracer.install()
        try:
            latencies = [(op.kind, _run_op(op, checker, outcome)) for op in plan.ops]
        finally:
            if traced:
                tracer.uninstall()
        passes.append(Pass(traced, latencies))
        index += 1
    return passes


def check_jobs_neutral(plan: Plan, warm_outputs: dict[str, bytes], outcome: Outcome) -> None:
    """Rerun each warm-up op with ``--jobs 1``; its bytes must not change."""
    for op in plan.warmups:
        code, stderr = run_cli(op.cli_argv(jobs=1))
        if code != 0 or Path(op.out).read_bytes() != warm_outputs[op.out]:
            outcome.fail(f"{' '.join(op.argv)}: --jobs 1 output differs from --jobs {JOBS} "
                         f"({stderr.strip()})")


@dataclass
class Run:
    setup_s: float
    setup_spans: list
    passes: list[Pass]
    outcome: Outcome


def run_workload(plan: Plan, root: Path, seconds: float, tracer=None) -> Run:
    """Set up, check the warm-ups, run the timed passes, check ``--jobs`` neutrality."""
    setup_s, warm = set_up(plan, root, tracer)
    setup_spans = tracer.take() if tracer is not None else []
    checker, outcome = Checker(plan), Outcome()
    checker.prepare([*plan.warmups, *plan.ops], outcome)
    for op in plan.warmups:
        problem = checker.problem(op, warm[op.out])
        if problem is not None:
            outcome.fail(f"warm-up {op.kind}: {problem}")
    passes = timed_passes(plan, checker, outcome, seconds, tracer)
    check_jobs_neutral(plan, warm, outcome)
    return Run(setup_s, setup_spans, passes, outcome)


def probe_setups(plan: Plan, root: Path) -> list[float]:
    """Set-up time measured in fresh processes, which pay every cold cost again."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--workload", plan.workload,
             "--seed", str(plan.seed), "--setup-probe"],
            cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if completed.returncode != 0:
            raise SetupError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
        samples.append(float(json.loads(completed.stdout.splitlines()[-1])["setup_s"]))
    return samples


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, when its library can be found."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(plan: Plan) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "jobs": JOBS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[int | None, float | None]:
    """The highest whole percentile with at least ten samples above it, and its value."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in range(99, 0, -1):
        rank = max(1, -(-percentile * count // 100))  # nearest rank
        if count - rank >= 10:
            return percentile, ordered[rank - 1]
    return None, None


def describe(name: str, unit: str, samples: list[float]) -> str:
    percentile, value = tail(samples)
    tail_text = f"p{percentile}={value:.6g}" if percentile else "tail=n/a (<11 samples)"
    return f"{name:<24} {unit:<6} median={statistics.median(samples):.6g} {tail_text} n={len(samples)}"
