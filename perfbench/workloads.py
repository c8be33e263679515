"""Workload plans: the CLI invocations each workload runs, derived from its seed.

A plan is plain data (argv lists and file contents) built with the standard
library only, so it can be made before ``sqsa`` is imported.  The seed fixes
every family seed, member pair and query script; the program under test sees
only the family files it writes itself through ``sqsa family`` and the query
files written here.

Every op runs through ``sqsa.cli.main`` with ``--jobs 2 --out <file>``.  Op
kinds are grouped into two gated latencies per workload: ``op_a_s`` times the
ops that the workload's ROADMAP item rewrites, ``op_b_s`` the control ops on
neighbouring code that the item should leave no slower.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

JOBS = 2

# The spectral pair uses the paper's thresholds at n=24: the family default
# alphabet copies and T = min_word_length(24) = 2630.  The Fourier matrix
# build dominates there as it does at n=30, at a quarter of the cost, which
# buys several passes per run and a full-size warm-up inside set-up.
SPECTRAL_N = 24
SPECTRAL_PAIRS = 2  # disjoint member pairs, each run in every pass
CERTIFY_N = 8
CERTIFY_D = 12
ORACLE_N = 5
ORACLE_MEMBERS = 8
# Exact sessions: k=1, T=4 gives 10**4 * 5 inputs, inside the oracle's
# enumeration limit.  A tolerance just below the self-correlation 1 - 1/n
# eliminates only each reference member (and exact duplicates of it), so a
# session does the same work for every seed; with a small tolerance the
# survivor count collapses at a seed-dependent rate and so does the cost.
ORACLE_EXACT_T = 4
ORACLE_EXACT_TAU = 0.79
# Sampled sessions: threshold alphabet, T=48, far above the enumeration limit.
ORACLE_SAMPLED_T = 48
ORACLE_SAMPLED_TAU = 0.2
ORACLE_SAMPLES = 10_000
BRUTE_N, BRUTE_K, BRUTE_T = 4, 2, 6
MC_N, MC_SAMPLES = 8, 100_000
EIGEN_N = 20
MIXING_T_MAX = 2000


def min_word_length(n: int) -> int:
    """``ceil(2 n ln n!)``, the word length of the paper's 1/n! target."""
    return math.ceil(2 * n * math.log(math.factorial(n)))


@dataclass
class Op:
    """One CLI invocation; ``kind`` names what it measures."""

    kind: str
    argv: list[str]
    out: str
    params: dict = field(default_factory=dict)

    def cli_argv(self, jobs: int = JOBS) -> list[str]:
        return [*self.argv, "--jobs", str(jobs), "--out", self.out]


@dataclass
class Plan:
    workload: str
    seed: int
    families: list[list[str]]
    files: dict[str, str]
    warmups: list[Op]
    ops: list[Op]  # one pass
    group_a: tuple[str, ...]
    group_b: tuple[str, ...]

    @property
    def kinds(self) -> tuple[str, ...]:
        return self.group_a + self.group_b


def _family(name: str, n: int, m: int, seed: int, k: int | None = None) -> list[str]:
    argv = ["family", "--n", str(n), "--m", str(m), "--seed", str(seed), "--out", name]
    if k is not None:
        argv[1:1] = ["--k", str(k)]
    return argv


def _eigen_ops(family: str, n: int, t_max: int, prefix: str) -> list[Op]:
    spectrum = Op(
        "spectrum",
        ["spectrum", "--method", "realized", "--family", family, "--members", "0,1"],
        f"{prefix}spectrum.csv",
        {"n": n},
    )
    mixing = Op(
        "mixing",
        ["mixing", "--family", family, "--members", "0,1", "--t-max", str(t_max),
         "--format", "json"],
        f"{prefix}mixing.json",
        {"n": n, "t_max": t_max},
    )
    return [spectrum, mixing]


def _pagree(kind: str, family: str, n: int, pair: tuple[int, int], t: int, out: str,
            **extra) -> Op:
    argv = ["pagree", "--family", family, "--members", f"{pair[0]},{pair[1]}", "--t", str(t)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    return Op(kind, argv, out, {"family": family, "n": n, "pair": pair, "t": t, **extra})


def _spectral(seed: int, rng: random.Random) -> Plan:
    big, small = rng.getrandbits(32), rng.getrandbits(32)
    order = rng.sample(range(2 * SPECTRAL_PAIRS), 2 * SPECTRAL_PAIRS)
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(SPECTRAL_PAIRS)]
    eigen_family = rng.getrandbits(32)  # drawn last: the recorded residuals keep their pairs
    t_big, t_small = min_word_length(SPECTRAL_N), min_word_length(CERTIFY_N)
    certify = Op(
        "certify",
        ["certify", "--family", "f8.bin", "--t", str(t_small), "--d", str(CERTIFY_D)],
        "certify.json",
        {"n": CERTIFY_N, "d": CERTIFY_D, "t": t_small},
    )
    return Plan(
        "spectral",
        seed,
        families=[
            _family("fbig.bin", SPECTRAL_N, 2 * SPECTRAL_PAIRS, big),
            _family("f8.bin", CERTIFY_N, CERTIFY_D, small),
            _family("f20.bin", EIGEN_N, 2, eigen_family),
        ],
        files={},
        # The first op at a new matrix size pays for fresh memory, so the
        # pagree warm-up runs at full size.
        warmups=[
            _pagree("pagree_spectral", "fbig.bin", SPECTRAL_N, pairs[0], t_big, "warm-pagree.json"),
            Op(
                "certify",
                ["certify", "--family", "f8.bin", "--t", str(t_small), "--d", "4"],
                "warm-certify.json",
                {"n": CERTIFY_N, "d": 4, "t": t_small},
            ),
            *_eigen_ops("f20.bin", EIGEN_N, 50, "warm-"),
        ],
        ops=[
            *(_pagree("pagree_spectral", "fbig.bin", SPECTRAL_N, pair, t_big, f"pagree-{i}.json")
              for i, pair in enumerate(pairs)),
            certify,
            *_eigen_ops("f20.bin", EIGEN_N, MIXING_T_MAX, ""),
        ],
        # Item 2 replaces the Fourier matrix in pagree and certify; spectrum
        # and mixing keep a dense matrix and must not get slower.
        group_a=("pagree_spectral", "certify"),
        group_b=("spectrum", "mixing"),
    )


def _queries(rng: random.Random) -> list[dict]:
    references = rng.sample(range(ORACLE_MEMBERS), 4)
    script = [{"builtin": "state-agreement", "params": {"member": r}} for r in references]
    script.append({"builtin": "label-indicator", "params": {"label": rng.randrange(ORACLE_N)}})
    script.append({"builtin": "final-state-parity", "params": {}})
    return script


def _oracle_op(kind, family, queries, t, tau, out, script, samples=None, session_seed=None) -> Op:
    argv = ["oracle", "--family", family, "--queries", queries, "--t", str(t), "--tau", str(tau)]
    if samples is not None:
        argv += ["--samples", str(samples), "--seed", str(session_seed)]
    return Op(kind, argv, out, {"n": ORACLE_N, "m": ORACLE_MEMBERS, "t": t, "script": script})


def _oracle(seed: int, rng: random.Random) -> Plan:
    exact_family, sampled_family = rng.getrandbits(32), rng.getrandbits(32)
    session_seed = rng.getrandbits(32)
    exact_script, sampled_script = _queries(rng), _queries(rng)
    brute_family, mc_family, mc_seed = (rng.getrandbits(32) for _ in range(3))
    t_mc = min_word_length(MC_N)
    files = {"qx.json": json.dumps(exact_script), "qs.json": json.dumps(sampled_script)}

    def exact(t, out):
        return _oracle_op(
            "oracle_exact", "fx.bin", "qx.json", t, ORACLE_EXACT_TAU, out, exact_script
        )

    def sampled(t, samples, out):
        return _oracle_op(
            "oracle_sampled", "fs.bin", "qs.json", t, ORACLE_SAMPLED_TAU, out,
            sampled_script, samples, session_seed,
        )

    return Plan(
        "oracle",
        seed,
        families=[
            _family("fx.bin", ORACLE_N, ORACLE_MEMBERS, exact_family, k=1),
            _family("fs.bin", ORACLE_N, ORACLE_MEMBERS, sampled_family),
            _family("f4.bin", BRUTE_N, 2, brute_family, k=BRUTE_K),
            _family("f8.bin", MC_N, 2, mc_family),
        ],
        files=files,
        # T=8 over the threshold alphabet is far above the enumeration limit,
        # so the sampled warm-up takes the sampled path.  At shorter T the
        # members are so correlated that every survivor can be eliminated,
        # and a sampled query with no survivors fails in sq.oracle_answer.
        warmups=[
            exact(ORACLE_EXACT_T, "warm-exact.jsonl"),
            sampled(8, 640, "warm-sampled.jsonl"),
            _pagree("pagree_brute", "f4.bin", BRUTE_N, (0, 1), 3, "warm-brute.json", method="brute"),
            _pagree("pagree_mc", "f8.bin", MC_N, (0, 1), t_mc, "warm-mc.json",
                    method="mc", samples=6400, seed=mc_seed),
        ],
        ops=[
            exact(ORACLE_EXACT_T, "exact.jsonl"),
            sampled(ORACLE_SAMPLED_T, ORACLE_SAMPLES, "sampled.jsonl"),
            _pagree("pagree_brute", "f4.bin", BRUTE_N, (0, 1), BRUTE_T, "brute.json", method="brute"),
            _pagree("pagree_mc", "f8.bin", MC_N, (0, 1), t_mc, "mc.json",
                    method="mc", samples=MC_SAMPLES, seed=mc_seed),
        ],
        # Item 3 replaces both oracle paths; brute force and Monte Carlo
        # pagree run the same automata.run_words and word enumeration
        # outside the oracle and must not get slower.
        group_a=("oracle_exact", "oracle_sampled"),
        group_b=("pagree_brute", "pagree_mc"),
    )


BUILDERS = {"spectral": _spectral, "oracle": _oracle}
WORKLOADS = tuple(BUILDERS)


def make_plan(workload: str, seed: int) -> Plan:
    """The deterministic plan of one workload for one seed."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return BUILDERS[workload](seed, random.Random(f"perfbench:{workload}:{seed}"))
