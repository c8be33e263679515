"""Output checks for every op the benchmark runs, and the references they use.

Each check parses the bytes an op wrote and raises :class:`CheckError` when
they are wrong.  References come from routes other than the one under
test: the spectral residual is recomputed with an independent
pair-chain propagator (and compared with the value recorded for this seed
when there is one), brute-force and Monte Carlo results are compared with
the spectral CLI result, and the oracle answers with their closed forms.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import min_word_length

RECORDED = Path(__file__).with_name("recorded_residuals.json")
# Relative tolerance on the spectral residual against the pair-chain
# reference and the recorded value.  The two algorithms agree to ~1e-11
# relative at n=30; the residual is below 1e-40 at the paper's word length,
# so a propagator stuck at a rounding floor fails this by many orders.
RESIDUAL_RTOL = 1e-9
BRUTE_ATOL = 1e-12
MC_SIGMAS = 5.0
ANSWER_ATOL = 1e-9
EIGEN_ATOL = 1e-12


class CheckError(Exception):
    """An op's output failed its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _json(payload: bytes) -> dict:
    try:
        return json.loads(payload)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def pair_chain_residual(mask_a: np.ndarray, mask_b: np.ndarray, n: int, word_length: int) -> float:
    """``p_agree - 1/n`` of two masked-transposition machines, by a route of its own.

    The joint law of both machines' states, from a shared uniform start,
    has uniform marginals, so it is ``J/n^2 + Y`` with ``Y`` of zero row and
    column sums, and ``p_agree - 1/n = trace(Y)``.  A transposition acts as
    ``P = I - r r^T`` with ``r = e_a - e_b``, and one alphabet-averaged step
    is ``Y <- Y - L_a Y - Y L_b + Lap(w_both * (Y_aa + Y_bb - Y_ab - Y_ba))``,
    where ``L_a`` and ``L_b`` are the Laplacians of the symbol weights acting
    on each machine and ``w_both`` weighs the symbols acting on both.
    Re-centring every step keeps ``Y`` in the zero-sum space, so the trace
    keeps its relative accuracy far below the rounding of ``1/n``.
    """
    n_trans = n * (n - 1) // 2
    mask_a = mask_a.reshape(-1, n_trans)
    mask_b = mask_b.reshape(-1, n_trans)
    size = mask_a.size
    both = (mask_a & mask_b).sum(axis=0) / size
    only_a = (mask_a & ~mask_b).sum(axis=0) / size
    only_b = (~mask_a & mask_b).sum(axis=0) / size
    low, high = np.triu_indices(n, 1)  # the alphabet's transposition order

    def laplacian(weights: np.ndarray) -> np.ndarray:
        matrix = np.zeros((n, n))
        matrix[low, high] = -weights
        matrix[high, low] = -weights
        matrix[np.diag_indices(n)] = -matrix.sum(axis=1)
        return matrix

    lap_a, lap_b = laplacian(only_a + both), laplacian(only_b + both)
    state = (np.eye(n) - 1.0 / n) / n
    for _ in range(word_length):
        spread = state[low, low] + state[high, high] - state[low, high] - state[high, low]
        state = state - lap_a @ state - state @ lap_b + laplacian(both * spread)
        state -= state.mean(axis=0, keepdims=True)
        state -= state.mean(axis=1, keepdims=True)
    return float(np.trace(state))


def recorded_residual(seed: int, pair: tuple[int, int]) -> float | None:
    """The spectral workload's residual recorded for ``seed`` and ``pair``, if any."""
    table = json.loads(RECORDED.read_text())["residuals"]
    value = table.get(str(seed), {}).get(f"{pair[0]},{pair[1]}")
    return None if value is None else float(value)


def check_pagree_spectral(payload: bytes, n: int, t: int, reference: float,
                          recorded: float | None = None) -> None:
    result = _json(payload)["result"]
    p, residual = result["p_agree"], result["residual"]
    _require((result["n_states"], result["word_length"]) == (n, t), "wrong n or T echoed")
    _require(abs(p - (1.0 / n + residual)) <= 4 * np.finfo(float).eps / n,
             f"p_agree - 1/n = {p - 1.0 / n!r} differs from residual {residual!r}")
    if t >= min_word_length(n):
        _require(abs(residual) <= 1.0 / math.factorial(n),
                 f"|residual| {abs(residual):.3e} above 1/n! at the paper's word length")
    for name, expected in (("pair-chain reference", reference), ("recorded value", recorded)):
        if expected is None:
            continue
        _require(abs(residual - expected) <= RESIDUAL_RTOL * abs(expected),
                 f"residual {residual!r} differs from the {name} {expected!r}")


def check_certify(payload: bytes, d: int, t: int) -> None:
    result = _json(payload)["result"]
    _require((result["dim"], result["word_length"]) == (d, t), "wrong d or T echoed")
    _require(result["passed"] is True, "certificate did not pass")
    _require(result["n_pairs"] == d * (d - 1) // 2, f"n_pairs {result['n_pairs']} != d(d-1)/2")
    _require(result["max_abs_correlation"] <= 1.0 / d,
             f"max |correlation| {result['max_abs_correlation']!r} above 1/d")


def check_pagree_brute(payload: bytes, spectral_p: float) -> None:
    result = _json(payload)["result"]
    _require(result["method"] == "brute-force", f"method {result['method']!r}")
    exact = Fraction(result["exact"])
    _require(abs(float(exact) - spectral_p) <= BRUTE_ATOL,
             f"enumerated {float(exact)!r} differs from spectral {spectral_p!r}")
    _require(result["p_agree"] == float(exact), "p_agree is not the exact fraction")


def check_pagree_mc(payload: bytes, spectral_p: float) -> None:
    result = _json(payload)["result"]
    _require(result["method"] == "monte-carlo", f"method {result['method']!r}")
    stderr = result["stderr"]
    _require(stderr is not None and stderr > 0, "Monte Carlo result lacks a standard error")
    _require(abs(result["p_agree"] - spectral_p) <= MC_SIGMAS * stderr,
             f"sampled {result['p_agree']!r} is more than {MC_SIGMAS} stderr from {spectral_p!r}")


def check_spectrum(payload: bytes, n: int) -> None:
    rows = [line for line in payload.decode().splitlines() if not line.startswith("#")]
    table = list(csv.DictReader(io.StringIO("\n".join(rows))))
    _require(bool(table), "spectrum has no rows")
    total = sum(int(row["multiplicity"]) for row in table)
    _require(total == (n - 1) ** 2, f"multiplicities sum to {total}, not (n-1)^2")
    values = [float(row["eigenvalue"]) for row in table]
    _require(all(-1 - EIGEN_ATOL <= v <= 1 + EIGEN_ATOL for v in values),
             "an eigenvalue lies outside [-1, 1]")


def check_mixing(payload: bytes, n: int, t_max: int) -> None:
    result = _json(payload)["result"]
    points = result["points"]
    _require(len(points) == t_max + 1, f"{len(points)} points for t_max {t_max}")
    _require(not result["upper_violations"], f"upper envelope violated at {result['upper_violations'][:5]}")
    _require(not result["lower_violations"], f"lower envelope violated at {result['lower_violations'][:5]}")
    _require(result["spectral_norm"] <= 1 + EIGEN_ATOL, "spectral norm above 1")
    _require(abs(points[0]["residual"] - (1 - 1.0 / n)) <= 1e-12, "residual at T=0 is not 1 - 1/n")


def closed_form_answer(builtin: str, n: int) -> float:
    """The label-average answer of a built-in, which depends on nothing else."""
    if builtin in ("state-agreement", "label-indicator"):
        return 1.0 / n
    if builtin == "final-state-parity":
        return (math.ceil(n / 2) - n // 2) / n
    raise CheckError(f"no closed form for {builtin!r}")


def check_oracle(payload: bytes, n: int, m: int, script: list[dict]) -> None:
    lines = payload.decode().splitlines()
    _require(len(lines) == len(script) + 1, f"{len(lines) - 1} answers for {len(script)} queries")
    try:
        records = [json.loads(line) for line in lines[1:]]
    except ValueError as exc:
        raise CheckError(f"transcript line is not JSON: {exc}") from exc
    survivors = set(range(m))
    for index, (query, record) in enumerate(zip(script, records)):
        _require(record["query_id"] == index, f"query_id {record['query_id']} at position {index}")
        _require(record["builtin"] == query["builtin"], f"query {index} answered the wrong built-in")
        expected = closed_form_answer(query["builtin"], n)
        _require(abs(record["answer"] - expected) <= ANSWER_ATOL,
                 f"query {index} answered {record['answer']!r}, closed form {expected!r}")
        eliminated = record["eliminated_ids"]
        _require(len(set(eliminated)) == len(eliminated) and set(eliminated) <= survivors,
                 f"query {index} eliminated a non-survivor or repeated one")
        if query["builtin"] == "state-agreement" and query["params"]["member"] in survivors:
            _require(query["params"]["member"] in eliminated,
                     f"query {index} kept its own reference member")
        survivors -= set(eliminated)
        _require(record["survivor_count"] == len(survivors),
                 f"query {index} survivor_count {record['survivor_count']} != {len(survivors)}")
