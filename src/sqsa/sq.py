"""Correlation measurements and an adversarial statistical-query oracle.

Concepts are semiautomata, read as (word, start) -> final-state maps;
the input distribution is uniform over all words of a fixed length and
all start states.  The correlation of two concepts is their agreement
probability minus the always-guess baseline ``1/labels``, computed by any
route of :data:`sqsa.walk.AGREEMENT_METHODS`.

The oracle answers a bounded statistic ``h(x, y)`` with the
concept-independent value ``E_x[(1/labels) * sum_y h(x, y)]`` — the
projection of the query onto the label-average direction.  A learner can
then eliminate exactly the candidates whose centered statistic exceeds
the tolerance in magnitude, and with pairwise-uncorrelated candidate
families that number is provably small per query.  Sessions keep a
ledger of every answer and elimination.

Queries are a closed set of named built-ins, not arbitrary code, so
transcripts are reproducible.  :data:`BUILTIN_PARAMS` declares their
integer parameters (``value`` may be any number), and ``_closed_form``
answers each in closed form:

- ``label-indicator``     h(x, y) = 1 if y equals ``label``; answer ``1/n``
- ``state-agreement``     h(x, y) = 1 if y equals the output of reference
  ``member``; answer ``1/n``
- ``final-state-parity``  h(x, y) = +1 for even y, -1 for odd y; answer ``(n mod 2)/n``
- ``constant``            h(x, y) = ``value`` in [-1, 1]; answer ``value``

The label-only built-ins and ``constant`` read the final state alone.
That state is uniform for every concept (a uniform start pushed through
a permutation), so their centered statistic is exactly 0 and they never
eliminate anyone.  A survivor's centered ``state-agreement`` statistic
is its agreement residual with the reference member, ``p_agree - 1/n``.
A session with ``mc_samples=None`` takes every residual exactly, by the
Lanczos-Gauss rule at any word length, and its ledger says ``exact``.
A session with ``mc_samples`` set counts agreements on that many inputs
per query, stratified words each read from every start, and its ledger
says ``monte-carlo``, with ``max_stderr`` the largest standard error over
the survivors (None when the query sampled nothing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .automata import Semiautomaton, ShuffleFamily
from .walk import WordDistribution, _gauss_residuals, _sampled_agreement, agreement

__all__ = [
    "BUILTIN_PARAMS",
    "CertificateReport",
    "CorrelationEstimate",
    "OracleSession",
    "QueryRecord",
    "StatQuery",
    "WordDistribution",
    "certify_sq_dimension",
    "elimination_bound",
    "make_session",
    "oracle_answer",
    "pairwise_correlation",
    "query_lower_bound",
]

@dataclass(frozen=True)
class CorrelationEstimate:
    """Agreement probability minus ``1/labels``; ``method`` is the report label."""

    value: float
    method: str
    label_count: int
    stderr: float | None = None

    def __post_init__(self) -> None:
        slack = 1e-9 if self.stderr is None else 6.0 * self.stderr + 1e-9
        low = -1.0 / self.label_count
        high = 1.0 - 1.0 / self.label_count
        if not low - slack <= self.value <= high + slack:
            raise ValueError(
                f"correlation {self.value} outside [{low}, {high}] for "
                f"{self.label_count} labels"
            )


def pairwise_correlation(
    a: Semiautomaton,
    b: Semiautomaton,
    word_length: int,
    method: str = "spectral",
    samples: int = 100_000,
    seed: int = 0,
) -> CorrelationEstimate:
    """Correlation of the two concepts under the shared word distribution.

    ``method`` is a key of :data:`sqsa.walk.AGREEMENT_METHODS`: ``spectral``
    takes the agreement residual from the Lanczos-Gauss rule on the
    matrix-free pair-chain step, ``brute`` enumerates every word (guard
    permitting), and ``mc`` samples
    ``samples`` inputs from ``seed``.  The estimate's ``method`` is the
    report label: ``spectral``, ``brute-force`` or ``monte-carlo``.
    """
    report = agreement(method, a, b, word_length, samples, seed)
    return CorrelationEstimate(report.residual, report.method, a.n_states, stderr=report.stderr)


@dataclass(frozen=True)
class CertificateReport:
    """Pairwise-correlation certificate over the first ``dim`` family members."""

    dim: int
    word_length: int
    n_pairs: int
    threshold: float
    max_abs_correlation: float
    violating_pair: tuple[int, int] | None
    passed: bool


def certify_sq_dimension(
    members: Sequence[Semiautomaton], word_length: int, dim: int
) -> CertificateReport:
    """Verify ``|correlation| <= 1/dim`` for all distinct pairs among the first ``dim``.

    The spectral correlations of all ``dim(dim-1)/2`` pairs come from one
    batched Lanczos-Gauss run; ``violating_pair`` is the first pair, in
    ``(i, j)`` order, of largest ``|correlation|``.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    if len(members) < dim:
        raise ValueError(f"need at least {dim} members, got {len(members)}")
    threshold = 1.0 / dim
    pairs = list(itertools.combinations(range(dim), 2))
    worst, worst_pair = 0.0, None
    if pairs:
        batch = [(members[i], members[j]) for i, j in pairs]
        correlations = np.abs(_gauss_residuals(batch, [word_length])[:, 0])
        first = int(np.argmax(correlations))
        worst, worst_pair = float(correlations[first]), pairs[first]
    passed = worst <= threshold
    return CertificateReport(
        dim,
        word_length,
        len(pairs),
        threshold,
        worst,
        None if passed else worst_pair,
        passed,
    )


def query_lower_bound(dim: int, tolerance: float, label_count: int) -> float:
    """Worst-case query count ``(d-1)(d*tau^2 - Y) / (2d(Y-1))``; may be vacuous (<= 0)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if label_count < 2:
        raise ValueError("need at least 2 labels")
    return (dim - 1) * (dim * tolerance**2 - label_count) / (2 * dim * (label_count - 1))


def elimination_bound(dim: int, tolerance: float, label_count: int) -> float:
    """Per-query elimination cap ``2d(Y-1) / (d*tau^2 - Y)``; needs ``d*tau^2 > Y``."""
    if dim * tolerance**2 <= label_count:
        raise ValueError("elimination cap requires dim * tolerance^2 > label_count")
    return 2 * dim * (label_count - 1) / (dim * tolerance**2 - label_count)


@dataclass(frozen=True)
class StatQuery:
    """A named built-in statistic with its parameters."""

    builtin: str
    params: Mapping[str, int] = field(default_factory=dict)


@dataclass
class QueryRecord:
    """Ledger entry for one oracle answer."""

    query_id: int
    builtin: str
    params: dict
    answer: float
    eliminated_ids: tuple[int, ...]
    survivor_count: int
    method: str
    max_stderr: float | None = None


@dataclass
class OracleSession:
    """Mutable session state: candidate concepts, distribution, tolerance, ledger.

    ``mc_samples=None`` answers every query exactly; a sample count makes each
    ``state-agreement`` query read that many inputs, words from every start.
    """

    concepts: tuple[Semiautomaton, ...]
    distribution: WordDistribution
    tolerance: float
    seed: int = 0
    mc_samples: int | None = None
    survivors: list[int] = field(default_factory=list)
    ledger: list[QueryRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.tolerance > 0:  # NaN included
            raise ValueError("tolerance must be positive")
        if not self.concepts:
            raise ValueError("need at least one concept")
        if self.mc_samples is not None and self.mc_samples < 1:
            raise ValueError("need at least one sample")
        if not self.survivors:
            self.survivors = list(range(len(self.concepts)))


def make_session(
    family: ShuffleFamily,
    word_length: int,
    tolerance: float,
    seed: int = 0,
    mc_samples: int | None = None,
) -> OracleSession:
    """Session over all family members as candidate concepts.

    Exact at any word length when ``mc_samples`` is None; sampled, from
    ``seed``, when it is a sample count.
    """
    concepts = tuple(family.members)
    distribution = WordDistribution(
        family.config.n_states, family.config.alphabet_size, word_length
    )
    return OracleSession(concepts, distribution, tolerance, seed, mc_samples)


# builtin -> {param: kind}: the closed set of built-ins that _closed_form answers
BUILTIN_PARAMS: dict[str, dict[str, str]] = {
    "label-indicator": {"label": "integer"},
    "state-agreement": {"member": "integer"},
    "final-state-parity": {},
    "constant": {"value": "number"},
}
_PARAM_TYPES = {"integer": int, "number": (int, float)}  # bools are neither


def _closed_form(query: StatQuery, session: OracleSession) -> tuple[float, Semiautomaton | None]:
    """Answer and reference member, None for a statistic of the final state alone
    (its centered value is exactly 0); an out-of-range value raises ``ValueError``."""
    params, n = query.params, session.distribution.n_states
    if query.builtin == "label-indicator":
        if not 0 <= params["label"] < n:
            raise ValueError(f"label {params['label']} out of range")
        return 1.0 / n, None
    if query.builtin == "state-agreement":
        member = params["member"]
        if not 0 <= member < len(session.concepts):
            raise ValueError(f"member {member} out of range")
        return 1.0 / n, session.concepts[member]
    if query.builtin == "final-state-parity":
        return (n % 2) / n, None
    value = float(params["value"])  # constant
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"constant value {value} outside [-1, 1]")
    return value, None


def _check_params(query: StatQuery) -> None:
    """Reject missing, unknown and mistyped params of a built-in, naming each."""
    params = query.params
    if not isinstance(params, Mapping):
        raise ValueError(f"{query.builtin} params must be an object, got {params!r}")
    declared = BUILTIN_PARAMS.get(query.builtin, {})
    problems = [f"missing {name!r}" for name in declared if name not in params]
    problems += [f"unknown {name!r}" for name in params if name not in declared]
    for name, kind in declared.items():
        value = params.get(name, 0)  # a missing param is reported above
        if isinstance(value, bool) or not isinstance(value, _PARAM_TYPES[kind]):
            problems.append(f"non-{kind} {name!r}: {value!r}")
    if problems:
        raise ValueError(f"bad params for {query.builtin}: {'; '.join(problems)}")


def oracle_answer(session: OracleSession, query: StatQuery, jobs: int = 1) -> float:
    """Answer a query adversarially and eliminate over-correlated survivors.

    The answer is the closed-form label-average projection of the
    statistic, which is within tolerance of every survivor's true
    statistic.  Label-only queries and ``constant`` eliminate nobody.  For
    ``state-agreement`` an exact session (``mc_samples=None``) takes each
    survivor's agreement residual with the reference from one batched
    Lanczos-Gauss run; a sampled session counts agreements on
    ``mc_samples`` inputs, stratified words each read from every start
    (substream key ``(query_id,)``), on ``jobs`` threads, which change no
    count, and eliminates conservatively, at ``tolerance + 4 * stderr``
    (the per-word standard error of ``walk._sampled_agreement``).  Ties at
    the tolerance are kept, never eliminated.  Params that are missing,
    unknown or of the wrong type raise ``ValueError``.
    """
    if query.builtin not in BUILTIN_PARAMS:
        raise ValueError(f"unknown built-in query {query.builtin!r}")
    _check_params(query)
    answer, reference = _closed_form(query, session)
    dist, samples = session.distribution, session.mc_samples
    survivors = [session.concepts[i] for i in session.survivors]
    residuals, stderr = np.zeros(len(survivors)), None
    if reference is not None and survivors:
        if samples is None:
            pairs = [(survivor, reference) for survivor in survivors]
            residuals = _gauss_residuals(pairs, [dist.word_length])[:, 0]
        else:
            key = (len(session.ledger),)
            p_agree, stderr = _sampled_agreement(reference, survivors, dist, samples, session.seed, key, jobs)
            residuals = p_agree - 1.0 / dist.n_states
    slack = 0.0 if stderr is None else 4.0 * stderr
    dead = np.abs(residuals) > session.tolerance + slack
    eliminated = tuple(i for i, out in zip(session.survivors, dead) if out)
    session.survivors = [i for i, out in zip(session.survivors, dead) if not out]
    record = QueryRecord(
        query_id=len(session.ledger),
        builtin=query.builtin,
        params=dict(query.params),
        answer=answer,
        eliminated_ids=eliminated,
        survivor_count=len(session.survivors),
        method="exact" if samples is None else "monte-carlo",
        max_stderr=None if stderr is None else float(np.max(stderr)),
    )
    session.ledger.append(record)
    return answer
