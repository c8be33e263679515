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
ledger of every answer and elimination.  An entry's ``method`` is ``exact``
when every input was enumerated, else ``monte-carlo``, with ``max_stderr``
the largest standard error over the survivors (None if exact or none left).

Inputs come as :class:`WordDistribution` draws (exhaustive ``blocks()``
or sampled ``strata()``), run merged by :func:`sqsa.walk.merge_draws`: the
64 small strata of a sampled query become a few runs, so each concept
reads their words in a few batched passes.  Every float sum is still
taken per draw and added in draw order, so the ledger does not depend
on how draws are merged.

Queries are named built-ins with declared integer parameters (``value``
may be any number), not arbitrary code, so transcripts are reproducible.
Each returns ``h(x, .)`` over every label ``y`` at once, as a table with
one row per input of a run or, if it ignores ``x``, one row:

- ``label-indicator``     h(x, y) = 1 if y equals ``label``
- ``state-agreement``     h(x, y) = 1 if y equals the output of reference ``member``
- ``final-state-parity``  h(x, y) = +1 for even y, -1 for odd y
- ``constant``            h(x, y) = ``value`` in [-1, 1]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .automata import Semiautomaton, ShuffleFamily, run_words
from .walk import Draw, WordDistribution, _gauss_residuals, agreement, merge_draws

__all__ = [
    "BUILTIN_PARAMS",
    "BUILTIN_QUERIES",
    "CertificateReport",
    "CorrelationEstimate",
    "ENUMERATION_LIMIT",
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

ENUMERATION_LIMIT = 10**7  # oracle inputs enumerated exactly; larger spaces are sampled


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
        correlations = np.abs(_gauss_residuals(batch, word_length))
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
    """Mutable session state: candidate concepts, distribution, tolerance, ledger."""

    concepts: tuple[Semiautomaton, ...]
    distribution: WordDistribution
    tolerance: float
    seed: int = 0
    mc_samples: int = 100_000
    survivors: list[int] = field(default_factory=list)
    ledger: list[QueryRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.tolerance > 0:  # NaN included
            raise ValueError("tolerance must be positive")
        if not self.concepts:
            raise ValueError("need at least one concept")
        if self.mc_samples < 1:
            raise ValueError("need at least one sample")
        if not self.survivors:
            self.survivors = list(range(len(self.concepts)))


def make_session(
    family: ShuffleFamily,
    word_length: int,
    tolerance: float,
    seed: int = 0,
    mc_samples: int = 100_000,
) -> OracleSession:
    """Session over all family members as candidate concepts."""
    concepts = tuple(family.members)
    distribution = WordDistribution(
        family.config.n_states, family.config.alphabet_size, word_length
    )
    return OracleSession(concepts, distribution, tolerance, seed, mc_samples)


# (words, starts) -> h over every label, broadcastable to starts.shape + (labels,)
Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]
Factory = Callable[[Mapping[str, int], OracleSession], Evaluator]

BUILTIN_QUERIES: dict[str, Factory] = {}
BUILTIN_PARAMS: dict[str, dict[str, str]] = {}  # builtin -> {param: kind}
_PARAM_TYPES = {"integer": int, "number": (int, float)}  # bools are neither


def _builtin(name: str, **params: str) -> Callable[[Factory], Factory]:
    """Register a built-in query under ``name`` with its declared params."""

    def register(factory: Factory) -> Factory:
        BUILTIN_QUERIES[name] = factory
        BUILTIN_PARAMS[name] = params
        return factory

    return register


@_builtin("label-indicator", label="integer")
def _builtin_label_indicator(params: Mapping[str, int], session: OracleSession) -> Evaluator:
    label = params["label"]
    if not 0 <= label < session.distribution.n_states:
        raise ValueError(f"label {label} out of range")
    row = (np.arange(session.distribution.n_states) == label).astype(float)
    return lambda words, starts: row


@_builtin("state-agreement", member="integer")
def _builtin_state_agreement(params: Mapping[str, int], session: OracleSession) -> Evaluator:
    member = params["member"]
    if not 0 <= member < len(session.concepts):
        raise ValueError(f"member {member} out of range")
    reference = session.concepts[member]
    labels = np.arange(session.distribution.n_states)

    def evaluate(words, starts):
        return (run_words(reference, words, starts)[..., None] == labels).astype(float)

    return evaluate


@_builtin("final-state-parity")
def _builtin_final_state_parity(params: Mapping[str, int], session: OracleSession) -> Evaluator:
    row = np.where(np.arange(session.distribution.n_states) % 2 == 0, 1.0, -1.0)
    return lambda words, starts: row


@_builtin("constant", value="number")
def _builtin_constant(params: Mapping[str, float], session: OracleSession) -> Evaluator:
    value = float(params["value"])
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"constant value {value} outside [-1, 1]")
    return lambda words, starts: np.full(session.distribution.n_states, value)


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


def _statistics(
    session: OracleSession, evaluate: Evaluator, draws: Sequence[Draw]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Answer, centered per-survivor means and their standard errors over input draws.

    Draws are run merged (:func:`sqsa.walk.merge_draws`), but every float
    sum is still taken per draw and added in draw order.
    """
    n = session.distribution.n_states
    survivors = session.survivors
    sums = np.zeros(len(survivors))
    sums_sq = np.zeros(len(survivors))
    answer_sum = 0.0
    total = 0
    for run in merge_draws(draws):
        words, starts, slices = run()
        table = np.broadcast_to(evaluate(words, starts), starts.shape + (n,))
        if float(np.max(np.abs(table))) > 1.0 + 1e-12:
            raise ValueError("query statistic left the range [-1, 1]")
        label_average = table.mean(axis=-1)
        for rows in slices:
            answer_sum += float(label_average[rows].sum())
        for k, concept_index in enumerate(survivors):
            labels = run_words(session.concepts[concept_index], words, starts)
            values = np.take_along_axis(table, labels[..., None], axis=-1)[..., 0]
            centered = values - label_average
            for rows in slices:
                part = centered[rows]
                sums[k] += float(part.sum())
                sums_sq[k] += float((part * part).sum())
        total += starts.size
    means = sums / total
    variances = np.maximum(sums_sq / total - means**2, 0.0)
    stderr = np.sqrt(variances / total)
    return answer_sum / total, means, stderr


def oracle_answer(session: OracleSession, query: StatQuery) -> float:
    """Answer a query adversarially and eliminate over-correlated survivors.

    The answer is the label-average projection of the statistic, which is
    within tolerance of every survivor's true statistic.  Exact
    enumeration (ledger method ``exact``) is used when the input space
    fits :data:`ENUMERATION_LIMIT`; otherwise (``monte-carlo``) elimination is
    decided conservatively at ``tolerance + 4 * stderr`` from stratified
    samples.  Ties at the tolerance are kept, never eliminated.  Params
    that are missing, unknown or of the wrong type raise ``ValueError``.
    """
    if query.builtin not in BUILTIN_QUERIES:
        raise ValueError(f"unknown built-in query {query.builtin!r}")
    _check_params(query)
    evaluate = BUILTIN_QUERIES[query.builtin](query.params, session)
    dist = session.distribution
    exact = dist.n_inputs() <= ENUMERATION_LIMIT
    if exact:
        draws = dist.blocks()
    else:
        draws = dist.strata(session.mc_samples, session.seed, (len(session.ledger),))
    answer, centered, stderr = _statistics(session, evaluate, draws)
    eliminated = [
        concept_index
        for k, concept_index in enumerate(session.survivors)
        if abs(float(centered[k])) > session.tolerance + (0.0 if exact else 4.0 * stderr[k])
    ]
    session.survivors = [i for i in session.survivors if i not in set(eliminated)]
    record = QueryRecord(
        query_id=len(session.ledger),
        builtin=query.builtin,
        params=dict(query.params),
        answer=float(answer),
        eliminated_ids=tuple(eliminated),
        survivor_count=len(session.survivors),
        method="exact" if exact else "monte-carlo",
        max_stderr=None if exact or not stderr.size else float(np.max(stderr)),
    )
    session.ledger.append(record)
    return float(answer)
