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

Queries are named built-ins with declared integer parameters (``value``
may be any number), not arbitrary code, so transcripts are reproducible:

- ``label-indicator``     h(x, y) = 1 if y equals ``label``
- ``state-agreement``     h(x, y) = 1 if y equals the output of reference ``member``
- ``final-state-parity``  h(x, y) = +1 for even y, -1 for odd y
- ``constant``            h(x, y) = ``value`` in [-1, 1]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .automata import Semiautomaton, ShuffleFamily, iter_word_blocks, run_words
from .walk import WordDistribution, agreement

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
    evaluates the agreement residual through the Fourier matrix, ``brute``
    enumerates every word (guard permitting), and ``mc`` samples
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
    """Verify ``|correlation| <= 1/dim`` for all distinct pairs among the first ``dim``."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if len(members) < dim:
        raise ValueError(f"need at least {dim} members, got {len(members)}")
    threshold = 1.0 / dim
    worst = 0.0
    worst_pair: tuple[int, int] | None = None
    n_pairs = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            n_pairs += 1
            estimate = pairwise_correlation(members[i], members[j], word_length, "spectral")
            if abs(estimate.value) > worst:
                worst = abs(estimate.value)
                worst_pair = (i, j)
    passed = worst <= threshold
    return CertificateReport(
        dim,
        word_length,
        n_pairs,
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
        if self.tolerance <= 0:
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


Evaluator = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
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

    def evaluate(words, starts, labels):
        return (labels == label).astype(float)

    return evaluate


@_builtin("state-agreement", member="integer")
def _builtin_state_agreement(params: Mapping[str, int], session: OracleSession) -> Evaluator:
    member = params["member"]
    if not 0 <= member < len(session.concepts):
        raise ValueError(f"member {member} out of range")
    reference = session.concepts[member]

    def evaluate(words, starts, labels):
        return (labels == run_words(reference, words, starts)).astype(float)

    return evaluate


@_builtin("final-state-parity")
def _builtin_final_state_parity(params: Mapping[str, int], session: OracleSession) -> Evaluator:
    def evaluate(words, starts, labels):
        return np.where(labels % 2 == 0, 1.0, -1.0)

    return evaluate


@_builtin("constant", value="number")
def _builtin_constant(params: Mapping[str, float], session: OracleSession) -> Evaluator:
    value = float(params["value"])
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"constant value {value} outside [-1, 1]")

    def evaluate(words, starts, labels):
        return np.full(labels.shape[0], value)

    return evaluate


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


def _check_range(values: np.ndarray) -> None:
    if values.size and float(np.max(np.abs(values))) > 1.0 + 1e-12:
        raise ValueError("query statistic left the range [-1, 1]")


def _statistics(
    session: OracleSession, evaluate: Evaluator, blocks: Iterable[tuple[np.ndarray, np.ndarray]]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Answer, centered per-survivor means and their standard errors over input blocks."""
    n = session.distribution.n_states
    survivors = session.survivors
    sums = np.zeros(len(survivors))
    sums_sq = np.zeros(len(survivors))
    answer_sum = 0.0
    total = 0
    for words, starts in blocks:
        count = words.shape[0]
        label_average = np.zeros(count)
        for label in range(n):
            values = evaluate(words, starts, np.full(count, label))
            _check_range(values)
            label_average += values
        label_average /= n
        answer_sum += float(label_average.sum())
        for k, concept_index in enumerate(survivors):
            labels = run_words(session.concepts[concept_index], words, starts)
            values = evaluate(words, starts, labels)
            _check_range(values)
            centered = values - label_average
            sums[k] += float(centered.sum())
            sums_sq[k] += float((centered * centered).sum())
        total += count
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
        start_cycle = np.arange(dist.n_states, dtype=np.int64)
        blocks = (
            (np.repeat(words, dist.n_states, axis=0), np.tile(start_cycle, words.shape[0]))
            for words in iter_word_blocks(dist.n_symbols, dist.word_length)
        )
    else:
        draws = dist.strata(session.mc_samples, session.seed, (len(session.ledger),))
        blocks = (draw() for draw in draws)
    answer, centered, stderr = _statistics(session, evaluate, blocks)
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
