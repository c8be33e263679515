"""The coupled walk of two semiautomata reading one random word.

Feeding the same uniformly random symbols to two masked-transposition
semiautomata drives a random walk on pairs of permutations.  The chance
that both machines sit in the same state after ``T`` symbols, from a
shared uniform start, is

    p_agree(T) = 1/n + (1/n) * v' M^T v,

where ``M`` is the single-step distribution pushed through the tensor
square of the standard representation and ``v`` is the vectorized
identity (the diagonal direction).  The step law is kept in integer
symbol counts over the alphabet size, and ``M`` (like the mask-averaged
operator) is one weighted sum of Kronecker products over the stack of
``std(identity)`` and the ``C(n,2)`` transposition matrices, built in one
matrix product.  This module evaluates the agreement probability three
ways.
:data:`AGREEMENT_METHODS` lists them under the keys that the CLI's
``pagree --method`` and :func:`sqsa.sq.pairwise_correlation` accept; each
report names its route with a label:

- ``spectral`` (label ``spectral``): the residual ``v' M^T v``;
- ``brute`` (label ``brute-force``): literal enumeration of every word and
  start, giving an exact rational;
- ``mc`` (label ``monte-carlo``): stratified sampling, with a standard error.

It also provides the expected-operator spectrum, a direct-summation check
of the fixed-point Fourier identity behind the formula, and per-length
mixing scans against closed-form decay envelopes.

``M^T`` is never materialized: the residual ``v' M^T v`` is computed by
``T`` matrix-vector products, which keeps full relative accuracy even
when the residual is far below the rounding of ``p_agree`` itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .automata import Semiautomaton, iter_word_blocks, run_words
from .perm import Permutation, SizeMismatchError, all_transpositions
from .symrep import Partition, char_ratio, irrep_dim, std_matrix

__all__ = [
    "AGREEMENT_METHODS",
    "AgreementReport",
    "BRUTE_FORCE_LIMIT",
    "BruteForceGuardError",
    "FixedPointFourierReport",
    "MixingPoint",
    "MixingScan",
    "StepDistribution",
    "WordDistribution",
    "agreement",
    "agreement_brute_force",
    "agreement_exact",
    "agreement_monte_carlo",
    "diagonal_vector",
    "expected_operator",
    "expected_spectrum",
    "fixed_point_fourier_check",
    "fourier_matrix",
    "mixing_scan",
    "spectral_norm",
    "step_distribution",
]

MAX_SPECTRAL_STATES = 40  # (n-1)^2 <= 1521 keeps dense eigensolves and matvecs cheap
MAX_FIX_CHECK_STATES = 5  # the direct check sums over (n!)^2 permutation pairs
BRUTE_FORCE_LIMIT = 10**8  # word/start combinations that enumeration may touch
SAMPLE_STRATA = 64  # fixed stratification => results independent of worker count


class BruteForceGuardError(ValueError):
    """Enumeration refused; carries the estimated cost that tripped the guard."""

    def __init__(self, estimated_cost: int, limit: int):
        self.estimated_cost = estimated_cost
        self.limit = limit
        super().__init__(
            f"brute force would touch ~{estimated_cost:.3g} word/state combinations "
            f"(limit {limit:.3g})"
        )


@dataclass(frozen=True)
class WordDistribution:
    """Uniform distribution over (word of fixed length, start state) inputs."""

    n_states: int
    n_symbols: int
    word_length: int

    def n_inputs(self) -> int:
        return self.n_symbols**self.word_length * self.n_states

    def strata(
        self, samples: int, seed: int, key: tuple[int, ...] = ()
    ) -> list[Callable[[], tuple[np.ndarray, np.ndarray]]]:
        """One ``(words, starts)`` draw per non-empty stratum of ``samples`` inputs.

        Stratum ``s`` draws from its own Philox substream, spawn key
        ``key + (s,)``, so no draw depends on which worker makes it.
        """
        if samples < 1:
            raise ValueError("need at least one sample")
        base, extra = divmod(samples, SAMPLE_STRATA)

        def draw(stratum: int) -> tuple[np.ndarray, np.ndarray]:
            count = base + (1 if stratum < extra else 0)
            sequence = np.random.SeedSequence(entropy=seed, spawn_key=key + (stratum,))
            rng = np.random.Generator(np.random.Philox(sequence))
            words = rng.integers(0, self.n_symbols, size=(count, self.word_length))
            return words, rng.integers(0, self.n_states, size=count)

        # strata past the first ``samples`` would draw nothing
        return [functools.partial(draw, s) for s in range(min(samples, SAMPLE_STRATA))]


@dataclass(frozen=True)
class StepDistribution:
    """One joint step as integer ``(left, right, count)`` triples over the alphabet.

    An action indexes the factor stack: 0 is the identity and ``1 + i`` the
    transposition ``all_transpositions(n_states)[i]``.  The pair of actions
    ``(left, right)`` is taken by ``count`` of the ``alphabet_size`` symbols,
    so its probability is ``count / alphabet_size``; the counts are positive
    and sum exactly to ``alphabet_size``.
    """

    n_states: int
    alphabet_size: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        total = sum(count for _, _, count in self.entries)
        if total != self.alphabet_size:
            raise ValueError(f"counts sum to {total}, expected exactly {self.alphabet_size}")
        n_actions = 1 + self.n_states * (self.n_states - 1) // 2
        for left, right, count in self.entries:
            if count <= 0:
                raise ValueError("counts must be positive")
            if not (0 <= left < n_actions and 0 <= right < n_actions):
                raise ValueError(f"actions ({left}, {right}) outside 0..{n_actions - 1}")


def _check_compatible(a: Semiautomaton, b: Semiautomaton) -> None:
    if a.n_states != b.n_states or a.n_copies != b.n_copies:
        raise SizeMismatchError(
            f"automata shapes differ: ({a.n_states}, {a.n_copies}) vs ({b.n_states}, {b.n_copies})"
        )


def step_distribution(a: Semiautomaton, b: Semiautomaton) -> StepDistribution:
    """Symbol count of each distinct pair of one-symbol actions.

    Both automata read the same symbol, so the support consists of
    ``(identity, identity)`` plus per-transposition combinations of
    ``(tau, tau)``, ``(tau, identity)`` and ``(identity, tau)``, counted
    straight from the two masks.
    """
    _check_compatible(a, b)
    n_trans = a.n_transpositions
    mask_a = a.mask.reshape(a.n_copies, n_trans)
    mask_b = b.mask.reshape(b.n_copies, n_trans)
    both = (mask_a & mask_b).sum(axis=0)
    only_a = (mask_a & ~mask_b).sum(axis=0)
    only_b = (~mask_a & mask_b).sum(axis=0)
    neither = int((~mask_a & ~mask_b).sum())
    entries = [(0, 0, neither)] if neither else []
    for index in range(n_trans):
        swap = 1 + index
        for left, right, count in (
            (swap, swap, both[index]),
            (swap, 0, only_a[index]),
            (0, swap, only_b[index]),
        ):
            if count:
                entries.append((left, right, int(count)))
    return StepDistribution(a.n_states, a.alphabet_size, tuple(entries))


def _factor_stack(n_states: int) -> np.ndarray:
    """``std(identity)`` then ``std(tau)`` for each of ``all_transpositions(n)``."""
    matrices = [std_matrix(t.as_permutation(n_states)) for t in all_transpositions(n_states)]
    return np.stack([np.eye(n_states - 1), *matrices])


def _kron_sum(factors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_uv weights[u, v] * kron(factors[u], factors[v])`` in one matrix product."""
    count, d, _ = factors.shape
    flat = factors.reshape(count, d * d)
    # entry ((i, j), (k, l)) is sum_uv F_u[i, j] W[u, v] F_v[k, l] = kron(...)[(i, k), (j, l)]
    blocks = (flat.T @ (weights @ flat)).reshape(d, d, d, d)
    return blocks.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def fourier_matrix(dist: StepDistribution) -> np.ndarray:
    """Probability-weighted sum of Kronecker products of standard-representation matrices.

    Pair ``(left, right, count)`` contributes ``count / alphabet_size``
    times ``std(left) (x) std(right)``; all pairs go through one product
    (:func:`_kron_sum`).  Symmetric (all support actions are involutions
    and the representation is orthogonal) with spectral norm at most 1
    (convex combination of orthogonal matrices).
    """
    factors = _factor_stack(dist.n_states)
    weights = np.zeros((factors.shape[0], factors.shape[0]))
    for left, right, count in dist.entries:
        weights[left, right] = count / dist.alphabet_size
    return _kron_sum(factors, weights)


def diagonal_vector(n_states: int) -> np.ndarray:
    """The vectorized identity of the standard representation's space."""
    return np.eye(n_states - 1).reshape(-1)


def _residuals(matrix: np.ndarray, n_states: int) -> Iterator[float]:
    """``v' M^t v / n`` for ``t = 0, 1, 2, ...``, one matvec per step."""
    vector = diagonal_vector(n_states)
    power = vector
    while True:
        yield float(vector @ power) / n_states
        power = matrix @ power


@dataclass(frozen=True)
class AgreementReport:
    """Agreement probability of two automata on a shared random word and start.

    ``method`` is the label of the route that produced the report:
    ``spectral``, ``brute-force`` or ``monte-carlo`` (see
    :data:`AGREEMENT_METHODS` for the keys that select them).
    ``residual`` is the deviation ``p_agree - 1/n``.  For the spectral
    method the residual is the primary quantity (computed as
    ``v' M^T v / n``) and ``p_agree = 1/n + residual``, so the residual
    stays accurate even once it drops below the rounding of ``p_agree``.
    ``stderr`` is set by Monte Carlo only, and ``exact`` carries the
    rational probability that brute-force enumeration produces.
    """

    n_states: int
    word_length: int
    p_agree: float
    residual: float
    method: str
    stderr: float | None = None
    exact: Fraction | None = None


def agreement_exact(a: Semiautomaton, b: Semiautomaton, word_length: int) -> AgreementReport:
    """Spectral evaluation of the agreement probability after ``word_length`` symbols."""
    _check_compatible(a, b)
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    n = a.n_states
    if n > MAX_SPECTRAL_STATES:
        raise ValueError(f"spectral path limited to n <= {MAX_SPECTRAL_STATES}")
    matrix = fourier_matrix(step_distribution(a, b))
    residual = next(itertools.islice(_residuals(matrix, n), word_length, None))
    return AgreementReport(n, word_length, 1.0 / n + residual, residual, "spectral")


def agreement_brute_force(a: Semiautomaton, b: Semiautomaton, word_length: int) -> AgreementReport:
    """Literal enumeration of every word and start; the independent oracle.

    Exact by construction: agreement is counted as an integer and the
    probability is a rational number.  Refuses when
    ``alphabet**word_length * n`` exceeds :data:`BRUTE_FORCE_LIMIT`.
    """
    _check_compatible(a, b)
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    n = a.n_states
    size = a.alphabet_size
    cost = WordDistribution(n, size, word_length).n_inputs()
    if cost > BRUTE_FORCE_LIMIT:
        raise BruteForceGuardError(cost, BRUTE_FORCE_LIMIT)
    starts = np.arange(n, dtype=np.int64)
    agreements = 0
    for words in iter_word_blocks(size, word_length):
        states_a = np.tile(starts, (words.shape[0], 1))
        states_b = states_a.copy()
        for t in range(word_length):
            symbol_column = words[:, t][:, None]
            states_a = a.images[symbol_column, states_a]
            states_b = b.images[symbol_column, states_b]
        agreements += int((states_a == states_b).sum())
    exact = Fraction(agreements, cost)
    p_agree = float(exact)
    return AgreementReport(
        n, word_length, p_agree, p_agree - 1.0 / n, "brute-force", exact=exact
    )


def agreement_monte_carlo(
    a: Semiautomaton,
    b: Semiautomaton,
    word_length: int,
    samples: int,
    seed: int,
    jobs: int = 1,
) -> AgreementReport:
    """Unbiased sampled estimate with stderr ``sqrt(p(1-p)/samples)``.

    Samples are split over a fixed number of strata with independent
    counter-based substreams and reduced in stratum order, so the result
    depends on ``(seed, samples)`` but not on ``jobs``.
    """
    _check_compatible(a, b)
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    n = a.n_states
    draws = WordDistribution(n, a.alphabet_size, word_length).strata(samples, seed)

    def run_stratum(draw) -> int:
        words, starts = draw()
        return int((run_words(a, words, starts) == run_words(b, words, starts)).sum())

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            counts = list(pool.map(run_stratum, draws))
    else:
        counts = [run_stratum(draw) for draw in draws]
    p_agree = sum(counts) / samples
    stderr = math.sqrt(p_agree * (1.0 - p_agree) / samples)
    return AgreementReport(
        n, word_length, p_agree, p_agree - 1.0 / n, "monte-carlo", stderr=stderr
    )


# key -> route, called as (a, b, word_length, samples, seed, jobs); the lambdas
# look each function up at call time, so a wrapped module attribute is seen.
AGREEMENT_METHODS: dict[str, Callable[..., AgreementReport]] = {
    "spectral": lambda a, b, t, samples, seed, jobs: agreement_exact(a, b, t),
    "brute": lambda a, b, t, samples, seed, jobs: agreement_brute_force(a, b, t),
    "mc": lambda a, b, t, samples, seed, jobs: agreement_monte_carlo(a, b, t, samples, seed, jobs),
}


def agreement(
    method: str,
    a: Semiautomaton,
    b: Semiautomaton,
    word_length: int,
    samples: int = 100_000,
    seed: int = 0,
    jobs: int = 1,
) -> AgreementReport:
    """Agreement by the route that :data:`AGREEMENT_METHODS` lists under ``method``.

    ``samples``, ``seed`` and ``jobs`` are read by ``mc`` only.
    """
    if method not in AGREEMENT_METHODS:
        raise ValueError(
            f"unknown agreement method {method!r}; choose from {', '.join(AGREEMENT_METHODS)}"
        )
    return AGREEMENT_METHODS[method](a, b, word_length, samples, seed, jobs)


def _checked_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, with a residual check on the largest."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if np.max(np.abs(matrix - matrix.T)) > 1e-10:
        raise ValueError("matrix is not symmetric within tolerance")
    symmetric = (matrix + matrix.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    index = int(np.argmax(np.abs(eigenvalues)))
    top, vector = eigenvalues[index], eigenvectors[:, index]
    if np.linalg.norm(symmetric @ vector - top * vector) > 1e-8:
        raise ArithmeticError("eigenpair residual check failed")
    return eigenvalues


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, with a residual check."""
    return float(np.max(np.abs(_checked_eigenvalues(matrix))))


def expected_operator(n_states: int, p: float = 0.5) -> np.ndarray:
    """Mask-average of the Fourier matrix for an independently masked pair.

    Averages ``(p*S + (1-p)*I) (x) (p*S + (1-p)*I)`` over all ``C``
    transposition matrices ``S``: the weights are ``(1-p)^2`` on
    ``I (x) I``, ``p(1-p)/C`` on each ``S (x) I`` and ``I (x) S``, and
    ``p^2/C`` on each ``S (x) S``, summed in one product (:func:`_kron_sum`).
    """
    if n_states < 2:
        raise ValueError("need at least 2 states")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mask parameter must be in (0, 1), got {p}")
    factors = _factor_stack(n_states)
    n_swaps = factors.shape[0] - 1
    weights = np.diag(np.full(n_swaps + 1, p * p / n_swaps))
    weights[0, 1:] = weights[1:, 0] = p * (1.0 - p) / n_swaps
    weights[0, 0] = (1.0 - p) ** 2
    return _kron_sum(factors, weights)


def expected_spectrum(n_states: int) -> list[tuple[Fraction, int]]:
    """Closed-form eigenvalues (descending) and multiplicities of the p=1/2 average.

    Valid for ``n >= 4``, where the Kronecker square of the standard
    representation splits into four distinct irreducible blocks; smaller
    ``n`` must be measured numerically instead.  With ``S = (n-1, 1)`` and
    ``r`` the transposition character ratio, the irrep ``lam`` of
    ``S (x) S`` carries ``(1 + 2 r(S) + r(lam)) / 4`` with multiplicity
    ``dim(lam)``: averaging ``(S + I) (x) (S + I) / 4`` over transpositions
    turns each term into its character ratio.
    """
    if n_states < 4:
        raise ValueError("closed-form spectrum needs n >= 4")
    n = n_states
    standard = char_ratio(Partition.standard(n))
    labels = [Partition(parts) for parts in ((n,), (n - 1, 1), (n - 2, 2), (n - 2, 1, 1))]
    return [((1 + 2 * standard + char_ratio(label)) / 4, irrep_dim(label)) for label in labels]


@dataclass(frozen=True)
class FixedPointFourierReport:
    """Result of the direct-summation check of the fixed-point Fourier identity."""

    n_states: int
    scalar_factor: Fraction
    rel_err_diagonal: float
    max_abs_left_trivial: float
    max_abs_right_trivial: float
    passed: bool


def fixed_point_fourier_check(n_states: int) -> FixedPointFourierReport:
    """Sum ``fix(h^-1 g) * std(g) (x) std(h)`` over all pairs and compare.

    The double sum must equal ``(n!)^2/(n-1)`` times the projection onto
    the diagonal direction, and the analogous sums with either factor
    replaced by the trivial representation must vanish.  Everything is
    evaluated by direct summation — no Fourier shortcuts — so this is an
    independent check of the identity the spectral path relies on.
    """
    if n_states > MAX_FIX_CHECK_STATES:
        raise ValueError(
            f"direct pair summation limited to n <= {MAX_FIX_CHECK_STATES} "
            f"((n!)^2 pairs), got {n_states}"
        )
    if n_states < 2:
        raise ValueError("need at least 2 states")
    perms = np.array(list(itertools.permutations(range(n_states))), dtype=np.int64)
    # fix(h^-1 g) counts the points where g and h agree
    agree = (perms[:, None, :] == perms[None, :, :]).sum(axis=2).astype(float)
    stds = np.stack([std_matrix(Permutation(tuple(row))) for row in perms])
    d = n_states - 1
    diagonal_sum = np.einsum("ab,aij,bkl->ikjl", agree, stds, stds, optimize=False)
    diagonal_sum = diagonal_sum.reshape(d * d, d * d)
    vector = diagonal_vector(n_states)
    factor = Fraction(math.factorial(n_states) ** 2, n_states - 1)
    projection = np.outer(vector, vector) / (n_states - 1)
    target = float(factor) * projection
    rel_err = float(
        np.linalg.norm(diagonal_sum - target) / np.linalg.norm(target)
    )
    left_trivial = np.einsum("ab,bkl->kl", agree, stds)  # trivial (x) std
    right_trivial = np.einsum("ab,aij->ij", agree, stds)  # std (x) trivial
    max_left = float(np.max(np.abs(left_trivial)))
    max_right = float(np.max(np.abs(right_trivial)))
    passed = rel_err <= 1e-6 and max_left <= 1e-8 and max_right <= 1e-8
    return FixedPointFourierReport(n_states, factor, rel_err, max_left, max_right, passed)


@dataclass(frozen=True)
class MixingPoint:
    """One row of a mixing scan, with the closed-form decay envelopes."""

    word_length: int
    p_agree: float
    residual: float
    upper_bound: float
    lower_bound: float


@dataclass(frozen=True)
class MixingScan:
    """Residual series of a pair with bound applicability flags and violations.

    The upper envelope ``(1 - 1/(2n))^T`` binds whenever the Fourier
    matrix norm is at most ``1 - 1/(2n)``; the lower envelope
    ``(1/2)(1 - 3/n)^T`` binds whenever the matrix is positive definite
    with smallest eigenvalue at least ``(n-3)/(n-1) - 1/(2n)``.
    """

    n_states: int
    spectral_norm: float
    min_eigenvalue: float
    upper_applies: bool
    lower_applies: bool
    points: tuple[MixingPoint, ...]
    upper_violations: tuple[int, ...]
    lower_violations: tuple[int, ...]


def mixing_scan(a: Semiautomaton, b: Semiautomaton, t_max: int) -> MixingScan:
    """Residuals for word lengths ``0..t_max`` checked against both envelopes."""
    if t_max < 1:
        raise ValueError("need t_max >= 1")
    _check_compatible(a, b)
    n = a.n_states
    matrix = fourier_matrix(step_distribution(a, b))
    eigenvalues = _checked_eigenvalues(matrix)
    norm = float(np.max(np.abs(eigenvalues)))
    min_eig = float(eigenvalues[0])
    upper_applies = norm <= 1.0 - 1.0 / (2 * n)
    lower_applies = min_eig > 0.0 and min_eig >= (n - 3) / (n - 1) - 1.0 / (2 * n)
    points = []
    for t, residual in zip(range(t_max + 1), _residuals(matrix, n)):
        upper = (1.0 - 1.0 / (2 * n)) ** t
        lower = 0.5 * (1.0 - 3.0 / n) ** t
        points.append(MixingPoint(t, 1.0 / n + residual, residual, upper, lower))
    upper_violations = tuple(
        p.word_length for p in points if upper_applies and abs(p.residual) > p.upper_bound
    )
    lower_violations = tuple(
        p.word_length for p in points if lower_applies and p.residual < p.lower_bound
    )
    return MixingScan(
        n,
        norm,
        min_eig,
        upper_applies,
        lower_applies,
        tuple(points),
        upper_violations,
        lower_violations,
    )
