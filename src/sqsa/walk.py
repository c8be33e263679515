"""The coupled walk of two semiautomata reading one random word.

Feeding the same uniformly random symbols to two masked-transposition
semiautomata drives a random walk on pairs of permutations.  The chance
that both machines sit in the same state after ``T`` symbols, from a
shared uniform start, is

    p_agree(T) = 1/n + (1/n) * v' M^T v,

where ``M`` is the single-step distribution pushed through the tensor
square of the standard representation and ``v`` is the vectorized
identity (the diagonal direction).  This module builds ``M`` from a pair
of automata and evaluates the agreement probability three ways.
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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .automata import Semiautomaton, iter_word_blocks, run_words
from .perm import Permutation, SizeMismatchError, all_transpositions
from .symrep import Partition, char_ratio, irrep_dim, std_matrix, transposition_std_matrices

__all__ = [
    "AGREEMENT_METHODS",
    "AgreementReport",
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
    "brute_force_limit",
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
EXACT_MASS_MAX_ALPHABET = 1 << 16  # rational masses while denominators stay small
DEFAULT_BRUTE_LIMIT = 10**8
SAMPLE_STRATA = 64  # fixed stratification => results independent of worker count


class BruteForceGuardError(ValueError):
    """Enumeration refused; carries the estimated cost that tripped the guard."""

    def __init__(self, estimated_cost: int, limit: int):
        self.estimated_cost = estimated_cost
        self.limit = limit
        super().__init__(
            f"brute force would touch ~{estimated_cost:.3g} word/state combinations "
            f"(limit {limit:.3g}; raise via SQSA_MAX_BRUTE)"
        )


def brute_force_limit(default: int = DEFAULT_BRUTE_LIMIT) -> int:
    """Enumeration budget; the SQSA_MAX_BRUTE environment variable overrides it."""
    raw = os.environ.get("SQSA_MAX_BRUTE")
    return int(raw) if raw else default


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
    """Aggregated distribution of one joint step, as (left, right, mass) triples.

    Every support element is a pair of identity-or-transposition
    permutations; masses are exact rationals for small alphabets and
    floats beyond that.
    """

    n_states: int
    entries: tuple[tuple[Permutation, Permutation, Fraction | float], ...]

    def __post_init__(self) -> None:
        total = sum(mass for _, _, mass in self.entries)
        if isinstance(total, Fraction):
            if total != 1:
                raise ValueError(f"masses sum to {total}, expected exactly 1")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"masses sum to {total!r}, expected 1 within 1e-12")
        for left, right, mass in self.entries:
            if mass <= 0:
                raise ValueError("masses must be positive")
            for perm in (left, right):
                if perm.n != self.n_states:
                    raise ValueError("support permutation on the wrong ground set")
                moved = sum(1 for point, image in enumerate(perm.images) if image != point)
                if moved not in (0, 2):
                    raise ValueError(f"support must be identity or a transposition: {perm!r}")


def _check_compatible(a: Semiautomaton, b: Semiautomaton) -> None:
    if a.n_states != b.n_states or a.n_copies != b.n_copies:
        raise SizeMismatchError(
            f"automata shapes differ: ({a.n_states}, {a.n_copies}) vs ({b.n_states}, {b.n_copies})"
        )


def step_distribution(a: Semiautomaton, b: Semiautomaton) -> StepDistribution:
    """Mass of each distinct pair of one-symbol actions under a uniform symbol.

    Both automata read the same symbol, so the support consists of
    ``(identity, identity)`` plus per-transposition combinations of
    ``(tau, tau)``, ``(tau, identity)`` and ``(identity, tau)``.
    """
    _check_compatible(a, b)
    n = a.n_states
    n_trans = a.n_transpositions
    size = a.alphabet_size
    mask_a = a.mask.reshape(a.n_copies, n_trans)
    mask_b = b.mask.reshape(b.n_copies, n_trans)
    both = (mask_a & mask_b).sum(axis=0)
    only_a = (mask_a & ~mask_b).sum(axis=0)
    only_b = (~mask_a & mask_b).sum(axis=0)
    neither = int((~mask_a & ~mask_b).sum())

    def as_mass(count: int) -> Fraction | float:
        if size <= EXACT_MASS_MAX_ALPHABET:
            return Fraction(count, size)
        return count / size

    identity = Permutation.identity(n)
    entries: list[tuple[Permutation, Permutation, Fraction | float]] = []
    if neither:
        entries.append((identity, identity, as_mass(neither)))
    for index, transposition in enumerate(all_transpositions(n)):
        swap = transposition.as_permutation(n)
        if both[index]:
            entries.append((swap, swap, as_mass(int(both[index]))))
        if only_a[index]:
            entries.append((swap, identity, as_mass(int(only_a[index]))))
        if only_b[index]:
            entries.append((identity, swap, as_mass(int(only_b[index]))))
    return StepDistribution(n, tuple(entries))


def fourier_matrix(dist: StepDistribution) -> np.ndarray:
    """Mass-weighted sum of Kronecker squares of standard-representation matrices.

    Symmetric (all support actions are involutions and the representation
    is orthogonal) with spectral norm at most 1 (convex combination of
    orthogonal matrices).
    """
    cache: dict[Permutation, np.ndarray] = {}
    dim = (dist.n_states - 1) ** 2
    matrix = np.zeros((dim, dim))
    for left, right, mass in dist.entries:
        left_m = cache.setdefault(left, std_matrix(left))
        right_m = cache.setdefault(right, std_matrix(right))
        matrix += float(mass) * np.kron(left_m, right_m)
    return matrix


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


def agreement_brute_force(
    a: Semiautomaton, b: Semiautomaton, word_length: int, limit: int | None = None
) -> AgreementReport:
    """Literal enumeration of every word and start; the independent oracle.

    Exact by construction: agreement is counted as an integer and the
    probability is a rational number.  Refuses when
    ``alphabet**word_length * n`` exceeds the guard.
    """
    _check_compatible(a, b)
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    n = a.n_states
    size = a.alphabet_size
    cost = WordDistribution(n, size, word_length).n_inputs()
    budget = brute_force_limit() if limit is None else limit
    if cost > budget:
        raise BruteForceGuardError(cost, budget)
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


def _checked_eigenvalues(matrix: np.ndarray, symmetry_tol: float = 1e-10) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, with a residual check on the largest."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if np.max(np.abs(matrix - matrix.T)) > symmetry_tol:
        raise ValueError("matrix is not symmetric within tolerance")
    symmetric = (matrix + matrix.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    index = int(np.argmax(np.abs(eigenvalues)))
    top, vector = eigenvalues[index], eigenvectors[:, index]
    if np.linalg.norm(symmetric @ vector - top * vector) > 1e-8:
        raise ArithmeticError("eigenpair residual check failed")
    return eigenvalues


def spectral_norm(matrix: np.ndarray, symmetry_tol: float = 1e-10) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, with a residual check."""
    return float(np.max(np.abs(_checked_eigenvalues(matrix, symmetry_tol))))


def expected_operator(n_states: int, p: float = 0.5) -> np.ndarray:
    """Mask-average of the Fourier matrix for an independently masked pair.

    Averages ``(p*S + (1-p)*I) (x) (p*S + (1-p)*I)`` over all
    transposition matrices ``S``.
    """
    if n_states < 2:
        raise ValueError("need at least 2 states")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mask parameter must be in (0, 1), got {p}")
    stack = transposition_std_matrices(n_states)
    eye = np.eye(n_states - 1)
    dim = (n_states - 1) ** 2
    total = np.zeros((dim, dim))
    for swap in stack:
        blend = p * swap + (1.0 - p) * eye
        total += np.kron(blend, blend)
    return total / stack.shape[0]


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
