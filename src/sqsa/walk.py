"""The coupled walk of two semiautomata reading one random word.

Feeding the same uniformly random symbols to two masked-transposition
semiautomata drives a random walk on pairs of permutations.  The chance
that both machines sit in the same state after ``T`` symbols, from a
shared uniform start, is

    p_agree(T) = 1/n + (1/n) * v' M^T v,

where ``M`` is the single-step distribution pushed through the tensor
square of the standard representation and ``v`` is the vectorized
identity (the diagonal direction).  The step law is kept in integer
symbol counts over the alphabet size.  This module evaluates the
agreement probability three ways.
:data:`AGREEMENT_METHODS` lists them under the keys that the CLI's
``pagree --method`` and :func:`sqsa.sq.pairwise_correlation` accept; each
report names its route with a label:

- ``spectral`` (label ``spectral``): the residual ``v' M^T v``;
- ``brute`` (label ``brute-force``): every (word, start) input, from
  :meth:`WordDistribution.blocks`, giving an exact rational;
- ``mc`` (label ``monte-carlo``): the stratified samples of
  :meth:`WordDistribution.strata`, with a standard error.

Both input routes count agreements as integers over ``run_words``
(:func:`_count_agreements`, which the sampled oracle also calls), on the
runs of bounded size that :class:`WordDistribution` sizes itself.  Counts
are integers, so neither the run sizes nor their order changes a result.

It also provides the expected-operator spectrum, a direct-summation check
of the fixed-point Fourier identity behind the formula, and per-length
mixing scans against closed-form decay envelopes.

The spectral residual never builds ``M``.  On centred ``n x n`` matrices
``Y`` (zero row and column sums: the space std (x) std) ``M`` is the
averaged step of the joint law of both machines' states,

    Y -> Y - L_a Y - Y L_b + Lap(w_both * spread(Y)),

with ``L_a``, ``L_b`` the Laplacians of the symbol weights acting on each
machine, ``w_both`` the weights acting on both and ``spread(Y)`` the
second difference ``Y_ii + Y_jj - Y_ij - Y_ji`` of each transposition
``(i j)``.  One application costs O(n^3), against O(n^4) for a dense
matvec.  The step is self-adjoint in the Frobenius product, so ``k``
Lanczos steps from ``Y_0 = I - J/n`` give a Gauss rule for
``v' M^T v = <Y_0, M^T Y_0>``, exact once ``2k - 1 >= T``
(Golub & Meurant, "Matrices, moments and quadrature", 1994).  A run stops
sooner once successive rules agree, in log magnitude where both are
subnormal, and a Gauss weight of rounding size counts as zero.  Pairs are
run as one stack, so ``certify`` pays one Lanczos run for all its pairs.
The residual is the primary quantity and ``p_agree = 1/n + residual``,
so it keeps its relative accuracy far below the rounding of ``p_agree``.

The rule is a sum of exponentials in ``T``, so one run also gives
:func:`mixing_scan` its whole series.  The dense ``M``
(:func:`fourier_matrix`) serves only the realized spectrum and a mixing
scan's norm and smallest eigenvalue.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .automata import Semiautomaton, run_words
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

MAX_FIX_CHECK_STATES = 5  # the direct check sums over (n!)^2 permutation pairs
BRUTE_FORCE_LIMIT = 10**8  # word/start combinations that enumeration may touch
SAMPLE_STRATA = 64  # fixed stratification => results independent of worker count
BLOCK_INPUTS = 1 << 15  # (word, start) inputs per run of an input stream
RUN_POSITIONS = 1 << 16  # symbol positions (rows x T) per run of sampled strata
KRYLOV_ELEMENTS = 1 << 20  # Lanczos basis entries (pairs x steps x n^2) per chunk of pairs
_BREAKDOWN = 1e-12  # next Lanczos norm at which the Krylov space counts as closed (||I - M|| <= 2)
_AGREE_RTOL = 1e-12  # successive Gauss estimates this close (relative) are converged
_NORMAL = np.finfo(float).tiny  # smallest normal double
# Gauss weights below this are rounding, on modes that Y_0 does not touch: they turn
# up once the Krylov space is spent, and at large T their decay may be the slowest
_ROUNDING_WEIGHT = 1e-20


class BruteForceGuardError(ValueError):
    """Enumeration refused; carries the estimated cost that tripped the guard."""

    def __init__(self, estimated_cost: int, limit: int):
        self.estimated_cost = estimated_cost
        self.limit = limit
        super().__init__(
            f"brute force would touch ~{estimated_cost:.3g} word/state combinations "
            f"(limit {limit:.3g})"
        )


Run = Callable[[], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class WordDistribution:
    """Uniform distribution over (word of fixed length, start state) inputs."""

    n_states: int
    n_symbols: int
    word_length: int

    def __post_init__(self) -> None:
        if self.word_length < 0:
            raise ValueError("word length must be >= 0")

    def n_inputs(self) -> int:
        return self.n_symbols**self.word_length * self.n_states

    def blocks(self) -> list[Run]:
        """Every input once, in runs of at most :data:`BLOCK_INPUTS` inputs.

        A run's words ``(B, T)`` are in counting order (column-major, the
        layout ``run_words`` reads); its starts ``(B, n)`` are every start.
        """
        n, length, base = self.n_states, self.word_length, self.n_symbols
        total, size = base**length, max(1, BLOCK_INPUTS // n)

        def run(low: int) -> tuple[np.ndarray, np.ndarray]:
            index = np.arange(low, min(low + size, total), dtype=np.int64)
            words = np.empty((length, index.shape[0]), dtype=np.int64).T
            for t in range(length - 1, -1, -1):
                words[:, t] = index % base
                index //= base
            return words, np.broadcast_to(np.arange(n, dtype=np.int64), (words.shape[0], n))

        return [functools.partial(run, low) for low in range(0, total, size)]

    def strata(self, samples: int, seed: int, key: tuple[int, ...] = ()) -> list[Run]:
        """``samples`` inputs over :data:`SAMPLE_STRATA` strata, in runs of consecutive strata.

        A run holds at most :data:`BLOCK_INPUTS` inputs and
        :data:`RUN_POSITIONS` symbol positions (rows x T); a stratum over
        either runs alone.  Stratum ``s`` draws from its own Philox
        substream, spawn key ``key + (s,)``, so no run depends on which
        worker makes it.  A run returns its strata's words and starts
        concatenated in stratum order, and a one-stratum run its arrays as drawn.
        """
        if samples < 1:
            raise ValueError("need at least one sample")
        base, extra = divmod(samples, SAMPLE_STRATA)
        # strata past the first ``samples`` would draw nothing
        counts = [base + (1 if s < extra else 0) for s in range(min(samples, SAMPLE_STRATA))]

        def draw(stratum: int) -> tuple[np.ndarray, np.ndarray]:
            sequence = np.random.SeedSequence(entropy=seed, spawn_key=key + (stratum,))
            rng = np.random.Generator(np.random.Philox(sequence))
            words = rng.integers(0, self.n_symbols, size=(counts[stratum], self.word_length))
            return words, rng.integers(0, self.n_states, size=counts[stratum])

        def run(strata: range) -> tuple[np.ndarray, np.ndarray]:
            if len(strata) == 1:
                return draw(strata[0])
            words, starts = zip(*map(draw, strata))
            return np.concatenate(words), np.concatenate(starts)

        firsts, inputs = [], 0
        for stratum, count in enumerate(counts):
            inputs += count
            if not firsts or inputs > BLOCK_INPUTS or inputs * self.word_length > RUN_POSITIONS:
                firsts.append(stratum)
                inputs = count
        bounds = itertools.pairwise(firsts + [len(counts)])
        return [functools.partial(run, range(low, high)) for low, high in bounds]


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


def _mask_counts(a: Semiautomaton, b: Semiautomaton) -> np.ndarray:
    """Symbols per transposition acting on both machines, on ``a`` only and on ``b`` only.

    Shape ``(3, C(n,2))``, transpositions in ``all_transpositions`` order;
    the remaining symbols act on neither machine.
    """
    _check_compatible(a, b)
    n_trans = a.n_transpositions
    mask_a = a.mask.reshape(a.n_copies, n_trans)
    mask_b = b.mask.reshape(b.n_copies, n_trans)
    return np.stack([mask_a & mask_b, mask_a & ~mask_b, ~mask_a & mask_b]).sum(axis=1)


def step_distribution(a: Semiautomaton, b: Semiautomaton) -> StepDistribution:
    """Symbol count of each distinct pair of one-symbol actions.

    Both automata read the same symbol, so the support consists of
    ``(identity, identity)`` plus per-transposition combinations of
    ``(tau, tau)``, ``(tau, identity)`` and ``(identity, tau)``, counted
    straight from the two masks.
    """
    counts = _mask_counts(a, b)
    neither = a.alphabet_size - int(counts.sum())
    entries = [(0, 0, neither)] if neither else []
    for swap, (both, only_a, only_b) in enumerate(counts.T, start=1):
        for left, right, count in ((swap, swap, both), (swap, 0, only_a), (0, swap, only_b)):
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
    (convex combination of orthogonal matrices).  Built only for the realized
    spectrum and the norm and smallest eigenvalue of :func:`mixing_scan`.
    """
    factors = _factor_stack(dist.n_states)
    weights = np.zeros((factors.shape[0], factors.shape[0]))
    for left, right, count in dist.entries:
        weights[left, right] = count / dist.alphabet_size
    return _kron_sum(factors, weights)


def diagonal_vector(n_states: int) -> np.ndarray:
    """The vectorized identity of the standard representation's space."""
    return np.eye(n_states - 1).reshape(-1)


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
    """Spectral agreement probability after ``word_length`` symbols.

    The residual ``v' M^T v / n`` comes from the Lanczos-Gauss rule on the
    matrix-free pair-chain step (:func:`_gauss_residuals`); ``M`` is never
    built, so any ``n`` and any ``T`` are accepted.  ``T = 0`` gives
    ``p_agree`` exactly 1.
    """
    _check_compatible(a, b)
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    n = a.n_states
    residual = float(_gauss_residuals([(a, b)], [word_length])[0, 0])
    return AgreementReport(n, word_length, 1.0 / n + residual, residual, "spectral")


def _laplacians(weights: np.ndarray, n: int) -> np.ndarray:
    """``sum_(i j) w_(i j) r r'`` with ``r = e_i - e_j``, for a stack of transposition weights."""
    low, high = np.triu_indices(n, 1)  # all_transpositions order
    laplacian = np.zeros(weights.shape[:-1] + (n, n))
    laplacian[..., low, high] = laplacian[..., high, low] = -weights
    laplacian[..., range(n), range(n)] = -laplacian.sum(axis=-1)
    return laplacian


def _centred(y: np.ndarray) -> np.ndarray:
    """A stack of ``n x n`` matrices with every row and column mean removed."""
    y = y - y.mean(axis=-2, keepdims=True)
    return y - y.mean(axis=-1, keepdims=True)


def _pair_chain(pairs: Sequence[tuple[Semiautomaton, Semiautomaton]]) -> Callable:
    """``I - M`` of each pair on a ``(P, n, n)`` stack of centred ``Y``, re-centred.

    Leaving out ``M``'s leading ``Y`` turns its slow modes (eigenvalues
    near 1) into small eigenvalues, which keep their relative accuracy.
    """
    n = pairs[0][0].n_states
    both, only_a, only_b = np.stack(
        [_mask_counts(a, b) / a.alphabet_size for a, b in pairs], axis=1
    )
    lap_a, lap_b = _laplacians(both + only_a, n), _laplacians(both + only_b, n)
    low, high = np.triu_indices(n, 1)

    def step(y: np.ndarray) -> np.ndarray:
        spread = y[:, low, low] + y[:, high, high] - y[:, low, high] - y[:, high, low]
        return _centred(lap_a @ y + y @ lap_b - _laplacians(both * spread, n))

    return step


def _gauss_rule(
    alpha: np.ndarray, beta: np.ndarray, word_lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``sum_i S_0i^2 (1 - mu_i)^T`` of each Lanczos tridiagonal ``S diag(mu) S'`` of ``I - M``,
    shape ``(pairs, word lengths)``, and where that is below the smallest normal
    double its log magnitude ``log sum_i S_0i^2 |1 - mu_i|^T`` (NaN elsewhere).

    ``(1 - mu)^T`` is taken as ``exp(T log1p(-mu))`` where ``mu < 1``:
    rounding ``1 - mu`` first would cost up to ``T`` ulps of relative error.
    Ritz values lie in the spectrum's range, and ``||M|| <= 1`` puts that
    in ``[0, 2]``, so ``mu`` is clipped there before ``T`` amplifies rounding.
    """
    count, k = alpha.shape
    tridiagonal = np.zeros((count, k, k))
    index = np.arange(k)
    tridiagonal[:, index, index] = alpha
    tridiagonal[:, index[1:], index[:-1]] = tridiagonal[:, index[:-1], index[1:]] = beta
    mu, vectors = np.linalg.eigh(tridiagonal)
    mu = np.clip(mu, 0.0, 2.0)[:, None, :]
    slow = mu < 1.0
    # T log |1 - mu|; log(mu - 1) is exact enough above 1, and mu = 1 counts as a smallest normal
    exponent = word_lengths[:, None] * np.where(
        slow, np.log1p(-np.where(slow, mu, 0.0)), np.log(np.maximum(mu - 1.0, _NORMAL))
    )
    # exp is 0 below -746, and numpy's exp is slow to underflow there
    power = np.exp(exponent, out=np.zeros_like(exponent), where=exponent > -746.0)
    pairs, _, ritz = np.nonzero(~slow)
    power[pairs, :, ritz] = (1.0 - mu[pairs, 0, ritz, None]) ** word_lengths
    weights = vectors[:, 0] ** 2
    weights[weights < _ROUNDING_WEIGHT] = 0.0
    estimate = np.einsum("pi,pti->pt", weights, power)
    log_size, tiny = np.full_like(estimate, np.nan), np.abs(estimate) < _NORMAL
    if tiny.any():
        log_weights = np.log(weights, out=np.full_like(weights, -np.inf), where=weights > 0.0)
        log_size[tiny] = np.logaddexp.reduce((log_weights[:, None, :] + exponent)[tiny], axis=1)
    return estimate, log_size


def _gauss_residuals(
    pairs: Sequence[tuple[Semiautomaton, Semiautomaton]], word_lengths: Sequence[int]
) -> np.ndarray:
    """``p_agree - 1/n`` of each pair at each word length (``T = 0`` gives exactly
    ``(n-1)/n``), in chunks whose Lanczos basis holds at most
    :data:`KRYLOV_ELEMENTS` entries at the largest step they may need."""
    n, lengths = pairs[0][0].n_states, np.asarray(word_lengths, dtype=np.int64)
    if not lengths.any():
        return np.full((len(pairs), lengths.size), (n - 1) / n)
    # the rule is exact at 2k - 1 >= T, and the Krylov space has at most (n-1)^2 dimensions
    steps = min((n - 1) ** 2, int(lengths.max()) // 2 + 1)
    chunk = max(1, KRYLOV_ELEMENTS // (steps * n * n))
    residuals = np.concatenate(
        [_gauss_chunk(pairs[low : low + chunk], lengths, steps)
         for low in range(0, len(pairs), chunk)]
    )
    residuals[:, lengths == 0] = (n - 1) / n
    return residuals


def _gauss_chunk(
    pairs: Sequence[tuple[Semiautomaton, Semiautomaton]], word_lengths: np.ndarray, steps: int
) -> np.ndarray:
    """Lanczos on ``I - M`` from ``Y_0 = I - J/n`` for every pair at once.

    The residual is ``||Y_0||^2 / n`` times the Gauss rule.  A pair stops
    at the first ``k`` where the rule is exact (``2k - 1 >= max T``, or the
    Krylov space closed) or agrees with the one at ``k - 1`` at every ``T``:
    within :data:`_AGREE_RTOL` relative or, where both are subnormal (0.0 at
    both steps before a slow mode is found), in log magnitude to ``_AGREE_RTOL * max(1, |log|)``.
    Each vector is fully reorthogonalised, then re-centred: rounding that
    leaves the centred space grows each step and shows up as spurious Ritz values.
    """
    n, count = pairs[0][0].n_states, len(pairs)
    step = _pair_chain(pairs)
    basis = np.empty((count, min(steps, 16), n * n))
    basis[:, 0] = ((np.eye(n) - 1.0 / n) / math.sqrt(n - 1)).reshape(-1)
    alpha, beta = np.zeros((count, steps)), np.zeros((count, steps))
    residuals, active = np.zeros((count, word_lengths.size)), np.ones(count, dtype=bool)
    previous = previous_size = np.full_like(residuals, np.nan)
    for k in range(1, steps + 1):
        vector = basis[:, k - 1]
        product = step(vector.reshape(count, n, n)).reshape(count, n * n)
        alpha[:, k - 1] = np.einsum("pi,pi->p", vector, product)
        for _ in range(2):  # classical Gram-Schmidt twice against the whole basis
            weights = np.einsum("pji,pi->pj", basis[:, :k], product)
            product -= np.einsum("pji,pj->pi", basis[:, :k], weights)
        product = _centred(product.reshape(count, n, n)).reshape(count, n * n)
        beta[:, k - 1] = np.linalg.norm(product, axis=1)
        estimate, size = _gauss_rule(alpha[:, :k], beta[:, : k - 1], word_lengths)
        closed = beta[:, k - 1] <= _BREAKDOWN
        agree = np.abs(estimate - previous) <= _AGREE_RTOL * np.abs(estimate)
        tail = np.maximum(np.abs(estimate), np.abs(previous)) < _NORMAL
        close = np.abs(size - previous_size) <= _AGREE_RTOL * np.maximum(1.0, np.abs(size))
        agree[tail] = close[tail]
        done = closed | agree.all(axis=1) | (2 * k - 1 >= word_lengths.max())
        residuals[active & done] = estimate[active & done]
        active &= ~done
        if not active.any():
            return residuals * (n - 1) / n
        if k == steps:
            break
        previous, previous_size = estimate, size
        if k == basis.shape[1]:
            grown = np.empty((count, min(k, steps - k), n * n))
            basis = np.concatenate([basis, grown], axis=1)
        # a closed space goes on with zero vectors, which leave its rule as it is
        basis[:, k] = product / np.where(closed, np.inf, beta[:, k - 1])[:, None]
    raise ArithmeticError(
        f"Lanczos-Gauss residual did not converge in {steps} steps (n={n}, T={word_lengths.max()})"
    )


def _count_agreements(
    reference: Semiautomaton, others: Sequence[Semiautomaton], runs: Sequence[Run], jobs: int
) -> np.ndarray:
    """Inputs of ``runs`` on which each of ``others`` agrees with ``reference``.

    Each run of :meth:`WordDistribution.blocks` or :meth:`WordDistribution.strata`
    is made and counted on one of ``jobs`` threads, and ``reference`` runs
    once per run.
    """

    def count(run: Run) -> np.ndarray:
        words, starts = run()
        labels = run_words(reference, words, starts)
        return np.array([(run_words(other, words, starts) == labels).sum() for other in others])

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return sum(pool.map(count, runs))
    return sum(map(count, runs))


def agreement_brute_force(
    a: Semiautomaton, b: Semiautomaton, word_length: int, jobs: int = 1
) -> AgreementReport:
    """Literal enumeration of every word and start; the independent oracle.

    Exact by construction: agreement is counted as an integer and the
    probability is a rational number.  Refuses when
    ``alphabet**word_length * n`` exceeds :data:`BRUTE_FORCE_LIMIT`.
    """
    _check_compatible(a, b)
    n = a.n_states
    dist = WordDistribution(n, a.alphabet_size, word_length)
    cost = dist.n_inputs()
    if cost > BRUTE_FORCE_LIMIT:
        raise BruteForceGuardError(cost, BRUTE_FORCE_LIMIT)
    exact = Fraction(int(_count_agreements(a, [b], dist.blocks(), jobs)[0]), cost)
    p_agree = float(exact)
    return AgreementReport(n, word_length, p_agree, p_agree - 1.0 / n, "brute-force", exact=exact)


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
    counter-based substreams, so the result depends on ``(seed, samples)``
    but not on ``jobs``.
    """
    _check_compatible(a, b)
    n = a.n_states
    runs = WordDistribution(n, a.alphabet_size, word_length).strata(samples, seed)
    p_agree = int(_count_agreements(a, [b], runs, jobs)[0]) / samples
    stderr = math.sqrt(p_agree * (1.0 - p_agree) / samples)
    return AgreementReport(
        n, word_length, p_agree, p_agree - 1.0 / n, "monte-carlo", stderr=stderr
    )


# key -> route, called as (a, b, word_length, samples, seed, jobs); the lambdas
# look each function up at call time, so a wrapped module attribute is seen.
AGREEMENT_METHODS: dict[str, Callable[..., AgreementReport]] = {
    "spectral": lambda a, b, t, samples, seed, jobs: agreement_exact(a, b, t),
    "brute": lambda a, b, t, samples, seed, jobs: agreement_brute_force(a, b, t, jobs),
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

    ``samples`` and ``seed`` are read by ``mc`` only, ``jobs`` by ``brute`` and ``mc``.
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

    The series is the Lanczos-Gauss rule (:func:`_gauss_residuals`) and the two
    eigenvalues come from the dense Fourier matrix.  The upper envelope
    ``(1 - 1/(2n))^T`` binds whenever the Fourier
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
    """Residuals for word lengths ``0..t_max``, from one Lanczos-Gauss run,
    checked against both envelopes."""
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
    residuals = _gauss_residuals([(a, b)], np.arange(t_max + 1))[0].tolist()
    points = []
    for t, residual in enumerate(residuals):
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
        n, norm, min_eig, upper_applies, lower_applies, tuple(points), upper_violations,
        lower_violations,
    )
