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
- ``brute`` (label ``brute-force``): every (word, start) input, on the
  pair's prefix tree (``automata.agreeing_inputs``), giving an exact rational;
- ``mc`` (label ``monte-carlo``): stratified words, each read from every
  start (:func:`_sampled_agreement`), with a standard error.

Both input routes count agreements as integers.  Brute force walks the
pair's states down the prefix tree of every word, depth-first, each machine
on its own successor table, and expands a chunk of nodes breadth-first once
the inputs below it number at most :data:`RUN_ELEMENTS`; the last symbol is
read as one agreement bool per input.  Monte Carlo (and the sampled oracle)
count over ``run_words`` (:func:`_count_agreements`): a run of consecutive
strata is one word per row, drawn int64, :data:`RUN_ELEMENTS` at a time, and
stored in the narrowest unsigned dtype.  A count prepares the walk of all its
machines once, on the calling thread, and ``run_words`` walks each run on it
from every start.  Runs are counted on ``jobs`` threads; brute force runs on
one.  Counts are integers, so neither chunk or run sizes nor their order
changes a result.

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

The step reads a pair only through its mask counts: per transposition,
the symbols acting on both machines, on one only, and on the other only.
One pass (:func:`_pair_counts`) takes them for every pair of a run: it
reads each distinct member's mask once, in blocks of copies, packs 64
copies of a transposition into one word, and counts each pair's ``both``
as a popcount of ANDed words.  At the paper's copy count a mask holds
millions of bits (18 million at n = 60), so ``certify`` pays one read of
each member's mask, not one per pair.

The rule is a sum of exponentials in ``T``, so one run also gives
:func:`mixing_scan` its whole series.  The same counts give the dense ``M``
(:func:`fourier_matrix`, built only for the realized spectrum and a mixing
scan's extreme eigenvalues: eigenvalues only, the extreme one bracketed within
1e-8 by inertia) by the weights that :func:`expected_operator` uses.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .automata import Semiautomaton, _check_compatible, _prepare_walk, agreeing_inputs, run_words
from .perm import Permutation, all_transpositions
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
RUN_ELEMENTS = 1 << 16  # per machine, entries of brute force's largest array; words of one strata draw
RUN_BYTES = 3 << 19  # bytes (1.5 MB) of a strata run's stored words and its walk
KRYLOV_ELEMENTS = 1 << 20  # first Lanczos basis entries (pairs x min(steps, 16) x n^2) per chunk;
# past 16 steps the basis doubles over the pairs still running only: running x steps x n^2 at most
COUNT_ELEMENTS = 1 << 24  # mask bits, over all members, of one block of copies in _pair_counts
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


# () -> words (B, T), each row read from every start
Run = Callable[[], np.ndarray]


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

    def strata(self, words: int, seed: int, key: tuple[int, ...] = ()) -> list[Run]:
        """``words`` words over :data:`SAMPLE_STRATA` strata, in runs of consecutive strata.

        A run's words and its walk from every start, ``rows x (T x itemsize + 16 n)``
        bytes, take at most :data:`RUN_BYTES`; a stratum over that runs alone.
        Stratum ``s`` draws its words from its own Philox substream, spawn key
        ``key + (s,)``, so no run depends on which worker makes it.  Words are
        drawn row-major in numpy's default int64, at most :data:`RUN_ELEMENTS` at
        a time, and stored ``(B, T)`` in the narrowest unsigned dtype: a stream
        gives the same values in pieces as in one call, so pieces change no word.
        """
        if words < 1:
            raise ValueError("need at least one word")
        base, extra = divmod(words, SAMPLE_STRATA)
        # strata past the first ``words`` would draw nothing
        counts = [base + (1 if s < extra else 0) for s in range(min(words, SAMPLE_STRATA))]
        stored = np.min_scalar_type(self.n_symbols - 1)
        piece = max(1, RUN_ELEMENTS // max(1, self.word_length))  # rows of one word draw

        def run(strata: range) -> np.ndarray:
            out = np.empty((sum(counts[stratum] for stratum in strata), self.word_length), stored)
            high = 0
            for stratum in strata:
                sequence = np.random.SeedSequence(entropy=seed, spawn_key=key + (stratum,))
                rng = np.random.Generator(np.random.Philox(sequence))
                low, high = high, high + counts[stratum]
                for first in range(low, high, piece):
                    drawn = out[first : min(first + piece, high)]
                    drawn[...] = rng.integers(0, self.n_symbols, drawn.shape)
            return out

        firsts, rows, row_bytes = [], 0, self.word_length * stored.itemsize + 16 * self.n_states
        for stratum, count in enumerate(counts):
            rows += count
            if not firsts or rows * row_bytes > RUN_BYTES:
                firsts.append(stratum)
                rows = count
        bounds = itertools.pairwise(firsts + [len(counts)])
        return [functools.partial(run, range(low, high)) for low, high in bounds]


@dataclass(frozen=True, eq=False)
class StepDistribution:
    """One joint step as a pair's read-only ``(3, C(n,2))`` int64 counts (:func:`_pair_counts`).

    Per transposition, ``entries`` holds the symbols of ``alphabet_size`` acting on
    both machines, on ``a`` only and on ``b`` only; the rest act on neither.  The same
    counts drive the Lanczos step (:func:`_pair_chain`) and the dense ``M`` (:func:`fourier_matrix`).
    """

    n_states: int
    alphabet_size: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def _packed_copies(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Bool mask rows ``(copies, C)`` of each block, packed along the copies.

    The result is ``(len(blocks), ceil(copies / 64), C)`` uint64: each word
    holds 64 copies of one transposition (zero bits past the last copy),
    the same copy at the same bit in every block, so a popcount of two
    blocks' ANDed words counts the copies on which both act.  Eight
    transpositions share a 64-bit lane, one byte each, while eight copies
    are shifted into each byte; then eight such bytes make one word.
    """
    copies, columns = blocks[0].shape
    words, width = -(-copies // 64), -(-columns // 8) * 8
    lanes = np.zeros((len(blocks), 64 * words, width), dtype=np.uint8)
    for lane, rows in zip(lanes, blocks):
        lane[:copies, :columns] = rows
    lanes = lanes.view(np.uint64)
    octets = lanes[:, 0::8].copy()  # bit b of each byte: copy 8q + b of that transposition
    for bit in range(1, 8):
        octets |= lanes[:, bit::8] << np.uint64(bit)
    octets = octets.view(np.uint8).reshape(len(blocks), words, 8, width).swapaxes(-1, -2)
    return np.ascontiguousarray(octets).view(np.uint64)[..., :columns, 0]


def _pair_counts(pairs: Sequence[tuple[Semiautomaton, Semiautomaton]]) -> np.ndarray:
    """Symbols per transposition acting on both machines, on ``a`` only and on ``b`` only,
    for every pair ``(a, b)``.

    Shape ``(3, len(pairs), C(n,2))`` int64, transpositions in
    ``all_transpositions`` order; the remaining symbols act on neither
    machine.  Each distinct member (by identity: its hash would read the
    whole mask) is read once, in blocks of copies that hold at most
    :data:`COUNT_ELEMENTS` mask bits over all members, and packed 64 copies
    a word (:func:`_packed_copies`).  A popcount of its words gives each
    member's own count, and one of each pair's ANDed words its ``both``;
    each own count less ``both`` is what acts on that machine alone.
    """
    members = list({id(m): m for m in itertools.chain.from_iterable(pairs)}.values())
    index = {id(member): i for i, member in enumerate(members)}
    _check_compatible(*members)
    first, second = np.array([[index[id(a)], index[id(b)]] for a, b in pairs]).T
    copies, columns = members[0].n_copies, members[0].n_transpositions
    block = max(64, COUNT_ELEMENTS // (len(members) * columns) // 64 * 64)
    own = np.zeros((len(members), columns), dtype=np.int64)
    both = np.zeros((len(pairs), columns), dtype=np.int64)
    for low in range(0, copies, block):
        words = _packed_copies([m.mask.reshape(copies, columns)[low : low + block] for m in members])
        own += np.bitwise_count(words).sum(axis=1, dtype=np.uint32)
        for pair, (i, j) in enumerate(zip(first, second)):
            both[pair] += np.bitwise_count(words[i] & words[j]).sum(axis=0, dtype=np.uint32)
    return np.stack([both, own[first] - both, own[second] - both])


def step_distribution(a: Semiautomaton, b: Semiautomaton) -> StepDistribution:
    """The pair's mask counts, straight from the two masks (:func:`_pair_counts`)."""
    return StepDistribution(a.n_states, a.alphabet_size, _pair_counts([(a, b)])[:, 0])


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


def _step_weights(neither, both, only_a, only_b, count: int) -> np.ndarray:
    """:func:`_kron_sum`'s weights over ``count`` transpositions ``S``: ``neither`` on
    ``I (x) I``; ``both``, ``only_a``, ``only_b`` (a scalar, or one value per ``S``) on
    ``S (x) S``, ``S (x) I`` and ``I (x) S``."""
    weights, swaps = np.zeros((count + 1, count + 1)), np.arange(1, count + 1)
    weights[0, 0], weights[swaps, swaps] = neither, both
    weights[swaps, 0], weights[0, swaps] = only_a, only_b
    return weights


def fourier_matrix(dist: StepDistribution) -> np.ndarray:
    """Probability-weighted sum of Kronecker products of standard-representation matrices.

    Each count of ``dist.entries`` over ``alphabet_size`` weighs its ``std(left) (x)
    std(right)`` (:func:`_step_weights`), all in one product (:func:`_kron_sum`).
    Symmetric (all support actions are involutions and the representation is
    orthogonal) with spectral norm at most 1 (convex combination of orthogonal
    matrices).  Built only for the realized spectrum and the norm and smallest
    eigenvalue of :func:`mixing_scan`.
    """
    size, counts = dist.alphabet_size, dist.entries
    both, only_a, only_b = counts / size
    weights = _step_weights((size - int(counts.sum())) / size, both, only_a, only_b, counts.shape[1])
    return _kron_sum(_factor_stack(dist.n_states), weights)


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


def _pair_chain(counts: np.ndarray, n: int, alphabet_size: int) -> Callable:
    """``I - M`` of each pair on a ``(P, n, n)`` stack of centred ``Y``, re-centred,
    from the pairs' ``(3, P, C(n,2))`` counts of :func:`_pair_counts`.

    Leaving out ``M``'s leading ``Y`` turns its slow modes (eigenvalues
    near 1) into small eigenvalues, which keep their relative accuracy.
    """
    both, only_a, only_b = counts / alphabet_size
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


def _gauss_residuals(pairs: Sequence[tuple[Semiautomaton, Semiautomaton]], word_lengths) -> np.ndarray:
    """``p_agree - 1/n`` of each pair at each word length, counted in one :func:`_pair_counts` pass."""
    a = pairs[0][0]
    return _counted_residuals(_pair_counts(pairs), a.n_states, a.alphabet_size, word_lengths)


def _counted_residuals(counts: np.ndarray, n: int, alphabet_size: int, word_lengths) -> np.ndarray:
    """``p_agree - 1/n`` of each pair of ``(3, P, C(n,2))`` ``counts`` at each word length
    (``T = 0`` gives exactly ``(n-1)/n``).  The pairs run in chunks whose first Lanczos basis
    holds at most :data:`KRYLOV_ELEMENTS` entries.  Runs stop after a few steps at any ``T``,
    so a chunk is sized by that first basis, ``min(steps, 16)`` columns, not by
    the most steps it may need (:func:`_gauss_chunk` grows it for running pairs)."""
    lengths = np.asarray(word_lengths, dtype=np.int64)
    # the rule is exact at 2k - 1 >= T, and the Krylov space has at most (n-1)^2 dimensions
    steps = min((n - 1) ** 2, int(lengths.max()) // 2 + 1)
    chunk = max(1, KRYLOV_ELEMENTS // (min(steps, 16) * n * n))  # the basis _gauss_chunk starts with
    residuals = np.concatenate(
        [_gauss_chunk(counts[:, low : low + chunk], n, alphabet_size, lengths, steps)
         for low in range(0, counts.shape[1], chunk)]
    )
    residuals[:, lengths == 0] = (n - 1) / n
    return residuals


def _gauss_chunk(
    counts: np.ndarray, n: int, alphabet_size: int, word_lengths: np.ndarray, steps: int
) -> np.ndarray:
    """Lanczos on ``I - M`` from ``Y_0 = I - J/n`` for every pair of ``counts`` at once.

    The residual is ``||Y_0||^2 / n`` times the Gauss rule.  A pair stops at the first ``k``
    where the rule is exact (``2k - 1 >= max T``, or the Krylov space closed) or agrees with
    the one at ``k - 1`` at every ``T``: within :data:`_AGREE_RTOL` relative or, where both are
    subnormal (0.0 at both steps before a slow mode is found), in log magnitude to
    ``_AGREE_RTOL * max(1, |log|)``; it then leaves the chunk, so the basis holds and grows for
    running pairs only.  Each vector is fully reorthogonalised, then re-centred: rounding that
    leaves the centred space grows each step and shows up as spurious Ritz values.
    """
    count, step = counts.shape[1], _pair_chain(counts, n, alphabet_size)
    live = np.arange(count)  # the running pairs, which the arrays below hold in chunk order
    basis = np.empty((count, min(steps, 16), n * n))
    basis[:, 0] = ((np.eye(n) - 1.0 / n) / math.sqrt(n - 1)).reshape(-1)
    alpha, beta = np.zeros((count, steps)), np.zeros((count, steps))
    residuals = np.zeros((count, word_lengths.size))
    previous = previous_size = np.full_like(residuals, np.nan)
    for k in range(1, steps + 1):
        vector = basis[:, k - 1]
        product = step(vector.reshape(-1, n, n)).reshape(-1, n * n)
        alpha[:, k - 1] = np.einsum("pi,pi->p", vector, product)
        for _ in range(2):  # classical Gram-Schmidt twice against the whole basis
            weights = np.einsum("pji,pi->pj", basis[:, :k], product)
            product -= np.einsum("pji,pj->pi", basis[:, :k], weights)
        product = _centred(product.reshape(-1, n, n)).reshape(-1, n * n)
        beta[:, k - 1] = np.linalg.norm(product, axis=1)
        estimate, size = _gauss_rule(alpha[:, :k], beta[:, : k - 1], word_lengths)
        closed = beta[:, k - 1] <= _BREAKDOWN
        agree = np.abs(estimate - previous) <= _AGREE_RTOL * np.abs(estimate)
        tail = np.maximum(np.abs(estimate), np.abs(previous)) < _NORMAL
        close = np.abs(size - previous_size) <= _AGREE_RTOL * np.maximum(1.0, np.abs(size))
        agree[tail] = close[tail]
        done = closed | agree.all(axis=1) | (2 * k - 1 >= word_lengths.max())
        residuals[live[done]] = estimate[done]
        if done.all():
            return residuals * (n - 1) / n
        if k == steps:
            break
        if done.any():  # finished pairs (closed spaces among them) leave the chunk
            live, basis, alpha, beta, product, estimate, size = (
                held[~done] for held in (live, basis, alpha, beta, product, estimate, size))
            step = _pair_chain(counts[:, live], n, alphabet_size)
        previous, previous_size = estimate, size
        if k == basis.shape[1]:
            basis = np.concatenate([basis, np.empty((live.size, min(k, steps - k), n * n))], axis=1)
        basis[:, k] = product / beta[:, k - 1, None]
    raise ArithmeticError(
        f"Lanczos-Gauss residual did not converge in {steps} steps (n={n}, T={word_lengths.max()})"
    )


def _count_agreements(
    reference: Semiautomaton, others: Sequence[Semiautomaton], runs: Sequence[Run], jobs: int
) -> np.ndarray:
    """``(sum c, sum c^2)`` of each of ``others``, ``(2, M)`` int64, over the words of
    ``runs``: ``c`` counts the starts of a word from which it ends where ``reference`` does.

    The walk of ``reference`` and ``others`` together is prepared once, on the
    calling thread (shapes that differ raise ``SizeMismatchError`` here).  Each
    run of :meth:`WordDistribution.strata` is then made and counted on one of
    ``jobs`` threads (a lone run on the calling thread), in one ``run_words``
    call on that walk from all ``n`` starts.
    """
    prepared = _prepare_walk([reference, *others])

    def count(run: Run) -> np.ndarray:
        states = run_words(prepared, run())
        agreed = np.count_nonzero(states[1:] == states[0], axis=2)
        return np.stack([agreed.sum(axis=1), (agreed * agreed).sum(axis=1)])

    if jobs > 1 and len(runs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return sum(pool.map(count, runs))
    return sum(map(count, runs))


def _sampled_agreement(
    reference: Semiautomaton, others: Sequence[Semiautomaton], dist: WordDistribution,
    samples: int, seed: int, key: tuple[int, ...], jobs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``p_agree`` of each of ``others`` with ``reference``, and its standard error, on
    ``samples`` inputs: ``words = max(2, ceil(samples / n))`` strata words, each read
    from all ``n`` starts.  A word agreeing on ``c`` starts gives ``c / n``, its
    chance of agreement (Rao-Blackwellised: Casella & Robert, 1996), so
    ``p = sum c / (words n)`` and the standard error is ``sqrt(var_w / words)``,
    ``var_w = (sum c^2 - (sum c)^2 / words) / (words - 1) / n^2``, in exact integers.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n, words = dist.n_states, max(2, -(-samples // dist.n_states))
    total, squares = _count_agreements(reference, others, dist.strata(words, seed, key), jobs).tolist()
    spread = np.array([words * q - c * c for c, q in zip(total, squares)], dtype=float)
    return np.array(total) / (words * n), np.sqrt(spread / (words * words * (words - 1))) / n


def agreement_brute_force(a: Semiautomaton, b: Semiautomaton, word_length: int) -> AgreementReport:
    """Literal enumeration of every word and start; the independent oracle.

    The pair's states walk the prefix tree of every word from every start
    (``automata.agreeing_inputs``), in chunks of at most
    :data:`RUN_ELEMENTS` inputs, and read each input's last symbol as
    agreement.  Exact by construction: agreement is counted as an integer
    and the probability is a rational number.  Refuses when
    ``alphabet**word_length * n`` exceeds :data:`BRUTE_FORCE_LIMIT`.
    """
    n = a.n_states
    cost = WordDistribution(n, a.alphabet_size, word_length).n_inputs()
    if cost > BRUTE_FORCE_LIMIT:
        raise BruteForceGuardError(cost, BRUTE_FORCE_LIMIT)
    exact = Fraction(agreeing_inputs(a, b, word_length, RUN_ELEMENTS), cost)
    p_agree = float(exact)
    return AgreementReport(n, word_length, p_agree, p_agree - 1.0 / n, "brute-force", exact=exact)


def agreement_monte_carlo(
    a: Semiautomaton, b: Semiautomaton, word_length: int, samples: int, seed: int, jobs: int = 1
) -> AgreementReport:
    """Unbiased estimate on ``samples`` inputs, sampled words each read from every start,
    with the standard error of :func:`_sampled_agreement`.

    Words are split over a fixed number of strata with independent
    counter-based substreams, so the result depends on ``(seed, samples)``
    but not on ``jobs``.  Shapes that differ raise ``SizeMismatchError``
    before the first run is drawn.
    """
    n = a.n_states
    dist = WordDistribution(n, a.alphabet_size, word_length)
    p_agree, stderr = (float(x[0]) for x in _sampled_agreement(a, [b], dist, samples, seed, (), jobs))
    return AgreementReport(n, word_length, p_agree, p_agree - 1.0 / n, "monte-carlo", stderr=stderr)


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
    """Ascending eigenvalues (``eigvalsh`` only) of a finite symmetric matrix; the extreme one,
    ``top`` of sign ``s``, is bracketed within 1e-8 by inertia: ``s((top + s 1e-8) I - M)`` must
    have a Cholesky factor (no eigenvalue lies past it) and ``s((top - s 1e-8) I - M)`` must not
    (one lies within 1e-8 of ``top``), else ``ArithmeticError`` (Sylvester's law of inertia)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(matrix - matrix.T)) > 1e-10:
        raise ValueError("matrix is not symmetric within tolerance")
    symmetric = (matrix + matrix.T) / 2.0
    eigenvalues = np.linalg.eigvalsh(symmetric)
    top = eigenvalues[np.argmax(np.abs(eigenvalues))]
    symmetric *= -np.copysign(1.0, top)  # in place: s (top I - M) off the diagonal
    diagonal = symmetric.diagonal() + abs(top)
    for shift, definite in ((1e-8, True), (-1e-8, False)):
        np.fill_diagonal(symmetric, diagonal + shift)
        try:
            np.linalg.cholesky(symmetric)
            factored = True
        except np.linalg.LinAlgError:
            factored = False
        if factored != definite:
            raise ArithmeticError(f"inertia bracket of the extreme eigenvalue {top!r} failed")
    return eigenvalues


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, inertia-bracketed within 1e-8."""
    return float(np.max(np.abs(_checked_eigenvalues(matrix))))


def expected_operator(n_states: int, p: float = 0.5) -> np.ndarray:
    """Mask-average of the Fourier matrix for an independently masked pair.

    Averages ``(p*S + (1-p)*I) (x) (p*S + (1-p)*I)`` over all ``C``
    transposition matrices ``S``: the weights are ``(1-p)^2`` on
    ``I (x) I``, ``p(1-p)/C`` on each ``S (x) I`` and ``I (x) S``, and
    ``p^2/C`` on each ``S (x) S`` (:func:`_step_weights`, as for
    :func:`fourier_matrix`), summed in one product (:func:`_kron_sum`).
    """
    if n_states < 2:
        raise ValueError("need at least 2 states")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mask parameter must be in (0, 1), got {p}")
    n_swaps, mixed = n_states * (n_states - 1) // 2, p * (1.0 - p)
    weights = _step_weights((1.0 - p) ** 2, p * p / n_swaps, mixed / n_swaps, mixed / n_swaps, n_swaps)
    return _kron_sum(_factor_stack(n_states), weights)


def expected_spectrum(n_states: int, p: Fraction = Fraction(1, 2)) -> list[tuple[Fraction, int]]:
    """Closed-form eigenvalues (descending) and multiplicities of the mask-``p`` average.

    Valid for ``n >= 4``, where the Kronecker square of the standard
    representation splits into four distinct irreducible blocks; smaller
    ``n`` must be measured numerically instead.  With ``S = (n-1, 1)`` and
    ``r`` the transposition character ratio, the irrep ``lam`` of
    ``S (x) S`` carries ``(1-p)^2 + 2p(1-p) r(S) + p^2 r(lam)`` with
    multiplicity ``dim(lam)``: averaging ``(pS + (1-p)I) (x) (pS + (1-p)I)``
    over transpositions turns each term into its character ratio.
    """
    if n_states < 4:
        raise ValueError("closed-form spectrum needs n >= 4")
    n, p = n_states, Fraction(p)
    shared = (1 - p) ** 2 + 2 * p * (1 - p) * char_ratio(Partition.standard(n))
    labels = [Partition(parts) for parts in ((n,), (n - 1, 1), (n - 2, 2), (n - 2, 1, 1))]
    return [(shared + p * p * char_ratio(label), irrep_dim(label)) for label in labels]


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


class MixingPoint(NamedTuple):
    """One row of a mixing scan, with the closed-form decay envelopes."""

    word_length: int
    p_agree: float
    residual: float
    upper_bound: float
    lower_bound: float


@dataclass(frozen=True)
class MixingScan:
    """Residual series of a pair with bound applicability flags and violations.

    The series is the Lanczos-Gauss rule (:func:`_counted_residuals`) and the two eigenvalues
    come from the dense Fourier matrix (eigenvalues only, with a 1e-8 inertia bracket:
    :func:`_checked_eigenvalues`), both from one pass of the pair's mask counts.  The upper
    envelope ``(1 - 1/(2n))^T`` binds whenever the Fourier matrix norm is at most ``1 - 1/(2n)``;
    the lower envelope ``(1/2)(1 - 3/n)^T`` binds whenever the matrix is positive definite
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
    n, dist = a.n_states, step_distribution(a, b)
    eigenvalues = _checked_eigenvalues(fourier_matrix(dist))
    norm, min_eig = float(np.max(np.abs(eigenvalues))), float(eigenvalues[0])
    slow, fast = 1.0 - 1.0 / (2 * n), 1.0 - 3.0 / n  # the envelopes' bases
    upper_applies = norm <= slow
    lower_applies = min_eig > 0.0 and min_eig >= (n - 3) / (n - 1) - 1.0 / (2 * n)
    residuals = _counted_residuals(dist.entries[:, None], n, a.alphabet_size, np.arange(t_max + 1))
    points = tuple(  # Python's float ** at each T: np.power differs in the last bit
        MixingPoint(t, 1.0 / n + residual, residual, slow**t, 0.5 * fast**t)
        for t, residual in enumerate(residuals[0].tolist())
    )
    upper = tuple(p.word_length for p in points if upper_applies and abs(p.residual) > p.upper_bound)
    lower = tuple(p.word_length for p in points if lower_applies and p.residual < p.lower_bound)
    return MixingScan(n, norm, min_eig, upper_applies, lower_applies, points, upper, lower)
