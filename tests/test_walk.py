import gc
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqsa.automata import FamilyConfig, Semiautomaton, build_family, min_alphabet_copies, run_word
from sqsa.perm import Permutation, SizeMismatchError, all_transpositions
from sqsa import automata, walk
from sqsa.symrep import std_matrix
from sqsa.walk import (
    BruteForceGuardError,
    MixingPoint,
    StepDistribution,
    WordDistribution,
    agreement_brute_force,
    agreement_exact,
    agreement_monte_carlo,
    diagonal_vector,
    expected_operator,
    expected_spectrum,
    fixed_point_fourier_check,
    fourier_matrix,
    mixing_scan,
    spectral_norm,
    step_distribution,
)

# the three 2x2 standard-representation matrices at n=3, written out by hand
# in the package's fixed mean-zero basis
ROOT3 = math.sqrt(3.0)
STD_01 = np.array([[-1.0, 0.0], [0.0, 1.0]])
STD_02 = np.array([[0.5, -ROOT3 / 2], [-ROOT3 / 2, -0.5]])
STD_12 = np.array([[0.5, ROOT3 / 2], [ROOT3 / 2, -0.5]])


def automaton(n, k, bits):
    return Semiautomaton(n, k, np.array(bits, dtype=bool))


def random_pair(n, k, seed):
    family = build_family(FamilyConfig(n, k, 2, 0.5, seed))
    return family.members[0], family.members[1]


def test_step_distribution_identical_all_ones():
    a = automaton(3, 1, [1, 1, 1])
    dist = step_distribution(a, a)
    assert dist.alphabet_size == 3
    # rows: symbols acting on both machines, on a only, on b only; one column per transposition
    assert dist.entries.tolist() == [[1, 1, 1], [0, 0, 0], [0, 0, 0]]


def test_step_distribution_ones_vs_zeros():
    a = automaton(3, 1, [1, 1, 1])
    b = automaton(3, 1, [0, 0, 0])
    dist = step_distribution(a, b)
    assert dist.alphabet_size == 3
    assert dist.entries.tolist() == [[0, 0, 0], [1, 1, 1], [0, 0, 0]]


@pytest.mark.parametrize("seed", range(6))
def test_step_distribution_masses_sum_to_one(seed):
    # the counts cover the symbols acting on either machine, so the rest act on neither
    a, b = random_pair(4, 3, seed)
    dist = step_distribution(a, b)
    assert dist.entries.shape == (3, 6) and dist.entries.dtype == np.int64
    assert (dist.entries >= 0).all() and dist.alphabet_size == 18
    assert dist.entries.sum() == np.count_nonzero(a.mask | b.mask) <= dist.alphabet_size
    with pytest.raises(ValueError, match="read-only"):
        dist.entries[0, 0] = 1


@pytest.mark.parametrize("method", list(walk.AGREEMENT_METHODS))
def test_every_agreement_method_rejects_members_of_different_shapes(method):
    small, large = automaton(3, 1, [1, 0, 1]), automaton(4, 1, [1] * 6)
    with pytest.raises(SizeMismatchError, match=r"shapes differ: \(3, 1\) vs \(4, 1\)"):
        walk.agreement(method, small, large, 2, samples=10, seed=0)


def test_step_distribution_mismatch_rejected():
    with pytest.raises(SizeMismatchError):
        step_distribution(automaton(3, 1, [1, 1, 1]), automaton(4, 1, [1] * 6))


def three_product_counts(a, b):
    """Mask counts as three masked products summed over the copies: the
    reference for ``walk._pair_counts``."""
    mask_a = a.mask.reshape(a.n_copies, a.n_transpositions)
    mask_b = b.mask.reshape(b.n_copies, b.n_transpositions)
    return np.stack([mask_a & mask_b, mask_a & ~mask_b, ~mask_a & mask_b]).sum(axis=1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mask_counts_equal_the_three_product_form(data):
    # k up to 20 leaves most words part-filled; pairs may repeat a member or pair it
    # with itself, as the exact oracle's (reference, reference) does
    n, k = data.draw(st.integers(2, 9)), data.draw(st.integers(1, 20))
    size = k * n * (n - 1) // 2
    masks = st.one_of(
        st.just([True] * size),
        st.just([False] * size),
        st.lists(st.booleans(), min_size=size, max_size=size),
    )
    members = [automaton(n, k, data.draw(masks)) for _ in range(data.draw(st.integers(1, 4)))]
    index = st.integers(0, len(members) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=8))
    counts = walk._pair_counts([(members[i], members[j]) for i, j in pairs])
    assert counts.shape == (3, len(pairs), n * (n - 1) // 2)
    for column, (i, j) in zip(counts.transpose(1, 0, 2), pairs):
        assert np.array_equal(column, three_product_counts(members[i], members[j]))
    assert (counts.sum(axis=(0, 2)) <= members[0].alphabet_size).all()


def test_mask_counts_add_up_over_blocks_of_copies(monkeypatch):
    # 150 copies: three 64-copy blocks at the smallest budget, the last one part-filled
    family = build_family(FamilyConfig(5, 150, 3, 0.5, 41))
    a, b, c = family.members
    pairs = [(a, b), (b, c), (c, c), (a, c)]
    whole = walk._pair_counts(pairs)
    monkeypatch.setattr(walk, "COUNT_ELEMENTS", 1)
    assert np.array_equal(walk._pair_counts(pairs), whole)
    for column, (x, y) in zip(whole.transpose(1, 0, 2), pairs):
        assert np.array_equal(column, three_product_counts(x, y))


def test_mask_counts_refuse_members_of_another_shape():
    a, b = random_pair(4, 2, 3)
    with pytest.raises(SizeMismatchError):
        walk._pair_counts([(a, b), (b, automaton(4, 1, [True] * 6))])


def test_fourier_matrix_identity_distribution():
    # no symbol acts on either machine: every symbol is the identity pair
    dist = StepDistribution(4, 5, np.zeros((3, 6), dtype=np.int64))
    assert np.abs(fourier_matrix(dist) - np.eye(9)).max() < 1e-14


def count_triples(dist):
    """``(left, right, count)`` per nonzero count, action 0 the identity and ``1 + i``
    transposition ``i``, ``(0, 0)`` taking the symbols that act on neither machine."""
    neither = dist.alphabet_size - int(dist.entries.sum())
    triples = [(0, 0, neither)] if neither else []
    for swap, (both, only_a, only_b) in enumerate(dist.entries.T.tolist(), start=1):
        triples += [t for t in ((swap, swap, both), (swap, 0, only_a), (0, swap, only_b)) if t[2]]
    return triples


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fourier_matrix_equals_literal_kron_sum(data):
    n = data.draw(st.integers(3, 6), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    size = k * n * (n - 1) // 2
    masks = [data.draw(st.lists(st.booleans(), min_size=size, max_size=size)) for _ in range(2)]
    dist = step_distribution(automaton(n, k, masks[0]), automaton(n, k, masks[1]))
    triples = count_triples(dist)
    assert sum(count for _, _, count in triples) == dist.alphabet_size == size
    actions = [Permutation.identity(n)] + [t.as_permutation(n) for t in all_transpositions(n)]
    reference = sum(
        count / size * np.kron(std_matrix(actions[left]), std_matrix(actions[right]))
        for left, right, count in triples
    )
    assert np.abs(fourier_matrix(dist) - reference).max() <= 1e-12
    # reference weights filled one triple at a time: the count form keeps every bit
    weights = np.zeros((len(actions), len(actions)))
    for left, right, count in triples:
        weights[left, right] = count / size
    assert np.array_equal(fourier_matrix(dist), walk._kron_sum(walk._factor_stack(n), weights))


def test_fourier_matrix_hand_computation_n3():
    a = automaton(3, 1, [1, 1, 1])
    b = automaton(3, 1, [1, 0, 1])
    expected = (np.kron(STD_01, STD_01) + np.kron(STD_02, np.eye(2)) + np.kron(STD_12, STD_12)) / 3
    matrix = fourier_matrix(step_distribution(a, b))
    assert np.abs(matrix - expected).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_identical_pair_has_diagonal_eigenvector(n):
    a, _ = random_pair(n, 2, seed=n)
    matrix = fourier_matrix(step_distribution(a, a))
    v = diagonal_vector(n)
    assert np.abs(matrix @ v - v).max() < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_fourier_matrix_symmetric_and_contractive(seed):
    a, b = random_pair(5, 2, seed)
    matrix = fourier_matrix(step_distribution(a, b))
    assert np.abs(matrix - matrix.T).max() < 1e-10
    assert spectral_norm(matrix) <= 1 + 1e-10


def test_agreement_exact_word_length_zero():
    a, b = random_pair(4, 1, 0)
    report = agreement_exact(a, b, 0)
    assert report.p_agree == 1.0
    assert report.residual == pytest.approx((4 - 1) / 4, abs=1e-15)


def test_agreement_exact_identical_automata():
    a, _ = random_pair(5, 3, 1)
    for t in (1, 7, 40):
        assert agreement_exact(a, a, t).p_agree == pytest.approx(1.0, abs=1e-10)


def test_agreement_exact_matches_brute_on_hand_case():
    a = automaton(3, 1, [1, 1, 1])
    b = automaton(3, 1, [1, 0, 1])
    exact = agreement_exact(a, b, 2)
    brute = agreement_brute_force(a, b, 2)
    assert abs(exact.p_agree - brute.p_agree) < 1e-12


def test_agreement_brute_hand_value_n3():
    # mask 100 vs 000, one-symbol words: (1/3)(1/3 + 1 + 1) = 7/9
    a = automaton(3, 1, [1, 0, 0])
    b = automaton(3, 1, [0, 0, 0])
    report = agreement_brute_force(a, b, 1)
    assert report.exact == Fraction(7, 9)


def test_agreement_brute_single_symbol_alphabet():
    # n=2 has exactly one transposition, so k=1 gives a one-symbol alphabet;
    # a swap against the identity never agrees after one step
    a = automaton(2, 1, [1])
    b = automaton(2, 1, [0])
    report = agreement_brute_force(a, b, 1)
    assert report.exact == 0
    assert agreement_brute_force(a, b, 0).exact == 1


@pytest.mark.parametrize("n,k,seed", [(3, 1, 2), (3, 2, 3), (4, 1, 4), (4, 2, 5), (5, 1, 6), (5, 2, 7)])
def test_agreement_exact_equals_brute_force(n, k, seed):
    a, b = random_pair(n, k, seed)
    for t in range(5):
        exact = agreement_exact(a, b, t)
        brute = agreement_brute_force(a, b, t)
        assert abs(exact.p_agree - brute.p_agree) < 1e-10
        assert exact.residual == pytest.approx(brute.residual, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 2), st.integers(0, 4), st.integers(0, 2**32))
def test_agreement_routes_agree_on_random_pairs(n, k, t, seed):
    a, b = random_pair(n, k, seed)
    exact = agreement_exact(a, b, t)
    brute = agreement_brute_force(a, b, t)
    assert abs(exact.p_agree - brute.p_agree) < 1e-10
    assert exact.residual == pytest.approx(brute.residual, abs=1e-10)
    sampled = agreement_monte_carlo(a, b, t, samples=4000, seed=seed)
    assert abs(sampled.p_agree - exact.p_agree) <= 5 * sampled.stderr + 1e-12


def dense_residual(a, b, t):
    """``v' M^T v / n`` by ``t`` products with the dense Fourier matrix."""
    matrix = fourier_matrix(step_distribution(a, b))
    vector = power = diagonal_vector(a.n_states)
    for _ in range(t):
        power = matrix @ power
    return float(vector @ power) / a.n_states


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(1, 3), st.integers(0, 400), st.integers(0, 2**32))
def test_gauss_residual_equals_dense_powers_on_random_pairs(n, k, t, seed):
    a, b = random_pair(n, k, seed)
    residual = agreement_exact(a, b, t).residual
    expected = dense_residual(a, b, t)
    assert abs(residual - expected) <= max(1e-10 * abs(expected), 1e-13)
    assert abs(residual) <= 1 - 1 / n


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_identical_members_close_the_krylov_space_at_one_step(n, monkeypatch):
    a, _ = random_pair(n, 2, n)
    steps = []
    rule = walk._gauss_rule

    def counted(alpha, beta, t):
        steps.append(alpha.shape[1])
        return rule(alpha, beta, t)

    monkeypatch.setattr(walk, "_gauss_rule", counted)
    for t in (1, 2, 399, 10**6):
        assert agreement_exact(a, a, t).residual == pytest.approx((n - 1) / n, rel=1e-9)
    assert steps == [1, 1, 1, 1]


def test_gauss_residuals_do_not_depend_on_chunking(monkeypatch):
    a, b = random_pair(6, 2, 17)
    c, _ = random_pair(6, 2, 18)
    pairs = [(a, b), (b, c), (a, a), (c, a)]
    chunks = []
    run_chunk = walk._gauss_chunk

    def counted(counts, *rest):
        chunks.append(counts.shape[1])
        return run_chunk(counts, *rest)

    monkeypatch.setattr(walk, "_gauss_chunk", counted)
    together = walk._gauss_residuals(pairs, [90])[:, 0]
    monkeypatch.setattr(walk, "KRYLOV_ELEMENTS", 1)  # one pair per chunk
    alone = walk._gauss_residuals(pairs, [90])[:, 0]
    assert chunks == [4, 1, 1, 1, 1]
    assert alone == pytest.approx(together, rel=1e-12, abs=1e-300)
    singles = [agreement_exact(x, y, 90).residual for x, y in pairs]
    assert singles == pytest.approx(together, rel=1e-12, abs=0.0)


def test_a_growing_krylov_basis_holds_the_running_pairs_only(monkeypatch):
    a, b = random_pair(6, 2, 17)
    c, _ = random_pair(6, 2, 18)
    pairs = [(a, b), (b, c), (a, a), (c, a)]  # (a, a) closes its Krylov space at one step
    held, chains, rule, chain = [], [], walk._gauss_rule, walk._pair_chain

    def counted_rule(alpha, beta, t):
        held.append(alpha.shape)
        return rule(alpha, beta, t)

    def counted_chain(counts, *rest):
        chains.append(counts.shape[1])
        return chain(counts, *rest)

    monkeypatch.setattr(walk, "_gauss_rule", counted_rule)
    monkeypatch.setattr(walk, "_pair_chain", counted_chain)
    together = walk._gauss_residuals(pairs, [90])[:, 0]
    # (a, a) leaves the chunk at its first step; the basis then grows past 16 columns for the rest
    assert chains == [4, 3] and held[:2] == [(4, 1), (3, 2)] and held[-1] == (3, 17)
    assert together.tolist() == [walk._gauss_residuals([pair], [90])[0, 0] for pair in pairs]


def test_gauss_residual_fails_loudly_without_convergence(monkeypatch):
    a, b = random_pair(6, 2, 19)
    monkeypatch.setattr(walk, "_AGREE_RTOL", -1.0)
    monkeypatch.setattr(walk, "_BREAKDOWN", -1.0)
    # exact at k = 21, past the basis's first 16 columns
    assert agreement_exact(a, b, 41).residual == pytest.approx(dense_residual(a, b, 41), rel=1e-10)
    with pytest.raises(ArithmeticError):
        agreement_exact(a, b, 1000)  # (n-1)^2 = 25 steps, neither exact nor agreeing


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(1, 2),
    st.integers(0, 4),
    st.sampled_from([4, 7, 40, 200]),
    st.integers(0, 2**32 - 1),
)
@example(n=3, k=1, t=0, budget=40, seed=0)  # the empty word: no tree to walk
@example(n=3, k=1, t=1, budget=40, seed=0)  # the starts' rows of every symbol, one chunk
@example(n=4, k=2, t=1, budget=7, seed=0)  # the starts read 7 // 4 = 1 symbol at a time
@example(n=3, k=1, t=2, budget=40, seed=0)  # one chunk over both levels
@example(n=2, k=1, t=4, budget=4, seed=0)  # one symbol: a chain, not a tree
@example(n=3, k=1, t=4, budget=7, seed=0)  # a node of 81 leaves, expanded level by level
@example(n=4, k=2, t=2, budget=4, seed=0)  # a node's 12 leaves over the budget, read 4 at a time
def test_brute_force_counts_every_word_from_every_start(n, k, t, budget, seed):
    assume(k == 1 or t <= 3)  # at most 6912 inputs to run one by one
    a, b = random_pair(n, k, seed)
    words = list(itertools.product(range(a.alphabet_size), repeat=t))
    expected = sum(run_word(a, w, s) == run_word(b, w, s) for w in words for s in range(n))
    sizes = []
    count = automata._count_leaves

    def sized(tables, states_a, states_b, depth):
        sizes.append(states_a.size * tables[0].shape[1] ** depth)
        return count(tables, states_a, states_b, depth)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "RUN_ELEMENTS", budget)  # leaves of a breadth-first chunk
        patch.setattr(automata, "_count_leaves", sized)
        report = agreement_brute_force(a, b, t)
    assert report.exact == Fraction(expected, len(words) * n)
    assert sum(sizes) == (len(words) * n if t else 0)  # each input read once
    assert max(sizes, default=0) <= budget


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 4),
    k=st.integers(1, 2),
    machines=st.integers(1, 5),
    t=st.sampled_from([0, 1, 2, 7]),
    words=st.integers(0, 2).flatmap(lambda q: st.integers(64 * q + 1, 64 * q + 63)),
    run_bytes=st.sampled_from([0, 50, 200, 1 << 21]),
    alone=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_count_equals_run_word_per_input(n, k, machines, t, words, run_bytes, alone, seed):
    # every stratum over the budget (0), some over it (50 bytes: a word of T=7 at n=3 is 55),
    # runs of a few strata and of all of them; walkers in pairs or alone.  Each word is read
    # from every start, and a machine's counts are (sum c, sum c^2) over the words, c its
    # agreeing starts of a word
    family = build_family(FamilyConfig(n, k, machines, 0.5, seed))
    reference, rest = family.members[0], family.members[1:]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "RUN_BYTES", run_bytes)
        patch.setattr(automata, "JOINT_TABLE_ENTRIES", 0 if alone else automata.JOINT_TABLE_ENTRIES)
        assert automata._walks_pairs(n) is not alone
        runs = WordDistribution(n, reference.alphabet_size, t).strata(words, seed)
        drawn = [list(w) for run in runs for w in run()]
        assert len(drawn) == words
        agreed = [[sum(run_word(reference, w, s) == run_word(other, w, s) for s in range(n))
                   for w in drawn] for other in rest]
        expected = [[sum(c) for c in agreed], [sum(c * c for c in counts) for counts in agreed]]
        for jobs in (1, 3):
            assert walk._count_agreements(reference, rest, runs, jobs).tolist() == expected


def test_strata_runs_keep_stratum_order_within_budgets(monkeypatch):
    # a row costs its stored word and its walk from every start: T x itemsize + 16 n bytes
    dist = WordDistribution(3, 5, 4)  # words stored a byte a symbol: 4 + 48 bytes a row
    monkeypatch.setattr(walk, "RUN_BYTES", 0)  # every stratum runs alone
    alone = [run() for run in dist.strata(100, 7)]  # 64 strata of one or two words
    assert len(alone) == 64
    monkeypatch.setattr(walk, "RUN_BYTES", 5 * 52)  # five words of T=4 per run
    runs = [run() for run in dist.strata(100, 7)]
    assert 1 < len(runs) < len(alone)
    assert all(words.shape[0] <= 5 for words in runs)
    assert np.array_equal(np.concatenate(runs), np.concatenate(alone))
    # a stratum over the budget runs alone
    monkeypatch.setattr(walk, "RUN_BYTES", 52)
    assert [run().shape[0] for run in dist.strata(100, 7)] == [2] * 36 + [1] * 28
    # two bytes a symbol past 256 symbols: at T=40 a row takes 128 bytes, not 88
    monkeypatch.setattr(walk, "RUN_BYTES", 5 * 128)
    wide = [run() for run in WordDistribution(3, 300, 40).strata(100, 7)]
    narrow = [run() for run in WordDistribution(3, 5, 40).strata(100, 7)]
    assert {words.dtype for words in wide} == {np.dtype(np.uint16)}
    assert [max(words.shape[0] for words in r) for r in (wide, narrow)] == [5, 7]
    # T=0: a run's walk is all it takes, 16 n bytes a row
    monkeypatch.setattr(walk, "RUN_BYTES", 5 * 48)
    runs = [run() for run in WordDistribution(3, 5, 0).strata(100, 7)]
    assert all(words.shape[1] == 0 for words in runs)
    assert max(words.shape[0] for words in runs) == 5
    assert sum(words.shape[0] for words in runs) == 100


def row_major_strata(symbols, length, count, seed, key):
    """Every stratum's draw as row-major int64 words, concatenated in stratum order:
    the reference that strata runs of any dtype and layout must give."""
    base, extra = divmod(count, walk.SAMPLE_STRATA)
    words = []
    for stratum in range(min(count, walk.SAMPLE_STRATA)):
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=key + (stratum,))
        rng = np.random.Generator(np.random.Philox(sequence))
        words.append(rng.integers(0, symbols, size=(base + (1 if stratum < extra else 0), length)))
    return np.concatenate(words)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 9),
    symbols=st.one_of(st.integers(1, 5000), st.sampled_from([2**i for i in range(13)]),
                      st.sampled_from([65_535, 65_536, 65_537])),
    length=st.integers(0, 40),
    count=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
    key=st.lists(st.integers(0, 2**32 - 1), max_size=3).map(tuple),
    piece=st.sampled_from([0, 7, 1 << 16]),
)
@example(n=2, symbols=1, length=0, count=1, seed=0, key=(), piece=0)
def test_strata_draw_the_row_major_int64_inputs_as_drawn(n, symbols, length, count, seed, key, piece):
    # the words only: a count reads each from every start, so no start is drawn
    words = row_major_strata(symbols, length, count, seed, key)
    low = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "RUN_ELEMENTS", piece)  # entries of one word draw: a row at a time at 0
        runs = WordDistribution(n, symbols, length).strata(count, seed, key)
    for run in runs:
        drawn = run()
        high = low + drawn.shape[0]
        assert drawn.flags.c_contiguous  # row-major, no time-major copy
        # stored narrow: a byte a symbol to 256 symbols, two to 65 536, then four
        assert drawn.dtype == np.min_scalar_type(symbols - 1)
        assert np.array_equal(drawn, words[low:high])
        low = high
    assert low == count


def test_merged_draws_change_no_count(monkeypatch):
    a, b = random_pair(4, 2, 5)
    strata = WordDistribution(4, a.alphabet_size, 6).strata(1000, 9)  # 4000 samples: 1000 words
    assert len(strata) == 1  # 64 small strata, one run

    def counts():
        sampled = [agreement_monte_carlo(a, b, 6, samples=4000, seed=9, jobs=jobs).p_agree for jobs in (1, 2)]
        return sampled, agreement_brute_force(a, b, 4).exact

    merged = counts()
    monkeypatch.setattr(walk, "RUN_BYTES", 0)  # every stratum runs alone
    monkeypatch.setattr(walk, "RUN_ELEMENTS", 0)  # every tree node runs alone, every word row drawn alone
    assert len(WordDistribution(4, a.alphabet_size, 6).strata(1000, 9)) == 64
    assert counts() == merged
    assert merged[0][0] == merged[0][1]


def test_a_count_stacks_its_tables_once(monkeypatch):
    # each walker's classes are built once per count, not once per run, and no mask
    # is hashed or compared
    family = build_family(FamilyConfig(4, 2, 5, 0.5, 3))
    reference, others = family.members[0], family.members[1:]
    position = {id(member): i for i, member in enumerate(family.members)}
    original, built = automata._symbol_classes, []
    step_codes, tables = automata._step_codes, []

    def classes(*machines):
        built.append(tuple(position[id(machine)] for machine in machines))
        return original(*machines)

    def codes(*shape):
        tables.append(shape)
        return step_codes(*shape)

    def refuse(self, *args):
        raise AssertionError("a mask was hashed or compared")

    monkeypatch.setattr(automata, "_symbol_classes", classes)
    monkeypatch.setattr(automata, "_step_codes", codes)
    monkeypatch.setattr(Semiautomaton, "__hash__", refuse)
    monkeypatch.setattr(Semiautomaton, "__eq__", refuse)
    # 20 000 words of 6 bytes, walked from 4 starts (70 bytes a row): 32 runs of two strata
    monkeypatch.setattr(walk, "RUN_BYTES", 44_000)
    runs = WordDistribution(4, 12, 6).strata(20_000, 1)
    assert len(runs) == 32
    for jobs in (1, 2):
        built.clear()
        tables.clear()
        walk._count_agreements(reference, others, runs, jobs=jobs)
        assert built == [(0, 1), (2, 3), (4, 4)]  # the walk's pairs, an odd last one with itself
        assert tables == [(4, True)]  # one joint table per count


@pytest.mark.parametrize("n", [24, 30], ids=["paired", "alone"])
def test_a_count_keeps_nothing_alive(n):
    # at n = 24 the joint step table holds 3.82 MB; past it (n = 30) machines walk alone.
    # Once a count returns, neither its step table nor its walkers' classes stay behind
    a, b = build_family(FamilyConfig(n, 1, 2, 0.5, n)).members
    assert automata._walks_pairs(n) is (n == 24)
    # numpy's one-time state, made on another shape so that the traced count builds its own tables
    agreement_monte_carlo(*random_pair(4, 1, 0), 5, 100, 0, jobs=1)
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        agreement_monte_carlo(a, b, 30, 2000, 0, jobs=1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert kept <= 2**19  # 0.5 MB


def test_monte_carlo_peak_memory_at_the_benchmark_shape(monkeypatch):
    # pagree --method mc in the benchmark: n=8 at the paper's copy count (A = 21 896),
    # T = 170, 100 000 samples, one thread.  Stored a stratum's int32 draw to a run, the
    # count peaked at 2 864 059 traced bytes (numpy 2.4.6); runs of several strata,
    # stored two bytes a symbol and each word walked from all 8 starts, must not need more.
    a, b = build_family(FamilyConfig(8, min_alphabet_copies(8), 2, 0.5, 0)).members
    tracemalloc.start()
    try:
        agreement_monte_carlo(a, b, 170, 100_000, 0, jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_864_059


def test_agreement_monte_carlo_identical_pair():
    a, _ = random_pair(4, 2, 8)
    report = agreement_monte_carlo(a, a, 10, samples=500, seed=0)
    assert report.p_agree == 1.0
    assert report.stderr == 0.0


def test_agreement_monte_carlo_single_sample(monkeypatch):
    # fewer samples than starts still draws two words, so the standard error is finite
    a, b = random_pair(4, 2, 9)
    strata, drawn = WordDistribution.strata, []

    def spy(dist, words, *rest):
        drawn.append(words)
        return strata(dist, words, *rest)

    monkeypatch.setattr(WordDistribution, "strata", spy)
    for samples in (1, 3, 4):
        report = agreement_monte_carlo(a, b, 3, samples=samples, seed=4)
        assert report.p_agree * 8 in range(9)  # 2 words x 4 starts
        assert math.isfinite(report.stderr) and report.stderr >= 0.0
    assert drawn == [2, 2, 2]


def test_agreement_monte_carlo_consistent_with_exact():
    a, b = random_pair(5, 20, 10)
    exact = agreement_exact(a, b, 50)
    sampled = agreement_monte_carlo(a, b, 50, samples=100_000, seed=11)
    assert abs(sampled.p_agree - exact.p_agree) <= 4 * sampled.stderr
    # the standard error of a mean of 20 000 words' agreeing shares c / 5, from the same words
    agreed = []
    for run in WordDistribution(5, a.alphabet_size, 50).strata(20_000, 11):
        states = automata.run_words(automata._prepare_walk([a, b]), run())
        agreed.append(np.count_nonzero(states[0] == states[1], axis=1))
    agreed = np.concatenate(agreed)
    assert agreed.size == 20_000 and sampled.p_agree == agreed.sum() / 100_000
    assert sampled.stderr == pytest.approx(np.std(agreed / 5, ddof=1) / math.sqrt(20_000), rel=1e-9)
    # a word's share never varies more than one start's outcome does
    assert sampled.stderr <= math.sqrt(sampled.p_agree * (1 - sampled.p_agree) / 20_000)


@pytest.mark.parametrize("n,k,t,samples", [(4, 4, 6, 400), (6, 8, 20, 2000), (8, 782, 170, 4000)])
def test_monte_carlo_standard_errors_are_calibrated(n, k, t, samples):
    # z = (MC - exact) / stderr over 300 seeds has mean about 0 and deviation about 1
    a, b = random_pair(n, k, n)
    exact = agreement_exact(a, b, t).p_agree
    reports = [agreement_monte_carlo(a, b, t, samples, seed) for seed in range(300)]
    z = np.array([(r.p_agree - exact) / r.stderr for r in reports])
    assert abs(z.mean()) <= 0.2 and 0.85 <= z.std() <= 1.15


@pytest.mark.parametrize("n,samples", [(8, 100_000), (12, 20_000)])
def test_monte_carlo_in_the_papers_regime_lands_near_spectral(n, samples):
    # the paper's word length ceil(2 n ln n!) at its copy count: T = 170 and T = 480
    a, b = build_family(FamilyConfig(n, min_alphabet_copies(n), 2, 0.5, 0)).members
    t = automata.min_word_length(n)
    sampled = agreement_monte_carlo(a, b, t, samples, seed=1)
    assert abs(sampled.p_agree - agreement_exact(a, b, t).p_agree) <= 6 * sampled.stderr


def test_agreement_monte_carlo_jobs_invariant():
    a, b = random_pair(5, 4, 12)
    serial = agreement_monte_carlo(a, b, 20, samples=10_000, seed=21, jobs=1)
    threaded = agreement_monte_carlo(a, b, 20, samples=10_000, seed=21, jobs=4)
    assert serial.p_agree == threaded.p_agree


def test_brute_force_guard_refuses_with_estimate():
    a, b = random_pair(5, 50, 13)  # 500 symbols
    with pytest.raises(BruteForceGuardError) as info:
        agreement_brute_force(a, b, 5)
    assert info.value.estimated_cost == 500**5 * 5


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(7)) == pytest.approx(1.0)


def test_spectral_norm_rejects_asymmetric():
    matrix = np.zeros((3, 3))
    matrix[0, 1] = 1e-3
    with pytest.raises(ValueError):
        spectral_norm(matrix)


def test_spectral_norm_matches_power_iteration():
    # independent cross-check of the eigensolver path
    a, b = random_pair(5, 3, 15)
    matrix = fourier_matrix(step_distribution(a, b))
    squared = matrix @ matrix  # PSD, same norm^2
    x = np.full(matrix.shape[0], 1.0) / math.sqrt(matrix.shape[0])
    for _ in range(2000):
        y = squared @ x
        x = y / np.linalg.norm(y)
    power_norm = math.sqrt(float(x @ (squared @ x)))
    assert power_norm == pytest.approx(spectral_norm(matrix), abs=1e-8)


@pytest.mark.parametrize(
    "place", ["nan on the diagonal", "inf off the diagonal", "asymmetric nan"]
)
@pytest.mark.parametrize("n", [3, 40])
def test_spectral_norm_refuses_non_finite_entries(n, place):
    # a comparison with NaN is False, so a tolerance test alone lets each of these through
    matrix = 0.5 * np.eye(n)
    if place == "nan on the diagonal":
        matrix[1, 1] = np.nan
    elif place == "inf off the diagonal":
        matrix[0, 2] = matrix[2, 0] = np.inf
    else:
        matrix[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        spectral_norm(matrix)


def spectrum_matrix(eigenvalues, seed):
    """A symmetric matrix with the given spectrum, in a random orthonormal basis."""
    n = len(eigenvalues)
    basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    matrix = basis @ np.diag(eigenvalues) @ basis.T
    return (matrix + matrix.T) / 2.0


def padded(head, n, rng, bound):
    """``head`` cut to ``n`` values, then values uniform in ``(-bound, bound)`` up to ``n``."""
    head = np.asarray(head, dtype=float)[:n]
    return np.append(head, rng.uniform(-bound, bound, n - head.size))


SPECTRA = {
    "random": lambda n, rng: padded([], n, rng, 1.0),
    "zero": lambda n, rng: np.zeros(n),
    "identity": lambda n, rng: np.ones(n),
    "negative-dominant": lambda n, rng: padded([-1.0], n, rng, 0.9),
    "equal extremes": lambda n, rng: padded([1.0, -1.0], n, rng, 0.9),
    "repeated extreme": lambda n, rng: padded([-0.75] * 3, n, rng, 0.7),
}


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 40), st.sampled_from(sorted(SPECTRA)), st.integers(0, 2**32 - 1), st.booleans()
)
def test_checked_eigenvalues_are_eigvalsh_bit_for_bit(n, kind, seed, dense):
    rng = np.random.default_rng(seed)
    if dense and kind == "random":  # an unstructured matrix, not built from its spectrum
        matrix = rng.uniform(-1.0, 1.0, (n, n))
        matrix = matrix + matrix.T + rng.uniform(-1e-11, 1e-11, (n, n))
    else:
        matrix = spectrum_matrix(SPECTRA[kind](n, rng), seed)
    eigenvalues = walk._checked_eigenvalues(matrix)
    expected = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    assert eigenvalues.tobytes() == expected.tobytes()
    reference = np.linalg.eigh((matrix + matrix.T) / 2.0)[0]
    assert abs(eigenvalues[0] - reference[0]) <= 1e-12
    assert abs(eigenvalues[-1] - reference[-1]) <= 1e-12
    assert spectral_norm(matrix) == np.max(np.abs(expected))


@pytest.mark.parametrize("dominant", [1.0, -1.0])
@pytest.mark.parametrize("move", [1e-6, -1e-6])
def test_inertia_bracket_catches_a_moved_extreme_eigenvalue(monkeypatch, dominant, move):
    matrix = spectrum_matrix(dominant * np.array([0.9, 0.6, 0.25, -0.1, -0.4, -0.7]), 3)
    extremes = walk._checked_eigenvalues(matrix)[[0, -1]]
    assert extremes == pytest.approx(sorted([-0.7 * dominant, 0.9 * dominant]), abs=1e-14)
    eigvalsh = np.linalg.eigvalsh

    def moved(symmetric):
        eigenvalues = eigvalsh(symmetric)
        eigenvalues[np.argmax(np.abs(eigenvalues))] += move
        return eigenvalues

    monkeypatch.setattr(walk.np.linalg, "eigvalsh", moved)
    with pytest.raises(ArithmeticError, match="inertia"):
        walk._checked_eigenvalues(matrix)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_expected_operator_equals_transposition_average(n, p):
    eye = np.eye(n - 1)
    blends = [p * std_matrix(t.as_permutation(n)) + (1.0 - p) * eye for t in all_transpositions(n)]
    reference = sum(np.kron(blend, blend) for blend in blends) / len(blends)
    assert np.abs(expected_operator(n, p) - reference).max() <= 1e-12


@pytest.mark.parametrize("p", [0.5, 0.3, 1e-3, 0.999])
@pytest.mark.parametrize("n", range(2, 10))
def test_expected_operator_keeps_the_hand_built_weights(n, p):
    # reference weights filled by hand: the shared builder keeps every bit
    n_swaps = n * (n - 1) // 2
    weights = np.diag(np.full(n_swaps + 1, p * p / n_swaps))
    weights[0, 1:] = weights[1:, 0] = p * (1.0 - p) / n_swaps
    weights[0, 0] = (1.0 - p) ** 2
    assert np.array_equal(expected_operator(n, p), walk._kron_sum(walk._factor_stack(n), weights))


def test_expected_operator_norm_n4():
    assert spectral_norm(expected_operator(4, 0.5)) == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("n", [4, 5])
def test_expected_spectrum_matches_eigensolve(n):
    eigenvalues = np.linalg.eigvalsh(expected_operator(n, 0.5))[::-1]
    expected = []
    for value, multiplicity in expected_spectrum(n):
        expected.extend([float(value)] * multiplicity)
    assert len(expected) == (n - 1) ** 2
    assert np.abs(eigenvalues - np.array(expected)).max() < 1e-9


def test_expected_spectrum_n4_values():
    spectrum = expected_spectrum(4)
    assert [(value, mult) for value, mult in spectrum] == [
        (Fraction(2, 3), 1),
        (Fraction(1, 2), 3),
        (Fraction(5, 12), 2),
        (Fraction(1, 3), 3),
    ]


def test_expected_spectrum_matches_closed_form_fractions():
    # the character-ratio derivation against the four fractions it replaced
    for n in range(4, 30):
        assert expected_spectrum(n) == [
            (Fraction(n - 2, n - 1), 1),
            (Fraction(2 * n - 5, 2 * (n - 1)), n - 1),
            (Fraction(n * n - 3 * n + 1, n * (n - 1)), n * (n - 3) // 2),
            (Fraction(n - 3, n - 1), (n - 1) * (n - 2) // 2),
        ]


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("p", [Fraction(3, 10), Fraction(7, 8)])
def test_expected_spectrum_away_from_half_matches_eigensolve(n, p):
    eigenvalues = np.linalg.eigvalsh(expected_operator(n, float(p)))[::-1]
    expected = []
    for value, multiplicity in expected_spectrum(n, p):
        assert isinstance(value, Fraction)
        expected.extend([float(value)] * multiplicity)
    assert np.abs(eigenvalues - np.array(expected)).max() <= 1e-12


def test_expected_spectrum_at_p_three_tenths_n5():
    spectrum = expected_spectrum(5, Fraction(3, 10))
    assert spectrum == [
        (Fraction(79, 100), 1),
        (Fraction(149, 200), 4),
        (Fraction(359, 500), 5),
        (Fraction(7, 10), 6),
    ]


def test_expected_spectrum_minimum_eigenvalue_n5():
    assert expected_spectrum(5)[-1][0] == Fraction(1, 2)


def test_expected_spectrum_refuses_n3():
    with pytest.raises(ValueError):
        expected_spectrum(3)


def test_expected_operator_n3_measured_only():
    matrix = expected_operator(3, 0.5)
    assert np.abs(matrix - matrix.T).max() < 1e-12
    assert spectral_norm(matrix) <= 1 + 1e-12


@pytest.mark.parametrize("p", [0.25, 0.75])
def test_expected_operator_gap_maximized_at_half(p):
    fair = spectral_norm(expected_operator(5, 0.5))
    biased = spectral_norm(expected_operator(5, p))
    assert fair < biased


def test_fixed_point_fourier_check_small_n():
    report3 = fixed_point_fourier_check(3)
    assert report3.scalar_factor == Fraction(36, 2)  # (3!)^2 / (3 - 1)
    assert report3.passed
    report4 = fixed_point_fourier_check(4)
    assert report4.scalar_factor == 192
    assert report4.rel_err_diagonal < 1e-6
    assert report4.max_abs_left_trivial < 1e-8
    assert report4.max_abs_right_trivial < 1e-8
    assert report4.passed


def test_fixed_point_fourier_check_refuses_large_n():
    with pytest.raises(ValueError):
        fixed_point_fourier_check(6)


def test_mixing_scan_residual_at_zero():
    for n in (3, 5, 7):
        a, b = random_pair(n, 2, 16)
        for x, y in ((a, b), (a, a)):
            scan = mixing_scan(x, y, 3)
            assert scan.points[0].residual == (n - 1) / n
            assert scan.points[0].p_agree == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 12), st.integers(1, 3), st.integers(1, 200), st.integers(0, 2**32),
    st.booleans(),
)
def test_mixing_series_equals_dense_matvecs(n, k, t_max, seed, same):
    a, b = random_pair(n, k, seed)
    if same:
        b = a
    matrix = fourier_matrix(step_distribution(a, b))
    vector = power = diagonal_vector(n)
    expected = []
    for _ in range(t_max + 1):
        expected.append(float(vector @ power) / n)
        power = matrix @ power
    series = [point.residual for point in mixing_scan(a, b, t_max).points]
    assert len(series) == t_max + 1
    for residual, dense in zip(series, expected):
        assert abs(residual - dense) <= max(1e-10 * abs(dense), 1e-13)


@pytest.mark.parametrize("n, k, t", [(4, 1, 7), (6, 2, 55), (9, 3, 180), (12, 1, 400)])
def test_mixing_series_ends_at_the_single_word_length_residual(n, k, t):
    a, b = random_pair(n, k, n + t)
    single = agreement_exact(a, b, t).residual
    assert mixing_scan(a, b, t).points[t].residual == pytest.approx(single, rel=1e-11, abs=0.0)


def test_rounding_weights_past_the_krylov_space_count_for_nothing():
    # v spans 21 Krylov directions here; the steps after those meet a mode v does
    # not touch (I - M eigenvalue 0.092) at weight ~1e-33, which at T=999 would
    # more than double the residual.  The reference is the 36-state chain of the
    # pair's images, powered in 110-digit arithmetic.
    a, b = build_family(FamilyConfig(6, 1, 6, 0.5, 1)).members[2:4]
    exact = pytest.approx(3.20153551815396e-76, rel=1e-9, abs=0.0)
    assert agreement_exact(a, b, 999).residual == exact


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 6),
    t=st.one_of(st.integers(0, 3000), st.integers(0, 10**6)),
    data=st.data(),
)
def test_residual_matches_dense_eigendecomposition(n, t, data):
    masks = st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    a, b = automaton(n, 1, data.draw(masks)), automaton(n, 1, data.draw(masks))
    eigenvalues, vectors = np.linalg.eigh(fourier_matrix(step_distribution(a, b)))
    weights = (vectors.T @ diagonal_vector(n)) ** 2
    # weights of rounding size sit on modes that v does not touch; at large T
    # their slow decay would swamp the sum
    weights[weights < 1e-18] = 0.0
    reference = float(weights @ eigenvalues**t) / n
    # an eigenvalue good to ~1e-14 moves its power by t * 1e-14 * |eigenvalue|^(t-1)
    size = np.abs(eigenvalues)
    doubt = weights @ (1e-15 * size**t + t * 1e-14 * size ** max(t - 1, 0)) / n
    if abs(reference) >= np.finfo(float).tiny and doubt <= 1e-7 * abs(reference):
        assert agreement_exact(a, b, t).residual == pytest.approx(reference, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("n, k, seed", [(10, 1, 3272444790), (12, 2, 3834164936)])
def test_subnormal_tail_adds_no_lanczos_steps(n, k, seed, monkeypatch):
    # held to the relative test, these tails cost 3 more Lanczos steps
    a, b = build_family(FamilyConfig(n, k, 2, 0.5, seed)).members
    steps = []
    rule = walk._gauss_rule

    def counted(alpha, beta, t):
        steps.append(alpha.shape[1])
        return rule(alpha, beta, t)

    monkeypatch.setattr(walk, "_gauss_rule", counted)
    series = walk._gauss_residuals([(a, b)], np.arange(30001))[0]
    with_tail = max(steps)
    normal = np.nonzero(np.abs(series) >= np.finfo(float).tiny)[0]
    assert normal.max() < 30000  # the series ends in a subnormal (or zero) tail
    steps.clear()
    cut = walk._gauss_residuals([(a, b)], np.arange(normal.max() + 1))[0]
    assert max(steps) == with_tail
    assert np.array_equal(cut, series[: normal.max() + 1])


@pytest.mark.parametrize("n, k, t_max", [(5, 1, 20000), (20, None, 2000)])
def test_mixing_scan_long_series_is_fast(n, k, t_max):
    # at n=5, k=1 the tail of the series is subnormal and must not hold up the kernel
    a, b = random_pair(n, k or min_alphabet_copies(n), 1)
    started = time.perf_counter()
    scan = mixing_scan(a, b, t_max)
    assert time.perf_counter() - started < 1.0
    assert len(scan.points) == t_max + 1


def test_mixing_scan_monotone_residual_for_psd_matrix():
    a, b = random_pair(5, min_alphabet_copies(5), 17)
    scan = mixing_scan(a, b, 60)
    assert scan.min_eigenvalue > 0  # threshold-sized alphabets concentrate well
    residuals = [point.residual for point in scan.points]
    assert all(x >= y - 1e-15 for x, y in zip(residuals, residuals[1:]))


def test_mixing_scan_envelopes_hold_on_threshold_pair():
    a, b = random_pair(5, min_alphabet_copies(5), 18)
    scan = mixing_scan(a, b, 100)
    assert scan.upper_applies and scan.lower_applies
    assert scan.upper_violations == ()
    assert scan.lower_violations == ()


@pytest.mark.parametrize("seed", range(3))
def test_residual_bounded_by_norm_power(seed):
    a, b = random_pair(5, 3, seed + 40)
    matrix = fourier_matrix(step_distribution(a, b))
    norm = spectral_norm(matrix)
    v = diagonal_vector(5)
    power = v.copy()
    for t in range(1, 101):
        power = matrix @ power
        residual = abs(float(v @ power) / 5)
        assert residual <= norm**t * (4 / 5) + 1e-12


def test_mixing_scan_rejects_bad_t_max():
    a, b = random_pair(4, 1, 19)
    with pytest.raises(ValueError):
        mixing_scan(a, b, 0)


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 24), st.integers(1, 2000), st.integers(0, 2**32 - 1), st.booleans())
@example(24, 2000, 5, False)
@example(3, 1, 6, True)
def test_mixing_scan_points_equal_a_per_point_reference(n, t_max, seed, same):
    a, b = random_pair(n, 2, seed)
    if same:
        b = a
    scan = mixing_scan(a, b, t_max)
    residuals = walk._gauss_residuals([(a, b)], np.arange(t_max + 1))[0]
    reference = []
    for t, residual in enumerate(residuals.tolist()):
        upper, lower = (1.0 - 1.0 / (2 * n)) ** t, 0.5 * (1.0 - 3.0 / n) ** t
        reference.append(MixingPoint(t, 1.0 / n + residual, residual, upper, lower))
    assert repr(scan.points) == repr(tuple(reference))  # repr tells -0.0 from 0.0
    assert scan.upper_violations == tuple(
        p.word_length for p in reference if scan.upper_applies and abs(p.residual) > p.upper_bound
    )
    assert scan.lower_violations == tuple(
        p.word_length for p in reference if scan.lower_applies and p.residual < p.lower_bound
    )


def test_mixing_scan_counts_the_masks_once(monkeypatch):
    a, b = random_pair(9, 2, 21)
    calls, pair_counts = [], walk._pair_counts

    def counted(pairs):
        calls.append(len(pairs))
        return pair_counts(pairs)

    monkeypatch.setattr(walk, "_pair_counts", counted)
    mixing_scan(a, b, 300)
    assert calls == [1]
