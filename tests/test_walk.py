import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsa.automata import FamilyConfig, Semiautomaton, build_family, min_alphabet_copies
from sqsa.perm import Permutation, SizeMismatchError, all_transpositions
from sqsa import walk
from sqsa.symrep import std_matrix
from sqsa.walk import (
    BruteForceGuardError,
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
    # action 1 + i is transposition i, taken by both machines on one symbol each
    assert dist.entries == ((1, 1, 1), (2, 2, 1), (3, 3, 1))


def test_step_distribution_ones_vs_zeros():
    a = automaton(3, 1, [1, 1, 1])
    b = automaton(3, 1, [0, 0, 0])
    dist = step_distribution(a, b)
    assert dist.alphabet_size == 3
    assert dist.entries == ((1, 0, 1), (2, 0, 1), (3, 0, 1))


@pytest.mark.parametrize("seed", range(6))
def test_step_distribution_masses_sum_to_one(seed):
    a, b = random_pair(4, 3, seed)
    dist = step_distribution(a, b)
    assert sum(count for _, _, count in dist.entries) == dist.alphabet_size == 18
    assert all(type(count) is int and count > 0 for _, _, count in dist.entries)


def test_step_distribution_mismatch_rejected():
    with pytest.raises(SizeMismatchError):
        step_distribution(automaton(3, 1, [1, 1, 1]), automaton(4, 1, [1] * 6))


def test_step_distribution_rejects_bad_masses():
    with pytest.raises(ValueError, match="sum to 2, expected exactly 3"):
        StepDistribution(3, 3, ((0, 0, 2),))
    with pytest.raises(ValueError, match="positive"):
        StepDistribution(3, 3, ((0, 0, 3), (1, 1, 0)))
    with pytest.raises(ValueError, match="outside 0..3"):
        StepDistribution(3, 3, ((0, 4, 3),))


def test_fourier_matrix_identity_distribution():
    dist = StepDistribution(4, 5, ((0, 0, 5),))
    assert np.abs(fourier_matrix(dist) - np.eye(9)).max() < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fourier_matrix_equals_literal_kron_sum(data):
    n = data.draw(st.integers(3, 6), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    size = k * n * (n - 1) // 2
    masks = [data.draw(st.lists(st.booleans(), min_size=size, max_size=size)) for _ in range(2)]
    dist = step_distribution(automaton(n, k, masks[0]), automaton(n, k, masks[1]))
    assert sum(count for _, _, count in dist.entries) == dist.alphabet_size == size
    actions = [Permutation.identity(n)] + [t.as_permutation(n) for t in all_transpositions(n)]
    reference = sum(
        count / size * np.kron(std_matrix(actions[left]), std_matrix(actions[right]))
        for left, right, count in dist.entries
    )
    assert np.abs(fourier_matrix(dist) - reference).max() <= 1e-12


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
    assert agreement_brute_force(a, b, t, jobs=2).exact == brute.exact
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

    def counted(chunk, t, steps):
        chunks.append(len(chunk))
        return run_chunk(chunk, t, steps)

    monkeypatch.setattr(walk, "_gauss_chunk", counted)
    together = walk._gauss_residuals(pairs, [90])[:, 0]
    monkeypatch.setattr(walk, "KRYLOV_ELEMENTS", 1)  # one pair per chunk
    alone = walk._gauss_residuals(pairs, [90])[:, 0]
    assert chunks == [4, 1, 1, 1, 1]
    assert alone == pytest.approx(together, rel=1e-12, abs=1e-300)
    singles = [agreement_exact(x, y, 90).residual for x, y in pairs]
    assert singles == pytest.approx(together, rel=1e-12)


def test_gauss_residual_fails_loudly_without_convergence(monkeypatch):
    a, b = random_pair(6, 2, 19)
    monkeypatch.setattr(walk, "_AGREE_RTOL", -1.0)
    monkeypatch.setattr(walk, "_BREAKDOWN", -1.0)
    # exact at k = 21, past the basis's first 16 columns
    assert agreement_exact(a, b, 41).residual == pytest.approx(dense_residual(a, b, 41), rel=1e-10)
    with pytest.raises(ArithmeticError):
        agreement_exact(a, b, 1000)  # (n-1)^2 = 25 steps, neither exact nor agreeing


def test_blocks_enumerate_every_input_once(monkeypatch):
    monkeypatch.setattr(walk, "BLOCK_INPUTS", 7)  # two words of three starts per block
    runs = WordDistribution(3, 3, 4).blocks()
    assert len(runs) == 41  # 81 words, two per block
    words, starts = zip(*(run() for run in runs))
    assert all(block.shape[0] * 3 <= 7 for block in words)
    assert np.concatenate(words).tolist() == [list(w) for w in itertools.product(range(3), repeat=4)]
    assert all(np.array_equal(block, np.tile([0, 1, 2], (block.shape[0], 1))) for block in starts)
    # T=0: the one empty word, run from every start
    (run,) = WordDistribution(5, 4, 0).blocks()
    words, starts = run()
    assert words.shape == (1, 0) and starts.tolist() == [[0, 1, 2, 3, 4]]


def test_strata_runs_keep_stratum_order_within_budgets(monkeypatch):
    dist = WordDistribution(3, 5, 4)
    monkeypatch.setattr(walk, "RUN_POSITIONS", 0)  # every stratum runs alone
    alone = [run() for run in dist.strata(100, 7)]  # 64 strata of one or two words
    assert len(alone) == 64
    monkeypatch.setattr(walk, "RUN_POSITIONS", 20)  # five words of T=4 per run
    runs = [run() for run in dist.strata(100, 7)]
    assert 1 < len(runs) < len(alone)
    for words, starts in runs:
        assert words.shape[0] * 4 <= 20 and starts.shape == words.shape[:1]
    for merged, single in zip(zip(*runs), zip(*alone)):  # words, then starts
        assert np.array_equal(np.concatenate(merged), np.concatenate(single))
    # a stratum over the budget runs alone, its arrays as drawn
    monkeypatch.setattr(walk, "BLOCK_INPUTS", 1)
    assert [run()[0].shape[0] for run in dist.strata(100, 7)] == [2] * 36 + [1] * 28


def test_merged_draws_change_no_count(monkeypatch):
    a, b = random_pair(4, 2, 5)
    strata = WordDistribution(4, a.alphabet_size, 6).strata(4000, 9)
    assert len(strata) == 1  # 64 small strata, one run

    def counts():
        return [
            (
                agreement_monte_carlo(a, b, 6, samples=4000, seed=9, jobs=jobs).p_agree,
                agreement_brute_force(a, b, 4, jobs=jobs).exact,
            )
            for jobs in (1, 2)
        ]

    merged = counts()
    monkeypatch.setattr(walk, "RUN_POSITIONS", 0)  # every stratum runs alone
    assert len(WordDistribution(4, a.alphabet_size, 6).strata(4000, 9)) == 64
    assert counts() == merged
    assert merged[0] == merged[1]


def test_agreement_monte_carlo_identical_pair():
    a, _ = random_pair(4, 2, 8)
    report = agreement_monte_carlo(a, a, 10, samples=500, seed=0)
    assert report.p_agree == 1.0
    assert report.stderr == 0.0


def test_agreement_monte_carlo_single_sample():
    a, b = random_pair(4, 2, 9)
    report = agreement_monte_carlo(a, b, 3, samples=1, seed=4)
    assert report.p_agree in (0.0, 1.0)


def test_agreement_monte_carlo_consistent_with_exact():
    a, b = random_pair(5, 20, 10)
    exact = agreement_exact(a, b, 50)
    sampled = agreement_monte_carlo(a, b, 50, samples=100_000, seed=11)
    assert abs(sampled.p_agree - exact.p_agree) <= 4 * sampled.stderr
    assert sampled.stderr == pytest.approx(
        math.sqrt(sampled.p_agree * (1 - sampled.p_agree) / 100_000)
    )


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


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_expected_operator_equals_transposition_average(n, p):
    eye = np.eye(n - 1)
    blends = [p * std_matrix(t.as_permutation(n)) + (1.0 - p) * eye for t in all_transpositions(n)]
    reference = sum(np.kron(blend, blend) for blend in blends) / len(blends)
    assert np.abs(expected_operator(n, p) - reference).max() <= 1e-12


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
    assert mixing_scan(a, b, t).points[t].residual == pytest.approx(single, rel=1e-11)


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
