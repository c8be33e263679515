import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsa.automata import FamilyConfig, Semiautomaton, build_family, min_alphabet_copies
from sqsa.perm import Permutation, SizeMismatchError, all_transpositions
from sqsa.symrep import std_matrix
from sqsa.walk import (
    BruteForceGuardError,
    StepDistribution,
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
    a, b = random_pair(5, 2, 16)
    scan = mixing_scan(a, b, 3)
    assert scan.points[0].residual == pytest.approx(4 / 5, abs=1e-12)
    assert scan.points[0].p_agree == pytest.approx(1.0, abs=1e-12)


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
