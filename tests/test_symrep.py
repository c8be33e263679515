import math
from fractions import Fraction

import numpy as np
import pytest

from sqsa.perm import Permutation, all_permutations, all_transpositions, compose, fix_count
from sqsa.symrep import (
    Partition,
    char_ratio,
    irrep_dim,
    partitions,
    perm_matrix,
    std_basis,
    std_matrix,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition(())


def test_irrep_dim_trivial_and_standard():
    for n in range(2, 8):
        assert irrep_dim(Partition.trivial(n)) == 1
        assert irrep_dim(Partition.standard(n)) == n - 1


def test_irrep_dim_hook_example():
    # (3,2): shifted parts l = (4, 2), so 120 / (4! 2!) * (4 - 2) = 5
    assert irrep_dim(Partition((3, 2))) == 5


@pytest.mark.parametrize("n", range(1, 8))
def test_dimension_squares_sum_to_group_order(n):
    assert sum(irrep_dim(p) ** 2 for p in partitions(n)) == math.factorial(n)


def test_char_ratio_closed_forms():
    for n in range(2, 9):
        assert char_ratio(Partition.trivial(n)) == 1
        assert char_ratio(Partition.standard(n)) == Fraction(n - 3, n - 1)
    for n in range(4, 9):
        assert char_ratio(Partition((n - 2, 2))) == Fraction(n - 4, n)
        assert char_ratio(Partition((n - 2, 1, 1))) == Fraction(n - 5, n - 1)
    assert char_ratio(Partition((4, 1))) == Fraction(1, 2)
    assert char_ratio(Partition((3, 2))) == Fraction(1, 5)


def test_char_ratio_rejects_single_point():
    with pytest.raises(ValueError):
        char_ratio(Partition((1,)))


@pytest.mark.parametrize("n", range(4, 8))
def test_tensor_square_character_identity(n):
    # the square of the standard character at a transposition splits over
    # the four-block decomposition of its Kronecker square
    chi_std = char_ratio(Partition.standard(n)) * irrep_dim(Partition.standard(n))
    chi_22 = char_ratio(Partition((n - 2, 2))) * irrep_dim(Partition((n - 2, 2)))
    chi_211 = char_ratio(Partition((n - 2, 1, 1))) * irrep_dim(Partition((n - 2, 1, 1)))
    assert chi_std * chi_std == 1 + chi_std + chi_22 + chi_211
    assert (char_ratio(Partition.standard(n)) * (n - 1)) ** 2 == chi_std**2


@pytest.mark.parametrize("n", range(2, 6))
def test_char_ratio_matches_matrix_trace(n):
    swap = all_transpositions(n)[0].as_permutation(n)
    assert np.isclose(np.trace(std_matrix(swap)), float(char_ratio(Partition.standard(n)) * (n - 1)))
    assert np.isclose(np.trace(perm_matrix(swap)), float(char_ratio(Partition.trivial(n)) + char_ratio(Partition.standard(n)) * (n - 1)))


def test_perm_matrix_identity_and_trace():
    assert np.array_equal(perm_matrix(Permutation.identity(4)), np.eye(4))
    for g in all_permutations(4):
        assert np.trace(perm_matrix(g)) == fix_count(g)


def test_perm_matrix_homomorphism_exhaustive_n3():
    group = list(all_permutations(3))
    for g in group:
        for h in group:
            product = perm_matrix(g) @ perm_matrix(h)
            assert np.array_equal(product, perm_matrix(compose(g, h)))


def test_std_basis_orthonormal():
    for n in range(2, 7):
        basis = std_basis(n)
        assert np.abs(basis.T @ basis - np.eye(n - 1)).max() < 1e-12
        # columns are mean-zero directions
        assert np.abs(basis.sum(axis=0)).max() < 1e-12


def test_std_matrix_identity():
    assert np.allclose(std_matrix(Permutation.identity(5)), np.eye(4))


@pytest.mark.parametrize("n", range(2, 6))
def test_std_matrix_orthogonal_homomorphism(n):
    group = list(all_permutations(n))
    mats = {g: std_matrix(g) for g in group}
    for g in group:
        q = mats[g]
        assert np.abs(q.T @ q - np.eye(n - 1)).max() < 1e-10
        assert abs(np.trace(q) - (fix_count(g) - 1)) < 1e-10
    for g in group:
        for h in group:
            assert np.abs(mats[g] @ mats[h] - mats[compose(g, h)]).max() < 1e-10


def test_std_character_norm_is_one_n4():
    # (1/|G|) sum of squared standard characters
    total = sum(np.trace(std_matrix(g)) ** 2 for g in all_permutations(4))
    assert abs(total / 24 - 1.0) < 1e-10


def test_great_orthogonality_spot_check_n4():
    stack = np.stack([std_matrix(g) for g in all_permutations(4)])
    table = np.einsum("gij,gkl->ijkl", stack, stack)
    expected = (24 / 3) * np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
    assert np.abs(table - expected).max() < 1e-9
