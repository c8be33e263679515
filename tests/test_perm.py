import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsa.perm import (
    Permutation,
    SizeMismatchError,
    Transposition,
    all_permutations,
    all_transpositions,
    compose,
    fix_count,
    inverse,
)


def test_compose_identity_is_neutral():
    g = Permutation((2, 0, 1, 3))
    e = Permutation.identity(4)
    assert compose(e, g) == g
    assert compose(g, e) == g


def test_compose_two_transpositions_gives_three_cycle():
    swap01 = Transposition(0, 1).as_permutation(3)
    swap12 = Transposition(1, 2).as_permutation(3)
    cycle = compose(swap01, swap12)
    assert cycle.images == (1, 2, 0)  # 0->1, 1->2, 2->0


def test_compose_with_inverse_is_identity():
    g = Permutation((3, 1, 4, 0, 2))
    assert compose(g, inverse(g)) == Permutation.identity(5)
    assert compose(inverse(g), g) == Permutation.identity(5)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_compose_associative_exhaustive_n3():
    group = list(all_permutations(3))
    for g, h, k in itertools.product(group, repeat=3):
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


@settings(max_examples=50)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_inverse_antihomomorphism(gs, hs):
    g, h = Permutation(tuple(gs)), Permutation(tuple(hs))
    assert inverse(compose(g, h)) == compose(inverse(h), inverse(g))


def test_fix_count_identity_and_transposition():
    assert fix_count(Permutation.identity(5)) == 5
    assert fix_count(Transposition(1, 3).as_permutation(5)) == 3


def test_fix_count_sums_to_group_order_n4():
    assert sum(fix_count(g) for g in all_permutations(4)) == 24


def test_fix_count_conjugation_invariant_exhaustive_n4():
    group = list(all_permutations(4))
    for g, a in itertools.product(group, repeat=2):
        conjugate = compose(compose(a, g), inverse(a))
        assert fix_count(conjugate) == fix_count(g)


def test_all_transpositions_small_cases():
    assert [(t.a, t.b) for t in all_transpositions(3)] == [(0, 1), (0, 2), (1, 2)]
    assert len(all_transpositions(4)) == 6
    five = all_transpositions(5)
    assert len(five) == 10
    assert (five[0].a, five[0].b) == (0, 1)
    assert (five[-1].a, five[-1].b) == (3, 4)


@pytest.mark.parametrize("n", range(2, 10))
def test_all_transpositions_in_triu_indices_order(n):
    # the step table and the pair-chain Laplacians index transpositions this way
    ends = [(t.a, t.b) for t in all_transpositions(n)]
    assert ends == [(int(a), int(b)) for a, b in zip(*np.triu_indices(n, 1))]


def test_all_transpositions_are_involutions():
    for t in all_transpositions(5):
        swap = t.as_permutation(5)
        assert compose(swap, swap) == Permutation.identity(5)


def test_all_transpositions_rejects_small_n():
    with pytest.raises(ValueError):
        all_transpositions(1)


def test_transposition_validation():
    with pytest.raises(ValueError):
        Transposition(2, 2)
    with pytest.raises(ValueError):
        Transposition(-1, 3)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation(())
