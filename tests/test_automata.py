import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqsa import automata
from sqsa.automata import (
    FamilyConfig,
    FamilyFormatError,
    Semiautomaton,
    build_family,
    deserialize_family,
    index_dtype,
    mask_stream,
    min_alphabet_copies,
    min_word_length,
    run_suffixes,
    run_word,
    run_words,
    serialize_family,
    _copies_prefactor,
)
from sqsa.perm import Permutation, SizeMismatchError, all_transpositions, compose


def all_ones(n, k=1):
    size = k * n * (n - 1) // 2
    return Semiautomaton(n, k, np.ones(size, dtype=bool))


def all_zeros(n, k=1):
    size = k * n * (n - 1) // 2
    return Semiautomaton(n, k, np.zeros(size, dtype=bool))


def test_config_validation():
    with pytest.raises(ValueError):
        FamilyConfig(1, 1, 1)
    with pytest.raises(ValueError):
        FamilyConfig(3, 0, 1)
    with pytest.raises(ValueError):
        FamilyConfig(3, 1, 0)
    with pytest.raises(ValueError):
        FamilyConfig(3, 1, 1, p=1.0)
    with pytest.raises(ValueError):
        FamilyConfig(3, 1, 1, seed=-1)


def test_mask_length_validation():
    with pytest.raises(ValueError):
        Semiautomaton(3, 1, np.ones(4, dtype=bool))


def test_run_word_empty_returns_start():
    automaton = all_ones(3)
    for start in range(3):
        assert run_word(automaton, [], start) == start


def test_run_word_single_transposition():
    # symbol 0 is the (0,1) swap when the mask bit is set
    automaton = all_ones(3)
    assert run_word(automaton, [0], 0) == 1
    assert run_word(automaton, [0], 2) == 2


def test_run_word_zero_mask_is_identity_on_every_word():
    automaton = all_zeros(3)
    for length in range(4):
        for word in itertools.product(range(3), repeat=length):
            for start in range(3):
                assert run_word(automaton, word, start) == start


def test_run_word_validates_ranges():
    automaton = all_ones(3)
    with pytest.raises(ValueError):
        run_word(automaton, [3], 0)
    with pytest.raises(ValueError):
        run_word(automaton, [0], 3)


def test_run_word_matches_permutation_composition_exhaustive():
    # oracle: composing the word's active transpositions right-to-left
    rng = np.random.default_rng(5)
    automaton = Semiautomaton(3, 1, rng.random(3) < 0.5)
    transpositions = [t.as_permutation(3) for t in all_transpositions(3)]
    identity = Permutation.identity(3)
    for length in range(4):
        for word in itertools.product(range(3), repeat=length):
            product = identity
            for symbol in word:
                step = transpositions[symbol] if automaton.mask[symbol] else identity
                product = compose(step, product)
            for start in range(3):
                assert run_word(automaton, word, start) == product(start)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 3),
    st.integers(0, 6),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
)
@example(n=3, k=2, length=4, rows=0, seed=0)
def test_run_words_matches_run_word(n, k, length, rows, seed):
    rng = np.random.default_rng(seed)
    automaton = Semiautomaton(n, k, rng.random(k * n * (n - 1) // 2) < 0.5)
    words = rng.integers(0, automaton.alphabet_size, size=(rows, length))
    starts = rng.integers(0, n, size=rows)
    states = run_words(automaton, words, starts)
    assert states.shape == (rows,)
    for row in range(rows):
        assert states[row] == run_word(automaton, list(words[row]), int(starts[row]))


@pytest.mark.parametrize(
    "symbol, start",
    [(-1, 0), (12, 0), (0, -1), (0, 4)],
    ids=["symbol-minus-1", "symbol-A", "start-minus-1", "start-n"],
)
def test_run_words_range_checked_like_run_word(symbol, start):
    automaton = build_family(FamilyConfig(4, 2, 1, 0.5, 5)).members[0]  # A = 12
    with pytest.raises(ValueError) as expected:
        run_word(automaton, [1, symbol], start)
    with pytest.raises(ValueError) as raised:
        run_words(automaton, np.array([[0, 1], [1, symbol], [2, 3]]), np.array([0, start, 1]))
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("length", [0, 3])
def test_run_words_refuses_starts_not_one_per_word(length):
    automaton = build_family(FamilyConfig(4, 2, 1, 0.5, 5)).members[0]
    words = np.zeros((3, length), dtype=np.int64)
    # (B, B) would broadcast against each symbol column; (B + 1,) would not run at T = 0
    for starts in (np.zeros((3, 3), dtype=np.int64), np.zeros(4, dtype=np.int64)):
        with pytest.raises(ValueError, match="shape") as raised:
            run_words(automaton, words, starts)
        assert str(starts.shape) in str(raised.value) and str(words.shape) in str(raised.value)


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("where", ["symbol", "start"])
def test_run_words_range_checks_narrow_integers_with_run_words_messages(dtype, where):
    automaton = build_family(FamilyConfig(4, 2, 1, 0.5, 5)).members[0]  # A = 12
    info = np.iinfo(dtype)
    for value in (info.min, -1, 4 if where == "start" else 12, info.max):
        symbol, start = (value, 0) if where == "symbol" else (0, value)
        with pytest.raises(ValueError) as expected:
            run_word(automaton, [1, symbol], start)
        words = np.array([[0, 1], [1, symbol], [2, 3]], dtype=dtype)
        for machines in (automaton, [automaton, automaton]):
            with pytest.raises(ValueError) as raised:
                run_words(machines, words, np.array([0, start, 1], dtype=dtype))
            assert str(raised.value) == str(expected.value)
    with pytest.raises(TypeError, match="integers"):  # no float read as its bits
        run_words(automaton, np.zeros((3, 2), dtype=dtype), np.array([0.0, 1.0, 2.0]))




@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 3),
    st.lists(st.sampled_from(["random", "ones", "zeros", "repeat"]), min_size=1, max_size=5),
    st.integers(0, 6),
    st.integers(0, 12),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_run_words_on_a_sequence_stacks_each_automatons_states(
    n, k, fills, length, rows, time_major, seed
):
    rng = np.random.default_rng(seed)
    size, machines = k * n * (n - 1) // 2, []
    for fill in fills:  # "repeat" copies the last mask into a new object; first, it is random
        if fill == "repeat" and machines:
            mask = machines[-1].mask.copy()
        else:
            mask = {"ones": np.ones(size), "zeros": np.zeros(size)}.get(fill, rng.random(size) < 0.5)
        machines.append(Semiautomaton(n, k, mask.astype(bool)))
    words = rng.integers(0, machines[0].alphabet_size, size=(rows, length))
    if time_major:
        words = np.ascontiguousarray(words.T, dtype=np.int32).T
    starts = rng.integers(0, n, size=rows)
    states = run_words(machines, words, starts)
    assert states.shape == (len(machines), rows)
    assert np.array_equal(states, np.stack([run_words(m, words, starts) for m in machines]))
    alone = run_words(machines[0], words, starts)
    assert np.array_equal(run_words(machines[:1], words, starts), alone[None])


def test_run_words_refuses_a_sequence_of_mixed_shapes():
    a, b = build_family(FamilyConfig(4, 1, 2, 0.5, 1)).members
    other = build_family(FamilyConfig(3, 2, 1, 0.5, 1)).members[0]  # the same A = 6
    words, starts = np.zeros((2, 3), dtype=np.int64), np.zeros(2, dtype=np.int64)
    with pytest.raises(SizeMismatchError) as raised:
        run_words([a, b, other], words, starts)
    assert "(4, 1)" in str(raised.value) and "(3, 2)" in str(raised.value)
    with pytest.raises(ValueError, match="at least one"):
        run_words([], words, starts)
    for starts in (np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64)):
        with pytest.raises(ValueError, match="shape"):
            run_words([a, b], words, starts)


def test_one_index_dtype_rule_for_tables_and_stacks(monkeypatch):
    assert index_dtype(2**31 - 1) == np.int32 and index_dtype(2**31) == np.int64
    rule, asked = automata.index_dtype, []

    def spy(count):
        asked.append(count)
        return rule(count)

    monkeypatch.setattr(automata, "index_dtype", spy)
    automata._stacked_table.cache_clear()  # it keeps the last stack
    machines = build_family(FamilyConfig(4, 2, 3, 0.5, 6)).members  # n * A = 48
    rng = np.random.default_rng(6)
    words, starts = rng.integers(0, 12, size=(20, 7), dtype=np.int32), rng.integers(0, 4, 20)
    states = run_words(machines, words, starts)
    assert sorted(asked) == [48, 48, 48, 3 * 48]  # each step table and the stack
    # int64 tables and stack (n * A >= 2**31) walk to the same states
    monkeypatch.setattr(automata, "index_dtype", lambda count: np.dtype(np.int64))
    automata._stacked_table.cache_clear()
    wide = build_family(FamilyConfig(4, 2, 3, 0.5, 6)).members
    assert wide[0].step_table.dtype == np.int64
    assert np.array_equal(run_words(wide, words, starts), states)
    automata._stacked_table.cache_clear()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 2),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_run_suffixes_runs_every_word_in_counting_order(n, k, length, rows, seed):
    rng = np.random.default_rng(seed)
    automaton = Semiautomaton(n, k, rng.random(k * n * (n - 1) // 2) < 0.5)
    starts = rng.integers(0, n, size=(rows, 2))
    states = run_suffixes(automaton, starts, length)
    words = list(itertools.product(range(automaton.alphabet_size), repeat=length))
    assert states.shape == (rows, 2, len(words))
    for (row, column), start in np.ndenumerate(starts):
        assert states[row, column].tolist() == [run_word(automaton, w, int(start)) for w in words]


@pytest.mark.parametrize("start", [-1, 4])
def test_run_suffixes_range_checked_like_run_word(start):
    automaton = build_family(FamilyConfig(4, 2, 1, 0.5, 5)).members[0]
    with pytest.raises(ValueError) as expected:
        run_word(automaton, [], start)
    with pytest.raises(ValueError) as raised:
        run_suffixes(automaton, np.array([[0, start], [3, 2]]), 1)
    assert str(raised.value) == str(expected.value)


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.integers(0, 5))
def test_symbol_actions_are_involutions(seed, symbol):
    rng = np.random.default_rng(seed)
    automaton = Semiautomaton(4, 1, rng.random(6) < 0.5)
    for state in range(4):
        assert run_word(automaton, [symbol, symbol], state) == state


def transposition_step_table(automaton):
    """The step table built from ``Transposition`` objects: the reference for
    :attr:`Semiautomaton.step_table`, which reads the ends from ``np.triu_indices``."""
    size = automaton.alphabet_size
    codes = np.arange(automaton.n_states, dtype=np.int64) * size
    table = np.repeat(codes, size)
    pairs = np.array([(t.a, t.b) for t in all_transpositions(automaton.n_states)])
    active = np.flatnonzero(automaton.mask)
    low, high = pairs[active % automaton.n_transpositions].T
    table[codes[low] + active] = codes[high]
    table[codes[high] + active] = codes[low]
    return table


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    k=st.integers(1, 4),
    fill=st.sampled_from(["random", "ones", "zeros"]),
    seed=st.integers(0, 2**32),
)
def test_step_table_equals_the_transposition_object_table(n, k, fill, seed):
    size = k * n * (n - 1) // 2
    mask = {
        "random": np.random.default_rng(seed).random(size) < 0.5,
        "ones": np.ones(size, dtype=bool),
        "zeros": np.zeros(size, dtype=bool),
    }[fill]
    automaton = Semiautomaton(n, k, mask)
    table = automaton.step_table
    assert table.dtype == np.int32 and not table.flags.writeable  # n * A < 2**31
    assert np.array_equal(table, transposition_step_table(automaton))


def test_identical_masks_are_extensionally_equal():
    rng = np.random.default_rng(3)
    mask = rng.random(3) < 0.5
    a = Semiautomaton(3, 1, mask)
    b = Semiautomaton(3, 1, mask.copy())
    assert a == b
    for length in range(4):
        for word in itertools.product(range(3), repeat=length):
            for start in range(3):
                assert run_word(a, word, start) == run_word(b, word, start)


def test_build_family_deterministic_and_independent_of_order():
    config = FamilyConfig(4, 3, 8, 0.5, 99)
    first = build_family(config)
    second = build_family(config)
    assert serialize_family(first) == serialize_family(second)
    # member masks come from per-index streams, so each member alone matches
    for index in (0, 3, 7):
        solo = build_family(FamilyConfig(4, 3, index + 1, 0.5, 99)).members[index]
        assert solo == first.members[index]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    k=st.integers(1, 6),
    p=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**64 - 1),
    chunk=st.sampled_from(["above the size", "the size", "one below", "a fraction"]),
)
def test_build_family_draws_in_chunks_as_in_one_call(n, k, p, seed, chunk):
    config = FamilyConfig(n, k, 2, p, seed)
    size = config.alphabet_size
    chunk_size = {
        "above the size": size + 1,
        "the size": size,
        "one below": max(1, size - 1),
        "a fraction": max(1, size // 3),
    }[chunk]
    with mock.patch.object(automata, "MASK_DRAW_CHUNK", chunk_size):
        family = build_family(config)
    for index, member in enumerate(family.members):
        assert np.array_equal(member.mask, mask_stream(seed, index).random(size) < p)


def test_build_family_mask_bit_rate():
    p = 0.3
    config = FamilyConfig(8, 40, 900, p, 17)  # 900 members * 1120 bits > 1e6 bits
    bits = np.concatenate([member.mask for member in build_family(config).members])
    assert bits.size >= 10**6
    sigma = math.sqrt(p * (1 - p) / bits.size)
    assert abs(bits.mean() - p) < 3 * sigma


@pytest.mark.parametrize("n,expected", [(4, 26), (2, 3)])
def test_min_word_length_values(n, expected):
    assert min_word_length(n) == expected


def test_min_word_length_scaling():
    for n in (8, 16, 32, 64):
        ratio = min_word_length(n) / (n * n * math.log(n))
        assert 1.0 <= ratio <= 3.0


def test_min_copies_value_and_extended_precision():
    assert min_alphabet_copies(4) == 309
    mpmath.mp.dps = 60
    for n in range(4, 9):
        order = math.factorial(n)
        bracket = (
            n * mpmath.ln(n)
            + mpmath.ln(order * (order - 1) // 2)
            + 2 * mpmath.ln(n - 1)
        )
        value = mpmath.mpf(16 * (3 * n + 1)) / (3 * (n - 1)) * bracket
        assert min_alphabet_copies(n) == int(mpmath.ceil(value))


def test_min_copies_monotone():
    values = [min_alphabet_copies(n) for n in range(4, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_min_copies_zero_bracket_wiring():
    # the threshold is linear in the bracketed log terms
    assert math.ceil(_copies_prefactor(4) * 0.0) == 0


def test_min_copies_domain():
    with pytest.raises(ValueError):
        min_alphabet_copies(3)


def test_serialization_round_trip():
    family = build_family(FamilyConfig(5, 2, 6, 0.25, 123456789))
    data = serialize_family(family)
    restored = deserialize_family(data)
    assert restored == family
    assert serialize_family(restored) == data


def test_deserialized_member_reproduces_runs():
    family = build_family(FamilyConfig(5, 3, 2, 0.5, 2718))
    restored = deserialize_family(serialize_family(family))
    rng = np.random.default_rng(0)
    words = rng.integers(0, family.config.alphabet_size, size=(100, 7))
    starts = rng.integers(0, 5, size=100)
    for original, copy in zip(family.members, restored.members):
        assert np.array_equal(run_words(original, words, starts), run_words(copy, words, starts))


def test_truncated_payload_rejected():
    data = serialize_family(build_family(FamilyConfig(4, 2, 3, 0.5, 1)))
    for cut in (0, 10, len(data) - 1):
        with pytest.raises(FamilyFormatError):
            deserialize_family(data[:cut])
    with pytest.raises(FamilyFormatError):
        deserialize_family(data + b"\x00")


def test_bad_magic_and_version_rejected():
    data = bytearray(serialize_family(build_family(FamilyConfig(4, 1, 1, 0.5, 1))))
    corrupted = bytes(b"XXXX") + bytes(data[4:])
    with pytest.raises(FamilyFormatError):
        deserialize_family(corrupted)
    data[4] = 99  # version field
    with pytest.raises(FamilyFormatError):
        deserialize_family(bytes(data))


def test_nonzero_padding_rejected():
    data = bytearray(serialize_family(build_family(FamilyConfig(3, 1, 1, 0.5, 1))))
    data[-1] |= 0x80  # 3 mask bits, so the high bits of the last byte are padding
    with pytest.raises(FamilyFormatError):
        deserialize_family(bytes(data))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(0, 2**64 - 1),
)
def test_round_trip_property(n, k, m, seed):
    family = build_family(FamilyConfig(n, k, m, 0.5, seed))
    assert deserialize_family(serialize_family(family)) == family


_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(0, 2**64 - 1),
    st.lists(_MUTATIONS, min_size=1, max_size=4),
)
def test_mutated_bytes_fail_only_as_format_errors(n, k, m, seed, mutations):
    data = bytearray(serialize_family(build_family(FamilyConfig(n, k, m, 0.5, seed))))
    for kind, *args in mutations:
        if kind == "flip" and data:
            data[args[0] % len(data)] ^= args[1]
        elif kind == "truncate":
            del data[args[0] % (len(data) + 1) :]
        elif kind == "extend":
            data += args[0]
    try:
        family = deserialize_family(bytes(data))
    except FamilyFormatError:
        return
    # whatever is accepted is a well-formed family in canonical form
    assert serialize_family(family) == bytes(data)
