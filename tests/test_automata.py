import itertools
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqsa import automata, walk
from sqsa.automata import (
    FamilyConfig,
    FamilyFormatError,
    Semiautomaton,
    build_family,
    deserialize_family,
    mask_stream,
    min_alphabet_copies,
    min_word_length,
    run_word,
    run_words,
    serialize_family,
)
from sqsa.perm import Permutation, SizeMismatchError, all_transpositions, compose


def all_ones(n, k=1):
    size = k * n * (n - 1) // 2
    return Semiautomaton(n, k, np.ones(size, dtype=bool))


def all_zeros(n, k=1):
    size = k * n * (n - 1) // 2
    return Semiautomaton(n, k, np.zeros(size, dtype=bool))


def machines_of_fills(rng, n, k, fills):
    size, machines = k * n * (n - 1) // 2, []
    for fill in fills:  # "repeat" copies the last mask into a new object, "same" repeats the
        if fill == "same" and machines:  # object itself; first, either is random
            machines.append(machines[-1])
            continue
        if fill == "repeat" and machines:
            mask = machines[-1].mask.copy()
        else:
            mask = {"ones": np.ones(size), "zeros": np.zeros(size)}.get(fill, rng.random(size) < 0.5)
        machines.append(Semiautomaton(n, k, mask.astype(bool)))
    return machines


def words_stored_as(rng, alphabet_size, rows, length, dtype, time_major):
    # words stored narrow, as strata store them, or drawn int32 or int64, in either layout
    words = rng.integers(0, alphabet_size, size=(rows, length)).astype(dtype)
    return np.ascontiguousarray(words.T).T if time_major else words


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


@pytest.mark.parametrize("n, k, m", [(2**16, 1, 1), (2, 2**32, 1), (2, 1, 2**32)])
def test_config_refuses_what_the_family_header_cannot_store(n, k, m):
    # the header holds n as u16 and k and m as u32; the largest storable values are accepted
    FamilyConfig(2**16 - 1, 2**32 - 1, 2**32 - 1)
    with pytest.raises(ValueError, match="family header stores n in 16 bits"):
        FamilyConfig(n, k, m)


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
    states = run_words(automata._prepare_walk([automaton]), words)
    assert states.shape == (1, rows, n)
    for row in range(rows):
        for start in range(n):
            assert states[0, row, start] == run_word(automaton, list(words[row]), start)


@pytest.mark.parametrize("symbol", [-1, 12], ids=["symbol-minus-1", "symbol-A"])
def test_run_words_range_checked_like_run_word(symbol):
    automaton = build_family(FamilyConfig(4, 2, 1, 0.5, 5)).members[0]  # A = 12
    with pytest.raises(ValueError) as expected:
        run_word(automaton, [1, symbol], 0)
    with pytest.raises(ValueError) as raised:
        run_words(automata._prepare_walk([automaton]), np.array([[0, 1], [1, symbol], [2, 3]]))
    assert str(raised.value) == str(expected.value)


def test_run_words_refuses_words_that_are_not_one_row_a_word():
    # 1-D, 3-D and 0-D words would otherwise walk without a word per row
    prepared = automata._prepare_walk(build_family(FamilyConfig(4, 2, 2, 0.5, 5)).members)
    for shape in ((3,), (0,), (3, 2, 1), (0, 2, 1), ()):
        with pytest.raises(ValueError, match="shape") as raised:
            run_words(prepared, np.zeros(shape, dtype=np.int64))
        assert str(shape) in str(raised.value)


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_run_words_range_checks_narrow_integers_with_run_words_messages(dtype):
    automaton = build_family(FamilyConfig(4, 2, 1, 0.5, 5)).members[0]  # A = 12
    info = np.iinfo(dtype)
    for symbol in (info.min, -1, 12, info.max):
        with pytest.raises(ValueError) as expected:
            run_word(automaton, [1, symbol], 0)
        words = np.array([[0, 1], [1, symbol], [2, 3]], dtype=dtype)
        for machines in ([automaton], [automaton, automaton]):
            with pytest.raises(ValueError) as raised:
                run_words(automata._prepare_walk(machines), words)
            assert str(raised.value) == str(expected.value)
    with pytest.raises(TypeError, match="integers"):  # no float read as its bits
        run_words(automata._prepare_walk([automaton]), np.zeros((3, 2), dtype=np.float32))



@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 6),
    k=st.integers(1, 3),
    fills=st.lists(st.sampled_from(["random", "ones", "zeros", "repeat", "same"]), min_size=1, max_size=5),
    length=st.integers(0, 6),
    rows=st.integers(0, 8),
    time_major=st.booleans(),
    alone=st.booleans(),
    dtype=st.sampled_from([np.uint8, np.uint16, np.int32, np.int64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, k=1, fills=["ones", "zeros", "same"], length=4, rows=3, time_major=False,
         alone=False, dtype=np.int64, seed=0)
@example(n=3, k=1, fills=["random"] * 3, length=0, rows=0, time_major=False,
         alone=True, dtype=np.uint8, seed=0)
def test_run_words_from_every_start_equals_run_word(
    n, k, fills, length, rows, time_major, alone, dtype, seed
):
    # M = 1-5 machines of one shape, odd M included, walked in pairs or alone; entry
    # [m, i, s] is machine m after row i from start s, B = 0 and T = 0 included
    rng = np.random.default_rng(seed)
    machines = machines_of_fills(rng, n, k, fills)
    words = words_stored_as(rng, machines[0].alphabet_size, rows, length, dtype, time_major)
    # alone: no joint table fits, so every machine walks on the moves by itself
    with mock.patch.object(automata, "JOINT_TABLE_ENTRIES", 0 if alone else automata.JOINT_TABLE_ENTRIES):
        prepared = automata._prepare_walk(machines)
    assert prepared.paired is not alone
    states = run_words(prepared, words)
    expected = [[[run_word(m, list(w), s) for s in range(n)] for w in words] for m in machines]
    assert states.shape == (len(machines), rows, n)
    assert np.array_equal(states, np.array(expected, dtype=np.intp).reshape(states.shape))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 3),
    st.lists(st.sampled_from(["random", "ones", "zeros", "repeat", "same"]), min_size=1, max_size=5),
    st.integers(0, 6),
    st.integers(0, 12),
    st.booleans(),
    st.booleans(),
    st.sampled_from([np.uint8, np.uint16, np.int32, np.int64]),
    st.integers(0, 2**32 - 1),
)
@example(n=3, k=1, fills=["ones", "zeros", "same"], length=4, rows=3, time_major=False,
         alone=False, dtype=np.int64, seed=0)
def test_run_words_on_a_sequence_stacks_each_automatons_states(
    n, k, fills, length, rows, time_major, alone, dtype, seed
):
    # a walk of M machines gives what M walks of one machine each give, stacked
    rng = np.random.default_rng(seed)
    machines = machines_of_fills(rng, n, k, fills)
    words = words_stored_as(rng, machines[0].alphabet_size, rows, length, dtype, time_major)
    # alone: no joint table fits, so every machine walks on the moves by itself
    with mock.patch.object(automata, "JOINT_TABLE_ENTRIES", 0 if alone else automata.JOINT_TABLE_ENTRIES):
        prepared = automata._prepare_walk(machines)
        each = [automata._prepare_walk([m]) for m in machines]
    assert prepared.paired is not alone
    states = run_words(prepared, words)
    assert states.shape == (len(machines), rows, n)
    assert np.array_equal(states, np.concatenate([run_words(one, words) for one in each]))


def test_run_words_refuses_a_sequence_of_mixed_shapes():
    # refused when its walk is prepared, before any word is read
    a, b = build_family(FamilyConfig(4, 1, 2, 0.5, 1)).members
    other = build_family(FamilyConfig(3, 2, 1, 0.5, 1)).members[0]  # the same A = 6
    with pytest.raises(SizeMismatchError) as raised:
        automata._prepare_walk([a, b, other])
    assert "(4, 1)" in str(raised.value) and "(3, 2)" in str(raised.value)
    with pytest.raises(ValueError, match="at least one"):
        automata._prepare_walk([])


@pytest.mark.parametrize("alone", [False, True], ids=["paired", "alone"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_a_prepared_walk_runs_like_its_machines(count, alone):
    machines = build_family(FamilyConfig(5, 2, count, 0.5, 9)).members  # A = 20
    words = np.random.default_rng(count).integers(0, 20, size=(50, 9))
    with mock.patch.object(automata, "JOINT_TABLE_ENTRIES", 0 if alone else automata.JOINT_TABLE_ENTRIES):
        prepared = automata._prepare_walk(machines)
    assert prepared.paired is not alone
    assert not prepared.classes.flags.writeable and not prepared.table.flags.writeable
    states = run_words(prepared, words)
    assert states.shape == (count, 50, 5)  # one row a machine, an odd last one paired with itself
    for machine, rows in zip(machines, states):  # each on a walk of its own, paired with itself
        assert np.array_equal(rows, run_words(automata._prepare_walk([machine]), words)[0])
    words[3, 4] = 20
    with pytest.raises(ValueError, match="symbol 20 out of range"):  # every run is range-checked
        run_words(prepared, words)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 2),
    st.sampled_from(["random", "ones", "zeros"]),
    st.integers(0, 2**32 - 1),
)
def test_step_tables_move_machines_by_each_symbols_class(n, k, fill, seed):
    rng = np.random.default_rng(seed)
    size = k * n * (n - 1) // 2
    a = Semiautomaton(n, k, rng.random(size) < 0.5)
    b = Semiautomaton(n, k, {"ones": np.ones(size), "zeros": np.zeros(size)}.get(
        fill, rng.random(size) < 0.5).astype(bool))
    for paired, width in ((True, 1 + 3 * n * (n - 1) // 2), (False, 1 + n * (n - 1) // 2)):
        table = automata._step_codes(n, paired)
        classes = automata._symbol_classes(a, b) if paired else automata._symbol_classes(b)
        size_of = n * n if paired else n  # joint states (s_a, s_b), or b's states
        assert table.shape == (size_of * width,) and table.dtype == np.intp
        assert not table.flags.writeable
        assert classes.shape == (size,) and 0 <= classes.min() and classes.max() < width
        for state, symbol in itertools.product(range(size_of), range(size)):
            after = table[state * width + classes[symbol]]
            s_a, s_b = divmod(state, n) if paired else (None, state)
            expected = run_word(b, [symbol], s_b)
            if paired:
                expected += run_word(a, [symbol], s_a) * n
            assert after == expected * width


def brute_tables(a, b, word_length, budget=1 << 16):
    """The successor tables that each _count_leaves call of a brute count reads, and the count."""
    seen, count = [], automata._count_leaves

    def spy(tables, states_a, states_b, depth):
        seen.append(tables)
        return count(tables, states_a, states_b, depth)

    with mock.patch.object(automata, "_count_leaves", spy):
        return seen, automata.agreeing_inputs(a, b, word_length, budget)


def test_tables_are_c_ordered_and_built_in_one_table_sized_array():
    # each machine's successor row is one contiguous run of A states, so a row gather copies whole rows
    a, b = build_family(FamilyConfig(6, 2, 2, 0.5, 11)).members
    seen, _ = brute_tables(a, b, 2)
    for after in seen:
        assert len(after) == 2 and after[0].shape == after[1].shape == (6, 30)
        for machine, table in zip((a, b), after):
            assert table.flags.c_contiguous and table.dtype == np.uint8
            for state, symbol in itertools.product(range(6), range(30)):
                assert table[state, symbol] == run_word(machine, [symbol], state)
    a, b = build_family(FamilyConfig(300, 1, 2, 0.5, 11)).members  # A = 44850: a state is two bytes
    seen, _ = brute_tables(a, b, 1)
    assert all(t.flags.c_contiguous and t.dtype == np.uint16 for after in seen for t in after)
    # the joint step table at n = 24 (3.6 MB): one table-sized array, no reshaped copy
    tracemalloc.start()
    try:
        table = automata._step_codes(24, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.flags.c_contiguous and peak < 1.25 * table.nbytes


def test_one_symbol_brute_count_reads_its_symbols_in_budget_sized_slices():
    # n = 12 at the paper's copy count: A = 87516, so a table row per state would hold n * A
    n = 12
    a, b = build_family(FamilyConfig(n, min_alphabet_copies(n), 2, 0.5, 3)).members
    size = a.alphabet_size
    tracemalloc.start()
    try:
        agreed = automata.agreeing_inputs(a, b, 1, walk.RUN_ELEMENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a slice's two tables and two gathered ends, a byte a state, and its bools: about 5 budgets
    # whatever A; one (n, A) table would hold n * A = 1.05M bytes, 16 budgets
    assert peak < 8 * walk.RUN_ELEMENTS
    seen, _ = brute_tables(a, b, 1)
    assert max(t.size for after in seen for t in after) <= walk.RUN_ELEMENTS
    states = run_words(automata._prepare_walk([a, b]), np.arange(size)[:, None])
    assert agreed == np.count_nonzero(states[0] == states[1])


def test_past_the_joint_table_budget_machines_walk_alone_in_little_memory():
    # n = 50: a joint table would hold 9.2M codes (74 MB); the moves hold 61k
    assert automata._walks_pairs(24) and not automata._walks_pairs(25)
    machines = build_family(FamilyConfig(50, 1, 3, 0.5, 8)).members
    rng = np.random.default_rng(8)
    words = rng.integers(0, 1225, size=(40, 30))
    tracemalloc.start()
    try:
        states = run_words(automata._prepare_walk(machines), words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    expected = [[[run_word(m, list(w), s) for s in range(50)] for w in words] for m in machines]
    assert np.array_equal(states, expected)


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.integers(0, 5))
def test_symbol_actions_are_involutions(seed, symbol):
    rng = np.random.default_rng(seed)
    automaton = Semiautomaton(4, 1, rng.random(6) < 0.5)
    for state in range(4):
        assert run_word(automaton, [symbol, symbol], state) == state


def transposition_step_table(automaton):
    """The one-symbol steps built from ``Transposition`` objects, entry
    ``s * A + symbol`` the state that ``symbol`` leads ``s`` to: the reference
    for :func:`run_word`, which reads the ends from ``np.triu_indices``."""
    size = automaton.alphabet_size
    table = np.repeat(np.arange(automaton.n_states), size)
    pairs = np.array([(t.a, t.b) for t in all_transpositions(automaton.n_states)])
    active = np.flatnonzero(automaton.mask)
    low, high = pairs[active % automaton.n_transpositions].T
    table[low * size + active] = high
    table[high * size + active] = low
    return table


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    k=st.integers(1, 4),
    fill=st.sampled_from(["random", "ones", "zeros"]),
    seed=st.integers(0, 2**32),
)
def test_step_table_equals_the_transposition_object_table(n, k, fill, seed):
    # run_word's step table: every state's step under every symbol
    size = k * n * (n - 1) // 2
    mask = {
        "random": np.random.default_rng(seed).random(size) < 0.5,
        "ones": np.ones(size, dtype=bool),
        "zeros": np.zeros(size, dtype=bool),
    }[fill]
    automaton = Semiautomaton(n, k, mask)
    table = [run_word(automaton, [symbol], state) for state in range(n) for symbol in range(size)]
    assert all(type(state) is int for state in table)
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
    states = run_words(automata._prepare_walk(family.members), words)
    assert np.array_equal(states, run_words(automata._prepare_walk(restored.members), words))


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
    # n=3 has 3 symbols a copy: k=1..7 leaves 3k % 8 = 1..7 mask bits in a member's last
    # byte and k=8 leaves no padding. Each padding bit fails alone; the last mask bit loads.
    for k in range(1, 9):
        family = build_family(FamilyConfig(3, k, 2, 0.5, 1))
        clean, mask_bytes, last = serialize_family(family), (3 * k + 7) // 8, (3 * k - 1) % 8
        for member, bit in itertools.product(range(2), range(last + 1, 8)):
            data = bytearray(clean)
            data[len(clean) - 1 - (1 - member) * mask_bytes] |= 1 << bit
            with pytest.raises(FamilyFormatError, match=f"member {member} has nonzero padding"):
                deserialize_family(bytes(data))
        data = bytearray(clean)
        data[-1] |= 1 << last
        loaded = deserialize_family(bytes(data)).members[1].mask
        assert loaded[-1] and np.array_equal(loaded[:-1], family.members[1].mask[:-1])


def test_load_makes_no_mask_sized_copy():
    # each member unpacks once into its bool mask: the masks plus one packed mask at most
    family = build_family(FamilyConfig(60, 200, 4, 0.5, 3))
    data = serialize_family(family)
    masks = 4 * family.config.alphabet_size
    tracemalloc.start()
    try:
        loaded = deserialize_family(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == family
    assert peak < masks + family.config.alphabet_size // 2


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
