"""Semiautomata over transposition alphabets and the randomized shuffle family.

A shuffle semiautomaton on ``n`` states has an alphabet of ``k * C(n, 2)``
symbols: ``k`` labelled copies of the full transposition list, in
copy-major order: symbol ``j`` names pair ``j % C(n, 2)`` in the lexicographic
``(a, b)`` order of ``perm.all_transpositions`` and ``np.triu_indices(n, 1)``.
A per-symbol mask bit decides whether the symbol acts on states as that
transposition or as the identity.  A family draws each mask bit as an
independent Bernoulli(p) coin from a counter-based stream derived from
``(seed, member index)``, so regenerating with the same config is
bit-identical and members are independent regardless of build order.
The stream's uniform doubles are drawn in fixed-size chunks into one
buffer, which gives the same doubles as one call: a build holds its masks
plus one chunk, not eight bytes per symbol.

A symbol acts on a state through one of the moves that every shape-``n``
machine shares: class 0 is the identity and class ``1 + i`` transposition
``i``, so what is particular to a machine is only the class of each of
its ``A`` symbols.  A count prepares its walk once (:func:`_prepare_walk`):
the machines go two at a time on their joint chain where that chain's
table is small.  For a pair ``(a, b)`` class 0 then moves neither
machine, and class ``1 + 3i + kind`` applies transposition ``i`` to
``a`` only (kind 0), to ``b`` only (kind 1) or to both (kind 2); its
table holds ``n * n * K`` codes, ``K = 1 + 3 C(n, 2)``, about ``1.5 n**4``.
Past :data:`JOINT_TABLE_ENTRIES` (from n = 25) machines walk alone, on
the ``n * (1 + C(n, 2))`` moves.  The prepared walk holds that table and
every walker's class of each symbol, and :func:`run_words` walks each
batch of words on it from every start: a step gathers the walkers' classes
of one symbol position, then costs one add and one ``take`` from a table
of at most a few MB, for every walker and start at once.  Nothing of the
walk outlives the count that prepared it.

Brute force (:func:`agreeing_inputs`) reads no words.  It counts every input
by the pair's joint state, one symbol position at a time: an ``(n, n)``
count of Python ints, whose step weighs each joint class by its symbol count.

Family file format (little-endian), version 1:

    magic    4 bytes   b"SQSA"
    version  u16
    n        u16       number of states
    k        u32       copies of the transposition alphabet
    m        u32       number of members
    p        f64       Bernoulli mask parameter
    seed     u64       family seed

followed by ``m`` masks, each ``k * C(n, 2)`` bits packed LSB-first and
padded with zero bits to whole bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .perm import SizeMismatchError

__all__ = [
    "FamilyConfig",
    "FamilyFormatError",
    "Semiautomaton",
    "ShuffleFamily",
    "agreeing_inputs",
    "build_family",
    "deserialize_family",
    "mask_stream",
    "min_alphabet_copies",
    "min_word_length",
    "run_word",
    "run_words",
    "serialize_family",
]

FAMILY_MAGIC = b"SQSA"
FAMILY_VERSION = 1
_HEADER = struct.Struct("<4sHHIIdQ")
MASK_DRAW_CHUNK = 1 << 20  # uniform doubles drawn at once by build_family (8 MB)
# largest joint table (4 MB, reached at n = 24) that run_words walks pairs on: a joint step
# beats two steps on the moves up to about n = 28 and loses past it (n = 50: 1.5-1.9x, 70 MB)
JOINT_TABLE_ENTRIES = 1 << 19


class FamilyFormatError(ValueError):
    """Malformed family bytes; nothing is constructed from a bad payload."""


@dataclass(frozen=True)
class FamilyConfig:
    """Parameters of a randomized shuffle family."""

    n_states: int
    n_copies: int
    n_members: int
    p: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_states < 2:
            raise ValueError(f"need at least 2 states, got {self.n_states}")
        if self.n_copies < 1:
            raise ValueError(f"need at least 1 alphabet copy, got {self.n_copies}")
        if self.n_members < 1:
            raise ValueError(f"need at least 1 member, got {self.n_members}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"mask parameter must be in (0, 1), got {self.p}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not (self.n_states < 2**16 and self.n_copies < 2**32 and self.n_members < 2**32):
            raise ValueError("the family header stores n in 16 bits and k and m in 32 bits")

    @property
    def n_transpositions(self) -> int:
        return self.n_states * (self.n_states - 1) // 2

    @property
    def alphabet_size(self) -> int:
        return self.n_copies * self.n_transpositions


@dataclass(frozen=True, eq=False)
class Semiautomaton:
    """Transposition-alphabet semiautomaton defined by a per-symbol mask bit."""

    n_states: int
    n_copies: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        expected = self.n_copies * self.n_states * (self.n_states - 1) // 2
        if self.n_states < 2 or self.n_copies < 1:
            raise ValueError("need n_states >= 2 and n_copies >= 1")
        if mask.shape != (expected,):
            raise ValueError(f"mask must have {expected} bits, got shape {mask.shape}")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @property
    def alphabet_size(self) -> int:
        return self.mask.shape[0]

    @property
    def n_transpositions(self) -> int:
        return self.n_states * (self.n_states - 1) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Semiautomaton):
            return NotImplemented
        return (
            self.n_states == other.n_states
            and self.n_copies == other.n_copies
            and bool(np.array_equal(self.mask, other.mask))
        )

    def __hash__(self) -> int:
        return hash((self.n_states, self.n_copies, self.mask.tobytes()))


@dataclass(frozen=True)
class ShuffleFamily:
    """A generated family; all members share the config's state/alphabet shape."""

    config: FamilyConfig
    members: tuple[Semiautomaton, ...]

    def __post_init__(self) -> None:
        if len(self.members) != self.config.n_members:
            raise ValueError("member count does not match config")
        for member in self.members:
            if (member.n_states, member.n_copies) != (self.config.n_states, self.config.n_copies):
                raise ValueError("member shape does not match config")


def run_word(automaton: Semiautomaton, word: Sequence[int], start: int) -> int:
    """Final state after processing ``word`` from ``start`` (first symbol first).

    The scalar reference for :func:`run_words`: a symbol whose mask bit is
    set swaps the two ends of its transposition.
    """
    n, size = automaton.n_states, automaton.alphabet_size
    if not 0 <= start < n:
        raise ValueError(f"start state {start} out of range for {n} states")
    low, high = (ends.tolist() for ends in np.triu_indices(n, 1))  # all_transpositions order
    state = start
    for symbol in word:
        if not 0 <= symbol < size:
            raise ValueError(f"symbol {symbol} out of range for alphabet {size}")
        if automaton.mask[symbol]:
            pair = symbol % automaton.n_transpositions
            if state in (low[pair], high[pair]):
                state = low[pair] + high[pair] - state
    return state


def _check_range(values: np.ndarray, bound: int, message: str) -> None:
    """Raise ``message`` formatted with the minimum of ``values`` if it is below 0,
    else with their maximum if it is ``>= bound``; non-integers raise ``TypeError``."""
    if not values.size:
        return
    if values.dtype.kind not in "biu":
        raise TypeError(f"expected integers, got {values.dtype}")
    # one pass, no copy: read as unsigned of the same width, a negative value exceeds every bound
    if values.view(values.dtype.str.replace("i", "u")).max() >= bound:
        low = int(values.min())
        raise ValueError(message.format(low if low < 0 else int(values.max())))


def _check_compatible(*automata: Semiautomaton) -> None:
    """Raise ``SizeMismatchError`` naming the first shape and the first that differs from it."""
    shapes = [(automaton.n_states, automaton.n_copies) for automaton in automata]
    for shape in shapes:
        if shape != shapes[0]:
            raise SizeMismatchError(f"automata shapes differ: {shapes[0]} vs {shape}")


def _moves(n: int) -> np.ndarray:
    """The ``(n, 1 + C(n, 2))`` intp moves of shape-``n`` machines: entry ``[s, c]`` is
    the state that class ``c`` takes ``s`` to, class 0 the identity and class
    ``1 + i`` transposition ``i`` (all_transpositions order)."""
    count = n * (n - 1) // 2
    low, high = np.triu_indices(n, 1)
    swaps = np.arange(1, count + 1)
    moves = np.repeat(np.arange(n, dtype=np.intp)[:, None], count + 1, axis=1)
    moves[low, swaps], moves[high, swaps] = high, low
    return moves


def _walks_pairs(n: int) -> bool:
    """Whether :func:`_prepare_walk` pairs shape-``n`` machines: their joint
    table holds at most :data:`JOINT_TABLE_ENTRIES` codes."""
    return n * n * (1 + 3 * (n * (n - 1) // 2)) <= JOINT_TABLE_ENTRIES


def _step_codes(n: int, paired: bool) -> np.ndarray:
    """The step table of one machine, or with ``paired`` of a pair's joint chain:
    entry ``s * K + c`` holds ``t * K``, ``t`` the state (joint state
    ``s_a * n + s_b``) that class ``c`` leads ``s`` to, ``K`` the class count.
    Read-only intp, the index type ``take`` reads without a cast."""
    moves = _moves(n)
    if paired:
        count = moves.shape[1] - 1
        swaps = np.repeat(np.arange(1, count + 1), 3)
        on_a = np.concatenate([[0], swaps * np.tile([1, 0, 1], count)])  # kinds a, b, both
        on_b = np.concatenate([[0], swaps * np.tile([0, 1, 1], count)])
        after_a, after_b = moves.take(on_a, axis=1), moves.take(on_b, axis=1)  # C order, as take gives
        moves = (after_a[:, None] * n + after_b[None]).reshape(n * n, -1)  # a view of the sum
    moves *= moves.shape[1]  # in place: the one table-sized array
    table = moves.reshape(-1)
    table.setflags(write=False)
    return table


def _symbol_classes(a: Semiautomaton, b: Semiautomaton | None = None) -> np.ndarray:
    """The class of each symbol, shape ``(A,)`` intp: its column of the moves for
    ``a`` alone, or its joint-chain class for the pair ``(a, b)``."""
    if b is None:
        return np.where(a.mask, np.tile(np.arange(1, a.n_transpositions + 1), a.n_copies), 0)
    kind = a.mask + 2 * b.mask  # 1: a only, 2: b only, 3: both, as kinds 0, 1, 2 of class 1 + 3i + kind
    swaps = np.tile(np.arange(0, 3 * a.n_transpositions, 3, dtype=np.intp), a.n_copies)
    return np.where(kind > 0, swaps + kind, 0)


class _Walk(NamedTuple):
    """A walk of ``count`` machines of one shape, prepared once (:func:`_prepare_walk`):
    the step table and the read-only ``(A, W)`` class stack of its ``W`` walkers."""

    n_states: int
    alphabet_size: int
    count: int
    paired: bool
    table: np.ndarray
    classes: np.ndarray


def _prepare_walk(machines: Sequence[Semiautomaton]) -> _Walk:
    """The walk of ``machines``: each alone or, when :func:`_walks_pairs`, two at a time
    with an odd last machine paired with itself.  Shapes that differ raise
    ``SizeMismatchError``."""
    if not machines:
        raise ValueError("need at least one automaton")
    _check_compatible(*machines)
    n, size = machines[0].n_states, machines[0].alphabet_size
    paired = _walks_pairs(n)
    if paired:
        last = len(machines) - 1
        pairs = [(machines[i], machines[min(i + 1, last)]) for i in range(0, last + 1, 2)]
        classes = np.stack([_symbol_classes(a, b) for a, b in pairs], axis=1)
    else:
        classes = np.stack([_symbol_classes(a) for a in machines], axis=1)
    classes.setflags(write=False)
    return _Walk(n, size, len(machines), paired, _step_codes(n, paired), classes)


def run_words(walk: _Walk, words: np.ndarray) -> np.ndarray:
    """Vectorized :func:`run_word` on a walk that :func:`_prepare_walk` made of ``M``
    machines: row ``i`` of ``words`` (B, T) runs from every start, and entry
    ``[m, i, s]`` of the (M, B, n) result is machine ``m``'s final state from ``s``.

    Words of any other ``ndim`` raise ``ValueError``, and their symbols are
    range-checked once with :func:`run_word`'s message.  Each symbol position
    gathers every walker's class of its B symbols, then costs one add and one
    ``take`` from the step table, for every walker and start at once; the
    final states are decoded once.
    """
    n, size, count, paired, table, classes = walk
    words = np.asarray(words)
    if words.ndim != 2:
        raise ValueError(f"words must be (B, T), got shape {words.shape}")
    _check_range(words, size, f"symbol {{}} out of range for alphabet {size}")
    rows, walkers, width = words.shape[0], classes.shape[1], table.shape[0] // n ** (1 + paired)
    # a pair starts at joint state (s, s); codes are (n, B, W): a step's (B, W) classes add to n blocks
    starts = np.arange(n, dtype=np.intp)[:, None, None] * ((n + 1 if paired else 1) * width)
    codes = np.broadcast_to(starts, (n, rows, walkers)).copy()
    for column in words.T:
        np.add(codes, classes.take(column, axis=0), out=codes)
        codes = table.take(codes)
    states = np.floor_divide(codes, width, out=codes).transpose(2, 1, 0)  # (W, B, n)
    if paired:  # joint state s_a * n + s_b: walker w holds machines 2w and 2w + 1
        joint, states = states, np.empty((walkers, 2, rows, n), np.intp)
        np.divmod(joint, n, out=(states[:, 0], states[:, 1]))
        states = states.reshape(2 * walkers, rows, n)[:count]
    return states


def agreeing_inputs(a: Semiautomaton, b: Semiautomaton, word_length: int) -> int:
    """How many of the ``A**T * n`` (word, start) inputs of ``T = word_length``
    symbols leave ``a`` and ``b`` on one state, counted by joint state.

    Entry ``[s, u]`` of the ``(n, n)`` count ``N`` holds the inputs of the
    symbols read so far that leave ``a`` in ``s`` and ``b`` in ``u``, from
    ``N = I`` (one input per start ``(s, s)``).  A symbol of joint class 0
    (:func:`_symbol_classes`) moves neither machine, and one of class
    ``1 + 3i + kind`` swaps the rows, the columns or both of ``N`` by
    transposition ``i``, so a step is ``w_0 N + sum_i (a_i N[p_i] + b_i N[:, p_i]
    + both_i N[p_i][:, p_i])`` with each class's symbol count as its weight.
    The counts are Python ints, so no count overflows; the result is
    ``trace(N)``.  Shapes that differ raise ``SizeMismatchError``.
    """
    _check_compatible(a, b)
    n = a.n_states
    weights = np.bincount(_symbol_classes(a, b), minlength=1 + 3 * a.n_transpositions).tolist()
    # p_i (a row of the moves) and its kinds' weights a_i, b_i, both_i
    swaps = list(zip(_moves(n)[:, 1:].T, weights[1::3], weights[2::3], weights[3::3]))
    counts = np.identity(n, dtype=int).astype(object)
    for _ in range(word_length):
        after = weights[0] * counts
        for swap, only_a, only_b, both in swaps:
            rows = counts[swap]
            after += only_a * rows + only_b * counts[:, swap] + both * rows[:, swap]
        counts = after
    return int(counts.trace())


def mask_stream(seed: int, member_index: int) -> np.random.Generator:
    """Counter-based per-member bit stream; independent across member indices."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(member_index,))
    return np.random.Generator(np.random.Philox(sequence))


def build_family(config: FamilyConfig) -> ShuffleFamily:
    """Draw all mask bits i.i.d. Bernoulli(p); same config, same bits.

    Bit ``i`` of a member is ``u_i < p`` for the ``i``-th uniform double of
    its :func:`mask_stream`.  The doubles are drawn :data:`MASK_DRAW_CHUNK`
    at a time into one buffer; a stream gives the same doubles in chunks as
    in one call, so the chunk size never changes a family.
    """
    n_bits = config.alphabet_size
    uniforms = np.empty(min(n_bits, MASK_DRAW_CHUNK))
    members = []
    for index in range(config.n_members):
        rng = mask_stream(config.seed, index)
        mask = np.empty(n_bits, dtype=bool)
        for low in range(0, n_bits, uniforms.shape[0]):
            drawn = uniforms[: n_bits - low]
            rng.random(out=drawn)
            np.less(drawn, config.p, out=mask[low : low + drawn.shape[0]])
        members.append(Semiautomaton(config.n_states, config.n_copies, mask))
    return ShuffleFamily(config, tuple(members))


def min_alphabet_copies(n: int) -> int:
    """Smallest alphabet-copy count meeting the spectral-gap guarantee.

    Ceiling of ``16(3n+1)/(3(n-1)) * [n ln n + ln C(n!, 2) + 2 ln(n-1)]``;
    the guarantee behind it is stated for n >= 4.
    """
    if n < 4:
        raise ValueError(f"the copy threshold is defined for n >= 4, got {n}")
    group_order = math.factorial(n)
    pair_count = group_order * (group_order - 1) // 2
    log_terms = n * math.log(n) + math.log(pair_count) + 2 * math.log(n - 1)
    return math.ceil(16 * (3 * n + 1) / (3 * (n - 1)) * log_terms)


def min_word_length(n: int) -> int:
    """Smallest word length driving the agreement residual below 1/n!.

    Ceiling of ``2 n ln(n!)``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.ceil(2 * n * math.log(math.factorial(n)))


def serialize_family(family: ShuffleFamily) -> bytes:
    """Canonical bytes for a family (format documented in the module docstring)."""
    config = family.config
    chunks = [
        _HEADER.pack(
            FAMILY_MAGIC,
            FAMILY_VERSION,
            config.n_states,
            config.n_copies,
            config.n_members,
            config.p,
            config.seed,
        )
    ]
    for member in family.members:
        chunks.append(np.packbits(member.mask, bitorder="little").tobytes())
    return b"".join(chunks)


def deserialize_family(data: bytes) -> ShuffleFamily:
    """Parse family bytes; any inconsistency fails without a partial result."""
    if len(data) < _HEADER.size:
        raise FamilyFormatError(f"payload too short for header: {len(data)} bytes")
    magic, version, n_states, n_copies, n_members, p, seed = _HEADER.unpack_from(data)
    if magic != FAMILY_MAGIC:
        raise FamilyFormatError(f"bad magic {magic!r}")
    if version != FAMILY_VERSION:
        raise FamilyFormatError(f"unsupported version {version}")
    try:
        config = FamilyConfig(n_states, n_copies, n_members, p, seed)
    except ValueError as exc:
        raise FamilyFormatError(f"invalid header: {exc}") from exc
    n_bits = config.alphabet_size
    mask_bytes = (n_bits + 7) // 8
    expected = _HEADER.size + n_members * mask_bytes
    if len(data) != expected:
        raise FamilyFormatError(f"expected {expected} bytes, got {len(data)}")
    members = []
    for index in range(n_members):
        raw = np.frombuffer(data, np.uint8, mask_bytes, _HEADER.size + index * mask_bytes)
        if raw[-1] >> (n_bits - 8 * (mask_bytes - 1)):  # the last byte's high bits pad
            raise FamilyFormatError(f"member {index} has nonzero padding bits")
        mask = np.unpackbits(raw, count=n_bits, bitorder="little").view(bool)  # viewed, not copied
        members.append(Semiautomaton(n_states, n_copies, mask))
    return ShuffleFamily(config, tuple(members))
