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

A semiautomaton runs from one flat, read-only step table of ``n * A``
coded states, ``A`` the alphabet size: a state ``s`` is coded as ``s * A``,
and entry ``s * A + symbol`` holds the code of the state that ``symbol``
leads to.  Codes are int32 while ``n * A < 2**31`` and int64 beyond
(:func:`index_dtype`), so a table at the paper's copy count is half the
size.  A batch is one word and one start per row; one step of it is then
one add and one ``take``, and the final codes are decoded once, by
``// A``.  Several machines of one shape run a batch in one walk: their
tables are stacked into one, machine ``i``'s codes offset by ``i * n * A``,
so a step is still one add and one ``take``, for every machine at once.
The last stack is kept for the next batch of the same machines.
Row ``s`` of a table, read as ``(n, A)``, holds the code after each symbol
from ``s``, so continuing a batch by every symbol at once is one row-wise
``take``.

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

import functools
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .perm import SizeMismatchError

__all__ = [
    "FamilyConfig",
    "FamilyFormatError",
    "Semiautomaton",
    "ShuffleFamily",
    "build_family",
    "deserialize_family",
    "index_dtype",
    "mask_stream",
    "min_alphabet_copies",
    "min_word_length",
    "run_suffixes",
    "run_word",
    "run_words",
    "serialize_family",
]

FAMILY_MAGIC = b"SQSA"
FAMILY_VERSION = 1
_HEADER = struct.Struct("<4sHHIIdQ")
MASK_DRAW_CHUNK = 1 << 20  # uniform doubles drawn at once by build_family (8 MB)


def index_dtype(count: int) -> np.dtype:
    """int32 when every index below ``count`` fits it (``count < 2**31``), else int64."""
    return np.dtype(np.int32 if count < 2**31 else np.int64)


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

    @cached_property
    def step_table(self) -> np.ndarray:
        """Coded transitions, shape (n_states * alphabet,): entry ``s * A + symbol``
        holds ``next_state * A`` (``A`` the alphabet size), in
        ``index_dtype(n_states * A)``."""
        size = self.alphabet_size
        codes = np.arange(self.n_states, dtype=index_dtype(self.n_states * size)) * size
        table = np.repeat(codes, size)  # every symbol fixes every state
        ends = np.array(np.triu_indices(self.n_states, 1))  # all_transpositions order
        active = np.flatnonzero(self.mask)
        low, high = ends[:, active % self.n_transpositions]
        table[codes[low] + active] = codes[high]
        table[codes[high] + active] = codes[low]
        table.setflags(write=False)
        return table

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
    """Final state after processing ``word`` from ``start`` (first symbol first)."""
    if not 0 <= start < automaton.n_states:
        raise ValueError(f"start state {start} out of range for {automaton.n_states} states")
    size, table = automaton.alphabet_size, automaton.step_table
    code = start * size
    for symbol in word:
        if not 0 <= symbol < size:
            raise ValueError(f"symbol {symbol} out of range for alphabet {size}")
        code = int(table[code + symbol])
    return code // size


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


@functools.lru_cache(maxsize=1)
def _stacked_table(automata: tuple[Semiautomaton, ...]) -> np.ndarray:
    """The step tables of ``automata`` as one read-only table, automaton ``i``'s
    codes offset by ``i * n * A``.

    The last stack is kept: a count walks the same automata over every run,
    and a run may hold fewer entries than the ``n * A`` a machine stacks.
    """
    span = automata[0].step_table.shape[0]
    stack = np.empty((len(automata), span), dtype=index_dtype(len(automata) * span))
    for i, automaton in enumerate(automata):
        np.add(automaton.step_table, i * span, out=stack[i])
    stack.setflags(write=False)
    return stack.reshape(-1)


def run_words(
    automata: Semiautomaton | Sequence[Semiautomaton], words: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`run_word`: row ``i`` of ``words`` (B, T) runs from
    ``starts[i]``, starts shaped (B,).  For one automaton the result is the
    (B,) final states; for a sequence of ``M`` automata of one shape it is
    their (M, B) final states, row ``i`` the states of ``automata[i]``.

    Starts of any other shape raise ``ValueError``, and automata of different
    shapes ``SizeMismatchError``.  Symbols and starts are range-checked once
    with :func:`run_word`'s messages, and the starts are then coded once;
    each symbol position costs one add and one ``take`` from the automata's
    stacked step tables, for every automaton at once, and the final codes
    are decoded once.  Words stored time-major (``words.T`` C-contiguous)
    are read one contiguous column a step.
    """
    machines = [automata] if isinstance(automata, Semiautomaton) else list(automata)
    if not machines:
        raise ValueError("need at least one automaton")
    _check_compatible(*machines)
    n, size = machines[0].n_states, machines[0].alphabet_size
    words, starts = np.asarray(words), np.asarray(starts)
    if starts.shape != words.shape[:1]:
        raise ValueError(f"starts of shape {starts.shape} do not match words of shape {words.shape}")
    _check_range(starts, n, f"start state {{}} out of range for {n} states")
    _check_range(words, size, f"symbol {{}} out of range for alphabet {size}")
    # one automaton's own table is its one-machine stack
    table = machines[0].step_table if len(machines) == 1 else _stacked_table(tuple(machines))
    offsets = np.arange(len(machines), dtype=table.dtype)[:, None] * (n * size)
    codes = offsets + starts.astype(table.dtype) * size
    for t in range(words.shape[1]):
        np.add(codes, words[:, t], out=codes)
        codes = table.take(codes)
    states = codes // size - offsets // size
    return states[0] if isinstance(automata, Semiautomaton) else states


def run_suffixes(automaton: Semiautomaton, states: np.ndarray, length: int) -> np.ndarray:
    """Final states of every word of ``length`` symbols, run from each of ``states``.

    The result is shaped ``states.shape + (A**length,)``, ``A`` the alphabet
    size, with the words along the last axis in counting order (the last
    symbol varies fastest).  States are range-checked first.  Row ``s`` of
    the step table, decoded, holds the state after each symbol from ``s``,
    so each symbol position costs one row-wise ``take`` over the expansion
    so far.
    """
    n, size = automaton.n_states, automaton.alphabet_size
    states = np.array(states, dtype=np.int64)[..., None]
    _check_range(states, n, f"start state {{}} out of range for {n} states")
    successors = automaton.step_table.reshape(n, size) // size
    for _ in range(length):
        shape = (*states.shape[:-1], states.shape[-1] * size)
        states = successors.take(states, axis=0).reshape(shape)
    return states


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


def _copies_prefactor(n: int) -> float:
    return 16 * (3 * n + 1) / (3 * (n - 1))


def _copies_log_terms(n: int) -> float:
    group_order = math.factorial(n)
    pair_count = group_order * (group_order - 1) // 2
    return n * math.log(n) + math.log(pair_count) + 2 * math.log(n - 1)


def min_alphabet_copies(n: int) -> int:
    """Smallest alphabet-copy count meeting the spectral-gap guarantee.

    Ceiling of ``16(3n+1)/(3(n-1)) * [n ln n + ln C(n!, 2) + 2 ln(n-1)]``;
    the guarantee behind it is stated for n >= 4.
    """
    if n < 4:
        raise ValueError(f"the copy threshold is defined for n >= 4, got {n}")
    return math.ceil(_copies_prefactor(n) * _copies_log_terms(n))


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
        low = _HEADER.size + index * mask_bytes
        raw = np.frombuffer(data[low : low + mask_bytes], dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        if bits[n_bits:].any():
            raise FamilyFormatError(f"member {index} has nonzero padding bits")
        members.append(Semiautomaton(n_states, n_copies, bits[:n_bits].astype(bool)))
    return ShuffleFamily(config, tuple(members))
