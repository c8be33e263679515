"""Representation-theoretic data for the permutation group on n points.

Irreducible representations are labelled by integer partitions of n.
Dimensions and transposition character ratios are computed exactly
(integers and rationals); explicit matrices are materialized only for
the permutation representation and the standard representation, which
is all the downstream spectral machinery needs.

The standard representation acts on the mean-zero subspace of R^n.  Its
matrices are expressed in the fixed orthonormal basis

    f_i = (e_1 + ... + e_i - i * e_{i+1}) / sqrt(i * (i + 1)),  i = 1..n-1,

so two runs (or two machines) always produce identical entries.  Any
other orthonormal basis of the subspace would give conjugate matrices;
every quantity consumed elsewhere (traces, spectra, quadratic forms in
vectors built from the same basis) is invariant under that choice.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .perm import Permutation, inverse

__all__ = [
    "Partition",
    "char_ratio",
    "irrep_dim",
    "partitions",
    "perm_matrix",
    "std_basis",
    "std_matrix",
]


@dataclass(frozen=True)
class Partition:
    """Non-increasing positive integers; labels an irrep (or a cycle type)."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a partition needs at least one part")
        if any(part < 1 for part in self.parts):
            raise ValueError(f"parts must be positive: {self.parts!r}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be non-increasing: {self.parts!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @staticmethod
    def trivial(n: int) -> Partition:
        return Partition((n,))

    @staticmethod
    def standard(n: int) -> Partition:
        if n < 2:
            raise ValueError("the standard irrep needs n >= 2")
        return Partition((n - 1, 1))


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of ``n``, largest first part first."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def descend(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from descend(remaining - part, part, prefix + (part,))

    for parts in descend(n, n, ()):
        yield Partition(parts)


def irrep_dim(label: Partition) -> int:
    """Dimension of the irrep labelled by ``label``, as an exact integer.

    Uses the ratio-of-factorials formula in the shifted parts
    ``l_i = parts[i] + k - i`` (1-based ``i``, ``k`` parts).
    """
    parts = label.parts
    k = len(parts)
    shifted = [parts[i] + k - (i + 1) for i in range(k)]
    numerator = math.factorial(label.n)
    for li, lj in itertools.combinations(shifted, 2):
        numerator *= li - lj
    dim, rem = divmod(numerator, math.prod(math.factorial(l) for l in shifted))
    if rem or dim <= 0:
        raise AssertionError(f"dimension formula broke on {label!r}")
    return dim


def char_ratio(label: Partition) -> Fraction:
    """Character at a transposition divided by the irrep dimension.

    Exact rational ``(1/(n(n-1))) * sum_j [(p_j - j)(p_j - j + 1) - j(j - 1)]``
    over the 1-based parts ``p_j``.
    """
    n = label.n
    if n < 2:
        raise ValueError("character ratio of transpositions needs n >= 2")
    total = sum(
        (part - j) * (part - j + 1) - j * (j - 1)
        for j, part in enumerate(label.parts, start=1)
    )
    return Fraction(total, n * (n - 1))


def perm_matrix(g: Permutation) -> np.ndarray:
    """The n x n 0/1 matrix sending basis vector ``i`` to ``g(i)``."""
    matrix = np.zeros((g.n, g.n))
    for point, image in enumerate(g.images):
        matrix[image, point] = 1.0
    return matrix


@functools.lru_cache(maxsize=None)
def std_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the mean-zero subspace, as columns of an n x (n-1) matrix."""
    if n < 2:
        raise ValueError("the standard representation needs n >= 2")
    basis = np.zeros((n, n - 1))
    for i in range(1, n):
        basis[:i, i - 1] = 1.0
        basis[i, i - 1] = -float(i)
        basis[:, i - 1] /= math.sqrt(i * (i + 1))
    basis.setflags(write=False)
    return basis


def std_matrix(g: Permutation) -> np.ndarray:
    """Orthogonal (n-1) x (n-1) matrix of ``g`` in the standard representation.

    Conjugates the permutation matrix into the fixed mean-zero basis and
    drops the all-ones direction; the trace is ``fix_count(g) - 1``.
    """
    basis = std_basis(g.n)
    permuted = basis[list(inverse(g).images), :]  # row j of perm_matrix(g) @ basis
    return basis.T @ permuted
