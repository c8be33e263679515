"""Exact permutation algebra on a 0-based finite ground set.

Permutations use one-line notation: ``images[i]`` is the image of point
``i``.  Composition is right-to-left — ``compose(g, h)`` applies ``h``
first — matching how words of transition functions act on states
elsewhere in this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Permutation",
    "SizeMismatchError",
    "Transposition",
    "all_permutations",
    "all_transpositions",
    "compose",
    "fix_count",
    "inverse",
]


class SizeMismatchError(ValueError):
    """Combining permutations defined on ground sets of different sizes."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{0, ..., n-1}`` in one-line notation.

    >>> g = Permutation((1, 2, 0))
    >>> g(0), g(1), g(2)
    (1, 2, 0)
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) < 1:
            raise ValueError("ground set must have at least one point")
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(
                f"not a bijection of 0..{len(self.images) - 1}: {self.images!r}"
            )

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(n)))


@dataclass(frozen=True)
class Transposition:
    """An unordered swap of two distinct points ``a < b``."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not 0 <= self.a < self.b:
            raise ValueError(f"need 0 <= a < b, got ({self.a}, {self.b})")

    def as_permutation(self, n: int) -> Permutation:
        if self.b >= n:
            raise ValueError(f"transposition ({self.a}, {self.b}) does not fit in {n} points")
        images = list(range(n))
        images[self.a], images[self.b] = self.b, self.a
        return Permutation(tuple(images))


def compose(g: Permutation, h: Permutation) -> Permutation:
    """Composition ``g`` after ``h``: ``compose(g, h)(i) == g(h(i))``.

    >>> compose(Permutation((1, 0, 2)), Permutation((0, 2, 1))).images
    (1, 2, 0)
    """
    if g.n != h.n:
        raise SizeMismatchError(f"cannot compose permutations on {g.n} and {h.n} points")
    return Permutation(tuple(g.images[image] for image in h.images))


def inverse(g: Permutation) -> Permutation:
    images = [0] * g.n
    for point, image in enumerate(g.images):
        images[image] = point
    return Permutation(tuple(images))


def fix_count(g: Permutation) -> int:
    """Number of fixed points of ``g``."""
    return sum(1 for point, image in enumerate(g.images) if image == point)


def all_transpositions(n: int) -> list[Transposition]:
    """All C(n, 2) transpositions in lexicographic ``(a, b)`` order.

    The order is part of the package's serialization contract: alphabet
    symbols index into this list.
    """
    if n < 2:
        raise ValueError(f"need at least 2 points for a transposition, got n={n}")
    return [Transposition(a, b) for a in range(n - 1) for b in range(a + 1, n)]


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations, in lexicographic order of their image tuples."""
    for images in itertools.permutations(range(n)):
        yield Permutation(images)
