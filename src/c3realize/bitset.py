"""Vertex sets as fixed-width bit masks.

Every structure in this package indexes its vertices densely as 0..n-1, so a
subset of vertices is a Python int with bit i set iff vertex i is a member.
Set algebra is then exact integer arithmetic: union ``|``, intersection ``&``,
difference ``a & ~b``, subset ``a & b == a``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import PreconditionError


class VertexSet(int):
    """An int bit mask that behaves like a read-only set of vertex indices."""

    __slots__ = ()

    @classmethod
    def of(cls, vertices: Iterable[int]) -> "VertexSet":
        """The set of the given vertex indices, checked by ``as_mask``."""
        return cls(as_mask(vertices))

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self)

    def __len__(self) -> int:
        return self.bit_count()

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and v >= 0 and bool((self >> v) & 1)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self))

    def issubset(self, other: int) -> bool:
        return self & other == self

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, iter_bits(self)))}}})"


def as_mask(vertices: int | Iterable[int]) -> int:
    """Coerce an int mask or an iterable of vertex indices to an int mask;
    a negative mask or index raises ``PreconditionError`` (a negative mask
    has infinitely many set bits)."""
    if isinstance(vertices, int):
        if vertices < 0:
            raise PreconditionError(f"negative vertex mask {vertices}")
        return vertices
    m = 0
    for v in vertices:
        if v < 0:
            raise PreconditionError(f"negative vertex index {v}")
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` (including 0 and mask itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def full_mask(n: int) -> int:
    return (1 << n) - 1
