"""Vertex sets as fixed-width bit masks.

Every structure in this package indexes its vertices densely as 0..n-1, so a
subset of vertices is a Python int with bit i set iff vertex i is a member.
Set algebra is then exact integer arithmetic: union ``|``, intersection ``&``,
difference ``a & ~b``, subset ``a & b == a``.  Renumbering a set is
``remap`` through a table of images, and ``ranks`` is the table that numbers
the members of a set by their rank in it, the one rule by which an induced
structure, a quotient or a structure with a vertex deleted is indexed.
A set that a caller gives is read by ``as_mask``, which checks it against
the vertex count of its structure before it shifts by any member, and a
single vertex by ``as_vertex``, under the same rule.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError


class VertexSet(int):
    """An int bit mask that behaves like a read-only set of vertex indices."""

    __slots__ = ()

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> "VertexSet":
        """The set of the given indices of a structure with ``n`` vertices,
        checked by ``as_mask``."""
        return cls(as_mask(vertices, n))

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


def is_int(value: object) -> bool:
    """True iff ``value`` is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_count(n: object) -> int:
    """A vertex count, which must be an int >= 0 (not a bool)."""
    if not is_int(n) or n < 0:
        raise PreconditionError(f"vertex count must be an int >= 0, got {n!r}")
    return n


def as_mask(vertices: int | Iterable[int], n: int) -> int:
    """Coerce an int mask or an iterable of distinct vertex indices to an
    int mask of a vertex set of a structure with ``n`` vertices.

    This is the one place where a vertex set is validated: a member
    outside 0..n-1 is refused before anything is shifted by it, so a huge
    index costs no memory, and the message names the largest such member.
    A negative mask or index, a bool, any other non-int and an index listed
    twice raise ``PreconditionError`` too (a negative mask has infinitely
    many set bits).
    """
    if is_int(vertices):
        if vertices < 0:
            raise PreconditionError(f"negative vertex mask {vertices}")
        m, top = vertices, vertices.bit_length() - 1
    elif isinstance(vertices, Iterable):
        m, top = 0, -1  # top: the largest member outside 0..n-1
        for v in vertices:
            if not is_int(v):
                raise PreconditionError(f"vertex index must be an int, got {v!r}")
            if v < 0:
                raise PreconditionError(f"negative vertex index {v}")
            if v >= n:
                top = max(top, v)
                continue
            if (m >> v) & 1:
                raise PreconditionError(f"vertex index {v} listed twice")
            m |= 1 << v
    else:
        raise PreconditionError(f"expected a mask or vertex indices, got {vertices!r}")
    if top >= n:
        raise PreconditionError(f"vertex {top} not within 0..{n - 1}")
    return m


def as_vertex(v: object, n: int) -> int:
    """One vertex index of a structure with ``n`` vertices, checked by the
    rule of ``as_mask``."""
    return as_mask([v], n).bit_length() - 1


def remap(mask: int, images: Sequence[int]) -> int:
    """The union of ``images[v]`` over the members v of ``mask``: with one
    bit per image, the set renumbered by that table."""
    out = 0
    while mask:
        low = mask & -mask
        out |= images[low.bit_length() - 1]
        mask ^= low
    return out


def ranks(w: int, n: int) -> list[int]:
    """The n images that renumber the members of w by rank (the i-th
    smallest member goes to ``1 << i``) and send every other vertex to 0;
    ``remap(m, ranks(w, n))`` is ``m & w`` indexed within w."""
    images = [0] * n
    for i, v in enumerate(iter_bits(w)):
        images[v] = 1 << i
    return images


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
