"""Core combinatorial structures: hypergraphs, tournaments, graphs.

Vertices are dense indices 0..n-1.  Edges and vertex subsets are bit masks
(see :mod:`c3realize.bitset`).  All structures are immutable after
construction, so values can be shared and hashed freely.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .bitset import (
    as_mask, as_vertex, bit_list, full_mask, is_int, iter_bits, ranks, remap, require_count,
)
from .errors import PreconditionError

__all__ = [
    "Hypergraph",
    "Tournament",
    "Graph",
    "induced_subhypergraph",
    "c3_structure",
    "dual",
    "linear_order",
    "is_linear_order",
    "critical_family",
]


class Frozen:
    """The base of the package's value classes: each sets its attributes
    once, in its constructor, through ``object.__setattr__``, after which
    none can be reassigned or deleted.  A copy or an unpickled value is
    rebuilt from the slots (``_rebuild``), so it is frozen too, as is a
    value that the package builds from parts it has already checked."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        cls = type(self)
        return _rebuild, (cls, tuple(getattr(self, name) for name in cls.__slots__))


def _rebuild(cls: type, values: tuple) -> Frozen:
    """The value of class ``cls`` whose slots hold ``values``, in order."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Hypergraph(Frozen):
    """A finite hypergraph: ``n`` vertices and a set of edges of size >= 2.

    Edges are stored as a frozenset of bit masks, which makes membership
    tests O(1) and hypergraph equality an exact set comparison.
    """

    __slots__ = ("n", "edges", "is_3_uniform")

    def __init__(self, n: int, edges: Iterable[int | Iterable[int]] = ()):
        require_count(n)
        masks = frozenset(as_mask(e, n) for e in edges)
        for e in masks:
            if e.bit_count() < 2:
                raise PreconditionError(
                    f"edge {bit_list(e)} has fewer than 2 vertices")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", masks)
        object.__setattr__(self, "is_3_uniform",
                           all(e.bit_count() == 3 for e in masks))

    @classmethod
    def _from_masks(cls, n: int, masks: frozenset[int],
                    is_3_uniform: bool | None = None) -> "Hypergraph":
        """Internal fast constructor; caller guarantees validity, and
        ``is_3_uniform`` when it passes it (else the edges are scanned)."""
        if is_3_uniform is None:
            is_3_uniform = all(e.bit_count() == 3 for e in masks)
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "edges", masks)
        object.__setattr__(h, "is_3_uniform", is_3_uniform)
        return h

    @property
    def vertex_mask(self) -> int:
        return full_mask(self.n)

    def edge_lists(self) -> list[list[int]]:
        """Edges as sorted index lists, sorted lexicographically."""
        return sorted(bit_list(e) for e in self.edges)

    def has_edge(self, vertices: int | Iterable[int]) -> bool:
        return as_mask(vertices, self.n) in self.edges

    def induced(self, vertices: int | Iterable[int]) -> "Hypergraph":
        return induced_subhypergraph(self, vertices)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph({self.n}, {self.edge_lists()})"


def induced_subhypergraph(h: Hypergraph, vertices: int | Iterable[int]) -> Hypergraph:
    """The subhypergraph induced by a vertex subset, re-indexed to 0..k-1.

    Vertex i of the result is the i-th smallest member of ``vertices``
    (``bitset.ranks``).  Keeps exactly the edges contained in the subset.
    """
    w = as_mask(vertices, h.n)
    images = ranks(w, h.n)
    kept = frozenset(remap(e, images) for e in h.edges if not e & ~w)
    return Hypergraph._from_masks(w.bit_count(), kept, h.is_3_uniform or None)


class Tournament(Frozen):
    """A complete antisymmetric orientation of the pairs on 0..n-1.

    ``succ[i]`` is the bit mask of vertices that i beats (arcs i -> j).
    """

    __slots__ = ("n", "succ")

    def __init__(self, n: int, succ: Iterable[int]):
        succ = tuple(succ)
        require_count(n)
        if not all(map(is_int, succ)):
            raise PreconditionError("out-neighbour masks must be ints")
        if len(succ) != n:
            raise PreconditionError(f"need {n} out-neighbour masks, got {len(succ)}")
        arcs = 0
        for i, s in enumerate(succ):
            if (as_mask(s, n) >> i) & 1:
                raise PreconditionError(f"invalid out-neighbour mask for vertex {i}")
            arcs += s.bit_count()
        # no pair has two arcs, and there are n(n-1)/2 arcs: so every pair has one
        if arcs != n * (n - 1) // 2 or _two_way_arc(succ):
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if (succ[i] >> j) & 1 == (succ[j] >> i) & 1)
            raise PreconditionError(f"pair {{{i},{j}}} must have exactly one arc")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "succ", succ)

    @classmethod
    def _from_succ(cls, n: int, succ: tuple[int, ...]) -> "Tournament":
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "succ", succ)
        return t

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Tournament":
        succ = [0] * require_count(n)
        for u, v in _read_pairs(arcs, n, "arc"):
            succ[u] |= 1 << v
        return cls(n, succ)

    @property
    def vertex_mask(self) -> int:
        return full_mask(self.n)

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.succ[as_vertex(u, self.n)] >> as_vertex(v, self.n)) & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.succ[u]):
                yield (u, v)

    def dual(self) -> "Tournament":
        return dual(self)

    def induced(self, vertices: int | Iterable[int]) -> "Tournament":
        """Subtournament on a vertex subset: vertex i is the i-th smallest
        member of the subset (``bitset.ranks``)."""
        w = as_mask(vertices, self.n)
        images = ranks(w, self.n)
        return Tournament._from_succ(w.bit_count(), tuple(
            remap(self.succ[v] & w, images) for v in iter_bits(w)))

    def relabel(self, phi: dict[int, int] | list[int]) -> "Tournament":
        """Image under a vertex bijection: arc u->v becomes phi[u]->phi[v].

        ``phi`` is a list of n images or a dict keyed by 0..n-1.  Anything
        else, and images that are not n distinct ints within 0..n-1 (read
        by ``bitset.as_mask``), raise ``PreconditionError``.
        """
        n = self.n
        try:
            to = [phi[v] for v in range(n)] if len(phi) == n else None
        except (KeyError, TypeError):
            to = None
        if to is None:
            raise PreconditionError(f"phi must map exactly the vertices 0..{n - 1}")
        as_mask(to, n)  # n distinct images within 0..n-1 form a bijection
        images = [1 << v for v in to]
        succ = [0] * n
        for u, s in enumerate(self.succ):
            succ[to[u]] = remap(s, images)
        return Tournament._from_succ(n, tuple(succ))

    def scores(self) -> list[int]:
        return [s.bit_count() for s in self.succ]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tournament)
                and self.n == other.n and self.succ == other.succ)

    def __hash__(self) -> int:
        return hash((self.n, self.succ))

    def __repr__(self) -> str:
        return f"Tournament({self.n}, arcs={sorted(self.arcs())})"


def _two_way_arc(succ: tuple[int, ...]) -> bool:
    """Some arc i -> j with j > i has its reverse j -> i too."""
    for i, s in enumerate(succ):
        bit = 1 << i
        up = s & -bit
        while up:
            low = up & -up
            if succ[low.bit_length() - 1] & bit:
                return True
            up ^= low
    return False


def _read_pairs(items: Iterable[object], n: int, what: str) -> Iterator[tuple[int, int]]:
    """The (u, v) items of an arc or edge list, each a tuple or list of two
    distinct int vertex indices in 0..n-1; any other item raises
    ``PreconditionError`` ("invalid arc ..." or "invalid edge ..."), before
    it is unpacked."""
    for item in items:
        if not (isinstance(item, (tuple, list)) and len(item) == 2):
            raise PreconditionError(f"invalid {what} {item!r}")
        u, v = item
        if not (is_int(u) and is_int(v) and 0 <= u < n and 0 <= v < n and u != v):
            raise PreconditionError(f"invalid {what} ({u},{v})")
        yield u, v


class Graph(Frozen):
    """A simple undirected graph on 0..n-1 with bit-mask adjacency rows."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * require_count(n)
        for u, v in _read_pairs(edges, n, "edge"):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[as_vertex(u, self.n)] >> as_vertex(v, self.n)) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u]):
                if u < v:
                    out.append((u, v))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()})"


# --- tournament operations -------------------------------------------------

def c3_structure(t: Tournament) -> Hypergraph:
    """The 3-uniform hypergraph of vertex triples inducing a directed 3-cycle.

    A 3-cycle u -> v -> z -> u leaves its smallest vertex u by exactly one
    arc, so it is found once, from that arc: the third vertices of the
    cycles through an arc u -> v with u < v are the z > u in
    ``succ[v] & pred(u)``.  That takes O(n^2) mask operations plus one step
    per edge, instead of a scan of all C(n, 3) triples.
    """
    succ = t.succ
    edges = []
    above = full_mask(t.n)
    for u, out in enumerate(succ):
        ub = 1 << u
        above &= ~ub
        pred_above = above & ~out
        heads = out & above
        while heads:
            vb = heads & -heads
            heads ^= vb
            arc = ub | vb
            thirds = succ[vb.bit_length() - 1] & pred_above
            while thirds:
                zb = thirds & -thirds
                thirds ^= zb
                edges.append(arc | zb)
    return Hypergraph._from_masks(t.n, frozenset(edges), True)


def dual(t: Tournament) -> Tournament:
    """The tournament with every arc reversed."""
    full = t.vertex_mask
    succ = tuple((full & ~t.succ[i]) & ~(1 << i) for i in range(t.n))
    return Tournament._from_succ(t.n, succ)


def linear_order(n: int) -> Tournament:
    """The increasing linear order on 0..n-1 (arc p->q for p < q)."""
    if require_count(n) < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    full = full_mask(n)
    succ = tuple(full & ~full_mask(i + 1) for i in range(n))
    return Tournament._from_succ(n, succ)


def is_linear_order(t: Tournament) -> bool:
    """True iff the tournament has no 3-cycle.

    A tournament is transitive exactly when its scores are pairwise
    distinct, i.e. the score sequence is 0,1,...,n-1.
    """
    return sorted(t.scores()) == list(range(t.n))


def critical_family(kind: str, n: int) -> Tournament:
    """One of the three critical tournament families of odd order ``n`` >= 5.

    Each is the linear order on 0..n-1 with a prescribed arc set reversed:
    kind "T" reverses every arc joining an even and an odd vertex, kind "U"
    every arc joining two even vertices, and kind "W" every arc joining the
    top vertex n-1 to an even vertex below it.
    """
    if kind not in ("T", "U", "W"):
        raise PreconditionError(f"kind must be one of T, U, W, got {kind!r}")
    if require_count(n) % 2 == 0 or n < 5:
        raise PreconditionError(f"order must be odd and >= 5, got {n}")

    def reversed_pair(p: int, q: int) -> bool:
        p_even = p % 2 == 0
        q_even = q % 2 == 0
        if kind == "T":
            return p_even != q_even
        if kind == "U":
            return p_even and q_even
        return q == n - 1 and p_even  # kind == "W", q is the top vertex

    succ = [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            if reversed_pair(p, q):
                succ[q] |= 1 << p
            else:
                succ[p] |= 1 << q
    return Tournament._from_succ(n, tuple(succ))
