"""Modules, strong modules, quotients, and modular decomposition trees.

Implements the module machinery for hypergraphs (a vertex set M is a module
when every edge straddling M meets it in exactly one vertex, and that vertex
can be swapped for any member of M without leaving the edge set) and the
interval-style analogue for tournaments.  Primality, strong modules and the
trees come from one closure engine (after Ehrenfeucht, Gabow, McConnell &
Sullivan, J. Algorithms 1994, and McConnell & de Montgolfier, 2005): each
structure supplies the smallest module containing a set, and the engine
reads the rest from the closures of vertex pairs, in polynomial time.  One
bottom-up pass over the strong modules, smallest first, gives every node its
children (``_children``) and builds the tree; each internal node keeps the
quotient its label was read from, and the tree keeps the closure it was read
from, so later stages rebuild neither.  On 3-uniform input a prime label is
re-checked within the node's transverse on that closure, the realization of
a prime quotient reads the same tables, and an input needs one closure
table.  Only ``enumerate_modules``, ``enumerate_usual_modules`` and
``tournament_modules`` list modules by brute force over vertex subsets,
because their output can have 2^n members; they alone take a ``bound``
(``DEFAULT_BOUND``).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator

from .bitset import VertexSet, as_mask, bit_list, full_mask, iter_bits
from .core import Hypergraph, Tournament, is_linear_order
from .errors import InvariantError, PreconditionError
from .oracle import DEFAULT_BOUND, _is_module_over, modules_within, subsets_where

__all__ = [
    "DEFAULT_BOUND",
    "LABEL_PRIME", "LABEL_EMPTY", "LABEL_COMPLETE", "LABEL_LINEAR",
    "is_module", "module_violation", "is_usual_module",
    "enumerate_modules", "enumerate_usual_modules",
    "is_strong_module", "strong_modules", "is_prime",
    "ModularPartition", "maximal_proper_strong_modules", "quotient",
    "components", "smallest_strong_module_containing",
    "TreeNode", "DecompositionTree", "decomposition_tree",
    "tournament_is_module", "tournament_modules", "tournament_strong_modules",
    "tournament_is_prime", "tournament_pi", "tournament_quotient",
    "tournament_decomposition_tree",
]

LABEL_PRIME = "prime"
LABEL_EMPTY = "empty"
LABEL_COMPLETE = "complete"
LABEL_LINEAR = "linear"

_HYPERGRAPH_SYMBOLS = {LABEL_PRIME: "△", LABEL_EMPTY: "◯",
                       LABEL_COMPLETE: "●"}

# close(s): the smallest module containing the nonempty vertex set s; the
# hypergraph closure also takes close(s, w), the same within the set w
Closure = Callable[..., int]


def _check_subset(h, m: int) -> None:
    if m & ~full_mask(h.n):
        raise PreconditionError(f"set {bit_list(m)} not within 0..{h.n - 1}")


def _lowest(m: int) -> int:
    return (m & -m).bit_length() - 1


# --- hypergraph module predicates -------------------------------------------

def is_module(h: Hypergraph, vertices: int | Iterable[int]) -> bool:
    """True iff the vertex set is a module of ``h``."""
    m = as_mask(vertices)
    _check_subset(h, m)
    return _is_module_over(h.edges, h.edges, m)


def module_violation(h: Hypergraph, vertices: int | Iterable[int]) -> VertexSet | None:
    """The first edge witnessing that the set is not a module, else None.

    Edges are scanned in canonical order (sorted vertex lists); the returned
    edge either meets the set in two or more vertices while leaving it, or
    has a member swap that is not an edge.
    """
    m = as_mask(vertices)
    _check_subset(h, m)
    for e in sorted(h.edges, key=bit_list):
        if not _is_module_over((e,), h.edges, m):
            return VertexSet(e)
    return None


def is_usual_module(h: Hypergraph, vertices: int | Iterable[int]) -> bool:
    """Module in the componentwise-replacement sense, kept as a comparison
    predicate: for every edge e straddling the set, replacing the part of e
    inside the set by any equal-size subset of the set must give an edge.
    """
    m = as_mask(vertices)
    _check_subset(h, m)
    members = bit_list(m)
    for e in h.edges:
        inter = e & m
        if inter == 0 or e & ~m == 0:
            continue
        base = e & ~m
        k = inter.bit_count()
        for repl in combinations(members, k):
            f = base
            for v in repl:
                f |= 1 << v
            if f not in h.edges:
                return False
    return True


# --- brute-force enumeration -------------------------------------------------

def enumerate_modules(h: Hypergraph, bound: int = DEFAULT_BOUND) -> frozenset[VertexSet]:
    """Exactly the modules of ``h``, including the trivial ones."""
    return frozenset(VertexSet(m) for m in modules_within(h, full_mask(h.n), bound))


def enumerate_usual_modules(h: Hypergraph, bound: int = DEFAULT_BOUND) -> frozenset[VertexSet]:
    return frozenset(VertexSet(m) for m in
                     subsets_where(full_mask(h.n), partial(is_usual_module, h), bound))


# --- the closure engine ------------------------------------------------------

def _hypergraph_closure(h: Hypergraph) -> Closure:
    """The map ``close(s, w)`` from a nonempty set s within w to the smallest
    module of the induced subhypergraph H[w] containing s (w defaults to the
    whole vertex set).

    An edge that leaves the set and meets it in two or more vertices, or in
    one vertex u whose swap for another member is not an edge, lies inside
    every module containing the set, so it is absorbed.  Each member u is
    spanned once: it absorbs the edges through u and each member spanned
    before it.  Each member u is linked once, when every member is spanned:
    it absorbs each link f (an edge minus u, or minus the first member r)
    that misses the set and is a link of only one of u and r.  Spanning is
    cheap and usually fills a prime structure before any linking.

    The tables are built in one pass over the edges, decoding each edge
    once, for the whole of h, and read within w: a span
    ``spans[u][b]`` (the union of the edges through u and b) is cut to w,
    and a link with a vertex outside w is skipped.  Cutting a span is exact
    only when h is 3-uniform: an edge through u and b then leaves w exactly
    when its third vertex does.  ``close.spans`` exposes the span table, so
    that ``spans[x][v]`` minus x and v is the link of the pair x, v.
    """
    n = h.n
    links: list[set[int]] = [set() for _ in range(n)]
    spans = [[0] * n for _ in range(n)]
    for e in h.edges:
        members, rest = [], e
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        for u in members:
            links[u].add(e ^ (1 << u))
            row = spans[u]
            for b in members:
                row[b] |= e
    full = full_mask(n)

    def close(s: int, w: int = full) -> int:
        r_links = links[_lowest(s)]
        m, spanned, order, linked = s, 0, [], 0
        while m != w and m != linked:
            if m != spanned:
                u = _lowest(m & ~spanned)
                row = spans[u]
                for b in order:
                    m |= row[b]
                m &= w
                spanned |= 1 << u
                order.append(u)
            else:
                u = _lowest(m & ~linked)
                outside = ~w
                for f in links[u] ^ r_links:
                    if not f & (m | outside):
                        m |= f
                linked |= 1 << u
        return m

    close.spans = spans
    return close


def _tournament_closure(t: Tournament) -> Closure:
    """The map from a nonempty vertex set to the smallest module containing it.

    An outside vertex that splits the set beats exactly one of some member u
    and the first member r, so it lies in succ(u) ^ succ(r); it lies inside
    every module containing the set and is absorbed.
    """
    succ = t.succ

    def close(s: int) -> int:
        r_succ = succ[_lowest(s)]
        m, done = s, 0
        while m != done:
            u = _lowest(m & ~done)
            m |= succ[u] ^ r_succ
            done |= 1 << u
        return m

    return close


def _pair_closures(n: int, close: Closure) -> Iterator[int]:
    return (close((1 << x) | (1 << y)) for x, y in combinations(range(n), 2))


def _is_prime_by(n: int, close: Closure) -> bool:
    """At least 3 vertices, and every vertex pair closes to the whole set."""
    full = full_mask(n)
    return n >= 3 and all(c == full for c in _pair_closures(n, close))


def _is_prime_within(close: Closure, w: int) -> bool:
    """H[w] is prime, read from the hypergraph closure ``close(s, w)``: at
    least 3 vertices, and every pair of them closes to w."""
    return w.bit_count() >= 3 and all(
        close((1 << x) | (1 << y), w) == w for x, y in combinations(bit_list(w), 2))


def _strong_nodes(n: int, close: Closure) -> set[int]:
    """The nonempty strong modules, which are the decomposition tree's nodes.

    A pair closure that overlaps no other pair closure is strong: a module
    it overlapped would contain a pair whose closure overlaps it.  Every
    other pair closure is a union of children of a node whose quotient is
    degenerate (empty, complete or linear) with three or more children; the
    closures of that node's pairs are overlap-connected, and one of them
    together with those it overlaps covers the node.  Singletons and the
    whole set complete the list.
    """
    closures = set(_pair_closures(n, close))
    nodes = {1 << v for v in range(n)} | {full_mask(n)}
    for c in closures:
        node = c
        for d in closures:
            if c & d and c & ~d and d & ~c:
                node |= d
        nodes.add(node)
    return nodes


def _children(n: int, close: Closure) -> dict[int, list[int]]:
    """Each strong module's children (its maximal proper strong modules, by
    smallest vertex), smallest module first.  Strong modules nest or are
    disjoint, so a module's children are the current tops of its vertices."""
    out: dict[int, list[int]] = {1 << v: [] for v in range(n)}
    tops = {v: 1 << v for v in range(n)}
    for m in sorted(_strong_nodes(n, close) - out.keys(), key=int.bit_count):
        blocks, rest = [], m
        while rest:
            b = tops.pop(_lowest(rest), -1)  # -1, every bit, fails the check below
            if b & ~m:
                raise InvariantError("maximal proper strong modules must partition their parent")
            blocks.append(b)
            rest &= ~b
        tops[_lowest(m)] = m
        out[m] = blocks
    return out


def _tree(n: int, close: Closure,
          label: Callable[[int, list[int]], tuple[str, Hypergraph | Tournament]],
          kind: str) -> DecompositionTree:
    """The inclusion tree of the strong modules, built bottom-up; ``label``
    gives each internal node's label and quotient, and the tree keeps
    ``close``."""
    built: dict[int, TreeNode] = {}
    for m, blocks in _children(n, close).items():
        name, q = label(m, blocks) if blocks else (None, None)
        built[m] = TreeNode(m, name, tuple(built.pop(b) for b in blocks), q)
    return DecompositionTree(built[full_mask(n)], n, kind, close)


def is_strong_module(h: Hypergraph, vertices: int | Iterable[int]) -> bool:
    """True iff the set is a module overlapping no other module of ``h``."""
    m = as_mask(vertices)
    _check_subset(h, m)
    return m in strong_modules(h)


def strong_modules(h: Hypergraph) -> frozenset[VertexSet]:
    """All strong modules of ``h`` (the tree nodes, plus the empty set)."""
    return frozenset(VertexSet(m) for m in _strong_nodes(h.n, _hypergraph_closure(h)) | {0})


def is_prime(h: Hypergraph) -> bool:
    """True iff ``h`` has at least 3 vertices and only trivial modules."""
    return _is_prime_by(h.n, _hypergraph_closure(h))


# --- modular partitions and quotients ----------------------------------------

class ModularPartition:
    """A partition of the host's vertices into modules, validated on construction
    (the engine's own partitions come through ``_of_children`` unchecked).

    Blocks are kept in canonical order (by smallest contained vertex).  The
    host may be a hypergraph or a tournament.
    """

    __slots__ = ("host", "blocks")

    def __init__(self, host: Hypergraph | Tournament, blocks: Iterable[int | Iterable[int]]):
        masks = [as_mask(b) for b in blocks]
        masks.sort(key=_lowest)
        union = 0
        for b in masks:
            if b == 0:
                raise PreconditionError("partition blocks must be nonempty")
            if b & union:
                raise PreconditionError("partition blocks must be disjoint")
            union |= b
        if union != full_mask(host.n):
            raise PreconditionError("partition blocks must cover the vertex set")
        test = tournament_is_module if isinstance(host, Tournament) else is_module
        bad = [b for b in masks if not test(host, b)]
        if bad:
            raise PreconditionError(f"block {bit_list(bad[0])} is not a module")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "blocks", tuple(VertexSet(b) for b in masks))

    @classmethod
    def _of_children(cls, host: Hypergraph | Tournament, blocks: list[int]) -> "ModularPartition":
        """The engine's own children of the root, already sorted and
        checked to partition it by ``_children``; not re-tested as modules."""
        p = object.__new__(cls)
        object.__setattr__(p, "host", host)
        object.__setattr__(p, "blocks", tuple(VertexSet(b) for b in blocks))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("ModularPartition is immutable")

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def block_of(self, v: int) -> int:
        for i, b in enumerate(self.blocks):
            if (b >> v) & 1:
                return i
        raise PreconditionError(f"vertex {v} not covered")

    def __repr__(self) -> str:
        return f"ModularPartition({[bit_list(b) for b in self.blocks]})"


def maximal_proper_strong_modules(h: Hypergraph) -> ModularPartition:
    """The partition into maximal proper strong modules."""
    if h.n < 2:
        raise PreconditionError("need at least 2 vertices")
    blocks = _children(h.n, _hypergraph_closure(h))[full_mask(h.n)]
    return ModularPartition._of_children(h, blocks)


def _quotient_edge_masks(edges: Collection[int], blocks: tuple[int, ...]) -> frozenset[int]:
    """The sets of two or more blocks that the edges meet.  Every vertex of
    an edge lies in some block, and is mapped to its block's bit once."""
    covered = 0
    for e in edges:
        covered |= e
    bit = [0] * covered.bit_length()
    for i, b in enumerate(blocks):
        b &= covered
        while b:
            low = b & -b
            bit[low.bit_length() - 1] = 1 << i
            b ^= low
    out = set()
    for e in edges:
        hit = 0
        while e:
            low = e & -e
            hit |= bit[low.bit_length() - 1]
            e ^= low
        if hit.bit_count() >= 2:
            out.add(hit)
    return frozenset(out)


def quotient(h: Hypergraph, partition: ModularPartition) -> Hypergraph:
    """The quotient hypergraph on the partition blocks.

    Block i of the partition becomes vertex i; a set of blocks is an edge
    iff some edge of ``h`` meets exactly those blocks (and at least two).
    """
    if not isinstance(partition, ModularPartition) or partition.host is not h:
        partition = ModularPartition(h, list(partition))
    blocks = tuple(int(b) for b in partition.blocks)
    return Hypergraph._from_masks(len(blocks), _quotient_edge_masks(h.edges, blocks))


def components(h: Hypergraph) -> list[VertexSet]:
    """Vertex sets of the connected components, in canonical order.

    Two vertices are connected when a chain of pairwise-intersecting edges
    joins them; vertices in no edge are singleton components.
    """
    seen = 0
    out = []
    for v in range(h.n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        changed = True
        while changed:
            changed = False
            for e in h.edges:
                if e & comp and e & ~comp:
                    comp |= e
                    changed = True
        seen |= comp
        out.append(VertexSet(comp))
    return out


# --- decomposition trees -------------------------------------------------------

class TreeNode:
    """A strong module with its children and, when internal, a quotient label
    and the quotient (vertex i is child i; leaves hold None)."""

    __slots__ = ("members", "label", "children", "quotient")

    def __init__(self, members: int, label: str | None, children: tuple["TreeNode", ...],
                 quotient: Hypergraph | Tournament | None = None):
        object.__setattr__(self, "members", VertexSet(members))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "quotient", quotient)

    def __setattr__(self, name, value):
        raise AttributeError("TreeNode is immutable")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"TreeNode({bit_list(self.members)})"
        return f"TreeNode({bit_list(self.members)}, {self.label}, {len(self.children)} children)"


class DecompositionTree:
    """The inclusion tree of the nonempty strong modules.

    The root is the full vertex set, leaves are singletons, and the children
    of an internal node are the maximal proper strong modules of the induced
    substructure, ordered by smallest contained vertex.  A tree built by
    ``decomposition_tree`` or ``tournament_decomposition_tree`` also keeps
    the closure it was read from (``_close``), so later stages reuse its
    tables instead of building them again.
    """

    __slots__ = ("root", "n", "kind", "_close")

    def __init__(self, root: TreeNode, n: int, kind: str, close: Closure | None = None):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_close", close)

    def __setattr__(self, name, value):
        raise AttributeError("DecompositionTree is immutable")

    def nodes(self) -> Iterator[TreeNode]:
        """All nodes in depth-first preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def internal_nodes(self) -> Iterator[TreeNode]:
        return (x for x in self.nodes() if not x.is_leaf)

    def node_members(self) -> frozenset[VertexSet]:
        return frozenset(x.members for x in self.nodes())

    def lowest_node_containing(self, vertices: int | Iterable[int]) -> TreeNode:
        s = as_mask(vertices)
        if s == 0 or s & ~int(self.root.members):
            raise PreconditionError("need a nonempty subset of the vertex set")
        node = self.root
        while True:
            for child in node.children:
                if s & ~int(child.members) == 0:
                    node = child
                    break
            else:
                return node

    def _display_label(self, label: str) -> str:
        if self.kind == "hypergraph":
            return _HYPERGRAPH_SYMBOLS[label]
        return label

    def to_json(self) -> dict:
        """Nested ``{"module": [...], "label": ..., "children": [...]}``."""
        return _node_json(self.root, self._display_label)

    def to_dot(self) -> str:
        """Graphviz source; children are ordered by smallest contained vertex."""
        lines = ["digraph decomposition {", "  node [shape=box];"]
        _dot_lines(self.root, self._display_label, lines, 0)
        lines.append("}")
        return "\n".join(lines)


def _node_json(node: TreeNode, display: Callable[[str], str]) -> dict:
    return {
        "module": bit_list(node.members),
        "label": None if node.is_leaf else display(node.label),
        "children": [_node_json(c, display) for c in node.children],
    }


def _dot_lines(node: TreeNode, display: Callable[[str], str], lines: list[str],
               ident: int) -> int:
    """Append the subtree at ``node``, numbered in preorder from ``ident``,
    and return the next free number."""
    vs = ",".join(map(str, bit_list(node.members)))
    if node.is_leaf:
        lines.append(f'  n{ident} [label="{vs}" shape=plaintext];')
    else:
        lines.append(f'  n{ident} [label="{display(node.label)} {{{vs}}}"];')
    free = ident + 1
    for child in node.children:
        cid, free = free, _dot_lines(child, display, lines, free)
        lines.append(f"  n{ident} -> n{cid};")
    return free


def _hypergraph_label(h: Hypergraph, close: Closure, w: int,
                      blocks: list[int]) -> tuple[str, Hypergraph]:
    """The label of the node w and its quotient.  A prime label is checked
    once more: on 3-uniform input the quotient is H[transverse] (the
    smallest vertex of each block), so ``close`` answers within the
    transverse; other input builds the quotient's own closure."""
    qedges = _quotient_edge_masks([e for e in h.edges if e & ~w == 0], tuple(blocks))
    q = Hypergraph._from_masks(len(blocks), qedges)
    if not qedges:
        return LABEL_EMPTY, q
    if qedges == {(1 << i) | (1 << j) for i, j in combinations(range(q.n), 2)}:
        # a 3-edge meeting >= 2 blocks meets each exactly once, so the
        # quotient of a 3-uniform hypergraph has no 2-edges
        if h.is_3_uniform:
            raise InvariantError("complete label unreachable for 3-uniform input")
        return LABEL_COMPLETE, q
    prime = (_is_prime_within(close, sum(b & -b for b in blocks)) if h.is_3_uniform
             else is_prime(q))
    if not prime:
        raise InvariantError("quotient by maximal proper strong modules must be prime")
    return LABEL_PRIME, q


def decomposition_tree(h: Hypergraph) -> DecompositionTree:
    """The full labeled modular decomposition tree of ``h``."""
    if h.n < 1:
        raise PreconditionError("need at least 1 vertex")
    close = _hypergraph_closure(h)
    return _tree(h.n, close, partial(_hypergraph_label, h, close), "hypergraph")


def smallest_strong_module_containing(h: Hypergraph,
                                      vertices: int | Iterable[int]) -> VertexSet:
    """The intersection of all strong modules containing the given set."""
    return decomposition_tree(h).lowest_node_containing(vertices).members


# --- tournament analogues ------------------------------------------------------

def tournament_is_module(t: Tournament, vertices: int | Iterable[int]) -> bool:
    """Interval-style module test: no outside vertex splits the set by arcs."""
    m = as_mask(vertices)
    _check_subset(t, m)
    for v in iter_bits(full_mask(t.n) & ~m):
        s = t.succ[v] & m
        if s != 0 and s != m:
            return False
    return True


def tournament_modules(t: Tournament, bound: int = DEFAULT_BOUND) -> frozenset[VertexSet]:
    return frozenset(VertexSet(m) for m in
                     subsets_where(full_mask(t.n), partial(tournament_is_module, t), bound))


def tournament_strong_modules(t: Tournament) -> frozenset[VertexSet]:
    return frozenset(VertexSet(m) for m in _strong_nodes(t.n, _tournament_closure(t)) | {0})


def tournament_is_prime(t: Tournament) -> bool:
    return _is_prime_by(t.n, _tournament_closure(t))


def tournament_pi(t: Tournament) -> ModularPartition:
    if t.n < 2:
        raise PreconditionError("need at least 2 vertices")
    blocks = _children(t.n, _tournament_closure(t))[full_mask(t.n)]
    return ModularPartition._of_children(t, blocks)


def tournament_quotient(t: Tournament, partition: ModularPartition) -> Tournament:
    """Quotient tournament on the blocks (arc direction via any representatives).

    The smallest vertex of each block represents it; blocks are in canonical
    order, so the induced subtournament lists them in block order.
    """
    if not isinstance(partition, ModularPartition) or partition.host is not t:
        partition = ModularPartition(t, list(partition))
    return t.induced(sum(int(b) & -int(b) for b in partition.blocks))


def _tournament_label(t: Tournament, w: int, blocks: list[int]) -> tuple[str, Tournament]:
    q = t.induced(sum(b & -b for b in blocks))
    if is_linear_order(q):
        return LABEL_LINEAR, q
    if not tournament_is_prime(q):
        raise InvariantError(
            "tournament quotient by maximal strong modules must be linear or prime")
    return LABEL_PRIME, q


def tournament_decomposition_tree(t: Tournament) -> DecompositionTree:
    """Labeled decomposition tree of a tournament (labels: linear or prime)."""
    if t.n < 1:
        raise PreconditionError("need at least 1 vertex")
    return _tree(t.n, _tournament_closure(t), partial(_tournament_label, t), "tournament")
