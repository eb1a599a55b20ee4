"""Modules, strong modules, quotients, and modular decomposition trees.

Implements the module machinery for hypergraphs (a vertex set M is a module
when every edge straddling M meets it in exactly one vertex, and that vertex
can be swapped for any member of M without leaving the edge set) and the
interval-style analogue for tournaments.  Primality, strong modules and the
trees come from one closure engine (after Ehrenfeucht, Gabow, McConnell &
Sullivan, J. Algorithms 1994, and McConnell & de Montgolfier, 2005): each
structure supplies the smallest module containing a set, and the engine
reads the rest from the closures of vertex pairs, in polynomial time.  One
sweep over the distinct pair closures, smallest first, finds every strong
module and its children (``_children``) with no comparison of two closures,
and ``_tree`` builds the tree bottom-up from it for both kinds, which
``strong_modules`` and ``decomposition_tree`` take alike.  A node's
quotient, like that of any modular partition (``quotient``), is the
structure induced on its transverse, the smallest vertex of each block: an
edge that meets two or more blocks meets each in one vertex and stays an
edge when each is swapped for its block's smallest, and the arcs between
two blocks all point one way.  Each internal node keeps its quotient and
the tree keeps the closure it was read from, so later stages rebuild
neither.  The sweep counts how many vertex pairs close to each set, and a
node's prime label is confirmed from that count, so each tree closes each
pair once; on 3-uniform input the realization of a prime quotient reads
the same tables, and an input needs one closure table.  Nothing here scans
vertex subsets: the listers of all modules, whose output can have 2^n
members, are brute force and live in ``oracle``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .bitset import VertexSet, as_mask, bit_list, full_mask, iter_bits
from .core import Hypergraph, Tournament, is_linear_order
from .errors import InvariantError, PreconditionError
from .oracle import _check_subset, _is_module_over, _is_tournament_module

__all__ = [
    "LABEL_PRIME", "LABEL_EMPTY", "LABEL_COMPLETE", "LABEL_LINEAR",
    "is_module", "module_violation",
    "is_strong_module", "strong_modules", "is_prime",
    "ModularPartition", "maximal_proper_strong_modules", "quotient",
    "components", "smallest_strong_module_containing",
    "TreeNode", "DecompositionTree", "decomposition_tree",
    "tournament_is_module", "tournament_strong_modules",
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


def _closure(host: Hypergraph | Tournament) -> Closure:
    """The closure of a hypergraph or a tournament."""
    if isinstance(host, Tournament):
        return _tournament_closure(host)
    return _hypergraph_closure(host)


def _is_prime_within(close: Closure, w: int) -> bool:
    """H[w] is prime, read from the hypergraph closure ``close(s, w)``: at
    least 3 vertices, and every pair of them closes to w."""
    return w.bit_count() >= 3 and all(
        close((1 << x) | (1 << y), w) == w for x, y in combinations(bit_list(w), 2))


def _children(n: int, close: Closure) -> tuple[dict[int, list[int]], Counter[int]]:
    """Each nonempty strong module's children (its maximal proper strong
    modules, by smallest vertex), every child before its parent, and
    ``hits``: ``hits[c]`` is the number of vertex pairs whose closure is c.

    A pair closure is a strong module, or a union of two or more (not all)
    children of a node whose quotient is degenerate (empty, complete or
    linear); no strong module overlaps a module; and a node of two or more
    vertices is itself a pair closure unless it is degenerate with three or
    more children, which its smaller closures join.  So the distinct pair
    closures, smallest first, are swept once, keeping ``top[v]``, the
    largest node built so far that contains v; the tops partition the
    vertex set.  A closure inside the top of its smallest vertex adds
    nothing.  Otherwise each top it meets becomes a child of a new node,
    except a top that sticks out of it: that top is a union of children of
    a degenerate node, so it stops being a node and the new node takes its
    children.  When the sweep ends, each such union has grown to its whole
    node and the only top is the whole set.
    """
    out: dict[int, list[int]] = {1 << v: [] for v in range(n)}
    top = [1 << v for v in range(n)]
    hits = Counter(close((1 << x) | (1 << y)) for x, y in combinations(range(n), 2))
    for c in sorted(hits, key=int.bit_count):
        if c & ~top[_lowest(c)] == 0:
            continue
        node, blocks, rest = c, [], c
        while rest:
            t = top[_lowest(rest)]
            if t & ~c:
                node |= t
                blocks += out.pop(t)
            else:
                blocks.append(t)
            rest &= ~t
        out[node] = sorted(blocks, key=_lowest)
        for v in iter_bits(node):
            top[v] = node
    return out, hits


def _tree(host: Hypergraph | Tournament, close: Closure) -> DecompositionTree:
    """The inclusion tree of the strong modules, built bottom-up.  Each
    internal node's quotient is the structure induced on its transverse (the
    smallest vertex of each child), the host itself when that is every
    vertex; ``_hypergraph_label`` or ``_tournament_label`` names it, and the
    tree keeps ``close``.

    A node m with k >= 3 children c_1..c_k has a prime quotient iff each of
    the (|m|^2 - sum |c_i|^2) / 2 pairs that cross two children closes to
    m, which the sweep's ``hits[m]`` counts: a pair inside one child closes
    within that child, and a pair that leaves m closes to a set that is not
    m, so only crossing pairs close to m.  A crossing pair closes, within
    the module m, to a module that meets two strong children, so it holds
    them and overlaps none: a union of children, which is a module of the
    quotient.  So the count falls short exactly when the quotient has a
    nontrivial module, since two of its vertices close within it."""
    children, hits = _children(host.n, close)
    full = full_mask(host.n)
    tournament = isinstance(host, Tournament)
    built: dict[int, TreeNode] = {}
    for m, blocks in children.items():
        name = q = None
        if blocks:
            transverse = sum(b & -b for b in blocks)
            q = host if transverse == full else host.induced(transverse)
            crossing = (m.bit_count() ** 2 - sum(b.bit_count() ** 2 for b in blocks)) // 2
            prime = len(blocks) >= 3 and hits[m] == crossing
            name = _tournament_label(q, prime) if tournament else _hypergraph_label(host, q, prime)
        built[m] = TreeNode(m, name, tuple(built.pop(b) for b in blocks), q)
    return DecompositionTree(built[full], host.n, "tournament" if tournament else "hypergraph",
                             close)


def is_strong_module(h: Hypergraph, vertices: int | Iterable[int]) -> bool:
    """True iff the set is a module overlapping no other module of ``h``."""
    m = as_mask(vertices)
    _check_subset(h, m)
    return m in strong_modules(h)


def strong_modules(host: Hypergraph | Tournament) -> frozenset[VertexSet]:
    """All strong modules of a hypergraph or a tournament (the tree nodes,
    plus the empty set)."""
    return frozenset(VertexSet(m) for m in _children(host.n, _closure(host))[0].keys() | {0})


def is_prime(h: Hypergraph) -> bool:
    """True iff ``h`` has at least 3 vertices and only trivial modules."""
    return _is_prime_within(_hypergraph_closure(h), full_mask(h.n))


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
        """The engine's own children of the root, already sorted, and a
        partition of it as ``_children`` builds them; not re-tested as
        modules."""
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


def maximal_proper_strong_modules(host: Hypergraph | Tournament) -> ModularPartition:
    """The partition of a hypergraph or a tournament into maximal proper
    strong modules."""
    if host.n < 2:
        raise PreconditionError("need at least 2 vertices")
    return ModularPartition._of_children(host, _children(host.n, _closure(host))[0][full_mask(host.n)])


def quotient(host: Hypergraph | Tournament,
             partition: ModularPartition) -> Hypergraph | Tournament:
    """The quotient of a hypergraph or a tournament by a modular partition:
    the structure induced on the smallest vertex of each block.  Blocks are
    kept by smallest vertex, so block i becomes vertex i.

    For a hypergraph this is the rule "a set of two or more blocks is an
    edge iff some edge meets exactly those blocks": an edge that meets two
    or more blocks meets each of them in exactly one vertex, and swapping
    each of those vertices for its block's smallest keeps it an edge.  For
    a tournament any representatives give the same arcs between blocks.
    """
    if not isinstance(partition, ModularPartition) or partition.host is not host:
        partition = ModularPartition(host, list(partition))
    return host.induced(sum(b & -b for b in partition.blocks))


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
    and the quotient: the structure induced on the smallest vertex of each
    child, so vertex i is child i (leaves hold None)."""

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


def _hypergraph_label(h: Hypergraph, q: Hypergraph, prime: bool) -> str:
    """The label of a node of h with quotient q, given whether the sweep's
    closure count found q prime (see ``_tree``)."""
    if not q.edges:
        return LABEL_EMPTY
    if q.edges == {(1 << i) | (1 << j) for i, j in combinations(range(q.n), 2)}:
        # the quotient of a 3-uniform hypergraph is 3-uniform
        if h.is_3_uniform:
            raise InvariantError("complete label unreachable for 3-uniform input")
        return LABEL_COMPLETE
    if not prime:
        raise InvariantError("quotient by maximal proper strong modules must be prime")
    return LABEL_PRIME


def decomposition_tree(host: Hypergraph | Tournament) -> DecompositionTree:
    """The full labeled modular decomposition tree of a hypergraph or a
    tournament (a tournament's labels are linear or prime)."""
    if host.n < 1:
        raise PreconditionError("need at least 1 vertex")
    return _tree(host, _closure(host))


def smallest_strong_module_containing(h: Hypergraph,
                                      vertices: int | Iterable[int]) -> VertexSet:
    """The intersection of all strong modules containing the given set."""
    return decomposition_tree(h).lowest_node_containing(vertices).members


# --- tournament analogues ------------------------------------------------------

def tournament_is_module(t: Tournament, vertices: int | Iterable[int]) -> bool:
    """Interval-style module test: no outside vertex splits the set by arcs."""
    m = as_mask(vertices)
    _check_subset(t, m)
    return _is_tournament_module(t, m)


def tournament_is_prime(t: Tournament) -> bool:
    """True iff ``t`` has at least 3 vertices and every vertex pair closes
    to the whole set."""
    close, full = _tournament_closure(t), full_mask(t.n)
    return t.n >= 3 and all(close((1 << x) | (1 << y)) == full
                            for x, y in combinations(range(t.n), 2))


tournament_strong_modules = strong_modules
tournament_pi = maximal_proper_strong_modules
tournament_quotient = quotient
tournament_decomposition_tree = decomposition_tree


def _tournament_label(q: Tournament, prime: bool) -> str:
    if is_linear_order(q):
        return LABEL_LINEAR
    if not prime:
        raise InvariantError(
            "tournament quotient by maximal strong modules must be linear or prime")
    return LABEL_PRIME
