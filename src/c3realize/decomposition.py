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
two blocks all point one way.  Each internal node keeps its quotient, and
``_tree`` hands realization the closure and the chains the tree was read
from beside the tree, which holds only its nodes, so later stages rebuild
neither.  The sweep counts how many vertex pairs close to each set, and a
node's prime label is confirmed from that count.  One routine
(``_nodes_within``) closes every pair of a tree, on the whole set and on
each part of a split root alike: it closes the pairs of the module's
smallest vertex, in order, and stops at the first that falls short of the
module; when all of them close to it, a chain of prime sets from a triple
through that vertex (``_chain``, the one walk of the step rule, after
Schmerl & Trotter, Discrete Math. 1993) can prove it prime with no other
closure.  Otherwise the root alone is split into the connected components
of a hypergraph or the strong components of a tournament: two or more are
the children of an empty (linear) root, and each runs the same routine
within it, so only pairs within one part are closed, vertex 0's part
reusing the closures its pass made; any other module sweeps each
remaining pair once.  On 3-uniform input the realization of a prime
quotient reads the same tables, and a prime node over single vertices
grows along the chain its tree walked within it, so an input needs one
closure table and walks no chain twice.
Nothing here scans vertex subsets: the listers of all modules, whose
output can have 2^n members, are brute force and live in ``oracle``.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .bitset import VertexSet, as_mask, as_vertex, bit_list, full_mask, iter_bits
from .core import Frozen, Hypergraph, Tournament, _rebuild, is_linear_order
from .errors import InvariantError, PreconditionError
from .oracle import _is_module_over, _is_tournament_module

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

# close(s, w): the smallest module of the structure induced on w containing
# the nonempty vertex set s within w (w defaults to the whole vertex set)
Closure = Callable[..., int]


def _lowest(m: int) -> int:
    return (m & -m).bit_length() - 1


# --- module predicates ---------------------------------------------------------

def is_module(host: Hypergraph | Tournament, vertices: int | Iterable[int]) -> bool:
    """True iff the vertex set is a module of a hypergraph or a tournament
    (of a tournament: no outside vertex splits the set by arcs)."""
    m = as_mask(vertices, host.n)
    if isinstance(host, Tournament):
        return _is_tournament_module(host, m)
    return _is_module_over(host.edges, host.edges, m)


def module_violation(h: Hypergraph, vertices: int | Iterable[int]) -> VertexSet | None:
    """The first edge witnessing that the set is not a module of the
    hypergraph ``h``, else None.

    Edges are scanned in canonical order (sorted vertex lists); the returned
    edge either meets the set in two or more vertices while leaving it, or
    has a member swap that is not an edge.
    """
    if isinstance(h, Tournament):
        raise PreconditionError("module_violation needs a hypergraph")
    m = as_mask(vertices, h.n)
    for e in sorted(h.edges, key=bit_list):
        if not _is_module_over((e,), h.edges, m):
            return VertexSet(e)
    return None


# --- the closure engine ------------------------------------------------------

def _hypergraph_closure(h: Hypergraph) -> Closure:
    """The map ``close(s, w)`` from a nonempty set s within w to the smallest
    module of the induced subhypergraph H[w] containing s (w defaults to the
    whole vertex set).

    The span table ``spans[u][b]`` is the union of the edges through u and
    b (``spans[u][u]``, the diagonal, of those through u).  ``close.spans``
    exposes it, so that ``spans[x][v]`` minus x and v is the link of the
    pair x, v; only a vertex that lies in an edge has a row of its own
    (``_span_rows``).  On 3-uniform input it is the only table, built in
    one pass that decodes each edge {a, b, c} once and ORs it into the 9
    cells of rows a, b and c, and read within w by cutting a span to w: an
    edge through u and b lies in H[w] exactly when its third vertex lies
    in w.

    Each member u of the growing set m, with r the smallest vertex of s, is
    spanned once: it absorbs ``spans[u][b] & w`` for each member b spanned
    before it.  Each member u other than r is linked once, when every
    member is spanned: each y of w that lies in an edge with u or with r
    (in ``spans[u][u] | spans[r][r]``) and is still outside m absorbs y
    and ``d = (spans[u][y] ^ spans[r][y]) & w & ~m & ~(1 << y)`` when d is
    not empty.  Spanning is cheap and usually fills a prime structure before
    any linking.  This is exact:

    - Each absorption is forced.  Every module M of H[w] holding m holds u
      and r.  An edge of H[w] through two members meets M in two or more
      vertices, so it lies inside M.  A z in d makes exactly one of {u, y,
      z} and {r, y, z} an edge of H[w]; were y and z outside M, that edge
      would meet M in one vertex whose swap for the other member is not an
      edge, so M holds y or z, hence two vertices of the edge, hence y and
      z.
    - When every member is spanned and linked, m is a module of H[w].  An
      edge of H[w] through two members lies in the span of that pair, which
      m holds.  An edge {u, y, z} through one member u has y and z outside
      m; when u was linked, y was visited (it lies in an edge with u) and
      d, read while m was smaller, missed z, so {r, y, z} is an edge too,
      and so is {v, y, z} for every member v.
    - Visiting only the neighbours of u and r misses nothing: a y in no
      edge with either has ``spans[u][y] = spans[r][y] = 0``.
    - y's own bit is cut because a span cut to w keeps y whenever y lies in
      an edge with u, even when every such edge has its third vertex
      outside w: ``spans[u][y] & w`` is then {u, y}, and against an empty
      ``spans[r][y]`` the difference would absorb y for an edge H[w] lacks.
      r needs no linking: its spans differ from themselves nowhere.

    Mixed-size input keeps the link sets (``_link_closure``): pair spans
    cannot tell the 4-edge {u, y, z, v} from the two 3-edges {u, y, z}
    and {u, y, v}, so the difference of two spans does not say which links
    differ.
    """
    if not h.is_3_uniform:
        return _link_closure(h)
    spans = _span_rows(h)
    for e in h.edges:
        low = e & -e
        rest = e ^ low
        mid = rest & -rest
        a, b, c = low.bit_length() - 1, mid.bit_length() - 1, (rest ^ mid).bit_length() - 1
        row = spans[a]
        row[a] |= e
        row[b] |= e
        row[c] |= e
        row = spans[b]
        row[a] |= e
        row[b] |= e
        row[c] |= e
        row = spans[c]
        row[a] |= e
        row[b] |= e
        row[c] |= e
    full = full_mask(h.n)

    def close(s: int, w: int = full) -> int:
        r = (s & -s).bit_length() - 1
        r_row = spans[r]
        r_near = r_row[r]
        m, spanned, order, linked = s, 0, [], 1 << r
        while m != w and m != linked:
            if m != spanned:
                low = m & ~spanned
                low &= -low
                row = spans[low.bit_length() - 1]
                for b in order:
                    m |= row[b]
                m &= w
                spanned |= low
                order.append(low.bit_length() - 1)
            else:
                low = m & ~linked
                low &= -low
                u = low.bit_length() - 1
                row = spans[u]
                free = w & ~m
                rest = (row[u] | r_near) & free
                while rest:
                    yb = rest & -rest
                    rest ^= yb
                    y = yb.bit_length() - 1
                    d = (row[y] ^ r_row[y]) & free & ~yb
                    if d:
                        m |= yb | d
                        free &= ~m
                        rest &= free
                linked |= low
        return m

    close.spans = spans
    return close


def _link_closure(h: Hypergraph) -> Closure:
    """``_hypergraph_closure`` of a hypergraph with edges of mixed sizes.

    An edge that leaves the set and meets it in two or more vertices, or in
    one vertex u whose swap for another member is not an edge, lies inside
    every module containing the set, so it is absorbed.  Each member u is
    spanned once, as on 3-uniform input.  Each member u is linked once,
    when every member is spanned: it absorbs each link f (an edge minus u,
    or minus the first member r) that misses the set and is a link of only
    one of u and r.  The tables are built in one pass over the edges and
    read within w: a span is cut to w, and a link with a vertex outside w
    is skipped.  Cutting a span is exact only on 3-uniform input: an edge
    of four or more vertices through u and b can leave w while another of
    its vertices stays in it.  Trees close mixed-size input within V only
    (``_chain`` walks only 3-uniform input).  As with the span rows, only a
    vertex that lies in an edge gets a set of links of its own; every other
    vertex shares one empty set, which is only read.
    """
    n = h.n
    none: frozenset[int] = frozenset()
    links: list[frozenset[int] | set[int]] = [none] * n
    spans = _span_rows(h)
    for e in h.edges:
        members, rest = [], e
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        for u in members:
            if links[u] is none:
                links[u] = set()
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


def _span_rows(h: Hypergraph) -> list[list[int]]:
    """An empty span table: a row of n zeros for each vertex that lies in an
    edge, and one shared row of zeros, which is only read, for every other
    vertex, so an input with few edges costs O(n) cells, not n^2.  The
    union of the edges stops growing at the whole set, which a prime
    input reaches after a few edges."""
    n, full, zero = h.n, full_mask(h.n), [0] * h.n
    covered = 0
    for e in h.edges:
        covered |= e
        if covered == full:
            break
    return [[0] * n if covered >> v & 1 else zero for v in range(n)]


def _tournament_closure(t: Tournament) -> Closure:
    """The map ``close(s, w)`` from a nonempty set s within w to the smallest
    module of T[w] containing s (w defaults to the whole vertex set).

    An outside vertex that splits the set beats exactly one of some member u
    and the first member r, so it lies in succ(u) ^ succ(r); it lies inside
    every module containing the set and is absorbed.  Each absorption is cut
    to w, the one way the loop reads within w.
    """
    succ = t.succ
    full = full_mask(t.n)

    def close(s: int, w: int = full) -> int:
        r_succ = succ[_lowest(s)]
        m, done = s, 0
        while m != done:
            low = m & ~done & -(m & ~done)
            m |= (succ[low.bit_length() - 1] ^ r_succ) & w
            done |= low
        return m

    return close


def _closure(host: Hypergraph | Tournament) -> Closure:
    """The closure of a hypergraph or a tournament."""
    if isinstance(host, Tournament):
        return _tournament_closure(host)
    return _hypergraph_closure(host)


def _is_prime_within(close: Closure, w: int) -> bool:
    """The structure induced on w is prime, read from the closure
    ``close(s, w)``: at least 3 vertices, and every pair of them closes to
    w."""
    return w.bit_count() >= 3 and all(
        close((1 << x) | (1 << y), w) == w for x, y in combinations(bit_list(w), 2))


# --- growing a chain of prime sets -----------------------------------------------
#
# The step rule of a chain of prime sets: from a prime set x, the first one
# or two outside vertices that keep it prime.  ``_chain`` is the one walk of
# it: a tree walks the chain to prove its root prime and keeps it, and
# realization grows a tournament along the same steps.

def _twin(spans: list[list[int]], x: int, y: int) -> int | None:
    """How y outside the prime set x joins it: y's twin in x, -1 when y lies
    in no edge within x + y, or None when H[x + y] is prime.

    A module of H[x + y] meets x in a module of H[x]: the empty set, one
    vertex or x.  So H[x + y] is not prime iff x is a module (y lies in no
    edge within x + y) or some {a, y} with a in x is one (a is y's twin: a
    and y lie in no common edge and, for every other v in x, the links of
    a, v and of y, v agree within x - a).  A twin is unique, since two
    would make a 2-set of x a module of H[x]; when x is a module, no a is a
    twin, since a lies in an edge within x.
    """
    row_y = spans[y]
    in_edge = False
    for a in iter_bits(x):
        ab = 1 << a
        if row_y[a] & x & ~ab:
            in_edge = True
            continue
        row_a = spans[a]
        rest = x & ~ab
        for v in iter_bits(rest):
            if (row_y[v] ^ row_a[v]) & rest & ~(1 << v):
                break
        else:
            return a
    return None if in_edge else -1


def _tournament_twin(succ: tuple[int, ...], x: int, y: int) -> int | None:
    """``_twin`` for a tournament: y's twin in the prime set x, -1 when x is
    a module of T[x + y], or None when T[x + y] is prime.

    As for hypergraphs, T[x + y] is not prime iff x is a module (y beats all
    of x or none of it) or some {a, y} with a in x is one (y and a beat the
    same vertices of x - a), and a twin is unique."""
    out = succ[y] & x
    if out == 0 or out == x:
        return -1
    for a in iter_bits(x):
        if (succ[y] ^ succ[a]) & x & ~(1 << a) == 0:
            return a
    return None


def _pair_keeps_prime(close: Closure, x: int, twins: dict[int, int], p: int, q: int) -> bool:
    """H[x + p + q] is prime, given that H[x] is prime and that neither
    H[x + p] nor H[x + q] is (``twins`` maps each to its ``_twin``).

    A module of H[x + p + q] meets x in nothing, one vertex or x.  So a
    proper one with two or more vertices holds {p, q}, or two vertices of x
    (and then all of x), or is {a, p} or {a, q} for a in x, which is then a
    module of H[x + p] or H[x + q], so a is p's or q's twin: 2-4 closures
    within x + p + q settle it.  The same holds for a tournament, with
    ``_tournament_twin``.
    """
    z = x | (1 << p) | (1 << q)
    low = x & -x
    seeds = [(1 << p) | (1 << q), low | ((x ^ low) & -(x ^ low))]
    seeds += [(1 << v) | (1 << twins[v]) for v in (p, q) if twins[v] >= 0]
    return all(close(s, z) == z for s in seeds)


def _chain(host: Hypergraph | Tournament, close: Closure,
           w: int) -> Iterator[tuple[int, int, int | None]]:
    """A chain of prime sets within w, walked lazily, one ``(z, q, a)`` per
    set, ending at w or at a stall.  The base comes first, as
    ``(z, c, None)``: the first triple z = {a, b, c} through the smallest
    vertex a of w with b, then c, as small as can be (an edge of a
    3-uniform hypergraph, a 3-cycle a -> b -> c -> a of a tournament; none
    yields nothing).  So a walked chain reaches w iff its last set is w.

    A step adds to the prime x the smallest outside y that ``_twin``
    (``_tournament_twin``) keeps prime, else the first pair p < q that
    ``_pair_keeps_prime`` accepts, and yields the set z reached, the vertex
    q it adds last (y in a one-vertex step) and ``a``, p's twin (-1 when p
    joins none) or None in a one-vertex step.  Each set is prime, by the
    three tests.  Only a 3-uniform hypergraph is walked: ``_twin`` reads
    the span table cut to the set, exact only then.  A prime tournament never stalls: its every
    vertex lies on a 3-cycle, and a prime subtournament on 3 or more
    vertices extends to a prime one by one or two more vertices (Schmerl
    and Trotter, Discrete Math. 1993).  A prime 3-uniform hypergraph that
    is not realizable may stall.
    """
    if w.bit_count() < 3 or not (isinstance(host, Tournament) or host.is_3_uniform):
        return
    a = _lowest(w)
    rest = w & ~(1 << a)
    if isinstance(host, Tournament):
        succ = host.succ
        twin = partial(_tournament_twin, succ)
        b, c = next(((b, c & -c) for b in iter_bits(succ[a] & rest)
                     if (c := succ[b] & rest & ~succ[a])), (0, 0))
    else:
        twin, row = partial(_twin, close.spans), close.spans[a]
        b, c = next(((b, c & -c) for b in iter_bits(rest)
                     if (c := row[b] & rest & ~(1 << b))), (0, 0))
    if not c:
        return
    x = (1 << a) | (1 << b) | c
    yield x, _lowest(c), None
    while x != w:
        outside, twins = bit_list(w & ~x), {}
        for y in outside:
            twins[y] = twin(x, y)
            if twins[y] is None:
                step = x | (1 << y), y, None
                break
        else:
            step = next(((x | (1 << p) | (1 << q), q, twins[p])
                         for p, q in combinations(outside, 2)
                         if _pair_keeps_prime(close, x, twins, p, q)), None)
            if step is None:
                return
        yield step
        x = step[0]


def _reaches(chain: list, w: int) -> bool:
    """True when a walked chain ends at w, which proves H[w] prime."""
    return bool(chain) and chain[-1][0] == w


def _prime_chain(host: Hypergraph | Tournament, close: Closure, w: int) -> list | None:
    """The chain of prime sets within w (``_chain``), walked in full, when
    H[w] is prime, else None: a chain that reaches w proves it, and after a
    stall every pair of w is closed (``_is_prime_within``).  The primality
    check of ``is_prime`` and of realization's entry points; those that
    grow H[w] take the steps walked."""
    chain = list(_chain(host, close, w))
    return chain if _reaches(chain, w) or _is_prime_within(close, w) else None


def _children(host: Hypergraph | Tournament, close: Closure
              ) -> tuple[dict[int, list[int]], Counter[int], dict[int, list]]:
    """Each nonempty strong module's children (its maximal proper strong
    modules, by smallest vertex), every child before its parent, ``hits``
    (``hits[c]`` is the number of vertex pairs closed to c) and the chains
    of prime sets walked, each keyed by the set it was walked within: the
    single vertices, and above them ``_nodes_within`` the whole set."""
    n = host.n
    out: dict[int, list[int]] = {1 << v: [] for v in range(n)}
    chains: dict[int, list] = {}
    if n < 2:
        return out, Counter(), chains
    top = [1 << v for v in range(n)]
    return out, _nodes_within(host, close, full_mask(n), [], out, top, chains), chains


def _nodes_within(host: Hypergraph | Tournament, close: Closure, w: int, made: list[int],
                  out: dict[int, list[int]], top: list[int], chains: dict[int, list]
                  ) -> Counter[int]:
    """The engine within the module w of two or more vertices: adds the
    strong modules within w to ``out`` and returns how many pairs of w
    closed to each set.  ``made`` holds the closures already made of the
    pairs {r, y}, r the smallest vertex of w, for the first ``len(made)``
    other members y, and grows to all of them; the whole set V starts with
    none.  Closures are taken within V: a pair in a module closes inside
    it, to the same set as within it.  Every pair of a tree is closed here,
    and each at most once.

    The pass closes {r, y} in order of y and stops at the first closure
    that is not w: one such closure already shows that not every pair
    closes to w, which is all the pass asks.  When all k - 1 of them reach
    w, the chain within w (``_chain``) is walked and kept in ``chains``.
    When it reaches w, H[w] is prime, since each set of the chain is.  Then
    every pair closes to w, so w has its k single vertices as children and
    ``hits[w] = k(k - 1)/2`` is a fact, not a count, and no other pair is
    closed.  A prime w closes all k - 1 pairs, so the stop saves nothing
    there; a degenerate one usually stops at its first pair, and a linear
    order or an edgeless hypergraph closes {0, 1} alone.  The pass comes
    before the chain: a chain that starts from a 3-cycle block stalls only
    after all of its pair tests, which the pass skips whenever a closure
    falls short of w (CHANGES.md gives the timings that chose this order).

    Otherwise, at the root w = V only, before any other pair is closed, V
    is split (``_split``) into the connected components of a hypergraph or
    the strong components of a tournament.  Two or more parts are the
    children of an empty (linear) root, which is exact:

    - Each component C is a module: no edge leaves it.
    - Each component C is strong.  Let a module M overlap C and hold z
      outside it.  C is connected, so some edge within C meets both M and
      C - M.  That edge leaves M, so it meets M in one vertex u, and
      swapping u for z keeps it an edge, which joins z to C; but
      connectivity puts inside C every edge that meets C.
    - A union of two or more components, but not all of them, is a module
      but not strong: it overlaps the union of one of its components with
      one component outside it.

    So a strong module other than V lies within one component, and the
    components are the root's children.  The same three facts hold for
    the strong components of a tournament, which follow one another in a
    linear order (each beats every later one): each is a module; a module
    M overlapping one, S, at z outside S, has an arc from M ∩ S to some b
    in S - M and one from some b' in S - M back to it, so b loses to z and
    b' beats z, which puts z on a cycle through S; and a union of two or
    more, but not all, is a module only when consecutive, and then
    overlaps the union of its last one with the next (or of its first one
    with the one before).  The root's quotient, on the smallest vertex of
    each part, then has no edge (is transitive).  Each part of two or more
    vertices runs this routine within it: the part holding vertex 0 is
    handed the closures of the pass that lie within it and closes only
    its pairs the pass did not reach, so no pair is closed twice, and the
    pass's pairs that leave it go unused.

    Otherwise (a connected root, or any w below the root) the rest of r's
    pairs are closed, then every other pair of w once, and the distinct
    closures, smallest first, are swept, keeping ``top[v]``, the largest
    node built so far that contains v; the tops partition the vertex set.
    This is exact: a pair closure is a strong module, or a union of two or
    more (not all) children of a node whose quotient is degenerate (empty,
    complete or linear); no strong module overlaps a module; and a node of
    two or more vertices is itself a pair closure unless it is degenerate
    with three or more children, which its smaller closures join.  A
    closure inside the top of its smallest vertex adds nothing.  Otherwise
    each top it meets becomes a child of a new node, except a top that
    sticks out of it: that top is a union of children of a degenerate
    node, so it stops being a node and the new node takes its children.
    When the sweep ends, each such union has grown to its whole node and
    the only top within w is w.  Mixed-size input has no chain and is
    always swept.

    A wrong split raises ``InvariantError`` rather than build a wrong tree:
    ``_split`` checks that the parts partition V and, for a tournament,
    that each earlier part beats every later one; each part must come out
    of its sweep as one node, which then is a module, since each closure
    is; an edge that meets two modular parts puts an edge in the root's
    quotient, whose label needs a prime count the root never has; and
    ``_tree`` refuses a part whose own root is degenerate with the root's
    label (a part that merges two components).
    """
    members = bit_list(w)
    r, k = 1 << members[0], len(members)
    if made.count(w) == len(made):
        for y in members[len(made) + 1:]:
            made.append(close(r | (1 << y)))
            if made[-1] != w:
                break
        else:
            chain = chains[w] = list(_chain(host, close, w))
            if _reaches(chain, w):
                out[w] = [1 << v for v in members]
                return Counter({w: k * (k - 1) // 2})
    if w == full_mask(host.n) and len(parts := _split(host)) > 1:
        hits: Counter[int] = Counter()
        for p in parts:
            if p & (p - 1):
                own = [c for y, c in zip(members[1:], made) if p >> y & 1] if p & r else []
                hits.update(_nodes_within(host, close, p, own, out, top, chains))
        out[w] = parts
        return hits
    made += [close(r | (1 << y)) for y in members[len(made) + 1:]]
    hits = Counter(made)
    hits.update(close((1 << x) | (1 << y)) for x, y in combinations(members[1:], 2))
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
    if top[_lowest(w)] != w:
        raise InvariantError("a part of the root's split is not a module")
    return hits


def _split(host: Hypergraph | Tournament) -> list[int]:
    """The connected components of a hypergraph (``components``) or the
    strong components of a tournament (``_strong_components``), by smallest
    vertex: the children of a root that is not connected, checked to
    partition the vertex set, and for a tournament to follow one another,
    every vertex of an earlier part beating every vertex of a later one
    (O(n) mask operations)."""
    if isinstance(host, Tournament):
        parts = _strong_components(host.succ)
        later = 0
        for p in reversed(parts):
            if any(host.succ[v] & later != later for v in iter_bits(p)):
                raise InvariantError("a strong component does not beat every later one")
            later |= p
        parts.sort(key=_lowest)
    else:
        parts = [int(c) for c in components(host)]
    if fault := _partition_fault(parts, host.n):
        raise InvariantError(f"the root's parts do not partition the vertex set: {fault}")
    return parts


def _partition_fault(blocks: list[int], n: int) -> str | None:
    """Why the vertex sets ``blocks`` do not partition 0..n-1, or None when
    they do: the first empty block, or one meeting an earlier block, else a
    vertex in no block."""
    union = 0
    for b in blocks:
        if not b:
            return "partition blocks must be nonempty"
        if b & union:
            return "partition blocks must be disjoint"
        union |= b
    return None if union == full_mask(n) else "partition blocks must cover the vertex set"


def _strong_components(succ: tuple[int, ...]) -> list[int]:
    """The strong components of the tournament with successor masks
    ``succ``, each beating every later one.

    Such an order puts every vertex of an earlier component above every
    vertex of a later one by score, so the components are runs of the
    vertices sorted by falling score.  A run ends after the first k
    vertices exactly when they beat all n - k others, that is when their
    scores sum to k(k - 1)/2 + k(n - k) (Landau): O(n log n) steps.
    """
    n = len(succ)
    scores = [row.bit_count() for row in succ]
    parts, part, total = [], 0, 0
    for k, v in enumerate(sorted(range(n), key=scores.__getitem__, reverse=True), 1):
        part |= 1 << v
        total += scores[v]
        if total == k * (k - 1) // 2 + k * (n - k):
            parts.append(part)
            part = 0
    return parts


def _tree(host: Hypergraph | Tournament
          ) -> tuple[DecompositionTree, Closure, dict[int, list]]:
    """The inclusion tree of the strong modules, built bottom-up, with the
    host's closure it was read from and the chains ``_children`` walked,
    keyed by the set each was walked within, for realization to reuse.
    Each internal node's quotient is the structure induced on its
    transverse (the smallest vertex of each child), the host itself when
    that is every vertex; ``_hypergraph_label`` or ``_tournament_label``
    names it.

    A node m with k >= 3 children c_1..c_k has a prime quotient iff each of
    the (|m|^2 - sum |c_i|^2) / 2 pairs that cross two children closes to
    m, which the sweep's ``hits[m]`` counts: a pair inside one child closes
    within that child, and a pair that leaves m closes to a set that is not
    m, so only crossing pairs close to m.  A crossing pair closes, within
    the module m, to a module that meets two strong children, so it holds
    them and overlaps none: a union of children, which is a module of the
    quotient.  So the count falls short exactly when the quotient has a
    nontrivial module, since two of its vertices close within it.  No
    degenerate node has a child of its own label (two of the grandchildren
    would join a sibling into a module overlapping that child), so such a
    child raises ``InvariantError``."""
    if host.n < 1:
        raise PreconditionError("need at least 1 vertex")
    close = _closure(host)
    children, hits, chains = _children(host, close)
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
            if name != LABEL_PRIME and any(built[b].label == name for b in blocks):
                raise InvariantError(f"{name} node under another {name} node")
        built[m] = TreeNode(m, name, tuple(built.pop(b) for b in blocks), q)
    kind = "tournament" if tournament else "hypergraph"
    return DecompositionTree(built[full], host.n, kind), close, chains


def is_strong_module(host: Hypergraph | Tournament, vertices: int | Iterable[int]) -> bool:
    """True iff the set is a module overlapping no other module of a
    hypergraph or a tournament."""
    return as_mask(vertices, host.n) in strong_modules(host)


def strong_modules(host: Hypergraph | Tournament) -> frozenset[VertexSet]:
    """All strong modules of a hypergraph or a tournament (the tree nodes,
    plus the empty set)."""
    return frozenset(VertexSet(m) for m in _children(host, _closure(host))[0].keys() | {0})


def is_prime(host: Hypergraph | Tournament) -> bool:
    """True iff a hypergraph or a tournament has at least 3 vertices and
    only trivial modules (``_prime_chain``)."""
    return _prime_chain(host, _closure(host), full_mask(host.n)) is not None


# --- modular partitions and quotients ----------------------------------------

class ModularPartition(Frozen):
    """A partition of the host's vertices into modules, validated on construction
    (the engine's own partitions are built by ``core._rebuild`` unchecked).

    Blocks are kept in canonical order (by smallest contained vertex).  The
    host may be a hypergraph or a tournament.
    """

    __slots__ = ("host", "blocks")

    def __init__(self, host: Hypergraph | Tournament, blocks: Iterable[int | Iterable[int]]):
        masks = [as_mask(b, host.n) for b in blocks]
        masks.sort(key=_lowest)
        if fault := _partition_fault(masks, host.n):
            raise PreconditionError(fault)
        bad = [b for b in masks if not is_module(host, b)]
        if bad:
            raise PreconditionError(f"block {bit_list(bad[0])} is not a module")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "blocks", tuple(VertexSet(b) for b in masks))

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def block_of(self, v: int) -> int:
        """The index of the block holding vertex v, an int in 0..n-1 (read
        by ``bitset.as_vertex``)."""
        try:
            v = as_vertex(v, self.host.n)
        except PreconditionError:
            raise PreconditionError(f"vertex {v!r} not covered") from None
        return next(i for i, b in enumerate(self.blocks) if (b >> v) & 1)

    def __repr__(self) -> str:
        return f"ModularPartition({[bit_list(b) for b in self.blocks]})"


def maximal_proper_strong_modules(host: Hypergraph | Tournament) -> ModularPartition:
    """The partition of a hypergraph or a tournament into maximal proper
    strong modules."""
    if host.n < 2:
        raise PreconditionError("need at least 2 vertices")
    # the engine's children of the root partition it into modules, sorted
    blocks = _children(host, _closure(host))[0][full_mask(host.n)]
    return _rebuild(ModularPartition, (host, tuple(VertexSet(b) for b in blocks)))


def quotient(host: Hypergraph | Tournament,
             partition: ModularPartition) -> Hypergraph | Tournament:
    """The quotient of a hypergraph or a tournament by a modular partition:
    the structure induced on the smallest vertex of each block.  Blocks are
    kept by smallest vertex, so block i becomes vertex i, the rank of its
    smallest vertex in the transverse (``bitset.ranks``).

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
    joins them; vertices in no edge are singleton components.  One pass
    over the edges ORs each into the neighbourhood mask of its largest
    vertex, which then passes itself to each of its other neighbours, and
    a breadth-first search over those masks reads each component.
    """
    n = h.n
    near = [1 << v for v in range(n)]
    for e in h.edges:
        near[e.bit_length() - 1] |= e
    for v in range(n):
        vb = 1 << v
        rest = near[v] & (vb - 1)
        while rest:
            b = rest & -rest
            rest ^= b
            near[b.bit_length() - 1] |= vb
    seen = 0
    out = []
    for v in range(n):
        if (seen >> v) & 1:
            continue
        comp = frontier = 1 << v
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = near[b.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        seen |= comp
        out.append(VertexSet(comp))
    return out


# --- decomposition trees -------------------------------------------------------

class TreeNode(Frozen):
    """A strong module with its children and, when internal, a quotient label
    and the quotient: the structure induced on the smallest vertex of each
    child, so vertex i is child i, numbered by ``bitset.ranks`` (leaves hold
    None)."""

    __slots__ = ("members", "label", "children", "quotient")

    def __init__(self, members: int, label: str | None, children: tuple["TreeNode", ...],
                 quotient: Hypergraph | Tournament | None = None):
        object.__setattr__(self, "members", VertexSet(members))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "quotient", quotient)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"TreeNode({bit_list(self.members)})"
        return f"TreeNode({bit_list(self.members)}, {self.label}, {len(self.children)} children)"


class DecompositionTree(Frozen):
    """The inclusion tree of the nonempty strong modules.

    The root is the full vertex set, leaves are singletons, and the children
    of an internal node are the maximal proper strong modules of the induced
    substructure, ordered by smallest contained vertex.  The tree holds
    only its nodes: the closure and the chain it was read from go to
    realization through ``_tree``, not through the tree.
    """

    __slots__ = ("root", "n", "kind")

    def __init__(self, root: TreeNode, n: int, kind: str):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)

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
        s = as_mask(vertices, self.n)
        if s == 0:
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
    if len(q.edges) == q.n * (q.n - 1) // 2 and all(e.bit_count() == 2 for e in q.edges):
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
    return _tree(host)[0]


def smallest_strong_module_containing(host: Hypergraph | Tournament,
                                      vertices: int | Iterable[int]) -> VertexSet:
    """The intersection of all strong modules of a hypergraph or a
    tournament containing the given set."""
    return decomposition_tree(host).lowest_node_containing(vertices).members


# --- tournament analogues ------------------------------------------------------

tournament_is_module = is_module
tournament_is_prime = is_prime
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
