"""Deciding, constructing, counting, and enumerating tournament realizations.

A tournament realizes a 3-uniform hypergraph when its 3-cycle triples are
exactly the hypergraph's edges.  The pipeline: build the modular
decomposition tree, realize each prime quotient (growing it from an edge
by one or two vertices at a time, extending the realization), pick a linear
order for each empty quotient, and assemble arcs pairwise at the lowest
common tree node.  Every choice of quotient realizations gives a
distinct realization and all arise this way, which also yields the count
``2^(#prime nodes) * prod(children!)`` over empty-labelled nodes.

A prime node's quotient is the subhypergraph induced by its transverse
(the smallest vertex of each child), so it is realized on the closure the
tree was read from (``decomposition._hypergraph_closure``), within the
transverse and in the input's labels: each vertex set on the way is a mask
read through that closure's span table, not a hypergraph of its own, which
is exact because the input is 3-uniform.  So one closure table serves the
whole input.  The quotient the tree keeps at the node (``TreeNode.quotient``)
is what a stored realization is checked against.

A prime quotient is realized on one path, growing a chain of prime vertex
sets X upward from an edge.  A module of H[X + y] meets the prime X in
nothing, one vertex or X, so a twin test on y against X in O(|X|) mask
operations says whether H[X + y] stays prime, and the realization of H[X]
extends to it in at most one way.  Failing a single vertex, the first pair
p, q that keeps X prime is added (2-4 closures per pair), trying both
realizations of H[X + p] that extend the one of H[X].  A failed extension
makes the set reached a witness.  Of the two realizations of a prime
quotient, the one kept is the one in which its first vertex beats its second.

Enumeration sets up each node once per tree and checks each stored
realization there; an item then ORs the chosen parts into successor masks,
builds the tournament with the validating constructor and checks its
3-cycle structure against the input, each step in O(n^2 + |E|).
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial, prod
from typing import Iterator, Mapping

from .bitset import VertexSet, as_mask, bit_list, full_mask, iter_bits
from .core import Graph, Hypergraph, Tournament, c3_structure, critical_family
from .decomposition import (
    LABEL_EMPTY, LABEL_PRIME, Closure, DecompositionTree, _hypergraph_closure,
    _is_prime_within, decomposition_tree,
)
from .errors import InvariantError, PreconditionError

__all__ = [
    "STAGE_BASE", "STAGE_CRITICAL_MISMATCH", "STAGE_EXTENSION_M1", "STAGE_EXTENSION_M2",
    "STAGE_STALL",
    "VERDICT_OK", "VERDICT_ODD_CYCLE", "VERDICT_E0", "VERDICT_Y_OVERLAP",
    "VERDICT_Y_NOT_COVERING", "VERDICT_M2_ARC",
    "NonRealizabilityWitness", "ExtensionCertificate", "RealizationChoice",
    "hypergraph_isomorphism",
    "realize", "realize_prime", "realize_critical",
    "extension_certificate", "extend_realization",
    "count_realizations", "enumerate_realizations",
    "default_choice", "choice_to_tournament",
]

STAGE_BASE = "base"
STAGE_CRITICAL_MISMATCH = "critical-mismatch"
STAGE_EXTENSION_M1 = "extension-M1"
STAGE_EXTENSION_M2 = "extension-M2"
STAGE_STALL = "stall"

VERDICT_OK = "ok"
VERDICT_ODD_CYCLE = "odd-cycle"
VERDICT_E0 = "E0-violation"
VERDICT_Y_OVERLAP = "Y-overlap"
VERDICT_Y_NOT_COVERING = "Y-not-covering"
VERDICT_M2_ARC = "M2-arc-violation"


class NonRealizabilityWitness:
    """A vertex set whose induced subhypergraph is prime and not realizable."""

    __slots__ = ("vertices", "stage")

    def __init__(self, vertices, stage: str):
        object.__setattr__(self, "vertices", tuple(sorted(vertices)))
        object.__setattr__(self, "stage", stage)

    def __setattr__(self, name, value):
        raise AttributeError("NonRealizabilityWitness is immutable")

    def to_json(self) -> dict:
        return {"non_realizable": {"witness": list(self.vertices), "stage": self.stage}}

    def __repr__(self) -> str:
        return f"NonRealizabilityWitness({list(self.vertices)}, stage={self.stage!r})"


class ExtensionCertificate:
    """The single-vertex extension data: link graph, bipartition, closures.

    ``g_x`` lives on the deleted-vertex coordinates (vertex j of ``g_x`` is
    hypergraph vertex j when j < x, else j+1), as do the masks.  When the
    verdict is "ok", ``x_minus``/``x_plus`` bipartition the non-isolated
    link-graph vertices and ``y_minus``/``y_plus`` partition the isolated
    ones.
    """

    __slots__ = ("x", "g_x", "i_x", "x_minus", "x_plus", "y_minus", "y_plus", "verdict")

    def __init__(self, x: int, g_x: Graph, i_x: int, x_minus: int, x_plus: int,
                 y_minus: int, y_plus: int, verdict: str):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "g_x", g_x)
        object.__setattr__(self, "i_x", VertexSet(i_x))
        object.__setattr__(self, "x_minus", VertexSet(x_minus))
        object.__setattr__(self, "x_plus", VertexSet(x_plus))
        object.__setattr__(self, "y_minus", VertexSet(y_minus))
        object.__setattr__(self, "y_plus", VertexSet(y_plus))
        object.__setattr__(self, "verdict", verdict)

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionCertificate is immutable")

    @property
    def ok(self) -> bool:
        return self.verdict == VERDICT_OK

    def __repr__(self) -> str:
        return f"ExtensionCertificate(x={self.x}, verdict={self.verdict!r})"


class RealizationChoice:
    """One point of the realization space of a decomposition tree.

    ``perms`` maps each empty-labelled internal node (by member mask) to a
    permutation of its child indices, read as a linear order.  ``prime_flags``
    maps each prime-labelled node to False (use the stored quotient
    realization in ``prime_base``) or True (use its dual).
    """

    __slots__ = ("perms", "prime_flags", "prime_base")

    def __init__(self, perms: Mapping[int, tuple[int, ...]],
                 prime_flags: Mapping[int, bool],
                 prime_base: Mapping[int, Tournament]):
        object.__setattr__(self, "perms", dict(perms))
        object.__setattr__(self, "prime_flags", dict(prime_flags))
        object.__setattr__(self, "prime_base", dict(prime_base))

    def __setattr__(self, name, value):
        raise AttributeError("RealizationChoice is immutable")


# --- isomorphism -----------------------------------------------------------

def hypergraph_isomorphism(h1: Hypergraph, h2: Hypergraph) -> list[int] | None:
    """A vertex bijection carrying the edges of h1 exactly onto those of h2.

    Backtracking over vertices in descending degree order, pruned by degree
    and pairwise co-degree invariants.  Returns ``phi`` with vertex v of h1
    mapped to ``phi[v]``, or None.
    """
    if not (h1.is_3_uniform and h2.is_3_uniform):
        raise PreconditionError("isomorphism search expects 3-uniform hypergraphs")
    n = h1.n
    if h2.n != n or len(h1.edges) != len(h2.edges):
        return None

    def codegrees(h: Hypergraph) -> list[list[int]]:
        cd = [[0] * h.n for _ in range(h.n)]
        for e in h.edges:
            vs = bit_list(e)
            for a, b in combinations(vs, 2):
                cd[a][b] += 1
                cd[b][a] += 1
        return cd

    cd1, cd2 = codegrees(h1), codegrees(h2)
    # each edge through v adds 1 to two entries of row v
    deg1, deg2 = [sum(row) // 2 for row in cd1], [sum(row) // 2 for row in cd2]
    prof1 = [(deg1[v], sorted(cd1[v])) for v in range(n)]
    prof2 = [(deg2[v], sorted(cd2[v])) for v in range(n)]
    if sorted(prof1) != sorted(prof2):
        return None

    order = sorted(range(n), key=lambda v: (-deg1[v], v))
    rank = {v: i for i, v in enumerate(order)}
    # edges of h1 indexed by the latest vertex to be assigned
    edges_by_last: list[list[int]] = [[] for _ in range(n)]
    for e in h1.edges:
        last = max(iter_bits(e), key=lambda v: rank[v])
        edges_by_last[rank[last]].append(e)

    cands = [[w for w in range(n) if prof2[w] == prof1[v]] for v in range(n)]
    phi = [-1] * n
    used = [False] * n

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in cands[v]:
            if used[w]:
                continue
            if any(cd1[v][u] != cd2[w][phi[u]] for u in order[:i]):
                continue
            phi[v] = w
            ok = True
            for e in edges_by_last[i]:
                img = 0
                for u in iter_bits(e):
                    img |= 1 << phi[u]
                if img not in h2.edges:
                    ok = False
                    break
            if ok:
                used[w] = True
                if backtrack(i + 1):
                    return True
                used[w] = False
            phi[v] = -1
        return False

    found = backtrack(0)
    del backtrack  # the recursive closure holds itself through its cell
    return phi if found else None


# --- single-vertex extension --------------------------------------------------
#
# One copy of the extension conditions, on masks in the labels of h over the
# span table of h's closure: ``realize_prime`` runs it on each vertex set of
# its chain, the two public functions once with w the whole vertex set.

Extension = tuple[str, list[int], int, int, int, int, int]


def _squeeze(mask: int, x: int) -> int:
    """Drop bit x and shift the higher bits down by one."""
    return (mask & ((1 << x) - 1)) | ((mask >> (x + 1)) << x)


def _unsqueeze(mask: int, x: int) -> int:
    """Insert a zero bit at position x."""
    return (mask & ((1 << x) - 1)) | ((mask >> x) << (x + 1))


def _extension(spans: list[list[int]], succ: list[int], w: int, x: int) -> Extension:
    """The conditions of ``extension_certificate`` for adding x to the
    tournament on w - x held in ``succ``, with the link graph within w.
    Returns the verdict, the link graph rows (indexed by vertex), I_x, X-,
    X+, Y- and Y+."""
    rest = w & ~(1 << x)
    row = spans[x]
    adj = [0] * len(succ)
    i_x = 0
    for v in iter_bits(rest):
        adj[v] = row[v] & rest & ~(1 << v)
        if not adj[v]:
            i_x |= 1 << v

    def result(verdict: str, x_minus: int = 0, x_plus: int = 0,
               y_minus: int = 0, y_plus: int = 0) -> Extension:
        return verdict, adj, i_x, x_minus, x_plus, y_minus, y_plus

    # two-colour each non-singleton component, then orient via one edge
    x_minus = x_plus = 0
    colored = 0
    side = [0] * len(succ)
    for r in iter_bits(rest & ~i_x):
        if (colored >> r) & 1:
            continue
        comp_sides = [1 << r, 0]
        side[r] = 0
        frontier = [r]
        colored |= 1 << r
        while frontier:
            u = frontier.pop()
            for v in iter_bits(adj[u]):
                if (colored >> v) & 1:
                    if side[v] == side[u]:
                        return result(VERDICT_ODD_CYCLE)
                    continue
                side[v] = 1 - side[u]
                comp_sides[side[v]] |= 1 << v
                colored |= 1 << v
                frontier.append(v)
        nb = (adj[r] & -adj[r]).bit_length() - 1
        minus = side[r] if (succ[r] >> nb) & 1 else side[nb]
        x_minus |= comp_sides[minus]
        x_plus |= comp_sides[1 - minus]

    # adjacency between the sides must match arcs pointing minus -> plus
    for v in iter_bits(x_minus):
        if adj[v] & x_plus != succ[v] & x_plus:
            return result(VERDICT_E0, x_minus, x_plus)

    # forward closure of the minus side / backward closure of the plus side
    y_minus = 0
    frontier = x_minus
    while frontier:
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= succ[u]
        nxt &= i_x & ~y_minus
        y_minus |= nxt
        frontier = nxt
    y_plus = 0
    frontier = x_plus
    while frontier:
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= rest & ~succ[u] & ~(1 << u)
        nxt &= i_x & ~y_plus
        y_plus |= nxt
        frontier = nxt

    sides = (x_minus, x_plus, y_minus, y_plus)
    if y_minus & y_plus:
        return result(VERDICT_Y_OVERLAP, *sides)
    if y_minus | y_plus != i_x:
        return result(VERDICT_Y_NOT_COVERING, *sides)
    below = x_minus | y_minus
    for u in iter_bits(y_plus):
        if succ[u] & below != below:
            return result(VERDICT_M2_ARC, *sides)
    for u in iter_bits(x_plus):
        if succ[u] & y_minus != y_minus:
            return result(VERDICT_M2_ARC, *sides)
    return result(VERDICT_OK, *sides)


def _extend(spans: list[list[int]], succ: list[int], w: int, x: int,
            ext: Extension) -> None:
    """Write an accepted extension into ``succ``, where x beats the minus
    sides and loses to the plus sides, and check that the result realizes
    H[w]."""
    _, _, _, x_minus, x_plus, y_minus, y_plus = ext
    succ[x] = x_minus | y_minus
    for z in iter_bits(x_plus | y_plus):
        succ[z] |= 1 << x
    if not _realizes_within(spans, succ, w):
        raise InvariantError("extension produced a tournament that does not realize the input")


def _realizes_within(spans: list[list[int]], succ: list[int], w: int) -> bool:
    """True iff ``succ`` holds a tournament on w whose 3-cycles are exactly
    the edges within w.

    For an arc u -> v, the triple {u, v, z} is a 3-cycle iff v -> z -> u,
    so the condition is that ``succ[v] & pred_w(u)`` is the link of u and v
    within w for every arc; it takes O(|w|^2) mask operations and, with the
    count of arcs, is the same test as ``c3_structure(t) == H[w]``.
    """
    arcs = 0
    for u in iter_bits(w):
        out = succ[u]
        ub = 1 << u
        if out & ~w or out & ub:
            return False
        pred = w & ~out & ~ub
        row = spans[u]
        for v in iter_bits(out):
            if succ[v] & ub or succ[v] & pred != row[v] & w & ~(ub | 1 << v):
                return False
        arcs += out.bit_count()
    k = w.bit_count()
    return arcs == k * (k - 1) // 2


def _extension_at(h: Hypergraph, x: int, t_x: Tournament,
                  verified: bool) -> tuple[list[list[int]], list[int], Extension]:
    """Check the preconditions, lift ``t_x`` into the labels of h (vertex j
    of ``t_x`` is vertex j of h when j < x, else j+1) and evaluate the
    extension with w the whole vertex set."""
    if not (0 <= x < h.n):
        raise PreconditionError(f"vertex {x} out of range")
    if t_x.n != h.n - 1:
        raise PreconditionError("tournament must have one vertex fewer than the hypergraph")
    full = full_mask(h.n)
    rest = full & ~(1 << x)
    if not verified and not h.is_3_uniform:
        raise PreconditionError("input must be 3-uniform")
    close = _hypergraph_closure(h)
    if not verified:
        if c3_structure(t_x) != h.induced(rest):
            raise PreconditionError("tournament does not realize the deleted hypergraph")
        if not _is_prime_within(close, full) or not _is_prime_within(close, rest):
            raise PreconditionError("extension requires both hypergraphs prime")
    succ = [0] * h.n
    for j, s in enumerate(t_x.succ):
        succ[j if j < x else j + 1] = _unsqueeze(s, x)
    return close.spans, succ, _extension(close.spans, succ, full, x)


def _certificate(x: int, ext: Extension) -> ExtensionCertificate:
    """The certificate of an evaluated extension, in the coordinates of H-x."""
    verdict, adj, *masks = ext
    g_x = Graph._from_adj(len(adj) - 1,
                          tuple(_squeeze(a, x) for v, a in enumerate(adj) if v != x))
    return ExtensionCertificate(x, g_x, *(_squeeze(m, x) for m in masks), verdict)


def extension_certificate(h: Hypergraph, x: int, t_x: Tournament,
                          _verified: bool = False) -> ExtensionCertificate:
    """Evaluate the extension conditions for adding ``x`` on top of ``t_x``.

    Builds the link graph at x (v,w adjacent iff {x,v,w} is an edge),
    2-colours each non-singleton component, orients each colouring by one
    component edge against ``t_x`` and then verifies that, across every
    minus/plus pair, link-graph adjacency coincides with the arc pointing
    minus to plus.  Isolated link vertices must split into the forward
    closure of the minus side and the backward closure of the plus side,
    with all remaining arcs agreeing.
    """
    return _certificate(x, _extension_at(h, x, t_x, _verified)[2])


def extend_realization(h: Hypergraph, x: int, t_x: Tournament,
                       _verified: bool = False) -> Tournament | ExtensionCertificate:
    """Extend a realization of H-x to one of H, or explain why none exists.

    On success the result is the unique realization whose restriction away
    from ``x`` equals ``t_x``: x beats the minus sides and loses to the plus
    sides.  On failure the certificate carries the violated condition.
    """
    spans, succ, ext = _extension_at(h, x, t_x, _verified)
    if ext[0] != VERDICT_OK:
        return _certificate(x, ext)
    _extend(spans, succ, full_mask(h.n), x, ext)
    return Tournament._from_succ(h.n, tuple(succ))


# --- prime and critical realization ---------------------------------------------

def realize_critical(h: Hypergraph,
                     _assume_critical: bool = False) -> Tournament | NonRealizabilityWitness:
    """Realize a critical prime hypergraph by matching the three odd families.

    Realizable critical hypergraphs are exactly the 3-cycle structures of
    the T/U/W families, so an even order is rejected outright and an odd
    order is settled by isomorphism search against the three generators.
    """
    if not h.is_3_uniform:
        raise PreconditionError("input must be 3-uniform")
    if h.n < 5:
        raise PreconditionError("critical realization needs at least 5 vertices")
    if not _assume_critical:
        close = _hypergraph_closure(h)
        full = full_mask(h.n)
        if not _is_prime_within(close, full):
            raise PreconditionError("input must be prime")
        for x in range(h.n):
            if _is_prime_within(close, full & ~(1 << x)):
                raise PreconditionError(f"input is not critical: deleting {x} keeps it prime")
    if h.n % 2 == 0:
        return NonRealizabilityWitness(range(h.n), STAGE_BASE)
    for kind in ("T", "U", "W"):
        gen = critical_family(kind, h.n)
        phi = hypergraph_isomorphism(c3_structure(gen), h)
        if phi is not None:
            return _checked(gen.relabel(phi), h, "critical-family match")
    return NonRealizabilityWitness(range(h.n), STAGE_CRITICAL_MISMATCH)


def realize_prime(h: Hypergraph,
                  _assume_prime: bool = False) -> Tournament | NonRealizabilityWitness:
    """Realize a prime 3-uniform hypergraph or produce a witness.

    Grows a chain of prime vertex sets X upward from the first edge through
    vertex 0 (see ``_grow``).  A one-vertex step adds the smallest y for
    which H[X + y] stays prime, found by a twin test in O(|X|) mask
    operations, and extends the tournament by y.  When there is none, a
    two-vertex step adds the first pair p, q for which H[X + p + q] is prime
    and extends each of the two realizations of H[X + p] that agree with the
    tournament on X by q.  A failed step certifies that the set it reached
    is not realizable, and that set is the witness (stage ``extension-M1``
    or ``extension-M2``); when no pair keeps X prime, h is not realizable
    and all of it is the witness (stage ``stall``).  A witness that holds a
    4-set with three or more edges is replaced by the first such 4-set.

    A prime realizable hypergraph has exactly two realizations, a
    tournament and its dual; the one returned is the one in which vertex 0
    beats vertex 1.  This builds one closure of h and runs
    ``_realize_within`` on it.
    """
    if not h.is_3_uniform:
        raise PreconditionError("input must be 3-uniform")
    if h.n <= 3:
        # the only prime 3-uniform hypergraph on 3 vertices is the single triple
        if not h.edges:
            raise PreconditionError("input must be prime")
        return Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    close = _hypergraph_closure(h)
    full = full_mask(h.n)
    if not _assume_prime and not _is_prime_within(close, full):
        raise PreconditionError("input must be prime")
    res = _realize_within(h, close, full)
    if isinstance(res, NonRealizabilityWitness):
        return res
    return Tournament._from_succ(h.n, tuple(res))


def _realize_within(h: Hypergraph, close: Closure, w: int) -> list[int] | NonRealizabilityWitness:
    """``realize_prime`` on H[w], which must be prime, run on the labels of
    h and a closure ``close`` of h: the successor masks of a realization of
    H[w] (0 outside w), or a witness in the labels of h.

    Growth (``_grow``) settles H[w]; the realization is then oriented so
    that the smallest vertex of w beats the second smallest.  A witness
    that holds a 4-set with three or more edges gives way to the first such
    4-set (``_dense_four``), reported as growth reports it on that 4-set.
    """
    res = _grow(h, close, w)
    if isinstance(res, NonRealizabilityWitness):
        if len(res.vertices) > 4:
            four = _dense_four(close.spans, as_mask(res.vertices))
            if four is not None:
                return _grow(h, close, four)
        return res
    first = w & -w
    second = (w ^ first) & -(w ^ first)
    if not res[first.bit_length() - 1] & second:
        for u in iter_bits(w):
            res[u] = w & ~res[u] & ~(1 << u)
    return res


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


def _dense_four(spans: list[list[int]], w: int) -> int | None:
    """The first 4-set within w that holds three or more edges, or None.

    Such a set is prime and not realizable, since a 4-vertex tournament has
    at most two 3-cycles.  Two of its edges share a pair {u, v} and the third
    holds u or v, so it is found from the links of the pairs within w.
    """
    for u, v in combinations(bit_list(w), 2):
        pair = (1 << u) | (1 << v)
        link = spans[u][v] & w & ~pair
        if link & (link - 1):
            for p in iter_bits(link):
                q = (spans[u][p] | spans[v][p]) & link & ~(1 << p)
                if q:
                    return pair | (1 << p) | (q & -q)
    return None


def _pair_keeps_prime(close: Closure, x: int, twins: dict[int, int], p: int, q: int) -> bool:
    """H[x + p + q] is prime, given that H[x] is prime and that neither
    H[x + p] nor H[x + q] is (``twins`` maps each to its ``_twin``).

    A module of H[x + p + q] meets x in nothing, one vertex or x.  So a
    proper one with two or more vertices holds {p, q}, or two vertices of x
    (and then all of x), or is {a, p} or {a, q} for a in x, which is then a
    module of H[x + p] or H[x + q], so a is p's or q's twin: 2-4 closures
    within x + p + q settle it.
    """
    z = x | (1 << p) | (1 << q)
    low = x & -x
    seeds = [(1 << p) | (1 << q), low | ((x ^ low) & -(x ^ low))]
    seeds += [(1 << v) | (1 << twins[v]) for v in (p, q) if twins[v] >= 0]
    return all(close(s, z) == z for s in seeds)


def _grow(h: Hypergraph, close: Closure, w: int) -> list[int] | NonRealizabilityWitness:
    """Upward growth on H[w]: the successor masks of a realization, or a
    witness.

    The base is the first edge {a, b, c} through the smallest vertex a of
    w, realized as the 3-cycle a -> b -> c -> a.  Each step keeps x prime
    and a realization of H[x] in ``succ``.  A one-vertex step adds the
    smallest y for which H[x + y] is prime (``_twin``) and extends the
    realization by y; a failed extension proves H[x + y] not realizable.
    Failing that, a two-vertex step takes the first pair p < q for which
    H[x + p + q] is prime (``_pair_keeps_prime``) and extends by q each of
    the two realizations of H[x + p] that agree with ``succ`` on x: p
    copies its twin a and sits just below or just above it, or, when p
    lies in no edge within x + p, below or above all of x.  These are all,
    since H[x + p] has the strong modules {a, p} (or x) and singletons.
    A realization of the prime H[x + p + q], dualized if need be to agree
    with ``succ`` on x, extends one of them, and ``_extension`` finds it:
    the link-graph sides and their closures are forced, and the isolated
    link vertices that neither closure reaches would form, with q, a module
    of that extension and so of H[x + p + q], so there are none and the
    verdict is ok.  So when both fail, x + p + q is the witness, with the
    stage of the second failure.  No prime 4-set is realizable, so a
    realizable H[w] first grows by a two-vertex step.

    Growth stops short of w (a ``stall``, witnessed by all of w) only when
    H[w] is not realizable: a realization of the prime H[w] is a prime
    tournament, whose prime subtournament on x extends to a prime one on x
    plus one or two outside vertices (Ehrenfeucht and Rozenberg, Theoret.
    Comput. Sci. 1990; Schmerl and Trotter, Discrete Math. 1993), and the
    3-cycles of a prime tournament form a prime hypergraph (checked on
    1,322 random prime tournaments with n <= 10).
    """
    spans = close.spans
    a = (w & -w).bit_length() - 1
    row = spans[a]
    pairs = w & ~(1 << a)
    b = next(v for v in iter_bits(pairs) if row[v] & pairs & ~(1 << v))
    third = row[b] & pairs & ~(1 << b)
    c = (third & -third).bit_length() - 1
    succ = [0] * h.n
    succ[a], succ[b], succ[c] = 1 << b, 1 << c, 1 << a
    x = (1 << a) | (1 << b) | (1 << c)
    while x != w:
        outside = bit_list(w & ~x)
        twins = {}
        for y in outside:
            twins[y] = _twin(spans, x, y)
            if twins[y] is None:
                z, q, trials = x | (1 << y), y, [succ]
                break
        else:
            pair = next(((p, q) for p, q in combinations(outside, 2)
                         if _pair_keeps_prime(close, x, twins, p, q)), None)
            if pair is None:
                return NonRealizabilityWitness(iter_bits(w), STAGE_STALL)
            p, q = pair
            z = x | (1 << p) | (1 << q)
            twin = twins[p]
            beaten, mid = (0, x) if twin < 0 else (succ[twin], 1 << twin)
            trials = []
            for out in (beaten, beaten | mid):
                trial = succ[:]
                trial[p] = out
                for v in iter_bits(x & ~out):
                    trial[v] |= 1 << p
                trials.append(trial)
        for trial in trials:
            ext = _extension(spans, trial, z, q)
            if ext[0] == VERDICT_OK:
                break
        else:
            return _extension_witness(z, ext[0])
        _extend(spans, trial, z, q, ext)
        succ, x = trial, z
    return succ


def _extension_witness(w: int, verdict: str) -> NonRealizabilityWitness:
    """The witness of a failed extension onto the prime set w."""
    m1 = verdict in (VERDICT_ODD_CYCLE, VERDICT_E0)
    return NonRealizabilityWitness(iter_bits(w), STAGE_EXTENSION_M1 if m1 else STAGE_EXTENSION_M2)


# --- whole-hypergraph pipeline ---------------------------------------------------

def _prepare(h: Hypergraph):
    """Decomposition tree plus a realization of each prime quotient.

    A prime node's quotient is H[transverse], with the smallest vertex of
    each child standing for it, so it is realized on the tree's closure
    within the transverse, in the labels of h; the result is squeezed to
    child order.  Returns a witness if any prime quotient is not
    realizable.
    """
    if not h.is_3_uniform:
        raise PreconditionError("input must be 3-uniform")
    tree = decomposition_tree(h)
    prime_base: dict[int, Tournament] = {}
    for node in tree.internal_nodes():
        if node.label != LABEL_PRIME:
            continue
        firsts = [c.members & -c.members for c in node.children]
        res = _realize_within(h, tree._close, sum(firsts))
        if isinstance(res, NonRealizabilityWitness):
            return res
        rows = (res[f.bit_length() - 1] for f in firsts)
        prime_base[int(node.members)] = Tournament._from_succ(len(firsts), tuple(
            sum(1 << j for j, f in enumerate(firsts) if row & f) for row in rows))
    return tree, prime_base


def default_choice(tree: DecompositionTree, prime_base: Mapping[int, Tournament]) -> RealizationChoice:
    """Identity permutations and as-computed orientations."""
    perms = {}
    flags = {}
    for node in tree.internal_nodes():
        key = int(node.members)
        if node.label == LABEL_EMPTY:
            perms[key] = tuple(range(len(node.children)))
        elif node.label == LABEL_PRIME:
            flags[key] = False
    return RealizationChoice(perms, flags, prime_base)


# A node's share of the arcs, as parts (members, out): every member beats
# every vertex of the out-mask.
Parts = list[tuple[int, int]]


def _order_parts(ordered: list[int]) -> Parts:
    """A linear order of blocks: each block beats every later one."""
    parts, later = [], 0
    for b in reversed(ordered):
        parts.append((b, later))
        later |= b
    return parts


def _prime_parts(blocks: list[int], r: Tournament) -> Parts:
    """Block a beats the blocks that quotient vertex a beats in ``r``."""
    return [(b, sum(blocks[j] for j in iter_bits(r.succ[a]))) for a, b in enumerate(blocks)]


def _assemble(n: int, chosen: list[Parts]) -> Tournament:
    """The tournament whose arcs are the chosen parts, built by the
    validating constructor."""
    succ = [0] * n
    for parts in chosen:
        for members, out in parts:
            while members:
                low = members & -members
                succ[low.bit_length() - 1] |= out
                members ^= low
    return Tournament(n, succ)


def choice_to_tournament(h: Hypergraph, tree: DecompositionTree,
                         choice: RealizationChoice) -> Tournament:
    """Assemble the tournament selected by a realization choice.

    Each vertex pair is oriented at the lowest tree node containing both,
    by the chosen linear order (empty label) or quotient realization (prime
    label) between their child blocks: each node contributes its parts, and
    ``_assemble`` ORs them into the successor masks and builds the
    tournament with the validating constructor.  A stored quotient
    realization is checked against the quotient the tree keeps at its node,
    so ``tree`` must be ``decomposition_tree(h)``.
    """
    if tree.n != h.n or int(tree.root.members) != full_mask(h.n):
        raise PreconditionError("tree does not match the hypergraph")
    chosen = []
    for node in tree.internal_nodes():
        key = int(node.members)
        blocks = [int(c.members) for c in node.children]
        k = len(blocks)
        if node.label == LABEL_EMPTY:
            perm = choice.perms.get(key)
            if perm is None or sorted(perm) != list(range(k)):
                raise PreconditionError(
                    f"choice needs a permutation of {k} children at node {bit_list(key)}")
            chosen.append(_order_parts([blocks[i] for i in perm]))
        elif node.label == LABEL_PRIME:
            base = choice.prime_base.get(key)
            flag = choice.prime_flags.get(key)
            if base is None or flag is None or base.n != k:
                raise PreconditionError(
                    f"choice needs a quotient realization at node {bit_list(key)}")
            if c3_structure(base) != node.quotient:
                raise PreconditionError(
                    f"stored tournament does not realize the quotient at node {bit_list(key)}")
            chosen.append(_prime_parts(blocks, base.dual() if flag else base))
        else:
            raise PreconditionError("complete-labelled nodes admit no realization")
    return _assemble(h.n, chosen)


def _checked(t: Tournament, h: Hypergraph, what: str) -> Tournament:
    """``t``, once its 3-cycle structure is seen to be ``h``."""
    if c3_structure(t) != h:
        raise InvariantError(f"{what} produced a tournament that does not realize the input")
    return t


def realize(h: Hypergraph) -> Tournament | NonRealizabilityWitness:
    """A realization of ``h`` (deterministic default), or a prime witness."""
    prep = _prepare(h)
    if isinstance(prep, NonRealizabilityWitness):
        return prep
    tree, prime_base = prep
    return _checked(choice_to_tournament(h, tree, default_choice(tree, prime_base)), h, "assembly")


def count_realizations(h: Hypergraph) -> int:
    """The exact number of realizations (0 when not realizable)."""
    prep = _prepare(h)
    if isinstance(prep, NonRealizabilityWitness):
        return 0
    return prod(2 if node.label == LABEL_PRIME else factorial(len(node.children))
                for node in prep[0].internal_nodes())


def enumerate_realizations(h: Hypergraph) -> Iterator[Tournament]:
    """All realizations, each exactly once, in mixed-radix choice order.

    Tree nodes are visited in preorder; a prime node contributes the stored
    realization, in which its first child beats its second (the rule of
    ``realize_prime``), then its dual, and an empty node its child
    permutations in lexicographic order.  Yields nothing when ``h`` is not
    realizable.

    Each node is set up once per tree: its child blocks and, for a prime
    node, the parts of both orientations, whose stored base is checked
    against the node's quotient here.  An item then only ORs the chosen
    parts together, builds the tournament with the validating constructor
    and checks its 3-cycle structure against ``h``.
    """
    prep = _prepare(h)
    if isinstance(prep, NonRealizabilityWitness):
        return iter(())
    tree, prime_base = prep
    nodes = []
    for node in tree.internal_nodes():
        blocks = [int(c.members) for c in node.children]
        oriented = None
        if node.label == LABEL_PRIME:
            base = _checked(prime_base[int(node.members)], node.quotient, "prime realization")
            oriented = (_prime_parts(blocks, base), _prime_parts(blocks, base.dual()))
        nodes.append((blocks, oriented))
    return _enumerate(h, nodes, [])


def _enumerate(h: Hypergraph, nodes: list[tuple[list[int], tuple[Parts, Parts] | None]],
               chosen: list[Parts]) -> Iterator[Tournament]:
    """The realizations with the parts of the first ``len(chosen)`` nodes
    fixed.  Choices are made node by node, so each permutation is built
    only when its turn comes and the first item needs one value per node."""
    if len(chosen) == len(nodes):
        yield _checked(_assemble(h.n, chosen), h, "enumeration")
        return
    blocks, oriented = nodes[len(chosen)]
    options = oriented or (_order_parts([blocks[i] for i in perm])
                           for perm in permutations(range(len(blocks))))
    for parts in options:
        chosen.append(parts)
        yield from _enumerate(h, nodes, chosen)
        chosen.pop()
