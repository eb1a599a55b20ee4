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
tree was read from, which ``decomposition._tree`` returns beside the tree,
within the transverse and in the input's labels: each vertex set on the
way is a mask read through that closure's span table, not a hypergraph of
its own, which is exact because the input is 3-uniform.  So one closure table serves the
whole input.  Each growth step checks the realization at the vertices it
adds (``_realizes_within``).

A prime quotient is realized on one path, growing a tournament along a
chain of prime vertex sets X upward from an edge, which
``decomposition._chain`` alone walks: a twin test on y against X in O(|X|)
mask operations says whether H[X + y] stays prime, and failing a single
vertex, the first pair p, q that keeps X prime is added (2-4 closures per
pair).  The realization of H[X] extends to H[X + y] in at most one way,
and a pair step tries both realizations of H[X + p] that extend the one
of H[X].  A failed extension makes the set reached a witness, and a
witness holding a 4-set with three or more edges is cut down to that
4-set at stage ``extension-M1``, with no growth within it.  No chain is
walked twice: a prime node over single vertices grows along the chain its
tree walked within it, if any (the root's, or a split root part's), and
``realize_prime`` and ``realize_critical`` along the one their prime
check walked (``decomposition._prime_chain``).  Of the two
realizations of a prime quotient, the one kept is the one in which its
first vertex beats its second.  ``realize_prime`` and ``realize_critical``
run the same growth on a whole input; no isomorphism search is needed,
since growth reaches the critical families too (the exhaustive searches
are in ``oracle``).

Enumeration sets up each node once per tree and walks the product of the
nodes' choices, each choice ORing its node's parts into a copy of the
successor masks its ancestors' choices built, so consecutive items share
their prefix; ``realize`` returns its first item.  That item is checked in
full, by the validating constructor and its 3-cycle structure, in
O(n^2 + |E|), which also proves every quotient realization (``_items``); a
later item only at the pairs whose arcs differ from the item before, with
the kernel growth uses (``_realizes_at``), in O(n) plus O(n) per changed
pair.  ``choice_to_tournament`` checks a caller's quotient realizations
against the quotients the tree keeps (``TreeNode.quotient``), then takes
the one item of the same walk over the parts chosen, fully checked.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .bitset import VertexSet, as_mask, bit_list, full_mask, iter_bits, ranks, remap
from .core import Frozen, Graph, Hypergraph, Tournament, _rebuild, c3_structure
from .decomposition import (
    LABEL_EMPTY, LABEL_PRIME, Closure, DecompositionTree, TreeNode, _chain, _hypergraph_closure,
    _is_prime_within, _prime_chain, _tree,
)
from .errors import InvariantError, PreconditionError

__all__ = [
    "STAGE_BASE", "STAGE_CRITICAL_MISMATCH", "STAGE_EXTENSION_M1", "STAGE_EXTENSION_M2",
    "STAGE_STALL",
    "VERDICT_OK", "VERDICT_ODD_CYCLE", "VERDICT_E0", "VERDICT_Y_OVERLAP",
    "VERDICT_Y_NOT_COVERING", "VERDICT_M2_ARC",
    "NonRealizabilityWitness", "ExtensionCertificate", "RealizationChoice",
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
VERDICT_M2_ARC = "M2-arc-violation"  # never returned: ``_extension`` says why


class NonRealizabilityWitness(Frozen):
    """A vertex set whose induced subhypergraph is prime and not realizable."""

    __slots__ = ("vertices", "stage")

    def __init__(self, vertices, stage: str):
        object.__setattr__(self, "vertices", tuple(sorted(vertices)))
        object.__setattr__(self, "stage", stage)

    def to_json(self) -> dict:
        return {"non_realizable": {"witness": list(self.vertices), "stage": self.stage}}

    def __repr__(self) -> str:
        return f"NonRealizabilityWitness({list(self.vertices)}, stage={self.stage!r})"


class ExtensionCertificate(Frozen):
    """The single-vertex extension data: link graph, bipartition, closures.

    ``g_x`` lives on the coordinates of H - x (vertex j of ``g_x`` is the
    j-th smallest vertex of h other than x, ``bitset.ranks``), as do the
    masks.  When the verdict is "ok", ``x_minus``/``x_plus`` bipartition the
    non-isolated link-graph vertices and ``y_minus``/``y_plus`` partition
    the isolated ones.
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

    @property
    def ok(self) -> bool:
        return self.verdict == VERDICT_OK

    def __repr__(self) -> str:
        return f"ExtensionCertificate(x={self.x}, verdict={self.verdict!r})"


class RealizationChoice(Frozen):
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


# --- single-vertex extension --------------------------------------------------
#
# One copy of the extension conditions, on masks in the labels of h over the
# span table of h's closure: ``realize_prime`` runs it on each vertex set of
# its chain, the two public functions once with w the whole vertex set.

Extension = tuple[str, list[int], int, int, int, int, int]


def _extension(spans: list[list[int]], succ: list[int], w: int, x: int) -> Extension:
    """The conditions of ``extension_certificate`` for adding x to the
    tournament on w - x held in ``succ``, with the link graph within w.
    Returns the verdict, the link graph rows (indexed by vertex), I_x, X-,
    X+, Y- and Y+.

    Each non-singleton component of the link graph is 2-coloured one
    breadth-first layer at a time from its smallest vertex r, on side 0: a
    layer whose neighbourhood meets its own side closes an odd cycle, and
    otherwise the new vertices of that neighbourhood are the next layer, on
    the other side.  The colouring is then oriented by r's lowest neighbour.

    Disjoint closures leave no arc between the sides to check: an isolated
    u of Y+ beaten by a v of X- + Y- would lie in Y-, and a u of Y- that
    beat one of X+ would lie in Y+.  So ``VERDICT_M2_ARC`` is never returned."""
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

    # two-colour each non-singleton component by layers, orient it by r
    x_minus = x_plus = 0
    left = rest & ~i_x
    while left:
        layer, s = left & -left, 0
        sides = [layer, 0]
        r = layer.bit_length() - 1
        while layer:
            near = remap(layer, adj)
            if near & sides[s]:
                return result(VERDICT_ODD_CYCLE)
            s = 1 - s
            layer = near & ~sides[s]
            sides[s] |= layer
        minus, plus = sides if succ[r] & adj[r] & -adj[r] else sides[::-1]
        x_minus |= minus
        x_plus |= plus
        left &= ~(minus | plus)

    # adjacency between the sides must match arcs pointing minus -> plus
    for v in iter_bits(x_minus):
        if adj[v] & x_plus != succ[v] & x_plus:
            return result(VERDICT_E0, x_minus, x_plus)

    # forward closure of the minus side / backward closure of the plus side
    y_minus = 0
    frontier = x_minus
    while frontier:
        frontier = remap(frontier, succ) & i_x & ~y_minus
        y_minus |= frontier
    y_plus = 0
    frontier = x_plus
    while frontier:
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= rest & ~succ[u] & ~(1 << u)
        nxt &= i_x & ~y_plus
        y_plus |= nxt
        frontier = nxt

    verdict = (VERDICT_Y_OVERLAP if y_minus & y_plus else
               VERDICT_Y_NOT_COVERING if y_minus | y_plus != i_x else VERDICT_OK)
    return result(verdict, x_minus, x_plus, y_minus, y_plus)


def _extend(spans: list[list[int]], succ: list[int], w: int, x: int,
            ext: Extension, new: int) -> None:
    """Write an accepted extension into ``succ``, where x beats the minus
    sides and loses to the plus sides, and check that the result realizes
    H[w], given that it realizes H[w - new]."""
    _, _, _, x_minus, x_plus, y_minus, y_plus = ext
    succ[x] = x_minus | y_minus
    for z in iter_bits(x_plus | y_plus):
        succ[z] |= 1 << x
    if not _realizes_within(spans, succ, w, new):
        raise InvariantError("extension produced a tournament that does not realize the input")


def _realizes_within(spans: list[list[int]], succ: list[int], w: int, new: int) -> bool:
    """True iff ``succ`` holds a tournament on w whose 3-cycles are exactly
    the edges within w, given that it holds one on w - new whose 3-cycles
    are the edges within w - new (and no arc from there leaves w).

    Each pair {u, v} of w that meets ``new`` is checked once, by
    ``_realizes_at`` with the rows of ``new`` listed.  That takes
    O(|new| |w|) mask operations; with new = w it is the same test as
    ``c3_structure(t) == H[w]``.
    """
    pairs, rest = [], w
    for u in iter_bits(new):
        rest &= ~(1 << u)
        pairs.append((u, rest))
    return _realizes_at(spans, succ, w, pairs)


def _realizes_at(spans: list[list[int]], succ: list[int], w: int,
                 pairs: list[tuple[int, int]]) -> bool:
    """True iff, for each ``(u, partners)`` listed, the row of u lies in
    w - u and each pair {u, v} with v in ``partners`` has exactly one arc
    and the 3-cycles through it within w are the edges of H through u and
    v within w (the spans of the 3-uniform H's closure table).

    For an arc u -> v the triple {u, v, z} is a 3-cycle iff v -> z -> u, so
    ``succ[v] & pred_w(u)`` must be the link of u and v within w.  The
    verdict on a pair reads the arcs of the other pairs through u and v, so
    it is the pair's true one when those have one arc each.  Each partner
    of u must index ``succ`` unless the row of u holds it, which the row
    check refuses first.
    """
    for u, partners in pairs:
        ub = 1 << u
        rest = w & ~ub
        out = succ[u]
        if out & ~rest:
            return False
        row = spans[u]
        while partners:
            vb = partners & -partners
            partners ^= vb
            v = vb.bit_length() - 1
            sv = succ[v]
            if not (out >> v ^ sv >> u) & 1:  # no arc or two arcs
                return False
            # the z that close a 3-cycle with u and v: v -> u -> z or u -> v -> z
            cycles = out & ~sv if sv & ub else sv & rest & ~out
            if cycles != row[v] & rest & ~vb:
                return False
    return True


def _extension_at(h: Hypergraph, x: int,
                  t_x: Tournament) -> tuple[list[list[int]], list[int], Extension]:
    """Check the preconditions of the two public calls (3-uniform h, ``t_x``
    a realization of H - x, both hypergraphs prime) and evaluate the
    extension (``_evaluate_extension``).  ``x`` is read by
    ``bitset.as_mask``.  Primality is proved on the closure the evaluation
    builds, so an input refused there has been evaluated, never answered."""
    full = full_mask(h.n)
    rest = full & ~as_mask([x], h.n)
    if t_x.n != h.n - 1:
        raise PreconditionError("tournament must have one vertex fewer than the hypergraph")
    if not h.is_3_uniform:
        raise PreconditionError("input must be 3-uniform")
    if c3_structure(t_x) != h.induced(rest):
        raise PreconditionError("tournament does not realize the deleted hypergraph")
    close, succ, ext = _evaluate_extension(h, x, t_x)
    if _prime_chain(h, close, full) is None or _prime_chain(h, close, rest) is None:
        raise PreconditionError("extension requires both hypergraphs prime")
    return close.spans, succ, ext


def _evaluate_extension(h: Hypergraph, x: int,
                        t_x: Tournament) -> tuple[Closure, list[int], Extension]:
    """Lift ``t_x`` into the labels of h (vertex j of ``t_x`` is the j-th
    smallest vertex of h other than x, as ``bitset.ranks`` numbers them),
    build h's closure and evaluate the extension with w the whole vertex
    set.  Nothing is checked: h must be 3-uniform, x one of its vertices
    and ``t_x`` a tournament on the others."""
    full = full_mask(h.n)
    close = _hypergraph_closure(h)
    lift = [1 << v for v in range(h.n) if v != x]
    succ = [remap(s, lift) for s in t_x.succ]
    succ.insert(x, 0)
    return close, succ, _extension(close.spans, succ, full, x)


def _certificate(x: int, ext: Extension) -> ExtensionCertificate:
    """The certificate of an evaluated extension, in the coordinates of H-x."""
    verdict, adj, *masks = ext
    n = len(adj)
    down = ranks(full_mask(n) & ~(1 << x), n)
    g_x = _rebuild(Graph, (n - 1, tuple(remap(a, down) for v, a in enumerate(adj) if v != x)))
    return ExtensionCertificate(x, g_x, *(remap(m, down) for m in masks), verdict)


def extension_certificate(h: Hypergraph, x: int, t_x: Tournament) -> ExtensionCertificate:
    """Evaluate the extension conditions for adding ``x`` on top of ``t_x``.

    Builds the link graph at x (v,w adjacent iff {x,v,w} is an edge),
    2-colours each non-singleton component, orients each colouring by one
    component edge against ``t_x`` and then verifies that, across every
    minus/plus pair, link-graph adjacency coincides with the arc pointing
    minus to plus.  Isolated link vertices must split into the forward
    closure of the minus side and the backward closure of the plus side,
    with all remaining arcs agreeing.  Raises ``PreconditionError`` unless
    h is 3-uniform, ``t_x`` realizes H - x and both H and H - x are prime.
    """
    return _certificate(x, _extension_at(h, x, t_x)[2])


def extend_realization(h: Hypergraph, x: int,
                       t_x: Tournament) -> Tournament | ExtensionCertificate:
    """Extend a realization of H-x to one of H, or explain why none exists.

    On success the result is the unique realization whose restriction away
    from ``x`` equals ``t_x``: x beats the minus sides and loses to the plus
    sides.  On failure the certificate carries the violated condition.  The
    preconditions are those of ``extension_certificate``.
    """
    spans, succ, ext = _extension_at(h, x, t_x)
    if ext[0] != VERDICT_OK:
        return _certificate(x, ext)
    full = full_mask(h.n)
    _extend(spans, succ, full, x, ext, full)
    return Tournament._from_succ(h.n, tuple(succ))


# --- prime and critical realization ---------------------------------------------

def realize_critical(h: Hypergraph) -> Tournament | NonRealizabilityWitness:
    """Realize a critical prime hypergraph (no vertex deletion leaves it
    prime) or produce a witness.

    Its realizations are critical prime tournaments, which have odd order
    (Schmerl and Trotter, Discrete Math. 1993), so an even order is
    rejected outright (stage ``base``).  An odd order is settled by the
    growth of ``realize_prime``, along the chain the prime check walked
    (``decomposition._prime_chain``) and on the closure the checks build;
    if growth fails, all of h is the witness (stage
    ``critical-mismatch``).  The realization returned is the one in which
    vertex 0 beats vertex 1.  Criticality is checked by proving each of
    the n one-vertex deletions not prime (``_is_prime_within``).
    """
    if not h.is_3_uniform:
        raise PreconditionError("input must be 3-uniform")
    if h.n < 5:
        raise PreconditionError("critical realization needs at least 5 vertices")
    close = _hypergraph_closure(h)
    full = full_mask(h.n)
    chain = _prime_chain(h, close, full)
    if chain is None:
        raise PreconditionError("input must be prime")
    for x in range(h.n):
        if _is_prime_within(close, full & ~(1 << x)):
            raise PreconditionError(f"input is not critical: deleting {x} keeps it prime")
    if h.n % 2 == 0:
        return NonRealizabilityWitness(range(h.n), STAGE_BASE)
    res = _realize_within(h, close.spans, full, chain)
    if isinstance(res, NonRealizabilityWitness):
        return NonRealizabilityWitness(range(h.n), STAGE_CRITICAL_MISMATCH)
    return Tournament._from_succ(h.n, tuple(res))


def realize_prime(h: Hypergraph,
                  _assume_prime: bool = False) -> Tournament | NonRealizabilityWitness:
    """Realize a prime 3-uniform hypergraph or produce a witness.

    Grows a tournament along a chain of prime vertex sets X, walked upward
    from the first edge through vertex 0 (``decomposition._chain``; see
    ``_grow``).  A one-vertex step adds the smallest y for which H[X + y]
    stays prime, found by a twin test in O(|X|) mask operations, and
    extends the tournament by y.  When there is none, a two-vertex step
    adds the first pair p, q for which H[X + p + q] is prime and extends
    each of the two realizations of H[X + p] that agree with the tournament
    on X by q.  A failed step certifies that the set it reached
    is not realizable, and that set is the witness (stage ``extension-M1``
    or ``extension-M2``); when no pair keeps X prime, h is not realizable
    and all of it is the witness (stage ``stall``).  A witness that holds a
    4-set with three or more edges is replaced by the first such 4-set, at
    stage ``extension-M1`` (``_dense_four``).

    A prime realizable hypergraph has exactly two realizations, a
    tournament and its dual; the one returned is the one in which vertex 0
    beats vertex 1.  This builds one closure of h and runs
    ``_realize_within`` on its span table.  The primality check is
    ``is_prime``'s (``decomposition._prime_chain``), and growth takes the
    steps it walked.  ``_assume_prime=True`` skips the check and is the
    caller's promise that h is prime; growth then draws each step as it
    takes it.
    """
    if not h.is_3_uniform:
        raise PreconditionError("input must be 3-uniform")
    close = _hypergraph_closure(h)
    full = full_mask(h.n)
    chain = _chain(h, close, full) if _assume_prime else _prime_chain(h, close, full)
    if chain is None:
        raise PreconditionError("input must be prime")
    res = _realize_within(h, close.spans, full, chain)
    if isinstance(res, NonRealizabilityWitness):
        return res
    return Tournament._from_succ(h.n, tuple(res))


def _realize_within(h: Hypergraph, spans: list[list[int]], w: int,
                    chain: Iterable) -> list[int] | NonRealizabilityWitness:
    """``realize_prime`` on H[w], which must be prime, run on the labels of
    h and the span table ``spans`` of h's closure: the successor masks of a
    realization of H[w] (0 outside w), or a witness in the labels of h.

    Growth (``_grow``) along ``chain``, the chain of prime sets within w
    (``decomposition._chain``, walked already or lazily), settles H[w]; the
    realization is then oriented so that the smallest vertex of w beats the
    second smallest.  A witness that holds a 4-set with three or more edges
    gives way to the first such 4-set (``_dense_four``), at stage
    ``extension-M1``, the stage growth within it would report.
    """
    res = _grow(h, spans, w, chain)
    if isinstance(res, NonRealizabilityWitness):
        if len(res.vertices) > 4:
            four = _dense_four(spans, as_mask(res.vertices, h.n))
            if four is not None:
                return NonRealizabilityWitness(iter_bits(four), STAGE_EXTENSION_M1)
        return res
    first = w & -w
    second = (w ^ first) & -(w ^ first)
    if not res[first.bit_length() - 1] & second:
        for u in iter_bits(w):
            res[u] = w & ~res[u] & ~(1 << u)
    return res


def _dense_four(spans: list[list[int]], w: int) -> int | None:
    """The first 4-set within w that holds three or more edges, or None.

    Such a set is prime and not realizable, since a 4-vertex tournament has
    at most two 3-cycles.  Two of its edges share a pair {u, v} and the third
    holds u or v, so it is found from the links of the pairs within w.

    Growth within the set would fail at stage ``extension-M1``: it reads
    only H[set] in vertex order, and each of the five 3-uniform hypergraphs
    on {0, 1, 2, 3} with three or more edges fails the step after the base
    3-cycle at M1.  With three edges the link graph of the added vertex is
    a path whose middle vertex beats exactly one of its ends on the base
    3-cycle (E0); with four it is a triangle, an odd cycle.
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


def _grow(h: Hypergraph, spans: list[list[int]], w: int,
          chain: Iterable) -> list[int] | NonRealizabilityWitness:
    """Upward growth on H[w] along ``chain``, the chain of prime sets within
    w that ``decomposition._chain`` yields: the successor masks of a
    realization, or a witness.  The steps are taken, not chosen, and none
    is drawn after a failed extension.

    The base is the first edge {a, b, c} through the smallest vertex a of
    w, realized as the 3-cycle a -> b -> c -> a.  Each step keeps x prime
    and a realization of H[x] in ``succ``.  A one-vertex step adds the
    smallest y for which H[x + y] is prime and extends the realization by
    y; a failed extension proves H[x + y] not realizable.  Failing that, a
    two-vertex step takes the first pair p < q for which H[x + p + q] is
    prime and extends by q each of the two realizations of H[x + p] that
    agree with ``succ`` on x: p copies its twin a and sits just below or
    just above it, or, when p lies in no edge within x + p, below or above
    all of x.  These are all, since H[x + p] has the strong modules {a, p}
    (or x) and singletons.
    A realization of the prime H[x + p + q], dualized if need be to agree
    with ``succ`` on x, extends one of them, and ``_extension`` finds it:
    the link-graph sides and their closures are forced, and the isolated
    link vertices that neither closure reaches would form, with q, a module
    of that extension and so of H[x + p + q], so there are none and the
    verdict is ok.  So when both fail, x + p + q is the witness, with the
    stage of the second failure.  No prime 4-set is realizable, so a
    realizable H[w] first grows by a two-vertex step.  Each step checks the
    result only at the pairs that meet the vertices it adds, in O(|x|) mask
    operations, and the first step at the base triple too, so every pair of
    w is checked once.

    Growth stops short of w (a ``stall``, witnessed by all of w) only when
    H[w] is not realizable: a realization of the prime H[w] is a prime
    tournament, whose prime subtournament on x extends to a prime one on x
    plus one or two outside vertices (Ehrenfeucht and Rozenberg, Theoret.
    Comput. Sci. 1990; Schmerl and Trotter, Discrete Math. 1993), and the
    3-cycles of a prime tournament form a prime hypergraph (checked on
    1,322 random prime tournaments with n <= 10).
    """
    steps = iter(chain)
    base = x = next(steps)[0]
    a, b, c = bit_list(base)
    succ = [0] * h.n
    succ[a], succ[b], succ[c] = 1 << b, 1 << c, 1 << a
    for z, q, a in steps:
        if a is None:
            trials = [succ]
        else:
            p = (z & ~x & ~(1 << q)).bit_length() - 1
            beaten, mid = (0, x) if a < 0 else (succ[a], 1 << a)
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
        _extend(spans, trial, z, q, ext, z if x == base else z & ~x)
        succ, x = trial, z
    if x != w:
        return NonRealizabilityWitness(iter_bits(w), STAGE_STALL)
    return succ


def _extension_witness(w: int, verdict: str) -> NonRealizabilityWitness:
    """The witness of a failed extension onto the prime set w."""
    m1 = verdict in (VERDICT_ODD_CYCLE, VERDICT_E0)
    return NonRealizabilityWitness(iter_bits(w), STAGE_EXTENSION_M1 if m1 else STAGE_EXTENSION_M2)


# --- whole-hypergraph pipeline ---------------------------------------------------

def _prepare(h: Hypergraph):
    """Decomposition tree plus a realization of each prime quotient, and
    the span table of the closure the tree was read from.

    A prime node's quotient is H[transverse], with the smallest vertex of
    each child standing for it, so it is realized on that closure within
    the transverse, in the labels of h; the result is renumbered to child
    order by ``bitset.ranks``.  A transverse that is the whole vertex set
    is a prime node over single vertices; when ``_tree`` walked a chain
    within it (the root, or a part of a split root), growth takes the steps
    of that chain, proved or stalled, and any other node's chain is walked
    lazily.  Returns a witness if any prime quotient is not realizable.

    The input on no vertices has no decomposition tree (``_tree`` refuses
    it); it gets a leaf root on no vertices, which has no node to choose
    at, so its one realization is the empty tournament.
    """
    if not h.is_3_uniform:
        raise PreconditionError("input must be 3-uniform")
    if h.n == 0:
        return DecompositionTree(TreeNode(0, None, ()), 0, "hypergraph"), {}, []
    tree, close, chains = _tree(h)
    prime_base: dict[int, Tournament] = {}
    for node in tree.internal_nodes():
        if node.label != LABEL_PRIME:
            continue
        w = sum(c.members & -c.members for c in node.children)
        chain = chains.get(w)
        res = _realize_within(h, close.spans, w, _chain(h, close, w) if chain is None else chain)
        if isinstance(res, NonRealizabilityWitness):
            return res
        images = ranks(w, h.n)
        prime_base[int(node.members)] = Tournament._from_succ(
            len(node.children), tuple(remap(res[v], images) for v in iter_bits(w)))
    return tree, prime_base, close.spans


def default_choice(tree: DecompositionTree,
                   prime_base: Mapping[int, Tournament]) -> RealizationChoice:
    """Identity permutations and as-computed orientations."""
    perms, flags = {}, {}
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


def _prime_parts(m: int, blocks: list[int], r: Tournament) -> tuple[Parts, Parts]:
    """The parts of a prime node m and of its dual: block a beats the
    blocks that quotient vertex a beats in ``r``, and in the dual the other
    blocks of m it loses to."""
    parts = [(b, remap(out, blocks)) for b, out in zip(blocks, r.succ)]
    return parts, [(b, m & ~(b | out)) for b, out in parts]


def _or_parts(succ: list[int], parts: Parts) -> None:
    """OR each part's out-mask into the successor masks of its members."""
    for members, out in parts:
        while members:
            low = members & -members
            succ[low.bit_length() - 1] |= out
            members ^= low


def choice_to_tournament(h: Hypergraph, tree: DecompositionTree,
                         choice: RealizationChoice) -> Tournament:
    """Assemble the tournament selected by a realization choice.

    Each vertex pair is oriented at the lowest tree node containing both,
    by the chosen linear order (empty label) or quotient realization (prime
    label) between their child blocks.  The choice is checked node by node
    in preorder: each permutation, and each stored quotient realization
    against the quotient the tree keeps at its node.  The tournament is the
    one item of ``_enumerate`` over the parts chosen, with ``realize``'s full
    check.  Once the choice passes, only a tree other than
    ``decomposition_tree(h)`` can fail that check, since h's own tree
    assembles a realization of h from any such choice (the decomposition
    theorem); so a failure says that the tree does not match.
    """
    if tree.n != h.n or int(tree.root.members) != full_mask(h.n) or tree.kind != "hypergraph":
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
            parts = _order_parts([blocks[i] for i in perm])
        elif node.label == LABEL_PRIME:
            base = choice.prime_base.get(key)
            flag = choice.prime_flags.get(key)
            if base is None or flag is None or base.n != k:
                raise PreconditionError(
                    f"choice needs a quotient realization at node {bit_list(key)}")
            if c3_structure(base) != node.quotient:
                raise PreconditionError(
                    f"stored tournament does not realize the quotient at node {bit_list(key)}")
            parts = _prime_parts(key, blocks, base)[1 if flag else 0]
        else:
            raise PreconditionError("complete-labelled nodes admit no realization")
        chosen.append((blocks, [parts]))
    try:
        return next(_enumerate(h, None, chosen))
    except InvariantError:
        raise PreconditionError("tree does not match the hypergraph") from None


def realize(h: Hypergraph) -> Tournament | NonRealizabilityWitness:
    """A realization of ``h``, or a prime witness: the first item of
    ``enumerate_realizations`` (identity permutations and the stored
    orientation of each prime quotient), with its full output check."""
    prep = _prepare(h)
    if isinstance(prep, NonRealizabilityWitness):
        return prep
    return next(_items(h, *prep))


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
    permutations in lexicographic order.  So the first item is the one
    ``realize`` returns.  Yields nothing when ``h`` is not realizable.

    Each node is set up once per tree (``_items``), and each choice of a
    node ORs its parts into a copy of the successor masks its ancestors'
    choices built.  The first item is checked in full, which also proves
    every stored quotient realization; a later item only at the pairs whose
    arcs differ from the item before, in O(n) plus O(n) per such pair
    (``_verified``).
    """
    prep = _prepare(h)
    if isinstance(prep, NonRealizabilityWitness):
        return iter(())
    return _items(h, *prep)


def _items(h: Hypergraph, tree: DecompositionTree, prime_base: Mapping[int, Tournament],
           spans: list[list[int]]) -> Iterator[Tournament]:
    """The realizations of ``h`` in enumeration order, from its tree, a
    realization of each prime quotient in child order and the span table
    of h's closure, which checks each item after the first.

    Each node's child blocks and, for a prime node, the parts of both
    orientations (``_prime_parts``, as ``choice_to_tournament`` sets them up)
    are found here, once.  The bases are not checked here.
    The first item gets the full check (``_verified``): the validating
    constructor and ``c3_structure(t) == h``.  Restricted to the transverse
    of a prime node, that item is the node's stored base in child order, so
    the check proves that every base realizes its node's quotient
    (H[transverse]), and each dual realizes the same quotient, since
    reversing every arc keeps the 3-cycles.  A bad base therefore raises
    ``InvariantError`` when the first item is drawn, before any is yielded.
    """
    nodes = []
    for node in tree.internal_nodes():
        m = int(node.members)
        blocks = [int(c.members) for c in node.children]
        oriented = _prime_parts(m, blocks, prime_base[m]) if node.label == LABEL_PRIME else None
        nodes.append((blocks, oriented))
    return _enumerate(h, spans, nodes)


def _orders(blocks: list[int]) -> Iterator[Parts]:
    """The parts of each linear order of the blocks, taking the
    permutations of their indices in lexicographic order."""
    return (_order_parts([blocks[i] for i in perm]) for perm in permutations(range(len(blocks))))


def _enumerate(h: Hypergraph, spans: list[list[int]] | None,
               nodes: list[tuple[list[int], Sequence[Parts] | None]]) -> Iterator[Tournament]:
    """The realizations in enumeration order, by an odometer over the
    nodes' choices (the parts listed, or with None each linear order of the
    blocks), the last node turning fastest: ``left[d]`` iterates over node
    d's choices not taken yet, and ``rows[d]`` holds the successor masks
    with the parts chosen at the first d nodes ORed in, so no call nests
    per node.  Each permutation is built only when its turn comes.
    ``last[0]`` holds the successor masks of the item yielded before, or
    None; the first item does not read ``spans``."""
    rows, left, last = [[0] * h.n], [], [None]
    while True:
        if len(left) < len(nodes):
            blocks, oriented = nodes[len(left)]
            left.append(iter(oriented or _orders(blocks)))
            parts = next(left[-1])
        else:
            yield _verified(h, spans, rows[-1], last)
            while left:
                parts = next(left[-1], None)
                rows.pop()
                if parts is not None:
                    break
                left.pop()
            else:
                return
        succ = rows[-1][:]
        _or_parts(succ, parts)
        rows.append(succ)


def _verified(h: Hypergraph, spans: list[list[int]], succ: list[int], last: list) -> Tournament:
    """The tournament in ``succ``, once it is seen to realize ``h``; it
    then replaces ``last[0]``.

    With no item before, the validating constructor builds it and its
    3-cycle structure is compared with h, in O(n^2 + |E|).  Otherwise
    ``_realizes_at`` checks only the rows and the pairs whose arcs differ
    from ``last[0]``, each pair once (``_changed_pairs``), in O(n) plus
    O(n) per changed pair.  That is exact: the item before was verified, so
    every pair outside the difference has one arc, and a triple holding no
    changed pair keeps its arcs and so its cycle status.  Once every
    changed pair has one arc, each triple holding one is settled at that
    pair.  So the verdict is that of "a valid tournament whose 3-cycle
    structure is h".
    """
    prev = last[0]
    if prev is None:
        t = Tournament(h.n, succ)
        ok = c3_structure(t) == h
    else:
        pairs = _changed_pairs(prev, succ)
        ok = pairs is not None and _realizes_at(spans, succ, full_mask(h.n), pairs)
        t = Tournament._from_succ(h.n, tuple(succ))
    if not ok:
        raise InvariantError("enumeration produced a tournament that does not realize the input")
    last[0] = t.succ
    return t


def _changed_pairs(prev: tuple[int, ...], cur: list[int]) -> list[tuple[int, int]] | None:
    """The rows that differ between ``prev`` and ``cur``, as ``(u, partners)``
    with the partners the v > u whose bit differs in row u, so that a
    flipped pair {u, v}, which differs in both rows, is listed once, at u.
    None when the differing bits below the diagonal (v < u in row u) do not
    number those above it, which no tournament ``cur`` gives when ``prev``
    is one.

    When ``_realizes_at`` accepts the list, no changed pair is missed: each
    changed row then lies in range with no loop, so every differing bit is
    above or below the diagonal, and each listed pair has one arc, as in
    ``prev``, so it flipped and accounts for one differing bit below the
    diagonal, in the row of its larger end.  Equal counts leave no bit
    below unaccounted for.
    """
    pairs, balance = [], 0
    for u, (c, p) in enumerate(zip(cur, prev)):
        if c != p:
            diff = c ^ p
            above = diff >> (u + 1) << (u + 1)
            balance += 2 * above.bit_count() - diff.bit_count()
            pairs.append((u, above))
    return None if balance else pairs
