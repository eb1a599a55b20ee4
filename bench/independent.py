"""Checks written apart from the package under test.

Nothing here calls into ``c3realize``: structures are read through their
plain fields (``n``, ``edges``, ``succ``, ``members``, ``children``, ``label``)
and every answer is recomputed from the definitions.  Vertex sets are int bit
masks, as in the package's own types.
"""

from __future__ import annotations

from math import factorial


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def three_cycles(n: int, succ) -> frozenset[int]:
    """Masks of the vertex triples that induce a directed 3-cycle.

    A cycle u -> v -> w -> u is found once from its smallest vertex u:
    w must beat u and be beaten by v, and both v, w lie above u.
    """
    out = set()
    for u in range(n):
        above = ((1 << n) - 1) & ~((2 << u) - 1)
        pred_u = 0
        for w in range(n):
            if (succ[w] >> u) & 1:
                pred_u |= 1 << w
        for v in bits(succ[u] & above):
            for w in bits(succ[v] & pred_u & above):
                out.add((1 << u) | (1 << v) | (1 << w))
    return frozenset(out)


def link_table(n: int, edges) -> list[list[int]]:
    """``link[x][y]`` is the mask of z such that {x, y, z} is an edge."""
    link = [[0] * n for _ in range(n)]
    for e in edges:
        x, y, z = bits(e)
        link[x][y] |= 1 << z
        link[y][x] |= 1 << z
        link[x][z] |= 1 << y
        link[z][x] |= 1 << y
        link[y][z] |= 1 << x
        link[z][y] |= 1 << x
    return link


def _check_3_uniform(n: int, edges) -> None:
    full = (1 << n) - 1
    for e in edges:
        if e.bit_count() != 3 or e & ~full:
            raise ValueError(f"not a 3-edge on 0..{n - 1}: {e:#x}")


def realizations(n: int, edges, limit: int | None = None) -> list[tuple[int, ...]]:
    """The tournaments whose 3-cycles are exactly ``edges``, as succ tuples.

    Pairs are oriented one at a time in the order (0,1), (0,2), (1,2),
    (0,3), ...; orienting (i, j) completes the triples {h, i, j} with
    h < i, and a branch is cut as soon as one of them disagrees with the
    edge set.  With i -> j, {h, i, j} is cyclic iff j -> h and h -> i.
    Stops after ``limit`` results when one is given.
    """
    _check_3_uniform(n, edges)
    link = link_table(n, edges)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    succ = [0] * n
    pred = [0] * n
    found: list[tuple[int, ...]] = []

    def orient(u: int, v: int, k: int) -> bool:
        succ[u] |= 1 << v
        pred[v] |= 1 << u
        stop = place(k + 1)
        succ[u] &= ~(1 << v)
        pred[v] &= ~(1 << u)
        return stop

    def place(k: int) -> bool:
        if k == len(pairs):
            found.append(tuple(succ))
            return limit is not None and len(found) >= limit
        i, j = pairs[k]
        below = (1 << i) - 1
        want = link[i][j] & below
        if succ[j] & pred[i] & below == want and orient(i, j, k):
            return True
        # j -> i: cyclic triples are h with i -> h and h -> j
        return succ[i] & pred[j] & below == want and orient(j, i, k)

    place(0)
    return found


def count_realizations(n: int, edges, limit: int | None = None) -> int:
    return len(realizations(n, edges, limit))


def induced_edges(edges, vertices: int) -> tuple[int, frozenset[int]]:
    """Order and edges of the subhypergraph on ``vertices``, re-indexed."""
    index = {v: i for i, v in enumerate(bits(vertices))}
    out = set()
    for e in edges:
        if e & ~vertices == 0:
            out.add(sum(1 << index[v] for v in bits(e)))
    return len(index), frozenset(out)


def is_hypergraph_module(n: int, link, m: int) -> bool:
    """The swap-based module test for a 3-uniform hypergraph.

    No edge meets ``m`` in two vertices and leaves it, and for x, y outside
    ``m`` the edges {x, y, z} with z in ``m`` take all of ``m`` or none.
    """
    full = (1 << n) - 1
    inside = list(bits(m))
    for a in inside:
        for b in inside:
            if link[a][b] & ~m:
                return False
    outside = list(bits(full & ~m))
    for a in outside:
        for b in outside:
            hit = link[a][b] & m
            if hit and hit != m:
                return False
    return True


def is_tournament_module(n: int, succ, m: int) -> bool:
    """No vertex outside ``m`` beats part of it and loses to the rest."""
    full = (1 << n) - 1
    for v in bits(full & ~m):
        hit = succ[v] & m
        if hit and hit != m:
            return False
    return True


def tree_problems(root, full: int, is_module) -> list[str]:
    """Structural faults of a decomposition tree, empty when it is sound.

    Every node must be a module, leaves are singletons, and the children of
    an internal node partition it.
    """
    problems = []
    if int(root.members) != full:
        problems.append("root is not the whole vertex set")
    stack = [root]
    while stack:
        node = stack.pop()
        m = int(node.members)
        if not is_module(m):
            problems.append(f"node {m:#x} is not a module")
        if not node.children:
            if m.bit_count() != 1:
                problems.append(f"leaf {m:#x} is not a singleton")
            continue
        union = 0
        for child in node.children:
            c = int(child.members)
            if c & union or c & ~m:
                problems.append(f"children of {m:#x} overlap or leave it")
            union |= c
        if union != m or len(node.children) < 2:
            problems.append(f"children of {m:#x} do not partition it")
        stack.extend(node.children)
    return problems


def tree_shape(root) -> frozenset[tuple[int, str | None]]:
    """The set of (members, label) pairs of a tree's nodes."""
    out = set()
    stack = [root]
    while stack:
        node = stack.pop()
        out.add((int(node.members), node.label))
        stack.extend(node.children)
    return frozenset(out)


def tree_count(root) -> int:
    """2^(prime nodes) times k! over the other internal nodes of a
    hypergraph tree: the number of realizations the tree stands for."""
    count = 1
    stack = [root]
    while stack:
        node = stack.pop()
        if node.children:
            count *= 2 if node.label == "prime" else factorial(len(node.children))
        stack.extend(node.children)
    return count


def planted_count(block_sizes) -> int:
    """Realizations of the 3-cycle structure of a linear order of blocks.

    Each block of three or more vertices is a prime tournament, whose
    structure has two realizations; the blocks themselves may be put in
    any order.
    """
    primes = sum(1 for k in block_sizes if k >= 3)
    return 2 ** primes * factorial(len(block_sizes))


def hypergraph_closure(n: int, link, m: int) -> int:
    """The smallest module of a 3-uniform hypergraph that contains ``m``.

    An edge that breaks the module property for ``m`` lies inside every
    module containing ``m``, so its vertices are absorbed until none is left.
    """
    full = (1 << n) - 1
    while True:
        grow = 0
        inside = list(bits(m))
        for k, a in enumerate(inside):
            for b in inside[k + 1:]:
                grow |= link[a][b] & ~m
        outside = list(bits(full & ~m))
        for k, x in enumerate(outside):
            for y in outside[k + 1:]:
                hit = link[x][y] & m
                if hit and hit != m:
                    grow |= (1 << x) | (1 << y)
        if not grow:
            return m
        m |= grow


def tournament_closure(n: int, succ, m: int) -> int:
    """The smallest tournament module containing ``m``: absorb every vertex
    that beats part of the set and loses to the rest."""
    full = (1 << n) - 1
    while True:
        grow = 0
        for v in bits(full & ~m):
            hit = succ[v] & m
            if hit and hit != m:
                grow |= 1 << v
        if not grow:
            return m
        m |= grow


def is_prime(n: int, closure) -> bool:
    """At least three vertices, and every pair generates the whole set."""
    full = (1 << n) - 1
    return n >= 3 and all(closure((1 << a) | (1 << b)) == full
                          for a in range(n) for b in range(a + 1, n))
