"""Independent brute-force ground truth for tests and derived examples.

Everything here avoids the decomposition/realization pipeline on purpose:
realizations are found by orienting one pair at a time and cutting a branch
at the first triple that disagrees with the edges, modules by scanning
all vertex subsets (up to ``DEFAULT_BOUND`` vertices, since there can be 2^n),
isomorphisms by backtracking search, and the set-family laws are checked
directly from enumerated module sets.  The pipeline imports only the two
module predicates from here.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .bitset import (
    VertexSet, as_mask, bit_list, full_mask, iter_bits, iter_submasks, remap, require_count,
)
from .core import Hypergraph, Tournament
from .errors import CapacityError, PreconditionError

__all__ = [
    "DEFAULT_BOUND", "MAX_EXHAUSTIVE_ORDER",
    "subsets_where", "modules_within",
    "enumerate_modules", "enumerate_usual_modules", "is_usual_module",
    "tournament_modules", "hypergraph_isomorphism",
    "all_tournaments", "brute_force_realizations",
    "check_partitive", "check_covering_axioms", "AxiomReport",
    "random_tournament", "random_hypergraph",
]

DEFAULT_BOUND = 20
MAX_EXHAUSTIVE_ORDER = 7


# --- brute-force module listing ------------------------------------------------

def subsets_where(ground: int, keep: Callable[[int], bool]) -> list[int]:
    """Every subset of ``ground`` that ``keep`` accepts, by testing all
    2^|ground| of them; grounds of more than ``DEFAULT_BOUND`` vertices are
    refused before any is tested."""
    size = ground.bit_count()
    if size > DEFAULT_BOUND:
        raise CapacityError("module enumeration", size, DEFAULT_BOUND)
    return [m for m in iter_submasks(ground) if keep(m)]


def _is_module_over(edges: Iterable[int], membership: frozenset[int], m: int) -> bool:
    """Module test for ``m`` against a straddle-candidate edge collection.

    ``membership`` may be any edge set whose restriction to the relevant
    vertex span agrees with ``edges``; swapped edges stay within that span.
    """
    for e in edges:
        inter = e & m
        if inter == 0 or e & ~m == 0:
            continue
        if inter & (inter - 1):  # straddling edge meets m in >= 2 vertices
            return False
        base = e ^ inter
        rest = m ^ inter
        while rest:
            b = rest & -rest
            rest ^= b
            if (base | b) not in membership:
                return False
    return True


def _is_tournament_module(t: Tournament, m: int) -> bool:
    """Interval-style module test: no vertex outside ``m`` splits it by arcs."""
    for v in iter_bits(full_mask(t.n) & ~m):
        s = t.succ[v] & m
        if s != 0 and s != m:
            return False
    return True


def modules_within(h: Hypergraph, w: int) -> list[int]:
    """All modules of the subhypergraph induced by ``w``, as masks within w.

    No re-indexing: an edge of H[w] is an edge of H contained in w, and a
    swap target stays inside w, so membership can be tested against h.edges.
    """
    edges = [e for e in h.edges if e & ~w == 0]
    return subsets_where(w, partial(_is_module_over, edges, h.edges))


def enumerate_modules(h: Hypergraph) -> frozenset[VertexSet]:
    """Exactly the modules of ``h``, including the trivial ones."""
    return frozenset(VertexSet(m) for m in modules_within(h, full_mask(h.n)))


def is_usual_module(h: Hypergraph, vertices: int | Iterable[int]) -> bool:
    """Module in the componentwise-replacement sense, kept as a comparison
    predicate: for every edge e straddling the set, replacing the part of e
    inside the set by any equal-size subset of the set must give an edge.
    """
    m = as_mask(vertices, h.n)
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


def enumerate_usual_modules(h: Hypergraph) -> frozenset[VertexSet]:
    """Exactly the modules of ``h`` in the sense of ``is_usual_module``."""
    return frozenset(VertexSet(m) for m in
                     subsets_where(full_mask(h.n), partial(is_usual_module, h)))


def tournament_modules(t: Tournament) -> frozenset[VertexSet]:
    """Exactly the modules of ``t``, including the trivial ones."""
    return frozenset(VertexSet(m) for m in
                     subsets_where(full_mask(t.n), partial(_is_tournament_module, t)))


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def all_tournaments(n: int) -> Iterator[Tournament]:
    """All 2^(n(n-1)/2) tournaments on 0..n-1.

    Bit k of the enumeration counter orients the k-th pair in lexicographic
    order: bit set means low -> high.  The count and the cap are checked
    when this is called, before the first tournament is asked for.
    """
    if require_count(n) > MAX_EXHAUSTIVE_ORDER:
        raise CapacityError("exhaustive tournament enumeration", n, MAX_EXHAUSTIVE_ORDER)
    return _all_tournaments(n)


def _all_tournaments(n: int) -> Iterator[Tournament]:
    """The tournaments of ``all_tournaments``, for a checked n."""
    pairs = _pairs(n)
    for code in range(1 << len(pairs)):
        succ = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                succ[i] |= 1 << j
            else:
                succ[j] |= 1 << i
        yield Tournament._from_succ(n, tuple(succ))


def brute_force_realizations(h: Hypergraph) -> list[Tournament]:
    """Exactly the tournaments whose 3-cycle triples equal the edge set, in
    the order of ``all_tournaments``.

    The pairs are oriented one at a time, in the order (0,1), (0,2), (1,2),
    (0,3), ...; orienting (i, j) completes the triples {x, i, j} with x < i,
    and a branch is cut as soon as one of them disagrees with the edge set.
    """
    if h.n > MAX_EXHAUSTIVE_ORDER:
        raise CapacityError("exhaustive realization search", h.n, MAX_EXHAUSTIVE_ORDER)
    if not h.is_3_uniform:
        return []
    n = h.n
    below = [[0] * n for _ in range(n)]  # below[i][j]: the x < i with {x, i, j} an edge
    for e in h.edges:
        x, i, j = bit_list(e)
        below[i][j] |= 1 << x
    found: list[tuple[int, ...]] = []
    _orient([(i, j) for j in range(n) for i in range(j)], 0, below, [0] * n, [0] * n, found)
    return [Tournament._from_succ(n, succ)
            for succ in sorted(found, key=partial(_counter, _pairs(n)))]


def _counter(pairs: list[tuple[int, int]], succ: tuple[int, ...]) -> int:
    """The value of ``all_tournaments``' counter at the tournament ``succ``."""
    return sum(1 << k for k, (i, j) in enumerate(pairs) if (succ[i] >> j) & 1)


def _orient(order: list[tuple[int, int]], k: int, below: list[list[int]],
            succ: list[int], pred: list[int], found: list[tuple[int, ...]]) -> None:
    """Append to ``found`` every completion of the orientation of
    ``order[:k]`` (held in ``succ`` and ``pred``) whose completed triples
    are cyclic exactly where ``below`` says."""
    if k == len(order):
        found.append(tuple(succ))
        return
    i, j = order[k]
    for u, v in ((i, j), (j, i)):
        # with u -> v, {x, u, v} is cyclic iff v -> x -> u
        if succ[v] & pred[u] & ((1 << i) - 1) == below[i][j]:
            succ[u] ^= 1 << v
            pred[v] ^= 1 << u
            _orient(order, k + 1, below, succ, pred, found)
            succ[u] ^= 1 << v
            pred[v] ^= 1 << u


# --- isomorphism -----------------------------------------------------------

def _codegrees(h: Hypergraph) -> list[dict[int, int]]:
    """``cd[a][b]``: the number of edges through both a and b, kept only
    when nonzero."""
    cd: list[dict[int, int]] = [{} for _ in range(h.n)]
    for e in h.edges:
        for a, b in combinations(bit_list(e), 2):
            cd[a][b] = cd[a].get(b, 0) + 1
            cd[b][a] = cd[b].get(a, 0) + 1
    return cd


def hypergraph_isomorphism(h1: Hypergraph, h2: Hypergraph) -> list[int] | None:
    """A vertex bijection carrying the edges of h1 exactly onto those of h2.

    Backtracking over vertices in descending degree order, pruned by degree
    and pairwise co-degree invariants, with an explicit stack of the images
    left to try at each depth, so any order is searched without recursion.
    The images tried for v are the vertices of h2 with v's profile, and a
    candidate's co-degrees are compared only with the assigned vertices
    that have a nonzero co-degree with v or with it, so a step costs
    O(degree).  Returns ``phi`` with vertex v of h1 mapped to ``phi[v]``, or
    None.
    """
    if not (h1.is_3_uniform and h2.is_3_uniform):
        raise PreconditionError("isomorphism search expects 3-uniform hypergraphs")
    n = h1.n
    if h2.n != n or len(h1.edges) != len(h2.edges):
        return None
    cd1, cd2 = _codegrees(h1), _codegrees(h2)
    # each edge through v adds 1 to two entries of row v
    deg1 = [sum(row.values()) // 2 for row in cd1]
    deg2 = [sum(row.values()) // 2 for row in cd2]
    # the nonzero co-degrees stand for the whole row, since both have n entries
    prof1 = [(deg1[v], tuple(sorted(cd1[v].values()))) for v in range(n)]
    prof2 = [(deg2[v], tuple(sorted(cd2[v].values()))) for v in range(n)]
    if sorted(prof1) != sorted(prof2):
        return None

    order = sorted(range(n), key=lambda v: (-deg1[v], v))
    rank = {v: i for i, v in enumerate(order)}
    # edges of h1 indexed by the latest vertex to be assigned
    edges_by_last: list[list[int]] = [[] for _ in range(n)]
    for e in h1.edges:
        edges_by_last[max(rank[v] for v in iter_bits(e))].append(e)

    alike: dict[tuple, list[int]] = {}  # the vertices of h2 with each profile
    for w, p in enumerate(prof2):
        alike.setdefault(p, []).append(w)
    phi, used = [-1] * n, [False] * n
    image = [0] * n  # image[v] = 1 << phi[v] once v is assigned, for ``remap``
    tries: list[Iterator[int]] = []  # tries[i]: the images of order[i] left to try
    i = 0
    while i < n:
        v = order[i]
        if i == len(tries):
            tries.append(iter(alike[prof1[v]]))
        else:  # back from depth i + 1, where the image of v found no completion
            used[phi[v]] = False
            phi[v] = -1
        # the co-degrees of v with assigned vertices, carried over by phi:
        # w must have the same ones and no other assigned co-degree partner
        known = [(phi[u], c) for u, c in cd1[v].items() if phi[u] >= 0]
        for w in tries[i]:
            row = cd2[w]
            if (used[w] or any(row.get(a) != c for a, c in known)
                    or sum(used[a] for a in row) != len(known)):
                continue
            phi[v], image[v] = w, 1 << w
            if all(remap(e, image) in h2.edges for e in edges_by_last[i]):
                used[w] = True
                i += 1
                break
            phi[v] = -1
        else:
            tries.pop()
            i -= 1
            if i < 0:
                return None
    return phi


# --- set-family law checking -------------------------------------------------

class AxiomReport:
    """Outcome of an axiom check: a list of violations, empty means pass."""

    def __init__(self, checker: str, seed: int | None = None, samples: int | None = None):
        self.checker = checker
        self.seed = seed
        self.samples = samples
        self.checked = 0
        self.violations: list[dict] = []

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, axiom: str, **witnesses) -> None:
        entry = {"axiom": axiom}
        for key, value in witnesses.items():
            if isinstance(value, int):
                entry[key] = bit_list(value)
            else:
                entry[key] = value
        self.violations.append(entry)

    def to_json(self) -> dict:
        out = {
            "checker": self.checker,
            "checked": self.checked,
            "passed": self.passed,
            "violations": self.violations,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.samples is not None:
            out["samples"] = self.samples
        return out

    def __repr__(self) -> str:
        state = "pass" if self.passed else f"{len(self.violations)} violations"
        return f"AxiomReport({self.checker}: {state})"


def _closure_violations(report: AxiomReport, mods: frozenset[int], ground: int) -> None:
    """Partitive-family closure laws over an explicit module set."""
    if 0 not in mods:
        report.add("trivial-empty", family_missing=0)
    if ground not in mods:
        report.add("trivial-ground", family_missing=ground)
    for v in iter_bits(ground):
        if (1 << v) not in mods:
            report.add("trivial-singleton", family_missing=1 << v)
    ordered = sorted(mods)
    for m in ordered:
        for n_ in ordered:
            if n_ <= m:
                continue
            report.checked += 1
            if m & n_ not in mods:
                report.add("intersection", M=m, N=n_, missing=m & n_)
            if m & n_:
                if m | n_ not in mods:
                    report.add("overlapping-union", M=m, N=n_, missing=m | n_)
                if m & ~n_ and n_ & ~m and (m ^ n_) not in mods:
                    report.add("overlapping-symmetric-difference", M=m, N=n_, missing=m ^ n_)
            if m & ~n_ and (n_ & ~m) not in mods:
                report.add("difference", M=m, N=n_, missing=n_ & ~m)
            if n_ & ~m and (m & ~n_) not in mods:
                report.add("difference", M=n_, N=m, missing=m & ~n_)


def check_partitive(h: Hypergraph) -> AxiomReport:
    """Verify the partitive-family laws of the module set of ``h``.

    Checks the trivial members and closure under intersection, union of
    intersecting pairs, difference (either side nonempty), and symmetric
    difference of overlapping pairs.  Any violation indicates a bug in the
    module predicate, not a property of the input.
    """
    report = AxiomReport("partitive")
    full = full_mask(h.n)
    mods = frozenset(modules_within(h, full))
    _closure_violations(report, mods, full)
    return report


def check_covering_axioms(h: Hypergraph, samples: int = 500, seed: int = 0) -> AxiomReport:
    """Sample the modular-covering axioms of the induced-module assignment.

    Draws ``samples`` tuples (W, W', M, M') with W inside W', M a module of
    the structure induced on W and M' one induced on W', and checks:
    restriction (a module of the larger trace restricts to one of the
    smaller), induced-module transitivity (when W is itself a module of the
    larger trace, its modules are exactly the larger trace's modules inside
    W), disjoint extension, and intersecting union.  Module sets per vertex
    subset are enumerated exactly and cached; the seed is recorded.
    """
    if h.n > DEFAULT_BOUND:
        raise CapacityError("module enumeration", h.n, DEFAULT_BOUND)
    rng = random.Random(seed)
    report = AxiomReport("covering", seed=seed, samples=samples)
    if h.n == 0:
        return report
    full = full_mask(h.n)
    cache: dict[int, list[int]] = {}

    def modules_of(w: int) -> list[int]:
        got = cache.get(w)
        if got is None:
            got = cache[w] = modules_within(h, w)
        return got

    for _ in range(samples):
        w_big = rng.getrandbits(h.n) & full
        w_small = rng.getrandbits(h.n) & w_big
        mods_big = modules_of(w_big)
        mods_small = modules_of(w_small)
        m_big = rng.choice(mods_big)
        m_small = rng.choice(mods_small)
        report.checked += 1

        if (m_big & w_small) not in mods_small:
            report.add("A2-restriction", W=w_small, W_prime=w_big,
                       M_prime=m_big, missing=m_big & w_small)
        if w_small in mods_big:
            inside = {m for m in mods_big if m & ~w_small == 0}
            if inside != set(mods_small):
                report.add("A3-trace-equality", W=w_small, W_prime=w_big,
                           only_in_big=[bit_list(m) for m in sorted(inside - set(mods_small))],
                           only_in_small=[bit_list(m) for m in sorted(set(mods_small) - inside)])
        if m_small & m_big == 0 and m_big & w_small:
            if m_small not in modules_of(w_small | m_big):
                report.add("A4-disjoint-extension", W=w_small, W_prime=w_big,
                           M=m_small, M_prime=m_big)
        if m_small & m_big:
            if (m_small | m_big) not in modules_of(w_small | m_big):
                report.add("A5-intersecting-union", W=w_small, W_prime=w_big,
                           M=m_small, M_prime=m_big)
    return report


# --- random instance generators -----------------------------------------------

def random_tournament(n: int, rng: random.Random) -> Tournament:
    """A uniformly random tournament on 0..n-1."""
    succ = [0] * require_count(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                succ[i] |= 1 << j
            else:
                succ[j] |= 1 << i
    return Tournament._from_succ(n, tuple(succ))


def random_hypergraph(n: int, rng: random.Random, max_edges: int | None = None,
                      sizes: tuple[int, ...] = (2, 3, 4)) -> Hypergraph:
    """A random hypergraph with edge sizes drawn from ``sizes``."""
    require_count(n)
    if max_edges is None:
        max_edges = max(1, n * 2)
    edges = set()
    for _ in range(rng.randrange(max_edges + 1)):
        k = rng.choice(sizes)
        if k > n:
            continue
        edges.add(sum(1 << v for v in rng.sample(range(n), k)))
    return Hypergraph._from_masks(n, frozenset(edges))
