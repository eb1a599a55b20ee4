import copy
import pickle
import random
import re
from itertools import combinations, permutations

import pytest

from c3realize import (
    ExtensionCertificate, Graph, Hypergraph, PreconditionError, RealizationChoice, Tournament,
    VertexSet, c3_structure, critical_family, decomposition_tree, dual, induced_subhypergraph,
    is_linear_order, linear_order, maximal_proper_strong_modules, random_tournament, realize,
)
from c3realize.bitset import as_mask, ranks, remap
from c3realize.core import Frozen
from c3realize.decomposition import is_module
from c3realize.oracle import all_tournaments, random_hypergraph

C3 = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


class TestVertexSet:
    def test_set_behaviour(self):
        s = VertexSet.of([0, 2, 5], 6)
        assert int(s) == 0b100101
        assert list(s) == [0, 2, 5]
        assert len(s) == 3
        assert 2 in s and 1 not in s
        assert s.issubset(VertexSet.of(range(6), 6))
        assert not VertexSet.of([1], 6).issubset(s)

    def test_algebra_is_exact(self):
        a = VertexSet.of([0, 1, 2], 4)
        b = VertexSet.of([2, 3], 4)
        assert a & b == VertexSet.of([2], 4)
        assert a | b == VertexSet.of([0, 1, 2, 3], 4)
        assert a & ~b == VertexSet.of([0, 1], 4)

    def test_negative_index_is_a_precondition_error(self):
        with pytest.raises(PreconditionError, match="negative vertex index -1"):
            VertexSet.of([0, -1], 2)
        assert issubclass(PreconditionError, ValueError)


class TestHypergraph:
    def test_construction_and_flag(self):
        h = Hypergraph(4, [[0, 1, 2], [0, 1, 3]])
        assert h.n == 4
        assert h.edge_lists() == [[0, 1, 2], [0, 1, 3]]
        assert h.is_3_uniform
        assert not Hypergraph(4, [[0, 1], [0, 1, 3]]).is_3_uniform
        assert Hypergraph(3, []).is_3_uniform  # vacuously

    def test_edges_deduplicated(self):
        h = Hypergraph(3, [[0, 1, 2], [0, 1, 2]])
        assert len(h.edges) == 1

    def test_rejects_small_or_out_of_range_edges(self):
        with pytest.raises(PreconditionError):
            Hypergraph(3, [[1]])
        with pytest.raises(PreconditionError):
            Hypergraph(3, [[0, 3]])

    def test_negative_index_is_named(self):
        with pytest.raises(PreconditionError, match="negative vertex index -1"):
            Hypergraph(3, [[-1, 0]])

    def test_equality_is_edge_set_equality(self):
        assert Hypergraph(3, [[0, 1, 2]]) == Hypergraph(3, [[0, 1, 2]])
        assert Hypergraph(3, []) != Hypergraph(4, [])


class TestInducedSubhypergraph:
    def test_filters_contained_edges(self):
        h = Hypergraph(4, [[0, 1, 2], [0, 1, 3]])
        assert induced_subhypergraph(h, [0, 1, 2]) == Hypergraph(3, [[0, 1, 2]])

    def test_full_subset_is_identity(self):
        h = Hypergraph(4, [[0, 1, 2], [0, 1, 3]])
        assert induced_subhypergraph(h, range(4)) == h

    def test_reindexes_by_sorted_position(self):
        h = Hypergraph(5, [[1, 3, 4]])
        sub = induced_subhypergraph(h, [1, 3, 4])
        assert sub == Hypergraph(3, [[0, 1, 2]])

    def test_c3_t5_restriction(self):
        # derived by filtering the brute-forced triple structure of T5
        h = c3_structure(critical_family("T", 5))
        sub = induced_subhypergraph(h, [0, 1, 2, 3])
        assert sub.edge_lists() == [[0, 1, 2], [1, 2, 3]]

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            induced_subhypergraph(Hypergraph(3, []), [0, 3])


class TestC3Structure:
    def test_three_cycle(self):
        assert c3_structure(C3) == Hypergraph(3, [[0, 1, 2]])

    def test_linear_order_has_no_edges(self):
        assert c3_structure(linear_order(3)).edges == frozenset()
        assert c3_structure(linear_order(6)).edges == frozenset()

    def test_t5_triples(self):
        # frozen from per-triple cycle checks over all 10 triples of T5
        h = c3_structure(critical_family("T", 5))
        assert h.edge_lists() == [[0, 1, 2], [0, 1, 4], [0, 3, 4], [1, 2, 3], [2, 3, 4]]


class TestDual:
    def test_reverses_cycle(self):
        assert dual(C3) == Tournament.from_arcs(3, [(1, 0), (2, 1), (0, 2)])

    def test_reverses_linear_order(self):
        d = dual(linear_order(3))
        assert sorted(d.arcs()) == [(1, 0), (2, 0), (2, 1)]

    def test_involution(self):
        t = critical_family("U", 7)
        assert dual(dual(t)) == t

    def test_c3_is_self_dual(self):
        for t in (C3, linear_order(4), critical_family("W", 5)):
            assert c3_structure(dual(t)) == c3_structure(t)


class TestLinearOrder:
    def test_arcs_of_l3(self):
        assert sorted(linear_order(3).arcs()) == [(0, 1), (0, 2), (1, 2)]

    def test_predicate(self):
        assert not is_linear_order(C3)
        assert is_linear_order(linear_order(7))
        assert is_linear_order(dual(linear_order(5)))

    def test_rejects_non_positive_order(self):
        with pytest.raises(PreconditionError):
            linear_order(0)


class TestCriticalFamily:
    def test_t_reverses_mixed_parity(self):
        t5 = critical_family("T", 5)
        assert t5.has_arc(1, 0)       # 0,1 differ in parity: reversed
        assert t5.has_arc(0, 2)       # both even: kept
        assert t5.has_arc(1, 3)       # both odd: kept

    def test_u_reverses_even_pairs(self):
        u5 = critical_family("U", 5)
        assert u5.has_arc(2, 0)       # both even: reversed
        assert u5.has_arc(0, 1)       # mixed: kept
        assert u5.has_arc(1, 3)       # both odd: kept

    def test_w_reverses_top_to_even(self):
        w5 = critical_family("W", 5)
        assert w5.has_arc(4, 0)       # top vs even: reversed
        assert w5.has_arc(1, 4)       # top vs odd: kept
        assert w5.has_arc(0, 1)       # below top: kept

    @pytest.mark.parametrize("kind", ["T", "U", "W"])
    @pytest.mark.parametrize("n", [4, 6, 3, 1])
    def test_rejects_bad_orders(self, kind, n):
        with pytest.raises(PreconditionError):
            critical_family(kind, n)

    def test_rejects_bad_kind(self):
        with pytest.raises(PreconditionError):
            critical_family("X", 5)


class TestTournament:
    def test_needs_exactly_one_arc_per_pair(self):
        with pytest.raises(PreconditionError):
            Tournament(2, [0, 0])
        with pytest.raises(PreconditionError):
            Tournament(2, [0b10, 0b01])
        with pytest.raises(PreconditionError):
            Tournament.from_arcs(2, [(0, 0)])

    @pytest.mark.parametrize("succ, fragment", [
        ("ab", "out-neighbour masks must be ints"),
        ([0], "need 2 out-neighbour masks"),
    ])
    def test_refuses_malformed_successor_rows(self, succ, fragment):
        with pytest.raises(PreconditionError, match=fragment):
            Tournament(2, succ)

    def test_arc_messages_name_the_item(self):
        with pytest.raises(PreconditionError, match=r"invalid arc 5"):
            Tournament.from_arcs(3, [5])
        with pytest.raises(PreconditionError, match=r"invalid arc \(0,0\)"):
            Tournament.from_arcs(2, [(0, 0)])

    def test_induced_reindexes(self):
        t5 = critical_family("T", 5)
        sub = t5.induced([0, 2, 4])
        # arcs among 0,2,4 in T5: 0->2, 0->4, 2->4 (all even: kept from L5)
        assert sorted(sub.arcs()) == [(0, 1), (0, 2), (1, 2)]

    def test_relabel(self):
        t = C3.relabel([1, 2, 0])
        assert t.has_arc(1, 2) and t.has_arc(2, 0) and t.has_arc(0, 1)

    @pytest.mark.parametrize("phi,fragment", [
        # the images were not checked: vertex 0 came out beating itself
        ([0, 0, 1, 2, 3], "listed twice"),
        ([0, 1, 2, 3, 5], "not within 0..4"),
        ({0: 1, 1: 2, 2: 3, 3: 4, 5: 0}, "phi must map"),
        ([1, 2, 3, 4, 0, 5], "phi must map"),
        ({0: 1, 1: 2, 2: 3, 3: 4, 4: 0, 5: 5}, "phi must map"),
        ([True, 2, 3, 4, 0], "must be an int"),
    ], ids=["repeated-image", "image-out-of-range", "missing-key", "longer-list",
            "longer-dict", "bool-image"])
    def test_relabel_refuses_non_bijection(self, phi, fragment):
        with pytest.raises(PreconditionError, match=fragment):
            critical_family("T", 5).relabel(phi)

    def test_scores(self):
        assert linear_order(4).scores() == [3, 2, 1, 0]


def first_bad_pair(succ):
    """The first pair {i, j}, i < j, without exactly one arc, or None."""
    n = len(succ)
    return next(((i, j) for i, j in combinations(range(n), 2)
                 if (succ[i] >> j) & 1 == (succ[j] >> i) & 1), None)


class TestTournamentValidation:
    """The arc count and the walk over upward arcs give the same verdict,
    and the same message, as a check of every pair."""

    def check(self, succ):
        bad = first_bad_pair(succ)
        if bad is None:
            assert Tournament(len(succ), succ).succ == tuple(succ)
        else:
            with pytest.raises(PreconditionError,
                               match=re.escape(f"pair {{{bad[0]},{bad[1]}}} must")):
                Tournament(len(succ), succ)

    def test_every_loopless_digraph_up_to_four_vertices(self):
        for n in range(5):
            arcs = list(permutations(range(n), 2))
            for code in range(1 << len(arcs)):
                succ = [0] * n
                for k, (u, v) in enumerate(arcs):
                    if (code >> k) & 1:
                        succ[u] |= 1 << v
                self.check(succ)

    def test_near_tournaments(self):
        rng = random.Random(81)
        seen = set()
        for _ in range(300):
            n = rng.randint(2, 14)
            succ = list(random_tournament(n, rng).succ)
            u, v = rng.sample(range(n), 2)
            if not (succ[u] >> v) & 1:
                u, v = v, u
            how = rng.choice(("flipped", "doubled", "dropped"))
            if how == "flipped":
                succ[u] ^= 1 << v
                succ[v] |= 1 << u
            elif how == "doubled":
                succ[v] |= 1 << u
            else:
                succ[u] ^= 1 << v
            self.check(succ)
            seen.add((how, first_bad_pair(succ) is None))
        assert seen == {("flipped", True), ("doubled", False), ("dropped", False)}


class TestGraph:
    def test_basics(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.edges() == [(0, 1), (2, 3)]

    def test_rejects_loops(self):
        with pytest.raises(PreconditionError):
            Graph(2, [(1, 1)])


@pytest.mark.parametrize("make", [
    lambda: Hypergraph(3, [[0, 1, 2]]),
    lambda: C3,
    lambda: Graph(2, [(0, 1)]),
    lambda: maximal_proper_strong_modules(Hypergraph(3, [])),
    lambda: decomposition_tree(Hypergraph(3, [])).root,
    lambda: decomposition_tree(Hypergraph(3, [])),
    lambda: realize(Hypergraph(4, list(combinations(range(4), 3)))),
    lambda: ExtensionCertificate(0, Graph(0), 0, 0, 0, 0, 0, "ok"),
    lambda: RealizationChoice({}, {}, {}),
], ids=["Hypergraph", "Tournament", "Graph", "ModularPartition", "TreeNode",
        "DecompositionTree", "NonRealizabilityWitness", "ExtensionCertificate",
        "RealizationChoice"])
def test_values_refuse_assignment_and_deletion(make):
    value = make()
    name = type(value).__slots__[0]
    kept = getattr(value, name)
    message = f"^{type(value).__name__} is immutable$"
    with pytest.raises(AttributeError, match=message):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=message):
        delattr(value, name)
    assert getattr(value, name) is kept


class TestRenumbering:
    """``remap`` and ``ranks`` against their per-bit definitions, and the
    renumbering of every structure against one written from the members
    in sorted order."""

    def test_remap_is_the_union_of_the_images(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(0, 70)
            images = [rng.getrandbits(n) for _ in range(n)]
            mask = rng.getrandbits(n)
            want = 0
            for v in range(n):
                if (mask >> v) & 1:
                    want |= images[v]
            assert remap(mask, images) == want

    def test_ranks_number_the_members_in_order(self):
        rng = random.Random(62)
        for _ in range(300):
            n = rng.randint(0, 70)
            w = rng.getrandbits(n)
            members = [v for v in range(n) if (w >> v) & 1]
            images = ranks(w, n)
            assert images == [1 << members.index(v) if v in members else 0
                              for v in range(n)]
            m = rng.getrandbits(n)
            assert remap(m, images) == sum(1 << i for i, v in enumerate(members)
                                           if (m >> v) & 1)

    def test_induced_and_relabel_against_brute_force(self):
        rng = random.Random(63)
        for _ in range(400):
            n = rng.randint(1, 9)
            t = random_tournament(n, rng)
            w = rng.getrandbits(n)
            old = [v for v in range(n) if (w >> v) & 1]
            sub = t.induced(w)
            assert sub.n == len(old)
            assert set(sub.arcs()) == {(i, j) for i, u in enumerate(old)
                                       for j, v in enumerate(old) if t.has_arc(u, v)}
            phi = list(range(n))
            rng.shuffle(phi)
            assert set(t.relabel(phi).arcs()) == {(phi[u], phi[v]) for u, v in t.arcs()}
            edges = [rng.sample(range(n), rng.randint(2, n)) for _ in range(5)] if n > 1 else []
            h = c3_structure(t) if rng.random() < 0.5 else Hypergraph(n, edges)
            assert induced_subhypergraph(h, w).edge_lists() == sorted(
                [old.index(v) for v in e] for e in h.edge_lists() if set(e) <= set(old))


def value_state(value):
    """The slots of a value, recursively, as plain data to compare."""
    if isinstance(value, Frozen):
        return (type(value), tuple(value_state(getattr(value, name))
                                   for name in type(value).__slots__))
    if isinstance(value, (tuple, list)):
        return tuple(map(value_state, value))
    if isinstance(value, dict):
        return sorted((k, value_state(v)) for k, v in value.items())
    return value


H_BLOWN = Hypergraph(5, [[0, 1, 2], [0, 1, 3], [2, 3, 4], [1, 2, 4]])


@pytest.mark.parametrize("make", [
    lambda: H_BLOWN,
    lambda: critical_family("T", 5),
    lambda: Graph(4, [(0, 1), (1, 3)]),
    lambda: maximal_proper_strong_modules(c3_structure(linear_order(4))),
    lambda: decomposition_tree(c3_structure(critical_family("U", 5))).root,
    lambda: decomposition_tree(critical_family("W", 7)),
    lambda: realize(Hypergraph(5, list(combinations(range(4), 3)))),
    lambda: ExtensionCertificate(1, Graph(3, [(0, 2)]), 2, 1, 4, 0, 2, "ok"),
    lambda: RealizationChoice({7: (1, 0, 2)}, {31: True}, {31: critical_family("T", 5)}),
], ids=["Hypergraph", "Tournament", "Graph", "ModularPartition", "TreeNode",
        "DecompositionTree", "NonRealizabilityWitness", "ExtensionCertificate",
        "RealizationChoice"])
def test_values_copy_and_pickle(make):
    value = make()
    name = type(value).__slots__[0]
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert value_state(clone) == value_state(value)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(clone, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(clone, name)


@pytest.mark.parametrize("make", [
    lambda: Hypergraph(3, [[True, 2]]),
    lambda: Tournament(True, [0]),
    lambda: Tournament.from_arcs(2, [(True, 0)]),
    lambda: Graph(2, [(True, 0)]),
    lambda: is_module(Hypergraph(3, []), True),
    lambda: Hypergraph(3, [[0, 0, 1]]),
    lambda: Hypergraph(3, [[0.0, 1, 2]]),
    lambda: Hypergraph(2.0, []),
    lambda: Graph(2.0),
    lambda: as_mask(1.5, 2),
    # each of these built a structure or raised TypeError or ValueError
    lambda: linear_order(True),
    lambda: linear_order(3.0),
    lambda: critical_family("T", 7.0),
    lambda: random_tournament(-1, random.Random(1)),
    lambda: random_tournament(True, random.Random(1)),
    lambda: random_hypergraph(-1, random.Random(1)),
    lambda: next(all_tournaments(-1)),
    lambda: Tournament.from_arcs(3, [5]),
    lambda: Tournament.from_arcs(3, [(0, 1, 2)]),
    lambda: Graph(3, [(0,)]),
], ids=["bool-index", "bool-count", "bool-arc", "bool-edge", "bool-mask", "repeated-index",
        "float-index", "float-count", "graph-float-count", "float-mask",
        "linear_order-bool", "linear_order-float", "critical_family-float",
        "random_tournament-negative", "random_tournament-bool", "random_hypergraph-negative",
        "all_tournaments-negative", "arc-not-a-pair", "arc-triple", "edge-single"])
def test_malformed_indices_and_counts_refused(make):
    with pytest.raises(PreconditionError):
        make()


@pytest.mark.parametrize("bad", [-1, 3, 1.5, True], ids=["negative", "n", "float", "bool"])
@pytest.mark.parametrize("read", [
    lambda x: Graph(3, [(0, 2)]).has_edge(x, 0),
    lambda x: Graph(3, [(0, 2)]).has_edge(0, x),
    lambda x: C3.has_arc(x, 0),
    lambda x: C3.has_arc(0, x),
], ids=["has_edge-u", "has_edge-v", "has_arc-u", "has_arc-v"])
def test_vertex_reads_refuse_indices_outside_the_range(read, bad):
    # Graph(3, [(0, 2)]).has_edge(-1, 0) read row 2 and answered True
    with pytest.raises(PreconditionError):
        read(bad)


def test_vertex_reads_within_the_range():
    g = Graph(3, [(0, 2)])
    assert [g.has_edge(0, v) for v in range(3)] == [False, False, True]
    assert [C3.has_arc(0, v) for v in range(3)] == [False, True, False]
    assert [C3.has_arc(v, 0) for v in range(3)] == [False, False, True]
