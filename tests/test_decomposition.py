import gc
import random
import time
import tracemalloc
from itertools import combinations
from math import factorial

import pytest

from c3realize import (
    CapacityError, Hypergraph, InvariantError, ModularPartition, PreconditionError,
    Tournament, VertexSet, all_tournaments, c3_structure, components, count_realizations,
    critical_family, decomposition, decomposition_tree,
    enumerate_modules, enumerate_realizations, enumerate_usual_modules, is_module, is_prime,
    is_strong_module, is_usual_module, linear_order,
    maximal_proper_strong_modules, module_violation, quotient, random_hypergraph,
    random_tournament, realization, realize, realize_prime,
    smallest_strong_module_containing, strong_modules,
    tournament_decomposition_tree, tournament_is_module, tournament_is_prime,
    tournament_modules, tournament_pi, tournament_quotient,
    tournament_strong_modules,
)
from c3realize.decomposition import LABEL_EMPTY, LABEL_LINEAR, LABEL_PRIME

H4 = Hypergraph(4, [[0, 1, 2], [0, 1, 3]])
C3 = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def vs(*vertices):
    return VertexSet.of(vertices, 6)  # the sets expected below lie within 0..5


class TestIsModule:
    def test_pair_meeting_edges_twice_is_not_a_module(self):
        h = Hypergraph(5, [[0, 1, p] for p in (2, 3, 4)])
        assert not is_module(h, [0, 1])

    def test_whole_vertex_set(self):
        h = Hypergraph(5, [[0, 1, p] for p in (2, 3, 4)])
        assert is_module(h, range(5))

    def test_swappable_pair(self):
        assert is_module(H4, [2, 3])

    def test_negative_index_is_named(self):
        with pytest.raises(PreconditionError, match="negative vertex index -1"):
            is_module(H4, [-1])
        with pytest.raises(PreconditionError, match="negative vertex mask -1"):
            is_module(H4, -1)
        with pytest.raises(PreconditionError, match="negative vertex mask -2"):
            H4.induced(-2)

    def test_violation_edge_reported(self):
        h = Hypergraph(5, [[0, 1, p] for p in (2, 3, 4)])
        assert module_violation(h, [0, 1]) == vs(0, 1, 2)
        assert module_violation(H4, [2, 3]) is None
        # failing swap: {1,2} straddles {0,1,2} but {0,2,3} is missing
        h2 = Hypergraph(4, [[0, 1, 2]])
        assert module_violation(h2, [1, 3]) == vs(0, 1, 2)

    def test_tournament(self):
        # in 0 -> 1 -> 2 -> 3 (and every arc upward), 1 splits {0, 2}
        t = linear_order(4)
        assert is_module(t, [1, 2]) and is_module(t, range(4))
        assert not is_module(t, [0, 2])
        assert tournament_is_module is is_module
        with pytest.raises(PreconditionError, match="not within"):
            is_module(t, [4])
        with pytest.raises(PreconditionError, match="needs a hypergraph"):
            module_violation(t, [1, 2])


class TestIsUsualModule:
    def test_remark_pair_is_usual(self):
        h = Hypergraph(5, [[0, 1, p] for p in (2, 3, 4)])
        assert is_usual_module(h, [0, 1])

    def test_singletons_always(self):
        for v in range(4):
            assert is_usual_module(H4, [v])

    def test_incomplete_replacement_fails(self):
        h = Hypergraph(4, [[0, 1, 2]])
        assert not is_usual_module(h, [2, 3])

    def test_module_implies_usual_module(self):
        for m in enumerate_modules(H4):
            assert is_usual_module(H4, m)


class TestEnumerateModules:
    def test_empty_hypergraph_has_full_power_set(self):
        assert len(enumerate_modules(Hypergraph(3, []))) == 8

    def test_single_triple_has_only_trivial_modules(self):
        mods = enumerate_modules(Hypergraph(3, [[0, 1, 2]]))
        assert mods == {vs(), vs(0), vs(1), vs(2), vs(0, 1, 2)}

    def test_c3_of_u5_is_prime(self):
        h = c3_structure(critical_family("U", 5))
        mods = enumerate_modules(h)
        assert len(mods) == 2 + 5
        assert is_prime(h)

    def test_capacity_bound_is_named(self):
        with pytest.raises(CapacityError, match="20"):
            enumerate_modules(Hypergraph(21, []))
        assert len(enumerate_modules(Hypergraph(4, []), bound=4)) == 16

    def test_usual_modules_enumeration(self):
        h = Hypergraph(5, [[0, 1, p] for p in (2, 3, 4)])
        usual = enumerate_usual_modules(h)
        assert vs(0, 1) in usual
        assert usual >= enumerate_modules(h)


class TestStrongModules:
    def test_empty_hypergraph(self):
        sm = strong_modules(Hypergraph(3, []))
        assert sm == {vs(), vs(0), vs(1), vs(2), vs(0, 1, 2)}
        assert is_module(Hypergraph(3, []), [0, 1])
        assert not is_strong_module(Hypergraph(3, []), [0, 1])

    def test_prime_has_trivial_strong_modules(self):
        h = c3_structure(critical_family("T", 5))
        assert strong_modules(h) == {vs()} | {vs(v) for v in range(5)} | {vs(*range(5))}

    def test_pair_in_h4_is_strong(self):
        assert is_strong_module(H4, [2, 3])
        assert vs(2, 3) in strong_modules(H4)


class TestMaximalProperStrongModules:
    def test_empty_hypergraph_gives_singletons(self):
        pi = maximal_proper_strong_modules(Hypergraph(3, []))
        assert [list(b) for b in pi.blocks] == [[0], [1], [2]]

    def test_h4(self):
        pi = maximal_proper_strong_modules(H4)
        assert [list(b) for b in pi.blocks] == [[0], [1], [2, 3]]

    def test_prime_gives_singletons(self):
        h = c3_structure(critical_family("W", 5))
        pi = maximal_proper_strong_modules(h)
        assert len(pi) == 5

    def test_needs_two_vertices(self):
        with pytest.raises(PreconditionError):
            maximal_proper_strong_modules(Hypergraph(1, []))


class TestModularPartition:
    def test_validates_blocks_are_modules(self):
        with pytest.raises(PreconditionError):
            ModularPartition(Hypergraph(3, [[0, 1, 2]]), [[0, 1], [2]])

    def test_refuses_an_empty_block(self):
        with pytest.raises(PreconditionError, match="must be nonempty"):
            ModularPartition(Hypergraph(3, []), [[0, 1, 2], []])

    def test_validates_cover_and_disjointness(self):
        with pytest.raises(PreconditionError):
            ModularPartition(Hypergraph(3, []), [[0], [1]])
        with pytest.raises(PreconditionError):
            ModularPartition(Hypergraph(3, []), [[0, 1], [1, 2]])

    def test_block_canonical_order(self):
        p = ModularPartition(H4, [[2, 3], [1], [0]])
        assert [list(b) for b in p.blocks] == [[0], [1], [2, 3]]

    def test_block_of(self):
        p = ModularPartition(H4, [[2, 3], [1], [0]])
        assert [p.block_of(v) for v in range(4)] == [0, 1, 2, 2]
        with pytest.raises(PreconditionError, match="vertex 4 not covered"):
            p.block_of(4)

    @pytest.mark.parametrize("bad", [-1, 4, 1.5, True], ids=["negative", "n", "float", "bool"])
    def test_block_of_refuses_indices_outside_the_range(self, bad):
        # -1 raised ValueError (a negative shift), 1.5 TypeError, and True
        # was read as vertex 1
        p = ModularPartition(H4, [[2, 3], [1], [0]])
        with pytest.raises(PreconditionError, match="not covered"):
            p.block_of(bad)


class TestQuotient:
    def test_by_singletons_is_isomorphic_copy(self):
        p = ModularPartition(H4, [[0], [1], [2], [3]])
        assert quotient(H4, p) == H4

    def test_empty_quotient(self):
        h = Hypergraph(4, [])
        p = ModularPartition(h, [[0, 1], [2, 3]])
        assert quotient(h, p).edges == frozenset()

    def test_h4_quotient_is_single_triple(self):
        q = quotient(H4, maximal_proper_strong_modules(H4))
        assert q == Hypergraph(3, [[0, 1, 2]])

    def test_non_modular_partition_rejected(self):
        with pytest.raises(PreconditionError):
            quotient(Hypergraph(3, [[0, 1, 2]]), [[0, 1], [2]])


class TestComponents:
    def test_empty(self):
        assert components(Hypergraph(3, [])) == [vs(0), vs(1), vs(2)]

    def test_isolated_vertex(self):
        assert components(Hypergraph(4, [[0, 1, 2]])) == [vs(0, 1, 2), vs(3)]

    def test_chained_edges(self):
        h = Hypergraph(6, [[0, 1, 2], [2, 3, 4]])
        assert components(h) == [vs(0, 1, 2, 3, 4), vs(5)]


class TestDecompositionTree:
    def test_single_triple(self):
        tree = decomposition_tree(Hypergraph(3, [[0, 1, 2]]))
        assert tree.root.label == LABEL_PRIME
        assert all(c.is_leaf for c in tree.root.children)

    def test_empty_three(self):
        tree = decomposition_tree(Hypergraph(3, []))
        assert tree.root.label == LABEL_EMPTY
        assert len(tree.root.children) == 3

    def test_nested_blowup(self):
        # one 3-cycle vertex blown into a 2-chain: c3 gives exactly H4
        t = Tournament.from_arcs(4, [(0, 1), (1, 2), (1, 3), (2, 0), (3, 0), (2, 3)])
        assert c3_structure(t) == H4
        tree = decomposition_tree(H4)
        assert tree.root.label == LABEL_PRIME
        members = [list(c.members) for c in tree.root.children]
        assert members == [[0], [1], [2, 3]]
        inner = tree.root.children[2]
        assert inner.label == LABEL_EMPTY
        assert len(inner.children) == 2

    def test_single_vertex_is_leaf(self):
        tree = decomposition_tree(Hypergraph(1, []))
        assert tree.root.is_leaf

    def test_zero_vertices_rejected(self):
        with pytest.raises(PreconditionError):
            decomposition_tree(Hypergraph(0, []))

    def test_nodes_are_strong_modules(self):
        for h in (H4, Hypergraph(4, []), c3_structure(critical_family("T", 5))):
            tree = decomposition_tree(h)
            assert tree.node_members() | {vs()} == strong_modules(h)

    def test_complete_graph_label(self):
        h = Hypergraph(2, [[0, 1]])
        tree = decomposition_tree(h)
        assert tree.root.label == "complete"

    def test_json_export(self):
        got = decomposition_tree(H4).to_json()
        assert got == {
            "module": [0, 1, 2, 3], "label": "△",
            "children": [
                {"module": [0], "label": None, "children": []},
                {"module": [1], "label": None, "children": []},
                {"module": [2, 3], "label": "◯", "children": [
                    {"module": [2], "label": None, "children": []},
                    {"module": [3], "label": None, "children": []},
                ]},
            ],
        }

    def test_dot_export_is_deterministic(self):
        dot = decomposition_tree(H4).to_dot()
        assert dot.startswith("digraph decomposition {")
        assert 'label="△ {0,1,2,3}"' in dot
        assert 'label="◯ {2,3}"' in dot
        assert dot == decomposition_tree(H4).to_dot()


class TestSmallestStrongModule:
    def test_whole_set(self):
        assert smallest_strong_module_containing(H4, range(4)) == vs(0, 1, 2, 3)

    def test_singleton(self):
        assert smallest_strong_module_containing(H4, [2]) == vs(2)

    def test_pair(self):
        assert smallest_strong_module_containing(H4, [2, 3]) == vs(2, 3)
        assert smallest_strong_module_containing(H4, [1, 2]) == vs(0, 1, 2, 3)

    def test_agrees_with_tree(self):
        h = c3_structure(critical_family("U", 5))
        tree = decomposition_tree(h)
        for s in ([0, 1], [2], [1, 3, 4]):
            assert tree.lowest_node_containing(s).members == \
                smallest_strong_module_containing(h, s)

    def test_empty_set_rejected(self):
        with pytest.raises(PreconditionError):
            smallest_strong_module_containing(H4, [])


class TestTournamentModules:
    def test_linear_order_modules_are_intervals(self):
        mods = tournament_modules(linear_order(3))
        assert mods == {vs(), vs(0), vs(1), vs(2), vs(0, 1), vs(1, 2), vs(0, 1, 2)}

    def test_three_cycle_is_prime(self):
        assert tournament_modules(C3) == {vs(), vs(0), vs(1), vs(2), vs(0, 1, 2)}
        assert tournament_is_prime(C3)

    def test_u5_is_prime(self):
        assert tournament_is_prime(critical_family("U", 5))

    def test_is_module_predicate(self):
        assert tournament_is_module(linear_order(4), [1, 2])
        assert not tournament_is_module(linear_order(4), [1, 3])

    def test_pi_and_quotient(self):
        # 3-cycle of blocks: {0,1} as a chain into a 3-cycle with 2, 3
        t = Tournament.from_arcs(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (3, 1)])
        pi = tournament_pi(t)
        assert [list(b) for b in pi.blocks] == [[0, 1], [2], [3]]
        q = tournament_quotient(t, pi)
        assert sorted(q.arcs()) == [(0, 1), (1, 2), (2, 0)]

    def test_strong_modules_match_tree(self):
        t = critical_family("W", 5)
        tree = tournament_decomposition_tree(t)
        assert tree.node_members() | {vs()} == tournament_strong_modules(t)


class TestTournamentTree:
    def test_linear_order_tree(self):
        tree = tournament_decomposition_tree(linear_order(4))
        assert tree.root.label == LABEL_LINEAR
        assert len(tree.root.children) == 4

    def test_prime_tree(self):
        tree = tournament_decomposition_tree(critical_family("T", 5))
        assert tree.root.label == LABEL_PRIME

    def test_nested(self):
        t = Tournament.from_arcs(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (3, 1)])
        tree = tournament_decomposition_tree(t)
        assert tree.root.label == LABEL_PRIME
        chain = tree.root.children[0]
        assert list(chain.members) == [0, 1]
        assert chain.label == LABEL_LINEAR

    def test_json_uses_word_labels(self):
        got = tournament_decomposition_tree(linear_order(2)).to_json()
        assert got["label"] == "linear"


def flat(n, label):
    """The JSON of a root over n leaves."""
    return {"module": list(range(n)), "label": label,
            "children": [{"module": [v], "label": None, "children": []} for v in range(n)]}


class TestWideNodes:
    """Empty, complete and linear nodes with many children.  The pair closures
    of such a node are about k^2/2 distinct sets, which a comparison of every
    closure with every other would pay for in O(k^4)."""

    def test_empty_root_over_200_leaves(self):
        start = time.perf_counter()
        tree = decomposition_tree(Hypergraph(200, []))
        assert time.perf_counter() - start < 3
        assert tree.to_json() == flat(200, "◯")

    def test_complete_2_uniform_on_60(self):
        tree = decomposition_tree(Hypergraph(60, combinations(range(60), 2)))
        assert tree.to_json() == flat(60, "●")

    def test_linear_order_100(self):
        start = time.perf_counter()
        tree = tournament_decomposition_tree(linear_order(100))
        assert time.perf_counter() - start < 3
        assert tree.to_json() == flat(100, "linear")

    def test_linear_order_1000(self):
        # not strongly connected: the root is split into 1000 single
        # vertices after the closure of {0, 1}, the first of vertex 0's
        # pairs and the first to fall short of the whole set
        start = time.perf_counter()
        tree = tournament_decomposition_tree(linear_order(1000))
        assert time.perf_counter() - start < 2
        assert tree.to_json() == flat(1000, "linear")

    def test_empty_root_over_1000_leaves(self):
        start = time.perf_counter()
        tree = decomposition_tree(Hypergraph(1000, []))
        assert time.perf_counter() - start < 2
        assert tree.to_json() == flat(1000, "◯")

    def test_empty_root_over_10_000_leaves(self):
        # a vertex in no edge has no span row of its own: the table is not
        # 10^8 cells
        start = time.perf_counter()
        tree = decomposition_tree(Hypergraph(10_000, []))
        assert time.perf_counter() - start < 2
        assert tree.to_json() == flat(10_000, "◯")

    def test_linear_order_of_40_three_cycles(self):
        k = 40
        arcs = [(3 * i + a, 3 * i + (a + 1) % 3) for i in range(k) for a in range(3)]
        arcs += [(u, v) for u in range(3 * k) for v in range(3 * (u // 3 + 1), 3 * k)]
        t = Tournament.from_arcs(3 * k, arcs)
        h = c3_structure(t)
        blocks = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(k)]
        tree = decomposition_tree(h)
        assert tree.root.label == LABEL_EMPTY
        assert [list(c.members) for c in tree.root.children] == blocks
        assert all(c.label == LABEL_PRIME and len(c.children) == 3 for c in tree.root.children)
        ttree = tournament_decomposition_tree(t)
        assert ttree.root.label == LABEL_LINEAR
        assert [list(c.members) for c in ttree.root.children] == blocks
        assert count_realizations(h) == factorial(k) * 2 ** k


class TestLabelGuard:
    """With closures that return their argument every pair looks like a
    module, the sweep puts every vertex under one root, and only the prime
    label's re-check can notice."""

    def test_broken_closures_raise(self, monkeypatch):
        monkeypatch.setattr(decomposition, "_hypergraph_closure", lambda h: lambda s, w=0: s)
        monkeypatch.setattr(decomposition, "_tournament_closure", lambda t: lambda s: s)
        t = critical_family("T", 5)
        with pytest.raises(InvariantError, match="must be prime"):
            decomposition_tree(c3_structure(t))
        with pytest.raises(InvariantError, match="linear or prime"):
            tournament_decomposition_tree(t)


def spy_on_closures(monkeypatch, calls):
    """Make both closure factories record the arguments of every closure
    their closures run in ``calls``."""
    for name in ("_hypergraph_closure", "_tournament_closure"):
        def factory(host, real=getattr(decomposition, name)):
            close = real(host)

            def spy(*args):
                calls.append(args)
                return close(*args)
            spy.__dict__.update(close.__dict__)
            return spy
        monkeypatch.setattr(decomposition, name, factory)


def spy_on_pair_tests(monkeypatch, calls, pair_tests):
    """Make ``decomposition._pair_keeps_prime``, the pair test of every chain
    of prime sets, record in ``pair_tests`` how many closures each call adds
    to ``calls``."""
    real = decomposition._pair_keeps_prime

    def pair_spy(*args):
        before = len(calls)
        keeps = real(*args)
        pair_tests.append(len(calls) - before)
        return keeps
    monkeypatch.setattr(decomposition, "_pair_keeps_prime", pair_spy)


def spy_on_pair_test_args(monkeypatch, h):
    """A function that runs ``run(h)`` and returns the arguments, but the
    closure, of each ``decomposition._pair_keeps_prime`` call it made."""
    args = []
    real = decomposition._pair_keeps_prime

    def pair_spy(close, x, twins, p, q):
        args.append((x, dict(twins), p, q))
        return real(close, x, twins, p, q)
    monkeypatch.setattr(decomposition, "_pair_keeps_prime", pair_spy)

    def pair_tests(run):
        args.clear()
        run(h)
        return args[:]
    return pair_tests


class TestOneClosurePerPair:
    """A tree closes each vertex pair at most once: its prime labels are read
    from the sweep's count of its pair closures, not from closures of their
    own, and a prime root proved by a chain of prime sets closes only the
    pairs of vertex 0 and the chain's pair tests."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_trees_of_a_prime_14_tournament(self, monkeypatch, seed):
        t = random_tournament(14, random.Random(seed))
        h = c3_structure(t)
        calls, pair_tests = [], []
        spy_on_closures(monkeypatch, calls)
        spy_on_pair_tests(monkeypatch, calls, pair_tests)
        for build, host in ((decomposition_tree, h), (tournament_decomposition_tree, t)):
            tree = build(host)
            assert tree.root.label == LABEL_PRIME and len(tree.root.children) == 14
            assert all(2 <= k <= 4 for k in pair_tests)
            assert len(calls) == 13 + sum(pair_tests)
            assert len(set(calls)) == len(calls)
            calls.clear()
            pair_tests.clear()

    def test_count_adds_only_the_growth_pair_tests(self, monkeypatch):
        h = c3_structure(random_tournament(14, random.Random(0)))
        calls, pair_tests = [], []
        spy_on_closures(monkeypatch, calls)
        spy_on_pair_tests(monkeypatch, calls, pair_tests)
        assert count_realizations(h) == 2
        # no prime 4-set is realizable, so the chain takes a two-vertex step;
        # growth takes the tree's chain and makes no pair test of its own
        assert pair_tests and all(2 <= k <= 4 for k in pair_tests)
        assert len(calls) == 13 + sum(pair_tests)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_growth_takes_the_tree_s_chain(self, monkeypatch, seed):
        h = c3_structure(random_tournament(14, random.Random(seed)))
        pair_tests = spy_on_pair_test_args(monkeypatch, h)
        tree_tests = pair_tests(decomposition_tree)
        assert tree_tests
        assert pair_tests(realize) == tree_tests
        assert pair_tests(count_realizations) == tree_tests
        assert pair_tests(lambda h: next(enumerate_realizations(h))) == tree_tests

    @pytest.mark.parametrize("seed", [0, 1])
    def test_realize_prime_takes_its_precheck_s_chain(self, monkeypatch, seed):
        h = c3_structure(random_tournament(14, random.Random(seed)))
        pair_tests = spy_on_pair_test_args(monkeypatch, h)
        expected = pair_tests(is_prime)
        assert expected
        assert pair_tests(realize_prime) == expected

    def test_trees_that_are_not_prime_close_each_pair_once(self, monkeypatch):
        # an empty root over two prime triples, split by its components:
        # vertex 0's pass stops at {0, 1}, which closes to {0, 1, 2}, then
        # {0, 2} and two pairs of vertex 3; and a prime root over a 3-cycle
        # and four single vertices, which is connected and closes every pair
        t = TestCountGuard.T
        hosts = [(Hypergraph(6, [[0, 1, 2], [3, 4, 5]]), 4), (c3_structure(t), 21), (t, 21)]
        calls = []
        spy_on_closures(monkeypatch, calls)
        for host, closures in hosts:
            tree = decomposition_tree(host)
            assert not all(c.is_leaf for c in tree.root.children)
            assert len(calls) == len(set(calls)) == closures
            calls.clear()

    def test_flat_1000_vertex_roots_close_one_pair(self, monkeypatch):
        # {0, 1} is a module of both, so it stops vertex 0's pass, and the
        # split finds 1000 single vertices
        calls = []
        spy_on_closures(monkeypatch, calls)
        for build, host, label in ((decomposition_tree, Hypergraph(1000, []), "◯"),
                                   (tournament_decomposition_tree, linear_order(1000), "linear")):
            assert build(host).to_json() == flat(1000, label)
            assert calls == [(0b11,)]
            calls.clear()

    @pytest.mark.parametrize("seed", range(6))
    def test_vertex_0_pass_stops_at_its_first_short_pair(self, monkeypatch, seed):
        rng = random.Random(seed)
        t, _ = stream_shape(seed)
        prime = random_tournament(rng.randrange(5, 13), rng)
        hosts = [t, c3_structure(t), prime, c3_structure(prime),
                 random_hypergraph(rng.randrange(2, 13), rng),
                 random_hypergraph(rng.randrange(2, 13), rng, sizes=(3,))]
        passes = [vertex_0_pass(host) for host in hosts]
        calls = []
        spy_on_closures(monkeypatch, calls)
        for host, expected in zip(hosts, passes):
            decomposition_tree(host)
            assert calls[:len(expected)] == expected
            assert len(set(calls)) == len(calls)
            # after the pass, only pairs of vertex 0 within its component
            if isinstance(host, Tournament):
                parts = strong_components_by_reachability(host)
            else:
                parts = components(host)
            part = next(int(p) for p in parts if int(p) & 1)
            assert all(s & ~part == 0 for s, *w in calls[len(expected):] if s & 1 and not w)
            calls.clear()


def vertex_0_pass(host):
    """The closures vertex 0's pass should make: {0, y} for y = 1, 2, ...,
    up to the first that does not close to the whole set."""
    close, full = decomposition._closure(host), (1 << host.n) - 1
    out = []
    for y in range(1, host.n):
        out.append((1 | 1 << y,))
        if close(1 | 1 << y) != full:
            break
    return out


def stream_shape(seed):
    """A linear order of 8 blocks, two of them 3-cycles, on 12 shuffled
    labels (every vertex of a block beats every vertex of a later one),
    with its blocks."""
    rng = random.Random(seed)
    labels = list(range(12))
    rng.shuffle(labels)
    blocks = [labels[:3], labels[3:6]] + [[v] for v in labels[6:]]
    rng.shuffle(blocks)
    arcs = [(u, v) for i, a in enumerate(blocks) for b in blocks[i + 1:] for u in a for v in b]
    arcs += [(b[j], b[(j + 1) % 3]) for b in blocks if len(b) == 3 for j in range(3)]
    return Tournament.from_arcs(12, arcs), blocks


def strong_components_by_reachability(t):
    """The strong components of t from the vertices each vertex reaches,
    each component before those it reaches."""
    reach = []
    for v in range(t.n):
        seen, todo = 1 << v, [v]
        while todo:
            new = t.succ[todo.pop()] & ~seen
            seen |= new
            todo += [u for u in range(t.n) if (new >> u) & 1]
        reach.append(seen)
    comps = {sum(1 << u for u in range(t.n) if (reach[v] >> u) & 1 and (reach[u] >> v) & 1)
             for v in range(t.n)}
    return sorted(comps, key=lambda c: -reach[(c & -c).bit_length() - 1].bit_count())


def components_by_rescans(h):
    """The connected components as the rescanning loop found them: each
    grows by every edge that meets it and leaves it, until none does."""
    seen, out = 0, []
    for v in range(h.n):
        if (seen >> v) & 1:
            continue
        comp, changed = 1 << v, True
        while changed:
            changed = False
            for e in h.edges:
                if e & comp and e & ~comp:
                    comp |= e
                    changed = True
        seen |= comp
        out.append(comp)
    return out


class TestRootSplit:
    """A root that is not prime over single vertices is split into the
    connected components of a hypergraph or the strong components of a
    tournament before any pair other than vertex 0's is closed, and each
    part runs the engine within it."""

    @pytest.mark.parametrize("seed", range(6))
    def test_stream_shape_closes_few_pairs_each_once(self, monkeypatch, seed):
        t, blocks = stream_shape(seed)
        calls = []
        spy_on_closures(monkeypatch, calls)
        expected = sorted(sorted(b) for b in blocks)
        for build, host, label in ((decomposition_tree, c3_structure(t), LABEL_EMPTY),
                                   (tournament_decomposition_tree, t, LABEL_LINEAR)):
            tree = build(host)
            assert tree.root.label == label
            assert sorted(list(c.members) for c in tree.root.children) == expected
            # {0, 1} falls short of the whole set, which stops vertex 0's
            # pass; then each 3-cycle closes the 2 pairs of its smallest
            # vertex (at these seeds 1 lies outside vertex 0's block, so
            # {0, 1} is not one of them)
            assert len(calls) == len(set(calls)) == 5
            calls.clear()

    @pytest.mark.parametrize("seed", range(4))
    def test_prime_roots_never_reach_the_split(self, monkeypatch, seed):
        t = random_tournament(14, random.Random(seed))
        split = []
        real = decomposition._split
        monkeypatch.setattr(decomposition, "_split", lambda host: split.append(host) or real(host))
        for build, host in ((decomposition_tree, c3_structure(t)),
                            (tournament_decomposition_tree, t)):
            assert build(host).root.label == LABEL_PRIME
        assert split == []

    def test_strong_components_of_every_small_tournament(self):
        for n in range(1, 6):
            for t in all_tournaments(n):
                assert decomposition._strong_components(t.succ) == \
                    strong_components_by_reachability(t), t

    def test_strong_components_of_random_tournaments(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(1, 13)
            if rng.random() < 0.5:
                t = random_tournament(n, rng)
            else:
                # a linear order with a few nearby arcs reversed
                succ = list(linear_order(n).succ)
                for _ in range(rng.randrange(n + 1)):
                    u = rng.randrange(n)
                    v = min(n - 1, u + rng.randrange(1, 4))
                    if u != v:
                        succ[u] ^= 1 << v
                        succ[v] ^= 1 << u
                t = Tournament(n, tuple(succ))
            assert decomposition._strong_components(t.succ) == \
                strong_components_by_reachability(t), t

    def test_components_match_the_rescanning_loop(self):
        rng = random.Random(29)
        for _ in range(300):
            h = random_hypergraph(rng.randrange(1, 13), rng)
            assert [int(c) for c in components(h)] == components_by_rescans(h), h

    def test_each_part_grows_along_the_chain_its_tree_walked(self, monkeypatch):
        # an empty root over a prime 7-vertex block, a 3-cycle and a vertex
        blocks = [[1, 3, 5, 7, 9, 10, 0], [2, 4, 6], [8]]
        arcs = [(u, v) for i, a in enumerate(blocks) for b in blocks[i + 1:]
                for u in a for v in b]
        arcs += [(blocks[0][u], blocks[0][v]) for u, v in critical_family("T", 7).arcs()]
        arcs += [(2, 4), (4, 6), (6, 2)]
        h = c3_structure(Tournament.from_arcs(11, arcs))
        walked = []
        real_chain = decomposition._chain
        for module in (decomposition, realization):
            monkeypatch.setattr(module, "_chain", lambda host, close, w:
                                walked.append(w) or real_chain(host, close, w))
        assert count_realizations(h) == 2 * 2 * factorial(3)
        assert sorted(walked) == sorted(sum(1 << v for v in b) for b in blocks[:2])


class TestWrongSplit:
    """A split whose parts are not the components raises instead of
    building a wrong tree."""

    H = Hypergraph(9, [[0, 1, 2], [3, 4, 5]])

    @pytest.mark.parametrize("first, second", [(0, 1), (2, 3)])
    def test_merged_components_raise(self, monkeypatch, first, second):
        real = decomposition.components

        def merged(h):
            parts = real(h)
            parts[first] = VertexSet(parts[first] | parts.pop(second))
            return parts
        monkeypatch.setattr(decomposition, "components", merged)
        with pytest.raises(InvariantError, match="empty node under"):
            decomposition_tree(self.H)

    def test_parts_that_swap_a_vertex_raise(self, monkeypatch):
        parts = [vs(0, 1, 3), vs(2, 4, 5)] + [VertexSet(1 << v) for v in range(6, 9)]
        monkeypatch.setattr(decomposition, "components", lambda h: parts)
        with pytest.raises(InvariantError, match="not a module"):
            decomposition_tree(self.H)

    def test_parts_that_miss_a_vertex_raise(self, monkeypatch):
        monkeypatch.setattr(decomposition, "components", lambda h: components(h)[:-1])
        with pytest.raises(InvariantError, match="partition"):
            decomposition_tree(self.H)

    def test_an_empty_part_raises(self, monkeypatch):
        monkeypatch.setattr(decomposition, "components", lambda h: [VertexSet(0)] + components(h))
        with pytest.raises(InvariantError, match="partition the vertex set: .* nonempty"):
            decomposition_tree(self.H)

    @pytest.mark.parametrize("seed", range(3))
    def test_merged_strong_components_raise(self, monkeypatch, seed):
        t, _ = stream_shape(seed)
        real = decomposition._strong_components

        def merged(succ):
            parts = real(succ)
            return [parts[0] | parts[1]] + parts[2:]
        monkeypatch.setattr(decomposition, "_strong_components", merged)
        with pytest.raises(InvariantError, match="linear node under"):
            tournament_decomposition_tree(t)

    @pytest.mark.parametrize("seed", range(3))
    def test_swapped_strong_components_raise(self, monkeypatch, seed):
        t, _ = stream_shape(seed)
        real = decomposition._strong_components

        def swapped(succ):
            parts = real(succ)
            return [parts[1], parts[0]] + parts[2:]
        monkeypatch.setattr(decomposition, "_strong_components", swapped)
        with pytest.raises(InvariantError, match="beat every later"):
            tournament_decomposition_tree(t)


class TestRootQuotientIsHost:
    """A root whose children are all single vertices keeps the host as its
    quotient; any other node keeps the structure induced on its transverse."""

    def test_singleton_children(self):
        t = critical_family("T", 5)
        for host in (c3_structure(t), Hypergraph(3, [[0, 1, 2]]), Hypergraph(4, [])):
            tree = decomposition_tree(host)
            assert all(c.is_leaf for c in tree.root.children)
            assert tree.root.quotient is host
        for host in (t, linear_order(4)):
            tree = tournament_decomposition_tree(host)
            assert all(c.is_leaf for c in tree.root.children)
            assert tree.root.quotient is host

    def test_wider_child(self):
        tree = decomposition_tree(H4)
        assert [list(c.members) for c in tree.root.children] == [[0], [1], [2, 3]]
        assert tree.root.quotient is not H4
        assert tree.root.quotient == Hypergraph(3, [[0, 1, 2]])


def blow_up_vertex_0(q, block):
    """The tournament q with vertex 0 replaced by ``block`` on 0..k-1 and
    every other vertex v moved to v + k - 1."""
    k = block.n

    def place(v):
        return [v + k - 1] if v else range(k)
    arcs = list(block.arcs())
    arcs += [(a, b) for u, v in q.arcs() for a in place(u) for b in place(v)]
    return Tournament.from_arcs(q.n + k - 1, arcs)


class TestCountGuard:
    """A closure that comes out too small for one pair crossing two children
    of a prime node leaves the node's count short, and its label raises.

    The input is T5 with vertex 0 replaced by a 3-cycle: a prime root over
    {0, 1, 2}, 3, 4, 5 and 6."""

    T = blow_up_vertex_0(critical_family("T", 5), C3)

    def test_unbroken_tree(self):
        for tree in (decomposition_tree(c3_structure(self.T)), tournament_decomposition_tree(self.T)):
            assert tree.root.label == LABEL_PRIME
            assert [list(c.members) for c in tree.root.children] == [[0, 1, 2], [3], [4], [5], [6]]

    @pytest.mark.parametrize("pair, short", [
        ((0, 3), (0, 1, 2, 3)),  # a union of two children
        ((0, 3), (0, 3)),        # a part of a child
        ((3, 4), (3, 4, 5)),     # a union of three single-vertex children
    ])
    def test_one_short_closure_raises(self, monkeypatch, pair, short):
        pair, short = sum(1 << v for v in pair), sum(1 << v for v in short)
        real_h, real_t = decomposition._hypergraph_closure, decomposition._tournament_closure

        def hypergraph(h):
            close = real_h(h)
            return lambda s, *w: short if s == pair else close(s, *w)

        def tournament(t):
            close = real_t(t)
            return lambda s: short if s == pair else close(s)
        monkeypatch.setattr(decomposition, "_hypergraph_closure", hypergraph)
        monkeypatch.setattr(decomposition, "_tournament_closure", tournament)
        with pytest.raises(InvariantError, match="must be prime"):
            decomposition_tree(c3_structure(self.T))
        with pytest.raises(InvariantError, match="linear or prime"):
            tournament_decomposition_tree(self.T)


class TestTreeIsAPlainValue:
    """A tree holds its nodes and nothing of the engine that built them: the
    closure tables and the chain go to realization through ``_tree``."""

    def test_slots(self):
        assert decomposition.DecompositionTree.__slots__ == ("root", "n", "kind")

    def test_tree_retains_no_closure_tables(self):
        # the closure of a prime 60-vertex 3-uniform input holds about 3 MB
        h = c3_structure(random_tournament(60, random.Random(1)))
        gc.collect()
        tracemalloc.start()
        try:
            tree = decomposition_tree(h)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.root.label == LABEL_PRIME
        assert held < 64 * 2**10


class TestOneRoutinePerModule:
    """Every pair of a tree is closed by one routine, on the root and on
    each part of a split root alike."""

    def test_pass_over_a_vertex_outside_vertex_0_s_part(self, monkeypatch):
        # {0, 1} closes to V (the union of the two components), {0, 2} falls
        # short of V and stops the pass, and vertex 0's part reuses it
        h = Hypergraph(6, [[0, 2, 4], [1, 3, 5]])
        calls = []
        spy_on_closures(monkeypatch, calls)
        tree = decomposition_tree(h)
        assert calls == [(0b11,), (0b101,), (0b10001,), (0b1010,), (0b100010,)]
        assert tree.root.label == LABEL_EMPTY
        assert [list(c.members) for c in tree.root.children] == [[0, 2, 4], [1, 3, 5]]
        assert all(c.label == LABEL_PRIME and len(c.children) == 3
                   for c in tree.root.children)

    def test_isolated_vertex_0_whose_pairs_all_close_to_the_root(self, monkeypatch):
        # every pair of vertex 0 closes to V, and vertex 0 lies in no edge,
        # so the chain has no base; the root still splits
        h = Hypergraph(5, [[1, 2, 3], [2, 3, 4]])
        close = decomposition._closure(h)
        assert all(close(1 | 1 << y) == 0b11111 for y in range(1, 5))
        calls = []
        spy_on_closures(monkeypatch, calls)
        tree = decomposition_tree(h)
        assert len(calls) == len(set(calls)) == 10
        assert tree.to_json() == {
            "module": [0, 1, 2, 3, 4], "label": "◯", "children": [
                {"module": [0], "label": None, "children": []},
                {"module": [1, 2, 3, 4], "label": "△", "children": [
                    {"module": [1, 4], "label": "◯", "children": [
                        {"module": [1], "label": None, "children": []},
                        {"module": [4], "label": None, "children": []}]},
                    {"module": [2], "label": None, "children": []},
                    {"module": [3], "label": None, "children": []}]}]}


class TestOrdersBelowTwo:
    HOSTS = [(Hypergraph, lambda n: Hypergraph(n, [])),
             (Tournament, lambda n: Tournament(n, [0] * n))]

    @pytest.mark.parametrize("kind, make", HOSTS)
    def test_strong_modules(self, kind, make):
        assert strong_modules(make(0)) == {vs()}
        assert strong_modules(make(1)) == {vs(), vs(0)}

    @pytest.mark.parametrize("kind, make", HOSTS)
    def test_not_prime(self, kind, make):
        assert not is_prime(make(0))
        assert not is_prime(make(1))

    @pytest.mark.parametrize("kind, make", HOSTS)
    def test_trees(self, kind, make):
        build = tournament_decomposition_tree if kind is Tournament else decomposition_tree
        tree = build(make(1))
        assert tree.root.is_leaf and list(tree.root.members) == [0]
        with pytest.raises(PreconditionError):
            build(make(0))


class TestStrongModuleHelpersOnTournaments:
    def tournaments(self):
        for n in range(1, 5):
            yield from all_tournaments(n)
        rng = random.Random(31)
        for n in (5, 6):
            for _ in range(20):
                yield random_tournament(n, rng)

    def test_against_the_tournament_tree(self):
        for t in self.tournaments():
            strong = tournament_strong_modules(t)
            tree = tournament_decomposition_tree(t)
            for s in range(1, 1 << t.n):
                assert is_strong_module(t, s) == (VertexSet(s) in strong), (t, s)
                assert smallest_strong_module_containing(t, s) == \
                    tree.lowest_node_containing(s).members, (t, s)
