import gc
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, islice, permutations, product
from pathlib import Path

import pytest

import c3realize
from c3realize import core
from c3realize import (
    Hypergraph, InvariantError, NonRealizabilityWitness, PreconditionError,
    RealizationChoice, Tournament, brute_force_realizations, c3_structure,
    choice_to_tournament, count_realizations, critical_family, decomposition,
    decomposition_tree, default_choice, dual, enumerate_realizations,
    tournament_decomposition_tree,
    extend_realization, extension_certificate, hypergraph_isomorphism,
    is_prime, linear_order, random_tournament, realization, realize,
    realize_critical, realize_prime,
)
from c3realize.decomposition import LABEL_PRIME
from c3realize.realization import (
    STAGE_BASE, STAGE_CRITICAL_MISMATCH, STAGE_EXTENSION_M1,
    VERDICT_ODD_CYCLE, VERDICT_Y_NOT_COVERING, _prepare,
)

C3 = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
H4 = Hypergraph(4, [[0, 1, 2], [0, 1, 3]])

# a prime non-critical 6-tournament (vertices 2 and 4 stay prime when deleted)
PRIME6 = Tournament.from_arcs(6, [
    (0, 1), (0, 5), (1, 3), (2, 0), (2, 1), (3, 0), (3, 2), (4, 0),
    (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4)])


def complete_3_uniform(n):
    return Hypergraph(n, list(combinations(range(n), 3)))


class TestRealize:
    def test_single_triple_gives_default_cycle(self):
        assert realize(Hypergraph(3, [[0, 1, 2]])) == C3

    def test_empty_gives_identity_linear_order(self):
        assert realize(Hypergraph(3, [])) == linear_order(3)
        assert realize(Hypergraph(6, [])) == linear_order(6)

    def test_complete_4_is_rejected_with_prime_witness(self):
        h = complete_3_uniform(4)
        w = realize(h)
        assert isinstance(w, NonRealizabilityWitness)
        assert list(w.vertices) == [0, 1, 2, 3]
        assert w.stage == STAGE_EXTENSION_M1
        assert is_prime(h.induced(w.vertices))
        assert brute_force_realizations(h) == []

    def test_non_3_uniform_rejected(self):
        with pytest.raises(PreconditionError):
            realize(Hypergraph(3, [[0, 1]]))

    def test_single_vertex(self):
        t = realize(Hypergraph(1, []))
        assert isinstance(t, Tournament) and t.n == 1

    def test_witness_serialization(self):
        w = realize(complete_3_uniform(4))
        assert w.to_json() == {
            "non_realizable": {"witness": [0, 1, 2, 3], "stage": "extension-M1"}}

    def test_witness_keeps_original_labels_through_nesting(self):
        # the non-realizable part sits inside a larger decomposable input
        h = Hypergraph(6, [list(c) for c in combinations([1, 2, 4, 5], 3)])
        w = realize(h)
        assert isinstance(w, NonRealizabilityWitness)
        assert list(w.vertices) == [1, 2, 4, 5]
        assert is_prime(h.induced(w.vertices))
        assert brute_force_realizations(h) == []


class TestRealizePrime:
    def test_u7_round_trip_up_to_dual(self):
        u7 = critical_family("U", 7)
        h = c3_structure(u7)
        t = realize_prime(h)
        assert t in (u7, dual(u7))
        assert c3_structure(t) == h

    def test_base_case(self):
        assert realize_prime(Hypergraph(3, [[0, 1, 2]])) == C3

    def test_complete_5_witness(self):
        h = complete_3_uniform(5)
        w = realize_prime(h)
        assert isinstance(w, NonRealizabilityWitness)
        assert is_prime(h.induced(w.vertices))
        assert brute_force_realizations(h.induced(w.vertices)) == []

    def test_non_prime_input_rejected(self):
        with pytest.raises(PreconditionError):
            realize_prime(Hypergraph(3, []))
        with pytest.raises(PreconditionError):
            realize_prime(H4)


class TestRealizeCritical:
    def test_t5_direct(self):
        h = c3_structure(critical_family("T", 5))
        t = realize_critical(h)
        assert isinstance(t, Tournament)
        assert c3_structure(t) == h

    def test_relabelled_w9_is_recovered(self):
        w9 = critical_family("W", 9)
        perm = [4, 7, 0, 2, 8, 1, 6, 3, 5]
        h = c3_structure(w9.relabel(perm))
        t = realize_critical(h)
        assert isinstance(t, Tournament)
        assert c3_structure(t) == h

    def test_non_critical_input_rejected(self):
        # complete-5 is prime but deleting any vertex keeps it prime
        with pytest.raises(PreconditionError):
            realize_critical(complete_3_uniform(5))

    def test_even_order_parity_rejection(self):
        # no 6-vertex critical instance is known; exercise the parity branch
        # directly on a prime input with criticality checking bypassed
        h = c3_structure(PRIME6)
        assert is_prime(h)
        w = realize_critical(h, _assume_critical=True)
        assert isinstance(w, NonRealizabilityWitness)
        assert w.stage == STAGE_BASE
        assert list(w.vertices) == list(range(6))

    def test_odd_order_mismatch_stage(self):
        # prime, every deletion decomposable would be required; bypass the
        # criticality check to reach the isomorphism scan and miss all three
        h = complete_3_uniform(5)
        w = realize_critical(h, _assume_critical=True)
        assert isinstance(w, NonRealizabilityWitness)
        assert w.stage == STAGE_CRITICAL_MISMATCH

    def test_too_small_rejected(self):
        with pytest.raises(PreconditionError):
            realize_critical(Hypergraph(3, [[0, 1, 2]]))


class TestExtendRealization:
    def test_success_is_unique_extension(self):
        h = c3_structure(PRIME6)
        x = next(v for v in range(6)
                 if is_prime(h.induced(h.vertex_mask & ~(1 << v))))
        t_x = realize_prime(h.induced(h.vertex_mask & ~(1 << x)))
        t = extend_realization(h, x, t_x)
        assert isinstance(t, Tournament)
        assert c3_structure(t) == h
        assert t.induced(h.vertex_mask & ~(1 << x)) == t_x

    def test_odd_cycle_failure(self):
        h = complete_3_uniform(4)
        t_x = realize_prime(h.induced([1, 2, 3]))
        cert = extend_realization(h, 0, t_x, _verified=True)
        assert cert.verdict == VERDICT_ODD_CYCLE

    def test_empty_link_graph_fails_y_cover(self):
        # x in no edge: both closures stay empty and cannot cover I_x
        h = Hypergraph(4, [[1, 2, 3]])
        t_x = realize(h.induced([1, 2, 3]))
        cert = extension_certificate(h, 0, t_x, _verified=True)
        assert cert.verdict == VERDICT_Y_NOT_COVERING
        assert cert.x_minus == 0 and cert.x_plus == 0

    def test_certificate_partitions_on_success(self):
        h = c3_structure(PRIME6)
        x = next(v for v in range(6)
                 if is_prime(h.induced(h.vertex_mask & ~(1 << v))))
        rest = h.vertex_mask & ~(1 << x)
        t_x = realize_prime(h.induced(rest))
        cert = extension_certificate(h, x, t_x)
        assert cert.ok
        non_isolated = (1 << 5) - 1 & ~int(cert.i_x)
        assert int(cert.x_minus | cert.x_plus) == non_isolated
        assert int(cert.x_minus & cert.x_plus) == 0
        assert int(cert.y_minus | cert.y_plus) == int(cert.i_x)
        assert int(cert.y_minus & cert.y_plus) == 0

    def test_precondition_checks(self):
        h = c3_structure(critical_family("U", 5))
        with pytest.raises(PreconditionError):
            extend_realization(h, 0, linear_order(4))  # does not realize H-0
        with pytest.raises(PreconditionError):
            extend_realization(h, 9, linear_order(4))


class TestCounting:
    def test_single_triple(self):
        assert count_realizations(Hypergraph(3, [[0, 1, 2]])) == 2

    def test_empty_three(self):
        assert count_realizations(Hypergraph(3, [])) == 6

    def test_complete_four(self):
        assert count_realizations(complete_3_uniform(4)) == 0

    def test_nested_blowup(self):
        assert count_realizations(H4) == 4

    def test_big_counts_are_exact(self):
        # one empty root with 10 children: 10! realizations
        assert count_realizations(Hypergraph(10, [])) == 3628800
        # two prime quotients over a 4-child chain inside: 2 * 2 * 4!
        t5 = critical_family("T", 5)
        h = c3_structure(t5)
        blown = Hypergraph(8, [e for e in h.edge_lists() if 4 not in e]
                           + [[a, b, v] for a, b, _ in
                              (e for e in h.edge_lists() if 4 in e)
                              for v in (4, 5, 6, 7)])
        assert count_realizations(blown) == 2 * 24


class TestEnumerate:
    def test_single_triple(self):
        got = set(enumerate_realizations(Hypergraph(3, [[0, 1, 2]])))
        assert got == {C3, dual(C3)}

    def test_empty_two(self):
        got = list(enumerate_realizations(Hypergraph(2, [])))
        assert len(got) == 2 and len(set(got)) == 2

    def test_c3_t5_yields_generator_and_dual(self):
        t5 = critical_family("T", 5)
        got = list(enumerate_realizations(c3_structure(t5)))
        assert set(got) == {t5, dual(t5)}

    def test_not_realizable_yields_nothing(self):
        assert list(enumerate_realizations(complete_3_uniform(4))) == []

    def test_outputs_distinct_and_counted(self):
        for h in (H4, Hypergraph(4, []), c3_structure(critical_family("U", 5))):
            got = list(enumerate_realizations(h))
            assert len(got) == len(set(got)) == count_realizations(h)
            assert all(c3_structure(t) == h for t in got)


class TestChoiceToTournament:
    def test_identity_permutation_gives_linear_order(self):
        h = Hypergraph(4, [])
        tree = decomposition_tree(h)
        choice = default_choice(tree, {})
        assert choice_to_tournament(h, tree, choice) == linear_order(4)

    def test_dual_flag_on_prime_root(self):
        h = c3_structure(critical_family("T", 5))
        tree, base = _prepare(h)
        key = int(tree.root.members)
        as_computed = choice_to_tournament(h, tree, RealizationChoice({}, {key: False}, base))
        flipped = choice_to_tournament(h, tree, RealizationChoice({}, {key: True}, base))
        assert flipped == dual(as_computed)

    def test_nested_blowup_has_four_realizations(self):
        tree, base = _prepare(H4)
        root = int(tree.root.members)
        inner = next(int(x.members) for x in tree.internal_nodes() if x is not tree.root)
        got = set()
        for flag in (False, True):
            for perm in ((0, 1), (1, 0)):
                choice = RealizationChoice({inner: perm}, {root: flag}, base)
                t = choice_to_tournament(H4, tree, choice)
                assert c3_structure(t) == H4
                got.add(t)
        assert len(got) == 4
        assert set(brute_force_realizations(H4)) == got

    def test_malformed_choice_rejected(self):
        tree, base = _prepare(H4)
        root = int(tree.root.members)
        inner = next(int(x.members) for x in tree.internal_nodes() if x is not tree.root)
        with pytest.raises(PreconditionError):
            choice_to_tournament(H4, tree, RealizationChoice({}, {root: False}, base))
        with pytest.raises(PreconditionError):
            choice_to_tournament(
                H4, tree, RealizationChoice({inner: (0, 0)}, {root: False}, base))
        with pytest.raises(PreconditionError):
            choice_to_tournament(
                H4, tree, RealizationChoice({inner: (0, 1)}, {root: False},
                                            {root: linear_order(3)}))


class TestHypergraphIsomorphism:
    def test_identity(self):
        h = Hypergraph(3, [[0, 1, 2]])
        phi = hypergraph_isomorphism(h, h)
        assert phi is not None and sorted(phi) == [0, 1, 2]

    def test_relabelling_found(self):
        h1 = Hypergraph(4, [[0, 1, 2]])
        h2 = Hypergraph(4, [[1, 2, 3]])
        phi = hypergraph_isomorphism(h1, h2)
        assert phi is not None
        assert {phi[0], phi[1], phi[2]} == {1, 2, 3}

    def test_t7_u7_not_isomorphic(self):
        h1 = c3_structure(critical_family("T", 7))
        h2 = c3_structure(critical_family("U", 7))
        assert len(h1.edges) == 14 and len(h2.edges) == 10
        assert hypergraph_isomorphism(h1, h2) is None

    def test_same_size_non_isomorphic(self):
        h1 = Hypergraph(5, [[0, 1, 2], [0, 1, 3]])
        h2 = Hypergraph(5, [[0, 1, 2], [2, 3, 4]])
        assert hypergraph_isomorphism(h1, h2) is None

    def test_non_3_uniform_rejected(self):
        with pytest.raises(PreconditionError):
            hypergraph_isomorphism(Hypergraph(2, [[0, 1]]), Hypergraph(2, [[0, 1]]))

    def test_preserves_edges(self):
        h1 = c3_structure(critical_family("W", 7))
        perm = [3, 5, 1, 0, 6, 2, 4]
        h2 = Hypergraph(7, [sorted(perm[v] for v in e) for e in h1.edge_lists()])
        phi = hypergraph_isomorphism(h1, h2)
        assert phi is not None
        for e in h1.edge_lists():
            assert h2.has_edge([phi[v] for v in e])


class TestBeyondTwentyVertices:
    def test_random_24_vertex_c3_structure(self):
        t = random_tournament(24, random.Random(2024))
        h = c3_structure(t)
        got = realize(h)
        assert isinstance(got, Tournament)
        assert c3_structure(got) == h
        tree = decomposition_tree(h)
        assert tree.root.members == t.vertex_mask
        count = count_realizations(h)
        assert count >= 2 and t in set(enumerate_realizations(h))


class TestOneTreePerCount:
    def test_count_builds_the_tree_once(self, monkeypatch):
        calls = []

        def spy(h):
            calls.append(h)
            return decomposition_tree(h)

        monkeypatch.setattr(realization, "decomposition_tree", spy)
        for h in (H4, Hypergraph(5, []), c3_structure(PRIME6)):
            calls.clear()
            count_realizations(h)
            assert len(calls) == 1


class TestOneClosurePerPrimeQuotient:
    @pytest.mark.parametrize("n", [24, 40])
    def test_table_builds_per_realize_and_count(self, monkeypatch, n):
        # two builds for the tree (its own and the quotient's prime check)
        # and one for the single prime quotient; none per deleted vertex
        builds = []
        real = decomposition._hypergraph_closure

        def spy(h):
            builds.append(h.n)
            return real(h)

        monkeypatch.setattr(decomposition, "_hypergraph_closure", spy)
        monkeypatch.setattr(realization, "_hypergraph_closure", spy, raising=False)
        h = c3_structure(random_tournament(n, random.Random(n)))
        for run in (realize, count_realizations):
            builds.clear()
            run(h)
            assert 1 <= len(builds) <= 3, (run.__name__, builds)


class TestLazyEnumeration:
    def test_first_item_of_empty_nine_is_cheap(self):
        h = Hypergraph(9, [])
        tracemalloc.start()
        try:
            first = next(enumerate_realizations(h))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == linear_order(9)
        assert peak < 5 * 2**20

    def test_order_matches_mixed_radix_product(self):
        # H4 with a vertex added below everything: an empty root with a
        # prime child and a singleton, the prime child holding an empty node
        t = Tournament.from_arcs(5, [
            (0, 1), (1, 2), (1, 3), (2, 0), (3, 0), (2, 3),
            (0, 4), (1, 4), (2, 4), (3, 4)])
        h = c3_structure(t)
        tree, base = _prepare(h)
        nodes = list(tree.internal_nodes())
        values = [(False, True) if x.label == LABEL_PRIME
                  else tuple(permutations(range(len(x.children)))) for x in nodes]
        expected = []
        for combo in product(*values):
            perms = {int(x.members): v for x, v in zip(nodes, combo) if x.label != LABEL_PRIME}
            flags = {int(x.members): v for x, v in zip(nodes, combo) if x.label == LABEL_PRIME}
            expected.append(choice_to_tournament(h, tree, RealizationChoice(perms, flags, base)))
        assert list(enumerate_realizations(h)) == expected
        assert len(expected) == count_realizations(h) == 8


class TestOutputChecksAreNotAsserts:
    def test_disagreeing_check_raises_invariant_error(self, monkeypatch):
        monkeypatch.setattr(realization, "c3_structure", lambda t: None)
        with pytest.raises(InvariantError):
            realize(Hypergraph(3, []))
        with pytest.raises(InvariantError):
            next(enumerate_realizations(Hypergraph(3, [])))

    def test_check_survives_python_O(self):
        code = (
            "import sys\n"
            "from c3realize import Hypergraph, InvariantError, realization\n"
            "realization.c3_structure = lambda t: None\n"
            "try:\n"
            "    realization.realize(Hypergraph(3, []))\n"
            "except InvariantError:\n"
            "    print('InvariantError', sys.flags.optimize)\n"
        )
        src = str(Path(c3realize.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.split() == ["InvariantError", "1"], done.stderr

    def test_flipped_extension_arc_survives_python_O(self):
        # the extension is evaluated correctly, then one arc between x and
        # its lowest minus vertex is written the wrong way round
        code = (
            "import random, sys\n"
            "from c3realize import InvariantError, c3_structure, random_tournament, realization\n"
            "evaluate = realization._extension\n"
            "def flipped(spans, succ, w, x):\n"
            "    verdict, adj, i_x, x_minus, x_plus, *ys = evaluate(spans, succ, w, x)\n"
            "    v = x_minus & -x_minus\n"
            "    return (verdict, adj, i_x, x_minus ^ v, x_plus | v, *ys)\n"
            "realization._extension = flipped\n"
            "try:\n"
            "    realization.realize(c3_structure(random_tournament(10, random.Random(3))))\n"
            "except InvariantError:\n"
            "    print('InvariantError', sys.flags.optimize)\n"
        )
        src = str(Path(c3realize.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.split() == ["InvariantError", "1"], done.stderr


def planted_blocks(sizes, rng):
    """The C3 structure of a linear order of blocks, each a 3-cycle or one
    vertex, on randomly relabelled vertices."""
    n = sum(sizes)
    arcs, start = [], 0
    for size in sizes:
        if size == 3:
            arcs.append((start + 2, start))  # turns start < start+1 < start+2 into a 3-cycle
        start += size
    reversed_arcs = {(b, a) for a, b in arcs}
    arcs += [(a, b) for a, b in combinations(range(n), 2) if (a, b) not in reversed_arcs]
    labels = list(range(n))
    rng.shuffle(labels)
    return c3_structure(Tournament.from_arcs(n, [(labels[a], labels[b]) for a, b in arcs]))


class TestNoQuotientCopiesPerOutput:
    def test_enumeration_builds_no_induced_subhypergraph_per_item(self, monkeypatch):
        h = planted_blocks((1, 3, 1, 1, 3, 1), random.Random(71))
        assert count_realizations(h) == 4 * 720
        real = core.induced_subhypergraph
        calls = []
        monkeypatch.setattr(core, "induced_subhypergraph",
                            lambda *a: calls.append(a) or real(*a))
        seen = []
        for limit in (1, 50):
            calls.clear()
            items = list(islice(enumerate_realizations(h), limit))
            assert len(items) == limit
            assert all(c3_structure(t) == h for t in items)
            seen.append(len(calls))
        assert seen[0] == seen[1], seen


class TestNoCyclicGarbage:
    """The public operations free everything they build by reference
    counting: with the cyclic collector off, nothing is left for it."""

    def run_all(self):
        rng = random.Random(72)
        t = random_tournament(11, rng)
        h = c3_structure(t)
        bad = h
        while isinstance(realize(bad), Tournament):
            bad = Hypergraph(11, h.edges ^ {sum(1 << v for v in rng.sample(range(11), 3))})
        planted = planted_blocks((3, 1, 3, 1), rng)
        for host in (h, bad, planted):
            tree = decomposition_tree(host)
            tree.to_json()
            tree.to_dot()
        tournament_decomposition_tree(t).to_json()
        assert isinstance(realize(h), Tournament)
        assert isinstance(realize(bad), NonRealizabilityWitness)
        assert hypergraph_isomorphism(h, h) is not None
        assert len(list(enumerate_realizations(planted))) == count_realizations(planted)
        it = enumerate_realizations(planted)
        next(it)
        del it

    def test_collector_finds_nothing(self):
        self.run_all()  # first calls may fill caches
        gc.collect()
        gc.disable()
        try:
            self.run_all()
            left = gc.collect()
        finally:
            gc.enable()
        assert left == 0


class TestOneClosurePerInput:
    """``realize``, ``count_realizations`` and enumeration read every prime
    quotient and the label re-check off the tree's closure tables."""

    @pytest.mark.parametrize("n", [24, 40])
    def test_one_table_build_per_call(self, monkeypatch, n):
        builds = []
        real = decomposition._hypergraph_closure

        def spy(h):
            builds.append(h.n)
            return real(h)

        monkeypatch.setattr(decomposition, "_hypergraph_closure", spy)
        monkeypatch.setattr(realization, "_hypergraph_closure", spy)
        h = c3_structure(random_tournament(n, random.Random(n)))
        runs = (realize, count_realizations,
                lambda h: list(islice(enumerate_realizations(h), 5)))
        for run in runs:
            builds.clear()
            run(h)
            assert builds == [n], builds

    def test_witness_from_the_tree_closure(self, monkeypatch):
        # a non-realizable prime g on 1..9 with vertex 0 added as a twin of
        # k + 1: the root's quotient is g, read within the transverse, and
        # the witness comes back in the input's labels
        rng = random.Random(73)
        g = c3_structure(random_tournament(9, rng))
        while not is_prime(g) or isinstance(realize_prime(g), Tournament):
            g = Hypergraph(9, g.edges ^ {sum(1 << v for v in rng.sample(range(9), 3))})
        k = 4
        label = [v + 1 if v != k else 0 for v in range(9)]
        edges = [[label[v] for v in e] for e in g.edge_lists()]
        edges += [[k + 1 if v == 0 else v for v in e] for e in edges if 0 in e]
        h = Hypergraph(10, edges)
        expected = sorted(label[v] for v in realize_prime(g).vertices)
        builds = []
        real = decomposition._hypergraph_closure

        def spy(x):
            builds.append(x.n)
            return real(x)

        monkeypatch.setattr(decomposition, "_hypergraph_closure", spy)
        monkeypatch.setattr(realization, "_hypergraph_closure", spy)
        got = realize(h)
        assert isinstance(got, NonRealizabilityWitness)
        assert list(got.vertices) == expected
        assert builds == [10]


class TestOneOutputCheckPerItem:
    def test_bases_checked_once_per_tree(self, monkeypatch):
        h = planted_blocks((1, 3, 1, 1, 3, 1), random.Random(71))
        real = realization.c3_structure
        calls = []
        monkeypatch.setattr(realization, "c3_structure", lambda t: calls.append(t) or real(t))
        seen = []
        for limit in (1, 50):
            calls.clear()
            items = list(islice(enumerate_realizations(h), limit))
            assert len(items) == limit and len(set(items)) == limit
            seen.append(len(calls))
        assert seen[1] - seen[0] == 49, seen

    def test_bad_stored_base_caught_at_set_up(self, monkeypatch):
        # a transitive base does not realize a 3-cycle quotient; enumeration
        # refuses it before any item
        h = planted_blocks((3, 1, 3), random.Random(74))
        real = realization._prepare

        def spoiled(g):
            tree, base = real(g)
            return tree, {key: linear_order(3) for key in base}

        monkeypatch.setattr(realization, "_prepare", spoiled)
        with pytest.raises(InvariantError):
            enumerate_realizations(h)


def critical_plus_one(kind, m, rng):
    """The critical tournament of the kind and odd order m with one vertex of
    random arcs added, randomly relabelled."""
    succ = list(critical_family(kind, m).succ) + [0]
    for u in range(m):
        if rng.random() < 0.5:
            succ[u] |= 1 << m
        else:
            succ[m] |= 1 << u
    perm = list(range(m + 1))
    rng.shuffle(perm)
    return Tournament(m + 1, succ).relabel(perm)


class TestUpwardGrowth:
    """``realize_prime`` grows a prime chain upward by one or two vertices
    at a time, the one path for every prime node: no critical-family match
    and no deletion scan."""

    def test_closures_per_realize(self, monkeypatch):
        n = 40
        calls = []
        real = decomposition._hypergraph_closure

        def spy(h):
            close = real(h)

            def counted(*args):
                calls.append(args)
                return close(*args)

            counted.spans = close.spans
            return counted

        monkeypatch.setattr(decomposition, "_hypergraph_closure", spy)
        monkeypatch.setattr(realization, "_hypergraph_closure", spy)
        h = c3_structure(random_tournament(n, random.Random(1)))
        assert isinstance(realize(h), Tournament)
        assert len(calls) <= n * (n - 1) + 200, len(calls)

    @pytest.mark.parametrize("kind", ["T", "U", "W"])
    def test_critical_families_matched_before_the_scan(self, monkeypatch, kind):
        n = 31
        perm = list(range(n))
        random.Random(91).shuffle(perm)
        src = critical_family(kind, n).relabel(perm)
        h = c3_structure(src)
        sizes, matched = [], []
        real_prime, real_match = realization._is_prime_within, realization.realize_critical
        monkeypatch.setattr(realization, "_is_prime_within",
                            lambda close, w: sizes.append(w.bit_count()) or real_prime(close, w))
        monkeypatch.setattr(realization, "realize_critical",
                            lambda g, **kw: matched.append(g.n) or real_match(g, **kw))
        t = realize(h)
        assert t in (src, dual(src)) and t.has_arc(0, 1)
        assert matched == []  # growth by two-vertex steps settles the family
        assert max(sizes, default=0) <= 5, sizes

    @pytest.mark.parametrize("kind", ["T", "U", "W"])
    def test_closures_per_realize_critical_plus_one(self, monkeypatch, kind):
        # a critical tournament of order 31 with one vertex added: one
        # two-vertex step after another, with no deletion scan behind them
        calls = []
        real = decomposition._hypergraph_closure

        def spy(h):
            close = real(h)

            def counted(*args):
                calls.append(args)
                return close(*args)

            counted.spans = close.spans
            return counted

        monkeypatch.setattr(decomposition, "_hypergraph_closure", spy)
        monkeypatch.setattr(realization, "_hypergraph_closure", spy)
        src = critical_plus_one(kind, 31, random.Random(93))
        h = c3_structure(src)
        n = h.n
        t = realize(h)
        assert t in (src, dual(src)) and t.has_arc(0, 1)
        assert len(calls) <= n * (n - 1) + 200, len(calls)

    def test_stall_witness(self):
        # no vertex and no pair keeps the base triple {0, 1, 5} prime
        h = Hypergraph(6, [[0, 1, 5], [0, 2, 3], [1, 2, 5], [1, 3, 5], [2, 3, 4]])
        assert is_prime(h)
        got = realize_prime(h)
        assert isinstance(got, NonRealizabilityWitness)
        assert got.vertices == tuple(range(6)) and got.stage == "stall"
        assert brute_force_realizations(h) == []

    def test_canonical_orientation_on_every_path(self, monkeypatch):
        # growth on C3 structures of random tournaments (one two-vertex step,
        # from the base triple), on relabelled critical tournaments and on
        # critical tournaments with one vertex added (two-vertex steps from
        # larger sets)
        rng = random.Random(92)
        sources = [random_tournament(rng.randint(5, 12), rng) for _ in range(30)]
        for kind in "TUW":
            perm = list(range(9))
            rng.shuffle(perm)
            sources.append(critical_family(kind, 9).relabel(perm))
            sources += [critical_plus_one(kind, m, rng) for m in (7, 9) for _ in range(3)]
        steps = []
        real_pair = realization._pair_keeps_prime

        def spy(close, x, twins, p, q):
            kept = real_pair(close, x, twins, p, q)
            if kept:
                steps.append(x.bit_count())
            return kept

        monkeypatch.setattr(realization, "_pair_keeps_prime", spy)
        paths = Counter()
        for src in sources:
            h = c3_structure(src)
            if not is_prime(h):
                continue
            steps.clear()
            got = realize_prime(h)
            paths["from larger sets" if max(steps) > 3 else "from the base"] += 1
            assert got in (src, dual(src)) and got.has_arc(0, 1), src
            assert realize(h) == got
            assert next(enumerate_realizations(h)) == got
        assert paths["from the base"] and paths["from larger sets"], paths
