"""Structural laws checked over exhaustive small cases and random samples."""

import random
from collections import Counter
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from c3realize import (
    Hypergraph, ModularPartition, Tournament, all_tournaments,
    brute_force_realizations, c3_structure, check_covering_axioms,
    check_partitive, components, count_realizations, critical_family,
    decomposition_tree, dual, enumerate_modules, enumerate_realizations,
    induced_subhypergraph, is_linear_order, is_module, is_prime, linear_order,
    maximal_proper_strong_modules, quotient, random_hypergraph,
    random_tournament, realize, realize_prime, smallest_strong_module_containing,
    strong_modules, tournament_decomposition_tree, tournament_is_module,
    tournament_is_prime, tournament_modules, tournament_pi, tournament_quotient,
    tournament_strong_modules,
)
from c3realize.bitset import as_mask, bit_list, iter_bits
from c3realize import decomposition, realization
from c3realize.decomposition import (
    LABEL_COMPLETE, LABEL_EMPTY, LABEL_PRIME, _hypergraph_closure, _is_prime_within,
)
from c3realize.oracle import modules_within, subsets_where


def tournament_from_code(n, code):
    succ = [0] * n
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if (code >> k) & 1:
            succ[i] |= 1 << j
        else:
            succ[j] |= 1 << i
    return Tournament(n, succ)


@st.composite
def tournaments(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return tournament_from_code(n, code)


@st.composite
def hypergraphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pool = [list(c) for k in (2, 3, 4) if k <= n
            for c in combinations(range(n), k)]
    if pool:
        edges = draw(st.lists(st.sampled_from(pool), max_size=8))
    else:
        edges = []
    return Hypergraph(n, edges)


class TestC3Laws:
    @settings(max_examples=60, deadline=None)
    @given(tournaments())
    def test_c3_is_self_dual(self, t):
        assert c3_structure(dual(t)) == c3_structure(t)

    @settings(max_examples=60, deadline=None)
    @given(tournaments(min_n=2), st.data())
    def test_c3_commutes_with_induced(self, t, data):
        w = data.draw(st.integers(1, t.vertex_mask))
        assert c3_structure(t.induced(w)) == \
            induced_subhypergraph(c3_structure(t), w)

    @settings(max_examples=60, deadline=None)
    @given(tournaments())
    def test_linear_order_iff_no_triples(self, t):
        assert is_linear_order(t) == (not c3_structure(t).edges)


class TestCriticalFamilies:
    @pytest.mark.parametrize("kind", ["T", "U", "W"])
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_prime_and_critical(self, kind, n):
        t = critical_family(kind, n)
        assert tournament_is_prime(t)
        for v in range(n):
            assert not tournament_is_prime(t.induced(t.vertex_mask & ~(1 << v)))

    def test_c3_structures_prime(self):
        for kind in ("T", "U", "W"):
            for n in (5, 7):
                assert is_prime(c3_structure(critical_family(kind, n)))

    def test_every_critical_5_tournament_is_matched(self):
        # exhaustive n=5: the three families cover all critical primes
        from c3realize import realize_critical
        matched = 0
        for t in all_tournaments(5):
            if not tournament_is_prime(t):
                continue
            if any(tournament_is_prime(t.induced(t.vertex_mask & ~(1 << v)))
                   for v in range(5)):
                continue
            got = realize_critical(c3_structure(t))
            assert isinstance(got, Tournament)
            matched += 1
        assert matched == 264


class TestFamilyLaws:
    @settings(max_examples=40, deadline=None)
    @given(hypergraphs())
    def test_modules_form_partitive_family(self, h):
        assert check_partitive(h).passed

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(max_n=5), st.integers(0, 10_000))
    def test_covering_axioms_sampled(self, h, seed):
        assert check_covering_axioms(h, samples=60, seed=seed).passed

    def test_tournament_modules_weakly_partitive(self):
        rng = random.Random(17)
        for _ in range(40):
            t = random_tournament(rng.randint(1, 6), rng)
            fam = {int(m) for m in tournament_modules(t)}
            assert 0 in fam and t.vertex_mask in fam
            for v in range(t.n):
                assert 1 << v in fam
            for m in fam:
                for n_ in fam:
                    assert m & n_ in fam
                    if m & n_:
                        assert m | n_ in fam
                    if m & ~n_:
                        assert n_ & ~m in fam

    def test_tournament_modules_are_hypergraph_modules(self):
        rng = random.Random(18)
        for _ in range(40):
            t = random_tournament(rng.randint(1, 6), rng)
            hm = enumerate_modules(c3_structure(t))
            assert tournament_modules(t) <= hm


def random_modular_partition(h, rng):
    """A modular partition: either the components, Pi, or one nontrivial
    module with singletons elsewhere."""
    choice = rng.randrange(3)
    if choice == 0:
        return ModularPartition(h, components(h))
    if choice == 1 and h.n >= 2:
        return maximal_proper_strong_modules(h)
    mods = [m for m in enumerate_modules(h)
            if 1 < len(m) < h.n]
    if not mods:
        return ModularPartition(h, [[v] for v in range(h.n)])
    m = rng.choice(sorted(mods))
    blocks = [list(m)] + [[v] for v in range(h.n) if v not in m]
    return ModularPartition(h, blocks)


class TestQuotientTransfer:
    def test_module_transfer_both_ways(self):
        rng = random.Random(19)
        for _ in range(40):
            h = random_hypergraph(rng.randint(1, 6), rng)
            p = random_modular_partition(h, rng)
            q = quotient(h, p)
            blocks = [int(b) for b in p.blocks]
            # down: a module of h maps to a module of the quotient
            for m in enumerate_modules(h):
                mp = 0
                for i, b in enumerate(blocks):
                    if int(m) & b:
                        mp |= 1 << i
                assert is_module(q, mp), (h, list(m))
            # up: a module of the quotient unions to a module of h
            for mq in enumerate_modules(q):
                union = 0
                for i in mq:
                    union |= blocks[i]
                assert is_module(h, union)

    def test_strong_module_transfer(self):
        rng = random.Random(20)
        for _ in range(30):
            h = random_hypergraph(rng.randint(2, 6), rng)
            p = maximal_proper_strong_modules(h)  # blocks are strong
            q = quotient(h, p)
            blocks = [int(b) for b in p.blocks]
            strong_h = strong_modules(h)
            strong_q = strong_modules(q)
            for m in strong_h:
                mp = 0
                for i, b in enumerate(blocks):
                    if int(m) & b:
                        mp |= 1 << i
                assert any(int(s) == mp for s in strong_q)
            for s in strong_q:
                union = 0
                for i in s:
                    union |= blocks[i]
                assert any(int(m) == union for m in strong_h)

    def test_transverse_property(self):
        rng = random.Random(21)
        for _ in range(40):
            h = random_hypergraph(rng.randint(1, 6), rng)
            p = random_modular_partition(h, rng)
            blocks = [int(b) for b in p.blocks]
            for e in h.edges:
                hit = [b for b in blocks if e & b]
                if len(hit) < 2:
                    continue
                assert all((e & b).bit_count() == 1 for b in hit)
                for combo in product(*[bit_list(b) for b in hit]):
                    assert h.has_edge(combo), (h, combo)


class TestGallaiClassification:
    def test_exactly_one_class_per_internal_node(self):
        rng = random.Random(22)
        for _ in range(40):
            h = random_hypergraph(rng.randint(1, 7), rng)
            tree = decomposition_tree(h)
            for node in tree.internal_nodes():
                blocks = [int(c.members) for c in node.children]
                sub_edges = [e for e in h.edges if e & ~int(node.members) == 0]
                qe = set()
                for e in sub_edges:
                    hit = sum(1 << i for i, b in enumerate(blocks) if e & b)
                    if hit.bit_count() >= 2:
                        qe.add(hit)
                k = len(blocks)
                is_empty = not qe
                is_complete = qe == {(1 << i) | (1 << j)
                                     for i in range(k) for j in range(i + 1, k)}
                q = Hypergraph._from_masks(k, frozenset(qe))
                is_pr = is_prime(q)
                assert [is_empty, is_complete, is_pr].count(True) == 1
                assert {LABEL_EMPTY: is_empty, LABEL_COMPLETE: is_complete,
                        LABEL_PRIME: is_pr}[node.label]

    def test_tree_restricted_to_strong_module_is_subtree(self):
        rng = random.Random(23)
        for _ in range(30):
            h = random_hypergraph(rng.randint(2, 6), rng)
            tree = decomposition_tree(h)
            for m in strong_modules(h):
                if len(m) < 1:
                    continue
                node = tree.lowest_node_containing(m)
                if int(node.members) != int(m):
                    continue
                # the subtree at m must equal the tree of the induced copy
                sub = h.induced(m)
                sub_tree = decomposition_tree(sub)
                labels = bit_list(int(m))

                def shape(x):
                    return (tuple(labels[i] for i in iter_bits(int(x.members))),
                            x.label, tuple(shape(c) for c in x.children))

                def shape_orig(x):
                    return (tuple(iter_bits(int(x.members))), x.label,
                            tuple(shape_orig(c) for c in x.children))

                assert shape_orig(node) == shape(sub_tree.root)

    def test_strong_modules_equal_tree_nodes(self):
        rng = random.Random(24)
        for _ in range(30):
            h = random_hypergraph(rng.randint(1, 6), rng)
            tree = decomposition_tree(h)
            assert tree.node_members() | {0} == \
                {int(m) for m in strong_modules(h)}
            t = random_tournament(rng.randint(1, 6), rng)
            ttree = tournament_decomposition_tree(t)
            assert ttree.node_members() | {0} == \
                {int(m) for m in tournament_strong_modules(t)}


class TestRealizationLaws:
    def test_round_trip_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for t in all_tournaments(n):
                h = c3_structure(t)
                got = realize(h)
                assert isinstance(got, Tournament)
                assert c3_structure(got) == h

    def test_count_matches_oracle_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            seen = set()
            for t in all_tournaments(n):
                h = c3_structure(t)
                if h in seen:
                    continue
                seen.add(h)
                assert count_realizations(h) == len(brute_force_realizations(h))

    def test_round_trip_random_6_7(self):
        rng = random.Random(25)
        for n in (6, 7):
            for _ in range(25):
                t = random_tournament(n, rng)
                h = c3_structure(t)
                got = realize(h)
                assert isinstance(got, Tournament)
                assert c3_structure(got) == h

    def test_prime_realizable_has_two_dual_realizations(self):
        rng = random.Random(26)
        found = 0
        while found < 15:
            t = random_tournament(rng.randint(3, 6), rng)
            h = c3_structure(t)
            if not is_prime(h):
                continue
            found += 1
            got = list(enumerate_realizations(h))
            assert len(got) == 2
            assert got[0] == dual(got[1])

    def test_shared_strong_modules_and_primality(self):
        rng = random.Random(27)
        for _ in range(25):
            t = random_tournament(rng.randint(1, 6), rng)
            h = c3_structure(t)
            for s in enumerate_realizations(h):
                assert tournament_strong_modules(s) == strong_modules(h)
                assert tournament_is_prime(s) == is_prime(h)

    def test_realization_modules_and_empty_node_law(self):
        rng = random.Random(28)
        for _ in range(25):
            t = random_tournament(rng.randint(2, 6), rng)
            h = c3_structure(t)
            hm = enumerate_modules(h)
            tree = decomposition_tree(h)
            for s in enumerate_realizations(h):
                tm = tournament_modules(s)
                assert tm <= hm
                all_binary = all(len(x.children) == 2
                                 for x in tree.internal_nodes()
                                 if x.label == LABEL_EMPTY)
                assert (tm == hm) == all_binary
                for m in hm - tm:
                    node = tree.lowest_node_containing(m)
                    assert node.label == LABEL_EMPTY
                    assert len(node.children) >= 3


def brute_strong(mods):
    """Members of a module family that overlap no other member."""
    def overlaps(a, b):
        return a & b and a & ~b and b & ~a
    return {m for m in mods if not any(overlaps(m, x) for x in mods)}


C3 = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def planted_tournament(n, rng):
    """A tournament built by substitution: a linear or prime quotient on
    k >= 2 vertices whose vertices are replaced by planted blocks, or a
    random tournament; vertices are shuffled at the end."""
    if n <= 2 or rng.random() < 0.3:
        return random_tournament(n, rng)
    if rng.random() < 0.5:
        q = linear_order(rng.randint(2, n))
    else:
        q = rng.choice([k for k in (C3, critical_family("T", 5), critical_family("U", 5),
                                    critical_family("W", 5)) if k.n <= n])
    sizes = [1] * q.n
    for _ in range(n - q.n):
        sizes[rng.randrange(q.n)] += 1
    starts = [sum(sizes[:i]) for i in range(q.n)]
    blocks = [planted_tournament(s, rng) for s in sizes]
    order = list(range(n))
    rng.shuffle(order)
    succ = [0] * n
    for i, b in enumerate(blocks):
        for a in range(b.n):
            u = order[starts[i] + a]
            for c in iter_bits(b.succ[a]):
                succ[u] |= 1 << order[starts[i] + c]
            for j in iter_bits(q.succ[i]):
                for c in range(sizes[j]):
                    succ[u] |= 1 << order[starts[j] + c]
    return Tournament(n, succ)


class TestEngineAgainstOracle:
    """The closure engine against brute-force module listings, n <= 8."""

    def check_hypergraph(self, h, rng):
        full = h.vertex_mask
        mods = modules_within(h, full)
        strong = brute_strong(mods)
        assert decomposition_tree(h).node_members() | {0} == strong, h
        assert is_prime(h) == (h.n >= 3 and len(mods) == h.n + 2), h
        for _ in range(4):
            s = rng.randint(1, full)
            expected = min((m for m in strong if s & ~m == 0), key=int.bit_count)
            assert smallest_strong_module_containing(h, s) == expected, (h, s)

    def check_tournament(self, t):
        full = t.vertex_mask
        mods = subsets_where(full, partial(tournament_is_module, t))
        assert tournament_decomposition_tree(t).node_members() | {0} == brute_strong(mods), t
        assert tournament_is_prime(t) == (t.n >= 3 and len(mods) == t.n + 2), t

    def test_random_mixed_size_hypergraphs(self):
        rng = random.Random(31)
        for _ in range(400):
            self.check_hypergraph(random_hypergraph(rng.randint(1, 8), rng), rng)

    def test_random_tournaments_and_their_c3_structures(self):
        rng = random.Random(32)
        for _ in range(300):
            t = random_tournament(rng.randint(1, 8), rng)
            self.check_tournament(t)
            self.check_hypergraph(c3_structure(t), rng)

    def test_planted_substitutions(self):
        rng = random.Random(33)
        for _ in range(600):
            t = planted_tournament(rng.randint(2, 8), rng)
            self.check_tournament(t)
            self.check_hypergraph(c3_structure(t), rng)


def three_uniform_inputs(rng, count, max_n):
    """C3 structures of random tournaments, the same with one triple
    toggled, and random 3-uniform hypergraphs, ``count`` of each."""
    for _ in range(count):
        n = rng.randint(3, max_n)
        h = c3_structure(random_tournament(n, rng))
        yield h
        toggled = sum(1 << v for v in rng.sample(range(n), 3))
        yield Hypergraph(n, [bit_list(e) for e in h.edges ^ {toggled}])
        yield random_hypergraph(n, rng, max_edges=3 * n, sizes=(3,))


class TestRestrictedClosure:
    """``close(s, w)`` against the modules of H[w] listed by brute force, n <= 9."""

    def test_pair_closures_are_smallest_modules_within(self):
        rng = random.Random(61)
        for h in three_uniform_inputs(rng, 120, 9):
            close = _hypergraph_closure(h)
            full = h.vertex_mask
            for w in {full, rng.randint(1, full), rng.randint(1, full)}:
                mods = modules_within(h, w)
                for x, y in combinations(iter_bits(w), 2):
                    s = (1 << x) | (1 << y)
                    containing = [m for m in mods if s & ~m == 0]
                    smallest = min(containing, key=int.bit_count)
                    assert all(smallest & ~m == 0 for m in containing)
                    assert close(s, w) == smallest, (h, w, s)

    def test_primality_after_each_deletion(self):
        rng = random.Random(62)
        for h in three_uniform_inputs(rng, 150, 9):
            close = _hypergraph_closure(h)
            for x in range(h.n):
                rest = h.vertex_mask & ~(1 << x)
                assert _is_prime_within(close, rest) == is_prime(h.induced(rest)), (h, x)


class TestRealizePrimeAgainstOracle:
    """``realize_prime`` on random prime 3-uniform inputs against the
    exhaustive realization list (2^15 tournaments at n = 6)."""

    def test_tournaments_and_witnesses(self):
        rng = random.Random(63)
        quota = {4: 20, 5: 60, 6: 20}
        outcomes = Counter()
        for h in three_uniform_inputs(rng, 400, 6):
            if h.n < 4 or not quota[h.n] or not is_prime(h):
                continue
            quota[h.n] -= 1
            got = realize_prime(h)
            if isinstance(got, Tournament):
                assert got in brute_force_realizations(h), h
            else:
                assert brute_force_realizations(h.induced(got.vertices)) == [], (h, got)
            outcomes[h.n, type(got).__name__] += 1
        assert not any(quota.values())
        for n in (5, 6):
            assert outcomes[n, "Tournament"] and outcomes[n, "NonRealizabilityWitness"], outcomes


class TestMaximalProperStrongModulesWithoutTree:
    """The partition into maximal proper strong modules is read from the
    strong modules, equal to the tree root's children, with no tree built."""

    def test_equal_to_root_children(self, monkeypatch):
        rng = random.Random(64)
        cases = []
        for _ in range(150):
            n = rng.randint(2, 8)
            t = planted_tournament(n, rng) if rng.random() < 0.5 else random_tournament(n, rng)
            for host in (t, c3_structure(t), random_hypergraph(n, rng)):
                tree = (tournament_decomposition_tree(host) if isinstance(host, Tournament)
                        else decomposition_tree(host))
                cases.append((host, [c.members for c in tree.root.children]))
        trees = []
        real = decomposition._tree
        monkeypatch.setattr(decomposition, "_tree", lambda *a: trees.append(a) or real(*a))
        for host, children in cases:
            pi = (tournament_pi(host) if isinstance(host, Tournament)
                  else maximal_proper_strong_modules(host))
            assert list(pi.blocks) == children, host
        assert trees == []


class TestNodeQuotients:
    """Each internal node keeps its quotient, vertex i being child i, n <= 8."""

    def check_hypergraph(self, h):
        tree = decomposition_tree(h)
        for node in tree.nodes():
            if node.is_leaf:
                assert node.quotient is None
                continue
            q, blocks = node.quotient, [int(c.members) for c in node.children]
            assert q.n == len(blocks)
            met = set()
            for e in h.edges:
                if e & ~node.members == 0:
                    hit = sum(1 << i for i, b in enumerate(blocks) if e & b)
                    if hit.bit_count() >= 2:
                        met.add(hit)
            assert q.edges == met, (h, node)
            if h.is_3_uniform:
                assert q == h.induced(sum(b & -b for b in blocks)), (h, node)
            if node.label == LABEL_PRIME:
                assert is_prime(q), (h, node)
        if h.n >= 2:
            assert tree.root.quotient == quotient(h, maximal_proper_strong_modules(h)), h

    def check_tournament(self, t):
        tree = tournament_decomposition_tree(t)
        for node in tree.nodes():
            if node.is_leaf:
                assert node.quotient is None
                continue
            q, blocks = node.quotient, [int(c.members) for c in node.children]
            assert q.n == len(blocks)
            assert q == t.induced(sum(b & -b for b in blocks)), (t, node)
            for i, j in combinations(range(q.n), 2):
                beats = (q.succ[i] >> j) & 1
                assert all((t.succ[u] >> v) & 1 == beats
                           for u in iter_bits(blocks[i]) for v in iter_bits(blocks[j])), (t, node)
            if node.label == LABEL_PRIME:
                assert tournament_is_prime(q), (t, node)
        if t.n >= 2:
            assert tree.root.quotient == tournament_quotient(t, tournament_pi(t)), t

    def test_random_mixed_size_hypergraphs(self):
        rng = random.Random(81)
        for _ in range(300):
            self.check_hypergraph(random_hypergraph(rng.randint(1, 8), rng))

    def test_random_tournaments_and_their_c3_structures(self):
        rng = random.Random(82)
        for _ in range(200):
            t = random_tournament(rng.randint(1, 8), rng)
            self.check_tournament(t)
            self.check_hypergraph(c3_structure(t))

    def test_planted_substitutions(self):
        rng = random.Random(83)
        for _ in range(400):
            t = planted_tournament(rng.randint(2, 8), rng)
            self.check_tournament(t)
            self.check_hypergraph(c3_structure(t))


class TestEnginePartitionsAreNotRevalidated:
    """The engine's own children of the root reach ``ModularPartition``
    without a module re-test; a caller's partition is still validated."""

    def test_no_module_test_per_block(self, monkeypatch):
        rng = random.Random(65)
        hosts = []
        for _ in range(150):
            n = rng.randint(2, 8)
            t = planted_tournament(n, rng) if rng.random() < 0.5 else random_tournament(n, rng)
            hosts += [t, c3_structure(t), random_hypergraph(n, rng)]
        calls = []
        for name in ("is_module", "tournament_is_module"):
            real = getattr(decomposition, name)
            monkeypatch.setattr(decomposition, name,
                                lambda *a, real=real: calls.append(a) or real(*a))
        for host in hosts:
            pi = (tournament_pi(host) if isinstance(host, Tournament)
                  else maximal_proper_strong_modules(host))
            assert len(pi) >= 2 and sum(map(int, pi.blocks)) == host.vertex_mask
        assert calls == []

    def test_caller_partition_with_non_module_block_rejected(self):
        from c3realize import PreconditionError
        h = Hypergraph(4, [[0, 1, 2], [0, 1, 3]])
        with pytest.raises(PreconditionError, match="not a module"):
            ModularPartition(h, [[0, 2], [1], [3]])
        with pytest.raises(PreconditionError, match="not a module"):
            quotient(h, [[0, 2], [1], [3]])
        t = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(PreconditionError, match="not a module"):
            tournament_quotient(t, [[0, 1], [2]])


def three_cycles_by_triple_scan(t):
    """The cyclic triples of ``t``, read pair by pair from its successor
    masks: a triple u < v < z is cyclic iff u -> v, v -> z and z -> u all
    hold or none does."""
    arc = [[(t.succ[a] >> b) & 1 for b in range(t.n)] for a in range(t.n)]
    return frozenset((1 << u) | (1 << v) | (1 << z) for u, v, z in combinations(range(t.n), 3)
                     if arc[u][v] + arc[v][z] + arc[z][u] in (0, 3))


class TestC3StructureAgainstTripleScan:
    """``c3_structure`` (arc by arc, third vertices by mask) against a scan
    of every triple."""

    def check(self, t):
        h = c3_structure(t)
        assert h.n == t.n and h.edges == three_cycles_by_triple_scan(t), t

    def test_every_tournament_up_to_five(self):
        for n in range(6):
            for t in all_tournaments(n):
                self.check(t)

    def test_random_tournaments_up_to_sixteen(self):
        rng = random.Random(66)
        for _ in range(300):
            self.check(random_tournament(rng.randint(0, 16), rng))

    def test_tiny_orders(self):
        for n in (0, 1, 2):
            t = Tournament.from_arcs(n, [(0, 1)] if n == 2 else [])
            assert c3_structure(t) == Hypergraph(n, [])
            self.check(t)


class TestOneVertexPrimality:
    """The classifier ``realization._twin`` against the pair closures within
    X + y, for every prime X and every y outside it, n <= 9."""

    def test_agrees_with_pair_closures(self):
        rng = random.Random(65)
        seen = Counter()
        for h in three_uniform_inputs(rng, 40, 9):
            close = _hypergraph_closure(h)
            full = h.vertex_mask
            for x in range(full + 1):
                if x.bit_count() < 3 or not _is_prime_within(close, x):
                    continue
                for y in iter_bits(full & ~x):
                    z = x | (1 << y)
                    twin = realization._twin(close.spans, x, y)
                    assert (twin is None) == _is_prime_within(close, z), (h, x, y)
                    if twin == -1:
                        assert close(x, z) == x, (h, x, y)
                    elif twin is not None:
                        pair = (1 << twin) | (1 << y)
                        assert twin in iter_bits(x) and close(pair, z) == pair, (h, x, y)
                    seen["prime" if twin is None else "module" if twin < 0 else "twin"] += 1
        assert seen["prime"] and seen["module"] and seen["twin"], seen


class TestTwoVertexPrimality:
    """``realization._pair_keeps_prime`` against the pair closures within
    X + p + q, for every prime X and every pair p, q outside it that no
    single vertex keeps prime, n <= 8."""

    def test_agrees_with_pair_closures(self):
        rng = random.Random(68)
        seen = Counter()
        for h in three_uniform_inputs(rng, 150, 8):
            close = _hypergraph_closure(h)
            full = h.vertex_mask
            for x in range(full + 1):
                if x.bit_count() < 3 or not _is_prime_within(close, x):
                    continue
                twins = {y: realization._twin(close.spans, x, y) for y in iter_bits(full & ~x)}
                stalled = [y for y, twin in twins.items() if twin is not None]
                for p, q in combinations(stalled, 2):
                    expected = _is_prime_within(close, x | (1 << p) | (1 << q))
                    got = realization._pair_keeps_prime(close, x, twins, p, q)
                    assert got == expected, (h, x, p, q)
                    seen[expected] += 1
        assert seen[True] and seen[False], seen


class TestGrowthAgainstOracle:
    """``realize_prime`` on random prime 3-uniform inputs with n <= 6 against
    the exhaustive realization list.  A spy on ``_grow`` sees the growth
    path, the 4-set witness of a triple grown by one vertex and the stall
    (no pair keeps the base prime); a spy on ``_pair_keeps_prime`` sees a
    two-vertex step end in a realization and in a witness; a spy on
    ``_dense_four`` sees a larger witness give way to a 4-set holding three
    edges."""

    def test_each_path_against_brute_force(self, monkeypatch):
        grown, shrunk, steps = [], [], []
        real_grow, real_four = realization._grow, realization._dense_four
        real_pair = realization._pair_keeps_prime

        def grow_spy(h, close, w):
            res = real_grow(h, close, w)
            grown.append((w, res))
            return res

        def four_spy(spans, w):
            four = real_four(spans, w)
            shrunk.append((w, four))
            return four

        def pair_spy(close, x, twins, p, q):
            kept = real_pair(close, x, twins, p, q)
            if kept:
                steps.append(x | (1 << p) | (1 << q))
            return kept

        monkeypatch.setattr(realization, "_grow", grow_spy)
        monkeypatch.setattr(realization, "_dense_four", four_spy)
        monkeypatch.setattr(realization, "_pair_keeps_prime", pair_spy)

        def path():
            first = grown[0][1]
            if isinstance(first, list):
                return "grown"
            if first.stage == "stall":
                return "stall"
            return "4-set" if len(first.vertices) == 4 else "witness"

        def two_step():
            first = grown[0][1]
            if not steps:
                return None
            if isinstance(first, list):
                return "two-step realization"
            return "two-step witness" if as_mask(first.vertices) == steps[-1] else None

        rng = random.Random(66)
        quota = Counter({(n, p): 3 for n in (5, 6) for p in ("grown", "4-set", "witness")})
        quota.update({(6, "stall"): 3, (4, "4-set"): 2, "shrunk": 3})
        quota.update({(n, p): 3 for n in (5, 6)
                      for p in ("two-step realization", "two-step witness")})
        for h in three_uniform_inputs(rng, 1500, 6):
            if not +quota:
                break
            if h.n < 4 or not is_prime(h):
                continue
            grown.clear()
            shrunk.clear()
            steps.clear()
            got = realize_prime(h)
            replaced = [(w, four) for w, four in shrunk if four is not None]
            keys = ["shrunk"] if replaced else [(h.n, path())]
            if not replaced and two_step():
                keys.append((h.n, two_step()))
            if all(quota[key] <= 0 for key in keys):
                continue
            for key in keys:
                quota[key] -= 1
            if isinstance(got, Tournament):
                assert got in brute_force_realizations(h), h
                assert got.has_arc(0, 1), (h, got)
                continue
            sub = h.induced(got.vertices)
            assert is_prime(sub), (h, got)
            assert brute_force_realizations(sub) == [], (h, got)
            if replaced:
                (w, four), = replaced
                assert four & ~w == 0 and list(iter_bits(four)) == list(got.vertices)
                assert len(sub.edges) >= 3 and grown[-1][0] == four, (h, got)
        assert not +quota, quota


class TestDenseFour:
    """``realization._dense_four`` against every 4-subset, n <= 8."""

    def test_finds_a_four_set_with_three_edges_iff_one_exists(self):
        rng = random.Random(67)
        seen = Counter()
        for h in three_uniform_inputs(rng, 60, 8):
            spans = _hypergraph_closure(h).spans
            for w in {h.vertex_mask, rng.randint(0, h.vertex_mask)}:
                dense = [q for q in combinations(iter_bits(w), 4)
                         if sum(h.has_edge(t) for t in combinations(q, 3)) >= 3]
                four = realization._dense_four(spans, w)
                if dense:
                    assert four is not None and tuple(iter_bits(four)) in dense, (h, w)
                else:
                    assert four is None, (h, w)
                seen[bool(dense)] += 1
        assert seen[True] and seen[False], seen


class TestExhaustiveSmallOrders:
    """Every C3 structure of every tournament with n <= 6 is realized and
    counted once per source tournament, and each 3-uniform hypergraph on 5
    vertices is realized or gives a prime witness that has no realization."""

    def test_every_small_input(self):
        sources = Counter()
        for n in range(1, 7):
            for t in all_tournaments(n):
                sources[c3_structure(t)] += 1
        assert len(sources) == 8786
        for h, k in sources.items():
            t = realize(h)
            assert isinstance(t, Tournament) and c3_structure(t) == h, h
            assert count_realizations(h) == k, h
        triples = list(combinations(range(5), 3))
        seen = Counter()
        for code in range(1 << len(triples)):
            h = Hypergraph(5, [e for i, e in enumerate(triples) if (code >> i) & 1])
            got = realize(h)
            if isinstance(got, Tournament):
                assert c3_structure(got) == h and h in sources, h
            else:
                sub = h.induced(got.vertices)
                assert h not in sources and is_prime(sub) and sub not in sources, (h, got)
            seen[isinstance(got, Tournament)] += 1
        assert seen[True] and seen[False], seen
