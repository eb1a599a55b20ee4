"""Structural laws checked over exhaustive small cases and random samples."""

import random
from collections import Counter
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from c3realize import (
    Hypergraph, ModularPartition, PreconditionError, Tournament, all_tournaments,
    brute_force_realizations, c3_structure, check_covering_axioms,
    check_partitive, choice_to_tournament, components, count_realizations,
    critical_family, decomposition_tree, default_choice, dual, enumerate_modules,
    enumerate_realizations, induced_subhypergraph, is_linear_order, is_module,
    is_prime, linear_order, maximal_proper_strong_modules, quotient, random_hypergraph,
    random_tournament, realize, realize_prime, smallest_strong_module_containing,
    strong_modules, tournament_decomposition_tree, tournament_is_module,
    tournament_is_prime, tournament_modules, tournament_pi, tournament_quotient,
    tournament_strong_modules,
)
from c3realize.bitset import as_mask, bit_list, full_mask, iter_bits
from c3realize import decomposition, realization
from c3realize.decomposition import (
    LABEL_COMPLETE, LABEL_EMPTY, LABEL_PRIME, _hypergraph_closure, _is_prime_within, _lowest,
)
from c3realize.oracle import modules_within, subsets_where
from c3realize.realization import STAGE_EXTENSION_M1


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
        from c3realize import hypergraph_isomorphism, realize_critical
        families = [c3_structure(critical_family(kind, 5)) for kind in "TUW"]
        matched = 0
        for t in all_tournaments(5):
            if not tournament_is_prime(t):
                continue
            if any(tournament_is_prime(t.induced(t.vertex_mask & ~(1 << v)))
                   for v in range(5)):
                continue
            h = c3_structure(t)
            got = realize_critical(h)
            assert isinstance(got, Tournament)
            assert any(hypergraph_isomorphism(f, h) is not None for f in families), t
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

    def test_partitions_drawn_at_random(self):
        """``quotient`` induces on the transverse of any modular partition,
        not only the engine's: it equals the block sets that the edges
        meet, and ``tournament_quotient`` the arcs between blocks."""
        rng = random.Random(24)
        split = 0
        for _ in range(200):
            t = planted_tournament(rng.randint(1, 8), rng)
            for h in (planted_hypergraph(rng.randint(1, 8), rng), c3_structure(t)):
                p = random_modular_partition(h, rng)
                blocks = [int(b) for b in p.blocks]
                met = set()
                for e in h.edges:
                    hit = sum(1 << i for i, b in enumerate(blocks) if e & b)
                    if hit.bit_count() >= 2:
                        met.add(hit)
                assert quotient(h, p) == Hypergraph(len(blocks), met), (h, p)
                assert quotient(h, [bit_list(b) for b in blocks]) == quotient(h, p)
                split += 1 < len(blocks) < h.n
            mods = [m for m in tournament_modules(t) if 1 < len(m) < t.n]
            if mods and rng.random() < 0.7:
                m = int(rng.choice(sorted(mods)))
                blocks = [m] + [1 << v for v in range(t.n) if not (m >> v) & 1]
            else:
                blocks = [1 << v for v in range(t.n)]
            blocks.sort(key=lambda b: b & -b)
            arcs = [(i, j) for i, a in enumerate(blocks) for j, b in enumerate(blocks)
                    if i != j and all(t.succ[u] & b == b for u in iter_bits(a))]
            expected = Tournament.from_arcs(len(blocks), arcs)
            assert tournament_quotient(t, ModularPartition(t, blocks)) == expected, t
            split += 1 < len(blocks) < t.n
        assert split >= 150, split


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
                tree, base, _ = realization._prepare(h)
                assert got == choice_to_tournament(h, tree, default_choice(tree, base)) \
                    == next(enumerate_realizations(h))

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


def random_prime_hypergraph(k, rng):
    """A random mixed-size hypergraph on k vertices whose only modules, listed
    by brute force, are the trivial ones."""
    while True:
        h = random_hypergraph(k, rng)
        if len(modules_within(h, h.vertex_mask)) == k + 2:
            return h


def planted_hypergraph(n, rng):
    """A hypergraph built by substitution: an empty, complete (2-edges) or
    prime quotient on k >= 2 vertices whose vertices are replaced by planted
    blocks, or a random hypergraph; vertices are shuffled at the end.  Each
    quotient edge becomes every edge taking one vertex from each of its
    blocks, so every block is a module."""
    if n <= 2 or rng.random() < 0.25:
        return random_hypergraph(n, rng)
    kind = rng.choice(("empty", "complete", "prime"))
    if kind == "prime":
        primes = [Hypergraph(3, [[0, 1, 2]]),
                  random_prime_hypergraph(rng.randint(3, min(n, 5)), rng)]
        if n >= 5:
            primes.append(c3_structure(critical_family("T", 5)))
        q = rng.choice(primes)
    else:
        k = rng.randint(2, n)
        q = Hypergraph(k, list(combinations(range(k), 2)) if kind == "complete" else [])
    sizes = [1] * q.n
    for _ in range(n - q.n):
        sizes[rng.randrange(q.n)] += 1
    order = list(range(n))
    rng.shuffle(order)
    members = [[order.pop() for _ in range(s)] for s in sizes]
    edges = [[members[i][v] for v in bit_list(e)]
             for i, s in enumerate(sizes) for e in planted_hypergraph(s, rng).edges]
    for e in q.edges:
        edges += product(*(members[i] for i in bit_list(e)))
    return Hypergraph(n, edges)


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

    def test_planted_hypergraph_substitutions(self):
        """Empty, complete and prime quotients nested either way, with mixed
        edge sizes: wide complete nodes are rare among random hypergraphs."""
        rng = random.Random(34)
        wide, nested, mixed = Counter(), Counter(), 0
        for _ in range(500):
            h = planted_hypergraph(rng.randint(2, 8), rng)
            self.check_hypergraph(h, rng)
            mixed += len({e.bit_count() for e in h.edges}) > 1
            for node in decomposition_tree(h).internal_nodes():
                wide[node.label] += len(node.children) >= 3
                for child in node.children:
                    if not child.is_leaf:
                        nested[node.label == LABEL_PRIME, child.label == LABEL_PRIME] += 1
        assert min(wide[LABEL_EMPTY], wide[LABEL_COMPLETE], wide[LABEL_PRIME]) >= 20, wide
        assert nested[True, False] >= 20 and nested[False, True] >= 20, nested
        assert mixed >= 100


class TestPrimeCountAgainstOracle:
    """The sweep's count-based prime verdict of every internal node, as the
    label functions receive it, against brute-force primality of the node's
    quotient, n <= 9."""

    def test_every_internal_node(self, monkeypatch):
        verdicts = []
        for name in ("_hypergraph_label", "_tournament_label"):
            real = getattr(decomposition, name)
            monkeypatch.setattr(decomposition, name,
                                lambda *a, real=real: verdicts.append(a[-2:]) or real(*a))
        rng = random.Random(96)
        seen = Counter()
        for i in range(1200):
            n = rng.randint(1, 9)
            if i % 4 == 0:
                t = planted_tournament(n, rng)
                hosts = [t, c3_structure(t)]
            elif i % 4 == 1:
                t = random_tournament(n, rng)
                hosts = [t, c3_structure(t)]
            elif i % 4 == 2:
                hosts = [planted_hypergraph(n, rng)]
            else:
                hosts = [random_hypergraph(n, rng)]
            for host in hosts:
                if isinstance(host, Tournament):
                    tree = tournament_decomposition_tree(host)
                else:
                    tree = decomposition_tree(host)
                    seen["mixed"] += len({e.bit_count() for e in host.edges}) > 1
                for node in tree.internal_nodes():
                    wide = any(not c.is_leaf for c in node.children)
                    seen[tree.kind, node.label == LABEL_PRIME, wide] += 1
        for q, prime in verdicts:
            if isinstance(q, Tournament):
                mods = subsets_where(q.vertex_mask, partial(tournament_is_module, q))
            else:
                mods = modules_within(q, q.vertex_mask)
            assert prime == (q.n >= 3 and len(mods) == q.n + 2), q
        assert len(verdicts) == sum(v for k, v in seen.items() if k != "mixed")
        assert seen["mixed"] >= 200, seen
        for kind in ("hypergraph", "tournament"):
            assert seen[kind, True, True] >= 50 and seen[kind, False, True] >= 50, seen


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


def link_set_closure(h):
    """The hypergraph closure as it was built before 3-uniform input was
    closed from the span table alone: a set of links per vertex beside the
    span table.  Kept verbatim as the reference."""
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


class TestSpanClosureAgainstLinkSets:
    """``_hypergraph_closure`` against the link-set closure it replaced on
    3-uniform input (``link_set_closure``)."""

    def test_every_pair_of_every_w_up_to_six(self):
        rng = random.Random(71)
        compared = 0
        for h in three_uniform_inputs(rng, 150, 6):
            close, ref = _hypergraph_closure(h), link_set_closure(h)
            for w in range(1, 1 << h.n):
                for x, y in combinations(iter_bits(w), 2):
                    s = (1 << x) | (1 << y)
                    assert close(s, w) == ref(s, w), (h, s, w)
                    compared += 1
        assert compared == 40_428

    def test_random_sets_within_seeded_w_up_to_nine(self):
        rng = random.Random(72)
        for h in three_uniform_inputs(rng, 400, 9):
            close, ref = _hypergraph_closure(h), link_set_closure(h)
            assert close.spans == ref.spans, h  # the diagonal included
            full = h.vertex_mask
            for w in (full, rng.randint(1, full), rng.randint(1, full)):
                for _ in range(6):
                    s = 0
                    while not s:
                        s = rng.randint(1, full) & w
                    assert close(s, w) == ref(s, w), (h, s, w)

    def test_mixed_size_input_keeps_the_link_sets(self):
        rng = random.Random(73)
        mixed = (h for h in (random_hypergraph(rng.randint(3, 8), rng) for _ in range(200))
                 if not h.is_3_uniform)
        for h in mixed:
            close, ref = _hypergraph_closure(h), link_set_closure(h)
            assert close.spans == ref.spans, h
            for x, y in combinations(range(h.n), 2):
                s = (1 << x) | (1 << y)
                assert close(s) == ref(s), (h, s)

    def test_a_span_cut_to_w_keeps_y_alone(self):
        # both edges through 5 and 0 have their third vertex (2 or 4)
        # outside w, so spans[5][0] & w is {0, 5}, and 0 lies in no edge
        # with 3: were y = 0's own bit left in the difference of the two
        # spans, linking 5 would absorb 0
        h = Hypergraph(7, [[0, 1, 4], [0, 2, 5], [0, 2, 6], [0, 4, 5], [1, 2, 3], [1, 2, 5],
                           [1, 4, 5], [1, 4, 6], [2, 5, 6], [3, 4, 6], [3, 5, 6], [4, 5, 6]])
        w = as_mask([0, 3, 5, 6], 7)
        expected = as_mask([3, 5, 6], 7)
        assert link_set_closure(h)(as_mask([3, 5], 7), w) == expected
        assert _hypergraph_closure(h)(as_mask([3, 5], 7), w) == expected


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
    """The classifier ``decomposition._twin`` against the pair closures within
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
                    twin = decomposition._twin(close.spans, x, y)
                    assert (twin is None) == _is_prime_within(close, z), (h, x, y)
                    if twin == -1:
                        assert close(x, z) == x, (h, x, y)
                    elif twin is not None:
                        pair = (1 << twin) | (1 << y)
                        assert twin in iter_bits(x) and close(pair, z) == pair, (h, x, y)
                    seen["prime" if twin is None else "module" if twin < 0 else "twin"] += 1
        assert seen["prime"] and seen["module"] and seen["twin"], seen


class TestTwoVertexPrimality:
    """``decomposition._pair_keeps_prime`` against the pair closures within
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
                twins = {y: decomposition._twin(close.spans, x, y) for y in iter_bits(full & ~x)}
                stalled = [y for y, twin in twins.items() if twin is not None]
                for p, q in combinations(stalled, 2):
                    expected = _is_prime_within(close, x | (1 << p) | (1 << q))
                    got = decomposition._pair_keeps_prime(close, x, twins, p, q)
                    assert got == expected, (h, x, p, q)
                    seen[expected] += 1
        assert seen[True] and seen[False], seen


def oracle_prime_within(host, w):
    """The structure induced on w is prime, by brute force over its subsets."""
    if isinstance(host, Tournament):
        sub = host.induced(w)
        mods = subsets_where(sub.vertex_mask, partial(tournament_is_module, sub))
    else:
        mods = modules_within(host, w)
    return w.bit_count() >= 3 and len(mods) == w.bit_count() + 2


def chain_corpus():
    """Every tournament with n <= 5 and its C3 structure, then the n <= 9
    inputs of ``three_uniform_inputs``, ``planted_tournament`` (with C3
    structures) and ``planted_hypergraph``."""
    for n in range(1, 6):
        for t in all_tournaments(n):
            yield t
            yield c3_structure(t)
    rng = random.Random(69)
    yield from three_uniform_inputs(rng, 60, 9)
    for _ in range(150):
        t = planted_tournament(rng.randint(2, 9), rng)
        yield t
        yield c3_structure(t)
        yield planted_hypergraph(rng.randint(2, 9), rng)


def walk_chain(host):
    """The chain of prime sets within the host's vertex set, walked in full,
    and whether it reaches the whole set."""
    chain = list(decomposition._chain(host, decomposition._closure(host), host.vertex_mask))
    return chain, decomposition._reaches(chain, host.vertex_mask)


class TestPrimeChain:
    """The chain of prime sets (``decomposition._chain``) that proves a
    tree's root prime with only vertex 0's pair closures and its own pair
    tests, against brute force."""

    def test_every_set_of_the_chain_is_prime(self):
        verdicts = Counter()
        for host in chain_corpus():
            chain, proved = walk_chain(host)
            reached = [z for z, _, _ in chain]
            kind = "tournament" if isinstance(host, Tournament) else "hypergraph"
            verdicts[kind, proved, oracle_prime_within(host, host.vertex_mask)] += 1
            for x in reached:
                assert oracle_prime_within(host, x), (host, x)
            if proved:
                assert oracle_prime_within(host, host.vertex_mask), host
        assert verdicts["hypergraph", True, True] >= 100, verdicts
        assert verdicts["tournament", True, True] >= 100, verdicts
        # a prime tournament never stalls; a prime hypergraph can
        assert verdicts["tournament", False, True] == 0, verdicts
        assert verdicts["hypergraph", False, True], verdicts

    def test_no_stall_on_prime_tournaments(self):
        rng = random.Random(70)
        tournaments = [t for n in range(3, 6) for t in all_tournaments(n)]
        tournaments += [random_tournament(rng.randint(3, 9), rng) for _ in range(300)]
        tournaments += [critical_family(kind, m) for kind in "TUW" for m in (5, 7, 9)]
        prime = 0
        for t in tournaments:
            if oracle_prime_within(t, t.vertex_mask):
                prime += 1
                assert walk_chain(t)[1], t
        assert prime >= 200

    def test_fewer_than_three_vertices(self):
        for n in range(3):
            trivial = {0, (1 << n) - 1} | {1 << v for v in range(n)}
            for host in (Hypergraph(n, []), *all_tournaments(n)):
                assert not is_prime(host), host
                assert strong_modules(host) == trivial, host

    def test_trees_match_with_the_chain_disabled(self, monkeypatch):
        def outputs(host):
            return (decomposition_tree(host).to_json(), strong_modules(host),
                    maximal_proper_strong_modules(host).blocks if host.n >= 2 else None,
                    is_prime(host))
        corpus = list(chain_corpus())
        with_chain = [outputs(host) for host in corpus]
        monkeypatch.setattr(decomposition, "_chain", lambda host, close, w: iter(()))
        assert [outputs(host) for host in corpus] == with_chain


class TestGrowthAgainstOracle:
    """``realize_prime`` on random prime 3-uniform inputs with n <= 6 against
    the exhaustive realization list.  A spy on ``_grow`` sees the growth
    path, the 4-set witness of a triple grown by one vertex and the stall
    (no pair keeps the base prime); a spy on ``_pair_keeps_prime`` sees a
    two-vertex step end in a realization and in a witness; a spy on
    ``_dense_four`` sees a larger witness give way to a 4-set holding three
    edges, reported at ``extension-M1`` with no growth within it.  On every
    input, ``realize`` (the tree's kept root chain) and ``realize_prime``
    with and without its precheck (a lazy chain, the precheck's chain) give
    the same tournament or witness."""

    def test_each_path_against_brute_force(self, monkeypatch):
        grown, shrunk, steps = [], [], []
        real_grow, real_four = realization._grow, realization._dense_four
        real_pair = decomposition._pair_keeps_prime

        def grow_spy(h, spans, w, chain):
            res = real_grow(h, spans, w, chain)
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
        monkeypatch.setattr(decomposition, "_pair_keeps_prime", pair_spy)

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
            return "two-step witness" if as_mask(first.vertices, h.n) == steps[-1] else None

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
            # growth along the tree's kept root chain, along the precheck's
            # chain and along a chain walked as growth takes it agree
            answers = [x if isinstance(x, Tournament) else x.to_json()
                       for x in (got, realize(h), realize_prime(h, _assume_prime=True))]
            assert answers[1:] == answers[:1] * 2, h
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
                assert len(sub.edges) >= 3, (h, got)
                assert all(g != four for g, _ in grown), (h, got)
                assert got.stage == STAGE_EXTENSION_M1, (h, got)
        assert not +quota, quota


class TestStepChecks:
    """Each growth step checks its realization only at the pairs that meet
    the vertices it adds."""

    def test_restricted_check_against_the_constructor(self):
        # arcs flipped, doubled or dropped only at pairs meeting ``new``:
        # the rest still realizes its own 3-cycles
        rng = random.Random(67)
        verdicts = Counter()
        for _ in range(3000):
            n = rng.randint(2, 9)
            t = random_tournament(n, rng)
            h = c3_structure(t)
            full = h.vertex_mask
            new = rng.randint(1, full)
            succ = list(t.succ)
            for _ in range(rng.randrange(3)):
                u = rng.choice(bit_list(new))
                v = rng.choice([v for v in range(n) if v != u])
                op = rng.randrange(3)
                if op == 0:
                    succ[u] ^= 1 << v
                    succ[v] ^= 1 << u
                elif op == 1:
                    succ[u] |= 1 << v
                    succ[v] |= 1 << u
                else:
                    succ[u] &= ~(1 << v)
                    succ[v] &= ~(1 << u)
            try:
                expected = c3_structure(Tournament(n, succ)) == h
            except PreconditionError:
                expected = False
            spans = _hypergraph_closure(h).spans
            assert realization._realizes_within(spans, succ, full, new) == expected, (h, succ, new)
            verdicts[expected] += 1
        assert min(verdicts.values()) >= 500, verdicts

    def test_changed_pairs_against_the_constructor(self):
        # prev is a realization (or its dual, for a difference at every
        # pair) and cur is that with 1-4 arcs flipped, doubled or dropped, a
        # self-loop or a bit out of range; in half the cases every step
        # flips one of prev's 2-vertex modules, which keeps the 3-cycles
        rng = random.Random(76)
        verdicts, pairs_seen = Counter(), Counter()
        for _ in range(3000):
            n = rng.randint(2, 9)
            prev = planted_tournament(n, rng)
            h = c3_structure(prev)
            cur = list(prev.succ if rng.random() < 0.75 else prev.dual().succ)
            twins = [(u, v) for u, v in combinations(range(n), 2)
                     if not (prev.succ[u] ^ prev.succ[v]) & ~(1 << u | 1 << v)]
            moves = twins and rng.random() < 0.5
            for _ in range(rng.randint(1, 4)):
                op = 0 if moves else rng.randrange(5)
                u, v = rng.choice(twins) if moves else rng.sample(range(n), 2)
                if op == 0:
                    cur[u] ^= 1 << v
                    cur[v] ^= 1 << u
                elif op == 1:
                    cur[u] |= 1 << v
                    cur[v] |= 1 << u
                elif op == 2:
                    cur[u] &= ~(1 << v)
                    cur[v] &= ~(1 << u)
                elif op == 3:
                    cur[u] ^= 1 << u
                else:
                    cur[u] ^= 1 << rng.randrange(n, n + 3)
            try:
                expected = c3_structure(Tournament(n, cur)) == h
            except PreconditionError:
                expected = False
            pairs = realization._changed_pairs(prev.succ, cur)
            spans = _hypergraph_closure(h).spans
            got = pairs is not None and realization._realizes_at(spans, cur, h.vertex_mask, pairs)
            assert got == expected, (prev, cur)
            verdicts[expected] += 1
            if expected:
                # each changed pair listed once
                listed = [(u, v) for u, partners in pairs for v in iter_bits(partners)]
                changed = [(u, v) for u, v in combinations(range(n), 2)
                           if (cur[u] ^ prev.succ[u]) >> v & 1]
                assert sorted(listed) == changed
                pairs_seen[min(len(changed), 2)] += 1
        assert min(verdicts.values()) >= 500, verdicts
        assert min(pairs_seen.values()) >= 100, pairs_seen

    def test_each_grown_vertex_checked_once(self, monkeypatch):
        # during ``realize``, the ``new`` masks of one prime node's steps
        # are disjoint, cover the set grown so far and end at its transverse
        runs = []
        real_grow, real_check = realization._grow, realization._realizes_within

        def grow_spy(h, spans, w, chain):
            runs.append([])
            return real_grow(h, spans, w, chain)

        def check_spy(spans, succ, w, new):
            runs[-1].append((w, new))
            return real_check(spans, succ, w, new)

        monkeypatch.setattr(realization, "_grow", grow_spy)
        monkeypatch.setattr(realization, "_realizes_within", check_spy)
        rng = random.Random(68)
        grown = 0
        for _ in range(80):
            h = c3_structure(planted_tournament(rng.randint(4, 16), rng))
            runs.clear()
            assert isinstance(realize(h), Tournament)
            primes = [sum(c.members & -c.members for c in node.children)
                      for node in decomposition_tree(h).internal_nodes()
                      if node.label == LABEL_PRIME]
            assert len(runs) == len(primes)
            covered = []
            for calls in runs:
                seen = 0
                for w, new in calls:
                    assert new & seen == 0 and seen | new == w, (h, calls)
                    seen = w
                covered.append(seen)
            assert sorted(c for c in covered if c) == sorted(t for t in primes
                                                            if t.bit_count() > 3)
            grown += sum(t.bit_count() > 3 for t in primes)
        assert grown >= 40, grown


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


def regrow(h, four):
    """The reference for a witness cut down to the dense 4-set ``four``:
    growth within ``four`` along a chain walked within it, as
    ``realization._realize_within`` once ran it."""
    close = _hypergraph_closure(h)
    return realization._grow(h, close.spans, four, decomposition._chain(h, close, four))


class TestDenseFourStage:
    """A witness cut down to a dense 4-set is reported at ``extension-M1``
    with no growth within the 4-set, as the regrowth reported it."""

    def test_regrowth_of_each_dense_four_fails_at_m1(self):
        # growth within a 4-set reads only H[four] in vertex order, so the
        # five labelled hypergraphs on {0, 1, 2, 3} with three or more edges
        # are every case
        triples = list(combinations(range(4), 3))
        dense = [Hypergraph(4, edges) for k in (3, 4) for edges in combinations(triples, k)]
        assert len(dense) == 5
        for h in dense:
            got = regrow(h, h.vertex_mask)
            assert got.to_json() == {"non_realizable": {"witness": [0, 1, 2, 3],
                                                        "stage": STAGE_EXTENSION_M1}}, h

    def test_no_growth_within_a_dense_four(self, monkeypatch):
        grown, cut = [], []
        real_grow, real_four = realization._grow, realization._dense_four

        def grow_spy(h, spans, w, chain):
            grown.append(w)
            return real_grow(h, spans, w, chain)

        def four_spy(spans, w):
            four = real_four(spans, w)
            cut.append(four)
            return four

        monkeypatch.setattr(realization, "_grow", grow_spy)
        monkeypatch.setattr(realization, "_dense_four", four_spy)
        rng = random.Random(70)
        seen = 0
        for h in three_uniform_inputs(rng, 150, 10):
            if h.n < 5:
                continue
            grown.clear()
            cut.clear()
            got = realize(h)
            four = next((f for f in cut if f is not None), None)
            if four is None:
                continue
            assert four not in grown, h
            assert got.to_json() == regrow(h, four).to_json(), h
            seen += 1
        assert seen >= 40, seen


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
