import ast
import inspect
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

import c3realize
from c3realize import (
    CapacityError, Hypergraph, PreconditionError, c3_structure, check_covering_axioms,
    check_partitive, count_realizations, critical_family,
    brute_force_realizations, all_tournaments, linear_order, oracle, random_hypergraph,
    random_tournament,
)


class TestAllTournaments:
    def test_counts(self):
        assert len(list(all_tournaments(2))) == 2
        assert len(list(all_tournaments(3))) == 8
        assert len(list(all_tournaments(4))) == 64

    def test_three_vertex_cycle_count(self):
        cyclic = [t for t in all_tournaments(3) if c3_structure(t).edges]
        assert len(cyclic) == 2

    def test_all_distinct(self):
        ts = list(all_tournaments(4))
        assert len(set(ts)) == 64

    def test_capacity(self):
        with pytest.raises(CapacityError, match="7"):
            next(all_tournaments(8))

    def test_arguments_are_checked_when_called(self):
        # no next(): the count and the cap are checked before the first item
        with pytest.raises(CapacityError, match="7"):
            all_tournaments(99)
        with pytest.raises(PreconditionError, match="vertex count"):
            all_tournaments(-1)


class TestBruteForceRealizations:
    def test_single_triple(self):
        assert len(brute_force_realizations(Hypergraph(3, [[0, 1, 2]]))) == 2

    def test_empty_three(self):
        assert len(brute_force_realizations(Hypergraph(3, []))) == 6

    def test_complete_four(self):
        h = Hypergraph(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        assert brute_force_realizations(h) == []

    def test_results_realize(self):
        h = c3_structure(critical_family("T", 5))
        for t in brute_force_realizations(h):
            assert c3_structure(t) == h

    def test_non_3_uniform_has_no_realizations(self):
        assert brute_force_realizations(Hypergraph(3, [[0, 1]])) == []

    def test_search_agrees_with_a_scan_of_every_tournament(self):
        # the pair-by-pair search returns the tournaments that a scan of
        # all_tournaments keeps, in its order: on the 3-cycle structure of
        # every tournament of order <= 5, and on each with one triple toggled
        for n in range(6):
            by_structure = {}
            for t in all_tournaments(n):
                by_structure.setdefault(c3_structure(t), []).append(t)
            triples = [sum(1 << v for v in c) for c in combinations(range(n), 3)]
            for h in list(by_structure):
                for g in [h] + [Hypergraph(n, h.edges ^ {e}) for e in triples]:
                    assert brute_force_realizations(g) == by_structure.get(g, []), g

    def test_agrees_with_counting_formula_exhaustively(self):
        for n in (1, 2, 3, 4):
            for t in all_tournaments(n):
                h = c3_structure(t)
                assert count_realizations(h) == len(brute_force_realizations(h))


class TestCheckPartitive:
    def test_passes_on_empty_hypergraph(self):
        report = check_partitive(Hypergraph(4, []))
        assert report.passed
        assert report.checked > 0

    def test_passes_on_random_inputs(self):
        rng = random.Random(5)
        for _ in range(25):
            h = random_hypergraph(rng.randint(1, 7), rng)
            report = check_partitive(h)
            assert report.passed, report.to_json()

    def test_report_shape(self):
        report = check_partitive(Hypergraph(3, [[0, 1, 2]]))
        data = json.loads(json.dumps(report.to_json()))
        assert data["checker"] == "partitive"
        assert data["passed"] is True
        assert data["violations"] == []

    def test_detects_broken_family(self):
        # {0,2} is missing: the overlapping pair {0,1},{1,2} has no symmetric
        # difference in the family, and {1,2}\{0,1} fails difference closure
        from c3realize.oracle import AxiomReport, _closure_violations
        report = AxiomReport("partitive")
        family = frozenset({0b000, 0b001, 0b010, 0b100, 0b011, 0b110, 0b111})
        _closure_violations(report, family, 0b111)
        assert not report.passed
        axioms = {v["axiom"] for v in report.violations}
        assert "overlapping-symmetric-difference" in axioms


class TestCheckCoveringAxioms:
    def test_passes_and_records_seed(self):
        rng = random.Random(6)
        for _ in range(10):
            h = random_hypergraph(rng.randint(1, 6), rng)
            report = check_covering_axioms(h, samples=120, seed=9)
            assert report.passed, report.to_json()
            assert report.to_json()["seed"] == 9
            assert report.checked == 120

    def test_deterministic_given_seed(self):
        h = Hypergraph(5, [[0, 1, 2], [2, 3, 4], [0, 3]])
        a = check_covering_axioms(h, samples=60, seed=3).to_json()
        b = check_covering_axioms(h, samples=60, seed=3).to_json()
        assert a == b


class TestRandomGenerators:
    def test_random_tournament_is_valid(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(0, 7)
            t = random_tournament(n, rng)
            for i in range(n):
                for j in range(i + 1, n):
                    assert t.has_arc(i, j) != t.has_arc(j, i)

    def test_random_hypergraph_edge_sizes(self):
        rng = random.Random(1)
        for _ in range(30):
            h = random_hypergraph(6, rng, sizes=(2, 3, 4))
            assert all(2 <= e.bit_count() <= 4 for e in h.edges)


# Every public name of the package, wherever it is defined.
PUBLIC_NAMES = """
AxiomReport C3RealizeError CapacityError DecompositionTree ExtensionCertificate
Graph Hypergraph InvariantError LABEL_COMPLETE LABEL_EMPTY LABEL_LINEAR
LABEL_PRIME ModularPartition NonRealizabilityWitness ParseError
PreconditionError RealizationChoice Tournament TreeNode VertexSet
all_tournaments bitset brute_force_realizations c3_structure
check_covering_axioms check_partitive choice_to_tournament components core
count_realizations critical_family decomposition decomposition_tree
default_choice dual dump_hypergraph dump_tournament enumerate_modules
enumerate_realizations enumerate_usual_modules errors extend_realization
extension_certificate hypergraph_isomorphism hypergraph_to_json
induced_subhypergraph io is_linear_order is_module is_prime is_strong_module
is_usual_module linear_order maximal_proper_strong_modules module_violation
oracle parse_hypergraph parse_tournament quotient random_hypergraph
random_tournament realization realize realize_critical realize_prime
smallest_strong_module_containing strong_modules
tournament_decomposition_tree tournament_is_module tournament_is_prime
tournament_modules tournament_pi tournament_quotient
tournament_strong_modules tournament_to_json
""".split()


def package_imports(module):
    """The package modules that ``c3realize/<module>.py`` imports from."""
    tree = ast.parse((Path(c3realize.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found |= {node.module} if node.module else {a.name for a in node.names}
            elif (node.module or "").startswith("c3realize"):
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("c3realize")}
    return found


class TestLayering:
    """The brute-force oracle stands on the data structures alone, and the
    realization pipeline never calls into it."""

    def test_oracle_imports_only_the_data_structures(self):
        assert package_imports("oracle") <= {"bitset", "core", "errors"}

    def test_realization_does_not_import_the_oracle(self):
        assert not {m for m in package_imports("realization") if "oracle" in m}

    def test_realization_does_not_import_the_step_rule(self):
        # the chain of prime sets is walked in ``decomposition._chain`` alone
        tree = ast.parse((Path(c3realize.__file__).parent / "realization.py").read_text())
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module in ("decomposition", "c3realize.decomposition")
                    for a in node.names}
        assert "_chain" in imported
        assert not imported & {"_twin", "_pair_keeps_prime", "_next_prime", "_first_edge"}

    def test_searches_live_in_the_oracle(self):
        for name in ("hypergraph_isomorphism", "enumerate_modules", "enumerate_usual_modules",
                     "is_usual_module", "tournament_modules"):
            assert getattr(c3realize, name).__module__ == "c3realize.oracle", name

    def test_public_names_stay_importable(self):
        assert [name for name in PUBLIC_NAMES if not hasattr(c3realize, name)] == []


BIG = Hypergraph(21, [])
CAPPED = {
    "subsets_where": lambda: oracle.subsets_where(BIG.vertex_mask, lambda m: True),
    "modules_within": lambda: oracle.modules_within(BIG, BIG.vertex_mask),
    "enumerate_modules": lambda: oracle.enumerate_modules(BIG),
    "enumerate_usual_modules": lambda: oracle.enumerate_usual_modules(BIG),
    "tournament_modules": lambda: oracle.tournament_modules(linear_order(21)),
    "check_partitive": lambda: oracle.check_partitive(BIG),
    "check_covering_axioms": lambda: oracle.check_covering_axioms(BIG),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_fixed_cap_refuses_21_vertices_before_scanning(name, monkeypatch):
    # every brute-force module scan is capped at DEFAULT_BOUND = 20
    # vertices, with no parameter to raise it, and refuses a larger input
    # before it tests a subset
    def scan(ground):
        raise AssertionError("scanned past the cap")

    monkeypatch.setattr(oracle, "iter_submasks", scan)
    assert "bound" not in inspect.signature(getattr(oracle, name)).parameters
    with pytest.raises(CapacityError, match="20"):
        CAPPED[name]()
