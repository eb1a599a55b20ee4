"""The benchmark's independent checks, against the package's brute-force
oracle and against outputs that are wrong on purpose.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import random
import subprocess
import sys
import types
from itertools import combinations
from pathlib import Path

import pytest

import c3realize
import independent as ind
import run
import workloads
from c3realize import Hypergraph, oracle

RUN_PY = Path(run.__file__)


def random_3_uniform(n, rng):
    triples = [sum(1 << v for v in t) for t in combinations(range(n), 3)]
    return frozenset(e for e in triples if rng.getrandbits(1))


def tournament_c3(n, rng):
    succ = workloads._random_tournament(n, rng)
    return ind.three_cycles(n, succ)


def small_inputs():
    rng = random.Random(7)
    for n in (3, 4):
        triples = [sum(1 << v for v in t) for t in combinations(range(n), 3)]
        for code in range(1 << len(triples)):
            yield n, frozenset(e for k, e in enumerate(triples) if code >> k & 1)
    for _ in range(120):
        yield 5, random_3_uniform(5, rng)
    for _ in range(40):
        yield 5, tournament_c3(5, rng)
    for _ in range(6):
        yield 6, random_3_uniform(6, rng)
        yield 6, tournament_c3(6, rng)


@pytest.mark.parametrize("n, edges", list(small_inputs()))
def test_counter_matches_brute_force(n, edges):
    expect = {t.succ for t in oracle.brute_force_realizations(Hypergraph(n, edges))}
    assert set(ind.realizations(n, edges)) == expect


def test_three_cycles_match_package():
    rng = random.Random(3)
    for n in range(1, 10):
        succ = workloads._random_tournament(n, rng)
        t = c3realize.Tournament(n, succ)
        assert ind.three_cycles(n, succ) == c3realize.c3_structure(t).edges


@pytest.mark.parametrize("blocks", [(1, 1, 1), (3,), (3, 1), (3, 1, 1, 1), (3, 3), (3, 3, 1)])
def test_planted_count_matches_counter(blocks):
    case = workloads.planted_case(random.Random(sum(blocks)), blocks)
    assert ind.count_realizations(case.n, case.edges) == case.count
    assert case.count == ind.planted_count(blocks)


def test_module_tests_match_package():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(3, 8)
        succ = workloads._random_tournament(n, rng)
        edges = ind.three_cycles(n, succ) if rng.getrandbits(1) else random_3_uniform(n, rng)
        h, t = Hypergraph(n, edges), c3realize.Tournament(n, succ)
        link = ind.link_table(n, edges)
        for m in range(1 << n):
            assert ind.is_hypergraph_module(n, link, m) == c3realize.is_module(h, m)
            assert ind.is_tournament_module(n, succ, m) == c3realize.tournament_is_module(t, m)
        full = (1 << n) - 1
        assert ind.is_prime(n, lambda m: ind.hypergraph_closure(n, link, m)) \
            == c3realize.is_prime(h)
        assert ind.is_prime(n, lambda m: ind.tournament_closure(n, succ, m)) \
            == c3realize.tournament_is_prime(t)
        assert ind.hypergraph_closure(n, link, full) == full


def reversed_arc(t):
    """The tournament with the arc between its first two vertices reversed."""
    succ = list(t.succ)
    u, v = (0, 1) if succ[0] >> 1 & 1 else (1, 0)
    succ[u] &= ~(1 << v)
    succ[v] |= 1 << u
    return c3realize.Tournament(t.n, succ)


def tampered_package(**overrides):
    names = {name: getattr(c3realize, name) for name in dir(c3realize)
             if not name.startswith("_")}
    names.update(overrides)
    return types.SimpleNamespace(**names)


def one_round(c3, workload, trace=False):
    case = workloads.build(workload, 1)[0]
    h = c3realize.parse_hypergraph(case.hypergraph_json())
    t = c3realize.parse_tournament(case.tournament_json())
    bench = run.Bench(c3, trace)
    bench.round(0, case, h, t, case.hypergraph_json())
    return bench


@pytest.fixture(autouse=True)
def small_corpus(monkeypatch):
    monkeypatch.setattr(workloads, "CORPUS_SIZE", 1)
    monkeypatch.setattr(workloads, "PRIME_ORDER", 8)
    monkeypatch.setattr(workloads, "ENUM_LIMIT", 20)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_correct_package_passes(workload):
    bench = one_round(c3realize, workload)
    assert bench.problems == []
    assert bench.attempted == len(run.OPERATIONS) and bench.failed == 0


def test_reversed_arc_is_caught():
    # the source tournament is prime, so some vertex splits any pair and
    # reversing one arc changes the 3-cycles
    c3 = tampered_package(realize=lambda h: reversed_arc(c3realize.realize(h)))
    problems = one_round(c3, "prime").problems
    assert "realize did not return a realization" in problems


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("delta", [-1, 1])
def test_count_off_by_one_is_caught(workload, delta):
    c3 = tampered_package(count_realizations=lambda h: c3realize.count_realizations(h) + delta)
    problems = one_round(c3, workload).problems
    assert any(p.startswith("count ") for p in problems)


def test_realizable_witness_is_caught():
    def witness_of_realizable_part(h):
        return c3realize.NonRealizabilityWitness(range(3), "base")
    c3 = tampered_package(realize=witness_of_realizable_part)
    problems = one_round(c3, "reject").problems
    assert "the witness's induced subhypergraph has a realization" in problems


def test_repeated_enumeration_item_is_caught():
    def repeat_first(h):
        first = next(iter(c3realize.enumerate_realizations(h)))
        return iter([first] * workloads.ENUM_LIMIT)
    c3 = tampered_package(enumerate_realizations=repeat_first)
    problems = one_round(c3, "stream").problems
    assert "enumerate repeated an item" in problems


def test_broken_tree_is_caught():
    def flat_tree(h):
        node = c3realize.TreeNode(1 | 2, "empty", ())
        return c3realize.DecompositionTree(node, h.n, "hypergraph")
    c3 = tampered_package(decomposition_tree=flat_tree)
    problems = one_round(c3, "prime").problems
    assert any(p.startswith("hypergraph tree") for p in problems)


def declared(kind):
    spec = json.loads((RUN_PY.parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_reported(workload):
    bench = one_round(c3realize, workload)
    metrics = bench.end_to_end(setup_s=0.1)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_round_reports_every_layer(workload):
    bench = one_round(c3realize, workload, trace=True)
    metrics = bench.per_layer()
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")
    roots = {s[1] for s in bench.tracer.spans if s[2] is None}
    assert all(s[2] in roots for s in bench.tracer.spans if s[2] is not None)


def test_refuses_to_run_optimized():
    done = subprocess.run([sys.executable, "-O", str(RUN_PY), "--workload", "prime",
                           "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
