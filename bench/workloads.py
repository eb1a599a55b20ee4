"""Seeded inputs for the three workloads, made without the package under test.

Every input of a workload has the same vertex order and the same planted
decomposition-tree shape, so that a percentile over the run never falls on
the step between two size classes.  Each input carries what the benchmark
checks the program against: the expected count, the expected tree shapes
of the hypergraph and of its source tournament and, for ``prime``, the
realizations found by the independent counter.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import independent as ind

PRIME_ORDER = 14
# stream: a linear order of 8 blocks, two of them 3-cycles (n = 12)
STREAM_BLOCKS = (3, 3, 1, 1, 1, 1, 1, 1)
CORPUS_SIZE = 96
ENUM_LIMIT = 200

WORKLOADS = ("prime", "reject", "stream")


@dataclass
class Case:
    n: int
    edges: frozenset[int]
    succ: tuple[int, ...]          # the source tournament
    count: int                     # realizations, found independently
    shape: frozenset               # (members, label) of the hypergraph tree
    tshape: frozenset              # (members, label) of the tournament tree
    realizations: frozenset = field(default_factory=frozenset)

    def hypergraph_json(self) -> str:
        edges = sorted(list(ind.bits(e)) for e in self.edges)
        return json.dumps({"n": self.n, "edges": edges})

    def tournament_json(self) -> str:
        arcs = [[u, v] for u in range(self.n) for v in ind.bits(self.succ[u])]
        return json.dumps({"n": self.n, "arcs": arcs})


def _random_tournament(n: int, rng: random.Random) -> tuple[int, ...]:
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                succ[i] |= 1 << j
            else:
                succ[j] |= 1 << i
    return tuple(succ)


def _prime_shape(n: int) -> frozenset:
    """A prime root whose children are all the vertices."""
    return frozenset([((1 << n) - 1, "prime")] + [(1 << v, None) for v in range(n)])


def _prime_case(rng: random.Random) -> Case:
    """C3 of a uniformly random tournament whose structure has exactly two
    realizations, which makes its tree a single prime root."""
    n = PRIME_ORDER
    while True:
        succ = _random_tournament(n, rng)
        edges = ind.three_cycles(n, succ)
        found = ind.realizations(n, edges, limit=3)
        if len(found) == 2:
            shape = _prime_shape(n)
            return Case(n, edges, succ, 2, shape, shape, frozenset(found))


def _reject_case(rng: random.Random) -> Case:
    """A prime case with one random triple toggled, kept when the result has
    no realization and is still prime (so every input has the same tree)."""
    base = _prime_case(rng)
    n = base.n
    while True:
        triple = sum(1 << v for v in rng.sample(range(n), 3))
        edges = base.edges ^ {triple}
        if ind.count_realizations(n, edges, limit=1):
            continue
        link = ind.link_table(n, edges)
        if ind.is_prime(n, lambda m: ind.hypergraph_closure(n, link, m)):
            return Case(n, edges, base.succ, 0, base.shape, base.tshape)


def planted_case(rng: random.Random, block_sizes=STREAM_BLOCKS) -> Case:
    """C3 of a linear order of blocks, each block a 3-cycle or one vertex,
    with the blocks in random order on randomly relabelled vertices."""
    n = sum(block_sizes)
    labels = list(range(n))
    rng.shuffle(labels)
    blocks = []
    for size in block_sizes:
        blocks.append(labels[:size])
        del labels[:size]
    rng.shuffle(blocks)
    succ = [0] * n
    for a, upper in enumerate(blocks):
        for lower in blocks[a + 1:]:
            for u in upper:
                for v in lower:
                    succ[u] |= 1 << v
    for block in blocks:
        if len(block) == 3:
            x, y, z = block
            succ[x] |= 1 << y
            succ[y] |= 1 << z
            succ[z] |= 1 << x
    succ = tuple(succ)
    full = (1 << n) - 1
    masks = [sum(1 << v for v in b) for b in blocks]
    inner = [(m, "prime") for m in masks if m.bit_count() > 1]
    leaves = [(1 << v, None) for v in range(n)]
    shape = frozenset([(full, "empty")] + inner + leaves)
    tshape = frozenset([(full, "linear")] + inner + leaves)
    return Case(n, ind.three_cycles(n, succ), succ,
                ind.planted_count(block_sizes), shape, tshape)


def build(workload: str, seed: int) -> list[Case]:
    """The corpus of a workload; the same seed gives the same inputs."""
    make = {"prime": _prime_case, "reject": _reject_case,
            "stream": planted_case}[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng) for _ in range(CORPUS_SIZE)]
