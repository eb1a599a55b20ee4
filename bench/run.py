"""Benchmark of c3realize's public operations on seeded workloads.

    python3 bench/run.py --workload prime --seed 1 --seconds 40 --trace 0

Each round takes the next input of the workload's corpus and calls
``decomposition_tree``, ``tournament_decomposition_tree`` (on the source
tournament), ``realize``, ``count_realizations`` and
``enumerate_realizations`` (up to ENUM_LIMIT items) on it, then checks every
output against ``independent.py``.  Rounds repeat until ``--seconds`` have
passed and at least MIN_ROUNDS rounds are done.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` the same rounds also call each layer's public functions one
stage at a time, record a span around each call with the operation as
parent, and print per-layer metrics.  Results and spans are written under
``bench/out/``.  Exits with 2 under ``python -O`` and with 1 when the
package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import independent as ind
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

MIN_ROUNDS = 40
SETUP_REPEATS = 21
TAIL_BEYOND = 10      # a tail is the sample with this many samples above it
# The time calibration_work() takes at the reference speed; every reported
# time is scaled to that speed (see Speed).
REFERENCE_NS = 3_000_000

OPERATIONS = ("decompose", "tdecompose", "realize", "count", "enumerate")
# per-layer span names and the unit each is reported in
SPAN_METRICS = (
    ("decomposition.tree", "ms"), ("decomposition.pi", "ms"),
    ("decomposition.quotient", "ms"), ("decomposition.is_prime", "ms"),
    ("decomposition.tournament_tree", "ms"), ("decomposition.tournament_pi", "ms"),
    ("decomposition.tournament_quotient", "ms"),
    ("decomposition.tournament_is_prime", "ms"),
    ("realization.realize_prime", "ms"), ("realization.assemble", "ms"),
    ("core.c3_structure", "ms"), ("core.tournament", "us"), ("core.induced", "us"),
    ("io.parse_hypergraph", "us"), ("io.dump_tournament", "us"), ("enumerate.item", "us"),
)

now = time.perf_counter_ns


def load_package():
    """Import c3realize from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import c3realize
    except ImportError:
        return None
    if Path(c3realize.__file__).resolve().parent != SRC / "c3realize":
        return None
    return c3realize


def calibration_work() -> int:
    """A fixed piece of interpreter work of the kind the package does: build
    a frozenset of edge masks, then test subsets against every edge."""
    rng = random.Random(1)
    edges = frozenset(rng.getrandbits(14) for _ in range(120))
    ordered = sorted(edges)
    hits = 0
    for m in range(1, 1 << 8):
        for e in ordered:
            inter = e & m
            if inter & (inter - 1) == 0 and (e | m) in edges:
                hits += 1
    return hits


class Speed:
    """How fast the machine runs the interpreter, measured between rounds.

    On a shared machine the same loop can take from 1x to 2x its best time
    from one second to the next, and raw timings of equal runs drift apart
    by 5-20 %.  So calibration_work() is timed before every round and after
    the last, and a time taken in round r is scaled by REFERENCE_NS over the
    mean of the two calibrations around it: times are reported at the speed
    at which calibration_work() takes REFERENCE_NS.
    """

    def __init__(self):
        self.marks: list[int] = []

    def measure(self) -> None:
        start = now()
        calibration_work()
        self.marks.append(now() - start)

    def scale(self, r: int) -> float:
        """The factor for a time taken between marks r and r + 1."""
        return 2 * REFERENCE_NS / (self.marks[r] + self.marks[r + 1])


def per_input(samples: list[tuple[int, float]]) -> list[float]:
    """Each input's median over its calls, which drops stray slow calls."""
    by_input = defaultdict(list)
    for index, value in samples:
        by_input[index].append(value)
    return [statistics.median(v) for v in by_input.values()]


def typical(samples: list[tuple[int, float]]) -> float:
    """Mean over the inputs of each input's median.

    Within one order and tree shape, the time of one input still depends
    on the input and bunches into groups, so a median over calls can fall
    between groups on one seed and not on another; the mean moves smoothly
    with the mix.
    """
    medians = per_input(samples)
    return statistics.fmean(medians) if medians else 0.0


def tail(samples: list[tuple[int, float]]) -> float:
    """The highest input median with at least TAIL_BEYOND input medians
    above it: the time of the slow inputs, not of one unlucky call."""
    ordered = sorted(per_input(samples))
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)] if ordered else 0.0


class Tracer:
    """Spans kept in memory and written out when the run ends.

    A span is (op, span, parent, name, start_ns, end_ns, input, round):
    ``op`` numbers the end-to-end operation, whose own span has no parent.
    """

    FIELDS = ["op", "span", "parent", "name", "start_ns", "end_ns", "input", "round"]

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops = 0
        self.input = self.round = 0

    def operation(self, name: str, start: int, end: int) -> tuple[int, int]:
        self.ops += 1
        return self.ops, self.record(self.ops, None, name, start, end)

    def record(self, op: int, parent: int | None, name: str, start: int, end: int) -> int:
        self.spans.append((op, len(self.spans), parent, name, start, end,
                           self.input, self.round))
        return len(self.spans) - 1

    def timed(self, op: int, parent: int, name: str, fn, *args, **kwargs):
        start = now()
        result = fn(*args, **kwargs)
        self.record(op, parent, name, start, now())
        return result

    def samples(self, name: str) -> list[tuple[int, int, int]]:
        return [(s[6], s[7], s[5] - s[4]) for s in self.spans if s[3] == name]


class SetupProbe:
    """Times a fresh process that imports the package and parses the
    inputs (see probe.py).  Runs are spread over the measurement so that
    the median is not taken in one stretch of machine load."""

    def __init__(self, cases: list[workloads.Case]):
        self.payload = json.dumps([[c.hypergraph_json(), c.tournament_json()] for c in cases])
        self.expect = str(len(cases))
        self.speed = Speed()
        self.seconds: list[float] = []

    def run(self) -> None:
        self.speed.measure()
        start = now()
        done = subprocess.run([sys.executable, str(BENCH / "probe.py")], input=self.payload,
                              capture_output=True, text=True, timeout=60)
        elapsed = now() - start
        self.speed.measure()
        self.seconds.append(elapsed * self.speed.scale(len(self.speed.marks) - 2) / 1e9)
        if done.returncode != 0 or done.stdout.strip() != self.expect:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")


class Bench:
    def __init__(self, c3, trace: bool):
        self.c3 = c3
        self.tracer = Tracer() if trace else None
        self.speed = Speed()
        # name -> (input, round, ns) for every call
        self.samples: dict[str, list[tuple[int, int, int]]] = defaultdict(list)
        self.index = self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # per distinct input: exact counts of work done
        self.internal_nodes: dict[int, int] = {}
        self.items: dict[int, int] = {}
        self.witness: dict[int, int] = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)

    def sample(self, name: str, ns: int) -> None:
        self.samples[name].append((self.index, self.rounds, ns))

    def call(self, name: str, fn, *args):
        """One timed operation; returns (ok, result, start, end)."""
        self.attempted += 1
        start = now()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None, start, now()
        end = now()
        self.sample(name, end - start)
        return True, result, start, end

    def round(self, index: int, case: workloads.Case, h, t, h_text: str) -> None:
        """One round of every operation on one input, between two speed marks."""
        c3, tr = self.c3, self.tracer
        if not self.speed.marks:
            self.speed.measure()
        self.index = index
        if tr:
            tr.input, tr.round = index, self.rounds
            start = now()
            c3.parse_hypergraph(h_text)
            end = now()
            op, root = tr.operation("parse", start, end)
            tr.record(op, root, "io.parse_hypergraph", start, end)

        ok, tree, s, e = self.call("decompose", c3.decomposition_tree, h)
        if ok:
            self.check_tree(tree.root, case, hypergraph=True)
            self.internal_nodes[index] = sum(1 for _ in tree.internal_nodes())
            if tr:
                self.staged_decompose(h, s, e)

        ok, ttree, s, e = self.call("tdecompose", c3.tournament_decomposition_tree, t)
        if ok:
            self.check_tree(ttree.root, case, hypergraph=False)
            if tr:
                self.staged_tdecompose(t, s, e)

        ok, res, s, e = self.call("realize", c3.realize, h)
        realize_ns = e - s if ok else None
        if ok:
            self.check_realize(index, case, res)
            if tr:
                self.staged_realize(h, s, e)

        ok, count, s, e = self.call("count", c3.count_realizations, h)
        if ok:
            self.check(count == case.count,
                       f"count {count} != independent count {case.count}")
            if realize_ns is not None:
                self.sample("count.gap", e - s - realize_ns)

        self.enumerate_op(index, case, h)
        self.speed.measure()
        self.rounds += 1

    def enumerate_op(self, index: int, case: workloads.Case, h) -> None:
        limit = workloads.ENUM_LIMIT
        marks = []
        items = []
        self.attempted += 1
        start = now()
        try:
            for item in self.c3.enumerate_realizations(h):
                marks.append(now())
                items.append(item)
                if len(items) == limit:
                    break
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        end = now()
        self.sample("enumerate", end - start)
        self.sample("enum_first", (marks[0] if marks else end) - start)
        self.items[index] = len(items)
        if self.tracer:
            op, root = self.tracer.operation("enumerate", start, end)
            prev = start
            for k, mark in enumerate(marks):
                self.tracer.record(op, root, "enumerate.item" if k else "enumerate.first",
                                   prev, mark)
                prev = mark
        self.check(len(items) == min(limit, case.count),
                   f"enumerate gave {len(items)} items, expected {min(limit, case.count)}")
        succs = [item.succ for item in items]
        self.check(len(set(succs)) == len(succs), "enumerate repeated an item")
        for succ in succs:
            self.check(ind.three_cycles(case.n, succ) == case.edges,
                       "an enumerated tournament does not realize the input")
        if case.realizations:
            self.check(set(succs) == case.realizations,
                       "enumerate differs from the independent realizations")

    # --- checks ---------------------------------------------------------

    def check_tree(self, root, case: workloads.Case, hypergraph: bool) -> None:
        n = case.n
        if hypergraph:
            link = ind.link_table(n, case.edges)
            is_module = lambda m: ind.is_hypergraph_module(n, link, m)  # noqa: E731
            shape, kind = case.shape, "hypergraph"
        else:
            is_module = lambda m: ind.is_tournament_module(n, case.succ, m)  # noqa: E731
            shape, kind = case.tshape, "tournament"
        for problem in ind.tree_problems(root, (1 << n) - 1, is_module):
            self.check(False, f"{kind} tree: {problem}")
        self.check(ind.tree_shape(root) == shape, f"{kind} tree differs from the planted shape")
        if hypergraph and case.count:
            self.check(ind.tree_count(root) == case.count,
                       "tree count differs from the independent count")

    def check_realize(self, index: int, case: workloads.Case, res) -> None:
        if case.count:
            succ = getattr(res, "succ", None)
            self.check(succ is not None and ind.three_cycles(case.n, succ) == case.edges,
                       "realize did not return a realization")
            return
        vertices = getattr(res, "vertices", None)
        if vertices is None:
            self.check(False, "realize returned no witness for a non-realizable input")
            return
        mask = sum(1 << v for v in vertices)
        self.witness[index] = len(vertices)
        self.check(0 < mask < (1 << case.n), "witness is not a vertex subset")
        k, sub = ind.induced_edges(case.edges, mask)
        self.check(ind.count_realizations(k, sub, limit=1) == 0,
                   "the witness's induced subhypergraph has a realization")

    # --- staged calls (traced runs only) ----------------------------------

    def staged_decompose(self, h, start: int, end: int) -> None:
        c3, tr = self.c3, self.tracer
        op, root = tr.operation("decompose", start, end)
        tr.record(op, root, "decomposition.tree", start, end)
        pi = tr.timed(op, root, "decomposition.pi", c3.maximal_proper_strong_modules, h)
        q = tr.timed(op, root, "decomposition.quotient", c3.quotient, h, pi)
        tr.timed(op, root, "decomposition.is_prime", c3.is_prime, q)

    def staged_tdecompose(self, t, start: int, end: int) -> None:
        c3, tr = self.c3, self.tracer
        op, root = tr.operation("tdecompose", start, end)
        tr.record(op, root, "decomposition.tournament_tree", start, end)
        pi = tr.timed(op, root, "decomposition.tournament_pi", c3.tournament_pi, t)
        q = tr.timed(op, root, "decomposition.tournament_quotient",
                     c3.tournament_quotient, t, pi)
        tr.timed(op, root, "decomposition.tournament_is_prime", c3.tournament_is_prime, q)

    def staged_realize(self, h, start: int, end: int) -> None:
        """``realize`` again, one public call per stage.

        The transverse of a prime node takes the smallest vertex of each
        child, and ``realize_prime`` is told the input is prime, as
        ``realize`` does; ``realize.gap`` is the time these stages miss.
        """
        c3, tr = self.c3, self.tracer
        op, root = tr.operation("realize", start, end)
        first = len(tr.spans)

        def gap() -> None:
            staged = sum(s[5] - s[4] for s in tr.spans[first:])
            self.sample("realize.gap", end - start - staged)

        tree = tr.timed(op, root, "decomposition.tree", c3.decomposition_tree, h)
        base = {}
        for node in tree.internal_nodes():
            if node.label != c3.LABEL_PRIME:
                continue
            transverse = 0
            for child in node.children:
                transverse |= int(child.members) & -int(child.members)
            sub = tr.timed(op, root, "core.induced", c3.induced_subhypergraph, h, transverse)
            res = tr.timed(op, root, "realization.realize_prime", c3.realize_prime, sub,
                           _assume_prime=True)
            if isinstance(res, c3.NonRealizabilityWitness):
                return gap()
            base[int(node.members)] = res
        t = tr.timed(op, root, "realization.assemble", c3.choice_to_tournament,
                     h, tree, c3.default_choice(tree, base))
        check_start = now()
        same = c3.c3_structure(t) == h
        tr.record(op, root, "core.c3_structure", check_start, now())
        self.check(same, "staged realize produced a non-realization")
        gap()
        tr.timed(op, root, "core.tournament", c3.Tournament, t.n, t.succ)
        tr.timed(op, root, "io.dump_tournament", c3.dump_tournament, t)

    # --- results ----------------------------------------------------------

    def scaled(self, samples, unit: str) -> list[tuple[int, float]]:
        """(input, time in ``unit`` at the reference speed) for each sample."""
        per_ns = {"ms": 1e-6, "us": 1e-3}[unit]
        return [(i, ns * self.speed.scale(r) * per_ns) for i, r, ns in samples]

    def end_to_end(self, setup_s: float) -> dict:
        def ms(name: str) -> list[tuple[int, float]]:
            return self.scaled(self.samples[name], "ms")

        busy_ms = sum(v for op in OPERATIONS for _, v in ms(op))
        return {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ops_per_s": ((self.attempted - self.failed) / (busy_ms / 1e3), "1/s"),
            "realize_ms.mean": (typical(ms("realize")), "ms"),
            "realize_ms.tail": (tail(ms("realize")), "ms"),
            "count_ms.mean": (typical(ms("count")), "ms"),
            "decompose_ms.mean": (typical(ms("decompose")), "ms"),
            "tdecompose_ms.mean": (typical(ms("tdecompose")), "ms"),
            "enum_first_ms.mean": (typical(ms("enum_first")), "ms"),
            "enum_ms.mean": (typical(ms("enumerate")), "ms"),
            "enum_ms.tail": (tail(ms("enumerate")), "ms"),
        }

    def per_layer(self) -> dict:
        def mean(values) -> float:
            return statistics.fmean(values) if values else 0.0

        out = {}
        for name, unit in SPAN_METRICS:
            out[f"{name}_{unit}"] = (typical(self.scaled(self.tracer.samples(name), unit)), unit)
        for name in ("count.gap", "realize.gap"):
            out[f"{name}_ms"] = (typical(self.scaled(self.samples[name], "ms")), "ms")
        out["decomposition.internal_nodes"] = (mean(self.internal_nodes.values()), "count")
        out["enumerate.items"] = (mean(self.items.values()), "count")
        out["realization.witness_vertices"] = (mean(self.witness.values()), "vertices")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under python -O: the package re-verifies its outputs "
              "with asserts, which -O removes", file=sys.stderr)
        return 2
    c3 = load_package()
    if c3 is None:
        print(f"cannot import c3realize from {SRC}", file=sys.stderr)
        return 1

    cases = workloads.build(args.workload, args.seed)
    parsed = [(c3.parse_hypergraph(c.hypergraph_json()), c3.parse_tournament(c.tournament_json()),
               c.hypergraph_json()) for c in cases]
    probe = SetupProbe(cases)

    bench = Bench(c3, bool(args.trace))
    bench.round(0, cases[0], *parsed[0])     # warm-up, not counted
    bench = Bench(c3, bool(args.trace))
    gc.collect()
    start = now()
    span = int(args.seconds * 1e9)
    while now() - start < span or bench.rounds < MIN_ROUNDS:
        if len(probe.seconds) < SETUP_REPEATS * (now() - start) / span:
            probe.run()
        k = bench.rounds % len(cases)
        bench.round(k, cases[k], *parsed[k])
    while len(probe.seconds) < SETUP_REPEATS:
        probe.run()
    setup_s = statistics.median(probe.seconds)

    metrics = bench.per_layer() if args.trace else bench.end_to_end(setup_s)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": bench.rounds, "calls": {k: len(v) for k, v in bench.samples.items()},
            "calibration_ns": statistics.median(bench.speed.marks),
            "python": platform.python_version(), "flags": str(sys.flags),
            "problems": bench.problems}
    if args.trace:
        info["traced_end_to_end"] = {k: v for k, (v, _) in bench.end_to_end(setup_s).items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({"info": info, "result": result},
                                                        indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": Tracer.FIELDS, "spans": bench.tracer.spans}))
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
