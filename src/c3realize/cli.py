"""Command-line front end.

Every subcommand reads one structure file ("-" for standard input), writes
machine-parseable JSON to standard output (DOT excepted), and exits with 0
on success, 1 on a parse error, 2 on a precondition or capacity violation,
3 when ``realize`` finds the input not realizable, and 4 when a result fails
the package's own check of it (an ``InvariantError``: a bug, not a bad
input).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import decomposition, oracle, realization
from .core import Hypergraph, Tournament, c3_structure, critical_family, linear_order
from .errors import CapacityError, InvariantError, ParseError, PreconditionError
from .io import (dump_hypergraph, dump_tournament, parse_hypergraph,
                 parse_tournament, tournament_to_json)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_NOT_REALIZABLE = 3
EXIT_INVARIANT = 4


def _read_input(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), path
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc.strerror}", source=path) from exc


def _hypergraph(path: str) -> Hypergraph:
    text, source = _read_input(path)
    return parse_hypergraph(text, source)


def _tournament(path: str) -> Tournament:
    text, source = _read_input(path)
    return parse_tournament(text, source)


def _cmd_c3(args) -> int:
    t = _tournament(args.input)
    print(dump_hypergraph(c3_structure(t)))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    h = _hypergraph(args.input)
    tree = decomposition.decomposition_tree(h)
    if args.format == "dot":
        print(tree.to_dot())
    else:
        print(json.dumps(tree.to_json()))
    return EXIT_OK


def _cmd_modules(args) -> int:
    h = _hypergraph(args.input)
    if args.strong and args.usual:
        raise PreconditionError("--strong cannot be combined with --usual")
    if args.usual:
        mods = oracle.enumerate_usual_modules(h)
    elif args.strong:
        mods = decomposition.strong_modules(h)
    else:
        mods = oracle.enumerate_modules(h)
    listed = sorted((list(m) for m in mods), key=lambda xs: (len(xs), xs))
    print(json.dumps(listed))
    return EXIT_OK


def _parse_vertex_set(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise PreconditionError(f"--set expects comma-separated integers, got {text!r}") from exc


def _cmd_is_module(args) -> int:
    h = _hypergraph(args.input)
    vertices = _parse_vertex_set(args.set)
    violation = decomposition.module_violation(h, vertices)
    out = {"is_module": violation is None,
           "violating_edge": None if violation is None else list(violation)}
    print(json.dumps(out))
    return EXIT_OK


def _cmd_realize(args) -> int:
    h = _hypergraph(args.input)
    result = realization.realize(h)
    if isinstance(result, realization.NonRealizabilityWitness):
        print(json.dumps(result.to_json()))
        return EXIT_NOT_REALIZABLE
    print(dump_tournament(result))
    return EXIT_OK


def _cmd_count(args) -> int:
    h = _hypergraph(args.input)
    print(realization.count_realizations(h))
    return EXIT_OK


def _non_negative(value: int | None, flag: str) -> None:
    if value is not None and value < 0:
        raise PreconditionError(f"{flag} must be >= 0, got {value}")


def _cmd_enumerate(args) -> int:
    _non_negative(args.limit, "--limit")
    h = _hypergraph(args.input)
    for t in islice(realization.enumerate_realizations(h), args.limit):
        print(dump_tournament(t))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    h = _hypergraph(args.input)
    found = oracle.brute_force_realizations(h)
    if args.mode == "count":
        print(len(found))
        return EXIT_OK
    if not found:
        print(json.dumps({"non_realizable": {"witness": None, "stage": "oracle"}}))
        return EXIT_NOT_REALIZABLE
    print(dump_tournament(found[0]))
    return EXIT_OK


def _cmd_check_axioms(args) -> int:
    _non_negative(args.samples, "--samples")
    h = _hypergraph(args.input)
    partitive = oracle.check_partitive(h)
    covering = oracle.check_covering_axioms(h, samples=args.samples, seed=args.seed)
    print(json.dumps({"partitive": partitive.to_json(), "covering": covering.to_json()}))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "L":
        t = linear_order(args.order)
    else:
        t = critical_family(args.family, args.order)
    print(json.dumps(tournament_to_json(t)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c3realize",
        description="Tournament realization of 3-uniform hypergraphs "
                    "and modular decomposition of hypergraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("c3", help="3-cycle structure of a tournament")
    p.add_argument("input", help="tournament JSON file, or - for stdin")
    p.set_defaults(func=_cmd_c3)

    p = sub.add_parser("decompose", help="modular decomposition tree of a hypergraph")
    p.add_argument("input", help="hypergraph JSON file, or - for stdin")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("modules", help="list the modules of a hypergraph")
    p.add_argument("input", help="hypergraph JSON file, or - for stdin")
    p.add_argument("--strong", action="store_true", help="strong modules only")
    p.add_argument("--usual", action="store_true",
                   help="componentwise-replacement module notion instead")
    p.set_defaults(func=_cmd_modules)

    p = sub.add_parser("is-module", help="test one vertex set")
    p.add_argument("input", help="hypergraph JSON file, or - for stdin")
    p.add_argument("--set", required=True, metavar="i,j,k",
                   help="comma-separated vertex indices")
    p.set_defaults(func=_cmd_is_module)

    p = sub.add_parser("realize", help="construct a realization or a witness")
    p.add_argument("input", help="hypergraph JSON file, or - for stdin")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("count", help="number of realizations")
    p.add_argument("input", help="hypergraph JSON file, or - for stdin")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="stream all realizations, one JSON per line")
    p.add_argument("input", help="hypergraph JSON file, or - for stdin")
    p.add_argument("--limit", type=int, default=None, metavar="K")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("oracle", help="brute-force realize/count")
    p.add_argument("mode", choices=("realize", "count"))
    p.add_argument("input", help="hypergraph JSON file, or - for stdin")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-axioms", help="validate module set-family laws")
    p.add_argument("input", help="hypergraph JSON file, or - for stdin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=500)
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("gen", help="generate a named tournament family member")
    p.add_argument("--family", choices=("T", "U", "W", "L"), required=True)
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
