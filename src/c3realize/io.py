"""JSON file formats for hypergraphs and tournaments.

Hypergraph: ``{"n": <int>, "edges": [[i,j,k], ...]}`` with each edge a
strictly increasing index list (any length >= 2), each listed once.
Tournament: ``{"n": <int>, "arcs": [[i,j], ...]}`` with exactly one ordered
pair per unordered vertex pair.

Parsers raise :class:`ParseError` carrying the source name plus either the
line/column of a JSON syntax error or the JSON path of a semantic one.
"""

from __future__ import annotations

import json

from .core import Hypergraph, Tournament
from .errors import ParseError

__all__ = [
    "parse_hypergraph", "parse_tournament",
    "hypergraph_to_json", "tournament_to_json",
    "dump_hypergraph", "dump_tournament",
]


def _require_int(value, source: str, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"expected an integer >= 0, got {value!r}", source=source, path=path)
    return value


def _document(text: str, source: str, key: str) -> tuple[int, list]:
    """``n`` and the list under ``key`` of a JSON object that holds both,
    checked in this order: the JSON syntax, the object, the two keys, n,
    the list."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, source=source, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object", source=source, path="$")
    if "n" not in data or key not in data:
        raise ParseError(f'expected keys "n" and "{key}"', source=source, path="$")
    n = _require_int(data["n"], source, "n")
    if not isinstance(data[key], list):
        raise ParseError(f"expected a list of {key}", source=source, path=key)
    return n, data[key]


def parse_hypergraph(text: str, source: str = "<input>") -> Hypergraph:
    n, edges = _document(text, source, "edges")
    masks = []
    for k, edge in enumerate(edges):
        path = f"edges[{k}]"
        if not isinstance(edge, list) or len(edge) < 2:
            raise ParseError(f"expected an index list of length >= 2, got {edge!r}",
                             source=source, path=path)
        for v in edge:
            _require_int(v, source, path)
            if v >= n:
                raise ParseError(f"vertex {v} out of range 0..{n - 1}",
                                 source=source, path=path)
        if any(a >= b for a, b in zip(edge, edge[1:])):
            raise ParseError(f"edge {edge} is not strictly increasing",
                             source=source, path=path)
        masks.append(sum(1 << v for v in edge))
    distinct = frozenset(masks)
    if len(distinct) < len(masks):  # found after the loop, with no set work per edge
        seen = set()
        for k, m in enumerate(masks):
            if m in seen:
                raise ParseError(f"edge {edges[k]} listed more than once",
                                 source=source, path=f"edges[{k}]")
            seen.add(m)
    return Hypergraph._from_masks(n, distinct)


def parse_tournament(text: str, source: str = "<input>") -> Tournament:
    n, arcs = _document(text, source, "arcs")
    # checked before anything of size n is built; with more arcs than pairs
    # the loop below meets a repeated or invalid pair, and with no repeated
    # pair the C(n, 2) or more arcs give each pair exactly one
    expected = n * (n - 1) // 2
    if len(arcs) < expected:
        raise ParseError(f"need exactly one arc per pair: got {len(arcs)} of {expected}",
                         source=source, path="arcs")
    succ = [0] * n
    for k, arc in enumerate(arcs):
        path = f"arcs[{k}]"
        if not isinstance(arc, list) or len(arc) != 2:
            raise ParseError(f"expected an ordered pair, got {arc!r}",
                             source=source, path=path)
        u, v = arc
        _require_int(u, source, path)
        _require_int(v, source, path)
        if u >= n or v >= n:
            raise ParseError(f"arc {arc} has a vertex out of range 0..{n - 1}",
                             source=source, path=path)
        if u == v:
            raise ParseError(f"arc {arc} is a self-loop", source=source, path=path)
        if (succ[u] >> v | succ[v] >> u) & 1:
            raise ParseError(f"pair {{{min(u, v)},{max(u, v)}}} oriented more than once",
                             source=source, path=path)
        succ[u] |= 1 << v
    return Tournament._from_succ(n, tuple(succ))


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"n": h.n, "edges": h.edge_lists()}


def tournament_to_json(t: Tournament) -> dict:
    """The arcs in lexicographic order, as ``Tournament.arcs`` yields them."""
    return {"n": t.n, "arcs": [[u, v] for u, v in t.arcs()]}


def dump_hypergraph(h: Hypergraph) -> str:
    return json.dumps(hypergraph_to_json(h))


def dump_tournament(t: Tournament) -> str:
    return json.dumps(tournament_to_json(t))
