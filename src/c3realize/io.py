"""JSON file formats for hypergraphs and tournaments.

Hypergraph: ``{"n": <int>, "edges": [[i,j,k], ...]}`` with each edge a
strictly increasing index list (any length >= 2), each listed once.
Tournament: ``{"n": <int>, "arcs": [[i,j], ...]}`` with exactly one ordered
pair per unordered vertex pair.

Parsers raise :class:`ParseError` carrying the source name plus either the
line/column of a JSON syntax error or the JSON path of a semantic one.

Each parser reads its list on one of two paths.  The bulk path checks the
whole list by builtins: the types and lengths of the items, the types and
the least and greatest of all indices (before any index is shifted), then
the order of each edge, or for arcs the self-loops and repeated pairs read
from the successor masks.  Only when a check fails does the per-item loop
run: it reads the list from the start, one item at a time, and raises at
the first bad item.  The bulk path raises nothing of its own, so an error
has the same text and position whichever path its input takes.
"""

from __future__ import annotations

import json

from .core import Hypergraph, Tournament, _edge_masks, _indices_within, _two_way_arc
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
    bulk = _edge_masks(n, edges, True)
    if bulk is not None:
        distinct = frozenset(bulk[0])
        if len(distinct) == len(edges):
            return Hypergraph._from_masks(n, distinct, bulk[1])
    return Hypergraph._from_masks(n, _read_edges(n, edges, source))


def _read_edges(n: int, edges: list, source: str) -> frozenset[int]:
    """The edge masks, read one edge at a time; raises ``ParseError`` at the
    first edge that breaks the format."""
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
    return distinct


def parse_tournament(text: str, source: str = "<input>") -> Tournament:
    n, arcs = _document(text, source, "arcs")
    # checked before anything of size n is built; with more arcs than pairs
    # the loop of _read_arcs meets a repeated or invalid pair, and with no
    # repeated pair the C(n, 2) or more arcs give each pair exactly one
    expected = n * (n - 1) // 2
    if len(arcs) < expected:
        raise ParseError(f"need exactly one arc per pair: got {len(arcs)} of {expected}",
                         source=source, path="arcs")
    succ = _arc_rows(n, arcs) if len(arcs) == expected else None
    if succ is None:
        succ = _read_arcs(n, arcs, source)
    return Tournament._from_succ(n, tuple(succ))


def _arc_rows(n: int, arcs: list) -> list[int] | None:
    """The successor masks of C(n, 2) arcs read as a whole, or None if some
    arc is not a list of two distinct ``int`` indices within 0..n-1 or some
    pair is oriented twice.  The checks run over whole lists, by builtins,
    before any index is shifted; the faults are then read from the masks."""
    if arcs and not (set(map(type, arcs)) == {list} and set(map(len, arcs)) == {2}
                     and _indices_within(n, arcs)):
        return None
    succ = [0] * n
    for u, v in arcs:
        succ[u] |= 1 << v
    # an arc listed twice leaves fewer bits than arcs; a self-loop sets a
    # diagonal bit; a pair both ways sets a bit and its mirror
    if (sum(map(int.bit_count, succ)) < len(arcs)
            or any((s >> u) & 1 for u, s in enumerate(succ)) or _two_way_arc(succ)):
        return None
    return succ


def _read_arcs(n: int, arcs: list, source: str) -> list[int]:
    """The successor masks, read one arc at a time; raises ``ParseError`` at
    the first arc that breaks the format."""
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
    return succ


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"n": h.n, "edges": h.edge_lists()}


def tournament_to_json(t: Tournament) -> dict:
    """The arcs in lexicographic order, as ``Tournament.arcs`` yields them."""
    return {"n": t.n, "arcs": [[u, v] for u, v in t.arcs()]}


def dump_hypergraph(h: Hypergraph) -> str:
    return json.dumps(hypergraph_to_json(h))


def dump_tournament(t: Tournament) -> str:
    return json.dumps(tournament_to_json(t))
