import json
import random
import tracemalloc

import pytest

from c3realize import (
    Hypergraph, PreconditionError, Tournament, c3_structure, cli, decomposition_tree,
    dump_hypergraph, dump_tournament, extension_certificate, is_module, is_strong_module,
    linear_order, module_violation, parse_tournament, random_tournament,
)
from c3realize.decomposition import ModularPartition, _hypergraph_closure, quotient
from c3realize.oracle import is_usual_module

BIG = 10 ** 8  # an index whose mask alone is 12.5 MB
H4 = Hypergraph(4, [[0, 1, 2], [0, 1, 3]])
L4 = linear_order(4)
TREE = decomposition_tree(H4)


def traced_peak(run, *args):
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTournamentParserMemory:
    def test_parser_peak_is_about_that_of_the_json(self):
        # a repeated pair is read from the successor masks, not from a set
        # of the C(n, 2) pairs seen
        text = dump_tournament(linear_order(300))
        assert parse_tournament(text) == linear_order(300)
        assert traced_peak(parse_tournament, text) <= 1.2 * traced_peak(json.loads, text)


@pytest.mark.parametrize("call", [
    lambda: Hypergraph(3, [[0, 1, BIG]]),
    lambda: is_module(H4, [BIG]),
    lambda: is_module(L4, [BIG]),
    lambda: module_violation(H4, [BIG]),
    lambda: is_strong_module(H4, [BIG]),
    lambda: is_usual_module(H4, [BIG]),
    lambda: ModularPartition(H4, [[0, 1, 2, 3], [BIG]]),
    lambda: quotient(H4, [[0, 1, 2, 3], [BIG]]),
    lambda: H4.induced([0, BIG]),
    lambda: L4.induced([BIG]),
    lambda: H4.has_edge([0, 1, BIG]),
    lambda: TREE.lowest_node_containing([BIG]),
], ids=["Hypergraph", "is_module", "tournament-is_module", "module_violation",
        "is_strong_module", "is_usual_module", "ModularPartition", "quotient",
        "induced", "tournament-induced", "has_edge", "lowest_node_containing"])
def test_index_out_of_range_refused_before_any_shift(call):
    # bitset.as_mask checks each index against n before it shifts by it
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match=f"vertex {BIG} not within"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_cli_refuses_out_of_range_set_before_any_shift(tmp_path, capsys, monkeypatch):
    path = tmp_path / "h4.json"
    path.write_text(dump_hypergraph(H4))
    argv = ["is-module", str(path), "--set", f"0,{BIG}"]
    # the parser is built outside the trace: its own 50-70 KB of cyclic
    # objects would make the peak depend on when the collector runs
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    cli.main(argv)  # the first parse compiles argparse's patterns
    assert traced_peak(cli.main, argv) < 64 * 1024
    assert cli.main(argv) == 2
    assert f"vertex {BIG} not within" in capsys.readouterr().err


def test_extension_certificate_refuses_bool_vertex():
    # True was taken as vertex 1
    t = Tournament(6, [26, 48, 35, 54, 4, 17])
    h, t_x = c3_structure(t), t.induced([0, 2, 3, 4, 5])
    assert extension_certificate(h, 1, t_x).ok
    with pytest.raises(PreconditionError, match="must be an int"):
        extension_certificate(h, True, t_x)


def test_closure_table_of_a_100_vertex_c3_structure_holds_no_link_sets():
    # the span table alone is about 0.5 MB here; a set of links per vertex
    # beside it took the peak past 10 MB
    h = c3_structure(random_tournament(100, random.Random(1)))
    assert len(h.edges) == 40_262
    assert traced_peak(_hypergraph_closure, h) < 1_500_000


def test_tree_of_an_edgeless_3000_vertex_hypergraph_has_no_square_table():
    # vertices in no edge share one zero span row: about 3 MB here, against
    # 72 MB for 3000 rows of 3000 cells
    assert traced_peak(decomposition_tree, Hypergraph(3000, [])) < 8_000_000


def test_link_closure_of_a_3000_vertex_hypergraph_with_one_edge_has_no_set_per_vertex():
    # mixed-size input keeps link sets, but a vertex in no edge shares one
    # empty set: about 0.12 MB here, against 0.77 MB for 3000 empty sets
    assert traced_peak(_hypergraph_closure, Hypergraph(3000, [[0, 1]])) < 200_000
