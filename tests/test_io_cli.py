import json
import math
import random
import tracemalloc

import pytest

from c3realize import (
    Hypergraph, ParseError, Tournament, c3_structure, critical_family, dual,
    dump_hypergraph, dump_tournament, parse_hypergraph, parse_tournament,
    random_tournament, realization, tournament_to_json,
)
from c3realize.cli import main


class TestHypergraphFormat:
    def test_round_trip(self):
        h = Hypergraph(4, [[0, 1, 2], [0, 1, 3]])
        assert parse_hypergraph(dump_hypergraph(h)) == h

    def test_text(self):
        assert dump_hypergraph(Hypergraph(3, [[0, 1, 2]])) == \
            '{"n": 3, "edges": [[0, 1, 2]]}'

    def test_general_edges_allowed(self):
        h = parse_hypergraph('{"n": 4, "edges": [[0, 1], [0, 2, 3]]}')
        assert not h.is_3_uniform

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_hypergraph('{"n": 3,\n "edges": [[0, 1, 2]}', source="bad.json")
        assert exc.value.source == "bad.json"
        assert exc.value.line == 2

    @pytest.mark.parametrize("text,fragment", [
        ('[1, 2]', "expected a JSON object"),
        ('{"n": 3}', 'expected keys'),
        ('{"n": -1, "edges": []}', "expected an integer"),
        ('{"n": 3, "edges": [[2, 1, 0]]}', "not strictly increasing"),
        ('{"n": 3, "edges": [[0, 0, 1]]}', "not strictly increasing"),
        ('{"n": 3, "edges": [[0, 1, 5]]}', "out of range"),
        ('{"n": 3, "edges": [[0]]}', "length >= 2"),
        ('{"n": 3, "edges": {"0": [0, 1, 2]}}', "expected a list of edges"),
        ('{"n": 3, "edges": [[0, 1, 2], [0, 1, 2]]}',
         r"at edges\[1\]: edge \[0, 1, 2\] listed more than once"),
    ])
    def test_semantic_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_hypergraph(text)

    def test_error_names_edge_position(self):
        with pytest.raises(ParseError, match=r"edges\[1\]"):
            parse_hypergraph('{"n": 4, "edges": [[0, 1, 2], [3, 1]]}')


class TestTournamentFormat:
    def test_round_trip(self):
        t = critical_family("U", 5)
        assert parse_tournament(dump_tournament(t)) == t

    @pytest.mark.parametrize("text,fragment", [
        ('{"n": 2, "arcs": [[0, 0], [0, 1]]}', "self-loop"),
        ('{"n": 2, "arcs": [[0, 1], [1, 0]]}', "oriented more than once"),
        ('{"n": 3, "arcs": [[0, 1]]}', "exactly one arc per pair"),
        ('{"n": 2, "arcs": [[0, 2]]}', "out of range"),
        ('{"n": 2, "arcs": [[0, 1, 1]]}', "ordered pair"),
        ('[[0, 1]]', "expected a JSON object"),
        ('{"n": 2}', 'expected keys "n" and "arcs"'),
        ('{"n": 2, "arcs": "0 1"}', "expected a list of arcs"),
    ])
    def test_rejects_violations(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_tournament(text)

    def test_empty_order(self):
        assert parse_tournament('{"n": 1, "arcs": []}').n == 1

    def test_arcs_come_out_sorted(self):
        rng = random.Random(75)
        for _ in range(200):
            t = random_tournament(rng.randint(1, 12), rng)
            arcs = sorted([u, v] for u, v in t.arcs())
            assert tournament_to_json(t) == {"n": t.n, "arcs": arcs}
            assert dump_tournament(t) == json.dumps({"n": t.n, "arcs": arcs})


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io as iomod
        import sys
        monkeypatch.setattr(sys, "stdin", iomod.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_gen_c3_realize_pipeline_round_trips(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "gen", "--family", "T", "--order", "5")
        assert code == 0
        code, out, _ = run_cli(capsys, "c3", "-", stdin=out, monkeypatch=monkeypatch)
        assert code == 0
        code, out, _ = run_cli(capsys, "realize", "-", stdin=out, monkeypatch=monkeypatch)
        assert code == 0
        t5 = critical_family("T", 5)
        assert parse_tournament(out) in (t5, dual(t5))

    def test_c3_from_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(dump_tournament(Tournament.from_arcs(
            3, [(0, 1), (1, 2), (2, 0)])))
        code, out, _ = run_cli(capsys, "c3", str(path))
        assert code == 0
        assert json.loads(out) == {"n": 3, "edges": [[0, 1, 2]]}

    def test_count_empty_three(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "count", "-",
                               stdin='{"n": 3, "edges": []}', monkeypatch=monkeypatch)
        assert code == 0
        assert out.strip() == "6"

    def test_wide_empty_inputs(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "decompose", "-", stdin='{"n": 200, "edges": []}',
                               monkeypatch=monkeypatch)
        assert code == 0
        tree = json.loads(out)
        assert tree["module"] == list(range(200))
        assert [c["module"] for c in tree["children"]] == [[v] for v in range(200)]
        code, out, _ = run_cli(capsys, "count", "-", stdin='{"n": 30, "edges": []}',
                               monkeypatch=monkeypatch)
        assert code == 0
        assert out.strip() == str(math.factorial(30))

    def test_realize_not_realizable_exits_3(self, capsys, monkeypatch):
        stdin = '{"n":4,"edges":[[0,1,2],[0,1,3],[0,2,3],[1,2,3]]}'
        code, out, _ = run_cli(capsys, "realize", "-", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 3
        assert json.loads(out) == {
            "non_realizable": {"witness": [0, 1, 2, 3], "stage": "extension-M1"}}

    def test_realize_output_reverifies(self, capsys, monkeypatch):
        stdin = '{"n": 4, "edges": [[0, 1, 2], [0, 1, 3]]}'
        code, out, _ = run_cli(capsys, "realize", "-", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        t = parse_tournament(out)
        assert c3_structure(t) == Hypergraph(4, [[0, 1, 2], [0, 1, 3]])

    def test_decompose_json_and_dot(self, capsys, monkeypatch):
        stdin = '{"n": 4, "edges": [[0, 1, 2], [0, 1, 3]]}'
        code, out, _ = run_cli(capsys, "decompose", "-", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        tree = json.loads(out)
        assert tree["module"] == [0, 1, 2, 3]
        assert tree["label"] == "△"
        code, out, _ = run_cli(capsys, "decompose", "-", "--format", "dot",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("digraph decomposition {")

    def test_modules_variants(self, capsys, monkeypatch):
        stdin = '{"n": 5, "edges": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]}'
        code, out, _ = run_cli(capsys, "modules", "-", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        mods = [tuple(m) for m in json.loads(out)]
        assert (0, 1) not in mods
        code, out, _ = run_cli(capsys, "modules", "-", "--usual",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        assert [0, 1] in json.loads(out)
        code, out, _ = run_cli(capsys, "modules", "-", "--strong",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        assert [2, 3, 4] in json.loads(out)
        code, _, err = run_cli(capsys, "modules", "-", "--strong", "--usual",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 2

    def test_is_module(self, capsys, monkeypatch):
        stdin = '{"n": 5, "edges": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]}'
        code, out, _ = run_cli(capsys, "is-module", "-", "--set", "0,1",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out) == {"is_module": False, "violating_edge": [0, 1, 2]}
        code, out, _ = run_cli(capsys, "is-module", "-", "--set", "2,3,4",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert json.loads(out) == {"is_module": True, "violating_edge": None}

    def test_is_module_refuses_a_set_that_is_not_integers(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, "is-module", "-", "--set", "0,x",
                               stdin='{"n": 3, "edges": []}', monkeypatch=monkeypatch)
        assert code == 2
        assert "--set" in err

    def test_enumerate_with_limit(self, capsys, monkeypatch):
        stdin = '{"n": 3, "edges": []}'
        code, out, _ = run_cli(capsys, "enumerate", "-", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert len({line for line in lines}) == 6
        code, out, _ = run_cli(capsys, "enumerate", "-", "--limit", "2",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert len(out.strip().splitlines()) == 2

    def test_negative_counts_exit_2(self, capsys, monkeypatch):
        stdin = '{"n": 3, "edges": []}'
        code, out, err = run_cli(capsys, "enumerate", "-", "--limit", "-1",
                                 stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert "--limit" in err
        code, out, err = run_cli(capsys, "check-axioms", "-", "--samples", "-1",
                                 stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert "--samples" in err

    def test_enumerate_limit_0_assembles_nothing(self, capsys, monkeypatch):
        # ``_verified`` checks each item as it is yielded, so it counts items
        calls = []
        real = realization._verified
        monkeypatch.setattr(realization, "_verified",
                            lambda *a: calls.append(a) or real(*a))
        code, out, _ = run_cli(capsys, "enumerate", "-", "--limit", "0",
                               stdin='{"n": 3, "edges": []}', monkeypatch=monkeypatch)
        assert (code, out, len(calls)) == (0, "", 0)
        code, out, _ = run_cli(capsys, "enumerate", "-", "--limit", "1",
                               stdin='{"n": 3, "edges": []}', monkeypatch=monkeypatch)
        assert (code, len(out.strip().splitlines()), len(calls)) == (0, 1, 1)

    def test_oracle_modes(self, capsys, monkeypatch):
        stdin = '{"n": 3, "edges": [[0, 1, 2]]}'
        code, out, _ = run_cli(capsys, "oracle", "count", "-",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0 and out.strip() == "2"
        code, out, _ = run_cli(capsys, "oracle", "realize", "-",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        assert c3_structure(parse_tournament(out)) == Hypergraph(3, [[0, 1, 2]])
        stdin = '{"n":4,"edges":[[0,1,2],[0,1,3],[0,2,3],[1,2,3]]}'
        code, out, _ = run_cli(capsys, "oracle", "realize", "-",
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 3
        assert json.loads(out)["non_realizable"]["stage"] == "oracle"

    def test_check_axioms(self, capsys, monkeypatch):
        stdin = '{"n": 5, "edges": [[0, 1, 2], [2, 3, 4]]}'
        code, out, _ = run_cli(capsys, "check-axioms", "-", "--seed", "4",
                               "--samples", "100", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["partitive"]["passed"] is True
        assert report["covering"]["passed"] is True
        assert report["covering"]["seed"] == 4
        assert report["covering"]["samples"] == 100

    def test_gen_families(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "L", "--order", "3")
        assert code == 0
        assert json.loads(out) == {"n": 3, "arcs": [[0, 1], [0, 2], [1, 2]]}
        code, out, _ = run_cli(capsys, "gen", "--family", "U", "--order", "5")
        assert json.loads(out)["arcs"].count([2, 0]) == 1

    def test_parse_error_exit_1(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, "count", "-", stdin="not json",
                               monkeypatch=monkeypatch)
        assert code == 1
        assert "error:" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "count", "/nonexistent/x.json")
        assert code == 1

    def test_precondition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "T", "--order", "4")
        assert code == 2
        assert "odd" in err

    def test_capacity_exit_2(self, capsys, monkeypatch):
        big = json.dumps({"n": 30, "edges": []})
        code, _, err = run_cli(capsys, "modules", "-", stdin=big, monkeypatch=monkeypatch)
        assert code == 2
        assert "bound" in err


class TestInputBounds:
    def test_huge_claimed_order_is_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="exactly one arc per pair"):
                parse_tournament('{"n": 1000000, "arcs": []}')
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestInvariantExit:
    def test_failed_output_check_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(realization, "c3_structure", lambda t: None)
        code, out, err = run_cli(capsys, "realize", "-", stdin='{"n": 3, "edges": []}',
                                 monkeypatch=monkeypatch)
        assert code == 4
        assert out == ""
        assert "does not realize" in err
