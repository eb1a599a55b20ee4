import json
import tracemalloc

from c3realize import dump_tournament, linear_order, parse_tournament


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
