"""Set-up probe: start Python, import c3realize and parse the inputs.

Reads a JSON list of [hypergraph text, tournament text] pairs on stdin,
parses every text with ``c3realize.io`` and prints how many pairs it read.
``run.py`` times this whole process to get ``setup_s``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from c3realize.io import parse_hypergraph, parse_tournament  # noqa: E402

pairs = json.load(sys.stdin)
for hypergraph_text, tournament_text in pairs:
    parse_hypergraph(hypergraph_text)
    parse_tournament(tournament_text)
print(len(pairs))
