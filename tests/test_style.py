import ast
from pathlib import Path

import c3realize

MAX_LINE = 99


def test_no_source_line_longer_than_99():
    src = Path(c3realize.__file__).parent
    long_lines = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                  for i, line in enumerate(path.read_text().splitlines(), 1)
                  if len(line) > MAX_LINE]
    assert long_lines == []


def test_no_assert_in_src():
    # output checks raise InvariantError, which still runs under python -O
    src = Path(c3realize.__file__).parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []
