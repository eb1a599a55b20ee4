from pathlib import Path

import c3realize

MAX_LINE = 99


def test_no_source_line_longer_than_99():
    src = Path(c3realize.__file__).parent
    long_lines = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                  for i, line in enumerate(path.read_text().splitlines(), 1)
                  if len(line) > MAX_LINE]
    assert long_lines == []
