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


def test_every_private_definition_is_used_in_src():
    # a private helper kept alive only by tests is dead code: each private
    # function, class or method must be named somewhere in src/ outside its
    # own definition
    src = Path(c3realize.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            used = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if used is not None:
                uses.setdefault(used, []).append((name, node.lineno))
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and not any(where != name or not node.lineno <= line <= node.end_lineno
                                for where, line in uses.get(node.name, ()))):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []
