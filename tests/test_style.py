import ast
import re
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


def test_values_are_built_without_their_constructor_only_in_core():
    # core._rebuild, and the fast constructors beside it, are the one place
    # where a value skips its constructor's checks
    src = Path(c3realize.__file__).parent
    found = sorted(path.name for path in src.glob("*.py") if "object.__new__" in path.read_text())
    assert found == ["core.py"]


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


# the parameters that a public callable may take although their names start
# with "_", each with the reason it is still needed
PRIVATE_PARAMETERS_ALLOWED = {
    ("realize_prime", "_assume_prime"):
        "bench/run.py's traced staged_realize passes it",
    ("extension_certificate", "_verified"):
        "the certificate tests evaluate inputs that the checked call refuses",
    ("extend_realization", "_verified"):
        "the certificate tests evaluate inputs that the checked call refuses",
}


def test_public_functions_take_no_private_parameters():
    # a private parameter of a public function is a back door past its
    # checks; the public callables are the module-level functions and the
    # methods of public classes whose names do not start with "_"
    src = Path(c3realize.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)
                                and not node.name.startswith("_")]
        for body in scopes:
            for node in body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (node.name == "__init__" or not node.name.startswith("_"))):
                    a = node.args
                    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                             + [a.vararg, a.kwarg] if x is not None]
                    found += [(node.name, name) for name in names if name.startswith("_")]
    assert sorted(set(found) - PRIVATE_PARAMETERS_ALLOWED.keys()) == []


def test_no_timings_in_src():
    # a timing belongs in a committed bench file or in CHANGES.md, where its
    # hardware and method are given, not in the code it measured
    src = Path(c3realize.__file__).parent
    timing = re.compile(r"\d\s*(ms|µs|us)\b|best of|core VM")
    found = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if timing.search(line)]
    assert found == []
