"""`src/locsys` holds only code that something outside the unit tests uses.

A function or method is reached when its name appears somewhere other than
its own definition: in the package, in the benchmark (`perfbench/`) or in
the acceptance test.  Names count as identifiers, attribute names, imported
names and words inside string constants, since the benchmark's tracer names
the callables it wraps in strings; docstrings do not count, since a name
that only prose mentions is not used.  Dunder methods are called by the
language and are not listed.  A function that only its unit tests call
belongs in `tests/`, next to them, as a reference.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "locsys"
USERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]


def _used_names(tree):
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names


def unreached():
    """(module, name) of every package function whose name nothing uses."""
    used = set()
    for path in USERS:
        used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used):
                out.append((path.stem, node.name))
    return out


def test_every_package_function_is_reached():
    assert unreached() == []

