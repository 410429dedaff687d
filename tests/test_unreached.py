"""`src/locsys` holds only code that something outside the unit tests uses.

A function or method is reached when its name appears somewhere other than
its own definition: in the package, in the benchmark (`perfbench/`) or in
the acceptance test.  Names count as identifiers, attribute names, imported
names and words inside string constants, since the benchmark's tracer names
the callables it wraps in strings; docstrings do not count, since a name
that only prose mentions is not used.  Dunder methods are called by the
language and are not listed.  A function that only its unit tests call
belongs in `tests/`, next to them, as a reference.

Likewise every defaulted parameter of a package function is set by some
call in the package, the benchmark or the tests: a default that no call sets
is a constant.
"""

import ast
import math
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


CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
              *sorted((ROOT / "tests").glob("*.py"))]


def _package_functions(tree):
    """(function, whether its first parameter is bound) of every
    module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                        for d in item.decorator_list)


def unset_defaults():
    """(module, function, parameter) of every defaulted parameter of a
    package function that no call in the package, the benchmark or the
    tests sets, by keyword or by position.  Calls are matched by name, as in
    unreached(); a call with *args or **kwargs sets every parameter."""
    most, keywords = {}, {}  # name -> most positional arguments, keywords passed
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                most[name] = max(most.get(name, 0), math.inf if starred else len(node.args))
                keywords.setdefault(name, set()).update(kw.arg or "**" for kw in node.keywords)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, bound in _package_functions(ast.parse(path.read_text(encoding="utf-8"))):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args, passed = node.args, keywords.get(node.name, set())
            if "**" in passed:
                continue
            positional = (args.posonlyargs + args.args)[1 if bound else 0:]
            first = len(positional) - len(args.defaults)
            unset = [a.arg for i, a in enumerate(positional)
                     if i >= first and i >= most.get(node.name, 0) and a.arg not in passed]
            unset += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None and a.arg not in passed]
            out += [(path.stem, node.name, arg) for arg in unset]
    return out


def test_every_default_is_set_by_some_call():
    """A defaulted parameter that no call sets is a constant: write it as one."""
    assert unset_defaults() == []
