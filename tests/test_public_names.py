"""Every public name in `src/loclab` is used somewhere.

Parses each module with `ast` and collects its public top-level functions
and classes and the public methods of its top-level classes.  A name counts
as used when some file under `src/`, `tests/` or `bench/` refers to it: as
a name, an attribute, an imported name, or an identifier inside a string
constant other than a docstring (the bench harness resolves functions and
methods from strings such as "fusion.fusion_from_group").  Its own
definition does not count.  A public name that nothing refers to is dead
code; delete it or make it private.

A second test does the same for imports: every name a module under `src/`
or `tests/` imports must be loaded somewhere in that module.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "loclab")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files():
    for top in ("src", "tests", "bench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _references(tree):
    """Every identifier the tree refers to.  ast.walk is breadth first, so
    a scope is seen before its docstring, which is then skipped."""
    docstrings = set()
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name:
            yield node.id
        elif kind is ast.Attribute:
            yield node.attr
        elif kind is ast.alias:
            yield node.name.rsplit(".", 1)[-1]
        elif kind is ast.Constant:
            if isinstance(node.value, str) and id(node) not in docstrings:
                yield from IDENT.findall(node.value)
        elif kind in SCOPES:
            first = node.body[0] if node.body else None
            if type(first) is ast.Expr and type(first.value) is ast.Constant:
                docstrings.add(id(first.value))


def _public_definitions(module, tree):
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, f"{module}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, f"{module}.{node.name}.{item.name}"


def test_every_public_name_is_referenced():
    trees = {path: ast.parse(open(path, encoding="utf-8").read())
             for path in _python_files()}
    used = set()
    for tree in trees.values():
        used.update(_references(tree))
    unused = [where
              for path, tree in trees.items()
              if os.path.dirname(path) == PACKAGE
              for short, where in _public_definitions(
                  os.path.splitext(os.path.basename(path))[0], tree)
              if short not in used]
    assert not unused, "public names referenced nowhere: " + ", ".join(unused)


def test_every_imported_name_is_loaded():
    unused = []
    for path in _python_files():
        if os.path.relpath(path, ROOT).split(os.sep)[0] == "bench":
            continue
        tree = ast.parse(open(path, encoding="utf-8").read())
        loaded = {node.id for node in ast.walk(tree) if type(node) is ast.Name}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in loaded:
                        unused.append(f"{os.path.relpath(path, ROOT)}: {name}")
    assert not unused, "imported names never loaded: " + ", ".join(unused)
