"""Source hygiene of the package, read off its syntax trees.

No linter ships with the test dependencies, so two checks are made here:
every module-level import of the package and of the test files is used
(the package ``__init__`` re-exports its imports, so it is exempt), and
every name a function of the package assigns to is read somewhere in that
function.  Tuple unpacking and loop targets are left out:
they bind names that document the shape of what is unpacked.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "condual"
MODULES = sorted(SRC.glob("*.py"))
IMPORTERS = [p for p in MODULES if p.name != "__init__.py"]  # it re-exports
IMPORTERS += sorted(TESTS.glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded(node):
    """Names read anywhere under node; an augmented assignment reads its
    target too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
            names.add(sub.target.id)
    return names


def unused_imports(tree):
    """(line, name) of each module-level import that the module never reads;
    ``from __future__`` imports are not names."""
    loaded = _loaded(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in loaded:
                found.append((node.lineno, name))
    return found


def _own_nodes(scope):
    """The nodes of a function body, without those of nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """(line, function, name) of each name that a function binds by plain
    assignment, by ``:=`` or by ``with ... as`` and never reads; a read in
    a nested function counts."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared, bound = set(), {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) \
                    and getattr(node, "value", None) is not None:
                targets = [node.target]
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                targets = [node.optional_vars]
            for t in targets:
                if isinstance(t, ast.Name):
                    bound.setdefault(t.id, t.lineno)
        loaded = _loaded(fn)
        found += [(line, fn.name, name) for name, line in bound.items()
                  if name not in loaded and name not in declared
                  and name != "_"]
    return sorted(found)


@pytest.mark.parametrize("path", IMPORTERS, ids=[
    p.name if p.parent == SRC else f"tests/{p.name}" for p in IMPORTERS])
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_locals(path):
    assert unread_locals(_tree(path)) == []


def test_the_checks_flag_what_they_describe():
    tree = ast.parse(
        "import os\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "def f(x):\n"
        "    kept = np.asarray(x)\n"
        "    dropped = pi\n"
        "    total = 0\n"
        "    total += 1\n"
        "    a, b = x\n"
        "    def g():\n"
        "        return kept\n"
        "    return g\n")
    assert unused_imports(tree) == [(1, "os"), (3, "tau")]
    assert unread_locals(tree) == [(6, "f", "dropped")]
