"""Every name a ``src/repro/`` module imports at module level is used.

No linter runs here, so this is the check: each non-``__init__``
module is parsed with :mod:`ast`, and a module-level import binding a
name that nothing in the module reads — in code or in an annotation,
string annotations included — and that ``__all__`` does not list is
reported as ``path:line name``.
"""

import ast
from pathlib import Path

import repro


def _bound_names(node):
    """``(name, line)`` for each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            names.append(alias.asname)
        elif isinstance(node, ast.Import):
            names.append(alias.name.split(".")[0])
        else:
            names.append(alias.name)
    return [(name, node.lineno) for name in names]


def _module_level_imports(tree):
    """Imports in the module body, or in an ``if``/``try`` there."""
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += _bound_names(node)
        elif isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse
            todo += getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                todo += handler.body
    return found


def _names_in_annotation_text(text):
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            # A string annotation, or a forward reference inside one,
            # names what it uses in its text.
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_in_annotation_text(node.value)
    return used


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            return {
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            }
    return set()


def unused_imports(source):
    """``(line, name)`` for each unused module-level import."""
    tree = ast.parse(source)
    used = _used_names(tree) | _exported(tree)
    return sorted(
        (line, name)
        for name, line in _module_level_imports(tree)
        if name not in used
    )


def test_no_module_imports_a_name_it_never_uses():
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(root.parent)
        source = path.read_text(encoding="utf-8")
        found += [
            "%s:%d %s" % (rel, line, name)
            for line, name in unused_imports(source)
        ]
    assert found == []


def test_the_check_sees_an_unused_import_and_spares_the_rest():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import os.path as osp",
        "import collections.abc",
        "from typing import Dict, List, Optional",
        "from .x import shown",
        "try:",
        "    import json",
        "except ImportError:",
        "    pass",
        "__all__ = ['shown']",
        "def f(a: Dict[str, 'Optional[int]']) -> None:",
        "    return collections.abc.Mapping",
    ])
    assert unused_imports(source) == [
        (2, "os"), (3, "osp"), (5, "List"), (8, "json"),
    ]
