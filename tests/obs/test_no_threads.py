"""The package starts no thread, so the metrics registry takes no lock.

``repro.obs.registry`` is single-threaded on purpose: every instrument
call is its arithmetic and nothing else.  That is only sound while
nothing under ``repro`` runs code off the event loop.  This guard
fails on the first module that imports a threading or process module
or hands work to an executor; that change has to revisit the
registry's design first.
"""

import ast
from pathlib import Path

import repro

_MODULES = ("threading", "_thread", "concurrent.futures", "multiprocessing")
_CALLS = ("run_in_executor", "to_thread")


def _imported(name):
    return any(name == m or name.startswith(m + ".") for m in _MODULES)


def thread_uses(source):
    """``(line, what)`` for each thread import or executor call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if _imported(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [
                "%s.%s" % (node.module, a.name) for a in node.names
            ]
            if any(_imported(n) for n in names):
                found.append((node.lineno, node.module))
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in _CALLS:
                found.append((node.lineno, name))
    return sorted(found)


def test_no_module_under_repro_uses_a_thread():
    root = Path(repro.__file__).parent
    offenders = [
        "%s:%d %s" % (path.relative_to(root.parent), line, what)
        for path in sorted(root.rglob("*.py"))
        for line, what in thread_uses(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_the_guard_sees_each_way_in():
    source = "\n".join([
        "import threading",
        "import multiprocessing.pool as mp",
        "from concurrent import futures",
        "from concurrent.futures import ThreadPoolExecutor",
        "loop.run_in_executor(None, f)",
        "asyncio.to_thread(f)",
        "import concurrent.futures",
        "import asyncio, json",
        "from asyncio import sleep",
    ])
    assert [line for line, _ in thread_uses(source)] == [1, 2, 3, 4, 5, 6, 7]
