"""The simulator side does not depend on the live runtime's layers.

``repro.obs`` (metrics registry, tracer) and ``repro.live`` serve the
live TCP runtime.  The simulator and the ESR theory under it (``core``,
``sim``, ``replica``, ``storage``, ``harness``) summarize a run from
its ET results and audit it in one call; none of them imports either
package, so neither can grow a hook the simulator would have to carry.
"""

import ast
from pathlib import Path

import repro

_SIMULATOR_SIDE = ("core", "sim", "replica", "storage", "harness")
_FORBIDDEN = ("repro.obs", "repro.live")


def imported_modules(source, package):
    """``(line, module)`` for each module ``source`` imports, with
    relative imports resolved against ``package`` (a dotted name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = ".".join(parts[: len(parts) - node.level + 1])
                base = anchor + "." + base if base else anchor
            # ``from pkg import name`` may import the submodule ``name``.
            found.append((node.lineno, base))
            found += [
                (node.lineno, "%s.%s" % (base, a.name)) for a in node.names
            ]
    return found


def _forbidden(module):
    return any(module == f or module.startswith(f + ".") for f in _FORBIDDEN)


def offenders(root):
    """``path:line module`` for each forbidden import on the simulator
    side of the package rooted at ``root``."""
    found = []
    for layer in _SIMULATOR_SIDE:
        for path in sorted((root / layer).rglob("*.py")):
            rel = path.relative_to(root.parent)
            package = ".".join(rel.parts[:-1])
            source = path.read_text(encoding="utf-8")
            found += [
                "%s:%d %s" % (rel, line, module)
                for line, module in imported_modules(source, package)
                if _forbidden(module)
            ]
    return sorted(set(found))


def test_simulator_side_imports_neither_obs_nor_live():
    assert offenders(Path(repro.__file__).parent) == []


def test_the_guard_sees_each_way_in():
    source = "\n".join([
        "from ..obs.registry import Registry",
        "from .. import live",
        "import repro.obs",
        "from repro.live.client import LiveClient",
        "import repro.obs.trace as trace",
        "from ..core.history import History",
        "from . import base",
        "import repro.observer",
    ])
    hits = sorted(
        {line for line, module in imported_modules(source, "repro.sim")
         if _forbidden(module)}
    )
    assert hits == [1, 2, 3, 4, 5]
