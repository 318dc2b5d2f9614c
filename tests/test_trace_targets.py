"""The benchmark tracer can wrap every entry point it names.

``bench/trace.py`` wraps each ``TARGETS`` entry by name: a method in its
class's own ``__dict__``, a function in every ``repro`` module that
holds it.  Moving or renaming one of those methods or functions breaks
only ``--trace 1`` benchmark runs, so this checks, in tier-1, that
``Tracer.install`` wraps every target and ``uninstall`` puts back each
original object.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.trace import TARGETS, Tracer  # noqa: E402


def _owner(target):
    module_name, _, class_name = target.owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def _current(target):
    owner = _owner(target)
    if isinstance(owner, type):
        return owner.__dict__[target.attr]
    return getattr(owner, target.attr)


def _holders(function):
    """Every ``repro`` module holding ``function`` under its name."""
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
        and module.__dict__.get(function.__name__) is function
    ]


def test_every_target_is_wrapped_and_restored():
    originals = {target: _current(target) for target in TARGETS}
    copies = {
        target: _holders(original)
        for target, original in originals.items()
        if ":" not in target.owner
    }
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.installed
        for target, original in originals.items():
            wrapper = _current(target)
            assert wrapper is not original, target
            assert wrapper.__wrapped__ is original, target
            for module in copies.get(target, ()):
                assert module.__dict__[target.attr] is wrapper, module
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for target, original in originals.items():
        assert _current(target) is original, target
        for module in copies.get(target, ()):
            assert module.__dict__[target.attr] is original, module
