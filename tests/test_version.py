"""The package version is single-sourced from pyproject.toml."""

import pathlib
import re

import repro


def test_version_matches_pyproject():
    pyproject = pathlib.Path(repro.__file__).resolve().parents[2]
    pyproject = pyproject / "pyproject.toml"
    declared = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
    ).group(1)
    assert repro.__version__ == declared


def test_python_floor_is_the_oldest_python_ci_tests():
    """``requires-python`` promises no Python that the ``tests`` job
    does not run (``slots=True`` dataclasses need 3.10)."""
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    floor = re.search(
        r'^requires-python\s*=\s*">=\s*([0-9.]+)"',
        (root / "pyproject.toml").read_text(),
        re.MULTILINE,
    ).group(1)
    workflow = (root / ".github" / "workflows" / "ci.yml").read_text()
    # The ``tests`` job runs up to the next top-level job key.
    job = re.search(
        r"^  tests:\n(.*?)(?=^  \S)", workflow, re.MULTILINE | re.DOTALL
    ).group(1)
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", job).group(1)
    versions = [v.strip().strip("\"'") for v in matrix.split(",")]
    oldest = min(versions, key=lambda v: tuple(map(int, v.split("."))))
    assert floor == oldest
