"""EXPERIMENTS.md quotes every table of ``results/`` verbatim.

Each section headed by an experiment id (``## E3 — ...``, ``### A1 —
...``) holds exactly one fenced block, and that block is the id's
``results/<id>.txt``, byte for byte.  ``python -m repro run all -o
results`` writes those files and ``tests/test_cli.py`` pins them, so a
number in the document cannot drift from the code that makes it.
"""

import pathlib
import re

import pytest

from repro.harness.experiments import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
HEADING = re.compile(r"^#{1,3} (.*)$", re.M)
EXPERIMENT = re.compile(r"([TEAX]\d+) — ")
FENCE = re.compile(r"^```\n(.*?)^```$", re.M | re.S)


def quoted_tables(text):
    """experiment id -> the fenced blocks of its section (which runs
    to the next heading of any level)."""
    heads = list(HEADING.finditer(text))
    sections = {}
    for head, after in zip(heads, heads[1:] + [None]):
        match = EXPERIMENT.match(head.group(1))
        if match:
            body = text[head.end():after.start() if after else len(text)]
            sections[match.group(1)] = FENCE.findall(body)
    return sections


@pytest.fixture(scope="module")
def sections():
    return quoted_tables((ROOT / "EXPERIMENTS.md").read_text())


def test_every_experiment_has_a_section(sections):
    assert sorted(sections) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("eid", list(EXPERIMENTS))
def test_the_quoted_table_is_the_results_file(sections, eid):
    blocks = sections.get(eid, [])
    assert len(blocks) == 1, "%s: %d fenced blocks" % (eid, len(blocks))
    assert blocks[0] == (ROOT / "results" / ("%s.txt" % eid)).read_text()
