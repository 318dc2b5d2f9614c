"""``docs/LIVE.md``'s "Layers" block names every module of the live
package, once: a module added, renamed or deleted without its line (or
a line left behind) fails here."""

import pathlib
import re

import repro.live

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_the_layers_block_lists_the_live_modules():
    text = (REPO / "docs" / "LIVE.md").read_text(encoding="utf-8")
    block = text.split("## Layers", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^live/(\w+)\.py\s", block, re.M)
    package = pathlib.Path(repro.live.__file__).parent
    modules = sorted(
        p.stem for p in package.glob("*.py") if p.stem != "__init__"
    )
    assert sorted(listed) == modules
    assert len(set(listed)) == len(listed)
