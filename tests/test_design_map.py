"""DESIGN.md's module map (section 3) matches the source tree.

The map is an indented listing under ``src/repro/``: two spaces for a
top-level module or subpackage (``name/``), four for a module inside
the subpackage above it. A subpackage's ``__init__.py`` is covered by
its directory line. Every module in the tree must be listed, and every
listed path must exist.
"""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "repro"


def _mapped_paths():
    """The paths the map lists, relative to ``src/repro``."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 3. System inventory", 1)[1]
    block = section.split("```", 2)[1]
    paths, package = set(), None
    for line in block.splitlines():
        match = re.match(r"( +)(\S+\.py|\S+/)(?:\s|$)", line)
        if match is None:
            continue  # the root line, or a wrapped description
        indent, name = len(match.group(1)), match.group(2)
        if indent == 2 and name.endswith("/"):
            package = name
            paths.add(name + "__init__.py")
        elif indent == 2:
            paths.add(name)
        elif indent == 4 and package is not None:
            paths.add(package + name)
    return paths


def test_design_map_lists_every_module_and_only_real_ones():
    mapped = _mapped_paths()
    tree = {path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py")}
    assert sorted(tree - mapped) == [], "modules missing from DESIGN.md"
    assert sorted(mapped - tree) == [], "DESIGN.md lists missing modules"
