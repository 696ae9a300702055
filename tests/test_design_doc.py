"""DESIGN.md names the modules that exist, and lists every one of them.

Two checks: every module reference in DESIGN.md (a backticked dotted name
under ``repro``, such as ``core.internode.broadcast`` or
``repro.machine.audit``) resolves to a module, or to an attribute of one;
and the repository layout of its §6 lists exactly the modules under
``src/repro``.
"""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DESIGN = (ROOT / "DESIGN.md").read_text(encoding="utf-8")

SUBPACKAGES = sorted(
    path.name for path in PACKAGE.iterdir() if (path / "__init__.py").is_file()
)
#: A backticked dotted name under one of the subpackages, ``repro.`` optional.
REFERENCE = re.compile(
    r"`(?:repro\.)?((?:" + "|".join(SUBPACKAGES) + r")(?:\.\w+)*)"
)


def _resolves(name: str) -> bool:
    """True when ``repro.<name>`` is a module, or an attribute of one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module("repro." + ".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _layout() -> set[str]:
    """The modules §6's layout block lists, as paths under ``src/repro``."""
    section = DESIGN.split("## 6. Repository layout", 1)[1]
    block = section.split("```", 2)[1]
    listed: set[str] = set()
    directory = None
    for line in block.splitlines():
        if line.startswith("src/repro/"):
            directory, _, files = line.partition(" ")
            directory = directory[len("src/repro/"):]
            listed.add(directory + "__init__.py")
        elif not line.startswith(" "):
            directory = None
            continue
        else:
            files = line
        if directory is None:
            continue
        for name in files.split(","):
            if name.strip():
                listed.add(directory + name.strip())
    return listed


def test_every_module_design_names_exists():
    names = sorted(set(REFERENCE.findall(DESIGN)))
    assert names, "DESIGN.md names no modules"
    missing = [name for name in names if not _resolves(name)]
    assert missing == []


def test_the_layout_lists_every_module():
    actual = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if "__pycache__" not in path.parts
    }
    listed = _layout()
    assert sorted(actual - listed) == [], "modules missing from DESIGN.md §6"
    assert sorted(listed - actual) == [], "DESIGN.md §6 lists modules that do not exist"
