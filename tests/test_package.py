"""Package-wide layout rules, read off the source with ast."""

import ast
from pathlib import Path

import tourney_lab

SOURCES = sorted(Path(tourney_lab.__file__).parent.glob("*.py"))


def private_imports(source: str, name: str = "<source>") -> list:
    """Private names taken from another package module: ``from .m import _x``."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "tourney_lab":
            continue
        hits += [
            f"{name}:{node.lineno}: imports {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return hits


def test_no_private_cross_module_imports():
    assert len(SOURCES) > 1
    hits = [hit for path in SOURCES for hit in private_imports(path.read_text(), path.name)]
    assert hits == []


def test_guard_flags_private_names_only():
    source = (
        "from __future__ import annotations\n"
        "from .core import Ranking, _as_generator\n"
        "from tourney_lab.fourier import _planted_pmf\n"
        "from . import fourier\n"
    )
    assert private_imports(source) == [
        "<source>:2: imports _as_generator",
        "<source>:3: imports _planted_pmf",
    ]
