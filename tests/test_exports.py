"""No dead exports: every name the package exports is used by one of its
modules, named in the README, or allowed below with its reason. Read with
``ast``, so nothing is imported."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tokengraphs"

#: Exports that no module calls and the README does not name, with the reason
#: each is kept.
ALLOWED = {
    "brute_force_mis": "the exhaustive oracle that backs the independence solver",
    "brute_force_nu": "the exhaustive oracle that backs the matching engines",
    "to_edge_list_text": "writes the documented file: format; the parser is tested through it",
}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _referenced() -> set[str]:
    """Every name a module other than ``__init__`` reads, takes as an
    attribute or imports."""
    names: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_is_used_documented_or_allowed():
    readme = (ROOT / "README.md").read_text()
    referenced = _referenced()
    dead = sorted(
        name
        for name in _exports()
        if name not in referenced
        and name not in ALLOWED
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    )
    assert dead == [], f"exported but never used, documented or allowed: {dead}"
    assert set(ALLOWED) <= _exports(), "the allow-list names a name that is no export"
