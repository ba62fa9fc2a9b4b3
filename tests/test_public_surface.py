"""Every public name has a caller besides its own unit tests.

A name in ``layerstack.__all__`` must be referenced somewhere other than
its own definition: in another part of ``src/layerstack`` (``__init__.py``
aside, since it only re-exports), in the release gate
``tests/test_acceptance.py``, or in a demo. Any other module-level name,
public or private, must be referenced by ``src/layerstack`` itself. The
sources are parsed, not imported or run. A reference is a name or an
attribute read, annotations included; an import alone is not one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import layerstack

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "layerstack"


def defined_names(statement: ast.stmt) -> set[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def referenced_names(node: ast.AST) -> set[str]:
    """Every identifier read by name or as an attribute under ``node``."""
    found: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def references(source: str) -> set[str]:
    """The names ``source`` references outside the top-level statement that
    defines each of them."""
    found: set[str] = set()
    for statement in ast.parse(source).body:
        found |= referenced_names(statement) - defined_names(statement)
    return found


def program_references() -> set[str]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "demos").glob("*.py"))]
    found: set[str] = set()
    for path in paths:
        found |= references(path.read_text(encoding="utf-8"))
    return found


def test_every_public_name_is_referenced_outside_its_definition():
    unused = sorted(set(layerstack.__all__) - program_references())
    assert unused == [], f"public names with no caller in the program, gate or demos: {unused}"


def test_a_name_used_only_in_its_own_definition_is_not_referenced():
    source = (
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n"
        "def used():\n    return 1\n"
        "VALUE: int = used()\n"
        "from .corpus import imported\n"
    )
    found = references(source)
    assert "used" in found
    assert "lonely" not in found and "VALUE" not in found and "imported" not in found


def unexported_public_names(source: str) -> set[str]:
    """The module-level names without a leading ``_`` that ``source``
    defines and ``layerstack.__all__`` does not export."""
    return {
        name
        for statement in ast.parse(source).body
        for name in defined_names(statement)
        if not name.startswith("_") and name not in layerstack.__all__
    }


def test_every_unexported_public_name_is_referenced_outside_its_definition():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    found = set().union(*map(references, sources))
    unused = sorted(set().union(*map(unexported_public_names, sources)) - found)
    assert unused == [], f"unexported public names with no caller in src/layerstack: {unused}"


def test_an_unexported_name_used_only_in_its_own_definition_is_unused():
    source = (
        "LIMIT = 3\n"
        "def helper(n):\n    return min(n, LIMIT)\n"
        "def leftover(n):\n    return leftover(n - 1) if n else 0\n"
        "def _private(n):\n    return helper(n)\n"
        "def pearson_r(n):\n    return n\n"
    )
    assert unexported_public_names(source) == {"LIMIT", "helper", "leftover"}
    assert unexported_public_names(source) - references(source) == {"leftover"}


def private_names(source: str) -> set[str]:
    """The module-level ``_name``s that ``source`` defines, dunders aside."""
    return {
        name
        for statement in ast.parse(source).body
        for name in defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
    }


def test_every_private_name_is_referenced_outside_its_definition():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    found = set().union(*map(references, sources))
    unused = sorted(set().union(*map(private_names, sources)) - found)
    assert unused == [], f"private names with no caller in src/layerstack: {unused}"


def test_a_private_name_used_only_in_its_own_definition_is_unused():
    source = (
        "_LIMIT = 3\n"
        "def _helper(n):\n    return min(n, _LIMIT)\n"
        "def _leftover(n):\n    return _leftover(n - 1) if n else 0\n"
        "def api(n):\n    return _helper(n)\n"
        "__all__ = ['api']\n"
    )
    assert private_names(source) == {"_LIMIT", "_helper", "_leftover"}
    assert private_names(source) - references(source) == {"_leftover"}
