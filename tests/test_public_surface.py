"""Every public name has a caller besides its own unit tests.

A name in ``layerstack.__all__`` must be referenced somewhere other than
its own definition: in another part of ``src/layerstack`` (``__init__.py``
aside, since it only re-exports), in the release gate
``tests/test_acceptance.py``, or in a demo. Any other module-level name,
public or private, must be referenced by ``src/layerstack`` itself. The
sources are parsed, not imported or run. A reference is a name or an
attribute read, annotations included; an import alone is not one.

The package resolves the exports of ``pipeline``, ``wisdom`` and
``synthetic`` on first access, so a CLI command that does not run them does
not load them; ``TestLazyExports`` checks, in fresh interpreters, that
every export still resolves to its defining module's object.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import layerstack

from helpers import run_python

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


def defining_modules() -> dict[str, str]:
    """Each module-level name of the package's modules, ``__init__`` aside,
    mapped to the module that defines it."""
    return {
        name: path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        for name in defined_names(statement)
    }


class TestLazyExports:
    """The exports of ``pipeline``, ``wisdom`` and ``synthetic`` load on
    first access; each check runs in a fresh interpreter, where none of
    those modules is loaded yet."""

    def test_every_export_is_its_defining_module_s_object(self):
        owners = {name: defining_modules()[name] for name in layerstack.__all__}
        code = (
            "import importlib, json, sys, layerstack\n"
            "owners = json.loads(sys.argv[1])\n"
            "print(sorted(name for name, owner in owners.items() if getattr(layerstack, name)\n"
            "    is not getattr(importlib.import_module(f'layerstack.{owner}'), name)))"
        )
        assert run_python(code, json.dumps(owners)).strip() == "[]"

    def test_star_import_binds_every_export(self):
        code = (
            "from layerstack import *\n"
            "import layerstack\n"
            "print(len(layerstack.__all__), sorted(set(layerstack.__all__) - set(globals())))"
        )
        assert run_python(code).strip() == "50 []"

    def test_dir_lists_every_export(self):
        code = "import layerstack\nprint(sorted(set(layerstack.__all__) - set(dir(layerstack))))"
        assert run_python(code).strip() == "[]"

    def test_dir_is_sorted_and_lists_every_export_in_process(self):
        names = dir(layerstack)
        assert names == sorted(set(names))
        assert set(layerstack.__all__) <= set(names)

    def test_an_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'layerstack' has no attribute 'no_such_name'"):
            layerstack.no_such_name
        assert not hasattr(layerstack, "no_such_name")

    @pytest.mark.parametrize(
        "imports",
        [
            "import layerstack\nfirst = layerstack.belief\nimport layerstack.pipeline\n",
            "import layerstack.pipeline\nimport layerstack\nfirst = layerstack.belief\n",
        ],
        ids=["pipeline-after", "pipeline-first"],
    )
    def test_belief_is_the_function_before_and_after_the_pipeline_loads(self, imports):
        code = imports + (
            "import sys, types\n"
            "function = sys.modules['layerstack.belief'].belief\n"
            "print(isinstance(function, types.FunctionType), first is function,"
            " layerstack.belief is function)"
        )
        assert run_python(code).strip() == "True True True"
