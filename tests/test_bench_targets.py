"""Every span target of the benchmark's tracer still names a function.

``bench/spans.py`` rebinds functions by module and attribute path, and a
target the program no longer has reads 0 in every traced run. The file is
parsed here, not imported, so that the test writes nothing under
``bench/``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
#: span names whose functions are known to be gone from the program
RETIRED = {"intelligence.doc_vector"}


def span_targets() -> list[tuple[str, str, str]]:
    """The ``TARGETS`` tuple of ``bench/spans.py``: (span, module, path)."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


@pytest.mark.parametrize(
    "name,module,path", [target for target in span_targets() if target[0] not in RETIRED]
)
def test_span_target_resolves(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module}.{path} is not callable"


def test_retired_targets_are_still_listed_and_absent():
    retired = [target for target in span_targets() if target[0] in RETIRED]
    assert [name for name, _, _ in retired] == sorted(RETIRED)
    for _, module, path in retired:
        assert not hasattr(importlib.import_module(module), path)
