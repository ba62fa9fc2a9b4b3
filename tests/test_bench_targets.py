"""The program API the benchmark calls is still there.

``bench/spans.py`` rebinds functions by module and attribute path, and a
target the program no longer has reads 0 in every traced run. The file is
parsed here, not imported. ``bench/run.py`` counts each corpus with
``ingest_corpus``, ``Document.token_counts`` and ``Corpus.vocabulary``, and
each workload runs the CLI with fixed arguments; both are checked in a
``python -B`` subprocess. So the tests write nothing under ``bench/``.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from layerstack.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"
#: span names whose functions are known to be gone from the program
RETIRED = {"corpus.total_counts", "corpus.frequency_scatter", "intelligence.doc_vector"}


def span_targets() -> list[tuple[str, str, str]]:
    """The ``TARGETS`` tuple of ``bench/spans.py``: (span, module, path)."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def resolve(module: str, path: str):
    """What the dotted ``path`` names in ``module``, or None if a part of
    it is missing, as ``bench/spans.py`` walks it."""
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


@pytest.mark.parametrize(
    "name,module,path", [target for target in span_targets() if target[0] not in RETIRED]
)
def test_span_target_resolves(name, module, path):
    assert callable(resolve(module, path)), f"{name}: {module}.{path} is not callable"


def test_retired_targets_are_still_listed_and_absent():
    retired = [target for target in span_targets() if target[0] in RETIRED]
    assert sorted(name for name, _, _ in retired) == sorted(RETIRED)
    for name, module, path in retired:
        assert resolve(module, path) is None, f"{name}: {module}.{path} still exists"


def bench_json(code: str, *args: str):
    """What ``code`` prints as JSON, run by ``python -B`` with ``bench`` and
    ``src`` first on ``sys.path`` and ``args`` as ``sys.argv[1:]``."""
    prelude = f"import json, sys; sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
    done = subprocess.run(
        [sys.executable, "-B", "-c", prelude + code, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_corpus_size_counts_with_the_program(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_bytes(b"The signal, noise 42 signal\n")
    (corpus / "b.txt").write_bytes(b"noise code entropy code\n")
    size = bench_json(
        "from pathlib import Path\nfrom run import _corpus_size\n"
        "print(json.dumps(_corpus_size(Path(sys.argv[1]))))",
        str(corpus),
    )
    assert size == {"corpus.bytes_in": 52, "corpus.docs": 2, "corpus.pairs": 5, "corpus.vocab": 4}


def test_every_workload_parses_with_the_cli():
    argvs = bench_json(
        "from workloads import WORKLOADS\n"
        "print(json.dumps({name: w.argv for name, w in WORKLOADS.items()}))"
    )
    assert argvs
    for argv in argvs.values():
        args = build_parser().parse_args(argv)
        assert args.source == "corpus"
