"""Rules on what the program's source may read or call.

The sources of ``src/layerstack`` are parsed, not imported or run, as in
``test_public_surface.py``. A finding names the module and the functions and
classes that enclose it, such as ``corpus.Corpus.leave_one_out_counts``.

- No BLAS routine feeds an output float: no ``@``, ``dot``, ``inner``,
  ``vdot``, ``matmul``, ``linalg`` or ``einsum``, which can hand its work to
  BLAS. OpenBLAS picks its kernel by CPU, and the kernels sum in different
  orders, so the output bytes would depend on the host.
- Only the scopes listed in ``SEGMENT_SUMMERS`` call ``np.add.reduceat``:
  ``corpus._segment_sums``, the one segment sum that equals
  ``np.add.reduce`` bit for bit, and ``corpus._row_sums`` and the k-means
  x·c kernel ``intelligence._products``, which must group their additions
  alike. Any other sum of segments goes through ``_segment_sums``, so the
  outputs rest on one float grouping.
- No numpy ``log``, ``exp`` or ``power`` ufunc, and no ``np.emath``: every
  log or power that feeds an output float is its scalar ``math`` form, as
  numpy's vector kernels for them are not correctly rounded and may differ
  by CPU. ``np.sqrt`` and ``np.divide`` stay, as IEEE rounds them correctly.
- After ingest, the layers read the corpus's count table, not each
  document's ``token_counts`` dict or ``total_tokens``, nor the corpus's
  ``vocabulary`` set. Only the scopes
  listed in ``COUNT_READERS`` still read them, and only those listed in
  ``COUNT_FUNCTION_CALLERS`` call the functions that read them.
- The count table keeps its column margin, every term's total over all
  rows, taken when the table is built. Only the scopes listed in
  ``POOL_CALLERS`` pool a selection of its rows afresh, so no layer
  re-pools the whole table.
- The program narrows a corpus by lists of its table rows and calls no
  ``.subset(``, which rebuilds a corpus; ``Corpus.subset`` is the tests'
  reference.
- Every pass over table rows, the scorer's and both kinds of k-means pass,
  cuts its rows into runs of one size: only the scopes listed in
  ``PASS_SIZE_READERS`` read ``corpus._PASS_ENTRIES``, so no caller scales it.
- Only the scopes listed in ``DRAWS_CALLERS`` build an
  ``intelligence._Draws`` stream. It checks none of its arguments, so each
  caller must check them first, as ``kmeans`` does; a second caller would
  go unchecked.
- Only the scopes listed in ``FORCE_READERS`` read ``.force_bit_layer``:
  ``pipeline._ingest`` keeps the byte histograms only for a forced bit
  layer, and the layer reads its forcing from them, so the option is
  decided in one place; ``RunConfig`` only stores it as a ``bool``.
- No module imports from ``numpy.random`` or reads ``np.random``, except
  inside the function bodies of ``synthetic``, which draws test corpora:
  k-means draws from ``intelligence._Draws``, and a module-level use would
  load ``numpy.random`` in every CLI process.
- ``cli`` imports no ``_``-prefixed name from another ``layerstack``
  module: what a command needs from a layer is that layer's public name,
  so a command loads no module for a private helper.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "layerstack"

#: numpy's BLAS routines, and einsum, which can hand its work to them
BLAS_NAMES = {"dot", "inner", "vdot", "matmul", "linalg", "einsum"}

#: the program scopes that may call ``np.add.reduceat``: the bit-exact
#: segment sum, and the row sums and x·c kernel of k-means, which group
#: their additions alike
SEGMENT_SUMMERS = {"corpus._segment_sums", "corpus._row_sums", "intelligence._products"}

#: numpy's log, exp and power ufuncs, and its emath module
TRANSCENDENTALS = {
    "log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "power", "float_power", "emath"
}

#: for each count attribute of a document or corpus, the scopes that may
#: read it; a module or class name admits all of it
COUNT_READERS = {
    "token_counts": {
        "corpus.Document.__post_init__",
        "corpus.CountTable.build",
        "corpus.Corpus.leave_one_out_counts",
        "corpus.top_k_terms",
        "intelligence.entropic_gain",
        "synthetic",
    },
    "total_tokens": {"corpus.Document"},
    "vocabulary": {"corpus.Corpus"},
}

#: for each public function of the string-keyed counts, the program scopes
#: that may call it: fig4's reference counts until they come from the pooled
#: table (ROADMAP item 2), the entropic gains until they take table rows
#: (item 3), and fig3 no longer
COUNT_FUNCTION_CALLERS = {
    "leave_one_out_counts": {"pipeline.write_fig4"},
    "entropic_gain": {"pipeline._intelligence_section"},
    "top_k_terms": set(),
}

#: the program scopes that may call ``CountTable.pooled``: the table's build,
#: for its column margin, a ranking of a selection of rows, and the
#: survivors' macrostate
POOL_CALLERS = {
    "corpus.CountTable.__post_init__",
    "knowledge.rank_documents",
    "pipeline._intelligence_section",
}

#: the program scopes that may read ``corpus._PASS_ENTRIES``: the one cut of
#: a selection of rows into runs
PASS_SIZE_READERS = {"corpus._entry_runs"}

#: the program scopes that may build a ``_Draws`` stream: the one caller
#: that checks its seed, sizes and probabilities first
DRAWS_CALLERS = {"intelligence.kmeans"}

#: the program scopes that may read ``.force_bit_layer``: the ingest that
#: keeps byte histograms only for a forced bit layer, and the config's check
#: that it is a bool
FORCE_READERS = {"pipeline._ingest", "config.RunConfig.__post_init__"}


def findings(source: str, module: str, match: Callable[[ast.AST], str | None]) -> list:
    """(scope, what) for every node of ``source`` that ``match`` names,
    in source order; the scope is ``module`` and the enclosing defs."""
    found = []

    def walk(node: ast.AST, scope: str) -> None:
        what = match(node)
        if what is not None:
            found.append((scope, what))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(source), module)
    return found


def program_findings(match: Callable[[ast.AST], str | None]) -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += findings(path.read_text(encoding="utf-8"), path.stem, match)
    return found


def blas_use(node: ast.AST) -> str | None:
    """The BLAS routine ``node`` uses: a matrix product, or an attribute or
    import naming one of ``BLAS_NAMES``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
        return node.attr
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
        named = [part for module in modules for part in module.split(".")]
        return next((name for name in named if name in BLAS_NAMES), None)
    return None


def test_no_blas_routine_in_the_program():
    assert program_findings(blas_use) == []


def test_each_form_of_a_blas_use_is_found():
    source = (
        "import numpy as np\nimport numpy.linalg\nfrom numpy import dot\n"
        "from numpy.linalg import norm\n"
        "def f(a, b):\n    a @= b\n    return a @ b, np.inner(a, b), a.dot(b), np.vdot(a, b)\n"
        "class C:\n    def g(self, a):\n        return np.matmul(a, a), np.linalg.norm(a)\n"
        "def h(a):\n    return np.einsum('ij,ij->i', a, a), np.add.reduce(a * a)\n"
    )
    assert findings(source, "m", blas_use) == [
        ("m", "linalg"),
        ("m", "dot"),
        ("m", "linalg"),
        ("m.f", "@"),
        ("m.f", "@"),
        ("m.f", "inner"),
        ("m.f", "dot"),
        ("m.f", "vdot"),
        ("m.C.g", "matmul"),
        ("m.C.g", "linalg"),
        ("m.h", "einsum"),
    ]


def add_reduceat(node: ast.AST) -> str | None:
    """``add.reduceat`` when ``node`` reads the ``reduceat`` of an ``add``,
    as ``np.add.reduceat`` does, or ``add.reduceat`` after ``from numpy
    import add``."""
    if isinstance(node, ast.Attribute) and node.attr == "reduceat":
        value = node.value
        name = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", None)
        return "add.reduceat" if name == "add" else None
    return None


def test_segments_are_summed_only_by_the_listed_scopes():
    callers = {scope for scope, _ in program_findings(add_reduceat)}
    assert sorted(callers) == sorted(SEGMENT_SUMMERS)


def test_an_add_reduceat_is_found_in_its_scope():
    source = (
        "import numpy as np\nfrom numpy import add\n"
        "def pearson(led, heads):\n    return np.add.reduceat(led * led, heads, axis=1)\n"
        "class Kmeans:\n    def products(self, x, starts):\n"
        "        return numpy.add.reduceat(x, starts), add.reduceat\n"
        "def extremes(x, starts):\n"
        "    return np.maximum.reduceat(x, starts), np.add.reduce(x), np.add.accumulate(x)\n"
    )
    assert findings(source, "m", add_reduceat) == [
        ("m.pearson", "add.reduceat"),
        ("m.Kmeans.products", "add.reduceat"),
        ("m.Kmeans.products", "add.reduceat"),
    ]


def numpy_transcendental(node: ast.AST) -> str | None:
    """The one of ``TRANSCENDENTALS`` that ``node`` reads from ``np`` or
    ``numpy``, or imports from numpy."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        used = node.value.id in ("np", "numpy") and node.attr in TRANSCENDENTALS
        return node.attr if used else None
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        names = [*node.module.split("."), *(alias.name for alias in node.names)]
    elif isinstance(node, ast.Import):
        names = [part for alias in node.names for part in alias.name.split(".")]
        names = names if names[:1] == ["numpy"] else []
    else:
        return None
    return next((name for name in names if name in TRANSCENDENTALS), None)


def test_no_numpy_log_exp_or_power_in_the_program():
    assert program_findings(numpy_transcendental) == []


def test_each_form_of_a_numpy_log_is_found():
    source = (
        "import math\nimport numpy as np\nimport numpy.emath\nfrom numpy import log2, sqrt\n"
        "from numpy.emath import sqrt as root\n"
        "def entropy(p):\n    return -(p * np.log(p)).sum(), np.log1p(p), numpy.exp2(p)\n"
        "class Gain:\n    def scale(self, x):\n"
        "        return np.power(x, 2), np.float_power(x, 0.5), np.emath.log(x)\n"
        "def fine(x):\n    return math.log(x), np.sqrt(x), np.divide(x, 2), x.log10()\n"
    )
    assert findings(source, "m", numpy_transcendental) == [
        ("m", "emath"),
        ("m", "log2"),
        ("m", "emath"),
        ("m.entropy", "log"),
        ("m.entropy", "log1p"),
        ("m.entropy", "exp2"),
        ("m.Gain.scale", "power"),
        ("m.Gain.scale", "float_power"),
        ("m.Gain.scale", "emath"),
    ]


def attribute_read(name: str) -> Callable[[ast.AST], str | None]:
    """A matcher that names each load of a ``.name`` attribute."""

    def match(node: ast.AST) -> str | None:
        if isinstance(node, ast.Attribute) and node.attr == name:
            return name if isinstance(node.ctx, ast.Load) else None
        return None

    return match


def admitted(scope: str, allowed: set[str]) -> bool:
    """Whether ``scope`` is one of ``allowed`` or lies inside one."""
    return any(scope == a or scope.startswith(a + ".") for a in allowed)


@pytest.mark.parametrize("name", sorted(COUNT_READERS))
def test_token_counts_are_read_only_by_the_listed_functions(name):
    readers = {scope for scope, _ in program_findings(attribute_read(name))}
    assert sorted(s for s in readers if not admitted(s, COUNT_READERS[name])) == []


@pytest.mark.parametrize("name", sorted(COUNT_READERS))
def test_a_token_counts_read_is_found_in_its_scope(name):
    source = (
        "class Box:\n"
        "    def own(self):\n        return self.NAME\n"
        "    def make(self):\n        return Box(NAME={})\n"
        "def entropy(doc):\n    return sum(v for v in doc.NAME.values())\n"
        "def store(doc):\n    doc.NAME = {}\n"
    ).replace("NAME", name)
    found = findings(source, "m", attribute_read(name))
    assert found == [("m.Box.own", name), ("m.entropy", name)]
    assert admitted("m.Box.own", {"m.Box"}) and not admitted("m.Boxes", {"m.Box"})


def call_of(name: str) -> Callable[[ast.AST], str | None]:
    """A matcher that names each call of ``name``, bare or as an attribute."""

    def match(node: ast.AST) -> str | None:
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            return name if called == name else None
        return None

    return match


@pytest.mark.parametrize("name", sorted(COUNT_FUNCTION_CALLERS))
def test_string_keyed_count_functions_are_called_only_by_the_listed_scopes(name):
    callers = {scope for scope, _ in program_findings(call_of(name))}
    assert sorted(s for s in callers if not admitted(s, COUNT_FUNCTION_CALLERS[name])) == []


def test_a_count_function_call_is_found_in_its_scope():
    source = (
        "from m import top_k_terms\n"
        "def fig3(doc):\n    return top_k_terms(doc, 10)\n"
        "class Plot:\n"
        "    def fig4(self, doc):\n        return self.corpus.top_k_terms(doc.id)\n"
        "    def keep(self):\n        return top_k_terms, self.top_k_terms\n"
        "def top_k_terms(doc, k):\n    return sorted(doc)[:k]\n"
    )
    assert findings(source, "m", call_of("top_k_terms")) == [
        ("m.fig3", "top_k_terms"),
        ("m.Plot.fig4", "top_k_terms"),
    ]


def test_the_table_is_pooled_only_by_the_listed_scopes():
    callers = {scope for scope, _ in program_findings(call_of("pooled"))}
    assert sorted(s for s in callers if not admitted(s, POOL_CALLERS)) == []


def test_a_pooled_call_is_found_in_its_scope():
    source = (
        "class Table:\n"
        "    def __post_init__(self):\n        self.margin = self.pooled(range(9))\n"
        "    def pooled(self, rows):\n        return sum(rows)\n"
        "def data_section(corpus):\n    pooled = corpus.table.pooled\n"
        "    return pooled(range(len(corpus)))\n"
        "def bits_section(histograms):\n    pooled = sum(histograms)\n    return pooled\n"
    )
    assert findings(source, "m", call_of("pooled")) == [
        ("m.Table.__post_init__", "pooled"),
        ("m.data_section", "pooled"),
    ]


def name_read(name: str) -> Callable[[ast.AST], str | None]:
    """A matcher that names each load of ``name``, bare or as an attribute,
    and each import of it."""
    attribute = attribute_read(name)

    def match(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name) and node.id == name:
            return name if isinstance(node.ctx, ast.Load) else None
        if isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            return name
        return attribute(node)

    return match


def test_the_pass_size_is_read_only_by_the_listed_scopes():
    readers = {scope for scope, _ in program_findings(name_read("_PASS_ENTRIES"))}
    assert sorted(s for s in readers if not admitted(s, PASS_SIZE_READERS)) == []


def test_a_pass_size_read_is_found_in_its_scope():
    source = (
        "_PASS_ENTRIES = 4096\n"
        "def cut(local):\n    return local // _PASS_ENTRIES\n"
        "class Seeding:\n"
        "    def window(self, k):\n        return k * corpus._PASS_ENTRIES\n"
        "    def patch(self):\n        corpus._PASS_ENTRIES = 1\n"
        "def scorer():\n    from m.corpus import _PASS_ENTRIES as size\n    return size\n"
    )
    assert findings(source, "m", name_read("_PASS_ENTRIES")) == [
        ("m.cut", "_PASS_ENTRIES"),
        ("m.Seeding.window", "_PASS_ENTRIES"),
        ("m.scorer", "_PASS_ENTRIES"),
    ]


def subset_call(node: ast.AST) -> str | None:
    """``subset`` when ``node`` calls a ``.subset`` attribute."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return "subset" if node.func.attr == "subset" else None
    return None


def test_the_program_calls_no_subset():
    assert program_findings(subset_call) == []


def test_a_subset_call_is_found_in_its_scope():
    source = (
        "def narrow(corpus, ids):\n    return corpus.subset(ids)\n"
        "class Loop:\n"
        "    def run(self):\n        return self.corpus.subset([]).subset(['a'])\n"
        "    def subset(self, ids):\n        return subset(ids), self.corpus.subset\n"
    )
    assert findings(source, "m", subset_call) == [
        ("m.narrow", "subset"),
        ("m.Loop.run", "subset"),
        ("m.Loop.run", "subset"),
    ]


def test_the_draws_are_built_only_by_the_listed_scopes():
    callers = {scope for scope, _ in program_findings(call_of("_Draws"))}
    assert sorted(callers) == sorted(DRAWS_CALLERS)


def test_a_draws_call_is_found_in_its_scope():
    source = (
        "class _Draws:\n    def integers(self, n):\n        return 0\n"
        "def kmeans(rows, k, seed):\n    return seed_rows(rows, k, _Draws(seed))\n"
        "def aggregate(rows):\n    draws = m._Draws(0)\n    return draws, _Draws\n"
        "class Loop:\n    def run(self):\n        return _Draws(1).integers(3)\n"
    )
    assert findings(source, "m", call_of("_Draws")) == [
        ("m.kmeans", "_Draws"),
        ("m.aggregate", "_Draws"),
        ("m.Loop.run", "_Draws"),
    ]


def test_the_bit_layer_forcing_is_read_only_by_the_listed_scopes():
    readers = {scope for scope, _ in program_findings(attribute_read("force_bit_layer"))}
    assert sorted(readers) == sorted(FORCE_READERS)


def test_a_forcing_read_is_found_in_its_scope():
    source = (
        "def ingest(config):\n    return [] if config.force_bit_layer else None\n"
        "def run(config, counts):\n    return bit_section(counts, config.force_bit_layer)\n"
        "class RunConfig:\n    force_bit_layer = False\n"
        "    def echo(self):\n        return {'force_bit_layer': self.force_bit_layer}\n"
        "def patch(config):\n    config.force_bit_layer = True\n"
    )
    assert findings(source, "m", attribute_read("force_bit_layer")) == [
        ("m.ingest", "force_bit_layer"),
        ("m.run", "force_bit_layer"),
        ("m.RunConfig.echo", "force_bit_layer"),
    ]


def numpy_random_use(node: ast.AST) -> str | None:
    """``numpy.random`` when ``node`` imports it or from it, or reads it as
    an attribute of ``np`` or ``numpy``."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or "", *(f"{node.module}.{alias.name}" for alias in node.names)]
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        names = [f"numpy.{node.attr}" if node.value.id in ("np", "numpy") else ""]
    else:
        return None
    used = any(name == "numpy.random" or name.startswith("numpy.random.") for name in names)
    return "numpy.random" if used else None


def test_numpy_random_is_used_only_in_synthetic_function_bodies():
    tree = ast.parse((PACKAGE / "synthetic.py").read_text(encoding="utf-8"))
    bodies = {f"synthetic.{node.name}" for node in tree.body if isinstance(node, ast.FunctionDef)}
    users = {scope for scope, _ in program_findings(numpy_random_use)}
    assert sorted(s for s in users if not admitted(s, bodies)) == []


def test_a_numpy_random_use_is_found_in_its_scope():
    source = (
        "import numpy as np\nimport numpy.random\nfrom numpy.random import PCG64\n"
        "from numpy import random, zeros\nimport numpy.random.bit_generator as bits\n"
        "def draw(seed):\n    return np.random.default_rng(seed), numpy.random\n"
        "class Stream:\n    rng = np.random.default_rng(0)\n"
        "def pure(rng):\n    return rng.random(), random.random(), np.randomize, zeros(2)\n"
    )
    assert findings(source, "m", numpy_random_use) == [
        ("m", "numpy.random"),
        ("m", "numpy.random"),
        ("m", "numpy.random"),
        ("m", "numpy.random"),
        ("m.draw", "numpy.random"),
        ("m.draw", "numpy.random"),
        ("m.Stream", "numpy.random"),
    ]


def private_import(node: ast.AST) -> str | None:
    """The ``_``-prefixed names ``node`` imports from a ``layerstack``
    module, comma-joined."""
    if not isinstance(node, ast.ImportFrom):
        return None
    if not node.level and (node.module or "").split(".")[0] != "layerstack":
        return None
    return ", ".join(a.name for a in node.names if a.name.startswith("_")) or None


def test_the_cli_imports_no_private_name_of_another_module():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert findings(source, "cli", private_import) == []


def test_a_private_import_is_found_in_its_scope():
    source = (
        "from .pipeline import _json_text, write_fig4\n"
        "from layerstack.corpus import _PASS_ENTRIES as size\n"
        "from json import _default_decoder\nfrom .config import RunConfig\n"
        "def _own():\n    return 0\n"
        "def run():\n    from . import _Draws, pipeline, _draw\n    return pipeline._x\n"
    )
    assert findings(source, "m", private_import) == [
        ("m", "_json_text"),
        ("m", "_PASS_ENTRIES"),
        ("m.run", "_Draws, _draw"),
    ]
