"""Span tracing around the public functions through which each layer is
reached, installed from outside the program by rebinding module attributes.

A span is recorded as ``[name, start, end, parent, peak_bytes, info]``:
``parent`` is the index of the enclosing span (-1 at the root), and
``peak_bytes`` is the peak of memory allocated inside the span and traced
by tracemalloc, for the spans in MEMORY_SPANS. Spans stay in memory until
the traced run ends. A layer's self time is its spans' durations minus the
time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from typing import Any, Callable

#: (span name, module, attribute path). One span name may cover several
#: functions; each function is rebound wherever a layerstack module holds it.
TARGETS = (
    ("cli.main", "layerstack.cli", "main"),
    ("corpus.ingest", "layerstack.pipeline", "_ingest"),
    ("corpus.ingest", "layerstack.corpus", "ingest_corpus"),
    ("corpus.loo", "layerstack.corpus", "Corpus.leave_one_out_counts"),
    ("corpus.total_counts", "layerstack.corpus", "Corpus.total_counts"),
    ("corpus.frequency_scatter", "layerstack.corpus", "frequency_scatter"),
    ("infotheory.bitstream_entropy", "layerstack.infotheory", "bitstream_entropy"),
    ("infotheory.shannon_entropy", "layerstack.infotheory", "shannon_entropy"),
    ("infotheory.joint", "layerstack.infotheory", "JointDistribution.__post_init__"),
    ("infotheory.joint", "layerstack.infotheory", "JointDistribution._marginal"),
    ("infotheory.joint", "layerstack.infotheory", "joint_entropy"),
    ("infotheory.joint", "layerstack.infotheory", "residual_entropy"),
    ("knowledge.rank_documents", "layerstack.knowledge", "rank_documents"),
    ("knowledge.pearson_r", "layerstack.knowledge", "pearson_r"),
    ("intelligence.aggregate_corpus", "layerstack.intelligence", "aggregate_corpus"),
    ("intelligence.kmeans", "layerstack.intelligence", "kmeans"),
    ("intelligence.doc_vector", "layerstack.intelligence", "doc_vector"),
    ("intelligence.entropic_gain", "layerstack.intelligence", "entropic_gain"),
    ("wisdom.aggregate_round_quality", "layerstack.wisdom", "aggregate_round_quality"),
    ("belief.keyword_belief_update", "layerstack.belief", "keyword_belief_update"),
    ("belief.combine", "layerstack.belief", "combine"),
    ("pipeline.run_pipeline", "layerstack.pipeline", "run_pipeline"),
    ("pipeline.write_report", "layerstack.pipeline", "write_report"),
    ("pipeline.emit_tables", "layerstack.pipeline", "emit_tables"),
    ("pipeline.emit_plot_data", "layerstack.pipeline", "emit_plot_data"),
)


def _kmeans_info(args: tuple, kwargs: dict, result: Any) -> dict[str, int] | None:
    """N, k, V and assignment passes of one k-means call: one inertia entry
    per pass, each over an N x k x V tensor. None if the call no longer has
    the shape this reads (a list of vectors in, a Clustering out)."""
    try:
        vectors = args[0] if args else kwargs["vectors"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        return {
            "n": len(vectors),
            "k": int(k),
            "v": int(vectors[0].components.size),
            "passes": len(result.inertia_history),
        }
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


#: spans whose peak traced allocation is recorded. tracemalloc runs only
#: inside them: traced everywhere it slows allocation-heavy layers several
#: times over and distorts every self time.
MEMORY_SPANS = frozenset({"intelligence.kmeans"})


class Tracer:
    """Records nested spans: wall time, and memory peaks in MEMORY_SPANS."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Rebind every target; targets the program no longer has are listed
        in ``missing`` and their metrics read zero."""
        for _, module, _ in TARGETS:
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                pass
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "layerstack"]
        for name, module, path in TARGETS:
            owner = sys.modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(name, original)
            if outer:  # a method: rebinding it on its class reaches every caller
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, func: Callable) -> Callable:
        info = _kmeans_info if name == "intelligence.kmeans" else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(index)
            if info is not None:
                self.spans[index][5] = info(args, kwargs, result)
            return result

        return wrapper

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None, None])
        self._stack.append(index)
        if name in MEMORY_SPANS:
            tracemalloc.start()
        self.spans[index][1] = time.perf_counter()
        return index

    def _exit(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        if span[0] in MEMORY_SPANS:
            span[4] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        span[2] = end
        self._stack.pop()


def _self_times(spans: list[list[Any]]) -> list[float]:
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _has_ancestor(spans: list[list[Any]], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


#: per-layer metric → unit, in the order they are reported
LAYER_UNITS = {
    "corpus.ingest_s": "s",
    "corpus.bytes_in": "bytes",
    "corpus.docs": "count",
    "corpus.pairs": "count",
    "corpus.vocab": "count",
    "corpus.loo.calls": "count",
    "corpus.loo_s": "s",
    "corpus.total_counts.calls": "count",
    "corpus.total_counts_s": "s",
    "corpus.frequency_scatter_s": "s",
    "infotheory.bitstream_entropy_s": "s",
    "infotheory.shannon_entropy.calls": "count",
    "infotheory.shannon_entropy_s": "s",
    "infotheory.joint_s": "s",
    "knowledge.rank_documents.calls": "count",
    "knowledge.rank_documents.global_s": "s",
    "knowledge.rank_documents.aggregate_s": "s",
    "knowledge.pearson_r.calls": "count",
    "intelligence.kmeans_s": "s",
    "intelligence.kmeans_iterations": "count",
    "intelligence.kmeans_distance_bytes": "computed_bytes",
    "intelligence.kmeans_peak_mb": "MB",
    "intelligence.doc_vector_s": "s",
    "intelligence.entropic_gain.calls": "count",
    "intelligence.entropic_gain_s": "s",
    "wisdom.aggregate_round_quality_s": "s",
    "belief.keyword_belief_update_s": "s",
    "belief.combine.calls": "count",
    "pipeline.run_pipeline_self_s": "s",
    "pipeline.write_report_s": "s",
    "pipeline.emit_tables_s": "s",
    "pipeline.emit_plot_data_s": "s",
    "pipeline.bytes_out": "bytes",
    "cli.main_self_s": "s",
    "trace.overhead_s": "s",
}

#: span name → metric summing its self time
_SELF_TIME = {
    "corpus.ingest": "corpus.ingest_s",
    "corpus.loo": "corpus.loo_s",
    "corpus.total_counts": "corpus.total_counts_s",
    "corpus.frequency_scatter": "corpus.frequency_scatter_s",
    "infotheory.bitstream_entropy": "infotheory.bitstream_entropy_s",
    "infotheory.shannon_entropy": "infotheory.shannon_entropy_s",
    "infotheory.joint": "infotheory.joint_s",
    "intelligence.kmeans": "intelligence.kmeans_s",
    "intelligence.doc_vector": "intelligence.doc_vector_s",
    "intelligence.entropic_gain": "intelligence.entropic_gain_s",
    "wisdom.aggregate_round_quality": "wisdom.aggregate_round_quality_s",
    "belief.keyword_belief_update": "belief.keyword_belief_update_s",
    "pipeline.run_pipeline": "pipeline.run_pipeline_self_s",
    "pipeline.write_report": "pipeline.write_report_s",
    "pipeline.emit_tables": "pipeline.emit_tables_s",
    "pipeline.emit_plot_data": "pipeline.emit_plot_data_s",
    "cli.main": "cli.main_self_s",
}

#: span name → metric counting its calls
_CALLS = {
    "corpus.loo": "corpus.loo.calls",
    "corpus.total_counts": "corpus.total_counts.calls",
    "infotheory.shannon_entropy": "infotheory.shannon_entropy.calls",
    "knowledge.rank_documents": "knowledge.rank_documents.calls",
    "knowledge.pearson_r": "knowledge.pearson_r.calls",
    "intelligence.entropic_gain": "intelligence.entropic_gain.calls",
    "belief.combine": "belief.combine.calls",
}


def span_metrics(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer metrics measured from one traced run's spans."""
    own = _self_times(spans)
    metrics: dict[str, float] = {m: 0.0 for m in _SELF_TIME.values()}
    metrics.update({m: 0 for m in _CALLS.values()})
    metrics["knowledge.rank_documents.global_s"] = 0.0
    metrics["knowledge.rank_documents.aggregate_s"] = 0.0
    kmeans = []
    for index, span in enumerate(spans):
        name = span[0]
        if name in _SELF_TIME:
            metrics[_SELF_TIME[name]] += own[index]
        if name in _CALLS:
            metrics[_CALLS[name]] += 1
        if name == "knowledge.rank_documents":
            where = "aggregate" if _has_ancestor(spans, index, "intelligence.aggregate_corpus") else "global"
            metrics[f"knowledge.rank_documents.{where}_s"] += own[index]
        if name == "intelligence.kmeans":
            kmeans.append(span)
    shapes = [s[5] for s in kmeans if s[5] is not None]
    metrics["intelligence.kmeans_iterations"] = sum(i["passes"] for i in shapes)
    metrics["intelligence.kmeans_distance_bytes"] = sum(
        i["n"] * i["k"] * i["v"] * 8 * i["passes"] for i in shapes
    )
    metrics["intelligence.kmeans_peak_mb"] = max((s[4] for s in kmeans), default=0) / 2**20
    return metrics
