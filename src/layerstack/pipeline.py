"""End-to-end orchestration of the seven analysis layers.

``run_pipeline`` ingests a corpus and walks the layers in order — byte
stream, per-document token entropy, document/term joint information,
correlation ranking, cluster-and-reselect aggregation, crowd-error
diagnostic, and keyword belief update — producing a :class:`RunReport` whose
JSON form is byte-stable for identical inputs and config. ``emit_tables``
and ``emit_plot_data`` render the report into ranking tables and plot CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping

from .belief import MAX_FRAME_SIZE, Frame, belief, keyword_belief_update, plausibility, vacuous_mass
from .corpus import (
    Corpus,
    Document,
    frequency_scatter,
    parse_stop_words,
    read_documents,
    read_source,
    top_k_terms,
)
from .infotheory import bitstream_entropy, count_entropy, hartley_entropy
from .intelligence import AggregationResult, EntropicState, aggregate_corpus, entropic_gain
from .knowledge import CorrelationResult, _log_proportion_profiles, pearson_parts, rank_documents
from .stopwords import ENGLISH_STOP_WORDS
from .wisdom import aggregate_round_quality

LAYERS = ("bit", "data", "information", "knowledge", "intelligence", "wisdom", "belief")

REPORT_NAME = "report.json"
KNOWLEDGE_TABLE = "table1"
INTELLIGENCE_TABLE = "table2"


class PipelineWarning(UserWarning):
    """Per-document soft error recorded during a pipeline run."""


class PipelineError(RuntimeError):
    """Fatal failure of one named pipeline stage."""

    def __init__(self, layer: str, cause: Exception) -> None:
        super().__init__(f"{layer} layer failed: {cause}")
        self.layer = layer


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on, so equal configs plus equal
    inputs give byte-identical outputs."""

    source: Path
    out_dir: Path
    stop_words_path: Path | None = None
    k: int = 3
    rounds: int = 1
    per_cluster: int = 5
    top_k: int = 5
    seed: int = 42
    reservoir_strength: float = 1.0
    force_bit_layer: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", Path(self.source))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.stop_words_path is not None:
            object.__setattr__(self, "stop_words_path", Path(self.stop_words_path))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.per_cluster < 1:
            raise ValueError(f"per_cluster must be >= 1, got {self.per_cluster}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not math.isfinite(self.reservoir_strength) or self.reservoir_strength <= 0.0:
            raise ValueError(
                f"reservoir_strength must be positive, got {self.reservoir_strength!r}"
            )

    def echo(self) -> dict[str, Any]:
        """JSON-safe snapshot of every field, paths as strings."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: str(v) if isinstance(v, Path) else v for k, v in values.items()}


@dataclass(frozen=True)
class RunReport:
    """Layer-by-layer results of one run.

    ``sections`` holds one JSON-safe entry per layer; a layer that could not
    run is marked ``{"skipped": true, "reason": ...}``. The ingested corpus
    and the typed rankings ride along for the emitters.
    """

    config_echo: Mapping[str, Any]
    provenance: Mapping[str, Any]
    sections: Mapping[str, Mapping[str, Any]]
    warnings: tuple[str, ...]
    knowledge_ranking: tuple[CorrelationResult, ...]
    aggregated_ranking: tuple[CorrelationResult, ...]
    corpus: Corpus

    def __post_init__(self) -> None:
        if set(self.sections) != set(LAYERS):
            raise ValueError(f"sections must cover exactly {LAYERS}")
        for layer, section in self.sections.items():
            if "skipped" not in section:
                raise ValueError(f"section {layer!r} lacks a skipped marker")
            if section["skipped"] and not section.get("reason"):
                raise ValueError(f"skipped section {layer!r} lacks a reason")

    def to_json(self) -> str:
        """Pretty-printed, key-sorted JSON body (no corpus attachment)."""
        payload = {
            "config": dict(self.config_echo),
            "provenance": dict(self.provenance),
            "sections": {k: dict(v) for k, v in self.sections.items()},
            "warnings": list(self.warnings),
        }
        return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _ingest(config: RunConfig) -> tuple[Corpus, dict[str, bytes], str]:
    """Read every source once: build the corpus, keep raw bytes for the bit
    layer, and hash ids, titles, and content for provenance."""
    stop_words = ENGLISH_STOP_WORDS
    hasher = hashlib.sha256()
    if config.stop_words_path is not None:
        data, text = read_source(config.stop_words_path)
        stop_words = parse_stop_words(text)
        for chunk in (b"stopwords\x1f", data, b"\x1e"):
            hasher.update(chunk)
    raw: dict[str, bytes] = {}
    documents: list[Document] = []
    for doc, data in read_documents(config.source, stop_words):
        for chunk in (doc.id.encode(), b"\x1f", doc.title.encode(), b"\x1f", data, b"\x1e"):
            hasher.update(chunk)
        raw[doc.id] = data
        documents.append(doc)
    corpus = Corpus(documents=tuple(documents), stop_words=stop_words)
    return corpus, raw, hasher.hexdigest()


def _skip(reason: str) -> dict[str, Any]:
    return {"skipped": True, "reason": reason}


def _bit_section(raw: Mapping[str, bytes], force: bool) -> dict[str, Any]:
    if not force:
        return _skip("input is digital text; enable force_bit_layer to compute byte entropies")
    per_document: dict[str, float] = {}
    for doc_id in sorted(raw):
        data = raw[doc_id]
        if not data:
            warnings.warn(f"empty file for {doc_id!r}; no byte entropy", PipelineWarning, stacklevel=2)
            continue
        per_document[doc_id] = bitstream_entropy(data)
    pooled = b"".join(raw[doc_id] for doc_id in sorted(raw))
    if not pooled:
        return _skip("all input files are empty")
    return {
        "skipped": False,
        "per_document_bits_per_byte": per_document,
        "pooled_bits_per_byte": bitstream_entropy(pooled),
    }


def _data_section(corpus: Corpus, totals: Mapping[str, int]) -> dict[str, Any]:
    per_document: dict[str, float] = {}
    for doc in corpus:
        if doc.total_tokens == 0:
            warnings.warn(
                f"document {doc.id!r} has no terms; excluded from token entropy",
                PipelineWarning,
                stacklevel=2,
            )
            continue
        per_document[doc.id] = count_entropy(doc.token_counts.values())
    if not totals:
        return _skip("no terms in corpus")
    return {
        "skipped": False,
        "per_document_bits": per_document,
        "corpus_bits": count_entropy(totals.values()),
        "vocabulary_size": len(corpus.vocabulary),
        "hartley_vocabulary_bits": hartley_entropy(len(corpus.vocabulary)),
    }


def _information_section(corpus: Corpus, totals: Mapping[str, int]) -> dict[str, Any]:
    if not totals:
        return _skip("no terms in corpus")
    joint_bits = count_entropy(c for doc in corpus for c in doc.token_counts.values())
    document_bits = count_entropy(doc.total_tokens for doc in corpus)
    term_bits = count_entropy(totals.values())
    return {
        "skipped": False,
        "joint_bits": joint_bits,
        "document_marginal_bits": document_bits,
        "term_marginal_bits": term_bits,
        "residual_term_bits_given_document": joint_bits - document_bits,
        "residual_document_bits_given_term": joint_bits - term_bits,
    }


def _ranking_rows(ranking: tuple[CorrelationResult, ...], corpus: Corpus) -> list[dict[str, Any]]:
    return [
        {
            "doc_id": res.doc_id,
            "title": corpus.get(res.doc_id).title,
            "correlation": res.r,
            "p_value": res.p_value,
            "shared_terms": res.n,
        }
        for res in ranking
    ]


def _knowledge_section(
    corpus: Corpus, top_k: int
) -> tuple[dict[str, Any], tuple[CorrelationResult, ...]]:
    if len(corpus) < 2:
        return _skip(f"ranking needs at least 2 documents, got {len(corpus)}"), ()
    ranking = tuple(rank_documents(corpus, top_k=top_k))
    return {"skipped": False, "ranking": _ranking_rows(ranking, corpus)}, ranking


def _intelligence_section(
    corpus: Corpus, config: RunConfig
) -> tuple[dict[str, Any], tuple[CorrelationResult, ...], AggregationResult | None]:
    if len(corpus) < 2:
        return _skip(f"aggregation needs at least 2 documents, got {len(corpus)}"), (), None
    if len(corpus) < config.k:
        return _skip(f"fewer documents than clusters: {len(corpus)} < {config.k}"), (), None
    agg = aggregate_corpus(
        corpus,
        k=config.k,
        rounds=config.rounds,
        per_cluster=config.per_cluster,
        seed=config.seed,
    )
    rounds_summary = []
    for rnd in agg.rounds:
        sizes = [0] * rnd.clustering.k
        for cluster in rnd.clustering.assignments.values():
            sizes[cluster] += 1
        rounds_summary.append(
            {
                "round": rnd.index,
                "k": rnd.clustering.k,
                "seed": rnd.clustering.seed,
                "iterations": len(rnd.clustering.inertia_history),
                "inertia": rnd.clustering.inertia,
                "cluster_sizes": sizes,
                "selected": list(rnd.selected_ids),
            }
        )
    aggregated = agg.ranking[: config.top_k]
    survivors = set(agg.survivor_ids)
    macrostate = corpus.subset(agg.survivor_ids).total_counts()
    gains: dict[str, float] = {}
    macrostate_bits = None
    if macrostate:
        state = EntropicState(
            macrostate=macrostate, reservoir_strength=config.reservoir_strength
        )
        macrostate_bits = count_entropy(state.macrostate.values())
        for doc in corpus:
            if doc.id in survivors or doc.total_tokens == 0:
                continue
            gains[doc.id] = entropic_gain(state, doc)
    section = {
        "skipped": False,
        "rounds": rounds_summary,
        "survivors": list(agg.survivor_ids),
        "aggregated_ranking": _ranking_rows(aggregated, corpus),
        "macrostate_bits": macrostate_bits,
        "reservoir_strength": config.reservoir_strength,
        "entropic_gains": gains,
    }
    return section, aggregated, agg


def _wisdom_section(agg: AggregationResult | None) -> dict[str, Any]:
    if agg is None:
        return _skip("intelligence layer skipped")
    if not agg.rounds:
        return _skip("no aggregation rounds completed")
    if not agg.ranking:
        return _skip("empty final ranking")
    last = agg.rounds[-1]
    individuals = [ranked[0].r for ranked in last.cluster_rankings if ranked]
    if not individuals:
        return _skip("no cluster produced a ranked representative")
    truth = agg.ranking[0].r
    decomp = aggregate_round_quality(individuals, truth)
    return {
        "skipped": False,
        "individuals": individuals,
        "truth": truth,
        "crowd_mean": decomp.crowd_mean,
        "crowd_sq_error": decomp.crowd_sq_error,
        "avg_individual_sq_error": decomp.avg_individual_sq_error,
        "diversity": decomp.diversity,
    }


def _belief_section(
    corpus: Corpus,
    totals: Mapping[str, int],
    knowledge_ranking: tuple[CorrelationResult, ...],
    top_k: int,
) -> dict[str, Any]:
    if not knowledge_ranking:
        return _skip("no ranked documents to draw evidence from")
    keyword_count = min(top_k, MAX_FRAME_SIZE, len(corpus.vocabulary))
    if keyword_count < 1:
        return _skip("no terms in corpus")
    by_frequency = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    keywords = [term for term, _ in by_frequency[:keyword_count]]
    frame = Frame(elements=tuple(keywords))
    grand = sum(totals.values())
    contributions = {kw: 0.0 for kw in keywords}
    for res in knowledge_ranking:
        doc = corpus.get(res.doc_id)
        shared, xs, ys = _log_proportion_profiles(doc, totals, grand, doc)
        dx, dy, denom = pearson_parts(xs, ys)
        for term, a, b in zip(shared, dx.tolist(), dy.tolist()):
            if term in contributions:
                piece = a * b / denom
                if piece > 0.0:
                    contributions[term] += piece
    total = math.fsum(contributions.values())
    evidence = {
        kw: (contributions[kw] / total if total > 0.0 else 0.0) for kw in keywords
    }
    posterior = keyword_belief_update(vacuous_mass(frame), evidence)
    named_masses = {
        ",".join(frame.names(mask)): value for mask, value in posterior.masses.items()
    }
    singletons = {
        kw: {
            "belief": belief(posterior, (kw,)),
            "plausibility": plausibility(posterior, (kw,)),
        }
        for kw in keywords
    }
    return {
        "skipped": False,
        "keywords": keywords,
        "evidence": evidence,
        "posterior": named_masses,
        "singletons": singletons,
    }


@contextmanager
def _stage(layer: str) -> Iterator[None]:
    """Turn a ``ValueError`` raised inside the block into a
    :class:`PipelineError` naming ``layer``."""
    try:
        yield
    except ValueError as exc:
        raise PipelineError(layer, exc) from exc


def run_pipeline(config: RunConfig) -> RunReport:
    """Execute the layers in order on the configured corpus.

    Per-document soft errors surface as recorded warnings; a fatal problem
    raises :class:`PipelineError` naming the layer. Identical config and
    input bytes give an identical report.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _stage("ingest"):
            corpus, raw, input_hash = _ingest(config)
        totals = corpus.total_counts()
        sections: dict[str, dict[str, Any]] = {}
        with _stage("bit"):
            sections["bit"] = _bit_section(raw, config.force_bit_layer)
        with _stage("data"):
            sections["data"] = _data_section(corpus, totals)
        with _stage("information"):
            sections["information"] = _information_section(corpus, totals)
        with _stage("knowledge"):
            sections["knowledge"], knowledge_ranking = _knowledge_section(corpus, config.top_k)
        with _stage("intelligence"):
            sections["intelligence"], aggregated, agg = _intelligence_section(corpus, config)
        with _stage("wisdom"):
            sections["wisdom"] = _wisdom_section(agg)
        with _stage("belief"):
            sections["belief"] = _belief_section(corpus, totals, knowledge_ranking, config.top_k)

    recorded = tuple(f"{w.category.__name__}: {w.message}" for w in caught)
    provenance = {
        "input_sha256": input_hash,
        "document_count": len(corpus),
        "vocabulary_size": len(corpus.vocabulary),
    }
    return RunReport(
        config_echo=config.echo(),
        provenance=provenance,
        sections=sections,
        warnings=recorded,
        knowledge_ranking=knowledge_ranking,
        aggregated_ranking=aggregated,
        corpus=corpus,
    )


def _prepare_out_dir(report: RunReport, out_dir: str | Path | None) -> Path:
    out = Path(out_dir) if out_dir is not None else Path(report.config_echo["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PipelineError("emit", exc) from exc
    return out


def write_report(report: RunReport, out_dir: str | Path | None = None) -> Path:
    """Write the JSON run summary (sorted keys, so byte-stable)."""
    out = _prepare_out_dir(report, out_dir)
    path = out / REPORT_NAME
    try:
        path.write_text(report.to_json(), encoding="utf-8")
    except OSError as exc:
        raise PipelineError("emit", exc) from exc
    return path


def ranking_tsv(ranking: Iterable[CorrelationResult], corpus: Corpus) -> str:
    """A ranking as TSV text: title, correlation (3 decimals), p_value
    (scientific, 3 significant digits), one header line."""
    rows = (f"{corpus.get(res.doc_id).title}\t{res.r:.3f}\t{res.p_value:.2e}" for res in ranking)
    return "\n".join(["title\tcorrelation\tp_value", *rows]) + "\n"


def emit_tables(
    report: RunReport, format: str = "tsv", out_dir: str | Path | None = None
) -> list[Path]:
    """Write the correlation ranking and the aggregated ranking as tables.

    TSV is :func:`ranking_tsv`; JSON keeps full precision. An empty ranking
    gives a header-only file (TSV) or an empty array (JSON).
    """
    if format not in ("tsv", "json"):
        raise ValueError(f"unknown table format {format!r}")
    out = _prepare_out_dir(report, out_dir)
    written: list[Path] = []
    tables = (
        (KNOWLEDGE_TABLE, report.knowledge_ranking),
        (INTELLIGENCE_TABLE, report.aggregated_ranking),
    )
    try:
        for name, ranking in tables:
            path = out / f"{name}.{format}"
            if format == "tsv":
                path.write_text(ranking_tsv(ranking, report.corpus), encoding="utf-8")
            else:
                rows = _ranking_rows(ranking, report.corpus)
                path.write_text(
                    json.dumps(rows, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
                    encoding="utf-8",
                )
            written.append(path)
    except OSError as exc:
        raise PipelineError("emit", exc) from exc
    return written


def write_fig4(handle: IO[str], corpus: Corpus, docs: Iterable[Document]) -> None:
    """Write fig4 CSV rows for ``docs``: each term's proportion in the
    document versus in the rest of ``corpus``, with the log10 deviation.
    Empty documents are skipped, as is (with a warning) any document whose
    leave-one-out reference has no terms."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["doc_id", "term", "doc_proportion", "reference_proportion", "deviation"])
    for doc in docs:
        if doc.total_tokens == 0:
            continue
        reference = corpus.leave_one_out_counts(doc.id)
        if not reference:
            warnings.warn(
                f"no reference terms for {doc.id!r}; skipped in fig4",
                PipelineWarning,
                stacklevel=2,
            )
            continue
        for point in frequency_scatter(doc, reference):
            writer.writerow(
                [
                    doc.id,
                    point.term,
                    point.doc_proportion,
                    point.reference_proportion,
                    point.deviation,
                ]
            )


def emit_plot_data(report: RunReport, out_dir: str | Path | None = None) -> list[Path]:
    """Write fig3.csv (top-10 terms per document) and fig4.csv (per-term
    document-versus-rest proportions with log10 deviation)."""
    out = _prepare_out_dir(report, out_dir)
    corpus = report.corpus
    fig3 = out / "fig3.csv"
    fig4 = out / "fig4.csv"
    try:
        with fig3.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["doc_id", "rank", "term", "count"])
            for doc in corpus:
                if doc.total_tokens == 0:
                    continue
                for rank, (term, count) in enumerate(top_k_terms(doc, 10), start=1):
                    writer.writerow([doc.id, rank, term, count])
        with fig4.open("w", encoding="utf-8", newline="") as handle:
            if len(corpus) < 2:
                warnings.warn(
                    "single-document corpus: no leave-one-out reference for fig4",
                    PipelineWarning,
                    stacklevel=2,
                )
            write_fig4(handle, corpus, corpus.documents if len(corpus) > 1 else ())
    except OSError as exc:
        raise PipelineError("emit", exc) from exc
    return [fig3, fig4]
