"""End-to-end orchestration of the seven analysis layers.

``run_pipeline`` ingests a corpus and walks the layers in order — byte
stream, per-document token entropy, document/term joint information,
correlation ranking, cluster-and-reselect aggregation, crowd-error
diagnostic, and keyword belief update — producing a :class:`RunReport` whose
JSON form is byte-stable for identical inputs and config. ``emit_tables``
renders the report's ranking rows as tables; ``emit_plot_data`` writes the
plot CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
import math
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
from .infotheory import _byte_counts, count_entropy, hartley_entropy
from .intelligence import AggregationResult, EntropicState, aggregate_corpus, entropic_gain
from .knowledge import CorrelationResult, _log_proportion_profiles, pearson_parts, rank_documents
from .stopwords import ENGLISH_STOP_WORDS
from .wisdom import aggregate_round_quality

LAYERS = ("bit", "data", "information", "knowledge", "intelligence", "wisdom", "belief")

REPORT_NAME = "report.json"
KNOWLEDGE_TABLE = "table1"
INTELLIGENCE_TABLE = "table2"


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    run is marked ``{"skipped": true, "reason": ...}``. ``warnings`` holds
    the run's soft errors as ``"<Category>: <message>"`` lines. The
    ingested corpus rides along for the plot emitter.
    """

    config_echo: Mapping[str, Any]
    provenance: Mapping[str, Any]
    sections: Mapping[str, Mapping[str, Any]]
    warnings: tuple[str, ...]
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


def _bit_section(raw: Mapping[str, bytes], force: bool, notes: list[str]) -> dict[str, Any]:
    if not force:
        return _skip("input is digital text; enable force_bit_layer to compute byte entropies")
    histograms = {}
    for doc_id in sorted(raw):
        data = raw[doc_id]
        if not data:
            notes.append(f"PipelineWarning: empty file for {doc_id!r}; no byte entropy")
            continue
        histograms[doc_id] = _byte_counts(data)
    if not histograms:
        return _skip("all input files are empty")
    # the pooled histogram is the sum of the per-file ones: no joined copy
    pooled = sum(histograms.values())
    return {
        "skipped": False,
        "per_document_bits_per_byte": {
            doc_id: count_entropy(counts.tolist()) for doc_id, counts in histograms.items()
        },
        "pooled_bits_per_byte": count_entropy(pooled.tolist()),
    }


def _data_section(
    corpus: Corpus, totals: Mapping[str, int], notes: list[str]
) -> dict[str, Any]:
    per_document: dict[str, float] = {}
    for doc in corpus:
        if doc.total_tokens == 0:
            notes.append(
                f"PipelineWarning: document {doc.id!r} has no terms; excluded from token entropy"
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


def ranking_rows(ranking: Iterable[CorrelationResult], corpus: Corpus) -> list[dict[str, Any]]:
    """A ranking as JSON-safe rows: id, title, full-precision correlation
    and p-value, and the shared-term count."""
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
    corpus: Corpus, top_k: int, notes: list[str]
) -> tuple[dict[str, Any], tuple[CorrelationResult, ...]]:
    if len(corpus) < 2:
        return _skip(f"ranking needs at least 2 documents, got {len(corpus)}"), ()
    ranking = tuple(rank_documents(corpus, top_k=top_k, notes=notes))
    return {"skipped": False, "ranking": ranking_rows(ranking, corpus)}, ranking


def _intelligence_section(
    corpus: Corpus, config: RunConfig, notes: list[str]
) -> tuple[dict[str, Any], AggregationResult | None]:
    if len(corpus) < 2:
        return _skip(f"aggregation needs at least 2 documents, got {len(corpus)}"), None
    if len(corpus) < config.k:
        return _skip(f"fewer documents than clusters: {len(corpus)} < {config.k}"), None
    agg = aggregate_corpus(
        corpus,
        k=config.k,
        rounds=config.rounds,
        per_cluster=config.per_cluster,
        seed=config.seed,
        notes=notes,
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
    survivors = set(agg.survivor_ids)
    macrostate = corpus.subset(agg.survivor_ids).total_counts()
    gains: dict[str, float] = {}
    macrostate_bits = None
    if macrostate:
        state = EntropicState(
            macrostate=macrostate, reservoir_strength=config.reservoir_strength
        )
        macrostate_bits = state.bits
        for doc in corpus:
            if doc.id in survivors or doc.total_tokens == 0:
                continue
            gains[doc.id] = entropic_gain(state, doc)
    section = {
        "skipped": False,
        "rounds": rounds_summary,
        "survivors": list(agg.survivor_ids),
        "aggregated_ranking": ranking_rows(agg.ranking[: config.top_k], corpus),
        "macrostate_bits": macrostate_bits,
        "reservoir_strength": config.reservoir_strength,
        "entropic_gains": gains,
    }
    return section, agg


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
    by_frequency = heapq.nsmallest(keyword_count, totals.items(), key=lambda kv: (-kv[1], kv[0]))
    keywords = [term for term, _ in by_frequency]
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
    """Turn a ``ValueError`` or ``OSError`` raised inside the block (or the
    decorated function) into a :class:`PipelineError` naming ``layer``."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise PipelineError(layer, exc) from exc


def run_pipeline(config: RunConfig) -> RunReport:
    """Execute the layers in order on the configured corpus.

    Per-document soft errors become the report's ``warnings``, one
    ``"<Category>: <message>"`` line each in the order they arise; a fatal
    problem raises :class:`PipelineError` naming the layer. Identical config
    and input bytes give an identical report.
    """
    notes: list[str] = []
    with _stage("ingest"):
        corpus, raw, input_hash = _ingest(config)
    totals = corpus.total_counts()
    sections: dict[str, dict[str, Any]] = {}
    with _stage("bit"):
        sections["bit"] = _bit_section(raw, config.force_bit_layer, notes)
    with _stage("data"):
        sections["data"] = _data_section(corpus, totals, notes)
    with _stage("information"):
        sections["information"] = _information_section(corpus, totals)
    with _stage("knowledge"):
        sections["knowledge"], knowledge_ranking = _knowledge_section(corpus, config.top_k, notes)
    with _stage("intelligence"):
        sections["intelligence"], agg = _intelligence_section(corpus, config, notes)
    with _stage("wisdom"):
        sections["wisdom"] = _wisdom_section(agg)
    with _stage("belief"):
        sections["belief"] = _belief_section(corpus, totals, knowledge_ranking, config.top_k)

    provenance = {
        "input_sha256": input_hash,
        "document_count": len(corpus),
        "vocabulary_size": len(corpus.vocabulary),
    }
    return RunReport(
        config_echo=config.echo(),
        provenance=provenance,
        sections=sections,
        warnings=tuple(notes),
        corpus=corpus,
    )


def _out_dir(report: RunReport) -> Path:
    out = Path(report.config_echo["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


@_stage("emit")
def write_report(report: RunReport) -> Path:
    """Write the JSON run summary (sorted keys, so byte-stable)."""
    path = _out_dir(report) / REPORT_NAME
    path.write_text(report.to_json(), encoding="utf-8")
    return path


def ranking_tsv(rows: Iterable[Mapping[str, Any]]) -> str:
    """Ranking rows as TSV text: title, correlation (3 decimals), p_value
    (scientific, 3 significant digits), one header line."""
    lines = (f"{row['title']}\t{row['correlation']:.3f}\t{row['p_value']:.2e}" for row in rows)
    return "\n".join(["title\tcorrelation\tp_value", *lines]) + "\n"


@_stage("emit")
def emit_tables(report: RunReport) -> list[Path]:
    """Write the report's knowledge and aggregated ranking rows as
    table1/table2: TSV through :func:`ranking_tsv`, then JSON at full
    precision. A skipped layer gives a header-only TSV and an empty array."""
    out = _out_dir(report)
    tables = {
        KNOWLEDGE_TABLE: report.sections["knowledge"].get("ranking", []),
        INTELLIGENCE_TABLE: report.sections["intelligence"].get("aggregated_ranking", []),
    }
    written: list[Path] = []
    for name, rows in tables.items():
        path = out / f"{name}.tsv"
        path.write_text(ranking_tsv(rows), encoding="utf-8")
        written.append(path)
    for name, rows in tables.items():
        path = out / f"{name}.json"
        text = json.dumps(rows, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def _csv_field(value: str) -> str:
    """A non-empty ``value`` quoted as ``csv.writer`` quotes it in a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value])
    return buffer.getvalue()[:-1]


def write_fig4(
    handle: IO[str], corpus: Corpus, docs: Iterable[Document], notes: list[str]
) -> None:
    """Write fig4 CSV rows for ``docs``: each term's proportion in the
    document versus in the rest of ``corpus``, with the log10 deviation.
    Empty documents are skipped, as is any document whose leave-one-out
    reference has no terms, with a ``"PipelineWarning: ..."`` line in
    ``notes``.

    The bytes are those of ``csv.writer``: floats as ``repr``, ids and terms
    quoted where needed. A document's rows are joined and written at once,
    and each distinct (doc_proportion, reference_proportion) pair, which
    fixes the deviation too, is formatted once per document."""
    handle.write("doc_id,term,doc_proportion,reference_proportion,deviation\n")
    for doc in docs:
        if doc.total_tokens == 0:
            continue
        reference = corpus.leave_one_out_counts(doc.id)
        if not reference:
            notes.append(f"PipelineWarning: no reference terms for {doc.id!r}; skipped in fig4")
            continue
        doc_id = _csv_field(doc.id)
        tails: dict[tuple[float, float], str] = {}
        rows = []
        terms, dps, rps = frequency_scatter(doc, reference, sum(reference.values()))
        for term, dp, rp in zip(terms, dps, rps):
            tail = tails.get((dp, rp))
            if tail is None:
                deviation = math.log10(dp) - math.log10(rp)
                tail = tails[dp, rp] = f"{dp!r},{rp!r},{deviation!r}\n"
            # tokenized terms are alphanumeric: only API-built ones need quoting
            rows.append(f"{doc_id},{term if term.isalnum() else _csv_field(term)},{tail}")
        handle.write("".join(rows))


@_stage("emit")
def emit_plot_data(report: RunReport, notes: list[str] | None = None) -> list[Path]:
    """Write fig3.csv (top-10 terms per document) and fig4.csv (per-term
    document-versus-rest proportions with log10 deviation). Documents fig4
    cannot plot are noted in ``notes`` when it is given."""
    if notes is None:
        notes = []
    out = _out_dir(report)
    corpus = report.corpus
    fig3 = out / "fig3.csv"
    fig4 = out / "fig4.csv"
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
            notes.append(
                "PipelineWarning: single-document corpus: no leave-one-out reference for fig4"
            )
        write_fig4(handle, corpus, corpus.documents if len(corpus) > 1 else (), notes)
    return [fig3, fig4]
