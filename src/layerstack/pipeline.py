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
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping

import numpy as np

from .belief import MAX_FRAME_SIZE, Frame, belief, keyword_belief_update, plausibility, vacuous_mass
from .config import PipelineError, RunConfig, json_text
from .corpus import (
    Corpus,
    CountTable,
    Document,
    parse_stop_words,
    read_documents,
    read_source,
    shared_proportions,
)
from .infotheory import _byte_counts, count_entropy, hartley_entropy
from .intelligence import AggregationRound, EntropicState, _aggregation_rounds, entropic_gain
from .knowledge import CorrelationResult, _scored_runs, rank_documents, ranking_rows, ranking_tsv
from .stopwords import ENGLISH_STOP_WORDS
from .wisdom import aggregate_round_quality

LAYERS = ("bit", "data", "information", "knowledge", "intelligence", "wisdom", "belief")

REPORT_NAME = "report.json"
KNOWLEDGE_TABLE = "table1"
INTELLIGENCE_TABLE = "table2"


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
        return json_text(payload)


def _ingest(config: RunConfig) -> tuple[Corpus, dict[str, np.ndarray], str]:
    """Read every source once: build the corpus, keep byte histograms for a
    forced bit layer, and hash ids, titles, and content for provenance."""
    import hashlib  # only a run hashes, and hashlib loads OpenSSL

    stop_words = ENGLISH_STOP_WORDS
    hasher = hashlib.sha256()
    if config.stop_words_path is not None:
        data, text = read_source(config.stop_words_path)
        stop_words = parse_stop_words(text)
        for chunk in (b"stopwords\x1f", data, b"\x1e"):
            hasher.update(chunk)
    histograms: dict[str, np.ndarray] = {}
    documents: list[Document] = []
    for doc, data in read_documents(config.source, stop_words):
        for chunk in (doc.id.encode(), b"\x1f", doc.title.encode(), b"\x1f", data, b"\x1e"):
            hasher.update(chunk)
        if config.force_bit_layer:
            histograms[doc.id] = _byte_counts(data)
        documents.append(doc)
    return Corpus(documents=tuple(documents)), histograms, hasher.hexdigest()


def _skip(reason: str) -> dict[str, Any]:
    return {"skipped": True, "reason": reason}


def _bit_section(byte_counts: Mapping[str, np.ndarray], notes: list[str]) -> dict[str, Any]:
    """Byte entropies from each file's byte histogram, given in corpus order.
    ``_ingest`` keeps the histograms only for a forced layer, so none means
    the layer was not forced."""
    if not byte_counts:
        return _skip("input is digital text; enable force_bit_layer to compute byte entropies")
    for doc_id, counts in byte_counts.items():
        if not counts.any():
            notes.append(f"PipelineWarning: empty file for {doc_id!r}; no byte entropy")
    histograms = {doc_id: counts for doc_id, counts in byte_counts.items() if counts.any()}
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


def _data_section(corpus: Corpus, notes: list[str]) -> dict[str, Any]:
    per_document: dict[str, float] = {}
    table, bounds = corpus.table, corpus.table.indptr.tolist()
    for doc, tokens, lo, hi in zip(corpus, table.row_totals.tolist(), bounds, bounds[1:]):
        if tokens == 0:
            notes.append(
                f"PipelineWarning: document {doc.id!r} has no terms; excluded from token entropy"
            )
            continue
        per_document[doc.id] = count_entropy(table.counts[lo:hi].tolist())
    if not table.terms:
        return _skip("no terms in corpus")
    return {
        "skipped": False,
        "per_document_bits": per_document,
        "corpus_bits": count_entropy(table.term_totals.tolist()),
        "vocabulary_size": len(table.terms),
        "hartley_vocabulary_bits": hartley_entropy(len(table.terms)),
    }


def _information_section(table: CountTable) -> dict[str, Any]:
    if not table.terms:
        return _skip("no terms in corpus")
    joint_bits = count_entropy(table.counts.tolist())
    document_bits = count_entropy(table.row_totals.tolist())
    term_bits = count_entropy(table.term_totals.tolist())
    return {
        "skipped": False,
        "joint_bits": joint_bits,
        "document_marginal_bits": document_bits,
        "term_marginal_bits": term_bits,
        "residual_term_bits_given_document": joint_bits - document_bits,
        "residual_document_bits_given_term": joint_bits - term_bits,
    }


def _knowledge_section(
    corpus: Corpus, top_k: int, notes: list[str]
) -> tuple[dict[str, Any], tuple[CorrelationResult, ...]]:
    if len(corpus) < 2:
        return _skip(f"ranking needs at least 2 documents, got {len(corpus)}"), ()
    ranking = tuple(rank_documents(corpus, top_k=top_k, notes=notes))
    return {"skipped": False, "ranking": ranking_rows(ranking, corpus)}, ranking


def _intelligence_section(
    corpus: Corpus, config: RunConfig, ranking: tuple[CorrelationResult, ...], notes: list[str]
) -> tuple[dict[str, Any], list[AggregationRound] | None, tuple[CorrelationResult, ...]]:
    if len(corpus) < 2:
        return _skip(f"aggregation needs at least 2 documents, got {len(corpus)}"), None, ()
    if len(corpus) < config.k:
        return _skip(f"fewer documents than clusters: {len(corpus)} < {config.k}"), None, ()
    trace, rows = _aggregation_rounds(
        corpus, config.k, config.rounds, config.per_cluster, config.seed, notes
    )
    # with no completed round the survivors are every row, so ``ranking``, the
    # knowledge layer's, is theirs
    if trace:
        ranking = tuple(rank_documents(corpus, top_k=config.top_k, notes=notes, rows=rows))
    rounds_summary = [
        {
            "round": rnd.index,
            "k": rnd.clustering.k,
            "seed": rnd.clustering.seed,
            "iterations": len(rnd.clustering.inertia_history),
            "inertia": rnd.clustering.inertia,
            "cluster_sizes": np.bincount(
                list(rnd.clustering.assignments.values()), minlength=rnd.clustering.k
            ).tolist(),
            "selected": list(rnd.selected_ids),
        }
        for rnd in trace
    ]
    pooled = corpus.table.pooled(rows)
    macrostate = {t: c for t, c in zip(corpus.table.terms, pooled.tolist()) if c > 0}
    gains: dict[str, float] = {}
    macrostate_bits = None
    if macrostate:
        state = EntropicState(macrostate=macrostate, reservoir_strength=config.reservoir_strength)
        macrostate_bits = state.bits
        survivors = set(rows)
        for row, (doc, total) in enumerate(zip(corpus, corpus.table.row_totals.tolist())):
            if row in survivors or total == 0:
                continue
            gains[doc.id] = entropic_gain(state, doc)
    section = {
        "skipped": False,
        "rounds": rounds_summary,
        "survivors": [corpus.documents[i].id for i in rows],
        "aggregated_ranking": ranking_rows(ranking, corpus),
        "macrostate_bits": macrostate_bits,
        "reservoir_strength": config.reservoir_strength,
        "entropic_gains": gains,
    }
    return section, trace, ranking


def _wisdom_section(
    rounds: list[AggregationRound] | None, ranking: tuple[CorrelationResult, ...]
) -> dict[str, Any]:
    if rounds is None:
        return _skip("intelligence layer skipped")
    if not rounds:
        return _skip("no aggregation rounds completed")
    if not ranking:
        return _skip("empty final ranking")
    individuals = [ranked[0].r for ranked in rounds[-1].cluster_rankings if ranked]
    truth = ranking[0].r
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
    corpus: Corpus, ranking: tuple[CorrelationResult, ...], top_k: int
) -> dict[str, Any]:
    if not ranking:
        return _skip("no ranked documents to draw evidence from")
    keyword_count = min(top_k, MAX_FRAME_SIZE)
    # descending count, ties by ascending id, which is ascending term; the
    # slice stops at the vocabulary's size
    by_frequency = np.argsort(-corpus.table.term_totals, kind="stable")[:keyword_count].tolist()
    keywords = [corpus.table.terms[j] for j in by_frequency]
    frame = Frame(elements=tuple(keywords))
    contributions = dict.fromkeys(by_frequency, 0.0)
    is_keyword = np.zeros(len(corpus.table.terms), dtype=bool)
    is_keyword[by_frequency] = True
    rows = [corpus.position(res.doc_id) for res in ranking]
    # every ranked row has r, so a finite, nonzero denom; each share is
    # dx * dy / denom, and the positive ones add up in row and term order
    for run in _scored_runs(corpus, rows, corpus.table.term_totals):
        pieces = run.dx * run.dy / np.repeat(run.denom, np.diff(run.bounds))
        kept = np.flatnonzero(is_keyword[run.ids] & (pieces > 0.0))
        for j, piece in zip(run.ids[kept].tolist(), pieces[kept].tolist()):
            contributions[j] += piece
    total = math.fsum(contributions.values())
    evidence = {
        kw: (contributions[j] / total if total > 0.0 else 0.0)
        for kw, j in zip(keywords, by_frequency)
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
        corpus, byte_counts, input_hash = _ingest(config)
    sections: dict[str, dict[str, Any]] = {}
    with _stage("bit"):
        sections["bit"] = _bit_section(byte_counts, notes)
    with _stage("data"):
        sections["data"] = _data_section(corpus, notes)
    with _stage("information"):
        sections["information"] = _information_section(corpus.table)
    with _stage("knowledge"):
        sections["knowledge"], knowledge_ranking = _knowledge_section(corpus, config.top_k, notes)
    with _stage("intelligence"):
        sections["intelligence"], trace, ranking = _intelligence_section(
            corpus, config, knowledge_ranking, notes
        )
    with _stage("wisdom"):
        sections["wisdom"] = _wisdom_section(trace, ranking)
    with _stage("belief"):
        sections["belief"] = _belief_section(corpus, knowledge_ranking, config.top_k)

    provenance = {
        "input_sha256": input_hash,
        "document_count": len(corpus),
        "vocabulary_size": len(corpus.table.terms),
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
    text = report.to_json()
    path = _out_dir(report) / REPORT_NAME
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


@_stage("emit")
def emit_tables(report: RunReport) -> list[Path]:
    """Write the report's knowledge and aggregated ranking rows as
    table1/table2: TSV through :func:`ranking_tsv`, then JSON at full
    precision. A skipped layer gives a header-only TSV and an empty array.
    Every text is rendered before any is written."""
    tables = {
        KNOWLEDGE_TABLE: report.sections["knowledge"].get("ranking", []),
        INTELLIGENCE_TABLE: report.sections["intelligence"].get("aggregated_ranking", []),
    }
    texts = {f"{name}.tsv": ranking_tsv(rows) for name, rows in tables.items()}
    texts.update({f"{name}.json": json_text(rows) for name, rows in tables.items()})
    out = _out_dir(report)
    written: list[Path] = []
    for file_name, text in texts.items():
        path = out / file_name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)
    return written


def _csv_field(value: str) -> str:
    """A non-empty ``value`` quoted as ``csv.writer`` quotes it in a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value])
    return buffer.getvalue()[:-1]


def write_fig4(handle: IO[str], corpus: Corpus, rows: Iterable[int], notes: list[str]) -> None:
    """Write fig4 CSV rows for the documents of the table ``rows``: each
    term's proportion in the document versus in the rest of ``corpus``, with
    the log10 deviation. An empty document, or one whose leave-one-out
    reference has no terms, such as the only document of a corpus, is
    skipped with a ``"PipelineWarning: ..."`` line in ``notes``; these two
    notes are fig4's only skips.

    Each document is read from its row of ``corpus.table``, its terms in
    increasing id order and so lexicographic, against its reference counts
    in ``corpus.leave_one_out_counts`` over the table's count sum less its
    row total, by ``shared_proportions``.

    The bytes are those of ``csv.writer``: floats as ``repr``, ids and terms
    quoted where needed. A document's rows are joined and written at once,
    and each distinct (doc_proportion, reference_proportion) pair, which
    fixes the deviation too, is formatted once per document."""
    table = corpus.table
    grand = int(table.counts.sum())
    handle.write("doc_id,term,doc_proportion,reference_proportion,deviation\n")
    for row in rows:
        doc, total = corpus.documents[row], int(table.row_totals[row])
        if total == 0:
            notes.append(f"PipelineWarning: document {doc.id!r} has no terms; skipped in fig4")
            continue
        if grand == total:
            notes.append(f"PipelineWarning: no reference terms for {doc.id!r}; skipped in fig4")
            continue
        lo, hi = table.indptr[row : row + 2].tolist()
        terms = [table.terms[i] for i in table.term_ids[lo:hi].tolist()]
        reference = corpus.leave_one_out_counts(doc.id)
        ref_counts = np.fromiter((reference.get(t, 0) for t in terms), np.int64, len(terms))
        shared, dps, rps = shared_proportions(table.counts[lo:hi], total, ref_counts, grand - total)
        doc_id = _csv_field(doc.id)
        tails: dict[tuple[float, float], str] = {}
        lines = []
        for term, dp, rp in zip([terms[i] for i in shared.tolist()], dps.tolist(), rps.tolist()):
            tail = tails.get((dp, rp))
            if tail is None:
                deviation = math.log10(dp) - math.log10(rp)
                tail = tails[dp, rp] = f"{dp!r},{rp!r},{deviation!r}\n"
            # tokenized terms are alphanumeric: only API-built ones need quoting
            lines.append(f"{doc_id},{term if term.isalnum() else _csv_field(term)},{tail}")
        handle.write("".join(lines))


@_stage("emit")
def emit_plot_data(report: RunReport, notes: list[str] | None = None) -> list[Path]:
    """Write fig3.csv (top-10 terms per document) and fig4.csv (per-term
    document-versus-rest proportions with log10 deviation) of every table
    row. Documents fig4 cannot plot are noted in ``notes`` when it is given.
    fig3's rows are each table row's ten largest counts by a stable ``argsort``,
    so ties go to the lower id, which is the lower term, as in ``top_k_terms``."""
    if notes is None:
        notes = []
    out = _out_dir(report)
    corpus = report.corpus
    table, bounds = corpus.table, corpus.table.indptr.tolist()
    fig3 = out / "fig3.csv"
    fig4 = out / "fig4.csv"
    with fig3.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["doc_id", "rank", "term", "count"])
        for doc, lo, hi in zip(corpus, bounds, bounds[1:]):
            counts = table.counts[lo:hi]
            top = np.argsort(-counts, kind="stable")[:10]
            ids = table.term_ids[lo:hi][top].tolist()
            for rank, (j, count) in enumerate(zip(ids, counts[top].tolist()), start=1):
                writer.writerow([doc.id, rank, table.terms[j], count])
    with fig4.open("w", encoding="utf-8", newline="") as handle:
        write_fig4(handle, corpus, range(len(corpus)), notes)
    return [fig3, fig4]
