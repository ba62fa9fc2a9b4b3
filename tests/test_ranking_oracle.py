"""The pooled-total rankings against a brute-force leave-one-out oracle.

``rank_documents``, ``correlate_document`` and the belief layer's evidence
take each document's reference as the pooled corpus total minus the
document's own counts. The oracle here builds every reference the slow way,
as a plain ``Counter`` of all the other documents, and scores it with
``pearson_r`` and ``correlation_p_value``. The integers are the same either
way, so every r, p-value, n and evidence value must be equal, not close.

fig4 is checked the same way: its text must equal, character for character,
the rows a ``csv.writer`` makes from a plain-``Counter`` leave-one-out
reference.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import (
    Corpus,
    CorrelationResult,
    aggregate_corpus,
    correlate_document,
    correlation_p_value,
    pearson_r,
    rank_documents,
    synthetic_corpus,
)
from layerstack import intelligence
from layerstack.belief import MAX_FRAME_SIZE
from layerstack.knowledge import MIN_SHARED_TERMS, pearson_parts
from layerstack.pipeline import _belief_section, write_fig4

from helpers import make_corpus, make_doc

TERMS = [f"t{i}" for i in range(8)]
# terms that only the "owner" document of a table may hold
OWNED_TERMS = ["own0", "own1", "own2"]


def _rows(draw, n: int) -> list[dict[str, int]]:
    """``n`` count rows: zero-count entries, single-term rows and exact
    duplicates of earlier rows all occur."""
    rows: list[dict[str, int]] = []
    for _ in range(n):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(dict(draw(st.sampled_from(rows))))
            continue
        terms = draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=len(TERMS), unique=True))
        rows.append({t: draw(st.integers(0, 6)) for t in terms})
    return rows


@st.composite
def count_tables(draw) -> dict[str, dict[str, int]]:
    """{doc_id: {term: count}} for 2-8 documents; one document holds every
    occurrence of up to three terms."""
    rows = _rows(draw, draw(st.integers(2, 8)))
    owner = draw(st.integers(0, len(rows) - 1))
    rows[owner].update(
        draw(st.dictionaries(st.sampled_from(OWNED_TERMS), st.integers(1, 5), max_size=3))
    )
    return {f"d{i}": row for i, row in enumerate(rows)}


def oracle_profile(doc, corpus: Corpus) -> tuple[list[str], list[float], list[float]]:
    """Shared terms and log10 proportions against the plain pooled counts of
    every corpus document whose id is not ``doc.id``."""
    reference: Counter[str] = Counter()
    for other in corpus:
        if other.id != doc.id:
            reference.update(other.token_counts)
    shared = sorted(t for t, c in doc.token_counts.items() if c > 0 and reference[t] > 0)
    ref_total = sum(reference.values())
    xs = [math.log10(doc.token_counts[t] / doc.total_tokens) for t in shared]
    ys = [math.log10(reference[t] / ref_total) for t in shared]
    return shared, xs, ys


def oracle_correlate(doc, corpus: Corpus) -> CorrelationResult | None:
    """The oracle's result for ``doc``, or None where it cannot be scored."""
    shared, xs, ys = oracle_profile(doc, corpus)
    if len(shared) < MIN_SHARED_TERMS:
        return None
    try:
        r = pearson_r(xs, ys)
    except ValueError:
        return None
    return CorrelationResult(doc.id, r, correlation_p_value(r, len(shared)), len(shared))


def _as_tuples(results):
    return [(res.doc_id, res.r, res.p_value, res.n) for res in results]


def _ranked_with_exclusions(corpus: Corpus, top_k: int):
    notes: list[str] = []
    ranked = rank_documents(corpus, top_k=top_k, notes=notes)
    excluded = {
        doc.id
        for doc in corpus
        if any(m.startswith(f"RankingWarning: excluding {doc.id!r}:") for m in notes)
    }
    assert len(notes) == len(excluded)
    return ranked, excluded


@settings(max_examples=300)
@given(table=count_tables(), data=st.data())
def test_rank_documents_matches_oracle(table, data):
    corpus = make_corpus(table)
    top_k = data.draw(st.integers(1, len(corpus) + 1))
    ranked, excluded = _ranked_with_exclusions(corpus, top_k)

    scored = {doc.id: oracle_correlate(doc, corpus) for doc in corpus}
    expected = sorted(
        (res for res in scored.values() if res is not None), key=lambda res: (-res.r, res.doc_id)
    )
    assert _as_tuples(ranked) == _as_tuples(expected[:top_k])
    assert excluded == {doc_id for doc_id, res in scored.items() if res is None}


@settings(max_examples=200)
@given(table=count_tables(), data=st.data())
def test_correlate_document_holds_out_the_corpus_copy(table, data):
    corpus = make_corpus(table)
    doc_id = data.draw(st.sampled_from(sorted(table)))
    # a document under a corpus id whose counts may differ from the corpus's copy
    counts = data.draw(
        st.one_of(
            st.just(table[doc_id]),
            st.dictionaries(st.sampled_from(TERMS + OWNED_TERMS), st.integers(0, 6), min_size=1),
        )
    )
    doc = make_doc(doc_id, counts)

    # the oracle pools every document except the corpus's copy of doc_id
    expected = oracle_correlate(doc, corpus)
    try:
        got = correlate_document(doc, corpus)
    except ValueError:
        got = None
    assert (got is None) == (expected is None)
    if got is not None:
        assert _as_tuples([got]) == _as_tuples([expected])


@settings(max_examples=200)
@given(table=count_tables(), top_k=st.integers(1, 12))
def test_belief_evidence_matches_oracle(table, top_k):
    corpus = make_corpus(table)
    ranking, _ = _ranked_with_exclusions(corpus, len(corpus))
    section = _belief_section(corpus, corpus.total_counts(), tuple(ranking), top_k)
    if not ranking or not corpus.vocabulary:
        assert section["skipped"]
        return

    totals: Counter[str] = Counter()
    for doc in corpus:
        totals.update(doc.token_counts)
    keyword_count = min(top_k, MAX_FRAME_SIZE, len(corpus.vocabulary))
    by_frequency = sorted(((t, c) for t, c in totals.items() if c > 0), key=lambda kv: (-kv[1], kv[0]))
    keywords = [term for term, _ in by_frequency[:keyword_count]]
    contributions = {kw: 0.0 for kw in keywords}
    for res in ranking:
        shared, xs, ys = oracle_profile(corpus.get(res.doc_id), corpus)
        dx, dy, denom = pearson_parts(xs, ys)
        for term, a, b in zip(shared, dx.tolist(), dy.tolist()):
            piece = a * b / denom
            if term in contributions and piece > 0.0:
                contributions[term] += piece
    total = math.fsum(contributions.values())
    evidence = {kw: (contributions[kw] / total if total > 0.0 else 0.0) for kw in keywords}

    assert section["keywords"] == keywords
    assert section["evidence"] == evidence


class TestPoolsOnce:
    """A ranking pools the corpus once, whatever the number of documents."""

    def _count_calls(self, monkeypatch) -> Counter[str]:
        calls: Counter[str] = Counter()
        total_counts = Corpus.total_counts
        leave_one_out_counts = Corpus.leave_one_out_counts
        ranker = intelligence.rank_documents

        def counted_total_counts(self):
            calls["total_counts"] += 1
            return total_counts(self)

        def counted_leave_one_out_counts(self, doc_id):
            calls["leave_one_out_counts"] += 1
            return leave_one_out_counts(self, doc_id)

        def counted_rank_documents(corpus, top_k, notes=None):
            calls["rankings"] += 1
            return ranker(corpus, top_k, notes)

        monkeypatch.setattr(Corpus, "total_counts", counted_total_counts)
        monkeypatch.setattr(Corpus, "leave_one_out_counts", counted_leave_one_out_counts)
        monkeypatch.setattr(intelligence, "rank_documents", counted_rank_documents)
        return calls

    def test_rank_documents(self, monkeypatch):
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        calls = self._count_calls(monkeypatch)
        rank_documents(corpus, top_k=5)
        assert calls["leave_one_out_counts"] == 0
        assert calls["total_counts"] == 1

    def test_aggregate_corpus(self, monkeypatch):
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        calls = self._count_calls(monkeypatch)
        aggregate_corpus(corpus, k=3, rounds=2, per_cluster=4, seed=1)
        assert calls["rankings"] >= 4
        assert calls["leave_one_out_counts"] == 0
        assert calls["total_counts"] == calls["rankings"]


# terms that csv.writer must quote, and one that it must not
QUOTED_TERMS = ["a,b", 'x"y', "a b", "line\nbreak", "ñandú"]
FIG4_HEADER = ["doc_id", "term", "doc_proportion", "reference_proportion", "deviation"]


def oracle_fig4(corpus: Corpus, docs) -> tuple[str, list[str]]:
    """fig4 text and notes, with each reference pooled from scratch and
    every row written by ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIG4_HEADER)
    warned = []
    for doc in docs:
        if doc.total_tokens == 0:
            continue
        reference: Counter[str] = Counter()
        for other in corpus:
            if other.id != doc.id:
                reference.update(other.token_counts)
        ref_total = sum(reference.values())
        if ref_total == 0:
            warned.append(f"PipelineWarning: no reference terms for {doc.id!r}; skipped in fig4")
            continue
        for term in sorted(doc.token_counts):
            count, ref_count = doc.token_counts[term], reference[term]
            if count > 0 and ref_count > 0:
                dp, rp = count / doc.total_tokens, ref_count / ref_total
                writer.writerow([doc.id, term, dp, rp, math.log10(dp) - math.log10(rp)])
    return out.getvalue(), warned


@st.composite
def fig4_tables(draw) -> dict[str, dict[str, int]]:
    """{doc_id: {term: count}} for 2-6 documents with ids that need CSV
    quoting. Counts of 0-3 repeat often within a document; some documents
    are empty, and one holds every occurrence of up to three terms."""
    ids = draw(
        st.lists(st.text('ab ,"ñÜ', min_size=1, max_size=4), min_size=2, max_size=6, unique=True)
    )
    terms = st.sampled_from(TERMS[:4] + QUOTED_TERMS)
    rows = [
        {} if draw(st.integers(0, 3)) == 0 else draw(st.dictionaries(terms, st.integers(0, 3)))
        for _ in ids
    ]
    owner = draw(st.integers(0, len(rows) - 1))
    rows[owner].update(
        draw(st.dictionaries(st.sampled_from(OWNED_TERMS), st.integers(1, 5), max_size=3))
    )
    return dict(zip(ids, rows))


def assert_fig4_matches_oracle(table, chosen=None) -> tuple[str, list[str]]:
    """Compare ``write_fig4`` with the oracle; return its text and notes."""
    corpus = make_corpus(table)
    docs = corpus.documents if chosen is None else [corpus.get(i) for i in chosen]
    handle = io.StringIO()
    notes: list[str] = []
    write_fig4(handle, corpus, docs, notes)
    assert (handle.getvalue(), notes) == oracle_fig4(corpus, docs)
    return handle.getvalue(), notes


@settings(max_examples=300)
@given(table=fig4_tables(), data=st.data())
def test_write_fig4_matches_oracle(table, data):
    chosen = data.draw(st.none() | st.lists(st.sampled_from(sorted(table)), min_size=1))
    assert_fig4_matches_oracle(table, chosen)


def test_write_fig4_quotes_ids_and_terms_and_drops_owned_terms():
    text, _ = assert_fig4_matches_oracle(
        {
            'say "hi", Ünï': {"a,b": 2, 'x"y': 2, "a b": 2, "line\nbreak": 2, "own0": 3},
            "plain": {"a,b": 1, 'x"y': 1, "a b": 1, "line\nbreak": 1, "t0": 4},
            "empty": {},
        }
    )
    rows = list(csv.reader(io.StringIO(text)))
    assert [row[:2] for row in rows[1:]] == [
        [doc_id, term]
        for doc_id in ('say "hi", Ünï', "plain")
        for term in ["a b", "a,b", "line\nbreak", 'x"y']
    ]  # own0 and t0 each have a single holder, so no reference count


def test_write_fig4_warns_for_a_document_with_no_reference():
    text, messages = assert_fig4_matches_oracle({"only": {"a,b": 2, "t0": 1}, "empty": {}})
    assert text == ",".join(FIG4_HEADER) + "\n"
    assert messages == ["PipelineWarning: no reference terms for 'only'; skipped in fig4"]
