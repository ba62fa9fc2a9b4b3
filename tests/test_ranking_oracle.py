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

The scorer correlates a whole run of rows per numpy call. Its two fast
paths have oracles of their own: each segment sum must be, bit for bit,
``np.add.reduce`` of the segment, and each segment's r, n and fault must be
those of the scalar one-sample Pearson, whose sums are ``np.add.reduce``
of each sample.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layerstack import (
    Corpus,
    CorrelationResult,
    RunConfig,
    aggregate_corpus,
    correlate_document,
    correlation_p_value,
    emit_plot_data,
    pearson_r,
    rank_documents,
    run_pipeline,
    synthetic_corpus,
    write_corpus,
)
from layerstack import corpus as corpus_module
from layerstack import intelligence, knowledge, pipeline
from layerstack.belief import MAX_FRAME_SIZE
from layerstack.corpus import CountTable, _entry_runs, _segment_sums
from layerstack.intelligence import Clustering
from layerstack.knowledge import MIN_SHARED_TERMS, _pearson_segments
from layerstack.pipeline import _belief_section, write_fig4

from helpers import make_corpus, make_doc, segment_parts

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


def oracle_correlate(doc, corpus: Corpus) -> CorrelationResult | str:
    """The oracle's result for ``doc``, or why it cannot be scored."""
    shared, xs, ys = oracle_profile(doc, corpus)
    if len(shared) < MIN_SHARED_TERMS:
        return f"insufficient overlap: {doc.id!r} shares {len(shared)} terms with the rest"
    try:
        r = pearson_r(xs, ys)
    except ValueError as exc:
        return str(exc)
    return CorrelationResult(doc.id, r, correlation_p_value(r, len(shared)), len(shared))


def oracle_ranking(corpus: Corpus, top_k: int) -> tuple[list[CorrelationResult], list[str]]:
    """The oracle's top ``top_k`` of every corpus document, and one note per
    excluded document, in corpus order."""
    results, notes = [], []
    for doc in corpus:
        res = oracle_correlate(doc, corpus)
        if isinstance(res, str):
            notes.append(f"RankingWarning: excluding {doc.id!r}: {res}")
        else:
            results.append(res)
    results.sort(key=lambda res: (-res.r, res.doc_id))
    return results[:top_k], notes


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
    """Results and exclusion notes, line for line, for the whole corpus and
    for a drawn set of its rows, whose oracle is a corpus of just them. The
    scorer's passes are drawn short, so rows are split across several."""
    corpus = make_corpus(table)
    top_k = data.draw(st.integers(1, len(corpus) + 1))
    pass_entries = mock.patch("layerstack.corpus._PASS_ENTRIES", data.draw(st.integers(1, 40)))
    # p-values are taken for the returned rows alone
    p_values = mock.patch(
        "layerstack.knowledge.correlation_p_value", side_effect=correlation_p_value
    )
    notes: list[str] = []
    with pass_entries, p_values as counted:
        ranked = rank_documents(corpus, top_k=top_k, notes=notes)
    assert counted.call_count == len(ranked)
    expected, expected_notes = oracle_ranking(corpus, top_k)
    assert _as_tuples(ranked) == _as_tuples(expected)
    assert notes == expected_notes

    rows = data.draw(
        st.lists(st.integers(0, len(corpus) - 1), min_size=2, unique=True).map(sorted)
    )
    ids = [corpus.documents[row].id for row in rows]
    alone = make_corpus({doc_id: table[doc_id] for doc_id in ids})
    notes = []
    with pass_entries, p_values as counted:
        ranked = rank_documents(corpus, top_k=top_k, notes=notes, rows=rows)
    assert counted.call_count == len(ranked)
    expected, expected_notes = oracle_ranking(alone, top_k)
    assert _as_tuples(ranked) == _as_tuples(expected)
    assert notes == expected_notes


@settings(max_examples=200)
@given(table=count_tables(), data=st.data())
def test_correlate_document_matches_oracle(table, data):
    corpus = make_corpus(table)
    doc = corpus.get(data.draw(st.sampled_from(sorted(table))))
    expected = oracle_correlate(doc, corpus)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            correlate_document(doc, corpus)
    else:
        assert _as_tuples([correlate_document(doc, corpus)]) == _as_tuples([expected])


@settings(max_examples=100)
@given(table=count_tables(), data=st.data())
def test_correlate_document_rejects_a_document_other_than_the_corpus_copy(table, data):
    corpus = make_corpus(table)
    doc_id = data.draw(st.sampled_from(sorted(table)))
    counts = data.draw(
        st.dictionaries(st.sampled_from(TERMS + OWNED_TERMS), st.integers(0, 6), min_size=1)
    )
    title = data.draw(st.sampled_from([doc_id, "another title"]))
    assume(counts != table[doc_id] or title != doc_id)
    with pytest.raises(ValueError, match=re.escape(repr(doc_id))):
        correlate_document(make_doc(doc_id, counts, title), corpus)


@settings(max_examples=200)
@given(table=count_tables())
def test_correlate_document_is_the_ranking_entry(table):
    corpus = make_corpus(table)
    notes: list[str] = []
    ranked = {res.doc_id: res for res in rank_documents(corpus, top_k=len(corpus), notes=notes)}
    for doc in corpus:
        if doc.id in ranked:
            assert _as_tuples([correlate_document(doc, corpus)]) == _as_tuples([ranked[doc.id]])
            continue
        with pytest.raises(ValueError) as raised:
            correlate_document(doc, corpus)
        assert f"RankingWarning: excluding {doc.id!r}: {raised.value}" in notes


@settings(max_examples=200)
@given(table=count_tables(), top_k=st.integers(1, 12), pass_entries=st.integers(1, 40))
def test_belief_evidence_matches_oracle(table, top_k, pass_entries):
    corpus = make_corpus(table)
    ranking, _ = _ranked_with_exclusions(corpus, len(corpus))
    with mock.patch("layerstack.corpus._PASS_ENTRIES", pass_entries):
        section = _belief_section(corpus, tuple(ranking), top_k)
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
        dx, dy, denom, _, fault = segment_parts(xs, ys)
        assert fault is None
        for term, a, b in zip(shared, dx.tolist(), dy.tolist()):
            piece = a * b / denom
            if term in contributions and piece > 0.0:
                contributions[term] += piece
    total = math.fsum(contributions.values())
    evidence = {kw: (contributions[kw] / total if total > 0.0 else 0.0) for kw in keywords}

    assert section["keywords"] == keywords
    assert section["evidence"] == evidence


class TestPoolsOnce:
    """The count table pools all its rows once, when it is built, into its
    column margin. A ranking of every row, ``correlate_document`` and the
    belief layer read that margin and pool nothing; a ranking of a
    selection of rows pools it once, whatever the number of documents. A
    run with no completed aggregation round scores every row once.
    Nothing but fig4 pools the string-keyed counts. Aggregation narrows its
    corpus by table rows, builds no subset and groups each round's clusters
    without ``Clustering.members``, and fig3 reads table rows, not
    ``top_k_terms``."""

    def _count_calls(self, monkeypatch, ranked_rows=None, pooled_rows=None) -> Counter[str]:
        """Count the calls of each shimmed method, a table's pool of its
        own rows while it is built apart from the pools of a built table,
        and the scorings of every table row; append the rows of each
        ranking of a selection to ``ranked_rows`` and of each pool of a
        built table to ``pooled_rows`` when given."""
        calls: Counter[str] = Counter()
        pooled = CountTable.pooled
        subset = Corpus.subset
        leave_one_out_counts = Corpus.leave_one_out_counts
        members = Clustering.members
        ranker = intelligence.rank_documents
        scored_runs = knowledge._scored_runs
        top_k_terms = corpus_module.top_k_terms

        def counted_pooled(self, rows):
            if not hasattr(self, "term_totals"):
                calls["pooled_at_build"] += 1
                return pooled(self, rows)
            calls["pooled"] += 1
            calls["pooled_whole_table"] += list(rows) == list(range(len(self.indptr) - 1))
            if pooled_rows is not None:
                pooled_rows.append(list(rows))
            return pooled(self, rows)

        def counted_subset(self, doc_ids):
            calls["subset"] += 1
            return subset(self, doc_ids)

        def counted_leave_one_out_counts(self, doc_id):
            calls["leave_one_out_counts"] += 1
            return leave_one_out_counts(self, doc_id)

        def counted_members(self, cluster):
            calls["members"] += 1
            return members(self, cluster)

        def counted_top_k_terms(doc, k):
            calls["top_k_terms"] += 1
            return top_k_terms(doc, k)

        def counted_rank_documents(corpus, top_k, notes=None, *, rows=None):
            calls["rankings"] += 1
            if ranked_rows is not None and rows is not None:
                ranked_rows.append(list(rows))
            return ranker(corpus, top_k, notes, rows=rows)

        def counted_scored_runs(corpus, rows, totals):
            calls["scored_whole_table"] += list(rows) == list(range(len(corpus)))
            return scored_runs(corpus, rows, totals)

        monkeypatch.setattr(CountTable, "pooled", counted_pooled)
        monkeypatch.setattr(Corpus, "subset", counted_subset)
        monkeypatch.setattr(Corpus, "leave_one_out_counts", counted_leave_one_out_counts)
        monkeypatch.setattr(Clustering, "members", counted_members)
        monkeypatch.setattr(intelligence, "rank_documents", counted_rank_documents)
        monkeypatch.setattr(pipeline, "rank_documents", counted_rank_documents)
        monkeypatch.setattr(knowledge, "_scored_runs", counted_scored_runs)
        monkeypatch.setattr(pipeline, "_scored_runs", counted_scored_runs)
        # the pipeline would call it under its own name if it imported it
        monkeypatch.setattr(corpus_module, "top_k_terms", counted_top_k_terms)
        monkeypatch.setattr(pipeline, "top_k_terms", counted_top_k_terms, raising=False)
        return calls

    def test_rank_documents(self, monkeypatch):
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        calls = self._count_calls(monkeypatch)
        rank_documents(corpus, top_k=5)
        assert calls["leave_one_out_counts"] == 0
        assert calls["pooled"] == 0
        rank_documents(corpus, top_k=5, rows=range(3, 20))
        assert calls["pooled"] == 1

    def test_correlate_document(self, monkeypatch):
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        calls = self._count_calls(monkeypatch)
        correlate_document(corpus.get("doc003"), corpus)
        assert calls["leave_one_out_counts"] == 0
        assert calls["pooled"] == 0

    def test_aggregate_corpus(self, monkeypatch):
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        ranked_rows: list[list[int]] = []
        calls = self._count_calls(monkeypatch, ranked_rows)
        result = aggregate_corpus(corpus, k=3, rounds=2, per_cluster=4, seed=1)
        assert len(result.rounds) == 2
        assert calls["rankings"] >= 4
        assert calls["leave_one_out_counts"] == 0
        assert calls["pooled"] == calls["rankings"]
        assert calls["subset"] == 0
        assert calls["members"] == 0
        # each round ranks its clusters of 2 or more, then the survivors
        clusters = [
            members
            for rnd in result.rounds
            for members in map(rnd.clustering.members, range(rnd.clustering.k))
            if len(members) >= 2
        ]
        ids = [tuple(corpus.documents[row].id for row in rows) for rows in ranked_rows]
        assert ids == clusters + [result.survivor_ids]

    def test_belief_section(self, monkeypatch):
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        ranking = tuple(rank_documents(corpus, top_k=len(corpus)))
        calls = self._count_calls(monkeypatch)
        assert not _belief_section(corpus, ranking, top_k=5)["skipped"]
        assert calls["leave_one_out_counts"] == 0
        assert calls["pooled"] == 0

    def test_pooled_takes_all_rows_as_a_selection(self, monkeypatch):
        """The column margin is the pool of all rows, taken through
        ``_entries`` as one selection when the table is built."""
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        selections: list[list[int]] = []
        entries = corpus_module._entries

        def counted_entries(indptr, rows):
            selections.append(list(rows))
            return entries(indptr, rows)

        monkeypatch.setattr(corpus_module, "_entries", counted_entries)
        table = CountTable.build(corpus.documents)
        assert selections == [list(range(len(corpus)))]
        every = table.pooled(range(len(corpus)))
        assert table.term_totals.tolist() == every.tolist()
        assert corpus.table.term_totals.tolist() == every.tolist()

    def test_run_pipeline_and_emit_plot_data(self, monkeypatch, tmp_path):
        """A run pools all rows once, when its table is built; after that it
        pools only aggregation's selections, for their rankings, and the
        survivors, for the macrostate. The plot data pools nothing of the
        table."""
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        source = write_corpus(corpus, tmp_path / "corpus")
        ranked_rows: list[list[int]] = []
        pooled_rows: list[list[int]] = []
        calls = self._count_calls(monkeypatch, ranked_rows, pooled_rows)
        report = run_pipeline(RunConfig(source=source, out_dir=tmp_path / "out"))
        assert calls["pooled_at_build"] == 1
        assert calls["pooled_whole_table"] == 0
        survivors = list(map(corpus.position, report.sections["intelligence"]["survivors"]))
        assert len(ranked_rows) >= 2
        assert pooled_rows == ranked_rows + [survivors]
        calls.clear()
        emit_plot_data(report)
        assert calls["top_k_terms"] == 0
        assert calls["pooled"] == 0
        assert calls["leave_one_out_counts"] == len(corpus)

    @pytest.mark.parametrize(
        "rounds, k", [(0, 3), (1, 26)], ids=["no-rounds", "round-0-stops-early"]
    )
    def test_a_run_with_no_completed_round_scores_every_row_once(
        self, monkeypatch, tmp_path, rounds, k
    ):
        """With no completed round the survivors are every row, and the
        knowledge ranking is theirs: every row is scored once, for it, and
        the whole table is pooled once after the build, for the macrostate.
        With k = 26 every one of the 26 documents is a cluster of its own, so
        round 0 ranks nothing and stops."""
        corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
        source = write_corpus(corpus, tmp_path / "corpus")
        calls = self._count_calls(monkeypatch)
        config = RunConfig(source=source, out_dir=tmp_path / "out", rounds=rounds, k=k)
        report = run_pipeline(config)
        intel = report.sections["intelligence"]
        assert intel["rounds"] == []
        stopped = "AggregationWarning: aggregation stopped at round 0: only 0 document(s) "
        assert any(note.startswith(stopped) for note in report.warnings) == (rounds == 1)
        assert intel["survivors"] == [doc.id for doc in corpus]
        assert intel["aggregated_ranking"] == report.sections["knowledge"]["ranking"]
        assert calls["scored_whole_table"] == 1
        assert calls["rankings"] == 1
        assert calls["pooled_whole_table"] == 1
        assert calls["pooled"] == 1


def test_scoring_takes_one_pearson_call_per_run(monkeypatch):
    """No program path correlates row by row: a ranking, the belief
    evidence and each ranking of an aggregation call ``_pearson_segments``
    once per ``_entry_runs`` run of their rows."""
    corpus, _ = synthetic_corpus((12, 8, 6), seed=4)
    calls: list[int] = []
    segments = knowledge._pearson_segments

    def counted(x, y, bounds):
        calls.append(len(bounds) - 1)
        return segments(x, y, bounds)

    def runs(rows):
        return [len(block) for block, _, _ in _entry_runs(corpus.table.indptr, rows)]

    monkeypatch.setattr(knowledge, "_pearson_segments", counted)
    # about 2,300 entries: one run at the program's size, several at this one
    monkeypatch.setattr(corpus_module, "_PASS_ENTRIES", 1024)
    ranking = tuple(rank_documents(corpus, top_k=len(corpus)))
    assert 1 < len(calls) < len(corpus)
    assert calls == runs(range(len(corpus)))
    calls.clear()
    _belief_section(corpus, ranking, top_k=5)
    assert calls == runs([corpus.position(res.doc_id) for res in ranking])
    calls.clear()
    result = aggregate_corpus(corpus, k=3, rounds=1, per_cluster=4, seed=1)
    members = [result.rounds[0].clustering.members(c) for c in range(3)]
    expected = [runs(sorted(map(corpus.position, ids))) for ids in members if len(ids) > 1]
    survivors = [corpus.position(doc_id) for doc_id in result.survivor_ids]
    assert calls == [n for counts in expected for n in counts] + runs(survivors)


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
            warned.append(f"PipelineWarning: document {doc.id!r} has no terms; skipped in fig4")
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
    """Compare ``write_fig4`` over the rows of the ``chosen`` ids (every row
    by default) with the oracle; return its text and notes."""
    corpus = make_corpus(table)
    rows = range(len(corpus)) if chosen is None else [corpus.position(i) for i in chosen]
    handle = io.StringIO()
    notes: list[str] = []
    write_fig4(handle, corpus, rows, notes)
    assert (handle.getvalue(), notes) == oracle_fig4(corpus, [corpus.documents[i] for i in rows])
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
    assert messages == [
        "PipelineWarning: no reference terms for 'only'; skipped in fig4",
        "PipelineWarning: document 'empty' has no terms; skipped in fig4",
    ]


# the lengths where numpy's pairwise sum changes its grouping: below and at
# its 8-way unroll, at its 128-element block, and past its 8,192-element buffer
SEGMENT_LENGTHS = (0, 1, 8, 9, 128, 129, 8193)


@st.composite
def segmented(draw) -> tuple[np.ndarray, np.ndarray]:
    """(values, bounds): 1-5 segments laid end to end, of the lengths above
    or of 0-20 elements, scaled by 1, 1e-150 or 1e150, with some or all of
    the elements replaced by zeros of either sign."""
    lengths = draw(
        st.lists(st.sampled_from(SEGMENT_LENGTHS) | st.integers(0, 20), min_size=1, max_size=5)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(sum(lengths)) * draw(st.sampled_from([1.0, 1e-150, 1e150]))
    zeros = rng.random(len(values)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    values[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    return values, np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)


@settings(max_examples=300, deadline=None)
@given(inputs=segmented(), copies=st.integers(1, 3))
@example(inputs=(np.array([0.1, 0.2, 0.3]), np.array([0, 3])), copies=1)
@example(inputs=(np.array([-0.0, -0.0, 1.0]), np.array([0, 2, 2, 3])), copies=1)
def test_segment_sums_are_numpys_reduction_of_each_segment(inputs, copies):
    values, bounds = inputs
    stack = np.stack([np.roll(values, c) for c in range(copies)])
    expected = np.array(
        [[np.add.reduce(row[lo:hi]) for lo, hi in zip(bounds, bounds[1:])] for row in stack]
    ).reshape(copies, len(bounds) - 1)
    sums = _segment_sums(stack, bounds)
    assert sums.shape == expected.shape
    assert (sums == expected).all()
    assert sums.tobytes() == expected.tobytes()  # zeros keep their sign
    assert _segment_sums(values, bounds).tobytes() == expected[0].tobytes()


def pearson_parts_oracle(xs, ys) -> tuple[np.ndarray, np.ndarray, float, float] | str:
    """One sample's dx, dy, denom and clamped r, or the reason it has no r,
    by scalar Python on ``np.add.reduce`` of the whole sample."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.size < MIN_SHARED_TERMS:
        return "insufficient overlap"
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - float(np.add.reduce(x)) / x.size
        dy = y - float(np.add.reduce(y)) / y.size
        denom = math.sqrt(float(np.add.reduce(dx * dx)) * float(np.add.reduce(dy * dy)))
    if not math.isfinite(denom):
        return "non-finite input or denominator"
    if (x == x[0]).all() or (y == y[0]).all() or denom == 0.0:
        return "zero variance input"
    r = float(np.add.reduce(dx * dy)) / denom
    return dx, dy, denom, max(-1.0, min(1.0, r))


@st.composite
def pearson_runs(draw) -> list[tuple[np.ndarray, np.ndarray]]:
    """1-6 samples, each of 0-12, 40 or 129 points at a scale whose squares
    may underflow or overflow; a sample may be flat in x or y and may hold a
    NaN or an infinity, so each fault occurs, alone or with another."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(0, 12) | st.sampled_from([40, 129]))
        scale = draw(st.sampled_from([1.0, 1e-200, 1e150, 1e200]))
        x, y = rng.standard_normal(n) * scale, rng.standard_normal(n)
        if n and draw(st.integers(0, 3)) == 0:
            x[:] = x[0]
        if n and draw(st.integers(0, 3)) == 0:
            y[:] = y[0]
        if n and draw(st.integers(0, 4)) == 0:
            x[int(rng.integers(n))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        samples.append((x, y))
    return samples


def assert_run_matches_oracle(samples) -> list[str | None]:
    """Score ``samples`` as one run; check each against the oracle, and
    scored alone as one segment and by ``pearson_r``; return each one's
    fault, or None."""
    bounds = np.concatenate(([0], np.cumsum([len(x) for x, _ in samples]))).astype(np.intp)
    xs = np.concatenate([x for x, _ in samples])
    ys = np.concatenate([y for _, y in samples])
    dx, dy, denom, r, fault = _pearson_segments(xs, ys, bounds)
    assert len(denom) == len(r) == len(fault) == len(samples)
    faults = []
    for i, (x, y) in enumerate(samples):
        lo, hi = bounds[i], bounds[i + 1]
        expected = pearson_parts_oracle(x, y)
        alone = segment_parts(x, y)
        if isinstance(expected, str):
            assert fault[i] and knowledge._FAULTS[fault[i]] == expected, i
            assert alone[4] == expected, i
            short = expected == "insufficient overlap"
            with pytest.raises(ValueError, match="^need at least" if short else f"^{expected}$"):
                pearson_r(x, y)
            faults.append(expected)
            continue
        assert fault[i] == 0, i
        want_dx, want_dy, want_denom, want_r = expected
        assert dx[lo:hi].tobytes() == want_dx.tobytes()
        assert dy[lo:hi].tobytes() == want_dy.tobytes()
        assert (denom[i], r[i]) == (want_denom, want_r)
        assert (alone[0].tobytes(), alone[1].tobytes(), alone[2:]) == (
            want_dx.tobytes(),
            want_dy.tobytes(),
            (want_denom, want_r, None),
        )
        assert pearson_r(x, y) == want_r
        faults.append(None)
    return faults


@settings(max_examples=300, deadline=None)
@given(samples=pearson_runs())
def test_a_run_of_samples_scores_as_each_sample_alone(samples):
    assert_run_matches_oracle(samples)


#: proportions to take logs of: 1.0, the least normal float, subnormals
#: down to the least, a few common fractions, and any float in (0, 1]
PROPORTIONS = st.one_of(
    st.sampled_from([1.0, sys.float_info.min, 5e-324, 2.5e-310, 0.5, 1 / 3, 0.1]),
    st.floats(min_value=5e-324, max_value=1.0),
)


@given(values=st.lists(PROPORTIONS, max_size=60), copies=st.integers(1, 4), data=st.data())
@example(values=[1.0, sys.float_info.min, 5e-324], copies=2, data=None)
def test_the_scorers_logs_are_math_log10_taken_once_per_distinct_float(values, copies, data):
    values = values * copies
    if data is not None:
        values = data.draw(st.permutations(values))
    expected = [math.log10(v) for v in values]
    with mock.patch("math.log10", side_effect=math.log10) as log10:
        got = knowledge._log10s(np.array(values, dtype=float)).tolist()
    assert got == expected
    assert log10.call_count == len(set(values))


def test_a_run_meets_each_fault_in_order():
    flat = np.full(5, math.log10(1 / 6))
    samples = [
        (np.array([math.nan, 1.0]), np.array([1.0, 2.0])),  # short before non-finite
        (np.array([math.inf, 1.0, 1.0]), np.array([2.0, 2.0, 2.0])),  # non-finite before flat
        (np.array([0.1, 0.2, 0.4, 0.8]), np.array([1.0, 3.0, 2.0, 5.0])),
        (flat, np.arange(5.0)),  # flat x, whose mean is off in the last bit
        (np.array([0.0, 1e-200, 0.0]), np.array([1.0, 2.0, 3.0])),  # squares underflow
        (np.array([]), np.array([])),
        (np.array([1e308, -1e308, 0.0]), np.array([1.0, 2.0, 3.0])),  # squares overflow
    ]
    assert assert_run_matches_oracle(samples) == [
        "insufficient overlap",
        "non-finite input or denominator",
        None,
        "zero variance input",
        "zero variance input",
        "insufficient overlap",
        "non-finite input or denominator",
    ]
