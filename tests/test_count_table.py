"""The corpus count table against the documents it is built from.

``Corpus.table`` holds every document's positive counts as CSR rows over the
sorted vocabulary. The checks here rebuild each row from the document's own
``token_counts``, compare ``subset`` with a corpus built afresh from the
kept documents, compare the pooled integers with a ``Counter`` sum, take the
k-means rows and the ranking of a subset's rows in place and compare them
with the subset's own, compare the row totals with each document's
``total_tokens`` and the term totals with a ``Counter`` sum of every
document, and check the row runs the rankings and k-means passes
take against a walk over the rows. fig3, which takes each document's top
terms from its table row, is checked against ``top_k_terms`` of the
document's positive counts.
Corpora include zero counts, non-ASCII terms, empty documents and ids that
are not in sorted order.
"""

from __future__ import annotations

import csv
import io
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerstack import Corpus, RunReport, emit_plot_data, rank_documents, top_k_terms
from layerstack.corpus import CountTable, _entries, _entry_runs
from layerstack.intelligence import unit_term_rows
from layerstack.pipeline import LAYERS

from helpers import make_corpus, make_doc, pooled_counts

# ASCII, accented and CJK terms, one with a space, and prefixes of others
TERMS = ["a", "b", "ab", "a b", "z", "ß", "ñandú", "ünï", "日本", "éa"]


@st.composite
def corpora(draw) -> Corpus:
    """Up to seven API-built documents in drawn (often unsorted) id order;
    some are empty, and counts of 0 occur."""
    ids = draw(st.lists(st.text("dxñ0", min_size=1, max_size=3), max_size=7, unique=True))
    counts = st.dictionaries(st.sampled_from(TERMS), st.integers(0, 5))
    rows = [{} if draw(st.integers(0, 4)) == 0 else draw(counts) for _ in ids]
    return make_corpus(dict(zip(ids, rows)))


def assert_same_table(a: CountTable, b: CountTable) -> None:
    assert a.terms == b.terms
    for name in ("indptr", "term_ids", "counts"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right), name


def assert_rows_match_documents(corpus: Corpus) -> None:
    table = corpus.table
    positive = [{t: c for t, c in doc.token_counts.items() if c > 0} for doc in corpus]
    assert table.terms == tuple(sorted(set().union(*positive)))
    assert corpus.vocabulary == frozenset(table.terms)
    assert table.indptr.tolist() == np.cumsum([0] + [len(row) for row in positive]).tolist()
    for i, row in enumerate(positive):
        lo, hi = table.indptr[i], table.indptr[i + 1]
        ids, counts = table.term_ids[lo:hi], table.counts[lo:hi]
        assert np.all(np.diff(ids) > 0)
        assert [(table.terms[j], c) for j, c in zip(ids.tolist(), counts.tolist())] == sorted(
            row.items()
        )


def assert_same_corpus(sub: Corpus, fresh: Corpus) -> None:
    assert sub == fresh
    assert [doc.id for doc in sub] == [doc.id for doc in fresh]
    assert sub.vocabulary == fresh.vocabulary
    assert_same_table(sub.table, fresh.table)
    for i, doc in enumerate(sub):
        assert sub.get(doc.id) is doc and sub.position(doc.id) == i and doc.id in sub


def assert_unit_rows_match_subset(corpus: Corpus, sub: Corpus) -> None:
    """The k-means rows of the subset's rows of ``corpus`` are the subset's
    own: the same ids and the same bytes of row pointers and floats, over
    the corpus's term ids, which name the subset's terms column for column."""
    rows = [corpus.position(doc.id) for doc in sub]
    (ids, in_place), (sub_ids, own) = unit_term_rows(corpus, rows), unit_term_rows(sub)
    assert ids == sub_ids
    assert in_place.n_columns == len(corpus.table.terms)
    for name in ("indptr", "data"):
        left, right = getattr(in_place, name), getattr(own, name)
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes(), name
    assert [corpus.table.terms[j] for j in in_place.indices.tolist()] == [
        sub.table.terms[j] for j in own.indices.tolist()
    ]


def assert_row_rankings_match_subset(corpus: Corpus, sub: Corpus) -> None:
    """Pooling and ranking the subset's rows of ``corpus`` in place give the
    subset's own totals and ranking, notes included."""
    rows = [corpus.position(doc.id) for doc in sub]
    pooled = corpus.table.pooled(rows)
    held = {corpus.table.terms[j]: c for j, c in enumerate(pooled.tolist()) if c}
    assert held == pooled_counts(sub)
    if len(sub) >= 2:
        in_place: list[str] = []
        fresh: list[str] = []
        ranked = rank_documents(corpus, top_k=len(sub), notes=in_place, rows=rows)
        assert ranked == rank_documents(sub, top_k=len(sub), notes=fresh)
        assert in_place == fresh


@settings(max_examples=300)
@given(corpus=corpora(), data=st.data())
def test_table_matches_documents_and_subsets_match_fresh_corpora(corpus, data):
    assert_rows_match_documents(corpus)

    pooled = corpus.table.term_totals
    assert pooled.dtype == np.int64
    assert dict(zip(corpus.table.terms, pooled.tolist())) == pooled_counts(corpus)

    ids = [doc.id for doc in corpus]
    current = corpus
    for _ in range(2):  # a subset of a subset, also read as rows of the first corpus
        chosen = data.draw(st.lists(st.sampled_from(ids), max_size=8)) if ids else []
        kept = tuple(doc for doc in current if doc.id in set(chosen))
        sub = current.subset(chosen)
        fresh = Corpus(documents=kept)
        assert_same_corpus(sub, fresh)
        assert_unit_rows_match_subset(current, sub)
        assert_unit_rows_match_subset(corpus, sub)
        assert_rows_match_documents(sub)
        assert_row_rankings_match_subset(current, sub)
        current, ids = sub, [doc.id for doc in kept]

    if len(corpus) >= 2:  # no numpy warning on empty rows or overlaps
        rank_documents(corpus, top_k=len(corpus), notes=[])


@st.composite
def empty_corpora(draw) -> Corpus:
    """Up to four documents, none with a positive count."""
    ids = draw(st.lists(st.text("dx", min_size=1, max_size=3), max_size=4, unique=True))
    zeros = st.dictionaries(st.sampled_from(TERMS), st.just(0))
    return make_corpus({doc_id: draw(zeros) for doc_id in ids})


@settings(max_examples=300)
@given(corpus=st.one_of(corpora(), empty_corpora()))
@example(corpus=make_corpus({"d0": {"a": 2**52 - 1, "b": 0}, "d1": {}, "d2": {"a": 2**52}}))
@example(corpus=Corpus(documents=()))
def test_row_totals_are_the_documents_totals(corpus):
    totals = corpus.table.row_totals
    assert totals.dtype == np.int64
    assert totals.tolist() == [doc.total_tokens for doc in corpus]


@settings(max_examples=300)
@given(corpus=st.one_of(corpora(), empty_corpora()))
@example(corpus=make_corpus({"d0": {"a": 2**52 - 1, "b": 0}, "d1": {}, "d2": {"a": 2**52}}))
@example(corpus=make_corpus({"d0": {}}))
@example(corpus=Corpus(documents=()))
def test_term_totals_are_the_documents_pooled(corpus):
    table = corpus.table
    totals = table.term_totals
    assert totals.dtype == np.int64
    pooled = pooled_counts(corpus)
    assert totals.tolist() == [pooled[term] for term in table.terms]
    assert totals.tolist() == table.pooled(range(len(corpus))).tolist()


def test_empty_corpus_has_an_empty_table():
    table = Corpus(documents=()).table
    assert table.terms == () and table.indptr.tolist() == [0]
    assert table.term_totals.tolist() == []


def test_subset_of_no_ids_is_empty():
    sub = make_corpus({"d2": {"a": 1}, "d1": {"b": 2}}).subset([])
    assert len(sub) == 0 and sub.vocabulary == frozenset()
    assert_same_table(sub.table, Corpus(documents=()).table)


def test_table_arrays_are_read_only():
    table = make_corpus({"d": {"a": 1, "b": 2}}).table
    arrays = (table.indptr, table.term_ids, table.counts, table.row_totals, table.term_totals)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7


def test_rows_follow_sorted_terms_not_insertion_order():
    corpus = Corpus(
        documents=(make_doc("x", {"ñ": 1, "b": 2, "a": 0}), make_doc("c", {"é": 3, "b": 1}))
    )
    assert corpus.table.terms == ("b", "é", "ñ")
    assert corpus.table.term_ids.tolist() == [0, 2, 0, 1]
    assert corpus.table.counts.tolist() == [2, 1, 1, 3]


def test_counts_summing_to_2_53_are_rejected():
    make_corpus({"d0": {"a": 2**52}, "d1": {"a": 2**52 - 1}})  # pools exactly
    with pytest.raises(ValueError, match=r"term counts sum to 9007199254740992, not below 2\*\*53"):
        make_corpus({"d0": {"a": 2**52}, "d1": {"a": 2**52}})
    with pytest.raises(ValueError, match="not below 2"):
        make_corpus({"d0": {"a": 2**70}})


@st.composite
def row_selections(draw, min_size: int = 0) -> tuple[np.ndarray, list[int]]:
    """Row pointers of up to nine rows, some empty and some longer than a
    short pass, and a consecutive, gapped or permuted list of their rows."""
    lengths = draw(st.lists(st.one_of(st.just(0), st.integers(0, 12)), min_size=1, max_size=9))
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)
    n = len(lengths)
    lo = draw(st.integers(0, n - 1))
    consecutive = st.integers(max(lo + 1, lo + min_size), n).map(lambda hi: list(range(lo, hi)))
    gapped = st.lists(st.integers(0, n - 1), min_size=min_size, unique=True).map(sorted)
    permuted = st.permutations(range(n)).flatmap(
        lambda order: st.integers(max(min_size, 1), n).map(lambda m: list(order[:m]))
    )
    return indptr, draw(st.one_of(consecutive, gapped, permuted))


def walk_entries(indptr: np.ndarray, rows: list[int]) -> list[int]:
    """The CSR positions of ``rows``' entries, one row after another."""
    return [pos for row in rows for pos in range(indptr[row], indptr[row + 1])]


def assert_entries_of(indptr: np.ndarray, rows: list[int], local, take) -> None:
    lengths = [int(indptr[row + 1] - indptr[row]) for row in rows]
    assert local.tolist() == np.cumsum([0] + lengths).tolist()
    assert np.arange(indptr[-1])[take].tolist() == walk_entries(indptr, rows)
    ascending = all(b == a + 1 for a, b in zip(rows, rows[1:]))
    assert isinstance(take, slice) == (len(rows) > 0 and ascending)


@settings(max_examples=300)
@given(selection=row_selections())
def test_entries_gather_each_row_and_slice_only_consecutive_rows(selection):
    indptr, rows = selection
    assert_entries_of(indptr, rows, *_entries(indptr, rows))


@settings(max_examples=300)
@given(selection=row_selections(min_size=1), pass_entries=st.integers(1, 20))
def test_entry_runs_match_a_walk_over_the_rows(selection, pass_entries):
    """A row walk opens a run whenever a row starts in a window (of
    ``pass_entries`` entries, counted over the rows laid end to end) that
    the previous row did not start in."""
    indptr, rows = selection
    expected: list[list[int]] = []
    start, window = 0, None
    for row in rows:
        if start // pass_entries != window:
            window = start // pass_entries
            expected.append([])
        expected[-1].append(row)
        start += int(indptr[row + 1] - indptr[row])
    with mock.patch("layerstack.corpus._PASS_ENTRIES", pass_entries):
        runs = list(_entry_runs(indptr, rows))
    assert [block.tolist() for block, _, _ in runs] == expected
    for block, local, take in runs:
        assert_entries_of(indptr, block.tolist(), local, take)


@pytest.mark.parametrize("rows", [list(range(40)), list(range(0, 40, 3)), list(range(39, -1, -2))])
def test_entry_runs_lay_out_their_rows_once(rows):
    """However many runs a selection is cut into, its rows are laid out by
    one ``_entries`` call, and each run is a piece of that layout."""
    indptr = np.arange(0, 3 * 41, 3, dtype=np.intp)
    with mock.patch("layerstack.corpus._PASS_ENTRIES", 7), mock.patch(
        "layerstack.corpus._entries", wraps=_entries
    ) as entries:
        runs = list(_entry_runs(indptr, rows))
    assert len(runs) > 3
    assert entries.call_count == 1
    for block, local, take in runs:
        assert_entries_of(indptr, block.tolist(), local, take)


def fig3_text(corpus: Corpus) -> str:
    """fig3.csv as ``emit_plot_data`` writes it for ``corpus``."""
    sections = {layer: {"skipped": True, "reason": "not run"} for layer in LAYERS}
    with tempfile.TemporaryDirectory() as out:
        report = RunReport({"out_dir": out}, {}, sections, (), corpus)
        return emit_plot_data(report)[0].read_text(encoding="utf-8")


def oracle_fig3(corpus: Corpus) -> str:
    """fig3 from ``top_k_terms`` of each document's positive counts, every
    row written by ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["doc_id", "rank", "term", "count"])
    for doc in corpus:
        positive = make_doc(doc.id, {t: c for t, c in doc.token_counts.items() if c > 0})
        for rank, (term, count) in enumerate(top_k_terms(positive, 10), start=1):
            writer.writerow([doc.id, rank, term, count])
    return out.getvalue()


# more terms than fig3's ten, so that ties cross the tenth place
FIG3_TERMS = TERMS + ["c", "ça", "d", "ω", "한"]


@st.composite
def fig3_corpora(draw) -> Corpus:
    """Up to six documents over ``FIG3_TERMS`` with counts of 0-3, so ties
    are common; some documents are empty."""
    ids = draw(st.lists(st.text("dxñ0", min_size=1, max_size=3), max_size=6, unique=True))
    counts = st.dictionaries(st.sampled_from(FIG3_TERMS), st.integers(0, 3))
    rows = [{} if draw(st.integers(0, 4)) == 0 else draw(counts) for _ in ids]
    return make_corpus(dict(zip(ids, rows)))


@settings(max_examples=200, deadline=None)
@given(corpus=fig3_corpora())
@example(corpus=make_corpus({"d": dict.fromkeys(FIG3_TERMS, 1), "e": {}}))
@example(corpus=make_corpus({"d": {t: 1 + (i % 3 == 0) for i, t in enumerate(FIG3_TERMS)}}))
def test_fig3_is_top_k_terms_of_the_positive_counts(corpus):
    assert fig3_text(corpus) == oracle_fig3(corpus)


def test_fig3_leaves_out_zero_counts_that_top_k_terms_lists():
    """A hand-built document may hold zero counts, which its table row
    drops: fig3 lists only its positive counts, and nothing for a document
    whose counts are all zero."""
    corpus = make_corpus({"d": {"b": 0, "a": 2, "c": 1}, "z": {"y": 0}})
    assert top_k_terms(corpus.get("d"), 10) == [("a", 2), ("c", 1), ("b", 0)]
    assert top_k_terms(corpus.get("z"), 10) == [("y", 0)]
    assert fig3_text(corpus) == "doc_id,rank,term,count\nd,1,a,2\nd,2,c,1\n"
