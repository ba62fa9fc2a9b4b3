"""Ingest against the per-entry walks it replaced.

``CountTable.build`` gathers each document's keys and counts with list
extends; a document stores only its positive counts, each an ``int``. The
oracle here walks every (term, count) entry in Python and keeps the
positive ones, as the table was once built, and sums each row's and each
term's total with Python ints. Both must give equal arrays and the same
error, on documents with zero counts, empty rows, one-term rows, shared and
disjoint vocabularies, and counts that sum to 2**53 - 1 and to 2**53.

A document's ``token_counts`` is exactly its table row: the same terms and
counts, every one an ``int``, so ``top_k_terms`` lists its fig3 rows, on
tokenized documents and on hand-built ones with zero counts and numpy
integers alike. numpy counts whose sum wraps int64 meet the 2**53 check.

``Document.from_text`` skips the constructor's per-term check, since the
tokenizer's terms and counts are valid by construction; ingest therefore
tokenizes each file once and checks no term, while a hand-built document
is checked once, when it is made.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerstack import Corpus, Document, ingest_corpus, top_k_terms
from layerstack import corpus as corpus_module
from layerstack.corpus import CountTable

from helpers import fig3_text

LIMIT = 2**53

# a vocabulary two groups of documents share, and one only the second uses
SHARED = ["a", "ab", "b", "ß", "日本"]
DISJOINT = ["x", "xy", "y", "éa", "ñandú"]


def oracle_build(documents: list[Document]) -> dict[str, object]:
    """The table by a walk over every entry, and its margins by Python sums."""
    ends, keys, values = [0], [], []
    for doc in documents:
        for term, count in doc.token_counts.items():
            if count > 0:
                keys.append(term)
                values.append(count)
        ends.append(len(keys))
    total = sum(values)
    if total >= LIMIT:
        raise ValueError(f"term counts sum to {total}, not below 2**53")
    terms = tuple(sorted(set(keys)))
    index = {term: i for i, term in enumerate(terms)}
    term_ids, counts, row_totals = [], [], []
    term_totals = [0] * len(terms)
    for lo, hi in zip(ends, ends[1:]):
        row = sorted(zip(map(index.__getitem__, keys[lo:hi]), values[lo:hi]))
        term_ids += [i for i, _ in row]
        counts += [int(c) for _, c in row]
        row_totals.append(sum(int(c) for _, c in row))
        for i, c in row:
            term_totals[i] += int(c)
    return {
        "terms": terms,
        "indptr": np.array(ends, dtype=np.intp),
        "term_ids": np.array(term_ids, dtype=np.intp),
        "counts": np.array(counts, dtype=np.int64),
        "row_totals": np.array(row_totals, dtype=np.int64),
        "term_totals": np.array(term_totals, dtype=np.int64),
    }


def outcome(build, documents: list[Document]):
    """What a build gives: its arrays, or its error's type and message."""
    try:
        table = build(documents)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(table, CountTable):
        names = ("terms", "indptr", "term_ids", "counts", "row_totals", "term_totals")
        table = {name: getattr(table, name) for name in names}
    return table


def assert_same_outcome(got, expected) -> None:
    if isinstance(got, tuple) or isinstance(expected, tuple):
        assert got == expected
        return
    assert got["terms"] == expected["terms"]
    for name in ("indptr", "term_ids", "counts", "row_totals", "term_totals"):
        assert got[name].dtype == expected[name].dtype, name
        assert np.array_equal(got[name], expected[name]), name


def assert_same_build(documents: list[Document]) -> None:
    assert_same_outcome(outcome(CountTable.build, documents), outcome(oracle_build, documents))


def hand_built(doc_id: str, counts: dict[str, int]) -> Document:
    return Document(doc_id, doc_id, counts, sum(counts.values()))


@st.composite
def document_lists(draw) -> list[Document]:
    """Up to eight hand-built documents: the first group over the shared
    terms, the second over the shared or the disjoint ones. Rows may be
    empty, hold one term or only zero counts; a last row may bring the
    total to just below or to 2**53."""
    second = draw(st.sampled_from([SHARED, DISJOINT]))
    rows = []
    for i in range(draw(st.integers(0, 8))):
        vocabulary = SHARED if i % 2 == 0 else second
        counts = draw(
            st.one_of(
                st.just({}),
                st.dictionaries(st.sampled_from(vocabulary), st.integers(0, 5), max_size=1),
                st.dictionaries(st.sampled_from(vocabulary), st.integers(0, 5)),
                st.dictionaries(st.sampled_from(vocabulary), st.just(0), min_size=1),
            )
        )
        rows.append(counts)
    target = draw(st.sampled_from([None, LIMIT - 1, LIMIT]))
    if target is not None:
        rest = target - sum(sum(row.values()) for row in rows)
        rows.append({draw(st.sampled_from(second)): rest})
    return [hand_built(f"d{i}", row) for i, row in enumerate(rows)]


class TestTableBuildOracle:
    @settings(max_examples=300)
    @given(documents=document_lists())
    @example(documents=[])
    @example(documents=[hand_built("d0", {}), hand_built("d1", {"a": 0})])
    @example(documents=[hand_built("d0", {"b": 3}), hand_built("d1", {"y": 1, "x": 2})])
    @example(documents=[hand_built("d0", {"a": 1}), hand_built("d1", {"b": LIMIT - 2})])
    @example(documents=[hand_built("d0", {"a": 1}), hand_built("d1", {"b": LIMIT - 1})])
    def test_build_matches_a_walk_over_every_entry(self, documents):
        assert_same_build(documents)

    def test_numpy_counts_build_as_their_ints(self):
        documents = [
            hand_built("d0", {"b": np.int64(2), "a": 0, "c": np.int32(5)}),
            hand_built("d1", {"c": np.int64(0), "a": True}),
        ]
        assert_same_build(documents)

    @settings(max_examples=100)
    @given(texts=st.lists(st.text(st.sampled_from("ab ßÉ9_日本 ’"), max_size=30), max_size=6))
    def test_tokenized_documents_build_as_by_the_walk(self, texts):
        assert_same_build([Document.from_text(f"d{i}", "t", t) for i, t in enumerate(texts)])


class TestStoredCounts:
    """A document stores only its positive counts, each as an ``int``."""

    def test_numpy_counts_that_wrap_int64_meet_the_limit(self):
        documents = [hand_built(f"d{i}", {"a": np.int64(2**62)}) for i in range(2)]
        message = "term counts sum to 9223372036854775808, not below 2**53"
        with pytest.raises(ValueError, match=re.escape(message)):
            Corpus(documents=tuple(documents))

    @pytest.mark.parametrize(
        "kind, counts",
        [
            (np.int32, {"b": 3, "a": 1, "c": 0}),
            (np.uint64, {"b": 3, "a": 1, "c": 0}),
            (bool, {"b": 1, "a": 1, "c": 0}),
        ],
    )
    def test_integer_types_are_stored_as_int(self, kind, counts):
        doc = hand_built("d", {term: kind(count) for term, count in counts.items()})
        positive = {term: count for term, count in counts.items() if count}
        assert doc.token_counts == positive
        assert {type(count) for count in doc.token_counts.values()} == {int}
        assert_same_outcome(
            outcome(CountTable.build, [doc]), outcome(CountTable.build, [hand_built("d", positive)])
        )


@st.composite
def mixed_corpora(draw) -> Corpus:
    """Up to six documents, each tokenized from a text or built by hand
    over terms the texts share, with zero counts and numpy integers."""
    documents = []
    for i in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            text = draw(st.text(st.sampled_from("ab ßÉ9_日本 ’"), max_size=30))
            documents.append(Document.from_text(f"d{i}", "t", text))
            continue
        kinds = st.sampled_from([int, np.int64, np.int32, np.uint64])
        drawn = draw(
            st.dictionaries(st.sampled_from(SHARED + DISJOINT), st.tuples(st.integers(0, 3), kinds))
        )
        counts = {term: kind(count) for term, (count, kind) in drawn.items()}
        documents.append(Document(f"d{i}", "t", counts, sum(map(int, counts.values()))))
    return Corpus(documents=tuple(documents))


def fig3_rows(corpus: Corpus) -> dict[str, list[tuple[str, int]]]:
    """Each document's fig3 rows as (term, count), in rank order."""
    rows: dict[str, list[tuple[str, int]]] = {doc.id: [] for doc in corpus}
    for row in csv.DictReader(io.StringIO(fig3_text(corpus))):
        rows[row["doc_id"]].append((row["term"], int(row["count"])))
    return rows


@settings(max_examples=150)
@given(corpus=mixed_corpora())
@example(corpus=Corpus((hand_built("d0", {"b": 0, "a": np.int64(2)}), hand_built("d1", {"a": 0}))))
def test_a_document_stores_exactly_its_table_row(corpus):
    table, fig3 = corpus.table, fig3_rows(corpus)
    for i, doc in enumerate(corpus):
        lo, hi = table.indptr[i], table.indptr[i + 1]
        terms = [table.terms[j] for j in table.term_ids[lo:hi]]
        row = dict(zip(terms, table.counts[lo:hi].tolist()))
        assert doc.token_counts == row
        assert all(type(count) is int for count in doc.token_counts.values())
        assert doc.total_tokens == table.row_totals[i]
        assert top_k_terms(doc, 10) == fig3[doc.id]


class TestChecksOnce:
    """Ingest tokenizes each file once and runs the per-term ``Document``
    check on none of them; a corpus of hand-built documents checks each one
    once, when it is made, and not again when the corpus is built."""

    def _count_calls(self, monkeypatch) -> Counter[str]:
        calls: Counter[str] = Counter()
        count_terms = corpus_module.count_terms
        post_init = Document.__post_init__

        def counted_count_terms(text, stop_words):
            calls["count_terms"] += 1
            return count_terms(text, stop_words)

        def counted_post_init(self):
            calls["document_checks"] += 1
            post_init(self)

        monkeypatch.setattr(corpus_module, "count_terms", counted_count_terms)
        monkeypatch.setattr(Document, "__post_init__", counted_post_init)
        return calls

    @pytest.mark.parametrize("files", [1, 5])
    def test_ingest_counts_each_file_once_and_checks_no_term(self, monkeypatch, tmp_path, files):
        for i in range(files):
            (tmp_path / f"d{i}.txt").write_text(f"alpha beta{i} alpha", encoding="utf-8")
        calls = self._count_calls(monkeypatch)
        corpus = ingest_corpus(tmp_path)
        assert len(corpus) == files
        assert calls == {"count_terms": files}

    def test_hand_built_documents_are_checked_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        documents = tuple(hand_built(f"d{i}", {"alpha": 1 + i, "beta": i}) for i in range(4))
        assert calls == {"document_checks": 4}
        Corpus(documents=documents)
        assert calls == {"document_checks": 4}
