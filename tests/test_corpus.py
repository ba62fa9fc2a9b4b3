import csv
import io
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import (
    Corpus,
    Document,
    ingest_corpus,
    load_stop_words,
    rank_documents,
    top_k_terms,
)
from layerstack.corpus import count_terms, resolve_sources
from layerstack.pipeline import LAYERS, RunReport, emit_plot_data, write_fig4
from layerstack.stopwords import ENGLISH_STOP_WORDS

from helpers import make_corpus, make_doc, pooled_counts


class TestTokenize:
    """The tokenization rule, through count_terms."""

    def test_lowercase_and_split(self):
        assert count_terms("AI, ai Ai!") == {"ai": 3}

    def test_numeric_and_stop_words_dropped(self):
        assert count_terms("model 2023 the") == {"model": 1}

    def test_empty(self):
        assert count_terms("") == {}

    def test_underscore_splits(self):
        assert count_terms("foo_bar") == {"foo": 1, "bar": 1}

    def test_mixed_alphanumeric_kept(self):
        assert count_terms("word2vec 42") == {"word2vec": 1}

    def test_unicode_letters_kept(self):
        assert count_terms("naïve Bayes café") == {"naïve": 1, "bayes": 1, "café": 1}

    def test_order_preserved(self):
        # keys in order of first occurrence
        assert list(count_terms("zebra apple zebra").items()) == [("zebra", 2), ("apple", 1)]

    def test_idempotent_over_own_output(self):
        text = "Signal-to-noise ratios; 42 models, the AI's edge!"
        once = count_terms(text)
        words = " ".join(term for term, count in once.items() for _ in range(count))
        assert list(count_terms(words).items()) == list(once.items())

    def test_custom_stop_words(self):
        assert count_terms("signal noise the", frozenset({"signal"})) == {"noise": 1, "the": 1}


def oracle_tokens(text: str, stop_words: frozenset[str]) -> list[str]:
    """The terms of ``text`` by the rule itself: the regex's alphanumeric
    runs of the lowercased text, numeric runs and stop words dropped."""
    words = re.findall(r"[^\W_]+", text.lower())
    return [w for w in words if not w.isdigit() and w not in stop_words]


# ASCII text with words, stop words, numbers, underscores, and the separators
# \x1c-\x1f that str.split treats as whitespace
ASCII_PIECES = st.one_of(
    st.sampled_from(["The", "and", "AI", "x9", "42", "a_b", "_", "a\x1cb", "\x1d\x1e\x1f", " "]),
    st.text(st.characters(max_codepoint=127), max_size=6),
)
# the same with non-ASCII letters, digits, spaces and case folds, and with
# non-ASCII separators inside words: a curly apostrophe, a dash, guillemets,
# İ (which lowercases to i + U+0307), an ideographic space, NEL, a combining
# mark and a lone surrogate
UNICODE_PIECES = st.one_of(
    ASCII_PIECES,
    st.sampled_from(["Naïve", "ß", "İ", "\u212a", "²", "٣", "\u00a0", "\u2028", "日本"]),
    st.sampled_from(
        ["don’t", "a—b", "«a»", "a\u3000b", "a\u0085b", "cafe\u0301", "a\ud800b", "\udfff"]
    ),
    st.text(max_size=6),
)
STOP_SETS = st.sampled_from([ENGLISH_STOP_WORDS, frozenset(), frozenset({"ai", "naïve", "b"})])


def assert_passes_the_checked_constructor(doc: Document) -> None:
    """``from_text`` checks no term; the constructor, which checks each, must
    accept its terms and counts and give an equal document."""
    rebuilt = Document(doc.id, doc.title, dict(doc.token_counts), doc.total_tokens)
    assert rebuilt == doc


class TestSplitterOracle:
    """count_terms and Document.from_text against the regex rule, on ASCII
    text, on text whose runs are all words, and on text whose runs hold
    non-ASCII separators and are split again."""

    @staticmethod
    def check(text: str, stop_words: frozenset[str]) -> None:
        expected = list(Counter(oracle_tokens(text, stop_words)).items())
        assert list(count_terms(text, stop_words).items()) == expected
        doc = Document.from_text("d", "d", text, stop_words)
        assert list(doc.token_counts.items()) == expected
        assert doc.total_tokens == sum(count for _, count in expected)
        assert_passes_the_checked_constructor(doc)

    @settings(max_examples=300)
    @given(pieces=st.lists(ASCII_PIECES, max_size=12), stop_words=STOP_SETS)
    def test_ascii_text(self, pieces, stop_words):
        text = "".join(pieces)
        assert text.isascii()
        self.check(text, stop_words)

    @settings(max_examples=300)
    @given(pieces=st.lists(UNICODE_PIECES, max_size=12), stop_words=STOP_SETS)
    def test_unicode_text(self, pieces, stop_words):
        self.check("".join(pieces), stop_words)

    def test_non_ascii_text_that_lowercases_to_ascii(self):
        # KELVIN SIGN lowercases to "k"
        self.check("\u212a_9 \u212aelvin", frozenset())

    def test_lone_surrogate_separates(self):
        assert count_terms("a\ud800b", frozenset()) == {"a": 1, "b": 1}

    def test_every_code_point_between_two_letters(self):
        # "a" + c + "b" for every code point c, surrogates included
        text = "a" + "b a".join(map(chr, range(0x110000))) + "b"
        expected = list(Counter(oracle_tokens(text, frozenset())).items())
        assert list(count_terms(text, frozenset()).items()) == expected
        doc = Document.from_text("d", "d", text, frozenset())
        assert list(doc.token_counts.items()) == expected
        assert_passes_the_checked_constructor(doc)


class TestTermFrequencies:
    """Term counting as done by Document.from_text."""

    def test_counts(self):
        doc = Document.from_text("d", "d", "ai ai trust")
        assert doc.token_counts == {"ai": 2, "trust": 1}

    def test_empty(self):
        doc = Document.from_text("d", "d", "")
        assert doc.token_counts == {}
        assert doc.total_tokens == 0

    def test_bulk(self):
        doc = Document.from_text("d", "d", "x " * 1000)
        assert doc.token_counts == {"x": 1000}
        assert doc.total_tokens == 1000


class TestDocument:
    def test_from_text(self):
        doc = Document.from_text("d1", "Title", "alpha beta alpha")
        assert doc.token_counts == {"alpha": 2, "beta": 1}
        assert doc.total_tokens == 3

    def test_total_must_match(self):
        with pytest.raises(ValueError, match="total_tokens"):
            Document(id="d", title="d", token_counts={"a": 2}, total_tokens=3)

    def test_rejects_uppercase_terms(self):
        with pytest.raises(ValueError, match="invalid term"):
            Document(id="d", title="d", token_counts={"Bad": 1}, total_tokens=1)

    def test_rejects_non_string_terms(self):
        with pytest.raises(ValueError, match=r"^invalid term 1 in document 'a'$"):
            Document(id="a", title="t", token_counts={1: 2}, total_tokens=2)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="negative count"):
            Document(id="d", title="d", token_counts={"a": -1}, total_tokens=-1)

    def test_rejects_non_integer_counts(self):
        # a count table holds int64: 1.5 would be read as 1
        with pytest.raises(ValueError, match="count of term 'a' in 'd' is not an integer: 1.5"):
            Document(id="d", title="d", token_counts={"a": 1.5, "b": 0.5}, total_tokens=2)
        doc = Document(id="d", title="d", token_counts={"a": np.int64(2)}, total_tokens=2)
        assert make_corpus({"d": doc.token_counts}).table.counts.tolist() == [2]

    @pytest.mark.parametrize(
        "counts, total, message",
        [
            ({"ok": 1, "Bad": 1}, 2, "invalid term 'Bad' in document 'd'"),
            ({"": 1}, 1, "invalid term '' in document 'd'"),
            ({"a": 2.0}, 2, "count of term 'a' in 'd' is not an integer: 2.0"),
            ({"a": "2"}, 2, "count of term 'a' in 'd' is not an integer: '2'"),
            ({"a": 3, "b": -1}, 2, "negative count for term 'b' in 'd'"),
            ({"a": 2, "b": 0}, 3, "total_tokens 3 != sum of counts 2 in 'd'"),
        ],
    )
    def test_hand_built_documents_are_checked_term_by_term(self, counts, total, message):
        # from_text skips these checks, as its terms and counts cannot fail them
        with pytest.raises(ValueError) as raised:
            Document(id="d", title="d", token_counts=counts, total_tokens=total)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "doc_id, title, message",
        [
            ("", "t", "document id must be non-empty"),
            ("d", "a\tb", "title of 'd' contains a tab or line break: 'a\\tb'"),
        ],
    )
    def test_from_text_checks_its_id_and_title(self, doc_id, title, message):
        with pytest.raises(ValueError) as raised:
            Document.from_text(doc_id, title, "alpha")
        assert str(raised.value) == message

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="non-empty"):
            Document(id="", title="t", token_counts={}, total_tokens=0)


class TestCorpus:
    def test_vocabulary_union(self):
        corpus = make_corpus({"d1": {"a": 1, "b": 1}, "d2": {"b": 1, "c": 1}})
        assert corpus.vocabulary == {"a", "b", "c"}

    def test_duplicate_ids_rejected(self):
        doc = make_doc("d1", {"a": 1})
        with pytest.raises(ValueError, match="duplicate document ids"):
            Corpus(documents=(doc, doc))

    def test_a_hand_built_corpus_counts_a_stop_word_like_any_term(self, tmp_path):
        # stop words are the tokenizer's rule; "theta" stands in the same
        # place in term order, so every count and float must match
        assert "the" in ENGLISH_STOP_WORDS and "theta" not in ENGLISH_STOP_WORDS
        docs = {
            "d1": {"the": 3, "model": 2, "signal": 1},
            "d2": {"the": 1, "model": 3, "signal": 5},
            "d3": {"the": 2, "model": 4, "signal": 2},
        }
        corpus = make_corpus(docs)
        renamed = {"the": "theta"}
        twin = make_corpus(
            {d: {renamed.get(t, t): c for t, c in counts.items()} for d, counts in docs.items()}
        )
        assert corpus.table.terms == ("model", "signal", "the")
        assert corpus.table.term_totals.tolist() == [9, 8, 6]
        assert corpus.table.counts.tolist() == twin.table.counts.tolist()
        notes: list[str] = []
        ranking = rank_documents(corpus, top_k=3, notes=notes)
        assert notes == [] and [res.n for res in ranking] == [3, 3, 3]
        assert ranking == rank_documents(twin, top_k=3)
        sections = {layer: {"skipped": True, "reason": "not run"} for layer in LAYERS}
        report = RunReport({"out_dir": str(tmp_path)}, {}, sections, (), corpus)
        fig3 = emit_plot_data(report)[0].read_text(encoding="utf-8")
        assert fig3.splitlines()[1:4] == ["d1,1,the,3", "d1,2,model,2", "d1,3,signal,1"]

    def test_get_and_contains(self):
        corpus = make_corpus({"d1": {"a": 1}, "d2": {"b": 1}})
        assert corpus.get("d2").id == "d2"
        assert "d1" in corpus and "zz" not in corpus
        with pytest.raises(KeyError):
            corpus.get("zz")

    def test_subset_keeps_order_and_checks_ids(self):
        corpus = make_corpus({"d1": {"a": 1}, "d2": {"b": 1}, "d3": {"c": 1}})
        sub = corpus.subset(["d3", "d1"])
        assert [d.id for d in sub] == ["d1", "d3"]
        with pytest.raises(KeyError, match="zz"):
            corpus.subset(["zz"])

    def test_subset_keeps_the_parent_order_of_an_unsorted_corpus(self):
        corpus = make_corpus({"d3": {"c": 1}, "d1": {"a": 1}, "d2": {"b": 2, "c": 1}})
        sub = corpus.subset(["d1", "d3", "d2", "d1"])
        assert [d.id for d in sub] == ["d3", "d1", "d2"]
        assert [d.id for d in corpus.subset(["d2", "d3"])] == ["d3", "d2"]
        with pytest.raises(KeyError, match="zz"):
            corpus.subset(["d1", "zz"])

    def test_total_and_leave_one_out_counts(self):
        corpus = make_corpus(
            {"d1": {"a": 2, "b": 1}, "d2": {"a": 1, "c": 4, "z": 0}, "d3": {"a": 1, "b": 0}}
        )
        for doc in corpus:
            others = corpus.subset(d.id for d in corpus if d.id != doc.id)
            assert corpus.leave_one_out_counts(doc.id) == pooled_counts(others)
        rest = corpus.leave_one_out_counts("d2")
        assert dict(rest) == {"a": 3, "b": 1}  # c, z and d3's b dropped, not kept at 0
        with pytest.raises(KeyError, match="zz"):
            corpus.leave_one_out_counts("zz")


class TestTopKTerms:
    def test_tie_break_lexicographic(self):
        doc = make_doc("d", {"ai": 5, "trust": 3, "data": 3})
        assert top_k_terms(doc, 2) == [("ai", 5), ("data", 3)]

    def test_k_beyond_vocabulary(self):
        doc = make_doc("d", {"b": 1, "a": 1})
        assert top_k_terms(doc, 10) == [("a", 1), ("b", 1)]

    def test_singleton(self):
        assert top_k_terms(make_doc("d", {"a": 1}), 10) == [("a", 1)]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            top_k_terms(make_doc("d", {"a": 1}), 0)

    @given(
        counts=st.dictionaries(st.text("abcd", min_size=1, max_size=3), st.integers(0, 3)),
        data=st.data(),
    )
    def test_equals_a_full_sort(self, counts, data):
        # counts from 0 to 3 tie often; k runs past the number of terms;
        # a zero count is not stored, so it is not listed
        k = data.draw(st.integers(1, len(counts) + 3))
        positive = [(t, c) for t, c in counts.items() if c > 0]
        full = sorted(positive, key=lambda kv: (-kv[1], kv[0]))
        assert top_k_terms(make_doc("d", counts), k) == full[:k]


class TestFrequencyScatter:
    """fig4's frequency scatter of one document against the rest."""

    @staticmethod
    def fig4_rows(doc_counts, reference_counts, notes=None):
        """fig4 rows, by term, of document "d" against the one other document."""
        corpus = make_corpus({"d": doc_counts, "r": reference_counts})
        handle = io.StringIO()
        write_fig4(handle, corpus, [corpus.position("d")], [] if notes is None else notes)
        rows = csv.DictReader(io.StringIO(handle.getvalue()))
        return {row["term"]: row for row in rows}

    def test_equal_proportions_give_zero_deviation(self):
        rows = self.fig4_rows({"a": 1, "b": 99}, {"a": 2, "b": 198})
        assert list(rows) == ["a", "b"]
        assert float(rows["a"]["doc_proportion"]) == 0.01
        assert float(rows["a"]["deviation"]) == 0.0

    def test_log_ratio(self):
        rows = self.fig4_rows({"a": 10, "b": 90}, {"a": 1, "b": 99})
        assert math.isclose(float(rows["a"]["deviation"]), 1.0, abs_tol=1e-12)  # 0.1 vs 0.01

    def test_terms_missing_on_either_side_skipped(self):
        rows = self.fig4_rows({"a": 1, "b": 1}, {"b": 1, "c": 1})
        assert list(rows) == ["b"]
        assert float(rows["b"]["doc_proportion"]) == 0.5
        assert float(rows["b"]["reference_proportion"]) == 0.5

    def test_deviation_sign_matches_proportion_difference(self):
        rows = self.fig4_rows({"a": 3, "b": 1}, {"a": 1, "b": 3})
        for row in rows.values():
            diff = float(row["doc_proportion"]) - float(row["reference_proportion"])
            assert (float(row["deviation"]) > 0) == (diff > 0)

    def test_empty_sides_share_nothing(self):
        notes: list[str] = []
        assert self.fig4_rows({}, {"a": 1}, notes) == {}
        assert self.fig4_rows({"a": 1}, {}, notes) == {}
        assert self.fig4_rows({"a": 1, "b": 0}, {"b": 1, "c": 0}, notes) == {}
        assert notes == [
            "PipelineWarning: document 'd' has no terms; skipped in fig4",
            "PipelineWarning: no reference terms for 'd'; skipped in fig4",
        ]

    def test_a_document_must_be_the_corpus_copy(self):
        """fig4 takes table rows, so each document it writes is the
        corpus's copy. Callers resolve ids to rows first; an unknown id is
        ``scatter --doc``'s error (see test_cli)."""
        corpus = make_corpus({"d": {"a": 2, "b": 1}, "r": {"a": 1, "b": 1}})
        handle = io.StringIO()
        write_fig4(handle, corpus, [corpus.position("d")], [])
        assert handle.getvalue().count("\n") == 3


class TestResolveSources:
    def test_directory_sorted_by_stem(self, tmp_path):
        (tmp_path / "b.txt").write_text("two", encoding="utf-8")
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        entries = resolve_sources(tmp_path)
        assert [(doc_id, title) for doc_id, title, _ in entries] == [
            ("a", "a"),
            ("b", "b"),
        ]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty corpus"):
            resolve_sources(tmp_path)

    def test_manifest_with_relative_paths(self, tmp_path):
        (tmp_path / "x.txt").write_text("body", encoding="utf-8")
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            json.dumps({"id": "doc9", "title": "A Title", "path": "x.txt"}) + "\n",
            encoding="utf-8",
        )
        [(doc_id, title, path)] = resolve_sources(manifest)
        assert (doc_id, title) == ("doc9", "A Title")
        assert path.read_text(encoding="utf-8") == "body"

    def test_manifest_blank_lines_skipped_but_counted(self, tmp_path):
        record = json.dumps({"id": "d", "title": "T", "path": "d.txt"})
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(f"\n  \n{record}\n\n{{bad}}\n", encoding="utf-8")
        where = re.escape(str(manifest))
        with pytest.raises(ValueError, match=f"^bad manifest line 5 in {where}: "):
            resolve_sources(manifest)
        manifest.write_text(f"\n{record}\n \t\n", encoding="utf-8")
        assert resolve_sources(manifest) == [("d", "T", tmp_path / "d.txt")]

    def test_manifest_bad_json_line(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad manifest line 1"):
            resolve_sources(manifest)

    def test_manifest_missing_keys(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "a"}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="needs id/title/path"):
            resolve_sources(manifest)

    def test_duplicate_ids_rejected(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        lines = [
            json.dumps({"id": "a", "title": "x", "path": "x.txt"}),
            json.dumps({"id": "a", "title": "y", "path": "y.txt"}),
        ]
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate document ids"):
            resolve_sources(manifest)

    def test_missing_source(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            resolve_sources(tmp_path / "nope")


class CountingId(str):
    """A str id that counts the equality tests made on it."""

    calls = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountingId.calls += 1
        return str.__eq__(self, other)


class TestDuplicateIds:
    @pytest.fixture
    def ids(self):
        # distinct objects, so no comparison is skipped by identity
        unique = [CountingId(f"d{i}") for i in range(4000)]
        return unique + [CountingId("d7"), CountingId("d9"), CountingId("d7")]

    def test_corpus_lists_repeats_in_linear_time(self, ids):
        docs = tuple(make_doc(doc_id, {"a": 1}) for doc_id in ids)
        CountingId.calls = 0
        with pytest.raises(ValueError, match=r"^duplicate document ids: \['d7', 'd9'\]$"):
            Corpus(documents=docs)
        assert CountingId.calls < 4 * len(ids)

    def test_manifest_lists_repeats_in_linear_time(self, ids, tmp_path, monkeypatch):
        manifest = tmp_path / "m.jsonl"
        lines = (json.dumps({"id": i, "title": i, "path": f"{i}.txt"}) for i in ids)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loads = json.loads

        def counting_ids(line):
            record = loads(line)
            record["id"] = CountingId(record["id"])
            return record

        monkeypatch.setattr(json, "loads", counting_ids)
        CountingId.calls = 0
        with pytest.raises(ValueError, match=r"in source: \['d7', 'd9'\]$"):
            resolve_sources(manifest)
        assert CountingId.calls < 4 * len(ids)


class TestIngestCorpus:
    def test_directory_ingestion(self, text_corpus_dir):
        corpus = ingest_corpus(text_corpus_dir)
        assert [d.id for d in corpus] == ["alpha", "bravo", "charlie", "delta"]
        assert corpus.get("alpha").token_counts["signal"] == 3

    def test_deterministic(self, text_corpus_dir):
        assert ingest_corpus(text_corpus_dir) == ingest_corpus(text_corpus_dir)

    def test_stop_word_override(self, text_corpus_dir, tmp_path):
        override = tmp_path / "stop.txt"
        override.write_text("Signal\n\nnoise\n", encoding="utf-8")
        corpus = ingest_corpus(text_corpus_dir, load_stop_words(override))
        assert "signal" not in corpus.vocabulary
        assert "noise" not in corpus.vocabulary
        assert "channel" in corpus.vocabulary

    def test_non_utf8_rejected(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ValueError, match="not valid UTF-8"):
            ingest_corpus(tmp_path)

    def test_byte_order_mark_is_not_text(self, tmp_path):
        text = "Café signal—noise signal\n"
        (tmp_path / "plain.txt").write_text(text, encoding="utf-8")
        (tmp_path / "marked.txt").write_text(text, encoding="utf-8-sig")
        corpus = ingest_corpus(tmp_path)
        assert corpus.get("marked").token_counts == corpus.get("plain").token_counts

    def test_manifest_with_a_byte_order_mark(self, tmp_path):
        (tmp_path / "x.txt").write_text("alpha beta", encoding="utf-8")
        manifest = tmp_path / "m.jsonl"
        record = json.dumps({"id": "d1", "title": "T", "path": "x.txt"}) + "\n"
        manifest.write_text(record, encoding="utf-8-sig")
        assert ingest_corpus(manifest).get("d1").token_counts == {"alpha": 1, "beta": 1}

    def test_manifest_titles_carried(self, tmp_path):
        (tmp_path / "x.txt").write_text("alpha beta", encoding="utf-8")
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps({"id": "d1", "title": "Fancy Title", "path": "x.txt"}) + "\n",
            encoding="utf-8",
        )
        corpus = ingest_corpus(manifest)
        assert corpus.get("d1").title == "Fancy Title"


def test_load_stop_words_folds_case_and_blanks(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\n\n  And \nof\n", encoding="utf-8")
    assert load_stop_words(path) == {"the", "and", "of"}


def test_load_stop_words_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("signal\nnoise\n", encoding="utf-8-sig")
    assert load_stop_words(path) == {"signal", "noise"}


def test_default_config_blocks_common_words():
    assert "the" in ENGLISH_STOP_WORDS
    assert count_terms("the model of the year") == {"model": 1, "year": 1}
