import csv
import io
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from layerstack import (
    Corpus,
    Document,
    frequency_scatter,
    ingest_corpus,
    load_stop_words,
    tokenize,
    top_k_terms,
)
from layerstack.corpus import resolve_sources
from layerstack.pipeline import write_fig4
from layerstack.stopwords import ENGLISH_STOP_WORDS

from helpers import make_corpus, make_doc


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("AI, ai Ai!") == ["ai", "ai", "ai"]

    def test_numeric_and_stop_words_dropped(self):
        assert tokenize("model 2023 the") == ["model"]

    def test_empty(self):
        assert tokenize("") == []

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_mixed_alphanumeric_kept(self):
        assert tokenize("word2vec 42") == ["word2vec"]

    def test_unicode_letters_kept(self):
        assert tokenize("naïve Bayes café") == ["naïve", "bayes", "café"]

    def test_order_preserved(self):
        assert tokenize("zebra apple zebra") == ["zebra", "apple", "zebra"]

    def test_idempotent_over_own_output(self):
        text = "Signal-to-noise ratios; 42 models, the AI's edge!"
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    def test_custom_stop_words(self):
        assert tokenize("signal noise the", frozenset({"signal"})) == ["noise", "the"]


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

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="negative count"):
            Document(id="d", title="d", token_counts={"a": -1}, total_tokens=-1)

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
            Corpus(documents=(doc, doc), stop_words=frozenset())

    def test_stop_words_must_be_absent(self):
        with pytest.raises(ValueError, match="stop words present"):
            make_corpus({"d1": {"the": 1}}, stop_words=frozenset({"the"}))

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

    def test_total_and_leave_one_out_counts(self):
        corpus = make_corpus({"d1": {"a": 2, "b": 1}, "d2": {"a": 1, "c": 4}})
        assert corpus.total_counts() == {"a": 3, "b": 1, "c": 4}
        rest = corpus.leave_one_out_counts("d2")
        assert rest == {"a": 2, "b": 1}  # c fully removed, not left at zero


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
        # counts from 0 to 3 tie often; k runs past the number of terms
        k = data.draw(st.integers(1, len(counts) + 3))
        full = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert top_k_terms(make_doc("d", counts), k) == full[:k]


class TestFrequencyScatter:
    @staticmethod
    def fig4_rows(doc_counts, reference_counts):
        """fig4 rows, by term, of document "d" against the one other document."""
        corpus = make_corpus({"d": doc_counts, "r": reference_counts})
        handle = io.StringIO()
        write_fig4(handle, corpus, [corpus.get("d")], [])
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
        doc = make_doc("d", {"a": 1, "b": 1})
        assert frequency_scatter(doc, {"b": 1, "c": 1}, 2) == (["b"], [0.5], [0.5])

    def test_deviation_sign_matches_proportion_difference(self):
        rows = self.fig4_rows({"a": 3, "b": 1}, {"a": 1, "b": 3})
        for row in rows.values():
            diff = float(row["doc_proportion"]) - float(row["reference_proportion"])
            assert (float(row["deviation"]) > 0) == (diff > 0)

    def test_empty_sides_share_nothing(self):
        assert frequency_scatter(make_doc("d", {}), {"a": 1}, 1) == ([], [], [])
        assert frequency_scatter(make_doc("d", {"a": 1}), {}, 0) == ([], [], [])


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
            Corpus(documents=docs, stop_words=frozenset())
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


def test_default_config_blocks_common_words():
    assert "the" in ENGLISH_STOP_WORDS
    assert tokenize("the model of the year") == ["model", "year"]
