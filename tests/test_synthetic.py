import hashlib
import json
import math
import re

import pytest

from layerstack import (
    Corpus,
    Document,
    ingest_corpus,
    synthetic_corpus,
    write_corpus,
)
from layerstack.synthetic import (
    SHARED_MASS,
    SHARED_TERMS,
    TOPIC_TERMS,
    document_text,
    topic_distributions,
)


class TestTopicDistributions:
    def test_shapes_and_masses(self):
        topics = topic_distributions(3)
        assert len(topics) == 3
        for terms, probs in topics:
            assert len(terms) == SHARED_TERMS + TOPIC_TERMS
            assert math.isclose(math.fsum(probs), 1.0, abs_tol=1e-12)
            core = [p for t, p in zip(terms, probs) if t.startswith("core")]
            assert math.isclose(math.fsum(core), SHARED_MASS, abs_tol=1e-12)

    def test_topics_share_only_core_terms(self):
        topics = topic_distributions(2)
        specific = [
            {t for t in terms if not t.startswith("core")} for terms, _ in topics
        ]
        assert specific[0].isdisjoint(specific[1])


class TestSyntheticCorpus:
    def test_counts_ids_titles(self):
        corpus, topic_of = synthetic_corpus((18, 12, 6), seed=0)
        assert len(corpus) == 36
        assert [d.id for d in corpus] == [f"doc{i:03d}" for i in range(36)]
        assert len(topic_of) == 36
        for doc in corpus:
            topic = topic_of[doc.id]
            assert f"(topic {topic})" in doc.title

    def test_topic_sizes(self):
        _, topic_of = synthetic_corpus((18, 12, 6), seed=0)
        sizes = [sum(1 for t in topic_of.values() if t == j) for j in range(3)]
        assert sizes == [18, 12, 6]

    def test_lengths_in_range(self):
        corpus, _ = synthetic_corpus((5, 5), seed=1, length_range=(100, 150))
        for doc in corpus:
            assert 100 <= doc.total_tokens <= 150

    def test_deterministic_per_seed(self):
        a, _ = synthetic_corpus((6, 6), seed=3)
        b, _ = synthetic_corpus((6, 6), seed=3)
        c, _ = synthetic_corpus((6, 6), seed=4)
        assert a == b
        assert a != c

    def test_skewed_acceptance_corpus_files_are_pinned(self, tmp_path):
        # a canary: synthetic_corpus draws from numpy's Generator, whose bit
        # stream numpy does not promise to keep across releases, and the
        # acceptance corpora, the goldens and the benchmark references all
        # come from it. A release that moves the stream fails here first.
        source = write_corpus(synthetic_corpus((270, 36, 18), seed=0)[0], tmp_path)
        listing = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
            for path in sorted(source.iterdir())
        )
        digest = hashlib.sha256(listing.encode("utf-8")).hexdigest()
        assert digest == "24798b9c88e265138252046716336205056d65e90f9ca8dd98a3ccfc0facc5c5"

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_corpus((), seed=0)
        with pytest.raises(ValueError):
            synthetic_corpus((-1, 5), seed=0)
        with pytest.raises(ValueError):
            synthetic_corpus((5,), seed=0, length_range=(10, 5))

    def test_zero_count_topics_allowed(self):
        corpus, topic_of = synthetic_corpus((0, 4), seed=0, length_range=(40, 60))
        assert len(corpus) == 4
        assert set(topic_of.values()) == {1}


class TestRoundTrips:
    def test_document_text_tokenizes_back_to_counts(self):
        corpus, _ = synthetic_corpus((3, 3), seed=2, length_range=(50, 80))
        for doc in corpus:
            text = document_text(doc.token_counts)
            again = Document.from_text(doc.id, doc.title, text, frozenset())
            assert again.token_counts == dict(doc.token_counts)

    def test_write_corpus_directory_mode(self, tmp_path):
        corpus, _ = synthetic_corpus((3, 2), seed=0, length_range=(40, 60))
        out = write_corpus(corpus, tmp_path / "plain")
        files = sorted(p.name for p in out.glob("*.txt"))
        assert files == [f"{d.id}.txt" for d in corpus.documents]

    def test_write_corpus_manifest_round_trip(self, tmp_path):
        corpus, _ = synthetic_corpus((4, 3), seed=5, length_range=(40, 60))
        manifest = write_corpus(corpus, tmp_path / "with-manifest", manifest=True)
        assert manifest.name == "manifest.jsonl"
        records = [
            json.loads(line)
            for line in manifest.read_text(encoding="utf-8").splitlines()
        ]
        assert [r["id"] for r in records] == [d.id for d in corpus.documents]
        again = ingest_corpus(manifest)
        assert [d.id for d in again] == [d.id for d in corpus]
        for doc in corpus:
            loaded = again.get(doc.id)
            assert loaded.title == doc.title
            assert loaded.token_counts == dict(doc.token_counts)

    @pytest.mark.parametrize("bad_id", ["../escaped", "sub/doc", "/abs"])
    def test_write_corpus_rejects_an_id_with_a_path_separator(self, tmp_path, bad_id):
        # the good id comes first: nothing may be written before every id is checked
        corpus = Corpus(
            documents=(
                Document.from_text("ok", "ok", "alpha beta"),
                Document.from_text(bad_id, "t", "gamma"),
            )
        )
        with pytest.raises(ValueError, match=re.escape(repr(bad_id))):
            write_corpus(corpus, tmp_path / "out", manifest=True)
        assert list(tmp_path.rglob("*")) == []
