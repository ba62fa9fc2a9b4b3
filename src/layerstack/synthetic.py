"""Seeded synthetic corpus generator for demonstrations and shape tests.

Documents are drawn from a small set of topic word-distributions. Every
topic shares a common core vocabulary (so cross-document correlations are
meaningful) and adds its own terms; term weights fall off harmonically so
the profiles look Zipf-like. Generation is fully deterministic for a fixed
seed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, Document

SHARED_TERMS = 40
TOPIC_TERMS = 60
SHARED_MASS = 0.35
_TERMS_PER_LINE = 12


def topic_distributions(n_topics: int) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """Per-topic (terms, probabilities) pairs. Each topic mixes the common
    core vocabulary (total weight ``SHARED_MASS``) with its own terms."""
    if n_topics < 1:
        raise ValueError(f"n_topics must be >= 1, got {n_topics}")
    core = tuple(f"core{i:02d}" for i in range(SHARED_TERMS))
    core_weights = np.array([1.0 / (i + 1) for i in range(SHARED_TERMS)])
    core_weights /= core_weights.sum()
    own_weights = np.array([1.0 / (i + 1) for i in range(TOPIC_TERMS)])
    own_weights /= own_weights.sum()
    probs = np.concatenate([SHARED_MASS * core_weights, (1.0 - SHARED_MASS) * own_weights])
    probs /= probs.sum()
    return [
        (core + tuple(f"topic{j}term{i:02d}" for i in range(TOPIC_TERMS)), probs.copy())
        for j in range(n_topics)
    ]


def synthetic_corpus(
    topic_doc_counts: Sequence[int] = (18, 12, 6),
    seed: int = 0,
    length_range: tuple[int, int] = (400, 600),
) -> tuple[Corpus, dict[str, int]]:
    """Generate a corpus of multinomial draws from the topic distributions.

    ``topic_doc_counts[j]`` documents are drawn from topic j with lengths
    uniform over ``length_range``. Returns the corpus plus a doc_id → topic
    index map. Ids are ``doc000`` onward, in topic order.
    """
    if not topic_doc_counts or any(c < 0 for c in topic_doc_counts):
        raise ValueError("topic_doc_counts must be non-negative")
    lo, hi = length_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad length_range {length_range!r}")
    rng = np.random.default_rng(seed)
    topics = topic_distributions(len(topic_doc_counts))
    documents: list[Document] = []
    topic_of: dict[str, int] = {}
    index = 0
    for j, doc_count in enumerate(topic_doc_counts):
        terms, probs = topics[j]
        for _ in range(doc_count):
            length = int(rng.integers(lo, hi + 1))
            counts = rng.multinomial(length, probs)
            token_counts = {t: int(c) for t, c in zip(terms, counts) if c > 0}
            doc_id = f"doc{index:03d}"
            documents.append(
                Document(
                    id=doc_id,
                    title=f"Synthetic study {index:03d} (topic {j})",
                    token_counts=token_counts,
                    total_tokens=length,
                )
            )
            topic_of[doc_id] = j
            index += 1
    return Corpus(documents=tuple(documents)), topic_of


def document_text(token_counts: Mapping[str, int]) -> str:
    """Flatten a count profile into plain text that tokenizes back to the
    exact same counts (terms sorted, repeated, wrapped)."""
    tokens: list[str] = []
    for term in sorted(token_counts):
        tokens.extend([term] * token_counts[term])
    lines = [
        " ".join(tokens[i : i + _TERMS_PER_LINE])
        for i in range(0, len(tokens), _TERMS_PER_LINE)
    ]
    return "\n".join(lines) + "\n"


def write_corpus(
    corpus: Corpus, directory: str | Path, manifest: bool = False
) -> Path:
    """Write one ``<doc_id>.txt`` per document; with ``manifest=True`` also
    write ``manifest.jsonl`` preserving titles. Returns the ingestion source
    path (the manifest if written, else the directory).

    Raises ValueError, and writes nothing, if an id holds a path separator:
    its file would land outside ``directory``."""
    for doc in corpus:
        if "/" in doc.id or os.sep in doc.id:
            raise ValueError(f"document id {doc.id!r} holds a path separator")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for doc in corpus:
        name = f"{doc.id}.txt"
        (out / name).write_text(document_text(doc.token_counts), encoding="utf-8")
        records.append({"id": doc.id, "title": doc.title, "path": name})
    if manifest:
        path = out / "manifest.jsonl"
        body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        path.write_text(body, encoding="utf-8")
        return path
    return out
