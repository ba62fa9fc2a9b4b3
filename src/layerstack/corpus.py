"""Corpus ingestion, tokenization, and term-frequency products.

Documents are plain-text UTF-8 files (or a JSON-lines manifest pointing at
them). Tokenization is deliberately simple and deterministic: lowercase,
split on anything non-alphanumeric, drop purely numeric tokens, drop stop
words. Everything downstream (entropy, correlation, clustering) consumes the
per-document term counts built here.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from math import log10
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .stopwords import ENGLISH_STOP_WORDS

# word characters minus underscore, applied to lowercased text
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def parse_stop_words(text: str) -> frozenset[str]:
    """Parse a stop-word override: one term per line, blank lines ignored.
    Terms are lowercased so the file may be written in any case."""
    return frozenset(line.strip().lower() for line in text.splitlines() if line.strip())


def load_stop_words(path: str | Path) -> frozenset[str]:
    """Read a UTF-8 stop-word override file (see :func:`parse_stop_words`)."""
    return parse_stop_words(read_source(Path(path))[1])


def tokenize(text: str, stop_words: frozenset[str] = ENGLISH_STOP_WORDS) -> list[str]:
    """Split ``text`` into terms: lowercase, alphanumeric runs only, purely
    numeric tokens and stop words removed, original order preserved."""
    return [
        tok
        for tok in _WORD_RE.findall(text.lower())
        if not tok.isdigit() and tok not in stop_words
    ]


def _repeated(ids: Iterable[str]) -> list[str]:
    """The ids that occur more than once, sorted; one counting pass."""
    return sorted(i for i, n in Counter(ids).items() if n > 1)


@dataclass(frozen=True)
class Document:
    """One ingested text with its term-count profile."""

    id: str
    title: str
    token_counts: Mapping[str, int]
    total_tokens: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        total = 0
        for term, count in self.token_counts.items():
            if not term or term != term.lower():
                raise ValueError(f"invalid term {term!r} in document {self.id!r}")
            if count < 0:
                raise ValueError(f"negative count for term {term!r} in {self.id!r}")
            total += count
        if total != self.total_tokens:
            raise ValueError(
                f"total_tokens {self.total_tokens} != sum of counts {total} in {self.id!r}"
            )

    @classmethod
    def from_text(
        cls,
        doc_id: str,
        title: str,
        text: str,
        stop_words: frozenset[str] = ENGLISH_STOP_WORDS,
    ) -> "Document":
        counts = Counter(tokenize(text, stop_words))
        return cls(
            id=doc_id,
            title=title,
            token_counts=dict(counts),
            total_tokens=sum(counts.values()),
        )


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of documents."""

    documents: tuple[Document, ...]
    stop_words: frozenset[str] = ENGLISH_STOP_WORDS
    vocabulary: frozenset[str] = field(init=False)
    _by_id: Mapping[str, Document] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = {d.id: d for d in self.documents}
        if len(by_id) != len(self.documents):
            raise ValueError(f"duplicate document ids: {_repeated(d.id for d in self.documents)}")
        object.__setattr__(self, "_by_id", by_id)
        vocab: set[str] = set()
        for doc in self.documents:
            overlap = self.stop_words.intersection(doc.token_counts)
            if overlap:
                raise ValueError(
                    f"stop words present in document {doc.id!r}: {sorted(overlap)[:5]}"
                )
            vocab.update(t for t, c in doc.token_counts.items() if c > 0)
        object.__setattr__(self, "vocabulary", frozenset(vocab))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def get(self, doc_id: str) -> Document:
        return self._by_id[doc_id]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def subset(self, doc_ids: Iterable[str]) -> "Corpus":
        """Restrict to the given ids, keeping lexicographic-id order."""
        wanted = set(doc_ids)
        missing = wanted - self._by_id.keys()
        if missing:
            raise KeyError(f"ids not in corpus: {sorted(missing)}")
        kept = tuple(d for d in self.documents if d.id in wanted)
        return Corpus(documents=kept, stop_words=self.stop_words)

    def total_counts(self) -> Counter[str]:
        """Aggregate term counts over every document."""
        total: Counter[str] = Counter()
        for doc in self.documents:
            total.update(doc.token_counts)
        return +total

    def leave_one_out_counts(self, doc_id: str) -> Counter[str]:
        """Aggregate term counts over every document except ``doc_id``."""
        held_out = self.get(doc_id)
        rest = self.total_counts()
        rest.subtract(held_out.token_counts)
        return +rest  # drops zero and negative entries


class ScatterPoint(NamedTuple):
    """One term's relative frequency in a document versus a reference body,
    with the signed log10 ratio between the two."""

    term: str
    doc_proportion: float
    reference_proportion: float
    deviation: float


def top_k_terms(doc: Document, k: int) -> list[tuple[str, int]]:
    """The ``k`` most frequent terms, descending by count, ties broken by
    ascending term."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return heapq.nsmallest(k, doc.token_counts.items(), key=lambda kv: (-kv[1], kv[0]))


def frequency_scatter(
    doc: Document, reference: Mapping[str, int]
) -> list[ScatterPoint]:
    """Compare a document's term proportions against a reference count table.

    Emits one point per term present on both sides (terms absent from either
    side would have an infinite log ratio and are skipped), ordered
    lexicographically by term. ``deviation`` is
    log10(doc_proportion) - log10(reference_proportion): positive means the
    term is relatively more frequent in the document than in the reference.
    """
    if doc.total_tokens == 0:
        raise ValueError(f"empty document {doc.id!r}")
    ref_total = sum(reference.values())
    if ref_total == 0:
        raise ValueError("empty reference")
    points = []
    for term in sorted(doc.token_counts):
        doc_count = doc.token_counts[term]
        ref_count = reference.get(term, 0)
        if doc_count <= 0 or ref_count <= 0:
            continue
        dp = doc_count / doc.total_tokens
        rp = ref_count / ref_total
        points.append(ScatterPoint(term, dp, rp, log10(dp) - log10(rp)))
    return points


def resolve_sources(source: str | Path) -> list[tuple[str, str, Path]]:
    """Resolve a corpus source into (id, title, path) triples, sorted by id.

    A directory yields one entry per ``*.txt`` file (id = title = file stem);
    a file is read as a JSON-lines manifest with records
    ``{"id": ..., "title": ..., "path": ...}`` where relative paths are taken
    relative to the manifest's directory.
    """
    src = Path(source)
    if src.is_dir():
        entries = [(p.stem, p.stem, p) for p in src.glob("*.txt")]
        if not entries:
            raise ValueError(f"empty corpus: no .txt files in {src}")
    elif src.is_file():
        entries = []
        for line_no, line in enumerate(read_source(src)[1].splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad manifest line {line_no} in {src}: {exc}") from exc
            try:
                doc_id, title, path = record["id"], record["title"], record["path"]
            except (TypeError, KeyError) as exc:
                raise ValueError(
                    f"manifest line {line_no} in {src} needs id/title/path"
                ) from exc
            for name, value in (("id", doc_id), ("title", title), ("path", path)):
                if not isinstance(value, str):
                    raise ValueError(
                        f"manifest line {line_no} in {src}: {name} must be a string, "
                        f"got {type(value).__name__}"
                    )
            doc_path = Path(path)
            if not doc_path.is_absolute():
                doc_path = src.parent / doc_path
            entries.append((doc_id, title, doc_path))
        if not entries:
            raise ValueError(f"empty corpus: no records in manifest {src}")
    else:
        raise ValueError(f"corpus source not found: {src}")
    dupes = _repeated(e[0] for e in entries)
    if dupes:
        raise ValueError(f"duplicate document ids in source: {dupes}")
    return sorted(entries, key=lambda e: e[0])


def read_source(path: Path) -> tuple[bytes, str]:
    """Read one input file: its raw bytes and their UTF-8 text."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not valid UTF-8: {exc}") from exc


def read_documents(
    source: str | Path, stop_words: frozenset[str] = ENGLISH_STOP_WORDS
) -> Iterator[tuple[Document, bytes]]:
    """Read each source of a corpus once, in id order, yielding its
    tokenized document and the raw bytes it came from."""
    for doc_id, title, path in resolve_sources(source):
        data, text = read_source(path)
        yield Document.from_text(doc_id, title, text, stop_words), data


def ingest_corpus(
    source: str | Path, stop_words: frozenset[str] = ENGLISH_STOP_WORDS
) -> Corpus:
    """Build a :class:`Corpus` from a directory of ``.txt`` files or a
    JSON-lines manifest. Document order is lexicographic by id; ingestion is
    fully deterministic for fixed inputs and stop words."""
    docs = tuple(doc for doc, _ in read_documents(source, stop_words))
    return Corpus(documents=docs, stop_words=stop_words)
