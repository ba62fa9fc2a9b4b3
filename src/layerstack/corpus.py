r"""Corpus ingestion, tokenization, and term-frequency products.

Documents are plain-text UTF-8 files (or a JSON-lines manifest pointing at
them). Tokenization is deliberately simple and deterministic: lowercase,
split on anything non-alphanumeric, drop purely numeric tokens, drop stop
words. Everything downstream (entropy, correlation, clustering) consumes the
per-document term counts built here. A :class:`Corpus` holds them once more
as an integer :class:`CountTable` with both margins, each row's and each
term's total, summed once when it is built, and the sorted vocabulary,
which the corpus stores nowhere else. The data and information layers, the
rankings, the k-means rows, the macrostate, the belief evidence, fig3 and
fig4 read the table; fig4's reference counts and the entropic gains still
read the maps.

The words of a lowercased text are its runs of ``[^\W_]+``, that is of the
characters for which ``str.isalnum()`` holds: the regex engine's ``\w`` is
``isalnum()`` plus ``_``. Every text is split the same way: its UTF-8
bytes pass through a 256-byte table that maps each ASCII byte that is not
alphanumeric (``_`` included) to a space and keeps every byte of a non-ASCII
character, and ``str.split()`` cuts the result into runs. A run is a word
unless it holds a non-ASCII separator, such as ``’``, ``—`` or a combining
mark; each such distinct run is split once more by the regex.
:func:`count_terms` tallies the runs, then drops numeric words and stop
words from the distinct words, so those rules run once per term rather than
once per token.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import stat
from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .stopwords import ENGLISH_STOP_WORDS

# word characters minus underscore, applied to lowercased text
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
# UTF-8 bytes: every ASCII byte that is not alphanumeric, ``_`` included, to
# a space; bytes of non-ASCII characters (0x80 and up) kept
_SPACES = bytes(c if c >= 0x80 or chr(c).isalnum() else 0x20 for c in range(256))
#: a count table's counts sum to less than this: every pooled sum then fits
#: int64, and every count / total is the float Python's int / int gives
_COUNT_LIMIT = 2**53
#: a pass over a run of table rows takes rows until their entries reach this
#: many, so its arrays stay bounded by it and the longest row
_PASS_ENTRIES = 4096


def parse_stop_words(text: str) -> frozenset[str]:
    """Parse a stop-word override: one term per line, blank lines ignored.
    Terms are lowercased so the file may be written in any case."""
    return frozenset(line.strip().lower() for line in text.splitlines() if line.strip())


def load_stop_words(path: str | Path) -> frozenset[str]:
    """Read a UTF-8 stop-word override file (see :func:`parse_stop_words`)."""
    return parse_stop_words(read_source(Path(path))[1])


def count_terms(text: str, stop_words: frozenset[str] = ENGLISH_STOP_WORDS) -> dict[str, int]:
    """The count of each term of ``text``: each run of ``[^\\W_]+`` in the
    lowercased text that is neither purely numeric nor a stop word, keyed in
    order of first occurrence.

    The whitespace-separated runs of the translated bytes (see the module
    docstring) are counted first. If a run holds a non-ASCII separator, the
    distinct runs are walked in first-occurrence order and each gives its
    count to each of its words. A word first occurs inside the first
    occurrence of a run that holds it, so the words keep their order.
    Numeric words and stop words are then dropped from the distinct words."""
    spaced = text.lower().encode("utf-8", "surrogatepass").translate(_SPACES)
    counts = Counter(spaced.decode("utf-8", "surrogatepass").split())
    if not all(map(str.isalnum, counts)):
        runs, counts = counts, {}
        for run, n in runs.items():
            for word in (run,) if run.isalnum() else _WORD_RE.findall(run):
                counts[word] = counts.get(word, 0) + n
    for word in [w for w in counts if w.isdigit() or w in stop_words]:
        del counts[word]
    return dict(counts)


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
        if any(c in self.title for c in "\t\r\n"):
            raise ValueError(f"title of {self.id!r} contains a tab or line break: {self.title!r}")
        total = 0
        for term, count in self.token_counts.items():
            if not isinstance(term, str) or not term or term != term.lower():
                raise ValueError(f"invalid term {term!r} in document {self.id!r}")
            # int first: an isinstance check against the Integral ABC is far slower
            if type(count) is not int and not isinstance(count, Integral):
                raise ValueError(
                    f"count of term {term!r} in {self.id!r} is not an integer: {count!r}"
                )
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
        counts = count_terms(text, stop_words)
        return cls(
            id=doc_id, title=title, token_counts=counts, total_tokens=sum(counts.values())
        )


def _entries(indptr: np.ndarray, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray | slice]:
    """The row pointers of ``rows`` laid end to end, and the positions of
    their entries in the CSR arrays ``indptr`` points into: a slice when the
    rows are consecutive, else an index array.

    Keep the slice: the column margin, a whole corpus's k-means rows and
    aggregation's first round take all rows, which it reads as views where
    an index array copies every entry. Without it, ``aggregate_corpus(k=9)``
    on wide600 peaked at 3.58 MB traced instead of 2.18 MB, and
    ``aggregate-wide600`` at 49.0 MB ``peak_rss_mb`` instead of 48.5, in the
    same median time."""
    rows = np.asarray(rows, dtype=np.intp)
    lengths = indptr[rows + 1] - indptr[rows]
    local = np.concatenate(([0], np.cumsum(lengths)))
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1 and (rows[1:] > rows[:-1]).all():
        return local, slice(int(indptr[rows[0]]), int(indptr[rows[-1] + 1]))
    return local, np.repeat(indptr[rows] - local[:-1], lengths) + np.arange(local[-1])


def _entry_runs(indptr: np.ndarray, rows: Sequence[int]) -> Iterator[tuple]:
    """``rows`` in order, cut into runs that start in one ``_PASS_ENTRIES``
    window: each run's rows and :func:`_entries`, from one layout of ``rows``."""
    rows = np.asarray(rows, dtype=np.intp)
    local, take = _entries(indptr, rows)
    run = local[:-1] // _PASS_ENTRIES
    cuts = [0, *(np.flatnonzero(run[1:] != run[:-1]) + 1).tolist(), len(rows)]
    # gaps[i]: how many of rows[1:i + 1] do not follow the row before them
    gaps = np.concatenate(([0], np.cumsum(rows[1:] != rows[:-1] + 1))).tolist()
    starts, offsets = indptr[rows].tolist(), local.tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        a, b = offsets[lo], offsets[hi]
        consecutive = hi > lo and gaps[hi - 1] == gaps[lo]
        part = slice(starts[lo], starts[lo] + b - a) if consecutive else take[a:b]
        yield rows[lo:hi], local[lo : hi + 1] - a, part


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of every segment ``values[..., bounds[i]:bounds[i +
    1]]``, bit for bit, in one call; ``bounds`` runs from 0 to the length of
    the last axis.

    numpy reduces a segment as 0.0 plus the pairwise sum of its elements,
    while ``np.add.reduceat`` starts from the first element and so groups
    the additions differently. Laid after a 0.0 of its own, each segment's
    ``reduceat`` is again 0.0 plus its pairwise sum, along any axis, and an
    empty segment reads 0.0."""
    lengths = np.diff(bounds)
    heads = bounds[:-1] + np.arange(len(lengths))
    led = np.zeros(values.shape[:-1] + (bounds[-1] + len(lengths),))
    led[..., np.arange(bounds[-1]) + np.repeat(np.arange(1, len(lengths) + 1), lengths)] = values
    return np.add.reduceat(led, heads, axis=-1)


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each CSR row's sum of ``values``, in their dtype, an empty row's 0,
    by one ``np.add.reduceat``. Where :func:`_segment_sums` must equal
    ``np.add.reduce`` bit for bit, this groups the additions as k-means's
    x·c does (``intelligence._products``), so a row equal to a centroid
    reads d² = 0 exactly: its ‖x‖², ‖c‖² and x·c sum the same squares."""
    out = np.zeros(len(indptr) - 1, dtype=values.dtype)
    filled = np.flatnonzero(np.diff(indptr))
    out[filled] = np.add.reduceat(values, indptr[filled])
    return out


@dataclass(frozen=True, eq=False)
class CountTable:
    """Term counts of a sequence of documents as integer rows in CSR form
    (Saad, *Iterative Methods for Sparse Linear Systems*, §3.4).

    ``terms`` is the sorted vocabulary, so term ids run in lexicographic
    order. Row i holds document i's positive counts: ``counts[indptr[i]:
    indptr[i + 1]]``, of the terms whose ids are the same slice of
    ``term_ids``, in increasing id order. The margins are summed once, in
    int64: ``row_totals[i]`` is row i's count sum, its document's
    ``total_tokens``, and ``term_totals[j]`` term j's. All are read-only."""

    terms: tuple[str, ...]
    indptr: np.ndarray
    term_ids: np.ndarray
    counts: np.ndarray
    row_totals: np.ndarray = field(init=False)
    term_totals: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_totals", _row_sums(self.indptr, self.counts))
        object.__setattr__(self, "term_totals", self.pooled(range(len(self.indptr) - 1)))
        for array in (self.indptr, self.term_ids, self.counts, self.row_totals, self.term_totals):
            array.flags.writeable = False

    @classmethod
    def build(cls, documents: Iterable[Document]) -> "CountTable":
        """The table of ``documents``, one row each, in their order."""
        ends, keys, values = [0], [], []
        for doc in documents:
            for term, count in doc.token_counts.items():
                if count > 0:
                    keys.append(term)
                    values.append(count)
            ends.append(len(keys))
        total = sum(values)
        if total >= _COUNT_LIMIT:
            raise ValueError(f"term counts sum to {total}, not below 2**53")
        terms = tuple(sorted(set(keys)))
        index = {term: i for i, term in enumerate(terms)}
        term_ids = np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
        indptr = np.array(ends, dtype=np.intp)
        # one key per entry, unique, so any sort gives the row-major order
        key = np.repeat(np.arange(len(ends) - 1) * len(terms), np.diff(indptr))
        key += term_ids
        order = np.argsort(key)
        counts = np.fromiter(values, np.int64, len(values))
        return cls(terms, indptr, term_ids[order], counts[order])

    def pooled(self, rows: Sequence[int]) -> np.ndarray:
        """Every term's count summed over the selection ``rows``, by term id,
        in int64, through :func:`_entries`. A term none of the rows holds
        reads 0. The sum over all rows is ``term_totals``."""
        take = _entries(self.indptr, rows)[1]
        totals = np.zeros(len(self.terms), dtype=np.int64)
        np.add.at(totals, self.term_ids[take], self.counts[take])
        return totals


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of documents, with their term
    counts as one :class:`CountTable` (row i is document i), whose sorted
    ``terms`` are the vocabulary. Stop words are the tokenizer's rule
    (:func:`count_terms`), not the corpus's."""

    documents: tuple[Document, ...]
    table: CountTable = field(init=False, repr=False, compare=False)
    _by_id: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = {d.id: i for i, d in enumerate(self.documents)}
        if len(by_id) != len(self.documents):
            raise ValueError(f"duplicate document ids: {_repeated(d.id for d in self.documents)}")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "table", CountTable.build(self.documents))

    @property
    def vocabulary(self) -> frozenset[str]:
        """Every term of the corpus: the table's ``terms`` as a set."""
        return frozenset(self.table.terms)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def get(self, doc_id: str) -> Document:
        return self.documents[self._by_id[doc_id]]

    def position(self, doc_id: str) -> int:
        """Index of ``doc_id`` in ``documents``, and so its table row."""
        return self._by_id[doc_id]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def subset(self, doc_ids: Iterable[str]) -> "Corpus":
        """A new corpus of the given ids, in this corpus's document order,
        built afresh, so its table holds only their terms. The program
        narrows a corpus by lists of its table rows instead (see
        ``rank_documents`` and ``unit_term_rows``); this is their reference."""
        wanted = set(doc_ids)
        missing = wanted - self._by_id.keys()
        if missing:
            raise KeyError(f"ids not in corpus: {sorted(missing)}")
        rows = sorted(self._by_id[doc_id] for doc_id in wanted)
        return Corpus(documents=tuple(self.documents[i] for i in rows))

    def leave_one_out_counts(self, doc_id: str) -> Counter[str]:
        """Aggregate term counts over every document except ``doc_id``: the
        one pool of the string-keyed counts, where fig4 looks its reference
        counts up."""
        held_out = self._by_id[doc_id]
        rest: Counter[str] = Counter()
        for i, doc in enumerate(self.documents):
            if i != held_out:
                rest.update(doc.token_counts)
        return +rest  # drops zero entries


def top_k_terms(doc: Document, k: int) -> list[tuple[str, int]]:
    """The ``k`` most frequent terms, descending by count, ties broken by
    ascending term."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return heapq.nsmallest(k, doc.token_counts.items(), key=lambda kv: (-kv[1], kv[0]))


def shared_proportions(
    counts: np.ndarray,
    total: int | np.ndarray,
    reference: np.ndarray,
    reference_total: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one shared-term rule, of the scorer and of fig4: the positions
    where two aligned count arrays are both positive, and the proportions
    there, ``counts / total`` and ``reference / reference_total``. Each
    total is an int, or an array aligned with the counts that gives each
    position its own; either is broadcast to the counts' shape. Only the
    shared positions are divided. IEEE division of integers below 2**53, as
    a count table holds, gives the floats Python's ``int / int`` gives."""
    shared = np.flatnonzero((counts > 0) & (reference > 0))
    return (
        shared,
        np.divide(counts[shared], np.broadcast_to(total, counts.shape)[shared]),
        np.divide(reference[shared], np.broadcast_to(reference_total, counts.shape)[shared]),
    )


def _check_utf8(text: str, where: str) -> None:
    """Reject a name with a lone surrogate, which no UTF-8 output can hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{where} is not valid UTF-8: {text!r}") from exc


def resolve_sources(source: str | Path) -> list[tuple[str, str, Path]]:
    """Resolve a corpus source into (id, title, path) triples, sorted by id.

    A directory yields one entry per ``*.txt`` file (id = title = file stem);
    any other path is read, if it is a regular file, as a JSON-lines
    manifest with records
    ``{"id": ..., "title": ..., "path": ...}`` where relative paths are taken
    relative to the manifest's directory; ids and titles must be UTF-8.
    """
    src = Path(source)
    if src.is_dir():
        entries = [(p.stem, p.stem, p) for p in src.glob("*.txt")]
        for _, _, path in entries:
            _check_utf8(path.name, f"file name in {src}")
        if not entries:
            raise ValueError(f"empty corpus: no .txt files in {src}")
    elif src.exists():
        entries = []
        for line_no, line in enumerate(read_source(src)[1].splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)  # RecursionError when nested too deeply
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"bad manifest line {line_no} in {src}: {exc}") from exc
            where = f"manifest line {line_no} in {src}"
            try:
                doc_id, title, path = record["id"], record["title"], record["path"]
            except (TypeError, KeyError) as exc:
                raise ValueError(f"{where} needs id/title/path") from exc
            for name, value in (("id", doc_id), ("title", title), ("path", path)):
                if not isinstance(value, str):
                    kind = type(value).__name__
                    raise ValueError(f"{where}: {name} must be a string, got {kind}")
                if name != "path":
                    _check_utf8(value, f"{where}: {name}")
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
    """Read one input file: its raw bytes and their UTF-8 text, without a
    leading byte-order mark (the raw bytes keep it). Only a regular file is
    read: the path is opened without blocking, so a FIFO with no writer
    cannot hang, and a descriptor that is not a regular file, such as a
    directory, a FIFO or a device, is a ``ValueError`` before any read."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            if regular:
                with open(fd, "rb", closefd=False) as file:
                    data = file.read()
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not regular:
        raise ValueError(f"cannot read {path}: not a regular file")
    try:
        return data, data.decode("utf-8-sig")
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
    return Corpus(documents=docs)
