"""Seeded corpus generators, one per benchmark workload.

Each generator writes a directory of UTF-8 ``.txt`` files; the program under
test only ever sees those files. The same seed gives the same bytes, and the
amount of work (documents, tokens, vocabulary) is nearly the same for every
seed, so run-to-run spread comes from the machine, not from the input size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_ACCENTED = "éüøåßñçö"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments, run from the directory holding corpus/
    generate: Callable[[Path, int], None]


def _syllable_words(count: int, syllables: list[str], skip: frozenset[str]) -> list[str]:
    """The first ``count`` words spelled in base-len(syllables), two or more
    syllables each, skipping any word in ``skip``."""
    base = len(syllables)
    words: list[str] = []
    i = base  # start at two-syllable words
    while len(words) < count:
        n, parts = i, []
        while n:
            n, r = divmod(n, base)
            parts.append(syllables[r])
        word = "".join(parts)
        if word not in skip:
            words.append(word)
        i += 1
    return words


def _zipf(size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** exponent
    return weights / weights.sum()


def _write(directory: Path, texts: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for doc_id, text in texts.items():
        (directory / f"{doc_id}.txt").write_text(text, encoding="utf-8")


def skewed324(directory: Path, seed: int) -> None:
    """The acceptance gate's skewed corpus: 270/36/18 documents over three
    topics of the program's own synthetic generator, 220 terms."""
    from layerstack.synthetic import synthetic_corpus, write_corpus

    corpus, _ = synthetic_corpus((270, 36, 18), seed=seed)
    write_corpus(corpus, directory)


def wide600(directory: Path, seed: int) -> None:
    """600 documents of 400-600 tokens over an 8,000-word vocabulary.

    Each document belongs to one of nine equal topics. A topic ranks the
    vocabulary by its own evenly spaced rotation, with a seeded tenth of
    neighbouring ranks swapped, and 85% of a document's tokens follow a
    steep Zipf law (exponent 2) over that ranking. The other 15% are drawn
    uniformly from the whole vocabulary, so nearly every word occurs. The
    steep heads keep each topic a tight cluster, so k-means converges in two
    passes to one cluster per topic on every seed tried (0 to 64). With a
    flat law, k-means++ often seeded two centroids in one topic, and the
    seed moved the pass count from 2 to 10."""
    from layerstack.stopwords import ENGLISH_STOP_WORDS

    rng = np.random.default_rng(seed)
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    vocab = np.array(_syllable_words(8000, syllables, ENGLISH_STOP_WORDS))
    head = _zipf(vocab.size, 2.0)
    spacing = vocab.size // 9
    topics = []
    for j in range(9):
        order = np.roll(np.arange(vocab.size), j * spacing + int(rng.integers(spacing // 4)))
        swaps = rng.choice(vocab.size - 1, size=vocab.size // 10, replace=False)
        order[swaps], order[swaps + 1] = order[swaps + 1], order[swaps].copy()
        topics.append(vocab[order])
    topic_of = rng.permutation(np.arange(600) % 9)
    texts = {}
    for i in range(600):
        length = int(rng.integers(400, 601))
        background = rng.binomial(length, 0.15)
        tokens = np.concatenate(
            [
                rng.choice(topics[topic_of[i]], size=length - background, p=head),
                rng.choice(vocab, size=background),
            ]
        )
        rng.shuffle(tokens)
        lines = [" ".join(tokens[j : j + 12]) for j in range(0, tokens.size, 12)]
        texts[f"doc{i:03d}"] = "\n".join(lines) + "\n"
    _write(directory, texts)


def longdocs8(directory: Path, seed: int) -> None:
    """8 documents of about 740 KB of word-like prose each.

    Words mix case, carry punctuation, and include stop words, numbers and
    non-ASCII letters, so the tokenizer's lowercasing, splitting and
    filtering all do work. Each document draws from its own rotation of a
    26,000-word Zipf vocabulary, giving about 27,000 distinct terms."""
    from layerstack.stopwords import ENGLISH_STOP_WORDS

    rng = np.random.default_rng(seed)
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS + _ACCENTED[:3]]
    syllables += [c + v for c in _ACCENTED[3:] for v in _VOWELS]
    content = np.array(_syllable_words(26000, syllables, ENGLISH_STOP_WORDS))
    stop = np.array(sorted(ENGLISH_STOP_WORDS))
    content_probs = _zipf(content.size, 1.1)
    stop_probs = _zipf(stop.size, 0.8)
    punctuation = np.array(["", "", "", "", "", "", ",", ".", ";", ":", "!", "?", ")"])
    texts = {}
    n = 119_000  # tokens per document, about 740 KB
    for i in range(8):
        words = np.roll(content, int(rng.integers(content.size)))
        is_stop = rng.random(n) < 0.4
        tokens = np.where(
            is_stop,
            rng.choice(stop, size=n, p=stop_probs),
            rng.choice(words, size=n, p=content_probs),
        ).astype(object)
        numbers = rng.random(n) < 0.03
        tokens[numbers] = [str(v) for v in rng.integers(0, 100_000, size=int(numbers.sum()))]
        codes = rng.random(n) < 0.01
        tokens[codes] = [f"x{v}" for v in rng.integers(0, 500, size=int(codes.sum()))]
        case = rng.random(n)
        marks = punctuation[rng.integers(punctuation.size, size=n)]
        out = []
        for token, c, mark in zip(tokens, case, marks):
            if c < 0.08:
                token = token.capitalize()
            elif c < 0.1:
                token = token.upper()
            out.append(token + mark)
        lines = [" ".join(out[j : j + 14]) for j in range(0, n, 14)]
        texts[f"long{i}"] = "\n".join(lines) + "\n"
    _write(directory, texts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-skewed324",
            ("run", "corpus", "--k", "9", "--out", "out"),
            skewed324,
        ),
        Workload(
            "aggregate-wide600",
            ("aggregate", "corpus", "--k", "9"),
            wide600,
        ),
        Workload(
            "run-longdocs8",
            ("run", "corpus", "--k", "3", "--force-bit-layer", "--out", "out"),
            longdocs8,
        ),
    )
}


def corpus_sha256(directory: Path) -> str:
    """SHA-256 over the sorted (file name, bytes) pairs of a corpus."""
    hasher = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        hasher.update(path.name.encode() + b"\x1f" + path.read_bytes() + b"\x1e")
    return hasher.hexdigest()
