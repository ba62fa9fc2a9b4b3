"""Count-table entropies against the distribution-building paths they replace.

The bit, data, information and intelligence layers take each entropy
straight from a count table with ``count_entropy``. The oracles here build
what those layers used to build first: a validated ``TokenDistribution`` of
``c / total`` floats, a ``Counter`` merge for the entropic gain, and a
``JointDistribution`` of (document, term) pairs with its two marginals.
Where both sides sum the same floats with ``math.fsum`` the results must be
equal, not close. The information marginals are now rounded once from
integer totals instead of summed per pair, so they get the 1e-12 absolute
tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import (
    Corpus,
    EntropicState,
    JointDistribution,
    TokenDistribution,
    bitstream_entropy,
    count_entropy,
    entropic_gain,
    joint_entropy,
    shannon_entropy,
)
from layerstack.pipeline import _bit_section, _data_section, _information_section

from helpers import make_corpus, make_doc

TERMS = [f"t{i}" for i in range(8)]
MARGINAL_TOL = 1e-12


def oracle_entropy(counts: Mapping[object, int]) -> float:
    """Entropy of a count table through a validated distribution."""
    total = sum(counts.values())
    return shannon_entropy(TokenDistribution({o: c / total for o, c in counts.items() if c > 0}))


def oracle_gain(state: EntropicState, candidate) -> float:
    merged: Counter[str] = Counter(state.macrostate)
    merged.update(candidate.token_counts)
    before = oracle_entropy(state.macrostate)
    after = oracle_entropy(merged)
    return state.reservoir_strength * (after - before)


def oracle_information(corpus: Corpus) -> dict[str, float] | None:
    pairs = {
        (doc.id, term): count
        for doc in corpus
        for term, count in doc.token_counts.items()
        if count > 0
    }
    if not pairs:
        return None
    grand = sum(pairs.values())
    joint = JointDistribution({pair: count / grand for pair, count in pairs.items()})
    joint_bits = joint_entropy(joint)
    document_bits = shannon_entropy(joint.marginal_transmitter())
    by_term: dict[str, list[float]] = {}
    for (_, term), p in joint.probabilities.items():
        by_term.setdefault(term, []).append(p)
    term_bits = shannon_entropy(TokenDistribution({t: math.fsum(ps) for t, ps in by_term.items()}))
    return {
        "joint_bits": joint_bits,
        "document_marginal_bits": document_bits,
        "term_marginal_bits": term_bits,
        "residual_term_bits_given_document": joint_bits - document_bits,
        "residual_document_bits_given_term": joint_bits - term_bits,
    }


# a row is a term-count table: zero-count entries and one-term rows both occur
rows = st.dictionaries(st.sampled_from(TERMS), st.integers(0, 9), max_size=len(TERMS))
nonempty_rows = rows.filter(lambda row: sum(row.values()) > 0)


@st.composite
def count_tables(draw) -> dict[str, dict[str, int]]:
    """{doc_id: {term: count}} for 1-8 documents; a document may be empty."""
    table = draw(st.lists(rows, min_size=1, max_size=8))
    return {f"d{i}": row for i, row in enumerate(table)}


@settings(max_examples=300)
@given(counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
def test_count_entropy_matches_distribution(counts):
    if sum(counts) == 0:
        return
    assert count_entropy(counts) == oracle_entropy(dict(enumerate(counts)))


def _random_bytes(seed: int, n: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


@settings(max_examples=200)
@given(
    data=st.one_of(
        st.binary(min_size=1, max_size=4096),
        st.builds(lambda v, n: bytes([v]) * n, st.integers(0, 255), st.integers(1, 300)),
        # longer than one histogram chunk, with lengths on and around its edges
        st.builds(_random_bytes, st.integers(0, 2**32 - 1), st.integers(2**16 - 1, 2**17 + 1)),
    )
)
def test_bitstream_entropy_matches_byte_counter(data):
    got = bitstream_entropy(data)
    assert got == oracle_entropy(Counter(data))
    if len(set(data)) == 1:
        assert got == 0.0


#: file sizes on and around the edges of the histogram's 64 KiB slices
_SLICE_EDGE_SIZES = [2**16 - 1, 2**16, 2**16 + 1, 2**17 - 1, 2**17, 2**17 + 1]


@settings(max_examples=100)
@given(
    files=st.lists(
        st.one_of(
            st.binary(max_size=64),
            st.builds(_random_bytes, st.integers(0, 2**32 - 1), st.sampled_from(_SLICE_EDGE_SIZES)),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_bit_section_pools_the_per_file_histograms(files):
    raw = {f"f{i}": data for i, data in enumerate(files)}
    notes: list[str] = []
    section = _bit_section(raw, True, notes)
    assert notes == [
        f"PipelineWarning: empty file for {doc_id!r}; no byte entropy"
        for doc_id in sorted(raw)
        if not raw[doc_id]
    ]
    joined = b"".join(raw[doc_id] for doc_id in sorted(raw))
    if not joined:
        assert section == {"skipped": True, "reason": "all input files are empty"}
        return
    assert section["pooled_bits_per_byte"] == bitstream_entropy(joined)
    assert section["per_document_bits_per_byte"] == {
        doc_id: bitstream_entropy(data) for doc_id, data in raw.items() if data
    }


@settings(max_examples=200)
@given(table=count_tables())
def test_data_section_matches_distributions(table):
    corpus = make_corpus(table)
    notes: list[str] = []
    section = _data_section(corpus, corpus.total_counts(), notes)
    empty = {doc.id for doc in corpus if doc.total_tokens == 0}
    assert notes == [
        f"PipelineWarning: document {doc.id!r} has no terms; excluded from token entropy"
        for doc in corpus
        if doc.id in empty
    ]
    if len(empty) == len(corpus):
        assert section["skipped"]
        return
    assert section["per_document_bits"] == {
        doc.id: oracle_entropy(doc.token_counts) for doc in corpus if doc.id not in empty
    }
    pooled: Counter[str] = Counter()
    for doc in corpus:
        pooled.update(doc.token_counts)
    assert section["corpus_bits"] == oracle_entropy(pooled)


@settings(max_examples=300)
@given(table=count_tables())
def test_information_section_matches_joint_distribution(table):
    corpus = make_corpus(table)
    section = _information_section(corpus, corpus.total_counts())
    expected = oracle_information(corpus)
    if expected is None:
        assert section["skipped"]
        return
    assert not section["skipped"]
    assert section["joint_bits"] == expected["joint_bits"]
    for key in (
        "document_marginal_bits",
        "term_marginal_bits",
        "residual_term_bits_given_document",
        "residual_document_bits_given_term",
    ):
        assert abs(section[key] - expected[key]) <= MARGINAL_TOL, key


@settings(max_examples=100)
@given(row=nonempty_rows)
def test_single_document_has_zero_document_marginal(row):
    corpus = make_corpus({"only": row})
    section = _information_section(corpus, corpus.total_counts())
    assert section["document_marginal_bits"] == 0.0
    assert section["joint_bits"] == section["term_marginal_bits"]


@settings(max_examples=300)
@given(
    macrostate=nonempty_rows,
    candidate=nonempty_rows,
    strength=st.sampled_from([0.25, 1.0, 3.0]),
)
def test_entropic_gain_matches_counter_merge(macrostate, candidate, strength):
    state = EntropicState(macrostate=macrostate, reservoir_strength=strength)
    doc = make_doc("candidate", candidate)
    assert entropic_gain(state, doc) == oracle_gain(state, doc)
    assert count_entropy(state.macrostate.values()) == oracle_entropy(macrostate)
