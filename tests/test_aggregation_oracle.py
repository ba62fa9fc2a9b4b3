"""Aggregation by table rows against a chain of rebuilt subsets.

``aggregate_corpus`` narrows its one corpus by sorted lists of table rows.
The reference here narrows it as a chain of ``Corpus.subset`` rebuilds, each
round clustering the subset's own rows and ranking each cluster as a subset
of its own, so every term id is compacted afresh. A subset's term ids keep
the corpus's order, so every sum reads the same floats in the same order:
each round's assignments, inertia trace, cluster rankings and selection, the
final ranking, the survivors and the notes must be equal under ``==``. The
centroids must be those of the subset on its terms and 0 elsewhere.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import Corpus, aggregate_corpus, kmeans, rank_documents, synthetic_corpus
from layerstack.intelligence import unit_term_rows

from helpers import make_corpus, make_doc


def subset_chain(corpus: Corpus, k: int, rounds: int, per_cluster: int, seed: int):
    """The aggregation loop on rebuilt subsets: per round, the subset, its
    clustering, its cluster rankings and its selection; then the final
    ranking, the survivors and the notes."""
    notes: list[str] = []
    current = corpus
    trace = []
    for index in range(rounds):
        if len(current) < 2:
            break
        ids, rows = unit_term_rows(current)
        notes.extend(
            f"AggregationWarning: document {doc.id!r} has no terms; excluded from clustering"
            for doc in current
            if doc.id not in ids
        )
        if len(ids) < 2:
            notes.append(
                f"AggregationWarning: aggregation stopped at round {index}: "
                "fewer than 2 vectorizable documents"
            )
            break
        clustering = kmeans(ids, rows, min(k, len(ids)), seed + index)
        rankings = []
        for cluster in range(clustering.k):
            members = clustering.members(cluster)
            if len(members) < 2:
                notes.append(
                    f"AggregationWarning: cluster {cluster} has {len(members)} member(s); "
                    "nothing selected"
                )
                rankings.append(())
                continue
            sub = current.subset(members)
            rankings.append(tuple(rank_documents(sub, top_k=per_cluster, notes=notes)))
        selected = tuple(res.doc_id for ranked in rankings for res in ranked)
        if len(selected) < 2:
            notes.append(
                f"AggregationWarning: aggregation stopped at round {index}: only "
                f"{len(selected)} document(s) would survive; keeping the previous selection"
            )
            break
        trace.append((current, clustering, tuple(rankings), selected))
        current = current.subset(selected)
    ranking = tuple(rank_documents(current, top_k=len(current), notes=notes))
    return trace, ranking, tuple(doc.id for doc in current), notes


@st.composite
def corpora(draw) -> Corpus:
    """Mostly a small synthetic corpus in one to three topics, else
    hand-drawn counts over a few terms; either may gain an empty document."""
    if draw(st.integers(0, 3)):
        sizes = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
        seed = draw(st.integers(0, 2**16))
        docs = list(synthetic_corpus(tuple(sizes), seed=seed, length_range=(20, 60))[0])
    else:
        counts = st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 6), max_size=8)
        tables = draw(st.lists(counts, min_size=2, max_size=12))
        docs = list(make_corpus({f"d{i:02d}": c for i, c in enumerate(tables)}))
    if draw(st.booleans()):
        docs.insert(draw(st.integers(0, len(docs))), make_doc("empty", {}))
    return Corpus(documents=tuple(docs))


@settings(max_examples=120, deadline=None)
@given(
    corpus=corpora(),
    k=st.integers(1, 5),
    rounds=st.integers(1, 3),
    per_cluster=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_aggregation_by_rows_equals_the_subset_chain(corpus, k, rounds, per_cluster, seed):
    k = min(k, len(corpus))
    trace, ranking, survivors, notes = subset_chain(corpus, k, rounds, per_cluster, seed)
    got_notes: list[str] = []
    result = aggregate_corpus(corpus, k, rounds, per_cluster, seed, notes=got_notes)

    assert len(result.rounds) == len(trace)
    terms = corpus.table.terms
    for got, (sub, clustering, rankings, selected) in zip(result.rounds, trace):
        assert got.clustering.assignments == clustering.assignments
        assert got.clustering.inertia_history == clustering.inertia_history
        assert got.cluster_rankings == rankings
        assert got.selected_ids == selected
        held = [terms.index(term) for term in sub.table.terms]
        assert got.clustering.centroids.shape == (clustering.k, len(terms))
        assert np.array_equal(got.clustering.centroids[:, held], clustering.centroids)
        assert not np.delete(got.clustering.centroids, held, axis=1).any()
    assert result.ranking == ranking
    assert result.survivor_ids == survivors
    assert got_notes == notes
