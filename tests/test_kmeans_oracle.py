"""Sparse k-means against the dense N x k x V implementation it replaced.

The oracle below is that implementation, kept verbatim apart from its
input: dense unit rows laid out over the vocabulary, stacked into an N x V
array, and a distance tensor broadcast to N x k x V on every pass. The
sparse path must give the same assignments, inertia trace and centroids,
bit for bit, and must not come near the tensor's memory.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import intelligence
from layerstack.intelligence import kmeans, unit_term_rows

from helpers import make_doc


def dense_rows(docs, vocabulary):
    rows = []
    for doc in docs:
        values = np.array(
            [doc.token_counts.get(t, 0) / doc.total_tokens for t in vocabulary], dtype=float
        )
        rows.append(values / float(np.linalg.norm(values)))
    return np.vstack(rows)


def dense_kmeans(points, k, seed):
    """(labels, inertia history, centroids) of the dense implementation."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            index = int(rng.integers(n))
        else:
            index = int(rng.choice(n, p=d2 / total))
        chosen.append(index)
        d2 = np.minimum(d2, ((points - points[index]) ** 2).sum(axis=1))
    centroids = points[chosen].copy()

    def assignment_pass():
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        return labels, float(d2[np.arange(n), labels].sum())

    assign = None
    history = []
    for _ in range(intelligence.MAX_KMEANS_ITERATIONS):
        labels, inertia = assignment_pass()
        history.append(inertia)
        converged = assign is not None and np.array_equal(labels, assign)
        assign = labels
        if converged:
            break
        updated = np.empty_like(centroids)
        for c in range(k):
            mask = assign == c
            if mask.any():
                updated[c] = points[mask].mean(axis=0)
            else:
                farthest = int(np.argmax(((points - centroids[c]) ** 2).sum(axis=1)))
                updated[c] = points[farthest]
        centroids = updated
    else:
        assign, inertia = assignment_pass()
        history.append(inertia)
    return assign, tuple(history), centroids


def assert_matches_oracle(docs, vocabulary, k, seed):
    ids, rows = unit_term_rows(docs, vocabulary)
    points = dense_rows(docs, vocabulary)
    assert np.array_equal(rows.dense(), points)
    clustering = kmeans(ids, rows, k, seed)
    labels, history, centroids = dense_kmeans(points, k, seed)
    assert clustering.assignments == {i: int(c) for i, c in zip(ids, labels)}
    assert clustering.inertia_history == history
    assert np.array_equal(clustering.centroids, centroids)


@st.composite
def count_tables(draw):
    """(docs, vocabulary, k, seed): a few distinct documents, some of them
    single-term, then duplicated so that rows and centroids tie exactly."""
    v = draw(st.integers(1, 8))
    vocabulary = [f"t{j}" for j in range(v)]
    single = st.builds(lambda j, c: {vocabulary[j]: c}, st.integers(0, v - 1), st.integers(1, 4))
    mixed = st.lists(st.integers(0, 4), min_size=v, max_size=v).filter(any).map(
        lambda counts: {t: c for t, c in zip(vocabulary, counts) if c}
    )
    bases = draw(st.lists(st.one_of(single, mixed), min_size=1, max_size=6))
    copies = draw(st.lists(st.integers(0, len(bases) - 1), max_size=6))
    tables = bases + [bases[i] for i in copies]
    docs = [make_doc(f"d{i:02d}", counts) for i, counts in enumerate(tables)]
    k = draw(st.integers(1, len(docs)))
    seed = draw(st.integers(0, 2**16))
    return docs, vocabulary, k, seed


@pytest.mark.parametrize("block_floats", [1, 5, 2**18])
@settings(max_examples=150, deadline=None)
@given(table=count_tables())
def test_sparse_kmeans_equals_dense_oracle(block_floats, table):
    # block_floats 1 and 5 put block edges inside the corpus and inside rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intelligence, "_BLOCK_FLOATS", block_floats)
        assert_matches_oracle(*table)


@st.composite
def row_inputs(draw):
    """(docs, vocabulary): a shuffled vocabulary, and documents that may hold
    terms outside it, no term of it, or only zero counts."""
    v = draw(st.integers(1, 8))
    vocabulary = draw(st.permutations([f"t{j}" for j in range(v)]))
    terms = st.sampled_from(vocabulary + ["x0", "x1"])
    tables = draw(st.lists(st.dictionaries(terms, st.integers(0, 4), min_size=1), max_size=6))
    docs = [make_doc(f"d{i}", counts) for i, counts in enumerate(tables)]
    return docs, vocabulary


def assert_rows_are_well_formed(docs, vocabulary):
    kept = [d for d in docs if any(d.token_counts.get(t, 0) > 0 for t in vocabulary)]
    ids, rows = unit_term_rows(docs, vocabulary)
    assert ids == tuple(d.id for d in kept)
    assert rows.shape == (len(kept), len(vocabulary))
    assert rows.indptr.dtype == np.intp and rows.indices.dtype == np.intp
    assert rows.data.dtype == np.float64
    for lo, hi in zip(rows.indptr[:-1], rows.indptr[1:]):
        assert np.all(np.diff(rows.indices[lo:hi]) > 0)
    if kept:
        assert np.array_equal(rows.dense(), dense_rows(kept, vocabulary))


@settings(max_examples=200)
@given(inputs=row_inputs())
def test_unit_term_rows_equal_dense_rows(inputs):
    assert_rows_are_well_formed(*inputs)


def test_unit_term_rows_over_a_shuffled_vocabulary():
    vocabulary = ["t3", "t0", "t2", "t1"]
    docs = [make_doc("d0", {"t1": 2, "t0": 1, "x": 5}), make_doc("d1", {"t2": 3, "t3": 1})]
    assert_rows_are_well_formed(docs, vocabulary)
    _, rows = unit_term_rows(docs, vocabulary)
    assert rows.indices.tolist() == [1, 3, 0, 2]


def test_a_vocabulary_that_excludes_every_document_gives_no_rows():
    docs = [make_doc("d0", {"x": 2}), make_doc("d1", {"y": 1, "z": 3})]
    ids, rows = unit_term_rows(docs, ["a", "b", "c"])
    assert ids == ()
    assert rows.shape == (0, 3)
    assert rows.indptr.tolist() == [0]
    assert rows.indices.dtype == np.intp and rows.data.dtype == np.float64
    assert rows.dense().shape == (0, 3)


def test_duplicates_with_k_equal_to_n_take_the_exact_path(monkeypatch):
    decided = []
    exact = intelligence._nearest_exactly

    def counting(row, centroids):
        decided.append(row)
        return exact(row, centroids)

    monkeypatch.setattr(intelligence, "_nearest_exactly", counting)
    docs = [make_doc(f"d{i}", {"a": 1 + i % 2, "b": 1}) for i in range(6)]
    assert_matches_oracle(docs, ["a", "b"], 6, 3)
    assert decided  # seeding ran out of distinct points, so centroids tie


def test_wide_corpus_across_row_blocks_equals_dense_oracle():
    # 9,000 columns: 29 rows per dense block and reductions longer than
    # numpy's 8,192-element buffer
    rng = np.random.default_rng(11)
    vocabulary = [f"t{j:04d}" for j in range(9000)]
    docs = []
    for i in range(60):
        topic = (i % 3) * 3000
        cols = topic + rng.choice(3000, size=int(rng.integers(40, 400)), replace=False)
        docs.append(make_doc(f"d{i:02d}", {vocabulary[j]: int(rng.integers(1, 6)) for j in cols}))
    assert_matches_oracle(docs, vocabulary, 3, 0)


def test_peak_memory_is_far_below_the_distance_tensor():
    n, v, k = 400, 5000, 8
    rng = np.random.default_rng(0)
    vocabulary = [f"t{j:04d}" for j in range(v)]
    docs = []
    for i in range(n):
        cols = rng.choice(v, size=int(rng.integers(50, 300)), replace=False)
        docs.append(make_doc(f"d{i:03d}", {vocabulary[j]: int(rng.integers(1, 6)) for j in cols}))
    tensor_bytes = n * k * v * 8  # 128 MB
    tracemalloc.start()
    try:
        ids, rows = unit_term_rows(docs, vocabulary)
        clustering = kmeans(ids, rows, k, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(clustering.assignments) == n
    assert peak < tensor_bytes / 4
    assert peak < n * v * 8 / 2  # nor dense in N x V


@pytest.mark.parametrize("block_floats", [1, 2**18])
def test_products_of_rows_without_entries_are_zero(block_floats, monkeypatch):
    monkeypatch.setattr(intelligence, "_BLOCK_FLOATS", block_floats)
    rows = intelligence.TermRows(
        indptr=np.array([0, 0, 2, 2]),
        indices=np.array([0, 2]),
        data=np.array([0.6, 0.8]),
        n_columns=3,
    )
    centroids = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(intelligence._products(rows, centroids), rows.dense() @ centroids.T)
