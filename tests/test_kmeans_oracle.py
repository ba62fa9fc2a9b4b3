"""Sparse k-means against the dense N x k x V implementation it replaced.

The oracle below is that implementation, kept verbatim apart from its
input: dense unit rows laid out over the corpus's sorted vocabulary,
stacked into an N x V array, and a distance tensor broadcast to N x k x V
on every pass. The sparse path must give the same assignments, inertia
trace and centroids, bit for bit, and must not come near the tensor's
memory.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerstack import intelligence, synthetic_corpus
from layerstack.corpus import _PASS_ENTRIES
from layerstack.intelligence import kmeans, unit_term_rows

from helpers import dense, make_corpus


def dense_rows(docs, vocabulary):
    rows = []
    for doc in docs:
        values = np.array(
            [doc.token_counts.get(t, 0) / doc.total_tokens for t in vocabulary], dtype=float
        )
        # the program's norm: numpy's sum of the nonzeros' squares in term order
        rows.append(values / math.sqrt(float(np.add.reduce(np.square(values[values > 0])))))
    return np.vstack(rows)


def dense_seeds(points, k, rng):
    """The rows k-means++ draws from ``rng`` in the dense implementation."""
    n = points.shape[0]
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
    return chosen


def dense_kmeans(points, k, seed):
    """(labels, inertia history, centroids) of the dense implementation."""
    n = points.shape[0]
    centroids = points[dense_seeds(points, k, np.random.default_rng(seed))].copy()

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


def assert_matches_oracle(corpus, k, seed):
    ids, rows = unit_term_rows(corpus)
    points = dense_rows(corpus, corpus.table.terms)
    assert np.array_equal(dense(rows), points)
    clustering = kmeans(ids, rows, k, seed)
    labels, history, centroids = dense_kmeans(points, k, seed)
    assert clustering.assignments == {i: int(c) for i, c in zip(ids, labels)}
    assert clustering.inertia_history == history
    assert np.array_equal(clustering.centroids, centroids)


@st.composite
def count_tables(draw, max_v=8):
    """(corpus, k, seed): a few distinct documents over at most ``max_v``
    terms, some of them single-term, then duplicated so that rows
    and centroids tie exactly."""
    v = draw(st.integers(1, min(8, max_v)))
    vocabulary = [f"t{j}" for j in range(v)]
    single = st.builds(lambda j, c: {vocabulary[j]: c}, st.integers(0, v - 1), st.integers(1, 4))
    mixed = st.lists(st.integers(0, 4), min_size=v, max_size=v).filter(any).map(
        lambda counts: {t: c for t, c in zip(vocabulary, counts) if c}
    )
    bases = draw(st.lists(st.one_of(single, mixed), min_size=1, max_size=6))
    copies = draw(st.lists(st.integers(0, len(bases) - 1), max_size=6))
    tables = bases + [bases[i] for i in copies]
    k = draw(st.integers(1, len(tables)))
    seed = draw(st.integers(0, 2**16))
    return make_corpus({f"d{i:02d}": counts for i, counts in enumerate(tables)}), k, seed


@pytest.mark.parametrize("block_floats", [1, 5, 2**18])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_kmeans_equals_dense_oracle(block_floats, data):
    # block_floats caps the vocabulary width: at 1 every row is the same
    # point, so seeding runs out of distance (its total <= 0 branch)
    assert_matches_oracle(*data.draw(count_tables(block_floats)))


@st.composite
def row_inputs(draw):
    """A corpus of documents that may hold no term or only zero counts."""
    terms = st.sampled_from([f"t{j}" for j in range(draw(st.integers(1, 8)))])
    tables = draw(st.lists(st.dictionaries(terms, st.integers(0, 4), min_size=1), max_size=6))
    return make_corpus({f"d{i}": counts for i, counts in enumerate(tables)})


def assert_rows_are_well_formed(corpus):
    vocabulary = corpus.table.terms
    kept = [d for d in corpus if d.total_tokens > 0]
    ids, rows = unit_term_rows(corpus)
    assert ids == tuple(d.id for d in kept)
    assert rows.shape == (len(kept), len(vocabulary))
    assert rows.indices is corpus.table.term_ids
    assert rows.indptr.dtype == np.intp and rows.indices.dtype == np.intp
    assert rows.data.dtype == np.float64
    for lo, hi in zip(rows.indptr[:-1], rows.indptr[1:]):
        assert np.all(np.diff(rows.indices[lo:hi]) > 0)
    if kept:
        assert np.array_equal(dense(rows), dense_rows(kept, vocabulary))


@settings(max_examples=200)
@given(corpus=row_inputs())
def test_unit_term_rows_equal_dense_rows(corpus):
    assert_rows_are_well_formed(corpus)


def test_duplicates_with_k_equal_to_n_take_the_exact_path(monkeypatch):
    decided = []
    exact = intelligence._nearest_exactly

    def counting(row, centroids):
        decided.append(row)
        return exact(row, centroids)

    monkeypatch.setattr(intelligence, "_nearest_exactly", counting)
    corpus = make_corpus({f"d{i}": {"a": 1 + i % 2, "b": 1} for i in range(6)})
    assert_matches_oracle(corpus, 6, 3)
    assert decided  # seeding ran out of distinct points, so centroids tie


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_seeding_takes_a_distance_pass_only_while_a_centroid_is_left_to_draw(monkeypatch, k):
    passes = []
    squared_distances = intelligence._squared_distances

    def counting(rows, centroids, labels):
        passes.append(len(centroids))
        return squared_distances(rows, centroids, labels)

    monkeypatch.setattr(intelligence, "_squared_distances", counting)
    corpus = make_corpus({f"d{i}": {"a": 1 + i, "b": 6 - i, "c": 1 + i % 2} for i in range(6)})
    _, rows = unit_term_rows(corpus)
    centroids, _, _ = intelligence._seed_centroids(rows, k, np.random.default_rng(5))
    assert passes == [1] * k  # the last drawn centroid's pass is k-means's first assignment
    assert centroids.shape == (k, 3)


def term_rows(points):
    """The nonzeros of a dense N x V array as CSR rows."""
    nonzero = points != 0
    return intelligence.TermRows(
        indptr=np.concatenate(([0], np.cumsum(nonzero.sum(axis=1)))).astype(np.intp),
        indices=np.nonzero(nonzero)[1].astype(np.intp),
        data=points[nonzero],
        n_columns=points.shape[1],
    )


def add_near_ties(points, moves, rng):
    """``points`` with one row added per entry of ``moves``: a copy of an
    earlier row, moved by one ulp in one entry where the entry is true, so
    rows can equal each other and chains of near ties form."""
    for move in moves:
        row = points[int(rng.integers(len(points)))].copy()
        if move:
            j = int(rng.integers(len(row)))
            row[j] = np.nextafter(row[j], rng.choice([-np.inf, np.inf]))
        points.append(row)
    return np.vstack(points)


@st.composite
def seeding_inputs(draw):
    """(rows, k, seed): a few base rows scaled by 1, 1e-150 or 1e150, with
    near ties added and shuffled; k is anywhere in [1, n]."""
    v = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    signs = rng.choice([-1.0, 0.0, 1.0], size=(n, v), p=[0.2, 0.4, 0.4])
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150]))
    bases = list(signs * rng.uniform(0.1, 1.0, size=(n, v)) * scale)
    points = rng.permutation(add_near_ties(bases, draw(st.lists(st.booleans(), max_size=10)), rng))
    k = draw(st.integers(1, len(points)))
    return term_rows(points), k, draw(st.integers(0, 2**16))


@settings(max_examples=400, deadline=None)
@given(inputs=seeding_inputs())
@example(inputs=(term_rows(np.full((4, 3), 0.5)), 4, 0))  # every total <= 0
@example(inputs=(term_rows(np.eye(5, 6) * 1e150 + 1e150), 5, 1))
@example(inputs=(term_rows(np.eye(5, 6) * 1e-150 + 1e-150), 5, 2))
def test_pruned_seeding_draws_the_dense_seeds(inputs):
    # a RuntimeWarning from the estimate would fail the test: pyproject
    # turns warnings into errors
    rows, k, seed = inputs
    points = dense(rows)
    expected_rng = np.random.default_rng(seed)
    expected = dense_seeds(points, k, expected_rng)
    asked = []
    row = intelligence.TermRows.row

    def recording(self, i):
        asked.append(i)
        return row(self, i)

    rng = np.random.default_rng(seed)
    with mock.patch.object(intelligence.TermRows, "row", recording):
        centroids, labels, d2 = intelligence._seed_centroids(rows, k, rng)
    assert asked[-k:] == expected  # the centroids are stacked from these rows
    assert centroids.tobytes() == points[expected].tobytes()
    assert rng.integers(2**62) == expected_rng.integers(2**62)
    # the first assignment: the dense N x k argmin, ties to the lowest index
    distances = ((points[:, None, :] - points[expected][None, :, :]) ** 2).sum(axis=2)
    assert (labels == np.argmin(distances, axis=1)).all()
    assert d2.tobytes() == distances.min(axis=1).tobytes()


def test_chains_of_one_ulp_moves_draw_the_dense_seeds():
    # rows a few ulps apart in chains off one base, all drawn (k = n): the
    # estimate's rounding dwarfs their distances, so a row is skipped
    # wrongly unless the margin covers it: with no margin, 10 of these 600
    # trials draw other rows
    for trial in range(600):
        rng = np.random.default_rng(trial)
        v = int(rng.integers(1, 6))
        base = rng.uniform(0.1, 1.0, v) * rng.choice([-1.0, 1.0], v)
        points = add_near_ties([base], [True] * int(rng.integers(2, 7)), rng)
        k = len(points)
        expected = dense_seeds(points, k, np.random.default_rng(trial))
        centroids, _, _ = intelligence._seed_centroids(
            term_rows(points), k, np.random.default_rng(trial)
        )
        assert centroids.tobytes() == points[expected].tobytes(), trial


@pytest.mark.parametrize("sizes", [(60, 60, 60), (270, 36, 18)])
@pytest.mark.parametrize("seed", range(4))
def test_seeding_sums_at_most_half_of_the_row_distances(monkeypatch, sizes, seed):
    summed = []
    squared_distances = intelligence._squared_distances

    def counting(rows, centroids, labels):
        out = squared_distances(rows, centroids, labels)
        summed.append(int(np.isfinite(out).sum()))
        return out

    monkeypatch.setattr(intelligence, "_squared_distances", counting)
    _, rows = unit_term_rows(synthetic_corpus(sizes, seed=seed)[0])
    k = 9
    intelligence._seed_centroids(rows, k, np.random.default_rng(seed))
    assert len(summed) == k  # k - 1 draw passes, then the last centroid's
    assert summed[0] == rows.shape[0]  # d2 = +inf: the first pass sums every row
    assert sum(summed[: k - 1]) <= (k - 1) * rows.shape[0] / 2


@pytest.mark.parametrize("seed", range(4))
def test_first_assignment_comes_from_seeding(monkeypatch, seed):
    events = []
    squared_distances = intelligence._squared_distances
    products = intelligence._products
    nearest = intelligence._nearest
    centroid_sums = intelligence._centroid_sums

    def counting_distances(rows, centroids, labels):
        out = squared_distances(rows, centroids, labels)
        events.append(("sums", int(np.isfinite(out).sum())))
        return out

    def counting_products(rows, centroids):
        events.append(("products", len(centroids)))
        return products(rows, centroids)

    def counting_nearest(rows, centroids):
        events.append(("nearest", len(centroids)))
        return nearest(rows, centroids)

    def counting_updates(rows, labels, k):
        events.append(("update", k))
        return centroid_sums(rows, labels, k)

    monkeypatch.setattr(intelligence, "_squared_distances", counting_distances)
    monkeypatch.setattr(intelligence, "_products", counting_products)
    monkeypatch.setattr(intelligence, "_nearest", counting_nearest)
    monkeypatch.setattr(intelligence, "_centroid_sums", counting_updates)
    ids, rows = unit_term_rows(synthetic_corpus((60, 60, 60), seed=seed)[0])
    k, n = 9, rows.shape[0]
    kmeans(ids, rows, k, seed)
    first = events[: events.index(("update", k))]
    # no _nearest: k seeding passes, the first, at d2 = +inf, with no estimate
    assert [kind for kind, _ in first] == ["sums"] + ["products", "sums"] * (k - 1)
    summed = [count for kind, count in first if kind == "sums"]
    # the k - 1 draw passes are unchanged; the last centroid's pruned pass
    # stands where a full assignment pass summed all n rows
    assert sum(summed) < sum(summed[: k - 1]) + n


def test_wide_corpus_across_row_blocks_equals_dense_oracle():
    # nearly all of 9,000 terms occur, and the columns are the terms that
    # do: reductions longer than numpy's 8,192-element buffer
    rng = np.random.default_rng(11)
    vocabulary = [f"t{j:04d}" for j in range(9000)]
    docs = {}
    for i in range(60):
        topic = (i % 3) * 3000
        cols = topic + rng.choice(3000, size=int(rng.integers(400, 1500)), replace=False)
        docs[f"d{i:02d}"] = {vocabulary[j]: int(rng.integers(1, 6)) for j in cols}
    corpus = make_corpus(docs)
    assert len(corpus.table.terms) > 8192
    assert_matches_oracle(corpus, 3, 0)


def test_peak_memory_is_far_below_the_distance_tensor():
    n, v, k = 400, 5000, 8
    rng = np.random.default_rng(0)
    vocabulary = [f"t{j:04d}" for j in range(v)]
    docs = {}
    for i in range(n):
        cols = rng.choice(v, size=int(rng.integers(50, 300)), replace=False)
        docs[f"d{i:03d}"] = {vocabulary[j]: int(rng.integers(1, 6)) for j in cols}
    corpus = make_corpus(docs)
    tensor_bytes = n * k * v * 8  # 128 MB
    tracemalloc.start()
    try:
        ids, rows = unit_term_rows(corpus)
        clustering = kmeans(ids, rows, k, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(clustering.assignments) == n and rows.n_columns == v
    assert peak < tensor_bytes / 4
    assert peak < n * v * 8 / 2  # nor dense in N x V
    labels = np.array([clustering.assignments[i] for i in ids])
    tracemalloc.start()
    try:
        intelligence._squared_distances(rows, clustering.centroids, labels)
        pass_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pass_peak < 4 * v * 8  # a few dense rows, not a block of them


@pytest.mark.parametrize("block_floats", [1, 2**18])
def test_products_of_rows_without_entries_are_zero(block_floats):
    # block_floats zero columns lie between the middle row's two entries;
    # 2**18 makes rows longer than numpy's 8,192-element buffer
    v = block_floats + 2
    rows = intelligence.TermRows(
        indptr=np.array([0, 0, 2, 2]),
        indices=np.array([0, v - 1]),
        data=np.array([0.6, 0.8]),
        n_columns=v,
    )
    centroids = np.arange(2.0 * v).reshape(2, v)
    points = dense(rows)
    assert np.array_equal(intelligence._products(rows, centroids), points @ centroids.T)
    labels = np.array([1, 0, 1])
    expected = ((points - centroids[labels]) ** 2).sum(axis=1)
    assert np.array_equal(intelligence._squared_distances(rows, centroids, labels), expected)


#: -0.0, subnormals, and squares that round or underflow to them
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1e-160, -1e-160, 0.1, 1 / 3, -2.5]


@st.composite
def distance_inputs(draw):
    """(rows, centroids, labels, run entries): rows over V columns, some
    without entries, V past numpy's 8,192-element buffer when wide; values
    mixed with SPECIAL_FLOATS; one label for all rows or one per row, out
    of k that rows need not all use; runs of 1 entry to the default bound."""
    wide = draw(st.booleans())
    v = draw(st.integers(8193, 9000) if wide else st.integers(1, 12))
    n = draw(st.integers(0, 6) if wide else st.one_of(st.integers(0, 8), st.integers(20, 60)))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        out = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        special = rng.random(shape) < 0.3
        out[special] = rng.choice(SPECIAL_FLOATS, size=int(special.sum()))
        return out

    lengths = draw(st.lists(st.one_of(st.just(0), st.integers(0, v)), min_size=n, max_size=n))
    rows = intelligence.TermRows(
        indptr=np.concatenate(([0], np.cumsum(lengths, dtype=np.intp))),
        indices=np.concatenate(
            [np.sort(rng.choice(v, size=m, replace=False)) for m in lengths] + [[]]
        ).astype(np.intp),
        data=values(sum(lengths)),
        n_columns=v,
    )
    labels = draw(
        st.one_of(
            st.integers(0, k - 1),
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(np.array),
        )
    )
    run_entries = draw(st.sampled_from([1, 3, 40, _PASS_ENTRIES]))
    return rows, values((k, v)), labels, run_entries


@settings(max_examples=200, deadline=None)
@given(inputs=distance_inputs())
def test_squared_distances_equal_the_dense_sums(inputs):
    rows, centroids, labels, run_entries = inputs
    row_labels = np.broadcast_to(labels, (rows.shape[0],))
    expected = np.array(
        [((rows.row(i) - centroids[label]) ** 2).sum() for i, label in enumerate(row_labels)]
    )
    before = centroids.copy()
    with mock.patch("layerstack.corpus._PASS_ENTRIES", run_entries):
        got = intelligence._squared_distances(rows, centroids, labels)
        again = intelligence._squared_distances(rows, centroids, labels)
    assert got.tobytes() == expected.tobytes()
    assert again.tobytes() == got.tobytes()
    assert centroids.tobytes() == before.tobytes()
