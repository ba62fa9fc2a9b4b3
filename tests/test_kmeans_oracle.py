"""Sparse k-means against a dense implementation of the same formula, and
that formula against exact arithmetic.

The oracle lays the unit rows out densely over the corpus's sorted
vocabulary and takes every squared distance one row at a time as
d² = max(‖x‖² + ‖c‖² − 2·x·c, 0), each sum over the nonzeros in column order
by the program's reduction. The sparse path must give the same distances,
seeds, assignments, inertia trace and centroids, compared with ``==``, and
must not come near the memory of a dense N x k x V tensor. Each d² must lie
within 2γ_{V+2}·(‖x‖² + ‖c‖²) of the exact squared distance of the same
floats, taken with ``fractions.Fraction``.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerstack import intelligence, synthetic_corpus
from layerstack.corpus import _PASS_ENTRIES, _row_sums
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


def nonzero_sum(values):
    """The program's sum of one row's values on its nonzeros, in column order."""
    return np.add.reduceat(values, [0])[0] if len(values) else 0.0


def dense_distances(points, centroids):
    """d² of each dense row to each centroid, one pair at a time."""
    out = np.empty((len(points), len(centroids)))
    for i, x in enumerate(points):
        on = x != 0
        for j, c in enumerate(centroids):
            s = nonzero_sum(np.square(x[on])) + nonzero_sum(np.square(c[c != 0]))
            out[i, j] = max(s - 2.0 * nonzero_sum(x[on] * c[on]), 0.0)
    return out


def dense_seeds(points, k, rng):
    """The rows k-means++ draws from ``rng`` in the dense implementation."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = dense_distances(points, points[chosen])[:, 0]
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            index = int(rng.integers(n))
        else:
            index = int(rng.choice(n, p=d2 / total))
        chosen.append(index)
        d2 = np.minimum(d2, dense_distances(points, points[[index]])[:, 0])
    return chosen


def dense_kmeans(points, k, seed):
    """(labels, inertia history, centroids) of the dense implementation."""
    n = points.shape[0]
    centroids = points[dense_seeds(points, k, np.random.default_rng(seed))].copy()

    def assignment_pass():
        d2 = dense_distances(points, centroids)
        labels = np.argmin(d2, axis=1)
        return d2, labels, float(d2[np.arange(n), labels].sum())

    assign = None
    history = []
    for _ in range(intelligence.MAX_KMEANS_ITERATIONS):
        d2, labels, inertia = assignment_pass()
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
                updated[c] = points[int(np.argmax(d2[:, c]))]
        centroids = updated
    else:
        _, assign, inertia = assignment_pass()
        history.append(inertia)
    return assign, tuple(history), centroids


def layout(rows):
    """What one k-means call computes once for all its passes: the rows'
    ‖x‖² and their runs."""
    return _row_sums(rows.indptr, np.square(rows.data)), intelligence._runs(rows)


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
    if len(corpus.table.term_ids):  # the whole corpus's columns are the table's, not a copy
        assert np.shares_memory(rows.indices, corpus.table.term_ids)
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


def test_duplicates_with_k_equal_to_n_equal_the_dense_oracle():
    # seeding runs out of distinct points, so later draws are uniform and
    # centroids tie
    corpus = make_corpus({f"d{i}": {"a": 1 + i % 2, "b": 1} for i in range(6)})
    assert_matches_oracle(corpus, 6, 3)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_seeding_takes_a_distance_pass_only_while_a_centroid_is_left_to_draw(monkeypatch, k):
    passes = []
    distances = intelligence._distances

    def counting(norms, runs, centroids):
        passes.append(len(centroids))
        return distances(norms, runs, centroids)

    monkeypatch.setattr(intelligence, "_distances", counting)
    corpus = make_corpus({f"d{i}": {"a": 1 + i, "b": 6 - i, "c": 1 + i % 2} for i in range(6)})
    _, rows = unit_term_rows(corpus)
    centroids, d2 = intelligence._seed_centroids(rows, *layout(rows), k, np.random.default_rng(5))
    assert passes == [1] * k  # the last drawn centroid's pass is k-means's first assignment
    assert centroids.shape == (k, 3) and d2.shape == (6, k)


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
def test_seeding_draws_the_dense_seeds(inputs):
    # a RuntimeWarning from the formula would fail the test: pyproject turns
    # warnings into errors
    rows, k, seed = inputs
    points = dense(rows)
    expected_rng = np.random.default_rng(seed)
    expected = dense_seeds(points, k, expected_rng)
    rng = np.random.default_rng(seed)
    centroids, d2 = intelligence._seed_centroids(rows, *layout(rows), k, rng)
    assert centroids.tobytes() == points[expected].tobytes()
    assert rng.integers(2**62) == expected_rng.integers(2**62)
    # the first assignment's matrix: every row's d² to every seed
    assert np.array_equal(d2, dense_distances(points, points[expected]))


@settings(max_examples=200, deadline=None)
@given(inputs=count_tables())
@example(inputs=(make_corpus({f"d{i}": {"a": 2} for i in range(4)}), 4, 0))  # every total == 0
def test_kmeans_hands_the_draws_only_what_numpys_checks_pass(inputs):
    # ``_Draws`` checks no argument: every call kmeans makes must pass the
    # checks numpy's ``Generator.integers`` and ``Generator.choice`` make
    corpus, k, seed = inputs
    ids, rows = unit_term_rows(corpus)
    integers, choice = intelligence._Draws.integers, intelligence._Draws.choice
    sizes, probabilities = [], []

    def spied_integers(draws, n):
        sizes.append(n)
        return integers(draws, n)

    def spied_choice(draws, n, p):
        probabilities.append((n, p))
        return choice(draws, n, p)

    with mock.patch.object(intelligence._Draws, "integers", spied_integers):
        with mock.patch.object(intelligence._Draws, "choice", spied_choice):
            kmeans(ids, rows, k, seed)
    assert all(n >= 1 for n in sizes)
    # once every distinct row is a centroid, each d² is 0 and the draw is uniform
    distinct = len(np.unique(dense(rows), axis=0))
    assert len(sizes) >= 1 + k - distinct
    assert len(sizes) + len(probabilities) == k
    for n, p in probabilities:
        assert p.ndim == 1 and p.dtype == np.float64 and p.size == n
        assert not np.isnan(p).any()
        assert not (p < 0).any()
        assert abs(math.fsum(p) - 1.0) <= 2.0**-26


def test_chains_of_one_ulp_moves_draw_the_dense_seeds():
    # rows a few ulps apart in chains off one base, all drawn (k = n): their
    # d² is rounding noise of the formula, clamped at 0, and seeding must
    # still draw what the dense formula draws
    for trial in range(600):
        rng = np.random.default_rng(trial)
        v = int(rng.integers(1, 6))
        base = rng.uniform(0.1, 1.0, v) * rng.choice([-1.0, 1.0], v)
        points = add_near_ties([base], [True] * int(rng.integers(2, 7)), rng)
        k = len(points)
        expected = dense_seeds(points, k, np.random.default_rng(trial))
        rows = term_rows(points)
        centroids, d2 = intelligence._seed_centroids(
            rows, *layout(rows), k, np.random.default_rng(trial)
        )
        assert centroids.tobytes() == points[expected].tobytes(), trial
        assert (d2 >= 0.0).all(), trial


def test_seeding_draws_uniformly_once_every_d2_is_zero():
    # two distinct rows, each twice: the second draw takes the other row,
    # after which every row equals a centroid, reads d² = 0, and the
    # remaining draws take the uniform branch
    rows = term_rows(np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 0.0], [0.6, 0.8]]))
    rng = mock.Mock(wraps=np.random.default_rng(4))
    centroids, d2 = intelligence._seed_centroids(rows, *layout(rows), 4, rng)
    assert [name for name, _, _ in rng.mock_calls] == ["integers", "choice", "integers", "integers"]
    assert len({tuple(c) for c in centroids[:2]}) == 2
    assert (d2.min(axis=1) == 0.0).all()


@settings(max_examples=100, deadline=None)
@given(inputs=seeding_inputs())
def test_a_row_equal_to_a_centroid_reads_zero(inputs):
    # duplicates and rows drawn as centroids: x·c, ‖x‖² and ‖c‖² are one
    # sum of the same squares, so d² is 0 exactly, not rounding noise
    rows, _, _ = inputs
    points = dense(rows)
    d2 = intelligence._distances(*layout(rows), points)
    assert (d2 >= 0.0).all()
    for i, j in zip(*np.nonzero((points[:, None, :] == points[None, :, :]).all(axis=2))):
        assert d2[i, j] == 0.0


@pytest.mark.parametrize("n", [1, 2, 5])
def test_identical_rows_cluster_with_zero_inertia_for_every_k(n):
    # every row is one point: each d² reads 0, and Clustering's checks hold
    for counts in ({"a": 1}, {"a": 3, "b": 1, "c": 7}):
        ids, rows = unit_term_rows(make_corpus({f"d{i}": counts for i in range(n)}))
        for k in range(1, n + 1):
            clustering = kmeans(ids, rows, k, seed=k)
            assert clustering.inertia_history == (0.0, 0.0)
            assert set(clustering.assignments.values()) == {0}


@pytest.mark.parametrize("sizes", [(60, 60, 60), (270, 36, 18)])
@pytest.mark.parametrize("seed", range(4))
def test_seeding_visits_each_stored_entry_once_per_centroid(monkeypatch, sizes, seed):
    # O(k x stored entries) work, and no dense row but the k centroids drawn
    visited = []
    made = []
    products = intelligence._products
    row = intelligence.TermRows.row

    def counting_products(runs, n, centroids):
        visited.append(len(centroids) * sum(len(cols) for _, _, cols, _ in runs))
        return products(runs, n, centroids)

    def counting_rows(self, i):
        made.append(i)
        return row(self, i)

    monkeypatch.setattr(intelligence, "_products", counting_products)
    monkeypatch.setattr(intelligence.TermRows, "row", counting_rows)
    _, rows = unit_term_rows(synthetic_corpus(sizes, seed=seed)[0])
    k = 9
    intelligence._seed_centroids(rows, *layout(rows), k, np.random.default_rng(seed))
    assert visited == [len(rows.data)] * k
    assert len(made) == k


@pytest.mark.parametrize("seed", range(4))
def test_first_assignment_comes_from_seeding(monkeypatch, seed):
    events = []
    distances = intelligence._distances
    centroid_sums = intelligence._centroid_sums

    def counting_distances(norms, runs, centroids):
        events.append(("distances", len(centroids)))
        return distances(norms, runs, centroids)

    def counting_updates(rows, labels, k):
        events.append(("update", k))
        return centroid_sums(rows, labels, k)

    monkeypatch.setattr(intelligence, "_distances", counting_distances)
    monkeypatch.setattr(intelligence, "_centroid_sums", counting_updates)
    ids, rows = unit_term_rows(synthetic_corpus((60, 60, 60), seed=seed)[0])
    k = 9
    clustering = kmeans(ids, rows, k, seed)
    first = events.index(("update", k))
    # k one-centroid seeding passes, then one k-centroid pass per update
    assert events[:first] == [("distances", 1)] * k
    assert events[first:] == [("update", k), ("distances", k)] * (len(events[first:]) // 2)
    assert len(clustering.inertia_history) == len(events[first:]) // 2 + 1


def test_one_kmeans_call_lays_its_rows_out_once(monkeypatch):
    # seeding and every Lloyd pass share one cut of the rows into runs
    entry_runs = mock.Mock(wraps=intelligence._entry_runs)
    monkeypatch.setattr(intelligence, "_entry_runs", entry_runs)
    ids, rows = unit_term_rows(synthetic_corpus((60, 60, 60), seed=1)[0])
    clustering = kmeans(ids, rows, 9, seed=1)
    assert len(clustering.inertia_history) > 1
    assert entry_runs.call_count == 1


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
    norms, runs = layout(rows)
    # one run's gather of k centroid values per entry (a run starts inside a
    # window of _PASS_ENTRIES entries, so it ends within one row past it)
    # with numpy's 8,192-element ufunc buffer, the N x k output and two
    # arrays like it, and one centroid's nonzeros and their squares: the
    # bound follows _PASS_ENTRIES, not a count of dense rows
    run_entries = _PASS_ENTRIES + int(np.diff(rows.indptr).max())
    # a seeding pass, over one centroid, takes the same runs
    for centroids in (clustering.centroids, clustering.centroids[:1]):
        tracemalloc.start()
        try:
            intelligence._distances(norms, runs, centroids)
            pass_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pass_peak < 8 * (k * run_entries + 8192 + 3 * n * k + 2 * v)


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
    norms, runs = layout(rows)
    assert np.array_equal(intelligence._products(runs, 3, centroids), points @ centroids.T)
    assert np.array_equal(norms, [0.0, 1.0, 0.0])
    expected = dense_distances(points, centroids)
    assert np.array_equal(intelligence._distances(norms, runs, centroids), expected)


#: -0.0, subnormals, and squares that round or underflow to them
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1e-160, -1e-160, 0.1, 1 / 3, -2.5]


@st.composite
def distance_inputs(draw, wide=st.booleans()):
    """(rows, centroids, run entries): rows over V columns, some without
    entries, V past numpy's 8,192-element buffer when wide; values mixed
    with SPECIAL_FLOATS, the rows' stored ones nonzero as the program's
    are; runs of 1 entry to the default bound."""
    wide = draw(wide)
    v = draw(st.integers(8193, 9000) if wide else st.integers(1, 12))
    n = draw(st.integers(0, 6) if wide else st.one_of(st.integers(0, 8), st.integers(20, 60)))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape, specials):
        out = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        special = rng.random(shape) < 0.3
        out[special] = rng.choice(specials, size=int(special.sum()))
        return out

    lengths = draw(st.lists(st.one_of(st.just(0), st.integers(0, v)), min_size=n, max_size=n))
    rows = intelligence.TermRows(
        indptr=np.concatenate(([0], np.cumsum(lengths, dtype=np.intp))),
        indices=np.concatenate(
            [np.sort(rng.choice(v, size=m, replace=False)) for m in lengths] + [[]]
        ).astype(np.intp),
        data=values(sum(lengths), [x for x in SPECIAL_FLOATS if x != 0.0]),
        n_columns=v,
    )
    run_entries = draw(st.sampled_from([1, 3, 40, _PASS_ENTRIES]))
    return rows, values((k, v), SPECIAL_FLOATS), run_entries


@settings(max_examples=200, deadline=None)
@given(inputs=distance_inputs())
def test_squared_distances_equal_the_dense_sums(inputs):
    rows, centroids, run_entries = inputs
    before = centroids.copy()
    with mock.patch("layerstack.corpus._PASS_ENTRIES", run_entries):
        norms, runs = layout(rows)
    got = intelligence._distances(norms, runs, centroids)
    again = intelligence._distances(norms, runs, centroids)
    assert sum(len(cols) for _, _, cols, _ in runs) == len(rows.data)
    points = [rows.row(i) for i in range(rows.shape[0])]
    assert np.array_equal(got, dense_distances(points, centroids))
    assert again.tobytes() == got.tobytes()
    assert centroids.tobytes() == before.tobytes()


@settings(max_examples=60, deadline=None)
@given(inputs=distance_inputs(wide=st.just(False)))
def test_distances_lie_within_the_rounding_bound_of_the_exact_ones(inputs):
    # |d² − D| <= 2γ_{V+2}·(‖x‖² + ‖c‖²) + the least normal float, with D the
    # exact squared distance of the same floats (see intelligence._distances)
    rows, centroids, _ = inputs
    got = intelligence._distances(*layout(rows), centroids)
    m = Fraction(rows.n_columns + 2, 2**53)
    gamma = m / (1 - m)
    tiny = Fraction(np.finfo(float).tiny)
    exact_centroids = [[Fraction(float(a)) for a in c] for c in centroids]
    for i in range(rows.shape[0]):
        x = [Fraction(float(a)) for a in rows.row(i)]
        for j, c in enumerate(exact_centroids):
            exact = sum((a - b) ** 2 for a, b in zip(x, c))
            scale = sum(a * a for a in x) + sum(b * b for b in c)
            assert got[i, j] >= 0.0
            assert abs(Fraction(float(got[i, j])) - exact) <= 2 * gamma * scale + tiny
