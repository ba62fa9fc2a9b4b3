"""Intelligence layer: unit term rows in CSR form, seeded k-means clustering, a
discrete entropic-gain score for candidate additions, and the
cluster-and-reselect aggregation loop.

The k-means rows are the corpus count table's own CSR arrays, its term ids
and row pointers, with each count replaced by a float weight: the term's
proportion in its document, scaled so the row has unit length. A squared
distance is d² = max(‖x‖² + ‖c‖² − 2·x·c, 0), with x·c taken on the row's
nonzeros in runs of about ``corpus._PASS_ENTRIES`` entries, the scorer's
runs, so a pass over k centroids costs O(k x stored entries) and sums no
dense row. d² lies within 2γ_{V+2}·(‖x‖² + ‖c‖²) of the exact squared
distance of the same floats, so k-means++ draws and labels can differ from
the dense difference's only where d² values lie that close. Seeding keeps
each row's d² to each centroid, and k-means takes its first assignment and
inertia from them. Seeding and every Lloyd pass share one layout of the
rows' runs. The rows' unit lengths come from one segment sum per call.

Aggregation repeatedly clusters the corpus, keeps the most correlated
documents from each cluster, and re-ranks the survivors. Every stochastic
step is driven by a caller-supplied seed, so identical inputs give
bit-identical outputs: the k-means++ draws come from :class:`_Draws`, a
PCG64 stream held here, which gives the draws numpy's ``default_rng`` gives
without importing ``numpy.random``. It checks no argument: it takes only
the seed, sizes and probabilities :func:`kmeans` has already checked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, Document, _entries, _entry_runs, _row_sums, _segment_sums
from .infotheory import count_entropy
from .knowledge import CorrelationResult, rank_documents

MAX_KMEANS_ITERATIONS = 100
#: slack for the non-increasing inertia check (float accumulation noise)
_INERTIA_SLACK = 1e-9
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class _Draws:
    """The draws ``numpy.random.default_rng(seed)`` gives for ``integers(n)``
    and ``choice(n, p)``, from a stream held here, so no numpy release can
    move them. The seed's 32-bit words are mixed into a 4-word pool by
    numpy's ``SeedSequence`` hash, which yields PCG64's state and increment
    (O'Neill, HMC-CS-2014-0905): a 128-bit LCG whose output is XSL-RR.
    ``integers`` is numpy's Lemire multiply-and-reject (Lemire, ACM TOMACS
    2019) on 32-bit halves, the low half of a draw first, for n up to 2³²,
    and on whole draws above. The stream checks none of its arguments: it
    takes only what :func:`kmeans` has checked, an int seed ≥ 0, n ≥ 1, and a
    ``p`` that is a finite, non-negative float64 vector of length n summing
    to 1, which ``tests/test_kmeans_oracle.py`` asserts of every call."""

    def __init__(self, seed: int) -> None:
        words = [seed >> at & _MASK32 for at in range(0, max(seed.bit_length(), 1), 32)]
        const = 0x43B0D7E5

        def hashed(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mixed(x: int, y: int) -> int:
            value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return value ^ value >> 16

        # SeedSequence's entropy pool: each word hashed in, then mixed
        pool = [hashed(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mixed(pool[dst], hashed(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mixed(pool[dst], hashed(word))
        # SeedSequence.generate_state(4, uint64), as eight 32-bit halves
        const, halves = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _MASK32
            value = value * const & _MASK32
            halves.append(value ^ value >> 16)
        # four 64-bit words, each its low half first: two for the initial
        # state, two for the increment's sequence
        w = [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        # PCG64's seeding: from state 0, one step, add the start, one step
        start = w[0] << 64 | w[1]
        self._state = (self._inc + start) * _PCG_MULTIPLIER + self._inc & _MASK128
        self._half: int | None = None

    def _raw(self) -> int:
        self._state = self._state * _PCG_MULTIPLIER + self._inc & _MASK128
        x, rot = (self._state >> 64 ^ self._state) & _MASK64, self._state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _uint32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            raw = self._raw()
            half, self._half = raw & _MASK32, raw >> 32
        return half

    def integers(self, n: int) -> int:
        """A uniform draw from ``range(n)``; n = 1 draws nothing."""
        if n == 1:
            return 0
        # n = 2³², where numpy takes a half as it is, rejects nothing here
        bits, draw = (32, self._uint32) if n <= 1 << 32 else (64, self._raw)
        m = draw() * n
        if m & (1 << bits) - 1 < n:
            threshold = (1 << bits) % n
            while m & (1 << bits) - 1 < threshold:
                m = draw() * n
        return m >> bits

    def choice(self, n: int, p: np.ndarray) -> int:
        """An index into ``range(n)`` drawn with the probabilities ``p``."""
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted((self._raw() >> 11) * 2.0**-53, side="right"))


@dataclass(frozen=True, eq=False)
class TermRows:
    """Rows of a sparse matrix in CSR form: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` in the columns named by the same slice
    of ``indices``, in increasing column order; other entries are zero."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_columns: int

    def __post_init__(self) -> None:
        # the passes index, slice and sum these as arrays: Python lists would fail there
        object.__setattr__(self, "indptr", np.asarray(self.indptr, dtype=np.intp))
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.intp))
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.n_columns

    def row(self, i: int) -> np.ndarray:
        """Row i as a dense array of ``n_columns`` floats."""
        out = np.zeros(self.n_columns)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        out[self.indices[lo:hi]] = self.data[lo:hi]
        return out


def unit_term_rows(
    corpus: Corpus, rows: Sequence[int] | None = None
) -> tuple[tuple[str, ...], TermRows]:
    """One row per document of the table ``rows`` (all rows by default), in
    their order, with a nonempty table row: its term proportions over the
    corpus's sorted vocabulary, scaled to unit L2 length. A document with no
    positive count gets no row, so it is absent from the returned ids.
    Returns the ids of the rows and the rows.

    The rows are ``corpus.table``'s own: the term ids of ``rows`` are the
    columns (a view of the table when the rows are consecutive) and their
    row pointers, less the empty rows, the row pointers. A subset's term
    ids keep the order of the corpus's, so each row holds the floats, in the
    same order, of its row in ``unit_term_rows(corpus.subset(ids))``."""
    table = corpus.table
    rows = range(len(corpus)) if rows is None else rows
    local, take = _entries(table.indptr, rows)
    lengths = np.diff(local)
    kept = np.flatnonzero(lengths)
    # IEEE division of exactly held integers: the same floats as Python's
    data = table.counts[take] / np.repeat(table.row_totals[rows], lengths)
    indptr = local[np.concatenate(([0], kept + 1))]
    # each norm sums the squares of the row's own nonzeros, in term-id order,
    # by numpy's reduction, so no CPU-picked BLAS kernel sets its bits
    data /= np.repeat(np.sqrt(_segment_sums(np.square(data), indptr)), np.diff(indptr))
    ids = tuple(corpus.documents[rows[i]].id for i in kept.tolist())
    return ids, TermRows(indptr, table.term_ids[take], data, n_columns=len(table.terms))


@dataclass(frozen=True, eq=False)
class Clustering:
    """A k-means result: assignments, centroids, and the per-iteration
    inertia trace (sum of squared distances to assigned centroids)."""

    k: int
    seed: int
    assignments: Mapping[str, int]
    centroids: np.ndarray
    inertia: float
    inertia_history: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for doc_id, index in self.assignments.items():
            if not 0 <= index < self.k:
                raise ValueError(f"cluster index {index} for {doc_id!r} outside [0, {self.k})")
        centroids = np.asarray(self.centroids, dtype=float).copy()
        if centroids.ndim != 2 or centroids.shape[0] != self.k:
            raise ValueError(f"expected {self.k} centroid rows")
        if not self.inertia_history or self.inertia_history[-1] != self.inertia:
            raise ValueError("inertia must equal the last history entry")
        for earlier, later in zip(self.inertia_history, self.inertia_history[1:]):
            if later > earlier + _INERTIA_SLACK:
                raise ValueError("inertia increased between iterations")
        if self.inertia < 0.0:
            raise ValueError(f"negative inertia {self.inertia!r}")
        centroids.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "assignments", dict(self.assignments))

    def members(self, cluster: int) -> tuple[str, ...]:
        """Doc ids assigned to one cluster, in assignment order."""
        if not 0 <= cluster < self.k:
            raise ValueError(f"cluster index {cluster} outside [0, {self.k})")
        return tuple(d for d, c in self.assignments.items() if c == cluster)


def _runs(rows: TermRows) -> list[tuple[np.ndarray, ...]]:
    """The rows with entries, cut into ``_entry_runs`` runs of about
    ``corpus._PASS_ENTRIES`` entries: for each, its rows, where each row's
    entries start within the run, and the run's columns and values. A row's
    sums do not depend on the run it falls in, so seeding's one-centroid
    passes and the Lloyd passes over k centroids share these runs."""
    filled = np.flatnonzero(np.diff(rows.indptr))
    return [
        (block, indptr[:-1], rows.indices[take], rows.data[take])
        for block, indptr, take in _entry_runs(rows.indptr, filled)
    ]


def _products(runs: list[tuple[np.ndarray, ...]], n: int, centroids: np.ndarray) -> np.ndarray:
    """x·c for each of the ``n`` rows x and every centroid c, an n x k array:
    the products on the row's nonzeros, in column order, summed by
    ``np.add.reduceat``. Each run gathers its columns of all k centroids at
    once, so a pass makes a few numpy calls per run and its temporaries hold
    k floats per entry of a run."""
    out = np.zeros((n, len(centroids)))
    for block, starts, cols, values in runs:
        scaled = centroids.take(cols, axis=1)
        scaled *= values
        out[block] = np.add.reduceat(scaled, starts, axis=1).T
        del scaled  # so the next run's gather does not coexist with this one
    return out


def _distances(
    norms: np.ndarray, runs: list[tuple[np.ndarray, ...]], centroids: np.ndarray
) -> np.ndarray:
    """Squared distances of every row x to every centroid c, an N x k array:
    d² = max(‖x‖² + ‖c‖² − 2·x·c, 0), with ``norms`` the rows' ‖x‖², ‖c‖²
    the sum over the centroid's nonzeros and x·c from :func:`_products` over
    the rows' ``runs``. A pass costs O(k x stored entries), plus O(k x V)
    for the ‖c‖².

    Every sum runs over nonzeros in column order by one reduction, so a row
    equal to a centroid reads 0 exactly: its ‖x‖², ‖c‖² and x·c are one sum
    of the same squares.

    The error bound: let D = Σ(xⱼ − cⱼ)², the exact value for the same
    floats, S = ‖x‖² + ‖c‖², exact, u = 2⁻⁵³ the unit roundoff and
    γ_m = m·u / (1 − m·u). The computed ê rounds each term of S, and of
    2·Σ|xⱼcⱼ| ≤ S, at most V + 2 times: once for its product, at most V − 1
    times in its sum, and in the two additions of the formula (doubling is
    exact). So |ê − D| ≤ γ_{V+2}·(S + 2·Σ|xⱼcⱼ|) ≤ 2γ_{V+2}·S (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, §3.1), and the
    clamp brings ê nearer to D ≥ 0. Below the normal range a product also
    adds an absolute error of at most 2⁻¹⁰⁷⁵, and the 4·V of them stay under
    the least normal float. Seeding draws and labels can therefore differ
    from those of the dense Σ(x − c)² only where d² values lie within that
    bound of each other."""
    squares = np.zeros(len(centroids))
    for j, c in enumerate(centroids):
        squares[j] = _row_sums(np.array([0, np.count_nonzero(c)]), np.square(c[c != 0]))[0]
    d2 = np.add.outer(norms, squares)
    d2 -= 2.0 * _products(runs, len(norms), centroids)
    return np.maximum(d2, 0.0, out=d2)


def _seed_centroids(
    rows: TermRows,
    norms: np.ndarray,
    runs: list[tuple[np.ndarray, ...]],
    k: int,
    rng: _Draws,
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding (Arthur and Vassilvitskii, SODA 2007): a uniformly
    drawn row, then rows drawn with probability proportional to their d² to
    the nearest centroid drawn so far, or uniformly once every such d² is 0.
    ``rng`` is a :class:`_Draws` or a numpy ``Generator`` seeded alike; it gets
    n ≥ 1 and p = d2 / total with total > 0: finite, non-negative float64.
    Returns the centroids and the N x k matrix of every row's d² to each,
    one :func:`_distances` pass per centroid: an entry depends only on its
    row and centroid, so the matrix is that of one pass over all k, and
    :func:`kmeans` takes its first assignment from it."""
    n = rows.shape[0]
    centroids = [rows.row(int(rng.integers(n)))]
    columns = [_distances(norms, runs, centroids[0][None])]
    d2 = columns[0][:, 0]
    while len(centroids) < k:
        total = float(d2.sum())
        if total <= 0.0:
            # every row coincides with a chosen centroid
            index = int(rng.integers(n))
        else:
            index = int(rng.choice(n, p=d2 / total))
        centroids.append(rows.row(index))
        columns.append(_distances(norms, runs, centroids[-1][None]))
        d2 = np.minimum(d2, columns[-1][:, 0])
    return np.vstack(centroids), np.hstack(columns)


def _centroid_sums(rows: TermRows, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster column sums, each column summed in row order, as a dense
    mean over the members would sum it."""
    v = rows.n_columns
    cells = np.repeat(labels, np.diff(rows.indptr)) * v + rows.indices
    return np.bincount(cells, rows.data, minlength=k * v).reshape(k, v)


def kmeans(ids: Sequence[str], rows: TermRows, k: int, seed: int) -> Clustering:
    """Lloyd's algorithm with k-means++ initialization on CSR rows (one per
    id, as :func:`unit_term_rows` builds them), deterministic for a fixed
    seed. Stops when assignments repeat or after 100 iterations. An update
    divides all column sums by the cluster sizes at once, then re-seeds each
    emptied cluster to the point farthest from its previous centroid.

    Every pass is one N x k matrix of squared distances
    d² = max(‖x‖² + ‖c‖² − 2·x·c, 0) (see :func:`_distances`), in
    O(k x stored entries) work: the labels are its row-wise argmin, ties to
    the lowest index, and the inertia the sum of the chosen entries. The
    first matrix comes from seeding. Each d² lies within
    2γ_{V+2}·(‖x‖² + ‖c‖²) of the exact squared distance of the same
    floats, so the draws and labels can differ from the dense N x k x V
    computation's only where d² values lie that close."""
    k, seed = operator.index(k), operator.index(seed)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(ids) != rows.shape[0]:
        raise ValueError(f"{len(ids)} ids for {rows.shape[0]} rows")
    if len(ids) < k:
        raise ValueError(f"fewer rows than k: {len(ids)} < {k}")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate doc ids among rows")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    norms = _row_sums(rows.indptr, np.square(rows.data))
    runs = _runs(rows)
    centroids, distances = _seed_centroids(rows, norms, runs, k, _Draws(seed))

    labels = None
    history: list[float] = []
    for passes in range(MAX_KMEANS_ITERATIONS + 1):
        assign, labels = labels, np.argmin(distances, axis=1)
        history.append(float(distances[np.arange(len(ids)), labels].sum()))
        # the pass after the last allowed update only re-syncs the labels
        if passes == MAX_KMEANS_ITERATIONS or np.array_equal(labels, assign):
            break
        sizes = np.bincount(labels, minlength=k)
        centroids = _centroid_sums(rows, labels, k) / np.maximum(sizes, 1)[:, None]
        for c in np.flatnonzero(sizes == 0).tolist():
            centroids[c] = rows.row(int(np.argmax(distances[:, c])))
        distances = _distances(norms, runs, centroids)

    return Clustering(
        k=k,
        seed=seed,
        assignments={doc_id: int(c) for doc_id, c in zip(ids, labels)},
        centroids=centroids,
        inertia=history[-1],
        inertia_history=tuple(history),
    )


@dataclass(frozen=True)
class EntropicState:
    """Macrostate of the current selection (pooled term counts), the
    reservoir strength scaling the gain, and the macrostate's Shannon
    entropy in bits, taken once by ``count_entropy``, which checks the
    counts."""

    macrostate: Mapping[str, int]
    reservoir_strength: float
    bits: float = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.reservoir_strength) or self.reservoir_strength <= 0.0:
            raise ValueError(f"reservoir strength must be positive, got {self.reservoir_strength!r}")
        object.__setattr__(self, "macrostate", dict(self.macrostate))
        object.__setattr__(self, "bits", count_entropy(self.macrostate.values()))


def entropic_gain(state: EntropicState, candidate: Document) -> float:
    """Reservoir-scaled change in Shannon entropy from merging the
    candidate's counts into the macrostate: the forward difference of the
    selection entropy along the merge action. A gain that overflows a
    float is a ``ValueError``."""
    if not candidate.token_counts:
        raise ValueError(f"empty candidate: {candidate.id!r}")
    merged = dict(state.macrostate)
    for term, count in candidate.token_counts.items():
        merged[term] = merged.get(term, 0) + count
    after = count_entropy(merged.values())
    gain = state.reservoir_strength * (after - state.bits)
    if not math.isfinite(gain):
        raise ValueError(f"entropic gain of {candidate.id!r} overflows a float: {gain}")
    return gain


def _cluster_rankings(
    clustering: Clustering, corpus: Corpus, rows: list[int], per_cluster: int, notes: list[str]
) -> list[tuple[CorrelationResult, ...]]:
    """Per-cluster leave-one-out rankings truncated to ``per_cluster``;
    clusters with fewer than 2 members rank nothing (noted). ``rows`` are
    the clustered table rows, ascending, in the assignments' order."""
    groups: list[list[int]] = [[] for _ in range(clustering.k)]
    for row, cluster in zip(rows, clustering.assignments.values()):
        groups[cluster].append(row)
    rankings: list[tuple[CorrelationResult, ...]] = []
    for cluster, members in enumerate(groups):
        if len(members) < 2:
            notes.append(
                f"AggregationWarning: cluster {cluster} has {len(members)} member(s); "
                "nothing selected"
            )
            rankings.append(())
            continue
        ranked = rank_documents(corpus, top_k=per_cluster, notes=notes, rows=members)
        rankings.append(tuple(ranked))
    return rankings


@dataclass(frozen=True)
class AggregationRound:
    """Trace of one cluster-and-reselect round."""

    index: int
    clustering: Clustering
    cluster_rankings: tuple[tuple[CorrelationResult, ...], ...]
    selected_ids: tuple[str, ...]


@dataclass(frozen=True)
class AggregationResult:
    """Global ranking of the surviving documents plus the round trace."""

    ranking: tuple[CorrelationResult, ...]
    rounds: tuple[AggregationRound, ...]
    survivor_ids: tuple[str, ...]


def _aggregation_rounds(
    corpus: Corpus, k: int, rounds: int, per_cluster: int, seed: int, notes: list[str]
) -> tuple[list[AggregationRound], list[int]]:
    """The rounds of :func:`aggregate_corpus`, its checks and notes included:
    the completed rounds and the survivors' ascending table rows, every row
    when no round completed. The caller takes the final ranking:
    :func:`aggregate_corpus` always, ``run`` after a completed round only."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if per_cluster < 1:
        raise ValueError(f"per_cluster must be >= 1, got {per_cluster}")
    if len(corpus) < k:
        raise ValueError(f"fewer documents than clusters: {len(corpus)} < {k}")

    totals = corpus.table.row_totals.tolist()
    rows = list(range(len(corpus)))
    trace: list[AggregationRound] = []
    for index in range(rounds):
        if len(rows) < 2:
            break
        ids, term_rows = unit_term_rows(corpus, rows)
        filled = [i for i in rows if totals[i]]
        notes.extend(
            f"AggregationWarning: document {corpus.documents[i].id!r} has no terms; "
            "excluded from clustering"
            for i in rows
            if not totals[i]
        )
        if len(ids) < 2:
            notes.append(
                f"AggregationWarning: aggregation stopped at round {index}: "
                "fewer than 2 vectorizable documents"
            )
            break
        clustering = kmeans(ids, term_rows, min(k, len(ids)), seed + index)
        cluster_rankings = _cluster_rankings(clustering, corpus, filled, per_cluster, notes)
        selected = [res.doc_id for ranked in cluster_rankings for res in ranked]
        if len(selected) < 2:
            notes.append(
                f"AggregationWarning: aggregation stopped at round {index}: only "
                f"{len(selected)} document(s) would survive; keeping the previous selection"
            )
            break
        trace.append(
            AggregationRound(
                index=index,
                clustering=clustering,
                cluster_rankings=tuple(cluster_rankings),
                selected_ids=tuple(selected),
            )
        )
        rows = sorted(corpus.position(doc_id) for doc_id in selected)
    return trace, rows


def aggregate_corpus(
    corpus: Corpus,
    k: int,
    rounds: int = 1,
    per_cluster: int = 5,
    seed: int = 42,
    notes: list[str] | None = None,
) -> AggregationResult:
    """Run ``rounds`` cluster-and-reselect reductions, round r with seed
    ``seed + r``, then re-rank the survivors among themselves (every row
    when no round completed). A reduction that would leave fewer than 2
    documents stops the loop and keeps the last selection. Each round
    clusters :func:`unit_term_rows` of the selection, so every centroid
    spans the corpus's vocabulary, and ranks its clusters by
    ``rank_documents`` over their rows. Every soft error (a document with no
    term row, a cluster too small to rank, an early stop, a document the
    rankings drop) appends one ``"<Category>: <message>"`` line to ``notes``
    when it is given."""
    if notes is None:
        notes = []
    trace, rows = _aggregation_rounds(corpus, k, rounds, per_cluster, seed, notes)
    ranking = tuple(rank_documents(corpus, top_k=len(rows), notes=notes, rows=rows))
    return AggregationResult(
        ranking=ranking,
        rounds=tuple(trace),
        survivor_ids=tuple(corpus.documents[i].id for i in rows),
    )
