"""Intelligence layer: unit term rows in CSR form, seeded k-means clustering, a
discrete entropic-gain score for candidate additions, and the
cluster-and-reselect aggregation loop.

The k-means rows are the corpus count table's own CSR arrays, its term ids
and row pointers, with each count replaced by a float weight: the term's
proportion in its document, scaled so the row has unit length. A squared
distance's only dense work is its one sum, off the row's nonzeros over the
centroid's own squares. A distance pass takes the rows in the same runs as
the scorer, of about ``corpus._PASS_ENTRIES`` entries each. k-means++
seeding sums a row's distance to a new centroid only where a sparse
estimate, ‖x‖² + ‖c‖² − 2·x·c with a margin past its rounding, cannot rule
out that the new centroid is nearer; elsewhere it could not change d². It
keeps each row's nearest centroid with its d², so k-means's first
assignment and inertia come from seeding, not from a pass of their own.

Aggregation repeatedly clusters the corpus, keeps the most correlated
documents from each cluster, and re-ranks the survivors. Every stochastic
step is driven by a caller-supplied seed, so identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.random import Generator, default_rng

from .corpus import Corpus, Document, _entry_runs
from .infotheory import count_entropy
from .knowledge import CorrelationResult, rank_documents

MAX_KMEANS_ITERATIONS = 100
#: nearest-centroid scores closer than this are re-decided exactly
_TIE_GAP = 1e-9
#: slack for the non-increasing inertia check (float accumulation noise)
_INERTIA_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class TermRows:
    """Rows of a sparse matrix in CSR form: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` in the columns named by the same slice
    of ``indices``, in increasing column order; other entries are zero."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_columns: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.n_columns

    def row(self, i: int) -> np.ndarray:
        """Row i as a dense array of ``n_columns`` floats."""
        out = np.zeros(self.n_columns)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        out[self.indices[lo:hi]] = self.data[lo:hi]
        return out


def unit_term_rows(corpus: Corpus) -> tuple[tuple[str, ...], TermRows]:
    """One row per document with a nonempty table row: its term proportions
    over the corpus's sorted vocabulary, scaled to unit L2 length. A
    document with no positive count gets no row, so it is absent from the
    returned ids. Returns the ids of the rows and the rows.

    The rows are ``corpus.table``'s own: its term ids are the columns and
    its row pointers, less the empty rows, the row pointers."""
    table = corpus.table
    lengths = np.diff(table.indptr)
    kept = np.flatnonzero(lengths)
    totals = np.fromiter((doc.total_tokens for doc in corpus), np.int64, len(corpus))
    # IEEE division of exactly held integers: the same floats as Python's
    data = table.counts / np.repeat(totals, lengths)
    indptr = table.indptr[np.concatenate(([0], kept + 1))]
    # each norm sums the squares of the row's own nonzeros, in term-id order,
    # by numpy's reduction, so no CPU-picked BLAS kernel sets its bits
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        data[lo:hi] /= math.sqrt(float(np.add.reduce(np.square(data[lo:hi]))))
    ids = tuple(corpus.documents[i].id for i in kept.tolist())
    return ids, TermRows(indptr, table.term_ids, data, n_columns=len(table.terms))


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


def _squared_distances(
    rows: TermRows, centroids: np.ndarray, labels: np.ndarray | int
) -> np.ndarray:
    """``((row - centroids[label]) ** 2).sum()`` for every row, bit for bit;
    ``labels`` is one index per row, or one for all. A row labelled −1 is
    not summed and reads +inf. Off a row's nonzeros those squares are the
    centroid's own, (−c)² = c², so a row's (x − c)², one numpy pass per
    ``_entry_runs`` run, is written into one dense row of its centroid's
    squares, summed by the same call, then restored."""
    labels = np.broadcast_to(labels, rows.shape[:1])
    out = np.full(rows.shape[0], np.inf)
    for label, centroid in enumerate(centroids):
        members = np.flatnonzero(labels == label)
        if not len(members):
            continue
        squares = np.square(centroid)
        for block, indptr, take in _entry_runs(rows.indptr, members):
            cols = rows.indices[take]
            own = centroid[cols]
            moved = np.square(rows.data[take] - own)
            np.square(own, out=own)
            bounds = indptr.tolist()
            for i, lo, hi in zip(block.tolist(), bounds, bounds[1:]):
                at = cols[lo:hi]
                squares[at] = moved[lo:hi]
                out[i] = np.add.reduce(squares)
                squares[at] = own[lo:hi]
    return out


def _seed_centroids(
    rows: TermRows, k: int, rng: Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ seeding: spread initial centroids proportionally to the
    squared distance from the nearest already-chosen one. Returns the
    centroids, each row's nearest centroid (ties to the lowest index) and
    its squared distance d2 to it: the dense N x k argmin and minimum, so
    :func:`kmeans` takes them as its first assignment.

    Each chosen centroid c, the last included, takes one pass. The first
    sums every row, as d2 = +inf. Each later one sums the exact distance d̂
    only for the rows c can bring nearer than their ``d2``; every other row
    keeps its ``d2`` bits, as ``np.minimum`` would keep them, and its index,
    which changes only where d̂ < d2. The sparse estimate
    ê = (‖x‖² + ‖c‖²) − 2·x·c decides: a row is skipped where
    ê > d2 + margin, margin = τ·(‖x‖² + ‖c‖² + d2) + tiny, τ = 8·(V + 2)·u,
    u = 2⁻⁵³ the unit roundoff and tiny the least normal float.

    Why that is exact: let D = Σ(x − c)², S = ‖x‖² + ‖c‖² and g = γ_{V+2},
    γ_m = m·u / (1 − m·u). d̂ rounds each of its V terms at most V + 2
    times, so d̂ ≥ (1 − g)·D; ê rounds each term of S and of 2·Σ|xⱼcⱼ| ≤ S at
    most V + 2 times, so |ê − D| ≤ 2g·S. A skipped row then has
    d̂ ≥ (1 − g)·(d2 + margin − 2g·S) ≥ d2 once margin ≥ 4g·(S + d2), which
    τ covers with a factor 2 left for the rounding of the margin and of
    d2 + margin. Below the normal range a product also adds an absolute
    error of at most 2⁻¹⁰⁷⁵; the 4·V products of d̂ and ê stay under tiny.
    An overflowed ê is NaN, or comes with an overflowed margin, or with a
    D past the largest float; none of these skips a row that could draw
    nearer."""
    n = rows.shape[0]
    with np.errstate(over="ignore"):
        norms = np.bincount(
            np.repeat(np.arange(n), np.diff(rows.indptr)), np.square(rows.data), minlength=n
        )
    tau = 8 * (rows.n_columns + 2) * np.finfo(float).epsneg
    centroids = [rows.row(int(rng.integers(n)))]
    d2 = _squared_distances(rows, centroids[0][None], 0)
    labels = np.zeros(n, dtype=np.intp)
    while len(centroids) < k:
        total = float(d2.sum())
        if total <= 0.0:
            # every point coincides with a chosen centroid
            index = int(rng.integers(n))
        else:
            index = int(rng.choice(n, p=d2 / total))
        centroid = rows.row(index)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = norms + norms[index]
            estimate = bound - 2.0 * _products(rows, centroid[None])[:, 0]
            far = estimate > d2 + (tau * (bound + d2) + np.finfo(float).tiny)
        exact = _squared_distances(rows, centroid[None], np.where(far, -1, 0))
        labels[exact < d2] = len(centroids)
        d2 = np.minimum(d2, exact)
        centroids.append(centroid)
    return np.vstack(centroids), labels, d2


def _products(rows: TermRows, centroids: np.ndarray) -> np.ndarray:
    """x·c for every row x and centroid c, summed over the row's nonzeros in
    column order, one centroid at a time: temporaries are nonzero-sized."""
    n = rows.shape[0]
    owner = np.repeat(np.arange(n), np.diff(rows.indptr))
    out = np.empty((n, centroids.shape[0]))
    for j, c in enumerate(centroids):
        out[:, j] = np.bincount(owner, rows.data * c[rows.indices], minlength=n)
    return out


def _nearest(rows: TermRows, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid, ties to the lowest index.

    Decided on ‖c‖² − 2·x·c, the squared distance less the row's own ‖x‖²,
    from the sparse products. A row whose best two scores lie within
    _TIE_GAP is re-decided on exact row-wise distances."""
    scores = _products(rows, centroids)
    scores *= -2.0
    scores += np.einsum("ij,ij->i", centroids, centroids)
    labels = np.argmin(scores, axis=1)
    if centroids.shape[0] > 1:
        best_two = np.partition(scores, 1, axis=1)
        for i in np.flatnonzero(best_two[:, 1] - best_two[:, 0] <= _TIE_GAP):
            labels[i] = _nearest_exactly(rows.row(i), centroids)
    return labels


def _nearest_exactly(row: np.ndarray, centroids: np.ndarray) -> int:
    """Nearest centroid of one dense row by the dense arithmetic."""
    return int(np.argmin(((row - centroids) ** 2).sum(axis=1)))


def _centroid_sums(rows: TermRows, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster column sums, each column summed in row order, as a dense
    mean over the members would sum it."""
    sums = np.zeros((k, rows.n_columns))
    row_labels = np.repeat(labels, np.diff(rows.indptr))
    np.add.at(sums, (row_labels, rows.indices), rows.data)
    return sums


def kmeans(ids: Sequence[str], rows: TermRows, k: int, seed: int) -> Clustering:
    """Lloyd's algorithm with k-means++ initialization on CSR rows (one per
    id, as :func:`unit_term_rows` builds them), deterministic for a fixed
    seed. Stops when assignments repeat or after 100 iterations. An emptied
    cluster is re-seeded to the point farthest from its previous centroid.

    Work per pass is the products of the nonzeros with the centroids, the
    squared differences on the nonzeros, and one V-length sum per row over
    a reused row of its centroid's squares. The first assignment and its
    inertia come from seeding, which keeps each row's nearest centroid and
    d², so no pass of its own precedes the first update; seeding takes the
    sum only for the rows whose sparse estimate cannot rule out a nearer
    new centroid. Distances and inertia are those sums, the row-wise sums
    of squared differences, so results equal those of the dense N x k x V
    computation bit for bit."""
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
    centroids, labels, d2 = _seed_centroids(rows, k, default_rng(seed))
    inertia = float(d2.sum())

    assign: np.ndarray | None = None
    history: list[float] = []
    for _ in range(MAX_KMEANS_ITERATIONS):
        history.append(inertia)
        converged = assign is not None and np.array_equal(labels, assign)
        assign = labels
        if converged:
            break
        updated = _centroid_sums(rows, assign, k)
        sizes = np.bincount(assign, minlength=k)
        for c in range(k):
            if sizes[c]:
                updated[c] /= sizes[c]
            else:
                farthest = int(np.argmax(_squared_distances(rows, centroids, c)))
                updated[c] = rows.row(farthest)
        centroids = updated
        labels = _nearest(rows, centroids)
        inertia = float(_squared_distances(rows, centroids, labels).sum())
    else:
        # iteration cap landed on an update; the last pass re-synced
        # assignments to its centroids
        assign = labels
        history.append(inertia)

    return Clustering(
        k=k,
        seed=seed,
        assignments={doc_id: int(c) for doc_id, c in zip(ids, assign)},
        centroids=centroids,
        inertia=history[-1],
        inertia_history=tuple(history),
    )


@dataclass(frozen=True)
class EntropicState:
    """Macrostate of the current selection (pooled term counts), the
    reservoir strength scaling the gain, and the macrostate's Shannon
    entropy in bits, taken once."""

    macrostate: Mapping[str, int]
    reservoir_strength: float
    bits: float = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.reservoir_strength) or self.reservoir_strength <= 0.0:
            raise ValueError(f"reservoir strength must be positive, got {self.reservoir_strength!r}")
        positive = 0
        for term, count in self.macrostate.items():
            if count < 0:
                raise ValueError(f"negative count for term {term!r}")
            if count > 0:
                positive += 1
        if positive == 0:
            raise ValueError("macrostate has no terms")
        object.__setattr__(self, "macrostate", dict(self.macrostate))
        object.__setattr__(self, "bits", count_entropy(self.macrostate.values()))


def entropic_gain(state: EntropicState, candidate: Document) -> float:
    """Reservoir-scaled change in Shannon entropy from merging the
    candidate's counts into the macrostate: the forward difference of the
    selection entropy along the merge action."""
    if candidate.total_tokens == 0:
        raise ValueError(f"empty candidate: {candidate.id!r}")
    merged = dict(state.macrostate)
    for term, count in candidate.token_counts.items():
        merged[term] = merged.get(term, 0) + count
    after = count_entropy(merged.values())
    return state.reservoir_strength * (after - state.bits)


def _cluster_rankings(
    clustering: Clustering, corpus: Corpus, per_cluster: int, notes: list[str]
) -> list[tuple[CorrelationResult, ...]]:
    """Per-cluster leave-one-out rankings truncated to ``per_cluster``;
    clusters with fewer than 2 members rank nothing (noted)."""
    rankings: list[tuple[CorrelationResult, ...]] = []
    for cluster in range(clustering.k):
        members = clustering.members(cluster)
        if len(members) < 2:
            notes.append(
                f"AggregationWarning: cluster {cluster} has {len(members)} member(s); "
                "nothing selected"
            )
            rankings.append(())
            continue
        rows = sorted(corpus.position(doc_id) for doc_id in members)
        ranked = rank_documents(corpus, top_k=per_cluster, notes=notes, rows=rows)
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


def aggregate_corpus(
    corpus: Corpus,
    k: int,
    rounds: int = 1,
    per_cluster: int = 5,
    seed: int = 42,
    notes: list[str] | None = None,
) -> AggregationResult:
    """Run ``rounds`` cluster-and-reselect reductions, then re-rank the
    survivors among themselves. Round r uses seed ``seed + r``. Stops early
    if a reduction would leave fewer than 2 documents, keeping the last
    corpus that could still be ranked.

    Every soft error (a document with no term row, a cluster too small to
    rank, an early stop, a document the rankings drop) appends one
    ``"<Category>: <message>"`` line to ``notes`` when it is given."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if per_cluster < 1:
        raise ValueError(f"per_cluster must be >= 1, got {per_cluster}")
    if len(corpus) < k:
        raise ValueError(f"fewer documents than clusters: {len(corpus)} < {k}")

    if notes is None:
        notes = []
    current = corpus
    trace: list[AggregationRound] = []
    for index in range(rounds):
        if len(current) < 2:
            break
        ids, rows = unit_term_rows(current)
        kept = set(ids)
        notes.extend(
            f"AggregationWarning: document {doc.id!r} has no terms; excluded from clustering"
            for doc in current
            if doc.id not in kept
        )
        if len(ids) < 2:
            notes.append(
                f"AggregationWarning: aggregation stopped at round {index}: "
                "fewer than 2 vectorizable documents"
            )
            break
        clustering = kmeans(ids, rows, min(k, len(ids)), seed + index)
        cluster_rankings = _cluster_rankings(clustering, current, per_cluster, notes)
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
        current = current.subset(selected)

    ranking = tuple(rank_documents(current, top_k=len(current), notes=notes))
    return AggregationResult(
        ranking=ranking,
        rounds=tuple(trace),
        survivor_ids=tuple(doc.id for doc in current),
    )

