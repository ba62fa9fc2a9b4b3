"""Intelligence layer: unit term rows in CSR form, seeded k-means clustering, a
discrete entropic-gain score for candidate additions, and the
cluster-and-reselect aggregation loop.

Aggregation repeatedly clusters the corpus, keeps the most correlated
documents from each cluster, and re-ranks the survivors. Every stochastic
step is driven by a caller-supplied seed, so identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.random import Generator, default_rng

from .corpus import Corpus, Document
from .infotheory import count_entropy
from .knowledge import CorrelationResult, rank_documents

MAX_KMEANS_ITERATIONS = 100
#: most floats in one dense row block (2 MB)
_BLOCK_FLOATS = 2**18
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

    def dense(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows ``start:stop`` (clipped to the row count) as a dense array."""
        n = self.shape[0]
        stop = n if stop is None else min(stop, n)
        block = np.zeros((stop - start, self.n_columns))
        lo, hi = self.indptr[start], self.indptr[stop]
        owner = np.repeat(np.arange(stop - start), np.diff(self.indptr[start : stop + 1]))
        block[owner, self.indices[lo:hi]] = self.data[lo:hi]
        return block


def unit_term_rows(
    docs: Sequence[Document], vocabulary: Sequence[str]
) -> tuple[tuple[str, ...], TermRows]:
    """One row per document: its term proportions laid out over
    ``vocabulary`` (terms outside it are dropped), scaled to unit L2 length.
    A document sharing no term with the vocabulary gets no row, so it is
    absent from the returned ids. Returns the ids of the rows and the rows."""
    column = {term: j for j, term in enumerate(vocabulary)}
    # the norm is taken over the dense layout, one reused row at a time: BLAS
    # sums the squares in lanes set by column position, so the norm of the
    # nonzeros alone often differs in the last bit
    scratch = np.zeros(len(vocabulary))
    ids: list[str] = []
    lengths, indices, data = [0], [], []
    for doc in docs:
        terms = [(column[t], c) for t, c in doc.token_counts.items() if c > 0 and t in column]
        if not terms:
            continue
        cols = np.fromiter((j for j, _ in terms), dtype=np.intp, count=len(terms))
        counts = np.fromiter((c for _, c in terms), dtype=np.float64, count=len(terms))
        order = np.argsort(cols)
        cols = cols[order]
        # IEEE division of exactly held integers: the same floats as Python's
        values = counts[order] / doc.total_tokens
        scratch[cols] = values
        norm = float(np.linalg.norm(scratch))
        scratch[cols] = 0.0
        ids.append(doc.id)
        lengths.append(len(terms))
        indices.append(cols)
        data.append(values / norm)
    rows = TermRows(
        indptr=np.cumsum(lengths, dtype=np.intp),
        indices=np.concatenate([np.empty(0, np.intp), *indices]),
        data=np.concatenate([np.empty(0), *data]),
        n_columns=len(vocabulary),
    )
    return tuple(ids), rows


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
    """``((row - centroids[label]) ** 2).sum()`` for every row, on dense row
    blocks of at most _BLOCK_FLOATS floats. ``labels`` is one index per row,
    or one index for all of them."""
    n, v = rows.shape
    labels = np.broadcast_to(labels, (n,))
    step = max(1, _BLOCK_FLOATS // v)
    out = np.empty(n)
    for start in range(0, n, step):
        block = rows.dense(start, start + step)
        block -= centroids[labels[start : start + step]]
        np.square(block, out=block)
        out[start : start + step] = block.sum(axis=1)
    return out


def _seed_centroids(rows: TermRows, k: int, rng: Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to the
    squared distance from the nearest already-chosen one."""
    n = rows.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _squared_distances(rows, rows.dense(chosen[0], chosen[0] + 1), 0)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            # every point coincides with a chosen centroid
            index = int(rng.integers(n))
        else:
            index = int(rng.choice(n, p=d2 / total))
        chosen.append(index)
        d2 = np.minimum(d2, _squared_distances(rows, rows.dense(index, index + 1), 0))
    return np.vstack([rows.dense(i, i + 1) for i in chosen])


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
            labels[i] = _nearest_exactly(rows.dense(i, i + 1), centroids)
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

    Work per pass is the products of the nonzeros with the centroids and
    dense row blocks, both of bounded size; distances and inertia are the
    row-wise sums of squared differences, so results equal those of the
    dense N x k x V computation."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(ids) != rows.shape[0]:
        raise ValueError(f"{len(ids)} ids for {rows.shape[0]} rows")
    if len(ids) < k:
        raise ValueError(f"fewer rows than k: {len(ids)} < {k}")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate doc ids among rows")
    rng = default_rng(seed)
    centroids = _seed_centroids(rows, k, rng)

    def assignment_pass() -> tuple[np.ndarray, float]:
        labels = _nearest(rows, centroids)
        return labels, float(_squared_distances(rows, centroids, labels).sum())

    assign: np.ndarray | None = None
    history: list[float] = []
    for _ in range(MAX_KMEANS_ITERATIONS):
        labels, inertia = assignment_pass()
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
                updated[c] = rows.dense(farthest, farthest + 1)
        centroids = updated
    else:
        # iteration cap landed on an update; re-sync assignments to centroids
        assign, inertia = assignment_pass()
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
    """Macrostate of the current selection (pooled term counts) and the
    reservoir strength scaling the gain."""

    macrostate: Mapping[str, int]
    reservoir_strength: float

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


def entropic_gain(state: EntropicState, candidate: Document) -> float:
    """Reservoir-scaled change in Shannon entropy from merging the
    candidate's counts into the macrostate: the forward difference of the
    selection entropy along the merge action."""
    return _entropic_gain(state, candidate, count_entropy(state.macrostate.values()))


def _entropic_gain(state: EntropicState, candidate: Document, before: float) -> float:
    """:func:`entropic_gain` given ``before``, the macrostate's entropy, so
    that scoring many candidates against one state takes it once."""
    if candidate.total_tokens == 0:
        raise ValueError(f"empty candidate: {candidate.id!r}")
    merged = dict(state.macrostate)
    for term, count in candidate.token_counts.items():
        merged[term] = merged.get(term, 0) + count
    after = count_entropy(merged.values())
    return state.reservoir_strength * (after - before)


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
        ranked = rank_documents(corpus.subset(members), top_k=per_cluster, notes=notes)
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
        ids, rows = unit_term_rows(current.documents, sorted(current.vocabulary))
        kept = set(ids)
        notes.extend(
            f"AggregationWarning: excluding {doc.id!r}: orthogonal document: "
            f"{doc.id!r} shares no terms with the vocabulary"
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

