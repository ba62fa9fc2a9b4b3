"""Intelligence layer: document vectors, seeded k-means clustering, a
discrete entropic-gain score for candidate additions, and the
cluster-and-reselect aggregation loop.

Aggregation repeatedly clusters the corpus, keeps the most correlated
documents from each cluster, and re-ranks the survivors. Every stochastic
step is driven by a caller-supplied seed, so identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, Document
from .infotheory import TokenDistribution, shannon_entropy
from .knowledge import CorrelationResult, rank_documents

MAX_KMEANS_ITERATIONS = 100
_UNIT_NORM_TOL = 1e-9
#: slack for the non-increasing inertia check (float accumulation noise)
_INERTIA_SLACK = 1e-9


class AggregationWarning(UserWarning):
    """Non-fatal aggregation condition (tiny cluster, early stop)."""


@dataclass(frozen=True, eq=False)
class DocVector:
    """A document's term proportions over a fixed vocabulary ordering,
    scaled to unit L2 length. ``norm`` is the pre-scaling L2 length."""

    doc_id: str
    components: np.ndarray
    norm: float

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        values = np.asarray(self.components, dtype=float).copy()
        if values.ndim != 1 or values.size == 0:
            raise ValueError("components must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite components for {self.doc_id!r}")
        if not math.isfinite(self.norm) or self.norm <= 0.0:
            raise ValueError(f"norm must be positive, got {self.norm!r}")
        length = float(np.linalg.norm(values))
        if abs(length - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"components of {self.doc_id!r} are not unit length")
        values.flags.writeable = False
        object.__setattr__(self, "components", values)
        object.__setattr__(self, "norm", float(self.norm))


def doc_vector(doc: Document, vocabulary_order: Sequence[str]) -> DocVector:
    """Lay the document's term proportions out over ``vocabulary_order``
    (0 for absent terms) and scale to unit length."""
    if not vocabulary_order:
        raise ValueError("vocabulary_order must be non-empty")
    proportions = doc.proportions()
    values = np.array([proportions.get(t, 0.0) for t in vocabulary_order], dtype=float)
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        raise ValueError(
            f"orthogonal document: {doc.id!r} shares no terms with the vocabulary"
        )
    return DocVector(doc_id=doc.id, components=values / norm, norm=norm)


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


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to the
    squared distance from the nearest already-chosen one."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            # every point coincides with a chosen centroid
            index = int(rng.integers(n))
        else:
            index = int(rng.choice(n, p=d2 / total))
        chosen.append(index)
        d2 = np.minimum(d2, ((points - points[index]) ** 2).sum(axis=1))
    return points[chosen].copy()


def kmeans(vectors: Sequence[DocVector], k: int, seed: int) -> Clustering:
    """Lloyd's algorithm with k-means++ initialization, deterministic for a
    fixed seed. Stops when assignments repeat or after 100 iterations. An
    emptied cluster is re-seeded to the point farthest from its previous
    centroid."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(vectors) < k:
        raise ValueError(f"fewer vectors than k: {len(vectors)} < {k}")
    ids = [v.doc_id for v in vectors]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate doc ids among vectors")
    sizes = {v.components.size for v in vectors}
    if len(sizes) != 1:
        raise ValueError(f"mixed vector lengths: {sorted(sizes)}")
    points = np.vstack([v.components for v in vectors])
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(points, k, rng)

    def assignment_pass() -> tuple[np.ndarray, float]:
        d2 = _squared_distances(points, centroids)
        labels = np.argmin(d2, axis=1)  # ties break to the lowest index
        return labels, float(d2[np.arange(n), labels].sum())

    assign: np.ndarray | None = None
    history: list[float] = []
    for _ in range(MAX_KMEANS_ITERATIONS):
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

    def distribution(self) -> TokenDistribution:
        return TokenDistribution.from_counts(self.macrostate)


def entropic_gain(state: EntropicState, candidate: Document) -> float:
    """Reservoir-scaled change in Shannon entropy from merging the
    candidate's counts into the macrostate: the forward difference of the
    selection entropy along the merge action."""
    if candidate.total_tokens == 0:
        raise ValueError(f"empty candidate: {candidate.id!r}")
    merged: Counter[str] = Counter(state.macrostate)
    merged.update(candidate.token_counts)
    before = shannon_entropy(state.distribution())
    after = shannon_entropy(TokenDistribution.from_counts(merged))
    return state.reservoir_strength * (after - before)


def _cluster_rankings(
    clustering: Clustering, corpus: Corpus, per_cluster: int
) -> list[tuple[CorrelationResult, ...]]:
    """Per-cluster leave-one-out rankings truncated to ``per_cluster``;
    clusters with fewer than 2 members rank nothing (warning)."""
    rankings: list[tuple[CorrelationResult, ...]] = []
    for cluster in range(clustering.k):
        members = clustering.members(cluster)
        if len(members) < 2:
            warnings.warn(
                f"cluster {cluster} has {len(members)} member(s); nothing selected",
                AggregationWarning,
                stacklevel=3,
            )
            rankings.append(())
            continue
        ranked = rank_documents(corpus.subset(members), top_k=per_cluster)
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
    corpus: Corpus, k: int, rounds: int = 1, per_cluster: int = 5, seed: int = 42
) -> AggregationResult:
    """Run ``rounds`` cluster-and-reselect reductions, then rank the
    survivors globally. Round r uses seed ``seed + r``. Stops early (with a
    warning) if a reduction would leave fewer than 2 documents, keeping the
    last corpus that could still be ranked."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if per_cluster < 1:
        raise ValueError(f"per_cluster must be >= 1, got {per_cluster}")
    if len(corpus) < k:
        raise ValueError(f"fewer documents than clusters: {len(corpus)} < {k}")

    current = corpus
    trace: list[AggregationRound] = []
    for index in range(rounds):
        if len(current) < 2:
            break
        vocabulary = sorted(current.vocabulary)
        vectors: list[DocVector] = []
        for doc in current:
            try:
                vectors.append(doc_vector(doc, vocabulary))
            except ValueError as exc:
                warnings.warn(f"excluding {doc.id!r}: {exc}", AggregationWarning, stacklevel=2)
        if len(vectors) < 2:
            warnings.warn(
                f"aggregation stopped at round {index}: fewer than 2 vectorizable documents",
                AggregationWarning,
                stacklevel=2,
            )
            break
        clustering = kmeans(vectors, min(k, len(vectors)), seed + index)
        vector_corpus = current.subset([v.doc_id for v in vectors])
        cluster_rankings = _cluster_rankings(clustering, vector_corpus, per_cluster)
        selected = [res.doc_id for ranked in cluster_rankings for res in ranked]
        if len(selected) < 2:
            warnings.warn(
                f"aggregation stopped at round {index}: only {len(selected)} document(s) "
                "would survive; keeping the previous selection",
                AggregationWarning,
                stacklevel=2,
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

    ranking = tuple(rank_documents(current, top_k=len(current)))
    return AggregationResult(
        ranking=ranking,
        rounds=tuple(trace),
        survivor_ids=tuple(doc.id for doc in current),
    )

