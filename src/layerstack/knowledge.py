"""Correlation-based document ranking and the testimony justification score.

A document is scored by the Pearson correlation between its log10 term
proportions and those of the leave-one-out aggregate (every other document
pooled), computed over the terms both sides share. Significance comes from
the two-sided Student t test on r.

A ranking pools the corpus once: each leave-one-out count is the pooled
total minus the document's own count, so scoring every document costs work
linear in the (document, term) pairs rather than one re-pool per document.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np
from scipy.special import betainc

from .corpus import Corpus, Document

#: shortest term overlap for which a correlation is computed
MIN_SHARED_TERMS = 3


class RankingWarning(UserWarning):
    """A document was excluded from a ranking (soft, per-document error)."""


@dataclass(frozen=True)
class CorrelationResult:
    """One document's correlation against its leave-one-out reference."""

    doc_id: str
    r: float
    p_value: float
    n: int

    def __post_init__(self) -> None:
        if not -1.0 <= self.r <= 1.0:
            raise ValueError(f"r {self.r!r} outside [-1, 1]")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value!r} outside [0, 1]")
        if self.n < MIN_SHARED_TERMS:
            raise ValueError(f"n {self.n} < {MIN_SHARED_TERMS}")


def pearson_parts(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Mean-centred samples and the Pearson denominator sqrt(Sxx * Syy), so
    that r = dx @ dy / denom and dx[i] * dy[i] / denom is term i's share."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < MIN_SHARED_TERMS:
        raise ValueError(f"need at least {MIN_SHARED_TERMS} points, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance input")
    return dx, dy, math.sqrt(sxx * syy)


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, clamped to [-1, 1]."""
    dx, dy, denom = pearson_parts(xs, ys)
    r = float(dx @ dy) / denom
    return max(-1.0, min(1.0, r))


def correlation_p_value(r: float, n: int) -> float:
    """Two-sided p-value for a sample correlation ``r`` over ``n`` points.

    Uses t = r*sqrt((n-2)/(1-r^2)) against Student's t with n-2 degrees of
    freedom; the tail mass is evaluated through the regularized incomplete
    beta function.
    """
    if n < MIN_SHARED_TERMS:
        raise ValueError(f"n must be >= {MIN_SHARED_TERMS}, got {n}")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"r {r!r} outside [-1, 1]")
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t_sq = r * r * df / (1.0 - r * r)
    return float(betainc(df / 2.0, 0.5, df / (df + t_sq)))


def _log_proportion_profiles(
    doc: Document, totals: Mapping[str, int], grand: int, held_out: Document
) -> tuple[list[str], list[float], list[float]]:
    """Shared terms (lexicographic) with log10 proportions on both sides.

    The reference is the pooled ``totals`` (summing to ``grand``) less the
    ``held_out`` document's counts: the leave-one-out aggregate, taken in
    the document's own terms without building it."""
    held = held_out.token_counts
    rest = {t: totals.get(t, 0) - held.get(t, 0) for t, c in doc.token_counts.items() if c > 0}
    shared = sorted(t for t, c in rest.items() if c > 0)
    doc_total = doc.total_tokens
    ref_total = grand - held_out.total_tokens
    xs = [math.log10(doc.token_counts[t] / doc_total) for t in shared]
    ys = [math.log10(rest[t] / ref_total) for t in shared]
    return shared, xs, ys


def _correlate(
    doc: Document, totals: Mapping[str, int], grand: int, held_out: Document
) -> CorrelationResult:
    shared, xs, ys = _log_proportion_profiles(doc, totals, grand, held_out)
    if len(shared) < MIN_SHARED_TERMS:
        raise ValueError(
            f"insufficient overlap: {doc.id!r} shares {len(shared)} terms with the rest"
        )
    r = pearson_r(xs, ys)
    return CorrelationResult(
        doc_id=doc.id, r=r, p_value=correlation_p_value(r, len(shared)), n=len(shared)
    )


def correlate_document(doc: Document, corpus: Corpus) -> CorrelationResult:
    """Correlate one document's log-proportion profile against the pooled
    profile of every other document in the corpus (the corpus's own copy
    of ``doc.id`` is the one held out)."""
    if doc.id not in corpus:
        raise ValueError(f"document {doc.id!r} not in corpus")
    totals = corpus.total_counts()
    return _correlate(doc, totals, sum(totals.values()), corpus.get(doc.id))


def rank_documents(corpus: Corpus, top_k: int) -> list[CorrelationResult]:
    """Correlation results for every document, descending by r (ties by
    ascending id), truncated to ``top_k``.

    Documents that cannot be scored (insufficient overlap, zero variance)
    are dropped with a :class:`RankingWarning` rather than failing the run.
    """
    if len(corpus) < 2:
        raise ValueError(f"ranking needs at least 2 documents, got {len(corpus)}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    totals = corpus.total_counts()
    grand = sum(totals.values())
    results = []
    for doc in corpus:
        try:
            results.append(_correlate(doc, totals, grand, doc))
        except ValueError as exc:
            warnings.warn(f"excluding {doc.id!r}: {exc}", RankingWarning, stacklevel=2)
    results.sort(key=lambda res: (-res.r, res.doc_id))
    return results[:top_k]


@dataclass(frozen=True)
class EventSpace:
    """A finite weighted outcome space with a belief event and testimonies."""

    weights: Mapping[Hashable, float]
    belief_event: frozenset
    testimonies: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("empty event space")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("negative outcome weight")
        total = math.fsum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"outcome weights sum to {total!r}, not 1")
        if not self.testimonies:
            raise ValueError("at least one testimony is required")
        outcomes = set(self.weights)
        for name, subset in [("belief_event", self.belief_event)] + [
            (f"testimony {i + 1}", t) for i, t in enumerate(self.testimonies)
        ]:
            if not set(subset) <= outcomes:
                raise ValueError(f"{name} is not a subset of the outcome space")

    def probability(self, event: frozenset) -> float:
        """Exact-enumeration probability of an event."""
        return math.fsum(self.weights[o] for o in event)


def justification_score(space: EventSpace) -> float:
    """Probability-ratio justification of a belief given testimonies.

    Returns p(B ∩ t1 ∩ ... ∩ tk) / (p(t1) * p(t1 | t2, ..., tk)), all
    probabilities evaluated by exact enumeration. With a single testimony the
    conditional factor is defined as p(t1).
    """
    t1 = space.testimonies[0]
    p_t1 = space.probability(t1)
    if p_t1 == 0.0:
        raise ValueError("untestable testimony: p(t1) = 0")
    if len(space.testimonies) == 1:
        conditional = p_t1
    else:
        rest = frozenset.intersection(*space.testimonies[1:])
        p_rest = space.probability(rest)
        if p_rest == 0.0:
            raise ValueError("untestable testimony: conditioning set has probability 0")
        conditional = space.probability(t1 & rest) / p_rest
    denominator = p_t1 * conditional
    if denominator == 0.0:
        raise ValueError("untestable testimony: zero denominator")
    joint = space.belief_event
    for testimony in space.testimonies:
        joint = joint & testimony
    return space.probability(joint) / denominator
