"""Correlation-based document ranking and the testimony justification score.

A document is scored by the Pearson correlation between its log10 term
proportions and those of the leave-one-out aggregate (every other document
pooled), computed over the terms both sides share. Significance comes from
the two-sided Student t test on r, evaluated in this module.

A ranking pools the corpus once: each leave-one-out count is the pooled
total minus the document's own count, so scoring every document costs work
linear in the (document, term) pairs rather than one re-pool per document.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Document, frequency_scatter

#: shortest term overlap for which a correlation is computed
MIN_SHARED_TERMS = 3
#: a continued fraction or series stops once a step changes it by this little
_EPS = sys.float_info.epsilon
#: Lentz's stand-in for a vanishing denominator
_TINY = 1e-300
#: most continued-fraction steps before the evaluation is abandoned
_MAX_STEPS = 1000
#: a from which ln Γ(a + ½) − ln Γ(a) comes from its asymptotic series
_SERIES_FROM = 25.0
#: a from which the lower tail comes from the large-a expansion
_EXPANSION_FROM = 15.0


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
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    # equal inputs decide it, as a mean of equal floats can be off in the last
    # bit; denom is 0 for unequal inputs only where the squares underflow
    if x.min() == x.max() or y.min() == y.max() or denom == 0.0:
        raise ValueError("zero variance input")
    return dx, dy, denom


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, clamped to [-1, 1]."""
    dx, dy, denom = pearson_parts(xs, ys)
    r = float(dx @ dy) / denom
    return max(-1.0, min(1.0, r))


def _log_gamma_ratio(a: float) -> float:
    """ln Γ(a + ½) − ln Γ(a). For large a the difference of two lgamma
    values cancels, so it comes from the asymptotic series of DLMF 5.11.8
    at h = ½: ½ ln a − 1/(8a) + 1/(192a³) − 1/(640a⁵) + ..."""
    if a < _SERIES_FROM:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / (a * a)
    series = 1 / 8 - z * (1 / 192 - z * (1 / 640 - z * (17 / 14336 - z * 31 / 18432)))
    return 0.5 * math.log(a) - series / a


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) · a·B(a, b) / (x^a (1 − x)^b),
    evaluated by the modified Lentz method (Lentz 1976; Numerical Recipes
    ``betacf``). Converges quickly for x below (a + 1) / (a + b + 2)."""

    def nonzero(value: float) -> float:
        return value if abs(value) > _TINY else _TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, _MAX_STEPS):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / nonzero(1.0 + numerator * d)
            c = nonzero(1.0 + numerator / c)
            step = d * c
            fraction *= step
        if abs(step - 1.0) <= _EPS:
            return fraction
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a!r}, b={b!r}, x={x!r}")


def _expansion_coefficients(count: int) -> tuple[float, ...]:
    """The coefficients p_1 .. p_count of the large-a expansion of
    I_x(a, ½) (DiDonato & Morris 1992, algorithm BGRAT, at b = ½)."""
    b = 0.5
    c: list[float] = []
    d: list[float] = []
    factorial = 1.0
    for n in range(1, count + 1):
        factorial /= (2 * n) * (2 * n + 1)
        c.append(factorial)
        s = math.fsum((i * b - n) * c[i - 1] * d[n - 1 - i] for i in range(1, n))
        d.append((b - 1.0) * factorial + s / n)
    return tuple(d)


_EXPANSION = _expansion_coefficients(30)


def _lower_tail_large_a(a: float, log_x: float) -> float:
    """I_x(a, ½) for a >= _EXPANSION_FROM and x between ½ and the switch
    point, from the expansion in erfc(√z), z = −(a − ¼)·ln x, of DiDonato &
    Morris (1992). The continued fraction there loses about a·ε to
    rounding."""
    nu = a - 0.25
    z = -nu * log_x
    upper_gamma = math.erfc(math.sqrt(z))  # Q(½, z)
    if upper_gamma == 0.0:
        return 0.0
    log_scale = 0.5 * math.log(z / math.pi) - z  # ln(e^(−z) z^½ / Γ(½))
    v = 0.25 / (nu * nu)
    t_step = 0.25 * log_x * log_x
    j = upper_gamma / math.exp(log_scale)
    total = j
    t = 1.0
    for n, coefficient in enumerate(_EXPANSION, start=1):
        shift = 2.0 * n - 1.5  # b + 2n − 2
        j = (shift * (shift + 1.0) * j + (z + shift + 1.0) * t) * v
        t *= t_step
        term = coefficient * j
        total += term
        if abs(term) <= _EPS * total:
            break
    return math.exp(_log_gamma_ratio(a) - 0.5 * math.log(nu) + log_scale) * total


def correlation_p_value(r: float, n: int) -> float:
    """Two-sided p-value for a sample correlation ``r`` over ``n`` points.

    Uses t = r*sqrt((n-2)/(1-r^2)) against Student's t with df = n-2
    degrees of freedom: the tail mass is the regularized incomplete beta
    I_x(a, ½), a = df/2, at x = df/(df+t²) = 1 − r², with 1 − x = r².
    Below x = (a+1)/(a+2.5) it is the continued fraction, or the large-a
    expansion once a >= 15 and x > ½; above, it is one minus the symmetric
    form I_{1−x}(½, a).
    """
    if n < MIN_SHARED_TERMS:
        raise ValueError(f"n must be >= {MIN_SHARED_TERMS}, got {n}")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"r {r!r} outside [-1, 1]")
    if abs(r) == 1.0:
        return 0.0
    y = r * r  # 1 − x, taken without the cancellation in 1 − x
    if y == 0.0:
        return 1.0
    a = (n - 2) / 2.0
    x = (1.0 - abs(r)) * (1.0 + abs(r))
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    lower = x < (a + 1.0) / (a + 2.5)
    if lower and a >= _EXPANSION_FROM and y < 0.5:
        return _lower_tail_large_a(a, log_x)
    # x^a (1 − x)^½ / B(a, ½)
    front = math.exp(_log_gamma_ratio(a) - 0.5 * math.log(math.pi) + a * log_x + math.log(abs(r)))
    if lower:
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - front * _beta_fraction(0.5, a, y) / 0.5


def _log_proportion_profiles(
    doc: Document, totals: Mapping[str, int], grand: int, held_out: Document
) -> tuple[list[str], list[float], list[float]]:
    """Shared terms (lexicographic) with log10 proportions on both sides.

    The reference is the pooled ``totals`` (summing to ``grand``) less the
    ``held_out`` document's counts: the leave-one-out aggregate, taken in
    the document's own terms without building it."""
    held = held_out.token_counts
    rest = {t: totals.get(t, 0) - held.get(t, 0) for t in doc.token_counts}
    shared, dps, rps = frequency_scatter(doc, rest, grand - held_out.total_tokens)
    return shared, [math.log10(p) for p in dps], [math.log10(p) for p in rps]


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


def rank_documents(
    corpus: Corpus, top_k: int, notes: list[str] | None = None
) -> list[CorrelationResult]:
    """Correlation results for every document, descending by r (ties by
    ascending id), truncated to ``top_k``.

    Documents that cannot be scored (insufficient overlap, zero variance)
    are dropped rather than failing the run; each drop appends one
    ``"RankingWarning: excluding ..."`` line to ``notes`` when it is given.
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
            if notes is not None:
                notes.append(f"RankingWarning: excluding {doc.id!r}: {exc}")
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
