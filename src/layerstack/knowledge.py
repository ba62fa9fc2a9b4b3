"""Correlation-based document ranking and the testimony justification score.

A document is scored by the Pearson correlation between its log10 term
proportions and those of the leave-one-out aggregate (every other document
pooled), computed over the terms both sides share. Significance comes from
the two-sided Student t test on r, evaluated in this module.

One scorer serves ``rank_documents``, ``correlate_document`` and the belief
layer's evidence. It takes a ranking's rows of the corpus's integer count
table and their pooled counts, the table's column margin or a selection's
pool, and lays the rows' entries end to end, once per call: each
leave-one-out count is the pooled total minus the row's own count, and one
numpy pass over a run of rows, a slice of that layout of about
``corpus._PASS_ENTRIES`` entries, finds the shared terms and both sides'
proportions for all of them. The same pass then correlates every row of the
run at once: each row's span of the profiles is one segment, and every
Pearson sum of every segment comes from one ``np.add.reduceat`` call, bit
for bit the ``np.add.reduce`` of that segment alone. ``pearson_r`` is the
one-segment case of the same code, so the program has one Pearson and calls
it once per run, not once per row. So only the corpus's own documents are
scored, at work linear in the (document, term) pairs, with no string lookup
and no re-pool per document. A ranking takes every row's r and overlap n,
but the p-value, a continued fraction or series, only for the rows it
returns. ``ranking_rows`` and ``ranking_tsv`` render a ranking as the rows
and the TSV text of the CLI's output and of the run's tables.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Document, _entry_runs, _zero_led, shared_proportions

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


#: why a segment has no r, by ``_pearson_segments`` fault code
_FAULTS = (None, "insufficient overlap", "non-finite input or denominator", "zero variance input")


def _pearson_segments(
    x: np.ndarray, y: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The one Pearson: the parts of every segment ``x[bounds[i]:bounds[i +
    1]]`` against the same span of ``y``, in one numpy pass over them all;
    ``bounds`` runs from 0 to ``len(x)``.

    Returns the mean-centred samples ``dx`` and ``dy``, aligned with ``x``,
    and for each segment the denominator sqrt(Sxx * Syy), r = Sxy / denom
    clamped to [-1, 1] and a fault code, an index into ``_FAULTS``: 0 when
    r can be taken, else the first fault of a segment with fewer than
    ``MIN_SHARED_TERMS`` points, a non-finite denominator (from a non-finite
    input or an overflow) and equal inputs or a zero denominator.

    The samples are laid out as ``_zero_led`` lays them, each segment after
    a 0.0 of its own, and stay so while they are centred, so every sum is
    one ``np.add.reduceat`` call over all the segments and equals
    ``np.add.reduce`` of the segment's own floats (see ``_segment_sums``):
    each float is the same on every CPU and for any cut of the segments
    into calls, and IEEE ``sqrt``, ``*`` and ``/`` give the floats of their
    scalar ``math`` forms."""
    n = np.diff(bounds)
    heads, slots = _zero_led(bounds)
    led = np.zeros((2, len(slots) + len(heads)))
    led[0, slots] = x
    led[1, slots] = y
    with np.errstate(all="ignore"):
        # the floats of x - x.mean(), whose mean is umr_sum / n, each segment
        # still after its 0.0, so that each sum is a _segment_sums
        led -= np.repeat(np.add.reduceat(led, heads, axis=1) / n, n + 1, axis=1)
        led[:, heads] = 0.0
        sxx, syy = np.add.reduceat(led * led, heads, axis=1)
        denom = np.sqrt(sxx * syy)
        r = np.clip(np.add.reduceat(led[0] * led[1], heads) / denom, -1.0, 1.0)
    # equal inputs decide it, as a mean of equal floats can be off in the
    # last bit; denom is 0 for unequal inputs only where the squares underflow
    fault = np.where((denom == 0.0) | _all_equal(x, bounds) | _all_equal(y, bounds), 3, 0)
    fault[~np.isfinite(denom)] = 2
    fault[n < MIN_SHARED_TERMS] = 1
    dx, dy = led.take(slots, axis=1)
    return dx, dy, denom, r, fault


def _all_equal(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Whether each segment of ``values`` holds one value, as its least and
    greatest agree. An empty segment, or one holding a NaN, reads False."""
    filled = np.flatnonzero(np.diff(bounds))
    equal = np.zeros(len(bounds) - 1, dtype=bool)
    starts = bounds[filled]
    # the filled segments, laid end to end, reach from each start to the next
    equal[filled] = np.maximum.reduceat(values, starts) == np.minimum.reduceat(values, starts)
    return equal


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, clamped to [-1, 1]: the
    ``_pearson_segments`` r of the two samples as one segment, or a
    ``ValueError`` naming its fault."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    *_, [r], [fault] = _pearson_segments(x, y, np.array([0, x.size]))
    if fault == 1:
        raise ValueError(f"need at least {MIN_SHARED_TERMS} points, got {x.size}")
    if fault:
        raise ValueError(_FAULTS[fault])
    return float(r)


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
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    fraction = d
    for m in range(1, _MAX_STEPS):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _TINY else _TINY
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


class _ScoredRun(NamedTuple):
    """One run of a ranking's rows, scored at once: each row's shared term
    ids (increasing, so in lexicographic term order) laid end to end, row
    i's span ``bounds[i]:bounds[i + 1]``, and ``_pearson_segments`` of the
    rows' log10 proportions against their leave-one-out references."""

    rows: np.ndarray
    ids: np.ndarray
    bounds: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    denom: np.ndarray
    r: np.ndarray
    fault: np.ndarray


def _log10s(values: np.ndarray) -> np.ndarray:
    """``math.log10`` of each of ``values``, taken once per distinct float:
    the values are sorted, each run of equal ones takes one log, and the
    logs are scattered back to the values' places."""
    order = np.argsort(values)
    ranked = values[order]
    starts = np.empty(len(ranked), dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    distinct = ranked[starts].tolist()
    logs = np.fromiter(map(math.log10, distinct), float, len(distinct))
    out = np.empty(len(values))
    out[order] = logs[np.cumsum(starts) - 1]
    return out


def _scored_runs(corpus: Corpus, rows: Sequence[int], totals: np.ndarray) -> Iterator[_ScoredRun]:
    """The one leave-one-out scorer: the table ``rows``, in order, against
    the pooled ``totals`` less each row's own counts, one ``_entry_runs``
    run at a time. A run's shared terms and proportions come from one call
    of ``shared_proportions``, and all its correlations from one of
    ``_pearson_segments``."""
    table = corpus.table
    grand = int(totals.sum())
    for block, indptr, take in _entry_runs(table.indptr, rows):
        ids, counts = table.term_ids[take], table.counts[take]
        own = np.repeat(table.row_totals[block], np.diff(indptr))
        shared, dps, rps = shared_proportions(counts, own, totals[ids] - counts, grand - own)
        xs, ys = _log10s(dps), _log10s(rps)
        bounds = np.searchsorted(shared, indptr)
        yield _ScoredRun(block, ids[shared], bounds, *_pearson_segments(xs, ys, bounds))


def _scores(
    corpus: Corpus, rows: Sequence[int], totals: np.ndarray
) -> Iterator[tuple[str, float, int, str | None]]:
    """Each of ``rows``'s id, r and overlap n, in order, with the reason it
    cannot be scored, or None when it can."""
    for run in _scored_runs(corpus, rows, totals):
        for row, r, n, fault in zip(
            run.rows.tolist(), run.r.tolist(), np.diff(run.bounds).tolist(), run.fault.tolist()
        ):
            doc_id = corpus.documents[row].id
            if fault == 1:
                reason = f"insufficient overlap: {doc_id!r} shares {n} terms with the rest"
            else:
                reason = _FAULTS[fault]
            yield doc_id, r, n, reason


def _result(doc_id: str, r: float, n: int) -> CorrelationResult:
    """A scored row's result, with the p-value of its r over n terms."""
    return CorrelationResult(doc_id=doc_id, r=r, p_value=correlation_p_value(r, n), n=n)


def correlate_document(doc: Document, corpus: Corpus) -> CorrelationResult:
    """Correlate one of the corpus's own documents against the pooled
    profile of every other document, the table's column margin less its own
    counts, by the scorer ``rank_documents`` uses.

    ``doc`` must be the corpus's copy of ``doc.id``: an id not in the corpus,
    or a document that differs from the corpus's copy, is a ``ValueError``."""
    if doc.id not in corpus:
        raise ValueError(f"document {doc.id!r} not in corpus")
    if doc != corpus.get(doc.id):
        raise ValueError(f"document {doc.id!r} differs from the corpus's copy")
    [(_, r, n, reason)] = _scores(corpus, [corpus.position(doc.id)], corpus.table.term_totals)
    if reason is not None:
        raise ValueError(reason)
    return _result(doc.id, r, n)


def rank_documents(
    corpus: Corpus,
    top_k: int,
    notes: list[str] | None = None,
    *,
    rows: Sequence[int] | None = None,
) -> list[CorrelationResult]:
    """Correlation results for every document, descending by r (ties by
    ascending id), truncated to ``top_k``.

    Each document is scored against the table's column margin less its
    own counts. ``rows`` restricts the ranking to those table rows, given in
    corpus order and pooled once: each is scored against the other given
    rows, as in a subset of the corpus holding just them. Their term ids
    are lexicographic like a subset's, so the shared terms, their order and
    every float are those of ranking ``corpus.subset`` of their ids.

    Documents that cannot be scored (insufficient overlap, zero variance)
    are dropped rather than failing the run; each drop appends one
    ``"RankingWarning: excluding ..."`` line to ``notes`` when it is given,
    in row order. Every row's r and n are taken, then sorted; p-values are
    computed only for the ``top_k`` rows returned.
    """
    ranked, totals = range(len(corpus)), corpus.table.term_totals
    if rows is not None:
        ranked = list(rows)
        if ranked != sorted(set(ranked)) or not all(0 <= row < len(corpus) for row in ranked):
            raise ValueError(f"rows must be distinct table rows in increasing order, got {ranked}")
        totals = corpus.table.pooled(ranked)
    if len(ranked) < 2:
        raise ValueError(f"ranking needs at least 2 documents, got {len(ranked)}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    scored = []
    for doc_id, r, n, reason in _scores(corpus, ranked, totals):
        if reason is None:
            scored.append((doc_id, r, n))
        elif notes is not None:
            notes.append(f"RankingWarning: excluding {doc_id!r}: {reason}")
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [_result(doc_id, r, n) for doc_id, r, n in scored[:top_k]]


def ranking_rows(ranking: Iterable[CorrelationResult], corpus: Corpus) -> list[dict[str, Any]]:
    """A ranking as JSON-safe rows: id, title, full-precision correlation
    and p-value, and the shared-term count."""
    return [
        {
            "doc_id": res.doc_id,
            "title": corpus.get(res.doc_id).title,
            "correlation": res.r,
            "p_value": res.p_value,
            "shared_terms": res.n,
        }
        for res in ranking
    ]


def ranking_tsv(rows: Iterable[Mapping[str, Any]]) -> str:
    """Ranking rows as TSV text: title, correlation (3 decimals), p_value
    (scientific, 3 significant digits), one header line."""
    lines = (f"{row['title']}\t{row['correlation']:.3f}\t{row['p_value']:.2e}" for row in rows)
    return "\n".join(["title\tcorrelation\tp_value", *lines]) + "\n"


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
