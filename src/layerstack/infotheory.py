"""Base-2 entropy measures over finite distributions and count tables.

All quantities are in bits. Distributions store only strictly positive
probabilities, and count tables skip their zero counts, so the
0*log(1/0) = 0 convention holds by construction. The layers that already
hold a count table (byte, term, and (document, term) counts) take its
entropy with :func:`count_entropy` and build no distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

#: absolute tolerance for "probabilities sum to one" checks
DISTRIBUTION_TOL = 1e-9
#: bytes per np.bincount call, which widens its input to 8-byte indices
_BYTE_CHUNK = 2**16


@dataclass(frozen=True)
class TokenDistribution:
    """A probability mass function over a finite outcome set.

    Every stored probability lies in (0, 1] and the total is 1 within
    :data:`DISTRIBUTION_TOL`; zero-mass outcomes are never stored.
    """

    probabilities: Mapping[Hashable, float]

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ValueError("empty distribution")
        cleaned: dict[Hashable, float] = {}
        for outcome, p in self.probabilities.items():
            # summation noise may overshoot 1.0 by an ulp; clamp it back
            if not 0.0 < p <= 1.0 + DISTRIBUTION_TOL:
                raise ValueError(f"probability {p!r} for {outcome!r} outside (0, 1]")
            cleaned[outcome] = min(p, 1.0)
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probabilities", cleaned)

    @classmethod
    def uniform(cls, n: int) -> "TokenDistribution":
        if n < 1:
            raise ValueError("uniform distribution needs n >= 1")
        p = 1.0 / n
        return cls({i: p for i in range(n)})


@dataclass(frozen=True)
class JointDistribution:
    """A probability mass function over (transmitter, receiver) pairs."""

    probabilities: Mapping[tuple[Hashable, Hashable], float]

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ValueError("empty joint distribution")
        cleaned: dict[tuple[Hashable, Hashable], float] = {}
        for pair, p in self.probabilities.items():
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"joint outcome {pair!r} is not a pair")
            if not 0.0 < p <= 1.0 + DISTRIBUTION_TOL:
                raise ValueError(f"probability {p!r} for {pair!r} outside (0, 1]")
            cleaned[pair] = min(p, 1.0)
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            raise ValueError(f"joint probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probabilities", cleaned)

    def marginal_transmitter(self) -> TokenDistribution:
        return self._marginal(0)

    def marginal_receiver(self) -> TokenDistribution:
        return self._marginal(1)

    def _marginal(self, axis: int) -> TokenDistribution:
        sums: dict[Hashable, list[float]] = {}
        for pair, p in self.probabilities.items():
            sums.setdefault(pair[axis], []).append(p)
        return TokenDistribution({o: math.fsum(ps) for o, ps in sums.items()})


def _entropy_bits(probabilities: Iterable[float]) -> float:
    return math.fsum(p * math.log2(1.0 / p) for p in probabilities)


def hartley_entropy(message_count: int) -> float:
    """log2 of the number of equally likely messages."""
    if message_count < 1:
        raise ValueError("empty ensemble: message_count must be >= 1")
    return math.log2(message_count)


def shannon_entropy(dist: TokenDistribution) -> float:
    """Expected surprisal sum(p * log2(1/p)) of a distribution, in bits."""
    return _entropy_bits(dist.probabilities.values())


def count_entropy(counts: Iterable[int]) -> float:
    """Entropy of the distribution a count table defines, in bits: the
    ``c / total`` proportions of its positive counts. Zero counts are
    skipped; a negative count or an all-zero table is an error."""
    positive = []
    for c in counts:
        if c < 0:
            raise ValueError(f"negative count {c!r}")
        if c > 0:
            positive.append(c)
    if not positive:
        raise ValueError("empty distribution: counts sum to zero")
    total = sum(positive)
    return _entropy_bits(c / total for c in positive)


def joint_entropy(joint: JointDistribution) -> float:
    """Entropy of the pair distribution, in bits."""
    return _entropy_bits(joint.probabilities.values())


def residual_entropy(joint: JointDistribution) -> float:
    """Joint entropy minus the transmitter marginal's entropy.

    This equals the conditional entropy of the receiver given the
    transmitter, so it is non-negative (up to float rounding) and bounded by
    the receiver marginal's entropy.
    """
    return joint_entropy(joint) - shannon_entropy(joint.marginal_transmitter())


def bitstream_entropy(data: bytes) -> float:
    """Entropy of the empirical byte-value distribution, in bits per byte."""
    if not data:
        raise ValueError("empty input")
    values = np.frombuffer(data, np.uint8)
    counts = sum(
        np.bincount(values[start : start + _BYTE_CHUNK], minlength=256)
        for start in range(0, len(values), _BYTE_CHUNK)
    )
    return count_entropy(counts.tolist())
