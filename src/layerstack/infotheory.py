"""Base-2 entropy measures over finite distributions.

All quantities are in bits. Distributions store only strictly positive
probabilities, so the 0*log(1/0) = 0 convention holds by construction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

#: absolute tolerance for "probabilities sum to one" checks
DISTRIBUTION_TOL = 1e-9


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
    def from_counts(cls, counts: Mapping[Hashable, int | float]) -> "TokenDistribution":
        """Normalize a count table, dropping zero-count outcomes."""
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("empty distribution: counts sum to zero")
        return cls({o: c / total for o, c in counts.items() if c > 0})

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
    return shannon_entropy(TokenDistribution.from_counts(Counter(data)))
