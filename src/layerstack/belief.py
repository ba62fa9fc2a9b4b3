"""Dempster-Shafer belief machinery over small named frames.

Frames hold at most 20 named, mutually exclusive elements so every subset
fits in one machine word as a bitmask; set algebra is then plain integer
bit-twiddling. Mass functions allocate unit mass to non-empty subsets (focal
elements); belief and plausibility are the contained / intersecting mass
totals, and evidence is pooled with Dempster's rule (conflict discarded,
remainder renormalized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

MAX_FRAME_SIZE = 20

#: acceptance gate for "masses sum to one"
MASS_SUM_TOL = 1e-9
#: below this residue the stored masses are kept bit-identical (no rescale),
#: which keeps combination with the vacuous mass an exact identity
_RENORM_TOL = 1e-13

Subset = int | Iterable[str]


@dataclass(frozen=True)
class Frame:
    """An ordered frame of discernment with unique element names."""

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("frame must be non-empty")
        if len(self.elements) > MAX_FRAME_SIZE:
            raise ValueError(f"frame larger than {MAX_FRAME_SIZE} elements")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("frame element names must be unique")
        if any(not name for name in self.elements):
            raise ValueError("frame element names must be non-empty")

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def mask(self, subset: Subset) -> int:
        """Coerce a subset (bitmask or element names) to a bitmask."""
        if isinstance(subset, int):
            if not 0 <= subset <= self.full_mask:
                raise ValueError(f"bitmask {subset:#x} outside frame")
            return subset
        out = 0
        for name in subset:
            try:
                out |= 1 << self.elements.index(name)
            except ValueError:
                raise ValueError(f"element {name!r} not in frame") from None
        return out

    def names(self, mask: int) -> tuple[str, ...]:
        """Element names of a bitmask, in frame order."""
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"bitmask {mask:#x} outside frame")
        return tuple(name for i, name in enumerate(self.elements) if mask >> i & 1)

    def singleton(self, name: str) -> int:
        return self.mask((name,))


@dataclass(frozen=True)
class MassFunction:
    """A basic belief assignment: positive mass on non-empty subsets, unit
    total. Keys are bitmasks over the frame, stored in ascending order."""

    frame: Frame
    masses: Mapping[int, float]

    def __post_init__(self) -> None:
        full = self.frame.full_mask
        for mask, value in self.masses.items():
            if mask == 0:
                raise ValueError("mass on the empty set")
            if not 0 < mask <= full:
                raise ValueError(f"focal element {mask:#x} outside frame")
            if not 0.0 < value <= 1.0 + MASS_SUM_TOL:
                raise ValueError(f"mass {value!r} outside (0, 1]")
        total = math.fsum(self.masses.values())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")
        items = sorted(self.masses.items())
        if abs(total - 1.0) > _RENORM_TOL:
            items = [(mask, value / total) for mask, value in items]
        object.__setattr__(self, "masses", dict(items))


def make_mass(
    frame: Frame, assignments: Iterable[tuple[Subset, float]] | Mapping[Subset, float]
) -> MassFunction:
    """Validate and build a mass function; duplicate subsets are merged by
    summation. Subsets may be bitmasks or iterables of element names."""
    if isinstance(assignments, Mapping):
        assignments = assignments.items()
    merged: dict[int, float] = {}
    for subset, value in assignments:
        if value <= 0.0:
            raise ValueError(f"non-positive mass {value!r}")
        mask = frame.mask(subset)
        merged[mask] = merged.get(mask, 0.0) + value
    return MassFunction(frame=frame, masses=merged)


def vacuous_mass(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    return MassFunction(frame=frame, masses={frame.full_mask: 1.0})


def belief(m: MassFunction, subset: Subset) -> float:
    """Total mass of focal elements contained in the hypothesis."""
    a = m.frame.mask(subset)
    return math.fsum(v for mask, v in m.masses.items() if mask & a == mask)


def plausibility(m: MassFunction, subset: Subset) -> float:
    """Total mass of focal elements intersecting the hypothesis; equals
    1 - belief of the complement."""
    a = m.frame.mask(subset)
    return math.fsum(v for mask, v in m.masses.items() if mask & a)


def combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: multiply masses over intersections, drop the
    conflicting (empty-intersection) share K, renormalize by 1 - K."""
    if m1.frame != m2.frame:
        raise ValueError("mass functions live on different frames")
    products: dict[int, list[float]] = {}
    conflict: list[float] = []
    for mask1, v1 in m1.masses.items():
        for mask2, v2 in m2.masses.items():
            inter = mask1 & mask2
            if inter:
                products.setdefault(inter, []).append(v1 * v2)
            else:
                conflict.append(v1 * v2)
    k = math.fsum(conflict)
    remainder = 1.0 - k
    if remainder <= 1e-12:
        raise ValueError(f"irreconcilable evidence: conflict K = {k!r}")
    combined = {mask: math.fsum(vs) / remainder for mask, vs in sorted(products.items())}
    return MassFunction(frame=m1.frame, masses=combined)


def keyword_belief_update(
    prior: MassFunction, round_evidence: Mapping[str, float]
) -> MassFunction:
    """Fold per-keyword support scores into a prior over a keyword frame.

    Each score s in [0, 1] becomes a simple-support mass ({keyword}: s,
    frame: 1 - s) and is combined with the running result via Dempster's
    rule, in lexicographic keyword order. Zero scores, and every score on a
    one-element frame, are vacuous and skipped: all such evidence returns
    the prior unchanged."""
    frame = prior.frame
    result = prior
    for keyword in sorted(round_evidence):
        score = round_evidence[keyword]
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"evidence score {score!r} for {keyword!r} outside [0, 1]")
        if score == 0.0 or (focal := frame.singleton(keyword)) == frame.full_mask:
            continue
        masses = {focal: score}
        if score < 1.0:
            masses[frame.full_mask] = 1.0 - score
        result = combine(result, MassFunction(frame=frame, masses=masses))
    return result
