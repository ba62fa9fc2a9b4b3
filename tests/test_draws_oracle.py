"""The k-means draws against numpy's ``default_rng``.

``intelligence._Draws`` holds its own PCG64 stream so that no numpy release
can move table2. It must give, compared with ``==``, the draws
``numpy.random.default_rng(seed)`` gives for the same interleaved calls of
``integers(n)`` and ``choice(n, p=...)``, the only calls k-means++ seeding
makes. The stream checks no argument; ``test_kmeans_oracle.py`` asserts that
``kmeans`` hands it only what numpy's checks pass. The first draws of seeds 0
and 42 are pinned as literals, so the bytes stay guarded whichever numpy is
installed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layerstack.intelligence import _Draws

SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3]
#: every path of ``integers``: no draw, Lemire on 32-bit halves, a whole
#: half, and Lemire on 64-bit draws; 3·2³⁰ and 3·2⁶¹ reject a quarter of
#: their first draws, by a threshold unlike that of any other size here
SIZES = [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3 * 2**30, 3 * 2**61]
#: probabilities as seeding hands them over, d² / Σd²: with zeros, one-hot,
#: and from d² near the bottom of the float range
WEIGHTS = [
    np.array([0.0, 3.0, 0.0, 0.0, 1.0, 2.5, 0.0]),
    np.array([0.0, 0.0, 1.0, 0.0]),
    np.array([2.0, 0.0, 7.0, 1.0, 0.5, 3.0]) * 1e-300,
    np.array([5.0]),
    np.arange(1.0, 41.0) ** 2,
]
PROBABILITIES = [w / float(w.sum()) for w in WEIGHTS]
#: the first draws of seeds 0 and 42 for ``pinned_calls``, as numpy 2.4.6's
#: ``default_rng`` gives them
PINNED = {
    0: [510, 382, 3, 0, 18172327443, 175979945, 4],
    42: [53, 464, 3, 1, 766764256790, 3687649986, 1],
}


def calls(rng, seed: int) -> list[int]:
    """A script of interleaved ``integers`` and ``choice`` calls that walks
    every size and every probability vector, starting at a place set by
    the seed, so a half-draw is left over before each kind of call."""
    out = []
    for step in range(2 * len(SIZES) * len(PROBABILITIES)):
        out.append(int(rng.integers(SIZES[(seed + step) % len(SIZES)])))
        if step % 2:
            p = PROBABILITIES[(seed + step // 2) % len(PROBABILITIES)]
            out.append(int(rng.choice(len(p), p=p)))
    return out


def pinned_calls(rng) -> list[int]:
    p = np.array([0.0, 0.25, 0.0, 0.5, 0.25])
    return [
        int(rng.integers(600)),
        int(rng.integers(600)),
        int(rng.choice(5, p=p)),
        int(rng.integers(3)),
        int(rng.integers(2**40)),
        int(rng.integers(2**32)),
        int(rng.choice(5, p=p)),
    ]


def test_the_draws_equal_default_rngs():
    differ = [s for s in SEEDS if calls(_Draws(s), s) != calls(np.random.default_rng(s), s)]
    assert differ == []


@pytest.mark.parametrize("seed", SEEDS[:: len(SEEDS) // 8] + SEEDS[-4:])
def test_the_raw_stream_is_pcg64s(seed):
    draws = _Draws(seed)
    assert [draws._raw() for _ in range(8)] == np.random.PCG64(seed).random_raw(8).tolist()


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_the_first_draws_are_pinned(seed):
    assert pinned_calls(_Draws(seed)) == PINNED[seed]


def test_the_pinned_draws_are_default_rngs():
    assert {seed: pinned_calls(np.random.default_rng(seed)) for seed in PINNED} == PINNED


#: d² values from zero and the least subnormal up to near overflow
D2 = st.sampled_from([0.0, 1e-300, 5e-324, 0.5, 1.0, 3.0, 1e300])


@given(
    seed=st.integers(0, 2**130),
    sizes=st.lists(st.integers(1, 2**63 - 1), max_size=6),
    weights=st.lists(
        st.lists(D2, min_size=1, max_size=9).filter(lambda w: sum(w) > 0), max_size=4
    ),
)
def test_drawn_calls_equal_default_rngs(seed, sizes, weights):
    ps = [np.array(w) / np.add.reduce(np.array(w)) for w in weights]

    def script(rng):
        out = [int(rng.integers(n)) for n in sizes]
        for p in ps:
            out += [int(rng.choice(len(p), p=p)), int(rng.integers(len(p)))]
        return out

    assert script(_Draws(seed)) == script(np.random.default_rng(seed))
