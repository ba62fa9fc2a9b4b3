"""correlation_p_value against mpmath's regularized incomplete beta.

The two-sided p-value of a correlation r over n points is I_x(a, ½) with
a = (n - 2)/2 and x = 1 - r². The oracle evaluates it at 40 digits from the
float r itself, so rounding r² or 1 - r² on the way counts as error. The
in-module evaluation must be within 1e-12 relative wherever p >= 1e-300;
below that the tail may underflow.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import correlation_p_value

REL_TOL = 1e-12
SMALLEST_CHECKED = 1e-300


def exact_p_value(r: float, n: int) -> float:
    with mpmath.workdps(40):
        a = mpmath.mpf(n - 2) / 2
        x = 1 - mpmath.mpf(r) ** 2
        return float(mpmath.betainc(a, mpmath.mpf(1) / 2, 0, x, regularized=True))


def assert_matches_oracle(r: float, n: int) -> None:
    want = exact_p_value(r, n)
    got = correlation_p_value(r, n)
    if want >= SMALLEST_CHECKED:
        assert abs(got - want) <= REL_TOL * want, (r, n, got, want)
    else:
        assert 0.0 <= got < 2 * SMALLEST_CHECKED


def near_switch(n: int, scale: float) -> float:
    """The r whose x = 1 - r² is the switch point (a + 1)/(a + 2.5) of the
    evaluation, times ``scale``."""
    a = (n - 2) / 2
    return min(1.0, scale * math.sqrt(1.5 / (a + 2.5)))


@st.composite
def correlations(draw):
    n = draw(st.integers(3, 2000))
    r = draw(
        st.one_of(
            st.floats(-1.0, 1.0),
            st.floats(0.5, 3.0).map(lambda scale: near_switch(n, scale)),
            st.floats(1.0, 16.0).map(lambda k: 1.0 - 10.0**-k),
            st.floats(1.0, 12.0).map(lambda k: 10.0**-k),
        )
    )
    return r, n


@settings(max_examples=400)
@given(case=correlations())
def test_matches_mpmath_up_to_2000_points(case):
    assert_matches_oracle(*case)


def _large_n_cases():
    # z = a·r² sets the tail: about erfc(√z), from 1 - 1e-4 down to 1e-266;
    # z = 1.5 is the switch point to the symmetric form
    for n in (10_000, 20_000, 30_036, 50_000):
        a = (n - 2) / 2
        for z in (1e-8, 0.5, 1.4, 1.5, 1.6, 2.0, 10.0, 100.0, 600.0):
            yield n, math.sqrt(z / a)
    yield 30_036, 1.28e-4
    # the continued fraction alone is 2.3e-12 off here, hence the expansion
    yield 50_000, 0.01


@pytest.mark.parametrize("n, r", list(_large_n_cases()))
def test_matches_mpmath_at_large_n(n, r):
    assert_matches_oracle(r, n)
