"""Property test of the bottleneck matching distance against a
brute-force minimum over all bijections.

Skipped where Hypothesis is not installed.  The draws are derandomized,
so every run checks the same examples.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blaschkediv import Divisor, matching_distance  # noqa: E402

#: Points of a quarter grid, where distances tie and points repeat (and
#: merge into atoms), so that rows often share a nearest column, or any
#: point of the disk |z| <= 0.7.
_POINT = st.one_of(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda xy: complex(xy[0] / 4.0, xy[1] / 4.0)),
    st.tuples(st.floats(-0.49, 0.49), st.floats(-0.49, 0.49)).map(
        lambda xy: complex(*xy)))
_PAIR = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(_POINT, min_size=n, max_size=n),
    st.lists(_POINT, min_size=n, max_size=n)))


def brute_force(D1: Divisor, D2: Divisor) -> float:
    """Min over all bijections of the max displacement, on the same
    numpy moduli ``matching_distance`` compares."""
    rows = np.abs(np.subtract.outer(np.asarray(D1.points(), dtype=complex),
                                    np.asarray(D2.points(), dtype=complex)))
    n = len(rows)
    return min(max(rows[k, perm[k]] for k in range(n))
               for perm in itertools.permutations(range(n)))


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(_PAIR)
def test_matching_distance_is_the_bottleneck_minimum(pair):
    D1, D2 = (Divisor([(z, 1) for z in points], "interior") for points in pair)
    assert matching_distance(D1, D2) == brute_force(D1, D2)
    assert matching_distance(D2, D1) == brute_force(D2, D1)
