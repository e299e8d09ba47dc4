"""Property test of the divisor map and its inverse on random zeros.

Skipped where Hypothesis is not installed.  The draws are derandomized,
so every run checks the same examples.
"""

from __future__ import annotations

import cmath
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blaschkediv import (Divisor, critical_divisor,  # noqa: E402
                         from_zero_divisor, matching_distance,
                         zeros_from_critical)

#: A zero at 0 or at radius 0.01-0.9: the forward map's factors
#: 1/((z-a)(1-conj(a)z)) overflow next to a subnormal zero.
_POINT = st.tuples(st.one_of(st.just(0.0), st.floats(0.01, 0.9)),
                   st.floats(0.0, 1.0)).map(
    lambda polar: cmath.rect(polar[0], 2 * math.pi * polar[1]))


@hypothesis.settings(max_examples=20, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(st.lists(_POINT, min_size=1, max_size=7),
                  st.booleans(), st.integers(1, 3))
def test_zeros_round_trip_through_the_critical_divisor(points, double, m):
    # e <= 8: up to 7 distinct zeros at least 0.05 apart, the first one
    # optionally double
    hypothesis.assume(all(abs(a - b) >= 0.05 for i, a in enumerate(points)
                          for b in points[:i]))
    Z = Divisor([(a, 2 if double and i == 0 else 1)
                 for i, a in enumerate(points)], "interior")
    R = critical_divisor(from_zero_divisor(Z, m)).free_ram
    B = zeros_from_critical(R, m)
    assert len(B.free_zeros.atoms) == len(Z.atoms)
    assert matching_distance(B.free_zeros, Z) <= 1e-8
