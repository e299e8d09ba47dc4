"""Property test of the exact lamination invariants on random divisors.

Skipped where Hypothesis is not installed.  The draws are derandomized,
so every run checks the same examples.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blaschkediv import boundary_from_json, lamination_table  # noqa: E402
from test_lamination import assert_exact_invariants  # noqa: E402


@hypothesis.settings(max_examples=20, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(
    st.integers(2, 3),
    st.lists(st.integers(2, 12).flatmap(
        lambda den: st.tuples(st.integers(1, den - 1), st.just(den))),
        min_size=1, max_size=3),
    st.one_of(st.none(),
              st.tuples(st.floats(0.0, 0.49), st.floats(0.0, 1.0))),
    st.integers(0, 4))
def test_random_divisor_exact_invariants(m, fracs, zero, depth):
    support = sorted({Fraction(num, den) for num, den in fracs})
    zeros = [] if zero is None else [cmath.rect(zero[0], 2 * math.pi * zero[1])]
    D = boundary_from_json({
        "m": m, "zeros": [[z.real, z.imag] for z in zeros],
        "support": [f"{a.numerator}/{a.denominator}" for a in support]})
    assert_exact_invariants(lamination_table(D, depth))
