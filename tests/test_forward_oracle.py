"""The forward map and ``BlaschkeProduct.deriv`` against the 50-digit
oracle of ``mp_oracle``; skipped where mpmath is not installed."""

from __future__ import annotations

import numpy as np
import pytest

import mp_oracle
from blaschkediv import Divisor, critical_divisor, from_zero_divisor
from blaschkediv import matching_distance


@pytest.fixture(scope="module")
def products() -> list:
    """Seeded zeros, ``m`` and the oracle's critical points: e = 2, 4, 6,
    8 and 12 zeros inside radius 0.7 and again inside 0.999, with m = 1,
    2, 3, 1, 2 by e."""
    rng = np.random.default_rng(3502)
    out = []
    for i, e in enumerate((2, 4, 6, 8, 12)):
        m = 1 + i % 3
        for radius in (0.7, 0.999):
            zeros = (radius * np.sqrt(rng.random(e))
                     * np.exp(2j * np.pi * rng.random(e))).tolist()
            want = mp_oracle.critical_points(zeros, m)
            assert len(want) == e
            out.append((zeros, m, Divisor([(c, 1) for c in want],
                                          "interior")))
    return out


def product(zeros, m: int):
    return from_zero_divisor(Divisor([(a, 1) for a in zeros], "interior"), m)


def test_critical_divisor_matches_the_oracle(products, route):
    for zeros, m, want in products:
        got = critical_divisor(product(zeros, m)).free_ram
        assert matching_distance(got, want) <= 1e-13, (len(zeros), m)


def test_deriv_at_the_zeros_matches_the_oracle(products):
    # the product-rule pass is exact at a zero, where B'/B is not finite
    for zeros, m, _ in products:
        B = product(zeros, m)
        for a, want in zip(zeros, mp_oracle.deriv(zeros, m, zeros)):
            assert abs(B.deriv(a) - want) <= 1e-12 * abs(want)
