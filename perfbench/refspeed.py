"""Reference-speed calibration for timings on a shared machine.

On a shared machine the speed of one core swings by a third or more
within seconds, and by half between quiet and busy periods, which moves
every timing with it.  ``kernel()`` times a fixed computation with the
package's own mix of work (numpy root finding, ``Fraction`` sums,
complex arithmetic in Python) right next to the operations being
measured.  ``scale(k)`` is the factor that turns a time measured
while the kernel took ``k`` seconds into a time at the reference speed,
at which the kernel takes ``REFERENCE_S``.  The kernel does not touch
the package, so a change to the package moves the scaled times exactly
as it moves the raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly

#: Kernel time at the reference speed: a 2-core Intel Xeon virtual
#: machine (Python 3.11, numpy 2.4) in a quiet period.
REFERENCE_S = 0.010

_rng = np.random.default_rng(20261017)
_COEFFS = npoly.polyfromroots(
    0.9 * np.sqrt(_rng.random(24)) * np.exp(2j * np.pi * _rng.random(24)))


def kernel() -> float:
    """Seconds one run of the fixed calibration computation takes now."""
    start = time.perf_counter()
    for _ in range(8):
        npoly.polyroots(_COEFFS)
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 89 + 1)
    z, acc = 0.3 + 0.4j, 0j
    for _ in range(20000):
        acc += z * (z - 0.1) / (1 - 0.1 * z)
    return time.perf_counter() - start


def scale(k: float) -> float:
    return REFERENCE_S / k
