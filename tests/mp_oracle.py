"""A 50-digit oracle for the forward map, for the tests only.

For ``B = norm z^m P/Q`` with ``P = prod_k (z-a_k)``, ``Q = prod_k
(1-conj(a_k)z)`` over the free zeros (each repeated by its multiplicity),
``B' = norm z^(m-1) M/Q^2`` with the critical numerator ``M = m P Q +
z (P'Q - P Q')``.  The free critical points are the interior roots of
``M``, found here by ``mpmath.polyroots`` at ``DPS`` digits; the others
are their mirrors ``1/conj(c)``.  A module that imports this one is
skipped where mpmath is not installed.
"""

from __future__ import annotations

import pytest

mpmath = pytest.importorskip("mpmath")

#: Working precision of the oracle, in decimal digits.
DPS = 50


def _times(p: list, q: list) -> list:
    """Product of two polynomials given by ascending coefficients."""
    out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _numerator(zeros, m: int) -> tuple[list, list]:
    """Ascending coefficients of ``M`` and ``Q`` for the nonzero zeros
    ``zeros`` (at least one); ``M`` has degree ``2e``."""
    P, Q = [mpmath.mpc(1)], [mpmath.mpc(1)]
    for a in zeros:
        a = mpmath.mpc(complex(a))
        P = _times(P, [-a, mpmath.mpc(1)])
        Q = _times(Q, [mpmath.mpc(1), -mpmath.conj(a)])
    M = [m * c for c in _times(P, Q)]
    cross = _times(_derivative(P), Q)
    for i, c in enumerate(_times(P, _derivative(Q))):
        cross[i] -= c
    for i, c in enumerate(cross):
        M[i + 1] += c    # times z
    return M, Q


def critical_points(zeros, m: int) -> list[complex]:
    """The free critical points of the product with free zeros ``zeros``
    (nonzero, each repeated by its multiplicity) and local degree ``m``
    at 0: the interior roots of ``M``, rounded to complex floats."""
    with mpmath.workdps(DPS):
        M, _ = _numerator(zeros, m)
        roots = mpmath.polyroots(M[::-1], maxsteps=200, extraprec=DPS)
        return [complex(c) for c in roots if abs(c) < 1]


def deriv(zeros, m: int, points) -> list[complex]:
    """``B'`` at each of ``points``, at ``DPS`` digits, as ``norm z^(m-1)
    M(z)/Q(z)^2`` with ``norm = conj(p)/p``, ``p = prod_k (1-a_k)``,
    rounded to complex floats."""
    with mpmath.workdps(DPS):
        M, Q = _numerator(zeros, m)
        p = mpmath.fprod(1 - mpmath.mpc(complex(a)) for a in zeros)
        out = []
        for z in points:
            z = mpmath.mpc(complex(z))
            out.append(complex(mpmath.conj(p) / p * z ** (m - 1)
                               * mpmath.polyval(M[::-1], z)
                               / mpmath.polyval(Q[::-1], z) ** 2))
        return out
