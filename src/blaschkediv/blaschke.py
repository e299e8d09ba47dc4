"""Finite Blaschke products fixing 0 and 1, and the two-way map between
free zero divisors and free critical divisors.

A product here is ``B(z) = z^m * prod_k c_k (z - a_k)/(1 - conj(a_k) z)``
with ``c_k = (1 - conj(a_k))/(1 - a_k)``, so that ``B(0) = 0`` with local
degree at least ``m`` and ``B(1) = 1``.  The free zeros ``a_k`` form an
interior divisor of degree ``e``; the forward map sends it to the degree-e
divisor of free critical points.  The inverse solves for the coefficients
of the zero polynomial by Newton's method on the conditions that the
critical numerator vanish at the prescribed points (with multiplicity),
continued along the scaled target and checked by one forward map.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import numpy.polynomial.polynomial as npoly

from .divisor import (CIRCLE_TOL, Divisor, REGION_INTERIOR, matching_distance)
from .errors import ContinuationError, NumericalError, PreconditionError
from .hypgeo import hull_contains

#: A denominator factor smaller than this counts as pole proximity.
POLE_TOL = 1e-14
#: Largest ``|B'|`` accepted at a computed free critical point.  Roots
#: of the expanded numerator above it are refined against the factored
#: form.  In 30 000 seeded draws of e = 23 zeros inside radius 0.9, 267
#: had such a root, 21 of them above 1e-3 and 1e-2 or more from every
#: true critical point; after refinement all read below 1e-15.
CRIT_TOL = 1e-6

__all__ = [
    "BlaschkeProduct",
    "RamificationResult",
    "from_zero_divisor",
    "critical_divisor",
    "zeros_from_critical",
    "phi_1m_closed_form",
    "multiplier_at_zero",
    "boundary_orbit",
    "walsh_check",
]


class BlaschkeProduct:
    """A finite Blaschke product determined by its free zero divisor.

    Parameters
    ----------
    free_zeros : Divisor
        Interior divisor of the zeros other than the forced ones at 0;
        degree ``e >= 0`` (a free zero at the origin is allowed and just
        raises the local degree there).
    m : int
        Forced local degree at the origin, ``m >= 1``.

    Attributes
    ----------
    normalization : complex
        The unimodular constant ``prod_k (1-conj(a_k))/(1-a_k)`` making
        ``B(1) = 1``.
    degree : int
        Total degree ``e + m``.
    """

    def __init__(self, free_zeros: Divisor, m: int):
        if not isinstance(m, int) or m < 1:
            raise PreconditionError("m must be a positive integer")
        free_zeros = Divisor(free_zeros.atoms, REGION_INTERIOR)
        self.m = m
        self.free_zeros = free_zeros
        zeros = free_zeros.points()
        self._zeros = zeros
        # P(z) = prod (z - a_k), Q(z) = prod (1 - conj(a_k) z) = rev(conj(P))
        self._p = npoly.polyfromroots(zeros) if zeros else np.array([1.0 + 0j])
        self._q = np.conj(self._p)[::-1].copy()
        p1 = npoly.polyval(1.0, self._p)
        self.normalization = complex(np.conj(p1) / p1)
        self._mnum = _critical_numerator(self._p, m)

    @property
    def e(self) -> int:
        return len(self._zeros)

    @property
    def degree(self) -> int:
        return self.e + self.m

    def _check_pole(self, z: complex) -> None:
        for a in self._zeros:
            if abs(1.0 - a.conjugate() * z) < POLE_TOL:
                raise NumericalError(
                    f"evaluation too close to the pole 1/conj({a!r})")

    def eval(self, z: complex) -> complex:
        """Value of the product at ``z`` (disk to disk, circle to circle).

        Raises
        ------
        NumericalError
            If any denominator factor is smaller than ``POLE_TOL``.
        """
        z = complex(z)
        self._check_pole(z)
        w = self.normalization * z ** self.m
        for a in self._zeros:
            w *= (z - a) / (1.0 - a.conjugate() * z)
        return w

    def deriv(self, z: complex) -> complex:
        """Derivative at ``z``, via ``B'(z) = n z^{m-1} M(z)/Q(z)^2`` with
        the precomputed numerator ``M``; exact at zeros of ``B`` where
        logarithmic differentiation breaks down."""
        z = complex(z)
        self._check_pole(z)
        qv = npoly.polyval(z, self._q)
        mv = npoly.polyval(z, self._mnum)
        return self.normalization * z ** (self.m - 1) * mv / (qv * qv)

    def __repr__(self) -> str:
        return (f"BlaschkeProduct(m={self.m}, "
                f"free_zeros={self.free_zeros!r})")


class RamificationResult:
    """Free critical divisor of a product, plus a root-count audit.

    Attributes
    ----------
    free_ram : Divisor
        Interior divisor of the critical points other than the forced
        ``(m-1)``-fold one at the origin; degree exactly ``e``.
    residual_count : int
        Number of critical-numerator roots found outside the closed
        disk (they mirror the interior ones and are discarded).
    """

    def __init__(self, free_ram: Divisor, residual_count: int):
        self.free_ram = free_ram
        self.residual_count = residual_count

    def __repr__(self) -> str:
        return (f"RamificationResult({self.free_ram!r}, "
                f"residual_count={self.residual_count})")


def _critical_numerator(p: np.ndarray, m: int) -> np.ndarray:
    """Coefficients of ``M = (mP + zP')Q - zPQ'`` with ``Q = rev(conj P)``,
    the numerator of ``B'(z)/z^(m-1)`` up to the normalization."""
    n = np.arange(len(p))
    q = np.conj(p[::-1])
    return np.convolve(m * p + n * p, q) - np.convolve(p, n * q)


def _numerator_partials(p: np.ndarray,
                        m: int) -> tuple[np.ndarray, np.ndarray]:
    """Wirtinger derivatives of ``_critical_numerator(p, m)`` in the low
    coefficients ``s_k = p[k]`` of the monic ``p``: column ``k`` of the
    first matrix holds the coefficients of ``dM/ds_k = z^k[(m+k)Q - zQ']``,
    of the second those of ``dM/dconj(s_k) = z^(e-k)[mP + zP' - (e-k)P]``."""
    e = len(p) - 1
    q = np.conj(p[::-1])
    n = np.arange(2 * e + 1)[:, None]
    k = np.arange(e)[None, :]
    i = n - k
    ds = np.where((i >= 0) & (i <= e),
                  (m + 2 * k - n) * q[np.clip(i, 0, e)], 0)
    i = n - e + k
    dsbar = np.where((i >= 0) & (i <= e),
                     (m + n - 2 * e + 2 * k) * p[np.clip(i, 0, e)], 0)
    return ds, dsbar


def from_zero_divisor(Z: Divisor, m: int) -> BlaschkeProduct:
    """Construct the unique normalized product with free zero divisor
    ``Z`` and forced local degree ``m`` at the origin."""
    return BlaschkeProduct(Z, m)


def _trimmed(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients that are exactly or essentially zero."""
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    keep = len(coeffs)
    while keep > 1 and abs(coeffs[keep - 1]) < 1e-300 * scale:
        keep -= 1
    return coeffs[:keep]


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray,
                  steps: int = 2) -> np.ndarray:
    """Newton steps on ``roots`` of the polynomial ``coeffs`` (low to
    high); with 2-D ``coeffs``, each row of ``roots`` uses its own row."""
    dcoeffs = npoly.polyder(coeffs, axis=-1)
    out = roots.astype(complex)
    for _ in range(steps):
        fv = npoly.polyval(out.T, coeffs.T, tensor=False).T
        dv = npoly.polyval(out.T, dcoeffs.T, tensor=False).T
        safe = np.abs(dv) > 1e-280
        out[safe] = out[safe] - fv[safe] / dv[safe]
    return out


def _roots_mpmath(coeffs: np.ndarray) -> np.ndarray:
    """Higher-precision retry for the critical numerator roots."""
    import mpmath  # only this rare path needs it; keeps package import light
    with mpmath.workdps(50):
        desc = [mpmath.mpc(c) for c in coeffs[::-1]]
        rts = mpmath.polyroots(desc, maxsteps=200, extraprec=120)
    return np.array([complex(r) for r in rts])


def _deriv_modulus(B: BlaschkeProduct, z: np.ndarray) -> np.ndarray:
    """``|B'|`` at the points ``z``, from the factored numerator
    ``M = mPQ + z sum_k (1-|a_k|^2) prod_(j!=k) (z-a_j)(1-conj(a_j)z)``,
    which keeps the relative accuracy that the expanded coefficients of
    ``M`` lose at high degree."""
    a = np.asarray(B._zeros)
    h = 1.0 - np.conj(a) * z[:, None]
    g = (z[:, None] - a) * h
    # prod_(j!=k) g_j as the products of the factors before and after k
    ones = np.ones((len(z), 1))
    others = (np.cumprod(np.hstack((ones, g[:, :-1])), axis=1)
              * np.cumprod(np.hstack((ones, g[:, :0:-1])), axis=1)[:, ::-1])
    mv = B.m * g.prod(axis=1) + z * (others @ (1.0 - abs(a) ** 2))
    return abs(z) ** (B.m - 1) * abs(mv) / abs(h.prod(axis=1)) ** 2


def _refine_critical(B: BlaschkeProduct, z: np.ndarray) -> np.ndarray:
    """Eight Aberth steps on the interior roots ``z`` of ``M``, whose
    other roots are their reflections ``1/conj(z)``.  ``M'/M`` comes from
    the factored form ``M = PQ f`` with ``f = m + z sum_k w_k/g_k``,
    ``g_k = (z-a_k)(1-conj(a_k)z)`` and ``w_k = 1-|a_k|^2``; a point
    sitting on a multiple zero of ``B`` gets no finite step and stays."""
    a = np.asarray(B._zeros)
    ac, w = np.conj(a), 1.0 - abs(a) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            zc = z[:, None]
            g = (zc - a) * (1.0 - ac * zc)
            f = B.m + z * (w / g).sum(axis=1)
            df = (w * (ac * zc ** 2 - a) / g ** 2).sum(axis=1)
            log_dm = (df / f + (1.0 / (zc - a)).sum(axis=1)
                      - (ac / (1.0 - ac * zc)).sum(axis=1))
            gaps = zc - z
            np.fill_diagonal(gaps, np.inf)
            # 1/(z_j - 1/conj(z_i)) written to stay finite at z_i = 0
            step = 1.0 / (log_dm - (1.0 / gaps).sum(axis=1)
                          - (np.conj(z) / (zc * np.conj(z) - 1.0)).sum(axis=1))
            z = np.where(np.isfinite(step), z - step, z)
    return z


def critical_divisor(B: BlaschkeProduct) -> RamificationResult:
    """Free critical divisor of ``B`` (the forward divisor map).

    The forced ``(m-1)``-fold critical point at the origin is removed
    analytically; the remaining numerator roots split into exactly
    ``e`` inside the disk (collected, with multiplicity by merging) and
    a mirrored set outside (counted in ``residual_count``).  Every
    interior root is checked with one vectorized evaluation of ``|B'|``;
    when any exceeds ``CRIT_TOL``, all are refined by Aberth iteration
    on the factored numerator and checked again.

    Raises
    ------
    PreconditionError
        If ``e == 0`` (no free zeros, hence no free critical points).
    NumericalError
        If the interior root count differs from ``e`` even after the
        higher-precision retry, or if a refined root still has
        ``|B'| > CRIT_TOL`` or left the disk.
    """
    e = B.e
    if e < 1:
        raise PreconditionError("critical_divisor needs at least one free zero")
    coeffs = _trimmed(B._mnum)
    roots = _polish_roots(coeffs, npoly.polyroots(coeffs))
    interior = roots[abs(roots) < 1.0]
    if len(interior) != e:
        roots = _polish_roots(coeffs, _roots_mpmath(coeffs), steps=1)
        interior = roots[abs(roots) < 1.0]
        if len(interior) != e:
            raise NumericalError(
                f"found {len(interior)} interior critical points, expected {e}")
    if np.max(_deriv_modulus(B, interior)) > CRIT_TOL:
        interior = _refine_critical(B, interior)
        worst = float(np.max(_deriv_modulus(B, interior)))
        if not (worst <= CRIT_TOL and np.all(abs(interior) < 1.0)):
            raise NumericalError(
                f"a computed critical point has |B'| = {worst:.3g} "
                f"or lies outside the disk")
    free_ram = Divisor([(complex(z), 1) for z in interior], REGION_INTERIOR)
    if free_ram.degree != e:
        raise NumericalError("critical divisor degree lost in merging")
    return RamificationResult(free_ram, len(roots) - len(interior))


def zeros_from_critical(R: Divisor, m: int,
                        newton_tol: float = 1e-12) -> BlaschkeProduct:
    """Invert the divisor map: find ``B`` whose free critical divisor
    is ``R`` (degree ``e >= 1``, interior).

    The unknowns are the low coefficients ``s`` of the monic zero
    polynomial ``P = z^e + sum_k s_k z^k``.  With ``Q = rev(conj P)``,
    the free critical points are the interior roots of
    ``M = (mP + zP')Q - zPQ'``, so Newton's method solves the Hermite
    conditions ``M^(i)(t*r) = 0`` for each atom ``r`` of ``R`` and each
    ``i < mult(r)``, on the 2e x 2e real system given by the closed-form
    Wirtinger derivatives of ``M`` (``_numerator_partials``); no roots
    are found inside the solve.  ``newton_tol`` bounds the largest
    ``|M^(i)(t*r)|`` at every accepted step, whose zeros must also lie
    strictly inside the disk.

    The target is continued along ``t*R``: the first step starts from
    the exact small-``t`` solution ``s_k = (m+e)c_k/(m+k)`` (``c`` the
    low coefficients of the monic polynomial with roots ``t*R``), later
    ones from secant extrapolation.  The step starts as the whole path,
    halves on rejection down to 1e-6 and doubles on acceptance.  One
    forward map checks the result.

    Raises
    ------
    ContinuationError
        On step underflow; carries the last parameter value that still
        converged.
    NumericalError
        If the forward map of the result misses ``R`` by more than 1e-7.
    """
    e = R.degree
    if e < 1:
        raise PreconditionError("zeros_from_critical needs degree >= 1")
    R = Divisor(R.atoms, REGION_INTERIOR)
    r = np.array([z for z, mu in R.atoms for _ in range(mu)], dtype=complex)
    order = np.array([i for _, mu in R.atoms for i in range(mu)])
    # condition j reads M^(order_j)(t r_j) from the coefficients of M:
    # row j is n!/(n - order_j)! (t r_j)^(n - order_j), zero for n < order_j
    n = np.arange(2 * e + 1)
    falling = np.ones((e, 2 * e + 1))
    for i in range(int(order.max())):
        falling *= np.where(order[:, None] > i, n - i, 1)
    power = np.maximum(n - order[:, None], 0)

    def newton(s: np.ndarray, t: float) -> Optional[np.ndarray]:
        conditions = falling * (t * r[:, None]) ** power
        last = math.inf
        for _ in range(12):
            p = np.append(s, 1.0)
            f = conditions @ _critical_numerator(p, m)
            err = float(np.max(np.abs(f)))
            if err < newton_tol:
                return s
            if err >= last:
                return None
            last = err
            ds, dsbar = _numerator_partials(p, m)
            a, c = conditions @ ds, conditions @ dsbar
            jac = np.block([[(a + c).real, (c - a).imag],
                            [(a + c).imag, (a - c).real]])
            try:
                delta = np.linalg.solve(jac, -np.concatenate((f.real, f.imag)))
            except np.linalg.LinAlgError:
                return None
            s = s + delta[:e] + 1j * delta[e:]
        return None

    s_prev = s = np.zeros(e, dtype=complex)
    t_prev = t = 0.0
    dt = 1.0
    while t < 1.0:
        t_next = min(1.0, t + dt)
        if t == 0.0:
            guess = (m + e) / (m + np.arange(e)) * npoly.polyfromroots(
                t_next * r)[:e]
        else:
            guess = s + (t_next - t) / (t - t_prev) * (s - s_prev)
        s_next = newton(guess, t_next)
        if s_next is not None:
            roots = npoly.polyroots(np.append(s_next, 1.0))
            if np.all(np.abs(roots) < 1.0):
                s_prev, t_prev, s, t = s, t, s_next, t_next
                dt *= 2.0
                continue
        dt *= 0.5
        if dt < 1e-6:
            raise ContinuationError(
                f"continuation stalled at t = {t:.6g}", t)

    roots = _polish_roots(np.append(s, 1.0), roots)
    B = BlaschkeProduct(
        Divisor([(complex(z), 1) for z in roots], REGION_INTERIOR), m)
    check = matching_distance(critical_divisor(B).free_ram, R)
    if check > 1e-7:
        raise NumericalError(
            f"inverse verification failed: round trip off by {check:.3g}")
    return B


def phi_1m_closed_form(a: complex, m: int) -> complex:
    """Closed form of the single-zero critical point.

    For ``|a| < 1`` this is the unique free critical point of the
    degree-(m+1) product with free zero ``a``; on ``|a| = 1`` the formula
    degenerates to the identity.
    """
    if not isinstance(m, int) or m < 1:
        raise PreconditionError("m must be a positive integer")
    a = complex(a)
    r2 = abs(a) ** 2
    if r2 > (1.0 + CIRCLE_TOL) ** 2:
        raise PreconditionError("phi_1m_closed_form needs |a| <= 1")
    s = (m - 1) * r2 + (m + 1)
    disc = s * s - 4.0 * m * m * r2
    return 2.0 * a * m / (s + math.sqrt(max(disc, 0.0)))


def multiplier_at_zero(B: BlaschkeProduct) -> complex:
    """``B'(0)``: zero when ``m >= 2``, else the product of the factor
    derivatives ``((1-conj(a_k))/(1-a_k)) * (-a_k)`` over the free zeros."""
    if B.m >= 2:
        return 0j
    return complex(B.normalization * B._p[0])


def boundary_orbit(B: BlaschkeProduct, q: complex, n: int) -> list[complex]:
    """Forward orbit ``[q, B(q), ..., B^n(q)]`` on the unit circle.

    Each iterate is renormalized to unit modulus to stop drift from
    accumulating over long orbits.
    """
    q = complex(q)
    if abs(abs(q) - 1.0) > CIRCLE_TOL:
        raise PreconditionError("boundary_orbit needs a unit-modulus point")
    if n < 0:
        raise PreconditionError("orbit length must be nonnegative")
    orbit = [q / abs(q)]
    for _ in range(n):
        w = B.eval(orbit[-1])
        orbit.append(w / abs(w))
    return orbit


def walsh_check(B: BlaschkeProduct, tol: float = 1e-9) -> bool:
    """Certificate that every free critical point (and the forced one at
    the origin when ``m >= 2``) lies in the hyperbolic convex hull of the
    zeros including the origin."""
    if B.degree < 2:
        raise PreconditionError("walsh_check needs degree >= 2")
    generators = [0j] + B.free_zeros.points()
    targets = [0j] if B.m >= 2 else []
    if B.e >= 1:
        targets.extend(critical_divisor(B).free_ram.points())
    return all(hull_contains(generators, c, tol) for c in targets)
