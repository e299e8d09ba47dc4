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
from .hypgeo import _hull_contains_all

#: A denominator factor smaller than this counts as pole proximity.
POLE_TOL = 1e-14
#: Largest ``|B'|`` accepted at a computed free critical point, checked
#: apart from the kernel that found it (a double critical point splits
#: by about sqrt(eps) and never converges in step size, yet passes).
CRIT_TOL = 1e-6
#: Most distinct nonzero free zeros whose critical points are seeded
#: from eigenvalues; the zero seeds are faster from 7 on (measured).
_EIGEN_MAX = 6
#: Aberth iterations allowed from the zero seeds (5-6 typical, 13 seen
#: up to e = 24) and the relative step that counts as converged.
_ABERTH_STEPS = 30
_ABERTH_TOL = 1e-15

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
        Number of critical-numerator roots outside the closed disk (the
        mirrors of the interior ones): ``e`` less the multiplicity of a
        free zero at 0.  Counted; the mirrored roots are not computed.
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


def _aberth(a: np.ndarray, mu: np.ndarray, m: int, z: np.ndarray,
            steps: int) -> tuple[np.ndarray, bool]:
    """Up to ``steps`` Aberth steps on the interior roots ``z`` of
    ``F = f prod_k g_k``, ``f = m + z sum_k mu_k w_k/g_k``, with
    ``g_k = (z-a_k)(1-conj(a_k)z)``, ``w_k = 1-|a_k|^2`` over distinct
    nonzero zeros ``a_k`` of multiplicity ``mu_k``, from the factored
    ``F'/F = f'/f + sum_k g_k'/g_k`` with the mirrored roots
    ``1/conj(z_j)`` deflated.  Non-finite steps are not taken.  Returns
    the points and whether all steps fell below ``_ABERTH_TOL * |z|``."""
    ac, aa = a.conjugate(), abs(a) ** 2
    mw = mu * (1.0 - aa)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            zc, zb = z[:, None], z.conjugate()
            acz = ac * zc
            r = 1.0 / ((zc - a) * (1.0 - acz))
            gaps = zc - z
            gaps.flat[::len(z) + 1] = np.inf    # drops 1/(z_i - z_i)
            log_f = ((acz * zc - a) * r * r) @ mw / (m + z * (r @ mw))
            # g_k' = 1 + |a_k|^2 - 2 conj(a_k) z, and 1/(z_i - 1/conj(z_j))
            # written to stay finite at z_j = 0
            step = 1.0 / (log_f + ((1.0 + aa - 2.0 * acz) * r - 1.0 / gaps
                                   - zb / (zc * zb - 1.0)).sum(axis=1))
            z = np.where(np.isfinite(step), z - step, z)
            if (abs(step) <= _ABERTH_TOL * abs(z)).all():
                return z, True
    return z, False


def critical_divisor(B: BlaschkeProduct) -> RamificationResult:
    """Free critical divisor of ``B`` (the forward divisor map).

    A zero atom ``mu*a`` gives ``(mu-1)*a`` exactly, ``mu*0`` gives
    ``mu*0``.  The rest are the interior roots of ``F`` (``_aberth``)
    over the ``d`` distinct nonzero zeros.  For ``d > _EIGEN_MAX`` the
    kernel starts at ``0.9 a_k + 0.01 exp(2 pi i (k+1/4)/d)`` and runs to
    convergence; otherwise, or if that fails, it takes one step from the
    interior half of the roots of ``B._mnum`` (pairs ``z, 1/conj(z)``
    and the zeros at 0) less the ``k`` nearest each exact atom ``k*c``.
    Points outside the disk are reflected, onto roots of ``F`` too; each
    must then pass ``|B'| <= CRIT_TOL`` by ``_deriv_modulus``.

    Raises
    ------
    PreconditionError
        If ``e == 0`` (no free zeros, hence no free critical points).
    NumericalError
        If a computed point has ``|B'| > CRIT_TOL`` or lies on or
        outside the circle.
    """
    e = B.e
    if e < 1:
        raise PreconditionError("critical_divisor needs at least one free zero")
    nonzero = [(z, mu) for z, mu in B.free_zeros.atoms if z != 0]
    mu0 = e - sum(mu for _, mu in nonzero)
    atoms = [(z, mu - 1) for z, mu in nonzero if mu > 1]
    if mu0:
        atoms.append((0j, mu0))
    if nonzero:
        a = np.array([z for z, _ in nonzero])
        mu = np.array([k for _, k in nonzero])
        m, d, done = B.m + mu0, len(a), False
        if d > _EIGEN_MAX:
            z = 0.9 * a + 0.01 * np.exp(2j * np.pi * (np.arange(d) + 0.25) / d)
            z, done = _aberth(a, mu, m, z, _ABERTH_STEPS)
        if not done:
            z = npoly.polyroots(B._mnum)    # trims the exact zeros on top
            z = z[abs(z).argsort()[:e]]
            for c, k in atoms:
                z = np.delete(z, abs(z - c).argsort()[:k])
            z, _ = _aberth(a, mu, m, z, 1)
        z = np.divide(1.0, z.conjugate(), out=z, where=abs(z) > 1.0)
        worst = float(_deriv_modulus(B, z).max())
        if not (worst <= CRIT_TOL and (abs(z) < 1.0).all()):
            raise NumericalError(
                f"a computed critical point has |B'| = {worst:.3g} "
                f"or lies outside the disk")
        atoms.extend((complex(c), 1) for c in z)
    return RamificationResult(Divisor(atoms, REGION_INTERIOR), e - mu0)


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
    return _hull_contains_all(generators, targets, tol)
