"""Finite Blaschke products fixing 0 and 1, and the two-way map between
free zero divisors and free critical divisors.

A product here is ``B(z) = z^m * prod_k c_k (z - a_k)/(1 - conj(a_k) z)``
with ``c_k = (1 - conj(a_k))/(1 - a_k)``, so that ``B(0) = 0`` with local
degree at least ``m`` and ``B(1) = 1``.  The free zeros ``a_k`` form an
interior divisor of degree ``e``; the forward map sends it to the degree-e
divisor of free critical points, by one Aberth run on the factored
numerator of ``B'`` from closed-form one-zero seeds, whose points are
checked at the run's last evaluation, the one at which its step fell
below the tolerance, without evaluating them again.  A run that ends on
roots outside the disk, the mirrors of interior ones, runs on once from
their mirrors, so that its last evaluation is still at the interior
points it returns.  One run solves one product, as Aberth's method is a
per-polynomial one.  A product with at most ``_SCALAR_D`` distinct
nonzero zeros, below the measured crossover where numpy's fixed cost per
call dominates, takes the same run and check in plain Python complex
arithmetic.  The product's own ``eval`` and ``deriv`` are one scalar
pass over its factors each.  Nothing here expands ``B`` into polynomial
coefficients; only the lamination's preimage solve does.  The
inverse solves for the zeros themselves by Newton's method on the
conditions that the partial-fraction form of ``B'/B`` vanish at the
prescribed points (with multiplicity).  It tries the target at once
from the roots of a small-``t`` zero polynomial, whose coefficients
come from the Vieta recurrence, and otherwise continues along one
slightly turned path; one forward map checks it, whose Aberth run
starts at the prescribed points instead of the seeds (the copies of a
repeated point spread on a small circle about it) and whose points pass
the same checks.  Its ``newton_tol`` bounds each condition's residual
relative to the sum of the moduli of its terms.  A multiple zero, whose
critical atom the conditions cannot see, is fixed exactly once the
tracked zeros collapse onto it.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence

import numpy as np

from .divisor import (CIRCLE_TOL, Divisor, REGION_INTERIOR, matching_distance)
from .errors import (ContinuationError, NumericalError, PreconditionError,
                     _integer)
from .hypgeo import _hull_contains_all

#: A denominator factor smaller than this counts as pole proximity.
POLE_TOL = 1e-14
#: Largest ``|B'|`` accepted at a computed free critical point.  The
#: tests stay separate from the kernel's convergence flag (a double
#: critical point splits by about sqrt(eps) and never converges in step
#: size, yet passes) and are taken at exactly the points it returns, from
#: its last evaluation there.  ``_checked`` takes it as ``|z|^(m-1) |f|
#: prod_k |phi_k|``, which is ``|B'|`` since ``M = f prod_k g_k``.
CRIT_TOL = 1e-6
#: Bound on ``|M|`` at a computed free critical point, relative to the
#: sum of the moduli of the terms of the factored numerator ``M`` of
#: ``B'``: 5.4e-14 at most on 2160 seeded draws up to e = 24, and 1 at a
#: point that is no root, where ``|B'|`` alone can be tiny.  Dividing
#: both by ``prod_k |g_k|`` gives the ratio ``_checked`` takes, ``|f|/(m
#: + |z| sum_k mu_k w_k/|g_k|)``.
_RESIDUAL_TOL = 1e-8
#: Aberth iterations allowed to the forward map (about 5 typical, 15 the
#: most seen up to e = 24) and the relative step that counts as converged.
_ABERTH_STEPS = 30
_ABERTH_TOL = 1e-15
#: Newton iterations allowed per continuation step of the inverse, and
#: the continuation step below which the inverse counts as stalled.
_NEWTON_STEPS = 12
_MIN_STEP = 1e-6
#: Turn that breaks the mirror symmetry of a conjugation-symmetric input,
#: of the inverse's path (fewest Newton iterations of 0.05-1.0 measured)
#: and of the forward map's Aberth start, which such symmetry can keep
#: from some roots (5.2-5.8 mean steps for each of 0.05-0.3 measured).
_TURN = 0.2
_TURNED = cmath.exp(1j * _TURN)
#: Largest number ``d`` of distinct nonzero zeros at which a product
#: takes the forward map in plain Python complex arithmetic
#: (``_aberth_scalar``, ``_checked_scalar``), where numpy's fixed cost per
#: call dominates: against the numpy run and check of the same product
#: (60 draws per d at radius 0.9, best of 3, five paired repetitions in
#: process on a 2-core VM), from the seeds the scalar route took 0.62-0.71
#: of numpy's time at d = 4, 0.83-1.01 at d = 5 and 1.12-1.31 at d = 6;
#: from points near the roots 0.86-0.93 at d = 5 and 1.16-1.29 at d = 6.
_SCALAR_D = 5
_NAN = complex(math.nan, math.nan)

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

    A product is a value: ``m``, ``free_zeros`` and ``normalization`` are
    read-only (assigning one raises ``AttributeError``), and the first
    successful ``critical_divisor`` call stores its result on the product
    for the later calls to share.

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
        ``B(1) = 1``, as ``conj(p)/p`` with ``p = prod_k (1-a_k)``.
    degree : int
        Total degree ``e + m``.
    """

    def __init__(self, free_zeros: Divisor, m: int):
        m = _integer(m, "m", 1, "m must be a positive integer")
        if free_zeros.region != REGION_INTERIOR:
            free_zeros = free_zeros.with_region(REGION_INTERIOR)
        self._m = m
        self._free_zeros = free_zeros
        self._zeros = free_zeros.points()
        p1 = complex(math.prod(1.0 - a for a in self._zeros))
        self._normalization = p1.conjugate() / p1
        # (free_ram, residual_count) once critical_divisor has succeeded
        self._critical: Optional[tuple[Divisor, int]] = None

    @property
    def m(self) -> int:
        return self._m

    @property
    def free_zeros(self) -> Divisor:
        return self._free_zeros

    @property
    def normalization(self) -> complex:
        return self._normalization

    @property
    def e(self) -> int:
        return len(self._zeros)

    @property
    def degree(self) -> int:
        return self.e + self.m

    def eval(self, z: complex) -> complex:
        """Value of the product at ``z`` (disk to disk, circle to circle).

        Raises
        ------
        NumericalError
            If any denominator factor is smaller than ``POLE_TOL``.
        """
        z = complex(z)
        w = self.normalization * z ** self.m
        for a in self._zeros:
            h = 1.0 - a.conjugate() * z
            if abs(h) < POLE_TOL:
                raise NumericalError(
                    f"evaluation too close to the pole 1/conj({a!r})")
            w *= (z - a) / h
        return w

    def deriv(self, z: complex) -> complex:
        """Derivative at ``z`` by one product-rule pass over the factors
        ``phi_k = (z-a_k)/h_k``, ``h_k = 1-conj(a_k)z``, whose derivatives
        are ``(1-|a_k|^2)/h_k^2``: exact at the zeros of ``B``, where
        logarithmic differentiation breaks down.  Raises
        ``NumericalError`` near a pole, as ``eval`` does."""
        z = complex(z)
        w = self.normalization * z ** self.m
        dw = self.normalization * self.m * z ** (self.m - 1)
        for a in self._zeros:
            h = 1.0 - a.conjugate() * z
            if abs(h) < POLE_TOL:
                raise NumericalError(
                    f"evaluation too close to the pole 1/conj({a!r})")
            phi = (z - a) / h
            dw, w = dw * phi + w * (1.0 - abs(a) ** 2) / (h * h), w * phi
        return dw

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


def from_zero_divisor(Z: Divisor, m: int) -> BlaschkeProduct:
    """Construct the unique normalized product with free zero divisor
    ``Z`` and forced local degree ``m`` at the origin."""
    return BlaschkeProduct(Z, m)


def _aberth(a: np.ndarray, mu: np.ndarray, m: int,
            start: Optional[Sequence[complex]] = None) -> tuple:
    """Up to ``_ABERTH_STEPS`` Aberth steps on the interior roots of ``F =
    f prod_k g_k``, ``f = m + z sum_k mu_k w_k/g_k``, with ``g_k =
    (z-a_k)(1-conj(a_k)z)``, ``w_k = 1-|a_k|^2`` over the ``d`` distinct
    nonzero zeros ``a_k`` of multiplicity ``mu_k``, from the factored
    ``F'/F = f'/f + sum_k g_k'/g_k`` with the mirrored roots
    ``1/conj(z_j)`` deflated.  A step is written ``f/(f' + f S)``, ``S``
    being ``sum_k g_k'/g_k`` less the deflation, so it is 0 where ``f``
    is (where ``1/(f'/f + S)`` is not finite); non-finite steps are not
    taken.  The run starts at the ``d`` points ``start`` if given, which
    must not repeat (``1/(z_i-z_j)`` is then not finite and the copies
    never part); by default the start for ``a_k`` is the critical point
    of the one-zero product ``z^(m+d-1) (z-a_k)/(1-conj(a_k)z)``, as if
    the other zeros sat at the origin, turned about ``a_k`` by ``_TURN``;
    about the zero, since near the circle the root is within
    ``sqrt(1-|a_k|)`` of it.  Aberth is a local method, so a start near
    the roots saves steps and changes nothing else: a converged run holds
    ``d`` roots of ``F`` wherever it began.  The run stops once every
    step falls below ``_ABERTH_TOL * |z|``.  A run that ends with a point
    outside the disk, the mirror of an interior root of ``F``, runs on
    once, from ``1/conj(z)`` there, so the points it returns lie inside
    the disk unless that second run leaves it again.  Returns the ``d``
    points at which the last run stopped (at the step cap, those after
    its last step), whether it converged, and its last evaluation, at
    exactly those points, which ``_checked`` reads: ``1/g_k`` at each
    point as ``(d, d)`` and ``f`` as ``(d,)``.  With ``d <= _SCALAR_D``
    it runs in ``_aberth_scalar`` instead."""
    d = len(a)
    if d <= _SCALAR_D:
        return _aberth_scalar(a, mu, m, start)
    aa = abs(a) ** 2
    ac, aa1 = a.conjugate(), 1.0 + aa
    # complex weights, since a complex product is the fastest sum numpy has
    mw = (mu * (1.0 - aa)).astype(complex)[:, None]
    ones = np.ones(d, complex)
    # the points as a column zc, and the same memory as a row zr
    if start is None:
        start = a + (_one_zero_critical(a, m + d - 1) - a) * _TURNED
    zc = np.array(start, complex).reshape(d, 1)
    zr = zc.reshape(1, d)
    # 1/g_k in the first d rows and the terms of f' in the last d, so
    # that one @ takes both weighted sums
    terms = np.empty((2 * d, d), complex)
    sums = np.empty((2 * d, 1), complex)
    r, fp_terms, f_sum, fp_sum = terms[:d], terms[d:], sums[:d], sums[d:]
    # z_i - z_j, then the terms of S, and their sums by a one-call dot
    gaps = np.empty((d, d), complex)
    diagonal = gaps.reshape(d * d)[::d + 1]
    s = np.empty(d, complex)
    sc = s[:, None]
    with np.errstate(all="ignore"):
        for run_on in (False, True):
            converged = False
            for steps in range(_ABERTH_STEPS + 1):
                acz = ac * zc
                np.divide(1.0, (zc - a) * (1.0 - acz), out=r)
                np.multiply((acz * zc - a) * r, r, out=fp_terms)
                np.matmul(terms, mw, out=sums)
                f = m + zc * f_sum
                if steps == _ABERTH_STEPS:
                    break
                zb = zr.conjugate()
                np.subtract(zc, zr, out=gaps)
                diagonal[...] = np.inf    # drops 1/(z_i - z_i)
                # g_k' = 1 + |a_k|^2 - 2 conj(a_k) z, and
                # 1/(z_i - 1/conj(z_j)) written to stay finite at z_j = 0
                np.subtract((aa1 - 2.0 * acz) * r - 1.0 / gaps,
                            zb / (zc * zb - 1.0), out=gaps)
                np.dot(gaps, ones, out=s)
                step = f / (fp_sum + f * sc)
                converged = bool(abs(step / zc).max() <= _ABERTH_TOL)
                if converged:
                    break
                np.subtract(zc, step, out=zc, where=np.isfinite(step))
            out = abs(zc) > 1.0
            if run_on or not out.any():
                break
            np.divide(1.0, zc.conjugate(), out=zc, where=out)
    return zr[0], converged, r, f[:, 0]


def _aberth_scalar(a: np.ndarray, mu: np.ndarray, m: int,
                   start: Optional[Sequence[complex]]) -> tuple:
    """``_aberth`` in plain Python complex arithmetic, with numpy's
    non-finite semantics (a step that is not finite, or divides by zero,
    is not taken) and the same run on from the mirrors of points outside
    the disk; the points, ``r`` and ``f`` come as lists.  One simple zero
    starts unturned at its exact root."""
    zeros, d = a.tolist(), len(a)
    terms = _terms(a, mu)
    # g_k'/g_k = (1 + |a_k|^2 - 2 conj(a_k) z)/g_k
    slopes = [(1.0 + abs(x) ** 2, 2.0 * x.conjugate()) for x in zeros]
    if start is not None:
        zs = [complex(z) for z in start]
    elif d == 1 and mu[0] == 1:
        zs = [_one_zero_critical(zeros[0], m)]
    else:
        zs = [x + (_one_zero_critical(x, m + d - 1) - x) * _TURNED
              for x in zeros]
    for run_on in (False, True):
        converged = False
        for steps in range(_ABERTH_STEPS + 1):
            ev = [_sums(terms, m, z) for z in zs]
            if steps == _ABERTH_STEPS:
                break
            zbs = [z.conjugate() for z in zs]
            moved, converged = [], True
            for i, (z, (r, f, fp)) in enumerate(zip(zs, ev)):
                step, t = _NAN, 0j    # numpy's step where a division is by 0
                try:
                    for j, (zj, zbj, (c1, c2), rj) in enumerate(
                            zip(zs, zbs, slopes, r)):
                        t += (c1 - c2 * z) * rj - zbj / (z * zbj - 1.0)
                        if j != i:
                            t -= 1.0 / (z - zj)
                    step = f / (fp + f * t)
                    converged = converged and abs(step / z) <= _ABERTH_TOL
                except (ZeroDivisionError, OverflowError):
                    converged = False
                moved.append(z - step if cmath.isfinite(step) else z)
            if converged:
                break
            zs = moved
        try:
            out = [abs(z) > 1.0 for z in zs]
        except OverflowError:    # a modulus past the largest float fails
            break
        if run_on or not any(out):
            break
        zs = [1.0 / z.conjugate() if o else z for z, o in zip(zs, out)]
    return zs, converged, [r for r, _, _ in ev], [f for _, f, _ in ev]


def _terms(a: np.ndarray, mu: np.ndarray) -> list:
    """``_sums``' ``(a_k, conj(a_k), mu_k (1-|a_k|^2))`` of the zeros ``a``."""
    return [(x, x.conjugate(), k * (1.0 - abs(x) ** 2))
            for x, k in zip(a.tolist(), mu.tolist())]


def _sums(terms: list, m: int, z: complex) -> tuple[list, complex, complex]:
    """``1/g_k`` at ``z``, ``g_k = (z-a_k)(1-conj(a_k)z)``, over the zeros
    ``terms`` of ``(a_k, conj(a_k), w_k)``, with ``f = m + z sum_k w_k/g_k``
    and ``f' = sum_k w_k (conj(a_k) z^2 - a_k)/g_k^2``, all NaN where some
    ``g_k`` is 0: the package's one scalar form of these sums."""
    r, s, ds = [], 0j, 0j
    try:
        for a, ac, w in terms:
            acz = ac * z
            rk = 1.0 / ((z - a) * (1.0 - acz))
            r.append(rk)
            s += w * rk
            ds += w * ((acz * z - a) * rk * rk)
    except ZeroDivisionError:
        return [_NAN] * len(terms), _NAN, _NAN
    return r, m + z * s, ds


def _one_zero_critical(a, m: int):
    """Free critical point of the product ``z^m (z-a)/(1-conj(a)z)``, for
    a number or an array ``a``.  Both forms take the same correctly
    rounded operations (``|a|^2`` from the parts, since numpy's complex
    ``abs`` is not libm's ``hypot``), so they agree bit for bit."""
    r2 = a.real * a.real + a.imag * a.imag
    s = (m - 1) * r2 + (m + 1)
    disc = s * s - 4.0 * m * m * r2
    if isinstance(a, np.ndarray):
        return a * (2.0 * m / (s + np.sqrt(np.maximum(disc, 0.0))))
    return a * (2.0 * m / (s + math.sqrt(max(disc, 0.0))))


def _checked(a: np.ndarray, mu: np.ndarray, m: int, z: np.ndarray,
             r: np.ndarray, f: np.ndarray) -> Optional[str]:
    """Why the ``d`` points ``z`` fail as free critical points of the
    product of zeros ``a`` with multiplicities ``mu``, or ``None`` if
    they pass.  The tests take the factored numerator ``M = f prod_k
    g_k`` of ``B'`` through ``_aberth``'s ``f = m + z sum_k mu_k
    w_k/g_k``: the relative residual of ``M`` is ``|f|/(m + |z| sum_k
    mu_k w_k/|g_k|)``, and ``|B'/prod_k phi_k^(mu_k-1)| = |z^(m-1)
    M/Q^2|`` is ``|z|^(m-1) |f| prod_k |phi_k|``, with ``|phi_k| =
    |z-a_k|^2/|g_k|``, so no product over the other zeros is formed.
    ``r`` (``1/g_k`` at each point, ``(d, d)``) and ``f`` are the last
    evaluation of the ``_aberth`` run that returned exactly the points
    ``z``; nothing is evaluated again, and a point outside the disk
    fails.  With ``d <= _SCALAR_D`` it goes to ``_checked_scalar``."""
    if len(a) <= _SCALAR_D:
        return _checked_scalar(a, mu, m, z, r, f)
    w = mu * (1.0 - abs(a) ** 2)
    mod = abs(z)
    with np.errstate(all="ignore"):
        ar, af = abs(r), abs(f)
        au = abs(z[:, None] - a)
        res = af / (m + mod * (ar @ w))
        dv = mod ** (m - 1) * af * (au * ar * au).prod(axis=1)
    # f is not finite at a zero, where every test then fails
    if ((dv <= CRIT_TOL) & (res < _RESIDUAL_TOL) & (mod < 1.0)).all():
        return None
    return _failure(dv.max(), res.max())


def _failure(dv: float, res: float) -> str:
    return (f"a computed critical point has |B'| = {dv:.3g}, relative "
            f"residual {res:.3g}, or lies outside the disk")


def _checked_scalar(a: np.ndarray, mu: np.ndarray, m: int, z: list,
                    r: list, f: list) -> Optional[str]:
    """``_checked`` in plain Python complex arithmetic, reading
    ``_aberth_scalar``'s ``r`` and ``f``; a test that overflows fails, as
    numpy's inf or NaN would."""
    terms = _terms(a, mu)
    dvs, ress, good = [], [], True
    for c, rc, fc in zip(z, r, f):
        mod = math.nan
        try:
            mod, af, sw, dv = abs(c), abs(fc), 0.0, 1.0
            for (x, _, w), rk in zip(terms, rc):
                ar, au = abs(rk), abs(c - x)
                sw += w * ar
                dv *= au * ar * au
            res, dv = af / (m + mod * sw), dv * mod ** (m - 1) * af
        except OverflowError:
            dv = res = math.nan
        dvs.append(dv)
        ress.append(res)
        good = good and dv <= CRIT_TOL and res < _RESIDUAL_TOL and mod < 1.0
    return None if good else _failure(max(dvs), max(ress))


def _critical(B: BlaschkeProduct,
              start: Optional[list[complex]] = None) -> RamificationResult:
    """``critical_divisor(B)``, whose ``_aberth`` run starts at the ``d``
    points ``start``, if given, in place of the closed-form seeds."""
    if B._critical is None:
        if B.e < 1:
            raise PreconditionError(
                "critical_divisor needs at least one free zero")
        nonzero = [(z, mu) for z, mu in B.free_zeros.atoms if z != 0]
        # the local degree at 0 counts the free zeros there
        m = B.m + B.e - sum(mu for _, mu in nonzero)
        # a zero atom mu*a gives (mu-1)*a exactly, mu*0 gives mu*0
        atoms = [(z, mu - 1) for z, mu in nonzero if mu > 1]
        if m > B.m:
            atoms.append((0j, m - B.m))
        if nonzero:
            a = np.array([z for z, _ in nonzero])
            mu = np.array([k for _, k in nonzero])
            z, _, r, f = _aberth(a, mu, m, start)
            failure = _checked(a, mu, m, z, r, f)
            if failure:
                raise NumericalError(failure)
            atoms.extend((complex(c), 1) for c in z)
        B._critical = (Divisor(atoms, REGION_INTERIOR),
                       sum(mu for _, mu in nonzero))
    return RamificationResult(*B._critical)


def critical_divisor(B: BlaschkeProduct) -> RamificationResult:
    """Free critical divisor of ``B`` (the forward divisor map).

    A zero atom ``mu*a`` gives ``(mu-1)*a`` exactly, ``mu*0`` gives
    ``mu*0``.  The rest are the interior roots of ``F`` over the ``d``
    distinct nonzero zeros, from one ``_aberth`` run at every degree: an
    Aberth start that does not converge is not retried from another, and
    a run that ends on roots outside the disk (mirrors of interior ones)
    runs on once from their mirrors.  Each point must lie inside the
    disk and pass ``|B'| <= CRIT_TOL`` (``B'`` divided by
    ``phi_k^(mu_k-1)`` for a multiple zero ``mu_k*a_k``, which only makes
    it larger) and ``|M| < _RESIDUAL_TOL`` times the sum of the moduli of
    the terms of the factored numerator ``M``.  Both are taken in the
    partial-fraction form ``f`` of ``M = f prod_k g_k`` (``_checked``):
    the same quantities, without products over the other zeros, read
    from the run's last evaluation, at exactly the points it returns.
    With at most ``_SCALAR_D`` distinct nonzero zeros it runs in plain
    Python complex arithmetic (``_aberth_scalar``), whose points equal
    numpy's within 1e-15 up to radius 0.95.

    The first successful call stores the result on ``B``; later calls on
    the same product return a new ``RamificationResult`` over it without
    solving again.  A failure is not stored, so it is raised again.

    Raises
    ------
    PreconditionError
        If ``e == 0`` (no free zeros, hence no free critical points).
    NumericalError
        If the computed points fail the check above (as they do for a
        subnormal zero, whose factors overflow).
    """
    return _critical(B)


def _inverse_terms(a: np.ndarray, z: np.ndarray, p: Optional[np.ndarray],
                   fact: Optional[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Terms ``(-1)^i i! a/(z-a)^(i+1)``, ``i! conj(a)^i/(1-conj(a)z)^(i+1)``
    of ``f^(i)(z)`` at rows ``(z, i = p, fact = i!)`` (``p`` and ``fact``
    None if all are 0) and zero columns ``a``, and their derivatives in
    ``a`` and ``conj(a)``: the ``i``-th z-derivatives of ``z/(z-a)^2``,
    ``z/(1-conj(a)z)^2``."""
    ac = a.conjugate()
    u, v = 1.0 / (z - a), 1.0 / (1.0 - ac * z)
    if p is None:
        return a * u, v, z * u * u, z * v * v
    up = np.where(p % 2, -fact, fact) * u ** (p + 1)
    vp, acp = fact * v ** (p + 1), ac ** p
    return (a * up, acp * vp, up * ((p + 1) * z * u - p),
            vp * ((p + 1) * z * acp * v + p * ac ** np.maximum(p - 1, 0)))


def _rows(atoms: list[tuple[complex, int]], m: int) -> tuple:
    """Points, orders and order factorials (columns; orders and
    factorials None if every atom is simple) and ``m[i=0]`` of the
    conditions ``f^(i)(c) = 0``, ``i < k``, at the atoms ``k*c``."""
    if all(k == 1 for _, k in atoms):
        z = np.array([c for c, _ in atoms], dtype=complex)
        return z[:, None], None, None, np.full(len(z), float(m))
    order = np.array([i for _, k in atoms for i in range(k)])
    z = np.array([c for c, k in atoms for _ in range(k)], dtype=complex)
    fact = np.array([math.factorial(i) for i in order], dtype=float)
    return (z[:, None], order[:, None], fact[:, None],
            np.where(order == 0, float(m), 0.0))


def _inverse_newton(a: np.ndarray, z: np.ndarray, p: Optional[np.ndarray],
                    fact: Optional[np.ndarray], base: np.ndarray,
                    base_scale: np.ndarray,
                    tol: float) -> Optional[np.ndarray]:
    """Newton's method (least squares if rows outnumber zeros) in the free
    zeros ``a`` on ``f^(p)(z) = 0``, ``base`` being the part of ``f`` no
    free zero carries.  Returns ``a`` once each ``|f^(p)(z)|`` is at most
    ``tol`` times ``base_scale`` plus the moduli of its terms, ``None`` if
    a step after the first fails to lower that ratio."""
    n, e = len(z), len(a)
    # rows 2k, 2k+1: images of the real and imaginary directions of a_k
    cols = np.empty((2 * e, n), dtype=complex)
    last = math.inf
    with np.errstate(all="ignore"):
        for step in range(_NEWTON_STEPS):
            t1, t2, da, dac = _inverse_terms(a, z, p, fact)
            f = base + (t1 + t2).sum(axis=1)
            scale = base_scale + (abs(t1) + abs(t2)).sum(axis=1)
            err = float((abs(f) / scale).max())
            if err <= tol:
                return a
            if e == 0 or not err < last:
                return None
            last = err if step else math.inf
            np.add(da.T, dac.T, out=cols[0::2])
            np.multiply(1j, da.T - dac.T, out=cols[1::2])
            jac, rhs = cols.view(float).T, -f.view(float)
            try:
                a = a + (np.linalg.solve(jac, rhs) if n == e else
                         np.linalg.lstsq(jac, rhs, rcond=None)[0]).view(complex)
            except np.linalg.LinAlgError:
                return None
    return None


def _continue_zeros(atoms: list[tuple[complex, int]], m: int,
                    tol: float) -> tuple[np.ndarray, float, bool]:
    """Track the zeros for atoms ``k_j*c_j`` along the generic path ``t
    exp(i _TURN theta_j t(1-t)) c_j``, ``theta_j`` in [-1, 1] distinct, ``t``
    from 0 to 1, from the roots of the exact small-``t`` zero polynomial
    (``_small_t_zeros``), then by secant.  The first step tries ``t = 1``
    at once, where the turn is exactly 1, so the turned points are formed
    only once a shorter step is tried.  A step doubles on acceptance
    (Newton converged inside the disk); on rejection the step just tried
    is halved.  Returns the zeros, the last ``t`` and whether it is 1
    (else the step fell below ``_MIN_STEP``)."""
    z, p, fact, base = _rows(atoms, m)
    a_prev = a = np.zeros(len(z), dtype=complex)
    t_prev = t = 0.0
    dt = 1.0
    while t < 1.0:
        t_next = min(1.0, t + dt)
        zt = z if t_next == 1.0 else t_next * z * np.exp(
            _path_turns(atoms) * (t_next * (1.0 - t_next)))
        guess = (_small_t_zeros(zt[:, 0].tolist(), m) if t == 0.0 else
                 a + (t_next - t) / (t - t_prev) * (a - a_prev))
        a_next = _inverse_newton(guess, zt, p, fact, base, base, tol)
        if a_next is not None and (abs(a_next) < 1.0).all():
            a_prev, t_prev, a, t = a, t, a_next, t_next
            dt *= 2.0
            continue
        dt = 0.5 * (t_next - t)
        if dt < _MIN_STEP:
            return a, t, False
    return a, t, True


def _path_turns(atoms: list[tuple[complex, int]]) -> np.ndarray:
    """The column ``i _TURN theta_j`` of ``_continue_zeros``' path, one row
    per condition, ``theta_j = 2 frac(j/golden ratio) - 1`` for atom ``j``."""
    j = np.array([i for i, (_, k) in enumerate(atoms) for _ in range(k)])
    return 1j * _TURN * (2.0 * (0.6180339887498949 * j[:, None] % 1.0) - 1.0)


def _small_t_zeros(points: list[complex], m: int) -> np.ndarray:
    """Roots of ``z^e + sum_k (m+e)c_k/(m+k) z^k``, the zero polynomial
    exact to first order at ``t*points`` for small ``t``, ``c`` being the
    coefficients of the monic polynomial with roots ``points``, by the
    Vieta recurrence in Python arithmetic and the eigenvalues of the
    companion matrix."""
    c = [1.0 + 0j]    # descending: c[i] multiplies z^(e-i)
    for x in points:
        c.append(-x * c[-1])
        for i in range(len(c) - 2, 0, -1):
            c[i] -= x * c[i - 1]
    e = len(points)
    comp = np.eye(e, k=-1, dtype=complex)
    comp[0] = [-(m + e) / (m + e - i) * c[i] for i in range(1, e + 1)]
    return np.linalg.eigvals(comp)


def _solve_collapsed(atoms: list[tuple[complex, int]], m: int, tol: float,
                     a: np.ndarray, t: float) -> Optional[list]:
    """Zero atoms when the zeros ``a`` stalled at ``t`` collapse onto
    atoms: by the spread of their ``k+1`` zeros nearest ``t*c``, the
    tightest atom ``k*c``, then the next too, and so on, becomes a fixed
    zero atom ``(k+1)*c`` while the other zeros are re-solved at ``t = 1``
    by least squares.  Returns the first solution, or ``None``."""
    ranked = []
    for c, k in atoms:
        if k < len(a):
            near = abs(a - t * c).argsort()[:k + 1]
            ranked.append((abs(a[near[-1]] - t * c), c, k, near))
    free, fixed = np.ones(len(a), dtype=bool), {}
    for _, c, k, near in sorted(ranked, key=lambda item: item[0]):
        if not free[near].all():
            continue
        free[near], fixed[c] = False, k + 1
        z, p, fact, order0 = _rows([(x, i) for x, i in atoms
                                    if x not in fixed], m)
        t1, t2, _, _ = _inverse_terms(np.array(list(fixed)), z, p, fact)
        mu = np.array(list(fixed.values()), dtype=float)
        solved = _inverse_newton(a[free], z, p, fact, order0 + (t1 + t2) @ mu,
                                 order0 + (abs(t1) + abs(t2)) @ mu, tol)
        if solved is not None and (abs(solved) < 1.0).all():
            return list(fixed.items()) + [(complex(x), 1) for x in solved]
    return None


def zeros_from_critical(R: Divisor, m: int,
                        newton_tol: float = 1e-12) -> BlaschkeProduct:
    """Invert the divisor map: find ``B`` whose free critical divisor
    is ``R`` (degree ``e >= 1``, interior).

    Off the zeros ``a_k``, the free critical points are the roots of
    ``f(z) = m + sum_k [a_k/(z-a_k) + 1/(1-conj(a_k)z)]`` (``_aberth``'s
    ``m + z sum_k w_k/g_k``), so Newton's method in the zeros solves
    ``f^(i)(t*r) = 0`` for each atom ``r`` of ``R`` and ``i < mult(r)``
    with closed-form Wirtinger derivatives; no roots are found inside the
    solve.  ``newton_tol`` bounds each ``|f^(i)(t*r)|`` relative to
    ``m[i=0]`` plus the moduli of its terms.  The first attempt goes to
    ``t = 1`` at once from the roots of the small-``t`` zero polynomial
    (``_small_t_zeros``), which most inputs accept; a shorter step
    follows one path that turns the atoms a little on the way
    (``_continue_zeros``): the straight ``t*R`` keeps any mirror
    symmetry of ``R`` and can meet a double zero, where two zeros branch.

    ``F = f prod_k g_k`` vanishes neither at 0 nor at a nonzero zero, so
    an atom ``k*0`` is ``k`` zeros at 0 and an atom ``k*c``, ``c != 0``,
    a ``k``-fold root of ``f`` or a ``(k+1)``-fold zero; the latter stalls
    the path near ``t = 1`` with ``k+1`` zeros collapsing onto ``t*c``
    and is then fixed.  As the critical divisor determines the product,
    one forward map checks the result, and its result is stored on the
    product.  Its ``_aberth`` run starts at the points of ``R``, each
    repeated by its multiplicity, less the atoms of fixed zeros (their
    critical atoms ``k*c`` are exact); the ``k`` copies of an atom
    ``k*c``, ``k >= 2``, start on a circle of radius 1e-4 about ``c``,
    since copies that start on one another never part.  If zeros merged
    at ``MERGE_TOL``, so that the count differs from the number of
    distinct nonzero zeros, it starts at the seeds.  The start saves
    steps only: the points must still pass every test of
    ``critical_divisor``, and then lie within 1e-7 of ``R`` in
    ``matching_distance``.  The stored points are those at which the
    run's step fell below ``_ABERTH_TOL``, so a run whose first step
    from ``R`` is already that small stores the points of ``R`` itself,
    tested at its evaluation there.

    Raises
    ------
    PreconditionError
        If ``e < 1``, ``m`` is not a positive integer, or ``newton_tol``
        is not finite and positive.
    ContinuationError
        If the path stalls with no collapsed atom; carries the last
        parameter value that still converged.
    NumericalError
        If the forward map of the result misses ``R`` by more than 1e-7.
    """
    e = R.degree
    if e < 1:
        raise PreconditionError("zeros_from_critical needs degree >= 1")
    m = _integer(m, "m", 1, "m must be a positive integer")
    if not (math.isfinite(newton_tol) and newton_tol > 0):
        raise PreconditionError("newton_tol must be finite and positive")
    if R.region != REGION_INTERIOR:
        R = R.with_region(REGION_INTERIOR)
    atoms = [(c, k) for c, k in R.atoms if c != 0]
    mu0 = e - sum(k for _, k in atoms)
    solved = []
    if atoms:
        a, t, done = _continue_zeros(atoms, m + mu0, newton_tol)
        solved = ([(x, 1) for x in a.tolist()] if done else
                  _solve_collapsed(atoms, m + mu0, newton_tol, a, t))
        if solved is None:
            raise ContinuationError(f"continuation stalled at t = {t:.6g}", t)
    B = BlaschkeProduct(Divisor(solved + [(0j, mu0)] * (mu0 > 0),
                                REGION_INTERIOR), m)
    fixed = {c for c, k in solved if k > 1}
    start = [c + cmath.rect(1e-4, _TURN + 2.0 * math.pi * i / k) if k > 1
             else c for c, k in atoms if c not in fixed for i in range(k)]
    # from the seeds if zeros merged at MERGE_TOL
    d = sum(z != 0 for z, _ in B.free_zeros.atoms)
    result = _critical(B, start if len(start) == d else None)
    check = matching_distance(result.free_ram, R)
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
    m = _integer(m, "m", 1, "m must be a positive integer")
    a = complex(a)
    if abs(a) > 1.0 + CIRCLE_TOL:
        raise PreconditionError("phi_1m_closed_form needs |a| <= 1")
    return complex(_one_zero_critical(a, m))


def multiplier_at_zero(B: BlaschkeProduct) -> complex:
    """``B'(0)`` by ``BlaschkeProduct.deriv``: zero when ``m >= 2``, else
    the normalization times the product of the ``-a_k``."""
    return B.deriv(0j)


def boundary_orbit(B: BlaschkeProduct, q: complex, n: int) -> list[complex]:
    """Forward orbit ``[q, B(q), ..., B^n(q)]`` on the unit circle.

    Each iterate is renormalized to unit modulus to stop drift from
    accumulating over long orbits.

    Raises
    ------
    PreconditionError
        If ``q`` is off the circle or ``n`` is not a nonnegative integer.
    """
    q = complex(q)
    if abs(abs(q) - 1.0) > CIRCLE_TOL:
        raise PreconditionError("boundary_orbit needs a unit-modulus point")
    n = _integer(n, "n", 0, "orbit length must be a nonnegative integer")
    orbit = [q / abs(q)]
    for _ in range(n):
        w = B.eval(orbit[-1])
        orbit.append(w / abs(w))
    return orbit


def walsh_check(B: BlaschkeProduct, tol: float = 1e-9) -> bool:
    """Certificate that every free critical point (and the forced one at
    the origin when ``m >= 2``) lies in the hyperbolic convex hull of the
    zeros including the origin, inflated by ``tol`` as in
    ``hull_contains``.

    Raises
    ------
    PreconditionError
        If the degree is below 2 or ``tol`` is not finite and
        nonnegative.
    """
    if B.degree < 2:
        raise PreconditionError("walsh_check needs degree >= 2")
    generators = [0j] + B.free_zeros.points()
    targets = [0j] if B.m >= 2 else []
    if B.e >= 1:
        targets.extend(critical_divisor(B).free_ram.points())
    return _hull_contains_all(generators, targets, tol)
