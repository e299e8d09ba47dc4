"""Exact rational angle pairs on the preimage tree of 1.

For a regular boundary divisor ``D = (B, S)`` with ``1`` outside the
support, every point of the tree ``B^{-k}(1)`` carries two angles
``theta_minus <= theta_plus`` (in turns, exact fractions with
denominators dividing powers of ``d``).  The assignment is the unique
one with ``theta(1) = 0`` that is monotone around the circle, pulls
back under ``B`` (multiplication of angles by ``d``), and spends
``nu(q)/d`` of angular mass on each support atom the first time its arc
is crossed.  Leaf pairs with a positive gap are the lamination chords.

The table is built level by level: one stacked eigenvalue solve finds
the preimages of every point of the previous level, each goes to an
integer slot with no sorted merge, and the work per level is linear in
its new entries.  Angles are held as integer numerators over
``d^depth`` while the table grows.  The solve works on the expanded
numerators ``n z^m P - w Q``; this module is the only one that builds
polynomial coefficients, once per call.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional

import numpy as np
import numpy.polynomial.polynomial as npoly

from .blaschke import POLE_TOL, BlaschkeProduct
from .boundary import BoundaryDivisor
from .errors import NumericalError, PreconditionError

#: Two circle points closer than this cannot be ordered reliably.
COLLISION_TOL = 1e-12

__all__ = [
    "AngleEntry",
    "LaminationTable",
    "preimages_of",
    "lamination_table",
    "ray_pairs",
    "table_csv_rows",
]


def _snap(z: np.ndarray) -> np.ndarray:
    """``z / |z|`` divided part by part, as Python divides a complex by a
    float, so the points equal those of the scalar formula bit for bit."""
    r = np.hypot(z.real, z.imag)
    out = np.empty_like(z)
    out.real = z.real / r
    out.imag = z.imag / r
    return out


def _coefficients(B: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients, low to high and of equal length, of ``n z^m P`` and
    ``Q``, with ``P = prod_k (z - a_k)``, ``Q = prod_k (1 - conj(a_k) z)
    = rev(conj P)`` and ``n`` the normalization: ``B = n z^m P/Q``."""
    p = npoly.polyfromroots(B._zeros) if B._zeros else np.ones(1)
    pad = np.zeros(B.m, dtype=complex)
    return (B.normalization * np.concatenate((pad, p)),
            np.concatenate((np.conj(p)[::-1], pad)))


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Two Newton steps on ``roots`` of the polynomial ``coeffs`` (low to
    high); with 2-D ``coeffs``, each row of ``roots`` uses its own row."""
    dcoeffs = npoly.polyder(coeffs, axis=-1)
    out = roots.astype(complex)
    for _ in range(2):
        fv = npoly.polyval(out.T, coeffs.T, tensor=False).T
        dv = npoly.polyval(out.T, dcoeffs.T, tensor=False).T
        safe = np.abs(dv) > 1e-280
        out[safe] = out[safe] - fv[safe] / dv[safe]
    return out


def _preimages(B: BlaschkeProduct, coeffs: tuple[np.ndarray, np.ndarray],
               ws) -> tuple[np.ndarray, np.ndarray]:
    """Circle solutions of ``B(z) = w`` for every target ``w`` in ``ws``,
    from ``coeffs = _coefficients(B)``.

    One eigenvalue call on the stacked companion matrices of the
    numerators ``n z^m P - w Q`` (each built as ``npoly.polycompanion``
    builds it), then the two Newton steps of ``_polish_roots`` on every
    row at once.

    Returns
    -------
    points, turns : ndarray
        Arrays of shape ``(len(ws), deg(B))``: the solutions snapped to
        unit modulus, each row sorted by increasing turn in [0, 1), and
        those turns.

    Raises
    ------
    NumericalError
        If a root lies at a pole, fails the forward check, or two roots
        of a row collide on the circle.
    """
    l = B.degree
    ws = _snap(np.asarray(ws, dtype=complex))[:, None]
    # numerators of B(z) - w, low to high: n z^m P(z) - w Q(z)
    num = coeffs[0] - ws * coeffs[1]
    comp = np.zeros((len(ws), l, l), dtype=complex)
    comp.reshape(len(ws), -1)[:, l::l + 1] = 1
    comp[:, :, -1] -= num[:, :-1] / num[:, -1:]
    # the leading coefficient (n, or n - w prod(-conj a) when m = 0) is
    # never 0, so every row has exactly l roots
    z = _snap(_polish_roots(num, np.linalg.eigvals(comp)))
    value = B.normalization * z ** B.m
    for a in B._zeros:
        h = 1.0 - a.conjugate() * z
        if np.any(np.abs(h) < POLE_TOL):
            raise NumericalError(
                f"evaluation too close to the pole 1/conj({a!r})")
        value = value * ((z - a) / h)
    bad = np.abs(value - ws) > 1e-9
    if np.any(bad):
        raise NumericalError(
            "preimage candidate fails the forward check at "
            f"{complex(z[bad][0])!r}")
    turns = (np.arctan2(z.imag, z.real) / (2.0 * math.pi)) % 1.0
    order = np.argsort(turns, axis=1, kind="stable")
    z = np.take_along_axis(z, order, axis=1)
    turns = np.take_along_axis(turns, order, axis=1)
    if np.any(np.abs(z - np.roll(z, 1, axis=1)) <= COLLISION_TOL):
        raise NumericalError("two preimages collide on the circle")
    return z, turns


def preimages_of(B: BlaschkeProduct, w: complex) -> list[complex]:
    """All circle solutions of ``B(z) = w``, sorted counterclockwise.

    Parameters
    ----------
    B : BlaschkeProduct
        Product of degree at least 2.
    w : complex
        A unit-modulus target.

    Returns
    -------
    list of complex
        The ``deg(B)`` solutions, snapped to unit modulus and ordered by
        increasing argument in [0, 2*pi).

    Raises
    ------
    NumericalError
        If the root count is off or a root fails the forward check.
    """
    l = B.degree
    if l < 2:
        raise PreconditionError("preimages need a product of degree >= 2")
    w = complex(w)
    if abs(abs(w) - 1.0) > 1e-9:
        raise PreconditionError("preimage target must be a circle point")
    return _preimages(B, _coefficients(B), [w])[0][0].tolist()


class AngleEntry:
    """One tree point with its exact angle pair.

    Attributes
    ----------
    point : complex
        Circle point (floating); the combinatorics below never feed the
        float back into the angles.
    level : int
        Smallest ``k`` with ``B^k(point) = 1``.
    theta_minus, theta_plus : Fraction
        Exact angles in turns, ``0 <= theta_minus <= theta_plus < 1``.
    nu : int
        Multiplicity of the circle part at the point (0 off support).
    parent : AngleEntry
        The entry of ``B(point)`` (the root is its own parent).
    """

    def __init__(self, point: complex, level: int, theta_minus: Fraction,
                 theta_plus: Fraction, nu: int,
                 parent: Optional["AngleEntry"]):
        self.point = point
        self.level = level
        self.theta_minus = theta_minus
        self.theta_plus = theta_plus
        self.nu = nu
        self.parent = parent if parent is not None else self

    @property
    def gap(self) -> Fraction:
        return self.theta_plus - self.theta_minus

    @property
    def turn(self) -> float:
        return (cmath.phase(self.point) / (2.0 * math.pi)) % 1.0

    def __repr__(self) -> str:
        return (f"AngleEntry(level={self.level}, "
                f"theta=[{self.theta_minus}, {self.theta_plus}], "
                f"nu={self.nu})")


class LaminationTable:
    """Counterclockwise-ordered angle entries of the preimage tree."""

    def __init__(self, entries: list[AngleEntry], depth: int,
                 base: BoundaryDivisor):
        self.entries = entries
        self.depth = depth
        self.base = base

    def entry_near(self, point: complex,
                   tol: float = 1e-9) -> Optional[AngleEntry]:
        """The entry whose circle point is within ``tol`` of ``point``."""
        for entry in self.entries:
            if abs(entry.point - point) <= tol:
                return entry
        return None

    def __len__(self) -> int:
        return len(self.entries)


def _arc_mass(support: list[tuple[float, int, complex]], za: np.ndarray,
              ta: np.ndarray, zb: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Total multiplicity of support atoms strictly inside each
    counterclockwise open arc from ``za`` (turn ``ta``) to ``zb``."""
    span = (tb - ta) % 1.0
    total = np.zeros(len(za), dtype=int)
    for tq, nu, q in support:
        off = (tq - ta) % 1.0
        inside = ((0.0 < off) & (off < span)
                  & (np.abs(q - za) > COLLISION_TOL)
                  & (np.abs(q - zb) > COLLISION_TOL))
        total += nu * inside
    return total


def lamination_table(D: BoundaryDivisor, depth: int) -> LaminationTable:
    """Build the exact angle table down to the given tree depth.

    ``B`` covers the circle ``l`` times and fixes 1, so there it is
    conjugate to ``z -> z^l`` (Shub, Amer. J. Math. 91, 1969): the
    entries sit in circle order at the ``l^depth`` slots of turns
    ``i/l^depth``, level ``k`` fills the multiples of ``l^(depth-k)``,
    and the parent of slot ``i`` is slot ``l*i mod l^depth``.  Each level
    solves for the preimages of the previous level's entries at once
    (``_preimages``); the ``j``-th preimage of slot ``p`` goes to slot
    ``p/l + j*l^(depth-1)``, with no sorted merge.  One check of the
    level's ring confirms the circle order, and the angle walk visits
    the new slots only: the work per level is linear in its new
    entries.  Every angle is ``k/d^depth``, so the walk holds the
    numerators ``k`` as integers and makes each ``Fraction`` once, at
    the end.

    Parameters
    ----------
    D : BoundaryDivisor
        Regular divisor (interior degree >= 2) with 1 outside the
        support of the circle part.
    depth : int
        Number of preimage levels below the root.

    Raises
    ------
    PreconditionError
        Singular divisor, or 1 in the support (the angle recursion has
        no consistent convention there).
    NumericalError
        Entries of a level that collide or leave circle order, or a
        pullback or monotonicity violation, all of which mean the float
        geometry can no longer order the combinatorics.
    """
    if D.l < 2:
        raise PreconditionError("lamination needs a regular divisor (l >= 2)")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    B = D.interior_part
    coeffs = _coefficients(B)
    d = D.total_degree
    support: list[tuple[float, int, complex]] = []
    for q, nu in D.circle_part.atoms:
        if abs(q - 1.0) <= 1e-9:
            raise PreconditionError(
                "the angle recursion is undefined when 1 lies in supp(S)")
        support.append(((cmath.phase(q) / (2.0 * math.pi)) % 1.0, nu, q))

    # entries by slot; angles are integer numerators over ``one``
    l = B.degree
    size = l ** depth
    if size > 2.0 * math.pi / COLLISION_TOL:
        raise NumericalError(
            f"{l}^{depth} entries cannot all lie {COLLISION_TOL:g} apart "
            "on the circle")
    one = d ** depth
    pts = np.ones(size, dtype=complex)
    turns = np.zeros(size)
    level, tm, tp, nus = ([0] * size for _ in range(4))
    new = np.zeros(1, dtype=int)
    step = size
    for lv in range(1, depth + 1):
        cz, ct = _preimages(B, coeffs, pts[new])
        if lv == 1:
            # B(1) = 1: drop the root's own preimage, at turn 0 or just
            # below 1
            own = np.abs(cz[0] - 1.0) <= COLLISION_TOL
            if np.count_nonzero(own) != 1:
                raise NumericalError(
                    "level 1 entries collide with 1 or miss it")
            cz, ct = cz[:, ~own], ct[:, ~own]
        step //= l
        # preimage j of slot p goes to slot p/l + j*l^(depth-1): branch by
        # branch, the new slots ascend
        new = np.arange(step, size, step)
        new = new[new % (l * step) != 0]
        pts[new], turns[new] = cz.T.ravel(), ct.T.ravel()
        ring, ring_turns = pts[::step], turns[::step]
        if not (np.all(np.diff(ring_turns, append=1.0) > 0) and np.all(
                np.abs(ring - np.roll(ring, -1)) > COLLISION_TOL)):
            raise NumericalError(
                f"level {lv} entries collide or leave circle order: floats "
                "no longer order its preimages")
        arc = _arc_mass(support, pts[new - step], turns[new - step],
                        pts[new], turns[new])
        nu_here = np.zeros(len(new), dtype=int)
        for _, nu, q in reversed(support):
            nu_here[np.abs(q - pts[new]) <= COLLISION_TOL] = nu
        for s, a, nu in zip(new.tolist(), arc.tolist(), nu_here.tolist()):
            par, prev = l * s % size, s - step
            img_gap = (tm[par] - tp[l * prev % size]) % one or one
            lo = tp[prev] + (img_gap + a * one) // d
            hi = lo + (nu * one + tp[par] - tm[par]) // d
            if not (tp[prev] < lo and hi < one):
                raise NumericalError(
                    "angle monotonicity violated while inserting level "
                    f"{lv}")
            if (lo * d) % one != tm[par] or (hi * d) % one != tp[par]:
                raise NumericalError(
                    f"pullback consistency violated at level {lv}")
            # the next slot, when older, must still lie above
            nxt = s + step
            if nxt < size and nxt % (l * step) == 0 and hi > tm[nxt]:
                raise NumericalError(
                    "angle monotonicity violated while re-walking level "
                    f"{lv}")
            level[s], tm[s], tp[s], nus[s] = lv, lo, hi, nu

    entries = []
    for z, lvl, lo, hi, nu in zip(pts.tolist(), level, tm, tp, nus):
        theta = Fraction(lo, one)
        entries.append(AngleEntry(z, lvl, theta, theta if hi == lo
                                  else Fraction(hi, one), nu, None))
    for i, entry in enumerate(entries):
        entry.parent = entries[l * i % size]
    return LaminationTable(entries, depth, D)


def ray_pairs(T: LaminationTable) -> list[tuple[Fraction, Fraction]]:
    """Leaf pairs ``(theta_minus, theta_plus)`` of all entries with a
    positive gap, sorted by the lower angle."""
    pairs = [(e.theta_minus, e.theta_plus) for e in T.entries if e.gap > 0]
    pairs.sort()
    return pairs


def table_csv_rows(T: LaminationTable) -> list[list]:
    """Rows for the CSV export, one per entry in circle order:
    ``point_re, point_im, level, theta_minus_num, theta_minus_den,
    theta_plus_num, theta_plus_den, nu``."""
    rows = []
    for e in T.entries:
        rows.append([e.point.real, e.point.imag, e.level,
                     e.theta_minus.numerator, e.theta_minus.denominator,
                     e.theta_plus.numerator, e.theta_plus.denominator,
                     e.nu])
    return rows
