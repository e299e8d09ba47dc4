"""Boundary divisors ``D = (B, S)``: a lower-degree product paired with a
circle divisor of escaped zeros, the extension of the critical-divisor
map to such pairs, degenerate-limit constructions, and the full
classification into the two extendable types.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Sequence

from .blaschke import (BlaschkeProduct, boundary_orbit, critical_divisor,
                       from_zero_divisor)
from .divisor import (Divisor, REGION_CIRCLE, REGION_INTERIOR, _int, add,
                      divisor_from_json, divisor_to_json, is_simple)
from .errors import PreconditionError, SchemaError, _integer

#: Default orbit search depth; angle expansion under degree-d dynamics
#: exhausts double precision long before this.
DEFAULT_DEPTH = 64
DEFAULT_TOL = 1e-9

#: Atoms within this distance of the escape target count as escapers.
ESCAPE_RADIUS = 0.25

__all__ = [
    "DEFAULT_DEPTH",
    "DEFAULT_TOL",
    "BoundaryDivisor",
    "DynrelResult",
    "OrbitMembership",
    "ClassificationReport",
    "extend_phi",
    "zeta_limit",
    "build_degenerate_sequence",
    "is_regular",
    "has_dynamical_relation",
    "in_E_zeta",
    "classify",
    "boundary_to_json",
    "boundary_from_json",
]


class BoundaryDivisor:
    """A compactification point ``D = (B, S)``.

    Parameters
    ----------
    interior_part : BlaschkeProduct
        The limiting product ``B`` of degree ``l >= 1``; ``l = 1`` means
        the identity.
    circle_part : Divisor
        The circle divisor ``S`` of escaped zeros.  Degree 0 is allowed
        only as the interior control case; classification and
        laminations require degree >= 1.
    """

    def __init__(self, interior_part: BlaschkeProduct, circle_part: Divisor):
        circle_part = circle_part.with_region(REGION_CIRCLE)
        if interior_part.degree < 1:
            raise PreconditionError("interior part must have degree >= 1")
        self.interior_part = interior_part
        self.circle_part = circle_part

    @property
    def l(self) -> int:
        return self.interior_part.degree

    @property
    def total_degree(self) -> int:
        return self.l + self.circle_part.degree

    def support_atoms(self) -> tuple[tuple[complex, int], ...]:
        return self.circle_part.atoms

    def __repr__(self) -> str:
        return (f"BoundaryDivisor(l={self.l}, "
                f"S={self.circle_part!r})")


def is_regular(D: BoundaryDivisor) -> bool:
    """True when the interior part has degree at least 2."""
    return D.l >= 2


def extend_phi(D: BoundaryDivisor, m: int) -> Divisor:
    """Extension of the critical-divisor map to a boundary divisor.

    Returns the closed-disk divisor ``Psi(Z_B) + S``: the free critical
    divisor of the product rebuilt from the interior free zeros with
    forced degree ``m``, plus the circle part passed through unchanged.
    For an interior part with no free zeros (in particular the identity)
    the interior contribution is empty.
    """
    m = _integer(m, "m", 1, "m must be a positive integer")
    free = D.interior_part.free_zeros
    if free.degree >= 1:
        ram = critical_divisor(from_zero_divisor(free, m)).free_ram
    else:
        ram = Divisor([], REGION_INTERIOR)
    return add(ram, D.circle_part)


def _escaper_factor(a: complex) -> complex:
    """Per-escaper limit factor ``-a (1 - conj(a))/(1 - a)``."""
    return -a * (1.0 - a.conjugate()) / (1.0 - a)


def zeta_limit(seq: Sequence[Divisor], escaping_target: complex = 1.0 + 0j,
               tol: float = 1e-6, window: int = 3,
               escape_radius: float = ESCAPE_RADIUS) -> Optional[complex]:
    """Unimodular limit factor of a degenerating zero-divisor sequence.

    For each term, multiplies the factors ``-a(1-conj(a))/(1-a)`` over
    the atoms within ``escape_radius`` of the escaping target and
    normalizes to unit modulus.  Returns the final estimate when the
    last ``window`` estimates agree within ``tol``; ``None`` otherwise.

    Raises
    ------
    PreconditionError
        If the final term has no atoms near the escaping target.
    """
    if len(seq) < window:
        return None
    target = complex(escaping_target)
    estimates: list[complex] = []
    for idx, D in enumerate(seq):
        w = 1.0 + 0j
        found = False
        for z, mult in D.atoms:
            if abs(z - target) <= escape_radius:
                found = True
                w *= _escaper_factor(z) ** mult
        if not found:
            if idx == len(seq) - 1:
                raise PreconditionError(
                    "no atoms escape toward the target in the final term")
            estimates.append(complex("nan"))
            continue
        estimates.append(w / abs(w))
    tail = estimates[-window:]
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            if not (abs(tail[i] - tail[j]) <= tol):
                return None
    return tail[-1]


#: Largest angular offset allowed between an escaper and its support
#: point; kept below the escape radius used by the limit procedure.
_ESCAPER_ANGLE_CAP = 0.2


def _escaper_angle(g: complex, r: float, n: int) -> float:
    """Angle ``beta`` so the escaper ``r e^{i beta}`` has limit factor
    ``g``, exactly when the root lies near 1.

    The lifted factor phase ``Psi(beta) = pi + beta - 2 arg(1 - r
    e^{i beta})`` is strictly monotone on [0, 2pi) (the argument stays
    in (-pi/2, pi/2) because ``Re(1 - r e^{i beta}) >= 1 - r > 0``), so
    bisection isolates the unique root.  When the root sits outside the
    angular cap — which happens exactly for targets near 1, whose true
    root migrates toward -1 — the angle falls back to the edge of the
    reachable window, ``min(cap, n^{-1/4})``, with a phase error of
    order ``n^{-3/4}`` that vanishes along the sequence.
    """

    def lifted(beta: float) -> float:
        return math.pi + beta - 2.0 * math.atan2(
            -r * math.sin(beta), 1.0 - r * math.cos(beta))

    target = math.pi + ((cmath.phase(g) - math.pi) % (2.0 * math.pi))
    lo, hi = 0.0, 2.0 * math.pi - 1e-12
    f_lo = lifted(lo) - target
    if f_lo == 0.0:
        beta = 0.0
    else:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if lifted(mid) - target <= 0.0:
                lo = mid
            else:
                hi = mid
        beta = 0.5 * (lo + hi)
    if beta > math.pi:
        beta -= 2.0 * math.pi
    if abs(beta) > _ESCAPER_ANGLE_CAP:
        beta = math.copysign(min(_ESCAPER_ANGLE_CAP, n ** -0.25), beta)
    return beta


def build_degenerate_sequence(D: BoundaryDivisor, zeta: complex,
                              n: int) -> Divisor:
    """The n-th term of a zero-divisor sequence converging to ``D``
    whose limit factor at 1 is ``zeta``.

    The ``nu = S(1)`` escapers sit at ``(1 - 1/n) e^{i beta_n}`` with
    ``beta_n`` solved so that the per-atom limit factor equals
    ``zeta^{1/nu}`` (exactly where attainable near 1, with an
    ``O(n^{-3/4})`` phase error for the tangential targets near 1
    itself); the remaining atoms are the free zeros of ``B`` and
    ``(1 - 1/n) q`` for the other support points ``q``.  For
    ``zeta = -1`` the escaper is ``1 - 1/n`` on the nose.  The result
    is the free zero divisor of the n-th approximating product.

    Raises
    ------
    PreconditionError
        If ``1`` is not in the support of ``S`` or ``|zeta| != 1``.
    """
    if n < 2:
        raise PreconditionError("sequence index must be at least 2")
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise PreconditionError("zeta must be unimodular")
    nu = D.circle_part.multiplicity(1.0 + 0j, tol=1e-9)
    if nu == 0:
        raise PreconditionError("1 is not in the support of S")
    # nu = 1 keeps zeta verbatim: rounding through exp(phase/1) would
    # tilt the exactly-radial zeta = -1 case off the real axis
    g = zeta if nu == 1 else cmath.exp(1j * cmath.phase(zeta) / nu)
    r = 1.0 - 1.0 / n
    beta = _escaper_angle(g, r, n)
    atoms: list[tuple[complex, int]] = [(r * cmath.exp(1j * beta), nu)]
    atoms.extend(D.interior_part.free_zeros.atoms)
    for q, mult in D.circle_part.atoms:
        if abs(q - 1.0) <= 1e-9:
            continue
        atoms.append(((1.0 - 1.0 / n) * q, mult))
    return Divisor(atoms, REGION_INTERIOR)


class DynrelResult:
    """Outcome of a dynamical-relation search.

    ``status`` is one of ``"detected"`` (with the witness ``l, q,
    q_prime``), ``"none_within_depth"`` (numerical search exhausted), or
    ``"exact"`` (absence verified in exact rational angle arithmetic).
    """

    def __init__(self, status: str, l: Optional[int] = None,
                 q: Optional[complex] = None,
                 q_prime: Optional[complex] = None,
                 depth: int = DEFAULT_DEPTH, tol: float = DEFAULT_TOL):
        self.status = status
        self.l = l
        self.q = q
        self.q_prime = q_prime
        self.depth = depth
        self.tol = tol

    @property
    def detected(self) -> bool:
        return self.status == "detected"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "l": self.l,
            "q": None if self.q is None else [self.q.real, self.q.imag],
            "q_prime": (None if self.q_prime is None
                        else [self.q_prime.real, self.q_prime.imag]),
            "depth": self.depth,
            "tol": self.tol,
        }

    def __repr__(self) -> str:
        if self.detected:
            return f"DynrelResult(detected, l={self.l})"
        return f"DynrelResult({self.status})"


def _angle_as_fraction(q: complex, tol: float,
                       max_den: int = 10000) -> Optional[Fraction]:
    """Exact rational angle (in turns) of a circle point, if one with a
    small denominator reproduces it within ``tol``."""
    theta = Fraction(cmath.phase(q) / (2.0 * math.pi)).limit_denominator(max_den)
    theta %= 1
    if abs(cmath.exp(2j * math.pi * float(theta)) - q / abs(q)) <= tol:
        return theta
    return None


def _exact_power_relation(l_deg: int, angles: list[Fraction],
                          points: list[complex], depth: int,
                          tol: float) -> Optional[DynrelResult]:
    """Exact relation search for the power map (angle multiplication by
    ``l_deg``); iterates each support angle until its orbit cycles."""
    index = {theta: i for i, theta in enumerate(angles)}
    for i, theta in enumerate(angles):
        seen = set()
        cur = theta
        j = 0
        while cur not in seen:
            seen.add(cur)
            cur = (cur * l_deg) % 1
            j += 1
            hit = index.get(cur)
            if hit is not None and hit != i:
                return DynrelResult("detected", j, points[i], points[hit],
                                    depth, tol)
    return DynrelResult("exact", depth=depth, tol=tol)


def _check_sweep(depth: int, tol: float) -> int:
    """``depth`` as an ``int``, rejecting an orbit depth that is not an
    integer of at least 1 and a tolerance that is not finite and
    positive, on which a sweep would answer without searching."""
    depth = _integer(depth, "depth", 1, "depth must be a positive integer")
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError("tol must be finite and positive")
    return depth


def has_dynamical_relation(D: BoundaryDivisor, depth: int = DEFAULT_DEPTH,
                           tol: float = DEFAULT_TOL) -> DynrelResult:
    """Search for distinct support points ``q, q'`` with ``B^l(q) = q'``.

    A support point returning to itself is not a relation.  For the
    power maps (no free zeros) with rational support angles the search
    is exact; otherwise it is a numerical orbit sweep up to ``depth`` at
    tolerance ``tol``, whose negative answer is only
    ``none_within_depth``.

    Raises
    ------
    PreconditionError
        For a singular divisor (``l < 2``): relations are defined on the
        regular stratum; for ``depth < 1``, or a ``tol`` that is not
        finite and positive.
    """
    depth = _check_sweep(depth, tol)
    if D.l < 2:
        raise PreconditionError(
            "dynamical relations are defined for regular divisors (l >= 2)")
    atoms = D.support_atoms()
    points = [z for z, _ in atoms]
    if len(points) <= 1:
        return DynrelResult("exact", depth=depth, tol=tol)
    if D.interior_part.e == 0:
        angles = [_angle_as_fraction(q, tol) for q in points]
        if all(a is not None for a in angles):
            return _exact_power_relation(D.l, angles, points, depth, tol)
    B = D.interior_part
    for i, q in enumerate(points):
        orbit = boundary_orbit(B, q, depth)
        for j in range(1, depth + 1):
            for k, q2 in enumerate(points):
                if k != i and abs(orbit[j] - q2) <= tol:
                    return DynrelResult("detected", j, q, q2, depth, tol)
    return DynrelResult("none_within_depth", depth=depth, tol=tol)


class OrbitMembership:
    """Membership verdict for the backward-orbit set test; ``status`` is
    ``"member"`` (with the hitting time ``j``), ``"exact_nonmember"``,
    or ``"not_within_depth"``."""

    def __init__(self, status: str, j: Optional[int] = None,
                 depth: int = DEFAULT_DEPTH, tol: float = DEFAULT_TOL):
        self.status = status
        self.j = j
        self.depth = depth
        self.tol = tol

    @property
    def member(self) -> bool:
        return self.status == "member"

    def __repr__(self) -> str:
        if self.member:
            return f"OrbitMembership(member, j={self.j})"
        return f"OrbitMembership({self.status})"


def in_E_zeta(D: BoundaryDivisor, zeta: complex, q: complex,
              depth: int = DEFAULT_DEPTH,
              tol: float = DEFAULT_TOL) -> OrbitMembership:
    """Test membership of ``q`` in the union of backward images of the
    support under ``z -> zeta * B(z)``.

    Membership in the backward union is equivalent to the forward orbit
    of ``q`` hitting the support, which is what gets checked, up to
    ``depth`` iterations at tolerance ``tol``.  For the power maps with
    rational angles (and rational ``zeta`` angle) absence is exact.

    Raises
    ------
    PreconditionError
        For a ``zeta`` off the circle, a ``q`` off the circle, ``depth <
        1``, or a ``tol`` that is not finite and positive.
    """
    depth = _check_sweep(depth, tol)
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise PreconditionError("zeta must be unimodular")
    q = complex(q)
    if abs(abs(q) - 1.0) > 1e-9:
        raise PreconditionError("q must be a circle point")
    points = [z for z, _ in D.support_atoms()]

    if D.interior_part.e == 0:
        angles = [_angle_as_fraction(s, tol) for s in points]
        qa = _angle_as_fraction(q, tol)
        za = _angle_as_fraction(zeta, tol)
        if (qa is not None and za is not None
                and all(a is not None for a in angles)
                and math.lcm(qa.denominator, za.denominator) <= 10 ** 6):
            # the whole orbit lives on fractions with this denominator,
            # so the cycle detection below terminates quickly
            support = set(angles)
            seen = set()
            cur = qa
            j = 0
            while cur not in seen:
                if cur in support:
                    return OrbitMembership("member", j, depth, tol)
                seen.add(cur)
                cur = (cur * D.l + za) % 1
                j += 1
            return OrbitMembership("exact_nonmember", depth=depth, tol=tol)

    B = D.interior_part
    w = q / abs(q)
    for j in range(depth + 1):
        if any(abs(w - s) <= tol for s in points):
            return OrbitMembership("member", j, depth, tol)
        w = zeta * B.eval(w)
        w /= abs(w)
    return OrbitMembership("not_within_depth", depth=depth, tol=tol)


class ClassificationReport:
    """Full classification of a boundary divisor.

    ``verdict`` is ``"TypeR"``, ``"TypeS"``, or ``"NoExtension"``;
    ``reason`` carries the epistemic status (a TypeR verdict resting on
    a numerical orbit sweep says so).  ``singular_value`` holds the
    symbolic map ``z+z^d`` attached to TypeS verdicts.
    """

    def __init__(self, regular: bool, simple: bool, one_in_support: bool,
                 dynrel: DynrelResult, verdict: str, reason: str,
                 singular_value: Optional[str]):
        self.regular = regular
        self.simple = simple
        self.one_in_support = one_in_support
        self.dynrel = dynrel
        self.verdict = verdict
        self.reason = reason
        self.singular_value = singular_value

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "simple": self.simple,
            "one_in_support": self.one_in_support,
            "dynrel": self.dynrel.to_json(),
            "verdict": self.verdict,
            "reason": self.reason,
            "singular_value": self.singular_value,
        }

    def __repr__(self) -> str:
        return f"ClassificationReport({self.verdict}, reason={self.reason!r})"


def classify(D: BoundaryDivisor, depth: int = DEFAULT_DEPTH,
             tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Decide which extension class a boundary divisor falls into.

    The regular stratum extends continuously exactly when the circle
    part is simple, avoids 1, and carries no dynamical relation; the
    singular stratum (identity interior part) extends exactly when the
    circle part is simple and avoids 1, and there the extension is the
    constant symbolic map ``z + z^d``.
    """
    depth = _check_sweep(depth, tol)
    S = D.circle_part
    if S.degree < 1:
        raise PreconditionError("classification needs a nonempty circle part")
    regular = is_regular(D)
    simple = is_simple(S)
    one_in = any(abs(z - 1.0) <= tol for z, _ in S.atoms)
    if regular:
        dynrel = has_dynamical_relation(D, depth, tol)
    else:
        dynrel = DynrelResult("exact", depth=depth, tol=tol)

    singular_value = None
    if not simple:
        verdict, reason = "NoExtension", "S is not simple"
    elif one_in:
        verdict, reason = "NoExtension", "1 lies in supp(S)"
    elif regular and dynrel.detected:
        verdict = "NoExtension"
        reason = (f"dynamical relation detected: B^{dynrel.l} sends a "
                  f"support point to another")
    elif regular:
        verdict = "TypeR"
        if dynrel.status == "none_within_depth":
            reason = (f"numerically supported: no dynamical relation within "
                      f"depth {depth} at tol {tol:g}")
        else:
            reason = "no dynamical relation (exact)"
    else:
        verdict = "TypeS"
        singular_value = f"z+z^{D.total_degree}"
        reason = "singular with simple circle part avoiding 1"
    return ClassificationReport(regular, simple, one_in, dynrel, verdict,
                                reason, singular_value)


def boundary_to_json(D: BoundaryDivisor) -> dict:
    """JSON-ready dict: ``{"m", "zeros", "support"}``."""
    return {
        "m": D.interior_part.m,
        "zeros": divisor_to_json(D.interior_part.free_zeros),
        "support": divisor_to_json(D.circle_part),
    }


def boundary_from_json(obj: object) -> BoundaryDivisor:
    """Parse ``{"m": int, "zeros": divisor, "support": divisor}``; the
    zeros key may be omitted for an identity (or pure power) interior
    part, the support key for the interior control case."""
    if not isinstance(obj, dict):
        raise SchemaError(f"cannot parse boundary divisor {obj!r}")
    extra = set(obj) - {"m", "zeros", "support"}
    if extra:
        raise SchemaError(f"unknown boundary divisor keys {sorted(extra)}")
    m = _int(obj.get("m", 1))
    if m < 1:
        raise SchemaError("m must be a positive integer")
    zeros = divisor_from_json(obj.get("zeros", []),
                              default_region=REGION_INTERIOR)
    support = divisor_from_json(obj.get("support", []),
                                default_region=REGION_CIRCLE)
    try:
        interior = BlaschkeProduct(zeros, m)
        return BoundaryDivisor(interior, support)
    except PreconditionError as exc:
        raise SchemaError(str(exc)) from exc
