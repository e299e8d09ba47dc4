"""Integral divisors on the disk, the circle, and the closed disk.

A divisor is a finite formal sum of points with positive integer
multiplicities.  Divisors are the data model for zero sets, critical
sets, and escaped boundary mass throughout the package; the matching
(bottleneck) distance below metricizes the convergence notion used by
all the limit procedures.
"""

from __future__ import annotations

import json
import math
import cmath
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import AmbiguousModulusError, PreconditionError, SchemaError

#: Two atoms closer than this merge into one atom with summed
#: multiplicity at their multiplicity-weighted centroid.
MERGE_TOL = 1e-10

#: Moduli within this of 1 count as lying on the circle.
CIRCLE_TOL = 1e-12

#: The half-open modulus band [1 - AMBIG_OUTER, 1 - AMBIG_INNER) where
#: interior vs circle classification is refused rather than guessed.
AMBIG_OUTER = 1e-8
AMBIG_INNER = 1e-12

REGION_INTERIOR = "interior"
REGION_CIRCLE = "circle"
REGION_CLOSED = "closed"
_REGIONS = (REGION_INTERIOR, REGION_CIRCLE, REGION_CLOSED)

__all__ = [
    "MERGE_TOL",
    "CIRCLE_TOL",
    "Divisor",
    "degree",
    "is_simple",
    "add",
    "matching_distance",
    "split_boundary",
    "sequence_limit",
    "divisor_to_json",
    "divisor_from_json",
]


def _merge_atoms(atoms: Iterable[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """Cluster atoms at MERGE_TOL and return multiplicity-weighted
    centroids (a lone atom's own point), canonically sorted: when no
    neighbours in (re, im) order are within MERGE_TOL in the real part,
    no two atoms are within MERGE_TOL, and the sorted atoms are the
    answer; otherwise ``_sweep_merge`` clusters them."""
    # (re, im, input index, point, multiplicity): the index breaks ties
    # as a stable sort by (re, im) would
    keyed = []
    for i, (z, m) in enumerate(atoms):
        z, m = complex(z), int(m)
        if m <= 0:
            raise PreconditionError("multiplicities must be positive integers")
        keyed.append((z.real, z.imag, i, z, m))
    keyed.sort()
    for left, right in zip(keyed, keyed[1:]):
        if right[0] - left[0] <= MERGE_TOL:
            return _sweep_merge(keyed)
    return [(z, m) for _, _, _, z, m in keyed]


def _sweep_merge(keyed: list[tuple]) -> list[tuple[complex, int]]:
    """The transitive clusters at MERGE_TOL of atoms sorted by real part
    (as ``_merge_atoms`` keys them), by a sweep: each atom is joined to
    the later ones of its real-part window that lie within MERGE_TOL
    (the real part of ``z_j - z_i`` bounds its modulus from below, and
    grows along the order).  A cluster of several atoms sums its
    centroid in input order."""
    n = len(keyed)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        j = i + 1
        while j < n and keyed[j][0] - keyed[i][0] <= MERGE_TOL:
            if abs(keyed[j][3] - keyed[i][3]) <= MERGE_TOL:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
            j += 1
    clusters: dict[int, list[tuple[int, complex, int]]] = {}
    for s, (_, _, i, z, m) in enumerate(keyed):
        clusters.setdefault(find(s), []).append((i, z, m))
    merged = []
    for members in clusters.values():
        members.sort()
        first, z, total = members[0]
        if len(members) > 1:
            total = sum(m for _, _, m in members)
            z = sum(w * m for _, w, m in members) / total
        merged.append((first, z, total))
    # equal centroids in the order of the clusters' first atoms, as a
    # stable sort of the clusters in input order gives
    merged.sort(key=lambda t: (t[1].real, t[1].imag, t[0]))
    return [(z, m) for _, z, m in merged]


def _in_region(atoms: Iterable[tuple[complex, int]],
               region: str) -> tuple[tuple[complex, int], ...]:
    """The atoms as a tuple, once each lies in the region."""
    if region not in _REGIONS:
        raise PreconditionError(f"unknown region {region!r}")
    atoms = tuple(atoms)
    for z, _ in atoms:
        r = abs(z)
        # negated tests, so that a NaN modulus (from a NaN atom, or an
        # infinite one turned NaN by the merge centroid) fails them
        if region == REGION_INTERIOR and not r < 1.0:
            raise PreconditionError(
                f"interior divisor atom with |z| = {r:.17g} >= 1")
        if region == REGION_CIRCLE and not abs(r - 1.0) <= CIRCLE_TOL:
            raise PreconditionError(
                f"circle divisor atom with |z| = {r:.17g} off the circle")
        if region == REGION_CLOSED and not r <= 1.0 + CIRCLE_TOL:
            raise PreconditionError(
                f"closed-disk divisor atom with |z| = {r:.17g} > 1")
    return atoms


class Divisor:
    """An integral divisor: atoms ``(point, multiplicity)`` over a region.

    Parameters
    ----------
    atoms : iterable of (complex, int)
        Points with positive multiplicities.  Atoms within the merge
        tolerance collapse into one atom with summed multiplicity.
    region : str
        One of ``"interior"`` (all ``|z| < 1``), ``"circle"``
        (all ``||z|-1| <= 1e-12``), or ``"closed"``
        (all ``|z| <= 1 + 1e-12``).

    Notes
    -----
    Divisors are immutable value objects; the empty divisor (degree 0)
    is allowed and behaves as the additive identity.

    The merge is a sort and sweep: the atoms are sorted once by (re,
    im), and when no neighbours in that order are within ``MERGE_TOL``
    in the real part, the sorted atoms are the atoms of the divisor.
    Otherwise each atom is compared only with the later ones of its
    real-part window, and the transitive clusters of the pairs within
    ``MERGE_TOL`` become atoms at their multiplicity-weighted centroids
    (summed in input order; a lone atom keeps its point), as an
    all-pairs clustering would give.
    """

    def __init__(self, atoms: Iterable[tuple[complex, int]],
                 region: str = REGION_CLOSED):
        self._atoms = _in_region(_merge_atoms(atoms), region)
        self._region = region

    @property
    def atoms(self) -> tuple[tuple[complex, int], ...]:
        return self._atoms

    @property
    def region(self) -> str:
        return self._region

    @property
    def degree(self) -> int:
        return sum(m for _, m in self._atoms)

    @property
    def support(self) -> tuple[complex, ...]:
        return tuple(z for z, _ in self._atoms)

    def multiplicity(self, q: complex, tol: float = MERGE_TOL) -> int:
        """Multiplicity of the atom within ``tol`` of ``q`` (0 if none)."""
        for z, m in self._atoms:
            if abs(z - q) <= tol:
                return m
        return 0

    def points(self) -> list[complex]:
        """Multiset expansion: each atom repeated by its multiplicity."""
        out: list[complex] = []
        for z, m in self._atoms:
            out.extend([z] * m)
        return out

    def with_region(self, region: str) -> "Divisor":
        """Same atoms, revalidated under another region tag.  They are
        merged and sorted already, so only the region checks run, and the
        points are kept bit for bit (a merge would divide ``z*m`` by ``m``
        again)."""
        D = Divisor.__new__(Divisor)
        D._atoms, D._region = _in_region(self._atoms, region), region
        return D

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Divisor) and self._region == other._region
                and self._atoms == other._atoms)

    def __hash__(self) -> int:
        return hash((self._region, self._atoms))

    def __repr__(self) -> str:
        body = " + ".join(f"{m}*({z.real:.6g}{z.imag:+.6g}j)"
                          for z, m in self._atoms) or "0"
        return f"Divisor({body}, region={self._region})"


def degree(D: Divisor) -> int:
    """Total multiplicity of the divisor."""
    return D.degree


def is_simple(D: Divisor) -> bool:
    """True when every multiplicity equals 1."""
    return all(m == 1 for _, m in D.atoms)


def add(D1: Divisor, D2: Divisor) -> Divisor:
    """Formal sum of two divisors.

    The result region is the common region when both agree and
    ``"closed"`` for mixed inputs; atoms within the merge tolerance
    collapse as usual.
    """
    region = D1.region if D1.region == D2.region else REGION_CLOSED
    return Divisor(list(D1.atoms) + list(D2.atoms), region)


def matching_distance(D1: Divisor, D2: Divisor) -> float:
    """Bottleneck matching distance between equal-degree divisors.

    Parameters
    ----------
    D1, D2 : Divisor
        Divisors of the same degree (regions may differ).

    Returns
    -------
    float
        Minimum over bijections of the multiset expansions of the
        maximum pointwise displacement.  Zero exactly when the divisors
        coincide as multisets.  The value is an entry of the distance
        matrix of the two expansions.

    Raises
    ------
    PreconditionError
        On degree mismatch.

    Notes
    -----
    Every point must be matched, so the answer is at least the largest
    row or column minimum of the distance matrix.  When the rows'
    nearest columns are all distinct, they form a matching whose
    bottleneck is the largest row minimum, and each column minimum is
    at most that; so the lower bound is met and is returned at once,
    the same float the search below returns, as it tests the bound
    first.  Otherwise (ties and repeated points make rows share a
    nearest column) the radii at or above the lower bound are bisected,
    the bound itself first.  A radius is feasible when the edges no
    longer than it carry a perfect matching, found by Kuhn's augmenting
    paths (Kuhn, Naval Res. Logist. Q. 2, 1955).  Each probe gives up at
    the first row that cannot be augmented: were there a perfect
    matching, its symmetric difference with the current one would hold
    an augmenting path from that row.
    """
    if D1.degree != D2.degree:
        raise PreconditionError(
            f"matching_distance needs equal degrees "
            f"({D1.degree} vs {D2.degree})")
    a = D1.points()
    b = D2.points()
    n = len(a)
    if n == 0:
        return 0.0
    dist = np.abs(np.subtract.outer(np.asarray(a, dtype=complex),
                                    np.asarray(b, dtype=complex)))
    nearest = dist.argmin(axis=1)
    lb = dist[np.arange(n), nearest].max()
    if len(set(nearest.tolist())) == n:
        return float(lb)
    lb = max(lb, dist.min(axis=0).max())
    radii = np.unique(dist[dist >= lb])
    order = np.argsort(dist, axis=1, kind="stable").tolist()

    def feasible(r: float) -> bool:
        counts = np.count_nonzero(dist <= r, axis=1).tolist()
        adj = [order[i][:counts[i]] for i in range(n)]
        row_of = [-1] * n

        def augment(i: int, seen: list[bool]) -> bool:
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    if row_of[j] < 0 or augment(row_of[j], seen):
                        row_of[j] = i
                        return True
            return False

        return all(augment(i, [False] * n) for i in range(n))

    lo, hi = 0, len(radii) - 1
    if feasible(radii[0]):
        return float(radii[0])
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if feasible(radii[mid]):
            hi = mid
        else:
            lo = mid
    return float(radii[hi])


def split_boundary(D: Divisor) -> tuple[Divisor, Divisor]:
    """Partition a divisor into its interior and circle parts.

    Returns
    -------
    (interior, circle) : tuple of Divisor
        Atoms with ``|z| >= 1 - 1e-12`` go to the circle part, atoms
        with ``|z| < 1 - 1e-8`` to the interior part; degrees add up to
        ``degree(D)`` and points pass through unchanged.

    Raises
    ------
    AmbiguousModulusError
        For any atom with modulus in the band ``[1-1e-8, 1-1e-12)``,
        where the interior/circle split would be a silent guess.
    """
    inner: list[tuple[complex, int]] = []
    outer: list[tuple[complex, int]] = []
    for z, m in D.atoms:
        r = abs(z)
        if r >= 1.0 - AMBIG_INNER:
            outer.append((z, m))
        elif r >= 1.0 - AMBIG_OUTER:
            raise AmbiguousModulusError(
                f"atom at |z| = {r:.17g} falls in the ambiguous modulus band")
        else:
            inner.append((z, m))
    return (Divisor(inner, REGION_INTERIOR), Divisor(outer, REGION_CIRCLE))


def sequence_limit(seq: Sequence[Divisor], tol: float = 1e-6,
                   window: int = 3) -> Optional[Divisor]:
    """Limit of a divisor sequence, if its tail has stabilized.

    Parameters
    ----------
    seq : sequence of Divisor
        Equal-degree divisors.
    tol : float
        Stabilization tolerance in matching distance; atoms of the
        representative within ``tol`` of the circle snap onto it.  It
        must be finite: every test against NaN fails, so a NaN would
        declare every sequence converged, and an infinite one would
        snap every nonzero atom onto the circle.
    window : int
        Number of trailing terms that must agree pairwise within ``tol``.

    Returns
    -------
    Divisor or None
        The last term, snapped to the closed disk, when the last
        ``window`` terms are pairwise within ``tol``; ``None`` when the
        sequence has not converged.

    Raises
    ------
    PreconditionError
        If ``window < 2``, ``tol`` is NaN or infinite, or the terms
        differ in degree.
    """
    if not math.isfinite(tol):
        raise PreconditionError("sequence_limit needs a finite tol")
    if window < 2:
        raise PreconditionError("window must be at least 2")
    if len(seq) < window:
        return None
    degrees = {D.degree for D in seq}
    if len(degrees) > 1:
        raise PreconditionError("sequence_limit needs equal-degree terms")
    tail = seq[-window:]
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            if matching_distance(tail[i], tail[j]) > tol:
                return None
    snapped = []
    for z, m in seq[-1].atoms:
        r = abs(z)
        if r >= 1.0 - tol and r > 0:
            z = z / r
        snapped.append((z, m))
    return Divisor(snapped, REGION_CLOSED)


def divisor_to_json(D: Divisor) -> dict:
    """JSON-ready dict: ``{"region": ..., "atoms": [{"re","im","mult"}]}``."""
    return {
        "region": D.region,
        "atoms": [{"re": z.real, "im": z.imag, "mult": m} for z, m in D.atoms],
    }


def _angle_turns_point(value: object) -> complex:
    """Circle point from an angle in turns: a number or an exact
    ``"num/den"`` string."""
    if isinstance(value, str):
        try:
            theta = float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"invalid angle fraction {value!r}") from exc
    elif isinstance(value, (int, float)):
        theta = float(value)
    else:
        raise SchemaError(f"cannot parse angle {value!r}")
    return cmath.exp(2j * math.pi * theta)


def _coordinate(value: object) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(
            f"atom coordinate must be a number, got {value!r}") from exc


def _int(value: object) -> int:
    """A JSON number with an integral value: ``2.0`` reads as 2, while
    ``true``, ``2.5`` and strings are schema errors."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or isinstance(value, bool):
        raise SchemaError(f"expected an integer, got {value!r}")
    return n


def _atom_from_json(obj: object) -> tuple[complex, int]:
    if isinstance(obj, (int, float)):
        return complex(_coordinate(obj)), 1
    if isinstance(obj, str):
        return _angle_turns_point(obj), 1
    if isinstance(obj, list):
        if len(obj) != 2:
            raise SchemaError(f"atom list must be [re, im], got {obj!r}")
        return complex(_coordinate(obj[0]), _coordinate(obj[1])), 1
    if isinstance(obj, dict):
        mult = _int(obj.get("mult", 1))
        if mult <= 0:
            raise SchemaError(f"atom mult must be a positive integer: {obj!r}")
        if "angle_turns" in obj:
            extra = set(obj) - {"angle_turns", "mult"}
            if extra:
                raise SchemaError(f"unknown atom keys {sorted(extra)}")
            return _angle_turns_point(obj["angle_turns"]), mult
        extra = set(obj) - {"re", "im", "mult"}
        if extra:
            raise SchemaError(f"unknown atom keys {sorted(extra)}")
        if "re" not in obj or "im" not in obj:
            raise SchemaError(f"atom needs re and im (or angle_turns): {obj!r}")
        return complex(_coordinate(obj["re"]), _coordinate(obj["im"])), mult
    raise SchemaError(f"cannot parse atom {obj!r}")


def divisor_from_json(obj: object, default_region: str = REGION_CLOSED) -> Divisor:
    """Parse the divisor schema.

    Accepts either the full ``{"region": ..., "atoms": [...]}`` object or
    a bare list of atoms (region defaulting to ``default_region``).
    Atoms may be numbers, ``[re, im]`` pairs, ``{"re","im","mult"}``
    objects, or circle atoms given by their angle in turns, either as
    ``{"angle_turns","mult"}`` or as a bare ``"num/den"`` string.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if isinstance(obj, list):
        atoms = [_atom_from_json(a) for a in obj]
        try:
            return Divisor(atoms, default_region)
        except PreconditionError as exc:
            raise SchemaError(str(exc)) from exc
    if isinstance(obj, dict):
        extra = set(obj) - {"region", "atoms"}
        if extra:
            raise SchemaError(f"unknown divisor keys {sorted(extra)}")
        region = obj.get("region", default_region)
        if region not in _REGIONS:
            raise SchemaError(f"unknown region {region!r}")
        atoms = [_atom_from_json(a) for a in obj.get("atoms", [])]
        try:
            return Divisor(atoms, region)
        except PreconditionError as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"cannot parse divisor {obj!r}")
