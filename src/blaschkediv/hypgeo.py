"""Hyperbolic geometry on the unit disk.

Distance, hyperbolic circles, and convex-hull containment.  Hull tests
go through the Klein model, where geodesics are straight chords, so
containment reduces to a planar convex-polygon test.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

from .errors import PreconditionError

#: Points with modulus at or above 1 - INTERIOR_MARGIN are rejected as
#: interior points; circle points are a separate semantic type handled
#: by the divisor module.
INTERIOR_MARGIN = 1e-14

__all__ = [
    "INTERIOR_MARGIN",
    "HypDisk",
    "hyp_dist",
    "klein_embed",
    "hull_contains",
    "hyp_circle",
]


def _require_interior(z: complex, name: str) -> complex:
    z = complex(z)
    if abs(z) >= 1.0 - INTERIOR_MARGIN:
        raise PreconditionError(
            f"{name} must lie strictly inside the unit disk "
            f"(|{name}| = {abs(z):.17g})"
        )
    return z


class HypDisk:
    """A hyperbolic disk, stored with its Euclidean realization.

    Parameters
    ----------
    center : complex
        Hyperbolic center, strictly inside the unit disk.
    radius : float
        Hyperbolic radius (nonnegative).

    Attributes
    ----------
    euclid_center : complex
        Center of the Euclidean circle realizing the boundary.
    euclid_radius : float
        Euclidean radius of that circle; 0 exactly when ``radius`` is 0.
    """

    def __init__(self, center: complex, radius: float):
        center = _require_interior(center, "center")
        if radius < 0:
            raise PreconditionError("hyperbolic radius must be nonnegative")
        self.center = center
        self.radius = float(radius)
        rho = math.tanh(radius / 2.0)  # (e^L - 1)/(e^L + 1)
        cc = abs(center) ** 2
        denom = 1.0 - rho * rho * cc
        self.euclid_center = center * (1.0 - rho * rho) / denom
        self.euclid_radius = rho * (1.0 - cc) / denom

    def boundary_point(self, angle: float) -> complex:
        """Point of the boundary circle: image of ``rho*e^{i*angle}``
        under the disk automorphism sending 0 to the center."""
        rho = math.tanh(self.radius / 2.0)
        w = rho * cmath.exp(1j * angle)
        return (w + self.center) / (1.0 + self.center.conjugate() * w)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HypDisk(center={self.center!r}, radius={self.radius!r})"


def hyp_dist(a: complex, b: complex) -> float:
    """Hyperbolic distance between two interior points of the disk.

    Parameters
    ----------
    a, b : complex
        Points with ``|a|, |b| < 1``.

    Returns
    -------
    float
        ``log((1+r)/(1-r))`` with ``r = |(a-b)/(1-conj(a)*b)|``.
        Symmetric, and zero exactly when ``a == b``.

    Raises
    ------
    PreconditionError
        If either point has modulus at or beyond the interior margin.
    """
    a = _require_interior(a, "a")
    b = _require_interior(b, "b")
    r = abs((a - b) / (1.0 - a.conjugate() * b))
    return math.log((1.0 + r) / (1.0 - r))


def klein_embed(z: complex) -> complex:
    """Map a disk point into the Klein model: ``z -> 2z/(1+|z|^2)``.

    The map is a monotone radial bijection of the disk fixing arguments;
    hyperbolic geodesics become straight chords, which is what makes the
    planar hull test below correct.
    """
    z = _require_interior(z, "z")
    return 2.0 * z / (1.0 + abs(z) ** 2)


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain convex hull; returns vertices counterclockwise.

    Collinear input degenerates to the extreme pair; a single point
    stays a single point.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segment_distance(p: tuple[float, float], a: tuple[float, float],
                      b: tuple[float, float]) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / seg2))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _hull_distance(p: tuple[float, float],
                   hull: list[tuple[float, float]]) -> float:
    """Euclidean distance from a point to a convex polygon (0 inside)."""
    if len(hull) == 1:
        return math.hypot(p[0] - hull[0][0], p[1] - hull[0][1])
    if len(hull) == 2:
        return _segment_distance(p, hull[0], hull[1])
    inside = True
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cr < 0.0:
            inside = False
            break
    if inside:
        return 0.0
    return min(_segment_distance(p, hull[i], hull[(i + 1) % len(hull)])
               for i in range(len(hull)))


def _hull_contains_all(generators: list[complex], targets: Iterable[complex],
                       tol: float) -> bool:
    """True when every target passes the :func:`hull_contains` test.

    The generators are embedded and their hull is built once for all
    targets.  Targets are embedded one at a time and the test stops at
    the first one outside, as a chain of :func:`hull_contains` calls
    would.
    """
    if not math.isfinite(tol):
        raise PreconditionError("hull tolerance must be finite")
    if not generators:
        raise PreconditionError("hull_contains needs at least one generator")
    hull = _convex_hull([(k.real, k.imag)
                         for k in map(klein_embed, generators)])
    for p in targets:
        kp = klein_embed(p)
        if not _hull_distance((kp.real, kp.imag), hull) <= tol:
            return False
    return True


def hull_contains(generators: list[complex], p: complex,
                  tol: float = 1e-9) -> bool:
    """Test membership of ``p`` in the hyperbolic convex hull of the
    generators.

    Parameters
    ----------
    generators : list of complex
        Interior points spanning the hull (repetitions allowed, they do
        not change the hull).
    p : complex
        Interior point to test.
    tol : float
        Additive Euclidean inflation of the hull in the Klein chart.
        The default 1e-9 absorbs root-finder noise, which is Euclidean.
        It must be finite: a NaN would fail every point and an infinite
        one pass every one.

    Returns
    -------
    bool
        True when the Klein image of ``p`` is within ``tol`` of the
        Euclidean convex hull of the Klein images of the generators.

    Raises
    ------
    PreconditionError
        If there are no generators, ``tol`` is NaN or infinite, or a
        point is not interior.
    """
    return _hull_contains_all(generators, (p,), tol)


def hyp_circle(center: complex, L: float) -> HypDisk:
    """Hyperbolic circle of radius ``L`` around ``center``.

    Returns the :class:`HypDisk` carrying the Euclidean parameters of
    ``{z : hyp_dist(center, z) = L}``; for ``L = 0`` the circle
    degenerates to the center point.
    """
    return HypDisk(center, L)
