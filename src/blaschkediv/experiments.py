"""Reproducible numerical experiments on the boundary behavior of the
divisor maps: neighborhood sweeps for the extension's continuity, the
orbit-continuity check through the critical point near an escaped zero,
a solver that prescribes the hyperbolic distance realized along such an
orbit, and the multiplier limit at the origin.

Every procedure is deterministic under a fixed seed and returns
JSON-ready report dicts; thresholds live in the test suite, not here.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence

import numpy as np

from .blaschke import (BlaschkeProduct, _critical_divisors,
                       _one_zero_critical, _sums, boundary_orbit,
                       critical_divisor, from_zero_divisor,
                       multiplier_at_zero)
from .boundary import BoundaryDivisor, extend_phi
from .divisor import (Divisor, REGION_INTERIOR, add, divisor_to_json,
                      is_simple, matching_distance)
from .errors import NumericalError, PreconditionError, _integer
from .hypgeo import HypDisk, hyp_dist

__all__ = [
    "SweepConfig",
    "SolveCertificate",
    "sample_neighborhood",
    "verify_extension_convergence",
    "verify_cont_orbit",
    "prescribe_distance",
    "multiplier_limit_check",
]


class SweepConfig:
    """Configuration of a neighborhood sweep.

    Parameters
    ----------
    epsilons : sequence of float
        Strictly decreasing neighborhood radii, finite and positive.
    samples_per_epsilon : int
        Random samples drawn at each radius, at least 1.
    rng_seed : int
        Nonnegative seed; identical seeds give bit-identical reports.
    tolerances : dict, optional
        Named tolerance overrides for consumers.
    """

    def __init__(self, epsilons: Sequence[float], samples_per_epsilon: int,
                 rng_seed: int, tolerances: Optional[dict] = None):
        eps = [float(e) for e in epsilons]
        if not all(math.isfinite(e) and e > 0 for e in eps):
            raise PreconditionError("epsilons must be finite and positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise PreconditionError("epsilons must be strictly decreasing")
        self.epsilons = eps
        self.samples_per_epsilon = _integer(samples_per_epsilon,
                                            "samples_per_epsilon", 1)
        self.rng_seed = _integer(rng_seed, "rng_seed", 0)
        self.tolerances = dict(tolerances or {})

    def to_json(self) -> dict:
        return {
            "epsilons": self.epsilons,
            "samples_per_epsilon": self.samples_per_epsilon,
            "rng_seed": self.rng_seed,
            "tolerances": self.tolerances,
        }


class SolveCertificate:
    """Outcome of a prescribed-distance solve.

    Attributes
    ----------
    target_L, achieved, residual : float
        Requested hyperbolic distance, the distance actually realized,
        and ``|achieved - target_L|``.
    result_divisor : Divisor
        The free zero divisor of the solved product (rebuild it with the
        certificate's ``m`` to re-verify).
    iterations : int
        Evaluations of ``h`` spent by the solver: guarded full ones
        (product rebuilt, all critical points found) plus tracked ones
        (one critical point refined by Newton).
    """

    def __init__(self, target_L: float, achieved: float,
                 result_divisor: Divisor, iterations: int, m: int,
                 zero_near_target: complex, orbit_value: complex):
        self.target_L = float(target_L)
        self.achieved = float(achieved)
        self.residual = abs(self.achieved - self.target_L)
        self.result_divisor = result_divisor
        self.iterations = int(iterations)
        self.m = int(m)
        self.zero_near_target = complex(zero_near_target)
        self.orbit_value = complex(orbit_value)

    def to_json(self) -> dict:
        return {
            "target_L": self.target_L,
            "achieved": self.achieved,
            "residual": self.residual,
            "iterations": self.iterations,
            "m": self.m,
            "zero_near_target": [self.zero_near_target.real,
                                 self.zero_near_target.imag],
            "orbit_value": [self.orbit_value.real, self.orbit_value.imag],
            "result_divisor": divisor_to_json(self.result_divisor),
        }

    def __repr__(self) -> str:
        return (f"SolveCertificate(L={self.target_L}, "
                f"achieved={self.achieved:.12g}, "
                f"residual={self.residual:.3g})")


def sample_neighborhood(D: BoundaryDivisor, m: int, eps: float,
                        rng: np.random.Generator) -> Divisor:
    """Random interior divisor with every atom of the expanded
    ``Z_B + S`` moved uniformly within ``eps`` (intersected with the
    open disk).

    ``m`` is carried along for the consumers that rebuild products from
    the sample; the sampling itself does not depend on it.  Points are
    drawn from the eps-disk about the atom until one lands in the open
    disk, except for ``eps >= 2``: then every point of the open disk lies
    within ``eps`` of every atom of the closed disk, so they are drawn
    from the disk itself instead of about one draw in ``eps**2``.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise PreconditionError("eps must be finite and positive")
    _integer(m, "m", 1, "m must be a positive integer")
    base = (D.interior_part.free_zeros.points()
            + D.circle_part.points())
    atoms = []
    for a in base:
        center, radius = (0j, 1.0) if eps >= 2.0 else (a, eps)
        while True:
            r = radius * math.sqrt(rng.random())
            phi = 2.0 * math.pi * rng.random()
            b = center + r * complex(math.cos(phi), math.sin(phi))
            if abs(b) < 1.0 - 1e-12:
                atoms.append((b, 1))
                break
    return Divisor(atoms, REGION_INTERIOR)


def _projected(D: Divisor, radius: float = 0.9) -> Divisor:
    """Diagnostic projection: atoms beyond ``radius`` move radially onto
    the circle, isolating the angular part of a matching error."""
    atoms = []
    for z, mult in D.atoms:
        if abs(z) >= radius:
            z = z / abs(z)
        atoms.append((z, mult))
    return Divisor(atoms, "closed")


def verify_extension_convergence(D: BoundaryDivisor, m: int,
                                 cfg: SweepConfig) -> dict:
    """Sweep shrinking neighborhoods of ``D`` and measure how far the
    critical divisors of the samples sit from the extended image.

    For each epsilon, draws ``cfg.samples_per_epsilon`` zero divisors
    from the epsilon-neighborhood, maps them through the critical-divisor
    map together (one stacked forward map, ``_critical_divisors``, which
    gives each sample the points a solo ``critical_divisor`` call would),
    and records the bottleneck matching distance of each image to
    ``extend_phi(D, m)`` (raw Euclidean, closed-disk).  The report also
    carries a radially projected variant of the distance as an angular
    diagnostic, and counts solver failures instead of hiding them.
    """
    m = _integer(m, "m", 1, "m must be a positive integer")
    rng = np.random.default_rng(cfg.rng_seed)
    target = extend_phi(D, m)
    target_projected = _projected(target)
    profile = []
    for eps in cfg.epsilons:
        products = [from_zero_divisor(sample_neighborhood(D, m, eps, rng), m)
                    for _ in range(cfg.samples_per_epsilon)]
        dists = []
        projected = []
        failures = 0
        for result in _critical_divisors(products):
            if isinstance(result, NumericalError):
                failures += 1
                continue
            if isinstance(result, Exception):
                raise result
            closed = result.free_ram.with_region("closed")
            dists.append(matching_distance(closed, target))
            projected.append(matching_distance(_projected(closed),
                                               target_projected))
        profile.append({
            "epsilon": eps,
            "max_distance": max(dists) if dists else float("nan"),
            "mean_distance": (sum(dists) / len(dists)) if dists else
                             float("nan"),
            "projected_max": max(projected) if projected else float("nan"),
            "failures": failures,
        })
    return {
        "config": cfg.to_json(),
        "m": m,
        "target": divisor_to_json(target),
        "profile": profile,
    }


def _critical_point_near(B: BlaschkeProduct, q: complex) -> complex:
    """The critical point of ``B`` nearest to ``q``, guarded against
    ambiguity (second-nearest within twice the nearest distance)."""
    pts = critical_divisor(B).free_ram.points()
    dists = sorted((abs(c - q), c) for c in pts)
    if len(dists) >= 2 and dists[1][0] < 2.0 * dists[0][0]:
        raise NumericalError(
            f"critical point near {q!r} is ambiguous: distances "
            f"{dists[0][0]:.3g} and {dists[1][0]:.3g}")
    return dists[0][1]


def _orbits_near(products: list[BlaschkeProduct], q: complex,
                 l: int) -> list:
    """For each product ``B`` the critical point ``c`` of ``B`` near
    ``q`` (guarded as in ``_critical_point_near``) and its image
    ``B^l(c)``, or the ``PreconditionError`` or ``NumericalError`` that
    stopped it.  One stacked forward map solves them all and stores each
    critical divisor on its product, where ``_critical_point_near``
    reads it."""
    out: list = []
    for B, result in zip(products, _critical_divisors(products)):
        if isinstance(result, Exception):
            out.append(result)
            continue
        try:
            c = w = _critical_point_near(B, q)
            for _ in range(l):
                w = B.eval(w)
        except NumericalError as exc:
            out.append(exc)
            continue
        out.append((c, w))
    return out


def _check_orbit_preconditions(D: BoundaryDivisor, q: complex, l: int,
                               tol: float = 1e-9) -> complex:
    """Check that ``S`` is simple, misses 1 and holds ``q``, and that no
    intermediate iterate of ``q`` lands on it; return ``B^l(q)``."""
    S = D.circle_part
    if not is_simple(S):
        raise PreconditionError("the circle part must be simple")
    if any(abs(z - 1.0) <= tol for z, _ in S.atoms):
        raise PreconditionError("1 must stay outside supp(S)")
    if S.multiplicity(q, tol=1e-9) == 0:
        raise PreconditionError("q must be a support point")
    orbit = boundary_orbit(D.interior_part, q, l)
    for k in range(1, l):
        if any(abs(orbit[k] - z) <= tol for z, _ in S.atoms):
            raise PreconditionError(
                f"intermediate iterate {k} lands on supp(S)")
    return orbit[l]


def _radial_approach(D: BoundaryDivisor, n: int) -> Divisor:
    """Zero divisor of the canonical n-th approximant: free zeros of the
    interior part plus ``(1 - 1/n) q`` for every support atom."""
    atoms = list(D.interior_part.free_zeros.atoms)
    for q, mult in D.circle_part.atoms:
        atoms.append(((1.0 - 1.0 / n) * q, mult))
    return Divisor(atoms, REGION_INTERIOR)


def verify_cont_orbit(D: BoundaryDivisor, q: complex, l: int,
                      n_schedule: Sequence[int]) -> dict:
    """Track ``B_n^l`` at the critical point born near an escaped zero.

    For each ``n`` the approximant ``B_n`` has zeros ``(1 - 1/n) q_j``
    radially inside each support point; the report records the distance
    from ``B_n^l(c_q(B_n))`` to ``B^l(q)`` plus the renormalized
    (angular) discrepancy as a diagnostic.  Every ``n`` is checked before
    any is solved, and all ``B_n`` of the schedule are mapped together
    (one stacked forward map, ``_critical_divisors``); the first failing
    ``n`` of the schedule raises its error.
    """
    l = _integer(l, "l", 1)
    q = complex(q)
    target = _check_orbit_preconditions(D, q, l)
    n_schedule = [_integer(n, "schedule entries", 2) for n in n_schedule]
    m = D.interior_part.m
    products = [from_zero_divisor(_radial_approach(D, n), m)
                for n in n_schedule]
    rows = []
    for n, orbit in zip(n_schedule, _orbits_near(products, q, l)):
        if isinstance(orbit, Exception):
            raise orbit
        c, w = orbit
        rows.append({
            "n": n,
            "critical_point": [c.real, c.imag],
            "orbit_value": [w.real, w.imag],
            "distance": abs(w - target),
            "circle_distance": abs(w / abs(w) - target),
        })
    return {
        "q": [q.real, q.imag],
        "l": l,
        "target": [target.real, target.imag],
        "n_schedule": n_schedule,
        "profile": rows,
    }


#: Newton steps allowed to ``_tracked_orbit`` and the step size that
#: ends them.
_TRACK_STEPS = 40
_TRACK_TOL = 1e-13


def _tracked_orbit(zeros: Sequence[complex], m: int, l: int, zeta: complex,
                   c0: complex) -> Optional[tuple[complex, ...]]:
    """Track one critical point of the product with free zeros ``zeros``
    plus ``zeta`` and run its orbit, with Wirtinger derivatives in ``zeta``.

    Newton from ``c0`` on the factored numerator ``f(z) = m + z sum_k
    w_k/g_k``, ``w_k = 1-|a_k|^2``, stops on the step size; ``f`` and
    ``f'`` come from ``blaschke._sums``, the scalar kernel that the
    forward map runs on for a lone product of few zeros.
    The implicit function theorem gives ``dc/dzeta = -F_zeta/f'(c)`` and
    ``dc/dconj(zeta) = -F_conj(zeta)/f'(c)`` from the zeta term
    ``z(1-|zeta|^2)/((z-zeta)(1-conj(zeta)z))`` of ``f``, whose
    derivatives are ``z/(z-zeta)^2`` and ``z/(1-conj(zeta)z)^2``.  Along
    the orbit ``B' = B f/z``, ``dB/dzeta = B(1/(1-zeta) - 1/(z-zeta))``
    and ``dB/dconj(zeta) = B(z/(1-conj(zeta)z) - 1/(1-conj(zeta)))``.

    Returns ``(c, h, dh/dzeta, dh/dconj(zeta), dc/dzeta, dc/dconj(zeta))``
    with ``h = B^l(c)``, or None on a non-finite step, a step longer
    than 1, no convergence, or ``c`` outside the disk.
    """
    zb = zeta.conjugate()
    terms = [(a, a.conjugate(), 1.0 - abs(a) ** 2)
             for a in (*zeros, zeta)]
    try:
        c = c0
        for _ in range(_TRACK_STEPS):
            _, f, df = _sums(terms, m, c)
            step = f / df
            if not (cmath.isfinite(step) and abs(step) <= 1.0):
                return None
            c -= step
            if not abs(c) < 1.0:
                return None
            if abs(step) <= _TRACK_TOL:
                break
        else:
            return None
        norm = math.prod((1.0 - ab) / (1.0 - a) for a, ab, _ in terms)
        c_z = -c / ((c - zeta) ** 2 * df)
        c_zb = -c / ((1.0 - zb * c) ** 2 * df)
        w, h_z, h_zb = c, c_z, c_zb
        for _ in range(l):
            bw = norm * w ** m
            for a, ab, _ in terms:
                bw *= (w - a) / (1.0 - ab * w)
            dbw = bw * _sums(terms, m, w)[1] / w
            h_z = dbw * h_z + bw * (1.0 / (1.0 - zeta) - 1.0 / (w - zeta))
            h_zb = dbw * h_zb + bw * (w / (1.0 - zb * w) - 1.0 / (1.0 - zb))
            w = bw
    except ZeroDivisionError:
        return None
    if not all(map(cmath.isfinite, (w, h_z, h_zb, c_z, c_zb))):
        return None
    return c, w, h_z, h_zb, c_z, c_zb


def prescribe_distance(D: BoundaryDivisor, q: complex, l: int, L: float,
                       eps: float, tau: float = 1e-3,
                       max_attempts: int = 8) -> SolveCertificate:
    """Solve for a product near ``D`` whose orbit through the critical
    point near ``q`` lands at hyperbolic distance ``L`` from the zero
    near ``q' = B^l(q)``.

    A free zero ``zeta`` roams a disk around ``q`` while the other
    support points get fixed placements ``(1 - tau) p``; 2-D Newton
    drives ``h(zeta) = B^l(c_q)`` to the inward point of the target
    hyperbolic circle.  Five starts ``zeta_i = (1 - s_i^2) e^{i phi_q}``,
    ``s_i = sqrt(d_i)``, on the radius toward ``q`` (Newton's own
    state, below) are ranked by ``|h - xi|`` from tracked
    evaluations (``_tracked_orbit``), which rebuild no product and find
    no other critical point: each refines ``c_q`` from the closed-form
    critical point of ``z^(m+n) (z - zeta_i)/(1 - conj(zeta_i) z)``,
    ``n`` the other zeros counted with multiplicity, which is the seed
    the forward map gives ``zeta_i``'s root without its turn.  A start
    whose tracked evaluation fails is skipped, each start counts as one
    evaluation in the certificate's ``iterations``, and the ranked
    starts hand their tracked evaluations to Newton, which begins from
    them without evaluating its start again.

    Newton runs in ``(s, phi)`` with ``zeta = (1 - s^2) e^{i phi}`` and
    carries ``s`` and ``phi`` as its state, so ``1 - |zeta| = s^2`` is
    never recomputed by cancellation.  The extension of the critical
    map to the circle is Hoelder-1/2: a zero ``delta`` inside the circle
    puts its critical point about ``sqrt(2 delta/lambda)`` from the
    circle point (``lambda = |B'(q)|``).  So ``h`` is smooth in
    ``s = sqrt(1 - |zeta|)``, not in ``zeta``, near its root about 1e-7
    inside the circle: a Newton step in ``zeta`` overshoots there by
    about 2x, so its line search would halve every step, while full
    steps in ``s`` converge.
    Newton tracks the one critical point ``c_q`` (``_tracked_orbit``): each
    trial predicts it along the tangent in ``(s, phi)`` and refines it
    on the factored numerator, and the Jacobian columns ``dh/ds`` and
    ``dh/dphi`` come by the chain rule (``dzeta/ds = -2s e^{i phi}``,
    ``dzeta/dphi = i zeta``) from the closed-form Wirtinger derivatives
    of ``h``, under a monotone backtracking line search that stops at
    ``|h - xi| < 1e-11`` or 80 steps.  At convergence one guarded full
    evaluation checks the basin; it is the certificate's one forward
    map.  It rebuilds the product and picks ``c_q`` among all its
    critical points, refusing an ambiguous choice, and the root counts
    only if that point is the tracked one within 1e-9; its orbit value
    goes into the certificate.  So a start whose tracked point is not
    ``c_q`` can cost a Newton run but cannot yield a certificate.  When
    every start fails, the fallback is a winding-number quadtree
    bisection on the full ``h`` (``_winding_search``; the solution
    exists precisely because that winding is 1), whose edge walk
    bisects each edge only as far as ``h`` turns and evaluates each
    point once, a few hundred evaluations where the root is near ``q``.
    Where it finds no cell, or ``h`` fails at the point it returns, the
    attempt has failed, and the next one halves the search disk.  After
    ``max_attempts`` failed attempts the solve raises ``NumericalError``.
    The certificate's residual is ``|achieved - L|``.

    Refused with ``PreconditionError`` before any solve: a non-finite
    ``L``, ``eps`` or ``tau``, a ``tau`` outside the open interval
    (0, 1), and an ``l`` or ``max_attempts`` that is not an integer of at
    least 1 (an integral float counts).
    """
    q = complex(q)
    l = _integer(l, "l", 1)
    max_attempts = _integer(max_attempts, "max_attempts", 1)
    if not all(map(math.isfinite, (L, eps, tau))):
        raise PreconditionError("L, eps and tau must be finite")
    if L < 0:
        raise PreconditionError("L must be nonnegative")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if not 0.0 < tau < 1.0:
        raise PreconditionError("tau must lie strictly between 0 and 1")
    qp = _check_orbit_preconditions(D, q, l)
    B = D.interior_part
    if D.circle_part.multiplicity(qp, tol=1e-9) == 0:
        raise PreconditionError("B^l(q) must be a support point")
    if abs(qp - q) <= 1e-9:
        raise PreconditionError(
            "B^l(q) must be a support point different from q")
    placements = []
    x_target = None
    for p, _ in D.circle_part.atoms:
        if abs(p - q) <= 1e-9:
            continue
        x = (1.0 - tau) * p
        placements.append(x)
        if abs(p - qp) <= 1e-9:
            x_target = x
    assert x_target is not None
    circle = HypDisk(x_target, L)
    u = x_target / abs(x_target)
    xi = circle.euclid_center - circle.euclid_radius * u
    m = B.m
    base_atoms = list(B.free_zeros.atoms) + [(x, 1) for x in placements]
    others = [z for z, mult in base_atoms for _ in range(mult)]
    # the local degree at 0 that the closed-form seed of zeta's root sees
    seed_m = m + len(others)
    evals = 0

    def inside(zeta: complex) -> bool:
        return abs(zeta) < 1.0 - 1e-9 and abs(zeta - q) <= eps

    def full(zeta: complex) -> Optional[tuple[complex, complex]]:
        """Guarded full evaluation at ``zeta``: the critical point near
        ``q`` of the rebuilt product and ``h(zeta)``, or None."""
        nonlocal evals
        if not inside(zeta):
            return None
        evals += 1
        try:
            product = from_zero_divisor(Divisor(
                base_atoms + [(zeta, 1)], REGION_INTERIOR), m)
        except PreconditionError:
            return None
        (val,) = _orbits_near([product], q, l)
        return None if isinstance(val, Exception) else val

    def h(zeta: complex) -> Optional[complex]:
        val = full(zeta)
        return None if val is None else val[1]

    def tracked(zeta: complex, c0: complex) -> Optional[tuple[complex, ...]]:
        nonlocal evals
        if not inside(zeta):
            return None
        evals += 1
        return _tracked_orbit(others, m, l, zeta, c0)

    def newton(s: float, phi: float,
               t: tuple[complex, ...]) -> Optional[tuple[complex, complex]]:
        """Root and its full ``h`` from the start ``zeta(s, phi)``, whose
        tracked evaluation is ``t``; None on failure."""
        z = cmath.rect(1.0 - s * s, phi)
        for _ in range(80):
            c, f, h_z, h_zb, c_z, c_zb = t
            f -= xi
            err = abs(f)
            if err < 1e-11:
                val = full(z)
                if val is None or not abs(val[0] - c) <= 1e-9:
                    return None
                return z, val[1]
            # A real direction v of zeta moves h by h_z v + h_zb conj(v);
            # zeta_s = -2s e^{i phi} and zeta_phi = i zeta give the
            # columns of the real Jacobian in (s, phi), and Cramer's rule
            # applied to -f gives the step.
            z_s = cmath.rect(-2.0 * s, phi)
            z_phi = 1j * z
            h_s = h_z * z_s + h_zb * z_s.conjugate()
            h_phi = h_z * z_phi + h_zb * z_phi.conjugate()
            det = (h_s.conjugate() * h_phi).imag
            if det == 0.0:
                return None
            ds = -(f.conjugate() * h_phi).imag / det
            dphi = -(h_s.conjugate() * f).imag / det
            # c is smooth in (s, phi) too: predict it along the tangent
            dz = z_s * ds + z_phi * dphi
            dc = c_z * dz + c_zb * dz.conjugate()
            lam = 1.0
            for _ in range(12):
                s1, phi1 = s + lam * ds, phi + lam * dphi
                z1 = cmath.rect(1.0 - s1 * s1, phi1)
                t = tracked(z1, c + lam * dc)
                if t is not None and abs(t[1] - xi) < err:
                    break
                lam *= 0.5
            else:
                return None
            s, phi, z = s1, phi1, z1
        return None

    delta = min(eps, 0.05)
    phi_q = cmath.phase(q)
    found: Optional[tuple[complex, complex]] = None
    for _ in range(max_attempts):
        ranked = []
        for frac in (0.3, 0.1, 0.03, 0.01, 0.003):
            # evaluated at Newton's own start, so Newton begins with it
            s0 = math.sqrt(frac * delta)
            zeta = cmath.rect(1.0 - s0 * s0, phi_q)
            t = tracked(zeta, _one_zero_critical(zeta, seed_m))
            if t is not None:
                ranked.append((abs(t[1] - xi), s0, t))
        for _, s0, t in sorted(ranked, key=lambda r: r[0]):
            found = newton(s0, phi_q, t)
            if found is not None:
                break
        if found is not None:
            break
        best = _winding_search(h, xi, q, delta)
        # a square narrower than the search's floor returns its center,
        # where h may fail
        w = None if best is None else h(best)
        if w is not None:
            found = best, w
            break
        delta *= 0.5
    if found is None:
        raise NumericalError(
            f"prescribed-distance solve failed for L={L} after {evals} "
            f"evaluations (Newton and winding search both exhausted)")
    best, w = found
    achieved = hyp_dist(x_target, w)
    result = Divisor(base_atoms + [(best, 1)], REGION_INTERIOR)
    return SolveCertificate(L, achieved, result, evals, m, x_target, w)


def _winding_search(h, xi: complex, q: complex,
                    delta: float) -> Optional[complex]:
    """Quadtree bisection of the search square guided by the winding
    number of ``h - xi`` on cell boundaries, down to cells 1e-12 wide.

    The square is centered at ``q`` on the circle, so points outside
    the guard radius ``1 - 1e-9`` of ``h`` move radially to
    ``1 - 2e-9``, where ``h`` accepts them; the square is narrowed so
    that those points, too, lie within ``delta`` of ``q``, and ``h``
    refuses none of them.  The root lies within about
    1e-7 of the circle, where the achieved distance is steep: on the
    divisor of m = 2 with support {1/3, 2/3} at L = 1, cells 1e-10 wide
    left a residual of 2.6e-5, cells 1e-12 wide one of 6.8e-8.

    The winding along a cell boundary is the sum of the turns
    ``phase(f(b)/f(a))`` of ``f = h - xi`` along its edges, and a sum of
    such turns is right only while ``f`` turns by less than pi between
    neighbouring points.  So an edge is bisected until consecutive
    values turn by at most pi/4, or until its pieces are 1/64 of the
    cell side, where the turn is taken as it stands.  Both bounds are
    heuristics, as any fixed count of samples would be; the winding
    number stays the certificate that a cell holds a root.  Values are
    kept by point, and corners and dyadic midpoints are the same floats
    from either direction and at every level, so the edges that sibling
    and parent cells share are evaluated once.  A point where ``h``
    fails, or hits ``xi`` exactly, makes the winding of its cells NaN,
    which never selects a cell.
    """
    values: dict[complex, complex] = {}

    def f(zeta: complex) -> complex:
        if zeta not in values:
            r = abs(zeta)
            val = h(zeta * (1.0 - 2e-9) / r if r >= 1.0 - 1e-9 else zeta)
            values[zeta] = (complex(math.nan) if val is None or val == xi
                            else val - xi)
        return values[zeta]

    def turn(a: complex, b: complex, depth: int = 0) -> float:
        step = cmath.phase(f(b) / f(a))
        if not abs(step) > math.pi / 4 or depth == 6:
            return step
        mid = (a + b) / 2
        return turn(a, mid, depth + 1) + turn(mid, b, depth + 1)

    # the clamp adds at most (2e-9)^2 to a squared distance from q, and
    # 1e-15 covers the rounding of the coordinates
    half = max(math.sqrt(max(delta * delta - 4e-18, 0.0)) - 1e-15,
               0.0) / math.sqrt(2.0)
    cell = (q.real - half, q.real + half, q.imag - half, q.imag + half)
    for _ in range(60):
        x0, x1, y0, y1 = cell
        if max(x1 - x0, y1 - y0) < 1e-12:
            return complex((x0 + x1) / 2, (y0 + y1) / 2)
        xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
        subcells = [(x0, xm, y0, ym), (xm, x1, y0, ym),
                    (x0, xm, ym, y1), (xm, x1, ym, y1)]
        for sub in subcells:
            corners = [complex(sub[0], sub[2]), complex(sub[1], sub[2]),
                       complex(sub[1], sub[3]), complex(sub[0], sub[3])]
            winding = sum(turn(a, b) for a, b in zip(
                corners, corners[1:] + corners[:1])) / (2.0 * math.pi)
            if abs(winding) > 0.5:
                cell = sub
                break
        else:
            return None
    return None


def multiplier_limit_check(D: BoundaryDivisor,
                           n_schedule: Sequence[int]) -> dict:
    """Profile of ``|B_n'(0) - 1|`` along the radial approach to a
    singular divisor (identity interior part, 1 outside the support)."""
    if D.l != 1 or D.interior_part.e != 0:
        raise PreconditionError(
            "the multiplier limit needs a singular divisor (identity part)")
    if any(abs(z - 1.0) <= 1e-9 for z, _ in D.circle_part.atoms):
        raise PreconditionError("1 must stay outside supp(S)")
    n_schedule = [_integer(n, "schedule entries", 2) for n in n_schedule]
    rows = []
    for n in n_schedule:
        B_n = from_zero_divisor(_radial_approach(D, n), 1)
        mult = multiplier_at_zero(B_n)
        rows.append({
            "n": n,
            "multiplier": [mult.real, mult.imag],
            "deviation": abs(mult - 1.0),
        })
    return {
        "n_schedule": n_schedule,
        "profile": rows,
    }
