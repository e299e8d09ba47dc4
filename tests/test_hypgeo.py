"""Tests for the hyperbolic-geometry helpers: distance, Klein chart,
hull membership, and hyperbolic circles."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from blaschkediv import (HypDisk, PreconditionError, hull_contains,
                         hyp_circle, hyp_dist, klein_embed)
from blaschkediv.hypgeo import _hull_contains_all


def mobius(c: complex, theta: float):
    """Disk automorphism z -> e^{i theta} (z - c)/(1 - conj(c) z)."""

    def T(z: complex) -> complex:
        return cmath.exp(1j * theta) * (z - c) / (1.0 - c.conjugate() * z)

    return T


def random_interior(rng: np.random.Generator, rmax: float = 0.9) -> complex:
    r = rmax * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return r * cmath.exp(1j * phi)


def test_hyp_dist_identity_case():
    assert hyp_dist(0j, 0j) == 0.0


def test_hyp_dist_closed_form_on_radius():
    assert hyp_dist(0j, 0.5 + 0j) == pytest.approx(math.log(3.0), abs=1e-15)


def test_hyp_dist_mobius_transport_oracle():
    a, b = 0.3 + 0j, 0.3j
    moved = (b - a) / (1.0 - a.conjugate() * b)
    assert hyp_dist(a, b) == pytest.approx(hyp_dist(0j, moved), abs=1e-13)


def test_hyp_dist_symmetry_and_identity():
    rng = np.random.default_rng(101)
    for _ in range(50):
        a = random_interior(rng)
        b = random_interior(rng)
        assert abs(hyp_dist(a, b) - hyp_dist(b, a)) <= 1e-12
        assert hyp_dist(a, a) == 0.0
        if a != b:
            assert hyp_dist(a, b) > 0.0


def test_hyp_dist_mobius_invariance():
    rng = np.random.default_rng(102)
    for _ in range(50):
        a = random_interior(rng)
        b = random_interior(rng)
        T = mobius(random_interior(rng, 0.7), 2.0 * math.pi * rng.random())
        assert abs(hyp_dist(T(a), T(b)) - hyp_dist(a, b)) <= 1e-12


def test_hyp_dist_rejects_non_interior_points():
    with pytest.raises(PreconditionError):
        hyp_dist(1.0 + 0j, 0j)
    with pytest.raises(PreconditionError):
        hyp_dist(0j, 1.2j)


def test_klein_embed_trivial_values():
    assert klein_embed(0j) == 0j
    assert klein_embed(0.5 + 0j) == pytest.approx(0.8 + 0j, abs=1e-15)


def test_klein_embed_modulus_identity_and_argument():
    rng = np.random.default_rng(103)
    for _ in range(50):
        z = random_interior(rng)
        k = klein_embed(z)
        assert abs(k) == pytest.approx(2.0 * abs(z) / (1.0 + abs(z) ** 2),
                                       abs=1e-15)
        if z != 0:
            assert cmath.phase(k) == pytest.approx(cmath.phase(z), abs=1e-12)


def test_klein_embed_strictly_increasing_in_modulus():
    radii = [0.05 * k for k in range(1, 20)]
    images = [abs(klein_embed(r + 0j)) for r in radii]
    assert all(lo < hi for lo, hi in zip(images, images[1:]))


def test_hull_contains_critical_point_between_zeros():
    assert hull_contains([0j, 0.6 + 0j], 1.0 / 3.0 + 0j)


def test_hull_contains_singleton():
    assert hull_contains([0.5 + 0j], 0.5 + 0j)


def test_hull_excludes_point_off_real_segment():
    assert not hull_contains([0.5 + 0j, -0.5 + 0j, 0j], 0.4j)


def test_hull_contains_needs_generators():
    with pytest.raises(PreconditionError):
        hull_contains([], 0j)


def klein_inverse(k: complex) -> complex:
    return k / (1.0 + math.sqrt(max(0.0, 1.0 - abs(k) ** 2)))


def test_klein_inverse_round_trip():
    rng = np.random.default_rng(104)
    for _ in range(20):
        z = random_interior(rng)
        assert abs(klein_embed(klein_inverse(klein_embed(z))) -
                   klein_embed(z)) <= 1e-14


def test_one_hull_for_many_targets_matches_per_target_calls():
    rng = np.random.default_rng(124)
    answers = set()
    for _ in range(300):
        gens = [0.95 * math.sqrt(rng.random())
                * cmath.exp(2j * math.pi * rng.random())
                for _ in range(int(rng.integers(1, 9)))]
        targets = [0.95 * math.sqrt(rng.random())
                   * cmath.exp(2j * math.pi * rng.random())
                   for _ in range(int(rng.integers(0, 5)))]
        want = all(hull_contains(gens, p) for p in targets)
        assert _hull_contains_all(gens, targets, 1e-9) == want
        answers.add(want)
    assert answers == {True, False}


def test_one_hull_stops_at_the_first_target_outside():
    # The third target is not an interior point, but the second already
    # lies outside, so it is never embedded.
    assert not _hull_contains_all([0j, 0.5 + 0j], [0.25 + 0j, 0.5j, 2.0], 1e-9)
    with pytest.raises(PreconditionError):
        _hull_contains_all([0j, 0.5 + 0j], [0.25 + 0j, 2.0], 1e-9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-3])
def test_hull_contains_refuses_a_non_finite_tol(tol):
    # NaN would fail every target and +inf pass every one; a negative
    # tol would fail every target too, the inside ones at distance 0
    with pytest.raises(PreconditionError):
        hull_contains([0j, 0.5 + 0j], 0.25 + 0j, tol)
    with pytest.raises(PreconditionError):
        _hull_contains_all([0j, 0.5 + 0j], [0.25 + 0j], tol)


def test_hull_contains_mobius_invariance_on_geodesic_midpoints():
    # The disk point under the Klein midpoint of two generators lies on
    # their geodesic, so it stays inside the hull under any simultaneous
    # automorphism of generators and test point.
    rng = np.random.default_rng(105)
    for _ in range(30):
        gens = [random_interior(rng, 0.8) for _ in range(4)]
        mid = klein_inverse((klein_embed(gens[0]) + klein_embed(gens[1]))
                            / 2.0)
        assert hull_contains(gens, mid, tol=1e-9)
        T = mobius(random_interior(rng, 0.6), 2.0 * math.pi * rng.random())
        assert hull_contains([T(g) for g in gens], T(mid), tol=1e-9)


def test_hyp_circle_around_origin():
    disk = hyp_circle(0j, math.log(3.0))
    assert disk.euclid_center == pytest.approx(0j, abs=1e-15)
    assert disk.euclid_radius == pytest.approx(0.5, abs=1e-15)


def test_hyp_circle_degenerate():
    disk = hyp_circle(0.3 + 0.2j, 0.0)
    assert disk.euclid_radius == 0.0
    assert disk.euclid_center == pytest.approx(0.3 + 0.2j, abs=1e-15)


def test_hyp_circle_boundary_sampling_oracle():
    center = 0.5 + 0j
    disk = hyp_circle(center, 1.0)
    for k in range(16):
        p = disk.boundary_point(2.0 * math.pi * k / 16.0)
        assert hyp_dist(center, p) == pytest.approx(1.0, abs=1e-12)
        assert abs(p - disk.euclid_center) == pytest.approx(
            disk.euclid_radius, abs=1e-12)


def test_hyp_disk_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        HypDisk(1.5 + 0j, 1.0)
    with pytest.raises(PreconditionError):
        HypDisk(0j, -0.1)
