"""Tests for the deterministic experiment harness: neighborhood sweeps,
orbit continuity through the critical point near an escaped zero, the
prescribed-distance solver with an independent re-measurement, and the
multiplier limit along the radial approach."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from blaschkediv import (BoundaryDivisor, Divisor, NumericalError,
                         PreconditionError, SweepConfig, critical_divisor,
                         divisor_to_json, extend_phi, from_zero_divisor,
                         hyp_dist, matching_distance, multiplier_limit_check,
                         prescribe_distance,
                         sample_neighborhood, verify_cont_orbit,
                         verify_extension_convergence)
from blaschkediv import blaschke, experiments


def turn(t: float) -> complex:
    return cmath.exp(2j * math.pi * t)


def make_boundary(zeros, m, support) -> BoundaryDivisor:
    Z = Divisor([(complex(z), 1) for z in zeros], "interior")
    S = Divisor([(turn(t), nu) for t, nu in support], "circle")
    return BoundaryDivisor(from_zero_divisor(Z, m), S)


# ---------------------------------------------------------------------------
# sweep configuration


def test_sweep_config_rejects_bad_epsilons():
    with pytest.raises(PreconditionError):
        SweepConfig([1e-2, 0.0], 8, 1)
    with pytest.raises(PreconditionError):
        SweepConfig([1e-2, 1e-2], 8, 1)
    with pytest.raises(PreconditionError):
        SweepConfig([1e-3, 1e-2], 8, 1)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_non_finite_epsilon_is_refused(eps, deadline):
    # a NaN or infinite radius never draws a point inside the disk
    with pytest.raises(PreconditionError):
        SweepConfig([eps], 8, 1)
    D = make_boundary([0.6], 1, [(0.25, 1)])
    with pytest.raises(PreconditionError):
        sample_neighborhood(D, 1, eps, np.random.default_rng(1))


def test_sweep_config_rejects_bad_sample_count():
    with pytest.raises(PreconditionError):
        SweepConfig([1e-2], 0, 1)


@pytest.mark.parametrize("samples, seed", [
    (2.5, 1), (8, 1.5), (8, math.nan), (8, math.inf), (8, -1), (8, "1")])
def test_sweep_config_refuses_non_integral_counts_and_bad_seeds(samples,
                                                                seed):
    with pytest.raises(PreconditionError):
        SweepConfig([1e-2], samples, seed)


def test_sweep_config_takes_integral_floats_as_integers():
    cfg = SweepConfig([1e-2], 8.0, 5.0)
    assert cfg.to_json() == SweepConfig([1e-2], 8, 5).to_json()
    assert type(cfg.samples_per_epsilon) is int
    assert type(cfg.rng_seed) is int


def test_sweep_config_to_json():
    cfg = SweepConfig([1e-2, 1e-3], 16, 42, tolerances={"match": 1e-6})
    assert cfg.to_json() == {
        "epsilons": [1e-2, 1e-3],
        "samples_per_epsilon": 16,
        "rng_seed": 42,
        "tolerances": {"match": 1e-6},
    }


# ---------------------------------------------------------------------------
# neighborhood sampling


def test_sample_neighborhood_stays_within_eps():
    D = make_boundary([0.6], 1, [(0.25, 1)])
    rng = np.random.default_rng(11)
    eps = 0.05
    for _ in range(200):
        sample = sample_neighborhood(D, 1, eps, rng)
        assert sample.degree == 2
        # atoms are kept in sorted order, so pair each base point with
        # its displaced copy by proximity
        for base in (0.6 + 0j, 1j):
            near = [z for z in sample.points()
                    if abs(z - base) <= eps * (1.0 + 1e-12)]
            assert len(near) == 1
            assert abs(near[0]) < 1.0


def test_sample_neighborhood_expands_multiplicity():
    D = make_boundary([], 1, [(0.25, 2)])
    rng = np.random.default_rng(3)
    sample = sample_neighborhood(D, 1, 0.01, rng)
    assert sample.degree == 2
    assert all(abs(z - 1j) <= 0.01 * (1.0 + 1e-12)
               for z in sample.points())


def test_sample_neighborhood_deterministic():
    D = make_boundary([0.6], 1, [(0.25, 1)])
    first = sample_neighborhood(D, 1, 0.02, np.random.default_rng(7))
    second = sample_neighborhood(D, 1, 0.02, np.random.default_rng(7))
    assert first.atoms == second.atoms


def test_sample_neighborhood_wide_eps_draws_from_the_disk(deadline):
    # eps >= 2 covers the whole disk from every atom; drawing about the
    # atom would take about eps**2 = 1e10 tries per atom
    D = make_boundary([0.6], 1, [(0.25, 1)])
    sample = sample_neighborhood(D, 1, 1e5, np.random.default_rng(5))
    assert sample.degree == 2
    assert all(abs(z) < 1.0 - 1e-12 for z in sample.points())


def test_sample_neighborhood_rejections():
    D = make_boundary([0.6], 1, [(0.25, 1)])
    rng = np.random.default_rng(0)
    with pytest.raises(PreconditionError):
        sample_neighborhood(D, 1, 0.0, rng)
    with pytest.raises(PreconditionError):
        sample_neighborhood(D, 0, 0.02, rng)


# ---------------------------------------------------------------------------
# extension convergence sweep


def test_extension_sweep_report_structure():
    D = make_boundary([0.6], 1, [(0.25, 1)])
    cfg = SweepConfig([1e-2, 1e-3], 16, 20260822)
    report = verify_extension_convergence(D, 1, cfg)
    assert report["m"] == 1
    assert report["config"] == cfg.to_json()
    assert report["target"] == divisor_to_json(extend_phi(D, 1))
    assert [row["epsilon"] for row in report["profile"]] == [1e-2, 1e-3]
    for row in report["profile"]:
        assert row["failures"] == 0
        assert 0.0 <= row["mean_distance"] <= row["max_distance"]
        assert row["projected_max"] >= 0.0


def test_extension_sweep_deterministic():
    D = make_boundary([0.6], 1, [(0.25, 1)])
    cfg = SweepConfig([1e-2, 1e-3], 8, 5)
    assert (verify_extension_convergence(D, 1, cfg)
            == verify_extension_convergence(D, 1, cfg))


def test_extension_sweep_interior_control():
    # with no circle part the map is continuous, so the sweep must track
    # the radius down
    Z = Divisor([(0.5 + 0j, 1), (-0.3j, 1)], "interior")
    D = BoundaryDivisor(from_zero_divisor(Z, 1), Divisor([], "circle"))
    cfg = SweepConfig([1e-2, 1e-3], 32, 20260822)
    report = verify_extension_convergence(D, 1, cfg)
    rows = report["profile"]
    for row in rows:
        assert row["failures"] == 0
        assert row["max_distance"] <= 10.0 * row["epsilon"]
    assert rows[1]["max_distance"] < rows[0]["max_distance"]


@pytest.mark.parametrize("m", [np.int64(1), 1.0])
def test_extension_sweep_takes_an_integral_m_of_any_type(m):
    D = make_boundary([0.6], 1, [(0.25, 1)])
    cfg = SweepConfig([1e-2], 2, 1)
    report = verify_extension_convergence(D, m, cfg)
    assert report == verify_extension_convergence(D, 1, cfg)
    assert type(report["m"]) is int


@pytest.mark.parametrize("m", [1.5, 0, math.nan, "1"])
def test_extension_sweep_refuses_a_non_integral_m(m):
    D = make_boundary([0.6], 1, [(0.25, 1)])
    with pytest.raises(PreconditionError,
                       match="m must be a positive integer"):
        verify_extension_convergence(D, m, SweepConfig([1e-2], 2, 1))
    with pytest.raises(PreconditionError,
                       match="m must be a positive integer"):
        sample_neighborhood(D, m, 1e-2, np.random.default_rng(1))


@pytest.fixture
def aberth_rows(monkeypatch) -> list:
    """Record the number of stacked products of each ``_aberth`` run."""
    rows, aberth = [], blaschke._aberth

    def counted(a, mu, m):
        rows.append(len(a))
        return aberth(a, mu, m)

    monkeypatch.setattr(blaschke, "_aberth", counted)
    return rows


def test_extension_sweep_maps_each_epsilon_in_one_run(aberth_rows):
    D = make_boundary([0.6], 1, [(0.25, 1)])
    cfg = SweepConfig([1e-2, 1e-3], 8, 5)
    report = verify_extension_convergence(D, 1, cfg)
    # the target's own forward map, then one run per epsilon
    assert aberth_rows == [1, 8, 8]
    # the same samples mapped one by one give the same rows
    rng = np.random.default_rng(cfg.rng_seed)
    target = extend_phi(D, 1)
    for eps, row in zip(cfg.epsilons, report["profile"]):
        dists = [matching_distance(critical_divisor(from_zero_divisor(
            sample_neighborhood(D, 1, eps, rng), 1)).free_ram.with_region(
                "closed"), target) for _ in range(8)]
        assert abs(row["max_distance"] - max(dists)) <= 1e-12
        assert abs(row["mean_distance"] - sum(dists) / 8) <= 1e-12


# ---------------------------------------------------------------------------
# orbit continuity through the newborn critical point


def orbit_reference() -> BoundaryDivisor:
    return make_boundary([], 2, [(1.0 / 3.0, 1), (2.0 / 3.0, 1)])


def test_orbit_reference_profile():
    report = verify_cont_orbit(orbit_reference(), turn(1.0 / 3.0), 1,
                               [100, 1000])
    assert report["l"] == 1
    assert report["n_schedule"] == [100, 1000]
    tx, ty = report["target"]
    assert complex(tx, ty) == pytest.approx(turn(2.0 / 3.0), abs=1e-12)
    rows = report["profile"]
    assert [row["n"] for row in rows] == [100, 1000]
    for row in rows:
        c = complex(*row["critical_point"])
        assert abs(c) < 1.0
        assert abs(c - turn(1.0 / 3.0)) < 0.2
        assert row["distance"] >= 0.0
        assert row["circle_distance"] >= 0.0
    assert rows[1]["distance"] < rows[0]["distance"]


def test_orbit_schedule_is_one_run_checked_before_it(aberth_rows):
    D, q = orbit_reference(), turn(1.0 / 3.0)
    verify_cont_orbit(D, q, 1, [10, 100, 1000])
    assert aberth_rows == [3]
    with pytest.raises(PreconditionError):
        verify_cont_orbit(D, q, 1, [100, 1000, 1])
    assert aberth_rows == [3]


def test_orbit_fixed_point_needs_single_application():
    # -1 is fixed under cubing, so the one-application relation holds
    D = make_boundary([], 3, [(0.5, 1), (0.25, 1)])
    report = verify_cont_orbit(D, -1.0 + 0j, 1, [100, 1000])
    tx, ty = report["target"]
    assert complex(tx, ty) == pytest.approx(-1.0 + 0j, abs=1e-12)
    rows = report["profile"]
    assert rows[1]["distance"] < rows[0]["distance"]


def test_orbit_fixed_point_rejects_longer_relation():
    # intermediate iterates of a fixed point sit on the support, so only
    # the single-application form of the relation is checkable
    D = make_boundary([], 3, [(0.5, 1), (0.25, 1)])
    with pytest.raises(PreconditionError):
        verify_cont_orbit(D, -1.0 + 0j, 3, [100])


def test_orbit_rejects_intermediate_support_hit():
    with pytest.raises(PreconditionError):
        verify_cont_orbit(orbit_reference(), turn(1.0 / 3.0), 2, [100])


@pytest.mark.parametrize("l, schedule", [
    (1.5, [100]), (math.nan, [100]), (1, [100.5]), (1, [100, math.nan]),
    (1, [100, math.inf])])
def test_orbit_refuses_non_integral_parameters(l, schedule, aberth_rows):
    with pytest.raises(PreconditionError):
        verify_cont_orbit(orbit_reference(), turn(1.0 / 3.0), l, schedule)
    assert aberth_rows == []


def test_orbit_takes_integral_floats_as_integers():
    D, q = orbit_reference(), turn(1.0 / 3.0)
    report = verify_cont_orbit(D, q, 1.0, [100.0, 1000.0])
    assert report == verify_cont_orbit(D, q, 1, [100, 1000])
    assert [type(row["n"]) for row in report["profile"]] == [int, int]


def test_orbit_precondition_errors():
    D = orbit_reference()
    with pytest.raises(PreconditionError):
        verify_cont_orbit(D, turn(1.0 / 3.0), 0, [100])
    with pytest.raises(PreconditionError):
        verify_cont_orbit(D, turn(0.1), 1, [100])
    with pytest.raises(PreconditionError):
        verify_cont_orbit(D, turn(1.0 / 3.0), 1, [1])
    doubled = make_boundary([], 2, [(1.0 / 3.0, 2), (2.0 / 3.0, 1)])
    with pytest.raises(PreconditionError):
        verify_cont_orbit(doubled, turn(1.0 / 3.0), 1, [100])
    with_one = make_boundary([], 2, [(0.0, 1), (1.0 / 3.0, 1)])
    with pytest.raises(PreconditionError):
        verify_cont_orbit(with_one, turn(1.0 / 3.0), 1, [100])


# ---------------------------------------------------------------------------
# prescribed hyperbolic distance


def nearest_critical_point(B, q: complex) -> complex:
    """Independent re-measurement helper: nearest free critical point,
    refusing ambiguous configurations."""
    pts = critical_divisor(B).free_ram.points()
    ranked = sorted(pts, key=lambda c: abs(c - q))
    if len(ranked) >= 2:
        assert abs(ranked[1] - q) >= 2.0 * abs(ranked[0] - q)
    return ranked[0]


def test_prescribe_certificate_runs_one_forward_map(aberth_rows):
    cert = prescribe_distance(orbit_reference(), turn(1.0 / 3.0), 1, 1.0,
                              eps=0.2)
    # the starts are ranked by tracked evaluations, so the basin check of
    # the root Newton found is the only forward map
    assert aberth_rows == [1]
    assert cert.residual <= 1e-6


@pytest.mark.parametrize("L", [0.0, 1.0])
def test_prescribe_reference_and_reverify(L):
    D = orbit_reference()
    q = turn(1.0 / 3.0)
    cert = prescribe_distance(D, q, 1, L, eps=0.2)
    assert cert.target_L == L
    assert cert.residual == abs(cert.achieved - L)
    assert cert.residual <= 1e-6
    assert cert.iterations > 0
    # re-measure from scratch: rebuild the product, relocate the
    # critical point, run the orbit, take the hyperbolic distance
    rebuilt = from_zero_divisor(cert.result_divisor, cert.m)
    c = nearest_critical_point(rebuilt, q)
    w = rebuilt.eval(c)
    assert abs(w - cert.orbit_value) <= 1e-12
    assert hyp_dist(cert.zero_near_target, w) == pytest.approx(
        cert.achieved, abs=1e-12)
    payload = cert.to_json()
    assert payload["target_L"] == L
    assert payload["m"] == 2
    assert payload["result_divisor"] == divisor_to_json(cert.result_divisor)


def assert_remeasured(cert, q: complex, l: int) -> None:
    """Residual within 1e-6 and an independent re-measurement of the
    orbit value and the achieved distance within 1e-12."""
    assert cert.residual <= 1e-6
    rebuilt = from_zero_divisor(cert.result_divisor, cert.m)
    w = nearest_critical_point(rebuilt, q)
    for _ in range(l):
        w = rebuilt.eval(w)
    assert abs(w - cert.orbit_value) <= 1e-12
    assert hyp_dist(cert.zero_near_target, w) == pytest.approx(
        cert.achieved, abs=1e-12)


@pytest.mark.parametrize("L", [0.5, 1.5])
def test_prescribe_cubic_two_step_orbit_reverifies(L):
    # z^3 sends 1/10 to 3/10 to 9/10 turns: m = 3, l = 2, and the
    # intermediate iterate stays off the support
    D = make_boundary([], 3, [(0.1, 1), (0.9, 1)])
    q = turn(0.1)
    cert = prescribe_distance(D, q, 2, L, eps=0.2)
    assert cert.m == 3
    assert cert.target_L == L
    assert_remeasured(cert, q, 2)


@pytest.mark.parametrize("L", [0.0, 0.5, 1.0, 2.0])
def test_prescribe_winding_fallback_alone_certifies(L, monkeypatch):
    # with every tracked evaluation failing, Newton never starts and the
    # winding-number quadtree on the full h must find the root by itself
    monkeypatch.setattr(experiments, "_tracked_orbit", lambda *args: None)
    calls = []
    search = experiments._winding_search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(experiments, "_winding_search", counted)
    q = turn(1.0 / 3.0)
    cert = prescribe_distance(orbit_reference(), q, 1, L, eps=0.2)
    assert len(calls) == 1
    assert_remeasured(cert, q, 1)
    # the edge walk evaluates each point once and bisects an edge only
    # as far as h turns
    assert cert.iterations <= 1000


@pytest.mark.parametrize("L", [0.0, 0.5, 1.0, 2.0])
def test_prescribe_reference_costs_at_most_twelve_evaluations(L):
    # h is smooth in s = sqrt(1 - |zeta|) near its root about 1e-7 inside
    # the circle, so Newton in (s, phi) takes full steps; in zeta the
    # line search halves them and the solve spends 16 to 31 evaluations
    q = turn(1.0 / 3.0)
    cert = prescribe_distance(orbit_reference(), q, 1, L, eps=0.2)
    assert cert.iterations <= 12
    assert_remeasured(cert, q, 1)


def free_zero_problems(count: int, seed: int):
    """Seeded prescribe problems with free zeros (m = 1..3, l = 1..2, one
    or two zeros inside radius 0.6): the support is {q, B^l(q)}, with q
    and its image at least 0.5 apart, both at least 0.1 from 1, and any
    intermediate iterate at least 0.1 from both."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        m, l = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        zeros = [complex(z) for z in 0.6 * np.sqrt(rng.random(n))
                 * np.exp(2j * np.pi * rng.random(n))]
        B = from_zero_divisor(
            Divisor([(z, 1) for z in zeros], "interior"), m)
        q = cmath.exp(2j * math.pi * rng.random())
        orbit = blaschke.boundary_orbit(B, q, l)
        qp = orbit[-1]
        if abs(qp - q) < 0.5 or min(abs(q - 1.0), abs(qp - 1.0)) < 0.1 \
                or any(min(abs(w - q), abs(w - qp)) < 0.1
                       for w in orbit[1:-1]):
            continue
        S = Divisor([(q, 1), (qp, 1)], "circle")
        cases.append((BoundaryDivisor(B, S), q, l,
                      float(rng.uniform(0.3, 2.5))))
    return cases


def test_prescribe_certifies_free_zero_problems_by_newton(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_winding_search",
                        lambda *args: calls.append(args))
    for D, q, l, L in free_zero_problems(50, 20261020):
        cert = prescribe_distance(D, q, l, L, eps=0.2)
        assert_remeasured(cert, q, l)
    assert calls == []


def test_prescribe_starts_track_the_point_the_full_evaluation_picks(
        monkeypatch):
    # the ranking's tracked evaluations are the calls that start from
    # the closed-form seed of zeta's root; at each of them, the guarded
    # full evaluation of the start's product names the same point
    starts, winding = [], []
    track = experiments._tracked_orbit

    def recorded(others, m, l, zeta, c0):
        t = track(others, m, l, zeta, c0)
        seed = blaschke._one_zero_critical(zeta, m + len(others))
        if c0 == complex(seed):
            starts.append((others, m, zeta, t))
        return t

    monkeypatch.setattr(experiments, "_tracked_orbit", recorded)
    monkeypatch.setattr(experiments, "_winding_search",
                        lambda *args: winding.append(args))
    problems = free_zero_problems(50, 20261021)
    problems += [(orbit_reference(), turn(1.0 / 3.0), 1, L)
                 for L in (0.0, 0.5, 1.0, 2.0)]
    agreed = 0
    for D, q, l, L in problems:
        starts.clear()
        cert = prescribe_distance(D, q, l, L, eps=0.2)
        assert_remeasured(cert, q, l)
        assert len(starts) >= 5
        for others, m, zeta, t in starts:
            B = from_zero_divisor(Divisor(
                [(z, 1) for z in (*others, zeta)], "interior"), m)
            (guarded,) = experiments._orbits_near([B], q, l)
            if isinstance(guarded, Exception):
                continue
            assert t is not None
            assert abs(t[0] - guarded[0]) <= 1e-9
            agreed += 1
    assert winding == []
    assert agreed >= 5 * len(problems)


def tracked_cases(count: int, seed: int):
    """Seeded products (m = 1..3, l = 1..2, 1..3 other zeros) with the
    free critical point nearest the roaming zero, where it is
    unambiguous."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        m, l = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        n = int(rng.integers(1, 4)) + 1
        zeros = [complex(z) for z in 0.7 * np.sqrt(rng.random(n))
                 * np.exp(2j * np.pi * rng.random(n))]
        others, zeta = zeros[:-1], zeros[-1]
        B = from_zero_divisor(
            Divisor([(z, 1) for z in zeros], "interior"), m)
        try:
            c = experiments._critical_point_near(B, zeta)
        except NumericalError:
            continue
        cases.append((others, m, l, zeta, c, B))
    return cases


def test_tracked_orbit_derivatives_match_central_differences():
    t = 1e-6
    for others, m, l, zeta, c, _ in tracked_cases(60, 20261018):
        _, _, h_z, h_zb, c_z, c_zb = experiments._tracked_orbit(
            others, m, l, zeta, c)
        for d in (1.0, 1j):
            plus = experiments._tracked_orbit(others, m, l, zeta + t * d, c)
            minus = experiments._tracked_orbit(others, m, l, zeta - t * d, c)
            # d(zeta) = d and d(conj zeta) = conj(d) along the direction d
            for k, (dz, dzb) in ((1, (h_z, h_zb)), (0, (c_z, c_zb))):
                exact = dz * d + dzb * d.conjugate()
                approx = (plus[k] - minus[k]) / (2.0 * t)
                scale = abs(dz) + abs(dzb)
                assert abs(approx - exact) <= 1e-8 * scale


def test_tracked_orbit_matches_full_evaluation():
    rng = np.random.default_rng(7)
    for others, m, l, zeta, c_ref, B in tracked_cases(60, 4242):
        start = c_ref + 1e-3 * complex(*rng.normal(size=2))
        c, w, *_ = experiments._tracked_orbit(others, m, l, zeta, start)
        assert abs(c - c_ref) <= 1e-9
        ref = c_ref
        for _ in range(l):
            ref = B.eval(ref)
        assert abs(w - ref) <= 1e-9


def test_tracked_orbit_gives_up_at_a_pole():
    # a start on a zero puts a pole into the factored numerator
    assert experiments._tracked_orbit([0.3 + 0j], 2, 1, -0.4j, 0.3 + 0j) \
        is None


def test_prescribe_rejects_fixed_point_target():
    D = make_boundary([], 3, [(0.5, 1), (0.25, 1)])
    with pytest.raises(PreconditionError):
        prescribe_distance(D, -1.0 + 0j, 1, 1.0, eps=0.2)


def test_prescribe_rejects_image_off_support():
    D = make_boundary([], 2, [(1.0 / 3.0, 1), (0.9, 1)])
    with pytest.raises(PreconditionError):
        prescribe_distance(D, turn(1.0 / 3.0), 1, 1.0, eps=0.2)


def test_prescribe_rejects_bad_scalars():
    D = orbit_reference()
    q = turn(1.0 / 3.0)
    with pytest.raises(PreconditionError):
        prescribe_distance(D, q, 1, -1.0, eps=0.2)
    with pytest.raises(PreconditionError):
        prescribe_distance(D, q, 0, 1.0, eps=0.2)
    with pytest.raises(PreconditionError):
        prescribe_distance(D, q, 1, 1.0, eps=0.0)


@pytest.mark.parametrize("L, eps, tau", [
    (math.nan, 0.2, 1e-3), (math.inf, 0.2, 1e-3), (1.0, math.nan, 1e-3),
    (1.0, math.inf, 1e-3), (1.0, 0.2, math.nan), (1.0, 0.2, math.inf)])
def test_prescribe_refuses_non_finite_scalars(L, eps, tau, deadline):
    with pytest.raises(PreconditionError):
        prescribe_distance(orbit_reference(), turn(1.0 / 3.0), 1, L,
                           eps=eps, tau=tau)


@pytest.mark.parametrize("l, tau, max_attempts", [
    (1, 1.0, 8), (1, 1.5, 8), (1, 0.0, 8), (1, -1e-3, 8), (1, 1e-3, 2.5),
    (1, 1e-3, 0), (1, 1e-3, -1), (1, 1e-3, None), (1.5, 1e-3, 8),
    (math.nan, 1e-3, 8), (math.inf, 1e-3, 8)])
def test_prescribe_refuses_bad_tau_attempts_and_l_before_any_solve(
        l, tau, max_attempts, aberth_rows, deadline):
    with pytest.raises(PreconditionError):
        prescribe_distance(orbit_reference(), turn(1.0 / 3.0), l, 1.0,
                           eps=0.2, tau=tau, max_attempts=max_attempts)
    assert aberth_rows == []


@pytest.mark.parametrize("eps", [1e-12, 1e-7, 1e-6])
def test_prescribe_disk_without_a_root_fails_cheaply(eps, aberth_rows,
                                                     deadline):
    # the root lies about 5.7e-4 from q, outside these disks; at 1e-12
    # the halved search square is soon narrower than the quadtree's
    # floor, so the search returns q itself, where h fails
    with pytest.raises(NumericalError):
        prescribe_distance(orbit_reference(), turn(1.0 / 3.0), 1, 1.0,
                           eps=eps)
    # every forward map is a full evaluation of the winding search or a
    # basin check; a fixed sampling of the cell edges ran thousands
    assert len(aberth_rows) <= 200


@pytest.mark.parametrize("L, eps", [(1.0, 0.2), (0.5, 0.2), (1.0, 1e-6),
                                    (1.0, 1e-7)])
def test_prescribe_counts_the_evaluations_it_runs(L, eps, monkeypatch,
                                                  deadline):
    # a point that the eps-disk or the guard radius refuses reaches no
    # map and is not counted
    calls = {"tracked": 0, "full": 0}
    track, orbits = experiments._tracked_orbit, experiments._orbits_near

    def tracked(*args):
        calls["tracked"] += 1
        return track(*args)

    def full(*args):
        calls["full"] += 1
        return orbits(*args)

    monkeypatch.setattr(experiments, "_tracked_orbit", tracked)
    monkeypatch.setattr(experiments, "_orbits_near", full)
    try:
        count = prescribe_distance(orbit_reference(), turn(1.0 / 3.0), 1, L,
                                   eps=eps).iterations
    except NumericalError as exc:
        count = int(str(exc).split(" after ")[1].split()[0])
    assert calls["tracked"] > 0
    assert count == calls["tracked"] + calls["full"]


def test_winding_search_asks_only_for_points_inside_the_disk(monkeypatch,
                                                             deadline):
    # the search square's corners lie within eps of q after the radial
    # clamp, so inside() refuses none of the search's points
    eps, q = 1e-6, turn(1.0 / 3.0)
    asked = []
    search = experiments._winding_search

    def recorded(h, xi, center, delta):
        def h_recorded(zeta):
            asked.append(zeta)
            return h(zeta)
        return search(h_recorded, xi, center, delta)

    monkeypatch.setattr(experiments, "_winding_search", recorded)
    with pytest.raises(NumericalError):
        prescribe_distance(orbit_reference(), q, 1, 1.0, eps=eps)
    assert len(asked) > 50
    assert all(abs(z) < 1.0 - 1e-9 and abs(z - q) <= eps for z in asked)


def test_prescribe_unreachable_distance_fails_honestly():
    D = orbit_reference()
    with pytest.raises(NumericalError):
        prescribe_distance(D, turn(1.0 / 3.0), 1, 50.0, eps=0.1,
                           max_attempts=1)


# ---------------------------------------------------------------------------
# multiplier limit


def test_multiplier_profile_matches_closed_form():
    D = make_boundary([], 1, [(0.25, 1), (0.75, 1)])
    report = multiplier_limit_check(D, [10, 100, 1000])
    rows = report["profile"]
    assert report["n_schedule"] == [10, 100, 1000]
    for row in rows:
        n = row["n"]
        r = 1.0 - 1.0 / n
        # zeros at +- i r multiply to a real derivative r^2 at the origin
        assert row["deviation"] == pytest.approx(1.0 - r * r, abs=1e-12)
        mult = complex(*row["multiplier"])
        assert mult == pytest.approx(r * r + 0j, abs=1e-12)
    assert rows[0]["deviation"] > rows[1]["deviation"] > rows[2]["deviation"]


@pytest.mark.parametrize("schedule", [[2.5], [10, 100.5], [10, math.nan]])
def test_multiplier_refuses_non_integral_schedule(schedule):
    D = make_boundary([], 1, [(0.25, 1), (0.75, 1)])
    with pytest.raises(PreconditionError):
        multiplier_limit_check(D, schedule)


def test_multiplier_takes_integral_floats_as_integers():
    D = make_boundary([], 1, [(0.25, 1), (0.75, 1)])
    report = multiplier_limit_check(D, [10.0, 100.0])
    assert report == multiplier_limit_check(D, [10, 100])
    assert [type(n) for n in report["n_schedule"]] == [int, int]


def test_multiplier_rejections():
    regular = make_boundary([], 2, [(0.25, 1)])
    with pytest.raises(PreconditionError):
        multiplier_limit_check(regular, [10])
    with_one = make_boundary([], 1, [(0.0, 1)])
    with pytest.raises(PreconditionError):
        multiplier_limit_check(with_one, [10])
    D = make_boundary([], 1, [(0.25, 1), (0.75, 1)])
    with pytest.raises(PreconditionError):
        multiplier_limit_check(D, [1])
