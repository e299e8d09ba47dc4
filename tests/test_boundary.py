"""Tests for boundary divisors: the extended critical-divisor map, the
unimodular limit factor of degenerating sequences, prescribed-factor
sequence construction, dynamical relations, orbit membership, and the
two-type classification."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from blaschkediv import (BoundaryDivisor, Divisor, PreconditionError,
                         SchemaError, boundary_from_json, boundary_to_json,
                         build_degenerate_sequence, classify, critical_divisor,
                         extend_phi, from_zero_divisor, has_dynamical_relation,
                         in_E_zeta, is_regular, matching_distance, zeta_limit)


def turn(t: float) -> complex:
    return cmath.exp(2j * math.pi * t)


def make_boundary(zeros, m, support) -> BoundaryDivisor:
    """Boundary divisor from interior zeros, the forced degree at 0, and
    circle support given as (angle-in-turns, multiplicity) pairs."""
    Z = Divisor([(complex(z), 1) for z in zeros], "interior")
    S = Divisor([(turn(t), nu) for t, nu in support], "circle")
    return BoundaryDivisor(from_zero_divisor(Z, m), S)


def test_extend_phi_reference_instance():
    D = make_boundary([0.6], 1, [(0.25, 1)])
    result = extend_phi(D, 1)
    assert result.degree == 2
    interior = [z for z, _ in result.atoms if abs(z) < 1.0]
    circle = [z for z, _ in result.atoms if abs(z) >= 1.0]
    assert len(interior) == 1 and len(circle) == 1
    assert interior[0] == pytest.approx(1.0 / 3.0 + 0j, abs=1e-12)
    assert circle[0] == turn(0.25)  # boundary part passes through exactly


def test_extend_phi_identity_interior_returns_support():
    D = make_boundary([], 1, [(0.25, 1), (0.75, 1)])
    result = extend_phi(D, 1)
    assert matching_distance(result, D.circle_part) == 0.0


def test_extend_phi_boundary_part_bitwise():
    D = make_boundary([0.3 + 0.2j, -0.4j], 1, [(0.1, 1), (0.6, 2)])
    result = extend_phi(D, 2)
    circle_atoms = tuple((z, nu) for z, nu in result.atoms if abs(z) >= 1.0)
    assert circle_atoms == D.circle_part.atoms


def test_extend_phi_interior_control_matches_forward_map():
    # With an empty circle part the extension is the plain critical
    # divisor of the interior product.
    Z = Divisor([(0.6 + 0j, 1)], "interior")
    D = BoundaryDivisor(from_zero_divisor(Z, 1), Divisor([], "circle"))
    result = extend_phi(D, 1)
    want = critical_divisor(from_zero_divisor(Z, 1)).free_ram
    assert matching_distance(result, want) == 0.0


def escaper_sequence(phis, ts) -> list[Divisor]:
    """One term per t: an escaper 1 - t e^{i phi} for each phi."""
    return [Divisor([(1.0 - t * cmath.exp(1j * phi), 1) for phi in phis],
                    "interior")
            for t in ts]


TS = [1e-4, 3e-5, 1e-5, 3e-6, 2e-6, 1.5e-6, 1.2e-6, 1e-6]


def test_zeta_limit_radial_escaper():
    seq = escaper_sequence([0.0], TS)
    zeta = zeta_limit(seq)
    assert zeta is not None
    assert abs(zeta - (-1.0)) <= 1e-6


def test_zeta_limit_angled_escaper():
    phi = 0.3
    seq = escaper_sequence([phi], TS)
    zeta = zeta_limit(seq)
    assert zeta is not None
    assert abs(zeta - (-cmath.exp(-2j * phi))) <= 2e-6


def test_zeta_limit_two_escapers_multiply():
    phi1, phi2 = 0.2, 0.5
    seq = escaper_sequence([phi1, phi2], TS)
    zeta = zeta_limit(seq)
    assert zeta is not None
    assert abs(zeta - cmath.exp(-2j * (phi1 + phi2))) <= 4e-6


def test_zeta_limit_ignores_far_atoms():
    far = 0.3j
    seq = [Divisor([(1.0 - t, 1), (far, 1)], "interior") for t in TS]
    zeta = zeta_limit(seq)
    assert zeta is not None
    assert abs(zeta - (-1.0)) <= 1e-6


def test_zeta_limit_requires_escapers_in_final_term():
    seq = [Divisor([(0.3j, 1)], "interior") for _ in range(4)]
    with pytest.raises(PreconditionError):
        zeta_limit(seq)


def test_zeta_limit_unstable_tail_returns_none():
    # An angled escaper's factor still carries a phase error of order t,
    # so a coarse schedule cannot stabilize at a tight tolerance.
    seq = escaper_sequence([0.3], [1e-2, 1e-3, 1e-4])
    assert zeta_limit(seq, tol=1e-9) is None


def test_zeta_limit_short_sequence_returns_none():
    assert zeta_limit(escaper_sequence([0.0], [1e-6, 1e-6])) is None


def test_build_degenerate_sequence_radial_for_minus_one():
    D = make_boundary([], 2, [(0.0, 1), (0.25, 1)])
    term = build_degenerate_sequence(D, -1.0 + 0j, 100)
    # the escaper toward 1 sits exactly on the real axis
    escaper = [z for z, _ in term.atoms if abs(z - 1.0) < 0.25]
    assert escaper == [(1.0 - 1.0 / 100) + 0j]
    # free zeros of the n-th approximant: everything except the forced
    # zero at the origin
    assert term.degree == D.total_degree - D.interior_part.m


def test_build_degenerate_sequence_round_trips_zeta():
    D = make_boundary([], 2, [(0.0, 1), (0.25, 1)])
    for zeta in (1.0 + 0j, -1.0 + 0j, 1j, cmath.exp(0.7j)):
        seq = [build_degenerate_sequence(D, zeta, 2 ** k)
               for k in range(16, 31)]
        got = zeta_limit(seq)
        assert got is not None
        assert abs(got - zeta) <= 1e-6


def test_build_degenerate_sequence_multiplicity_two():
    D = make_boundary([], 1, [(0.0, 2)])
    seq = [build_degenerate_sequence(D, 1j, 2 ** k) for k in range(16, 31)]
    got = zeta_limit(seq)
    assert got is not None
    assert abs(got - 1j) <= 1e-6


def test_build_degenerate_sequence_carries_other_atoms():
    D = make_boundary([0.4 + 0.1j], 1, [(0.0, 1), (0.5, 1)])
    n = 1000
    term = build_degenerate_sequence(D, -1.0 + 0j, n)
    assert term.degree == D.total_degree - 1
    pts = term.points()
    assert any(abs(z - (0.4 + 0.1j)) <= 1e-15 for z in pts)
    assert any(abs(z - (1.0 - 1.0 / n) * turn(0.5)) <= 1e-15 for z in pts)


def test_build_degenerate_sequence_preconditions():
    D_no_one = make_boundary([], 2, [(0.25, 1)])
    with pytest.raises(PreconditionError):
        build_degenerate_sequence(D_no_one, -1.0 + 0j, 10)
    D = make_boundary([], 2, [(0.0, 1)])
    with pytest.raises(PreconditionError):
        build_degenerate_sequence(D, 2.0 + 0j, 10)
    with pytest.raises(PreconditionError):
        build_degenerate_sequence(D, -1.0 + 0j, 1)


def test_is_regular():
    assert not is_regular(make_boundary([], 1, [(0.25, 1)]))
    assert is_regular(make_boundary([], 2, [(0.25, 1)]))
    assert is_regular(make_boundary([0.5], 1, [(0.25, 1)]))


def test_dynrel_detected_exactly():
    D = make_boundary([], 2, [(1.0 / 3.0, 1), (2.0 / 3.0, 1)])
    result = has_dynamical_relation(D)
    assert result.detected
    assert result.status == "detected"
    assert result.l == 1
    # both support points witness an l=1 relation; either direction is a
    # valid report, but the pair must be the two distinct support points
    witnesses = {result.q, result.q_prime}
    assert result.q != result.q_prime
    for point in (turn(1.0 / 3.0), turn(2.0 / 3.0)):
        assert any(abs(w - point) <= 1e-9 for w in witnesses)


def test_dynrel_single_support_point_is_exact_none():
    D = make_boundary([], 2, [(1.0 / 7.0, 1)])
    result = has_dynamical_relation(D)
    assert result.status == "exact"
    assert not result.detected


def test_dynrel_disjoint_cycles_are_exact_none():
    # Under angle doubling, 1/3 orbits within {1/3, 2/3} and 1/5 within
    # {1/5, 2/5, 4/5, 3/5}; the supports never meet.
    D = make_boundary([], 2, [(1.0 / 3.0, 1), (1.0 / 5.0, 1)])
    result = has_dynamical_relation(D)
    assert result.status == "exact"


def test_dynrel_generic_interior_is_depth_limited():
    D = make_boundary([0.3 + 0.2j], 1, [(0.123, 1), (0.456, 1)])
    result = has_dynamical_relation(D, depth=50, tol=1e-9)
    assert result.status == "none_within_depth"
    assert result.depth == 50


def test_dynrel_requires_regular_divisor():
    D = make_boundary([], 1, [(0.25, 1)])
    with pytest.raises(PreconditionError):
        has_dynamical_relation(D)


def test_dynrel_json_has_all_keys():
    D = make_boundary([], 2, [(1.0 / 7.0, 1)])
    payload = has_dynamical_relation(D).to_json()
    assert set(payload) == {"status", "l", "q", "q_prime", "depth", "tol"}
    assert payload["l"] is None and payload["q"] is None


def test_in_E_zeta_support_point_is_member():
    D = make_boundary([], 2, [(0.25, 1)])
    result = in_E_zeta(D, 1.0 + 0j, turn(0.25))
    assert result.member
    assert result.j == 0


def test_in_E_zeta_one_step_preimage():
    D = make_boundary([], 2, [(0.5, 1)])
    result = in_E_zeta(D, 1.0 + 0j, turn(0.25))
    assert result.member
    assert result.j == 1


def test_in_E_zeta_exact_nonmember():
    D = make_boundary([], 2, [(0.5, 1)])
    result = in_E_zeta(D, 1.0 + 0j, turn(0.2))
    assert result.status == "exact_nonmember"
    result = in_E_zeta(D, turn(0.5), turn(0.2))
    assert result.status == "exact_nonmember"


def test_in_E_zeta_depth_limited_for_generic_maps():
    D = make_boundary([0.3 + 0.2j], 1, [(0.123, 1)])
    result = in_E_zeta(D, 1.0 + 0j, turn(0.777), depth=30)
    assert result.status == "not_within_depth"
    assert result.depth == 30


def test_in_E_zeta_validates_inputs():
    D = make_boundary([], 2, [(0.25, 1)])
    with pytest.raises(PreconditionError):
        in_E_zeta(D, 2.0 + 0j, turn(0.25))
    with pytest.raises(PreconditionError):
        in_E_zeta(D, 1.0 + 0j, 0.5 + 0j)


def test_classify_type_r():
    D = make_boundary([], 2, [(1.0 / 7.0, 1)])
    report = classify(D)
    assert report.verdict == "TypeR"
    assert report.regular and report.simple and not report.one_in_support
    assert not report.dynrel.detected
    assert report.singular_value is None


def test_classify_type_r_numerically_supported():
    D = make_boundary([0.3 + 0.2j], 1, [(0.123, 1), (0.456, 1)])
    report = classify(D, depth=50)
    assert report.verdict == "TypeR"
    assert report.dynrel.status == "none_within_depth"
    assert "numerically supported" in report.reason


def test_classify_type_s():
    D = make_boundary([], 1, [(0.25, 1), (0.75, 1)])
    report = classify(D)
    assert report.verdict == "TypeS"
    assert not report.regular
    assert report.singular_value == "z+z^3"


def test_classify_not_simple():
    D = make_boundary([], 2, [(0.25, 2)])
    report = classify(D)
    assert report.verdict == "NoExtension"
    assert not report.simple
    assert "simple" in report.reason


def test_classify_one_in_support():
    for D in (make_boundary([], 2, [(0.0, 1), (0.25, 1)]),
              make_boundary([], 1, [(0.0, 1), (0.25, 1)])):
        report = classify(D)
        assert report.verdict == "NoExtension"
        assert report.one_in_support


def test_classify_dynamical_relation():
    D = make_boundary([], 2, [(1.0 / 3.0, 1), (2.0 / 3.0, 1)])
    report = classify(D)
    assert report.verdict == "NoExtension"
    assert report.dynrel.detected
    assert "relation" in report.reason


def test_classify_report_invariants():
    instances = [
        make_boundary([], 2, [(1.0 / 7.0, 1)]),
        make_boundary([], 1, [(0.25, 1), (0.75, 1)]),
        make_boundary([], 2, [(0.25, 2)]),
        make_boundary([], 2, [(0.0, 1), (0.25, 1)]),
        make_boundary([], 1, [(0.0, 1), (0.25, 1)]),
        make_boundary([], 2, [(1.0 / 3.0, 1), (2.0 / 3.0, 1)]),
    ]
    for D in instances:
        report = classify(D)
        if report.verdict == "TypeR":
            assert (report.regular and report.simple
                    and not report.one_in_support
                    and not report.dynrel.detected)
        if report.verdict == "TypeS":
            assert (not report.regular and report.simple
                    and not report.one_in_support)
        payload = report.to_json()
        assert set(payload) == {"regular", "simple", "one_in_support",
                                "dynrel", "verdict", "reason",
                                "singular_value"}


def test_classify_needs_circle_part():
    D = BoundaryDivisor(
        from_zero_divisor(Divisor([(0.5 + 0j, 1)], "interior"), 1),
        Divisor([], "circle"))
    with pytest.raises(PreconditionError):
        classify(D)


@pytest.mark.parametrize("zeros", [[], [0.6]])
@pytest.mark.parametrize("m", [0, -2])
def test_extend_phi_rejects_nonpositive_m(zeros, m):
    D = make_boundary(zeros, 1, [(0.25, 1)])
    with pytest.raises(PreconditionError, match="m must be a positive"):
        extend_phi(D, m)


@pytest.mark.parametrize("m", [np.int64(1), 1.0])
def test_extend_phi_takes_an_integral_m_of_any_type(m):
    D = make_boundary([0.6], 1, [(0.25, 1)])
    assert extend_phi(D, m).atoms == extend_phi(D, 1).atoms


@pytest.mark.parametrize("m", [1.5, math.nan, "1"])
def test_extend_phi_refuses_a_non_integral_m(m):
    D = make_boundary([0.6], 1, [(0.25, 1)])
    with pytest.raises(PreconditionError, match="m must be a positive"):
        extend_phi(D, m)


@pytest.mark.parametrize("depth", [np.int64(7), 7.0])
def test_sweeps_take_an_integral_depth_of_any_type(depth):
    D = make_boundary([0.3 + 0.2j], 1, [(0.123, 1), (0.456, 1)])
    for check in (lambda d: classify(D, depth=d),
                  lambda d: has_dynamical_relation(D, depth=d),
                  lambda d: in_E_zeta(D, 1.0 + 0j, turn(0.777), depth=d)):
        got, want = check(depth), check(7)
        if hasattr(got, "to_json"):
            got, want = got.to_json(), want.to_json()
        else:
            got, want = vars(got), vars(want)
            assert type(got["depth"]) is int
        assert got == want
    assert type(has_dynamical_relation(D, depth=depth).depth) is int


@pytest.mark.parametrize("depth", [1.5, 0, math.nan, "1"])
def test_sweeps_refuse_a_non_integral_depth(depth):
    D = make_boundary([0.3 + 0.2j], 1, [(0.123, 1), (0.456, 1)])
    for check in (lambda: classify(D, depth=depth),
                  lambda: has_dynamical_relation(D, depth=depth),
                  lambda: in_E_zeta(D, 1.0 + 0j, turn(0.777), depth=depth)):
        with pytest.raises(PreconditionError,
                           match="depth must be a positive"):
            check()


@pytest.mark.parametrize("depth", [0, -5])
def test_classify_rejects_nonpositive_depth(depth):
    D = make_boundary([], 2, [(1 / 3, 1)])
    with pytest.raises(PreconditionError, match="depth must be a positive"):
        classify(D, depth=depth)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_sweeps_reject_invalid_tolerance(tol):
    D = make_boundary([0.3 + 0.2j], 1, [(0.123, 1), (0.456, 1)])
    for check in (lambda: classify(D, tol=tol),
                  lambda: has_dynamical_relation(D, tol=tol),
                  lambda: in_E_zeta(D, 1.0 + 0j, turn(0.777), tol=tol)):
        with pytest.raises(PreconditionError, match="tol must be finite"):
            check()


@pytest.mark.parametrize("depth", [0, -5])
def test_sweeps_reject_nonpositive_depth(depth):
    # with free zeros a depth below 1 would search nothing and still
    # answer none_within_depth / not_within_depth
    D = make_boundary([0.3 + 0.2j], 1, [(0.123, 1), (0.456, 1)])
    with pytest.raises(PreconditionError, match="depth must be a positive"):
        has_dynamical_relation(D, depth=depth)
    with pytest.raises(PreconditionError, match="depth must be a positive"):
        in_E_zeta(D, 1.0 + 0j, turn(0.777), depth=depth)


def test_boundary_json_round_trip():
    D = make_boundary([0.3 + 0.2j], 2, [(0.25, 1), (0.5, 2)])
    payload = boundary_to_json(D)
    back = boundary_from_json(payload)
    assert back.l == D.l
    assert back.total_degree == D.total_degree
    assert matching_distance(back.circle_part, D.circle_part) == 0.0
    assert matching_distance(back.interior_part.free_zeros,
                             D.interior_part.free_zeros) == 0.0


def test_boundary_json_accepts_angle_strings():
    D = boundary_from_json({"m": 2, "support": ["1/2"]})
    assert D.l == 2
    assert D.circle_part.atoms[0][0] == pytest.approx(-1.0 + 0j, abs=1e-15)


def test_boundary_json_schema_errors():
    with pytest.raises(SchemaError):
        boundary_from_json({"m": 1, "support": ["1/4"], "bogus": True})
    with pytest.raises(SchemaError):
        boundary_from_json({"m": 0, "support": ["1/4"]})
    with pytest.raises(SchemaError):
        boundary_from_json([1, 2, 3])


def test_boundary_json_integers_refuse_booleans_and_take_integral_floats():
    with pytest.raises(SchemaError):
        boundary_from_json({"m": True, "support": ["1/4"]})
    with pytest.raises(SchemaError):
        boundary_from_json({"m": 2, "support": [
            {"angle_turns": "1/4", "mult": True}]})
    D = boundary_from_json({"m": 2.0, "support": [
        {"angle_turns": "1/4", "mult": 2.0}]})
    assert D.interior_part.m == 2 and type(D.interior_part.m) is int
    assert D.circle_part.atoms[0][1] == 2
    assert type(D.circle_part.atoms[0][1]) is int
