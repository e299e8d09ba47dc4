"""Tests for the exact rational angle recursion on the preimage tree.

The reference oracles are hand derivations of the angle rules: angles
pull back under the interior product (multiplication by the total
degree), each support atom spends ``nu/d`` of angular mass the first
time its arc is crossed, and the root keeps angle zero.  All expected
fractions below were computed by hand from those rules before the
assertions were written.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from blaschkediv import (BoundaryDivisor, Divisor, NumericalError,
                         PreconditionError, boundary_from_json,
                         from_zero_divisor, lamination, lamination_table,
                         preimages_of, ray_pairs)
from blaschkediv.lamination import _polish_roots, table_csv_rows


def turn(t: float) -> complex:
    return cmath.exp(2j * math.pi * t)


def make_boundary(zeros, m, support) -> BoundaryDivisor:
    """Boundary divisor from interior zeros, the forced degree at 0, and
    circle support given as (angle-in-turns, multiplicity) pairs."""
    Z = Divisor([(complex(z), 1) for z in zeros], "interior")
    S = Divisor([(turn(t), nu) for t, nu in support], "circle")
    return BoundaryDivisor(from_zero_divisor(Z, m), S)


def square_map():
    return from_zero_divisor(Divisor([], "interior"), 2)


def mass_total(table) -> Fraction:
    """Angular mass of gaps plus arcs between consecutive entries.

    Walking the circle once must spend exactly one full turn: every
    entry contributes its gap, and each pair of neighbors (including
    the wrap past the root) contributes the arc between them.  A table
    holding only the root spans the whole circle.
    """
    entries = table.entries
    total = sum((e.gap for e in entries), Fraction(0))
    for prev, nxt in zip(entries, entries[1:] + entries[:1]):
        inc = (nxt.theta_minus - prev.theta_plus) % 1
        if inc == 0 and len(entries) == 1:
            inc = Fraction(1)
        total += inc
    return total


def assert_circle_monotone(table):
    entries = table.entries
    assert entries[0].theta_minus == 0
    assert entries[0].theta_plus == 0
    for e in entries:
        assert 0 <= e.theta_minus <= e.theta_plus < 1
    for prev, nxt in zip(entries, entries[1:]):
        assert prev.theta_plus < nxt.theta_minus


def assert_exact_invariants(table):
    """Entry count ``l^depth``, semiconjugacy under multiplication by
    ``d``, strict monotonicity, total mass 1, and denominators dividing
    ``d^level``."""
    D = table.base
    d = D.total_degree
    assert len(table) == D.l ** table.depth
    assert_circle_monotone(table)
    assert mass_total(table) == 1
    for e in table.entries:
        assert (d ** e.level) % e.theta_minus.denominator == 0
        assert (d ** e.level) % e.theta_plus.denominator == 0
        if e.level == 0:
            continue
        assert (e.theta_minus * d) % 1 == e.parent.theta_minus
        assert (e.theta_plus * d) % 1 == e.parent.theta_plus


# ---------------------------------------------------------------------------
# preimages


def test_preimages_square_map_of_one():
    pre = preimages_of(square_map(), 1.0 + 0j)
    assert len(pre) == 2
    assert pre[0] == pytest.approx(1.0 + 0j, abs=1e-12)
    assert pre[1] == pytest.approx(-1.0 + 0j, abs=1e-12)


def test_preimages_square_map_of_minus_one():
    pre = preimages_of(square_map(), -1.0 + 0j)
    assert pre[0] == pytest.approx(1j, abs=1e-12)
    assert pre[1] == pytest.approx(-1j, abs=1e-12)


def test_preimages_generic_product_forward_check():
    B = from_zero_divisor(
        Divisor([(0.4 + 0j, 1), (0.3j, 1)], "interior"), 1)
    w = turn(0.1)
    pre = preimages_of(B, w)
    assert len(pre) == 3
    phases = [cmath.phase(z) % (2.0 * math.pi) for z in pre]
    assert phases == sorted(phases)
    for z in pre:
        assert abs(abs(z) - 1.0) < 1e-15
        assert abs(B.eval(z) - w) <= 1e-9


def test_batched_preimages_equal_one_solve_per_target():
    # reference: the scalar path, one npoly.polyroots call per target
    # followed by the same two Newton steps, sorted by argument
    B = from_zero_divisor(
        Divisor([(0.4 + 0.1j, 1), (-0.3j, 1)], "interior"), 2)
    targets = [turn(t) for t in (0.0, 0.1, 0.37, 0.5, 0.93)]
    points, turns = lamination._preimages(B, lamination._coefficients(B),
                                          targets)
    p = npoly.polyfromroots(B.free_zeros.points())
    for w, row, row_turns in zip(targets, points, turns):
        num = B.normalization * np.concatenate((np.zeros(B.m), p))
        num = num - w * np.concatenate((np.conj(p)[::-1], np.zeros(B.m)))
        roots = _polish_roots(num, npoly.polyroots(num))
        expected = sorted((complex(z) / abs(complex(z)) for z in roots),
                          key=lambda z: cmath.phase(z) % (2.0 * math.pi))
        # a batched eigvals call may round differently from polyroots
        assert row.tolist() == pytest.approx(expected, abs=1e-15)
        # numpy's arctan2 may differ from libm's atan2 in the last bits
        assert row_turns.tolist() == pytest.approx(
            [(cmath.phase(z) / (2.0 * math.pi)) % 1.0 for z in expected],
            abs=1e-15)


def test_preimages_reject_degree_one():
    B = from_zero_divisor(Divisor([], "interior"), 1)
    with pytest.raises(PreconditionError):
        preimages_of(B, 1.0 + 0j)


def test_preimages_reject_interior_target():
    with pytest.raises(PreconditionError):
        preimages_of(square_map(), 0.5 + 0j)


# ---------------------------------------------------------------------------
# reference instance: squaring interior, one simple support atom at -1
# (total degree 3)


def reference_divisor() -> BoundaryDivisor:
    return make_boundary([], 2, [(0.5, 1)])


def test_reference_depth_one_angles():
    table = lamination_table(reference_divisor(), 1)
    assert len(table) == 2
    root, minus_one = table.entries
    assert root.level == 0
    assert root.parent is root
    assert (root.theta_minus, root.theta_plus) == (Fraction(0), Fraction(0))
    assert minus_one.level == 1
    assert minus_one.nu == 1
    assert minus_one.parent is root
    # one full image turn plus the atom's own mass, each scaled by 1/3
    assert minus_one.theta_minus == Fraction(1, 3)
    assert minus_one.theta_plus == Fraction(2, 3)


def test_reference_depth_two_angles():
    table = lamination_table(reference_divisor(), 2)
    assert len(table) == 4
    upper = table.entry_near(1j)
    lower = table.entry_near(-1j)
    minus_one = table.entry_near(-1.0 + 0j)
    assert upper is not None and lower is not None
    # pulling [1/3, 2/3] back through the squaring map splits it across
    # the two preimages of -1
    assert (upper.theta_minus, upper.theta_plus) == (
        Fraction(1, 9), Fraction(2, 9))
    assert (lower.theta_minus, lower.theta_plus) == (
        Fraction(7, 9), Fraction(8, 9))
    assert upper.parent is minus_one
    assert lower.parent is minus_one


def test_reference_depth_six_census():
    table = lamination_table(reference_divisor(), 6)
    assert len(table) == 64
    counts = [0] * 7
    for e in table.entries:
        counts[e.level] += 1
    assert counts == [1, 1, 2, 4, 8, 16, 32]


def test_reference_semiconjugacy_exact():
    table = lamination_table(reference_divisor(), 6)
    for e in table.entries:
        if e.level == 0:
            continue
        assert (e.theta_minus * 3) % 1 == e.parent.theta_minus % 1
        assert (e.theta_plus * 3) % 1 == e.parent.theta_plus % 1


def test_reference_monotone_and_mass_closure_by_depth():
    D = reference_divisor()
    for depth in range(7):
        table = lamination_table(D, depth)
        assert_circle_monotone(table)
        assert mass_total(table) == 1


def test_reference_denominators_divide_degree_powers():
    table = lamination_table(reference_divisor(), 6)
    for e in table.entries:
        assert (3 ** e.level) % e.theta_minus.denominator == 0
        assert (3 ** e.level) % e.theta_plus.denominator == 0


def test_reference_determinism():
    first = lamination_table(reference_divisor(), 6)
    second = lamination_table(reference_divisor(), 6)
    assert len(first) == len(second)
    for a, b in zip(first.entries, second.entries):
        assert a.point == b.point
        assert a.level == b.level
        assert a.theta_minus == b.theta_minus
        assert a.theta_plus == b.theta_plus
        assert a.nu == b.nu


def test_reference_ray_pairs():
    D = reference_divisor()
    assert ray_pairs(lamination_table(D, 1)) == [
        (Fraction(1, 3), Fraction(2, 3))]
    assert ray_pairs(lamination_table(D, 2)) == [
        (Fraction(1, 9), Fraction(2, 9)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(7, 9), Fraction(8, 9)),
    ]


def test_reference_csv_rows():
    table = lamination_table(reference_divisor(), 2)
    rows = table_csv_rows(table)
    assert len(rows) == 4
    assert all(len(row) == 8 for row in rows)
    assert rows[0] == [1.0, 0.0, 0, 0, 1, 0, 1, 0]
    re, im, level, mn, md, pn, pd, nu = rows[2]
    assert re == pytest.approx(-1.0, abs=1e-9)
    assert im == pytest.approx(0.0, abs=1e-9)
    assert (level, mn, md, pn, pd, nu) == (1, 1, 3, 2, 3, 1)


# ---------------------------------------------------------------------------
# other hand-derived instances


def test_double_support_atom_angles():
    # squaring interior with a double atom at -1: total degree 4, so the
    # atom spends 2/4 of mass and sits at [1/4, 3/4]
    D = make_boundary([], 2, [(0.5, 2)])
    table = lamination_table(D, 2)
    minus_one = table.entry_near(-1.0 + 0j)
    assert (minus_one.theta_minus, minus_one.theta_plus) == (
        Fraction(1, 4), Fraction(3, 4))
    upper = table.entry_near(1j)
    lower = table.entry_near(-1j)
    assert (upper.theta_minus, upper.theta_plus) == (
        Fraction(1, 16), Fraction(3, 16))
    assert (lower.theta_minus, lower.theta_plus) == (
        Fraction(13, 16), Fraction(15, 16))
    assert_circle_monotone(table)
    assert mass_total(table) == 1


def test_support_atom_off_tree_spends_mass_in_arc():
    # atom at i is not a preimage of 1 under squaring; crossing its arc
    # between 1 and -1 still spends 1/3, pushing theta(-1) to 2/3 with a
    # zero gap
    D = make_boundary([], 2, [(0.25, 1)])
    table = lamination_table(D, 1)
    minus_one = table.entry_near(-1.0 + 0j)
    assert (minus_one.theta_minus, minus_one.theta_plus) == (
        Fraction(2, 3), Fraction(2, 3))
    assert ray_pairs(table) == []
    assert mass_total(table) == 1


def test_generic_interior_invariants():
    # a free zero makes the preimage tree irrational; the exact
    # invariants must still hold
    D = make_boundary([0.5], 1, [(0.5, 1)])
    table = lamination_table(D, 4)
    assert_circle_monotone(table)
    assert mass_total(table) == 1
    for e in table.entries:
        if e.level == 0:
            continue
        assert (e.theta_minus * 3) % 1 == e.parent.theta_minus % 1
        assert (e.theta_plus * 3) % 1 == e.parent.theta_plus % 1
        assert (3 ** e.level) % e.theta_minus.denominator == 0


def test_depth_zero_is_root_only():
    table = lamination_table(reference_divisor(), 0)
    assert len(table) == 1
    assert mass_total(table) == 1


def test_depth_eight_exact_invariants():
    D = boundary_from_json({"m": 3, "support": ["1/3", "2/3"]})
    table = lamination_table(D, 8)
    assert len(table) == 6561
    assert_exact_invariants(table)


def test_coinciding_candidates_raise(monkeypatch):
    solve = lamination._preimages

    def colliding(B, coeffs, ws):
        # the first preimage of the last parent lands on the first
        # preimage of the first parent
        points, turns = solve(B, coeffs, ws)
        points[-1, 0], turns[-1, 0] = points[0, 0], turns[0, 0]
        return points, turns

    monkeypatch.setattr(lamination, "_preimages", colliding)
    # levels 1 and 2 have a single parent, level 3 has two
    assert len(lamination_table(reference_divisor(), 2)) == 4
    with pytest.raises(NumericalError, match="collide"):
        lamination_table(reference_divisor(), 3)


def test_level_short_of_entries_raises():
    # a level-5 preimage lies 8.4e-13 from a level-4 entry, within the
    # collision tolerance, so floats cannot order level 5
    D = make_boundary([0.698817615135042 + 0.7139012121974386j,
                       0.9989378816358974 + 0.01114040541388548j], 2, [])
    assert len(lamination_table(D, 4)) == 4 ** 4
    with pytest.raises(NumericalError, match="level 5 entries collide"):
        lamination_table(D, 5)


def test_a_table_too_large_for_memory_is_a_numerical_error(refused_slots):
    with pytest.raises(NumericalError, match=r"2\^41 slots"):
        lamination_table(make_boundary([], 2, []), 41)


def seeded_boundaries(seed: int, count: int):
    """Seeded regular divisors, m = 1..3 with zero to two free zeros
    inside radius 0.9 and one or two support atoms, with depths up to 6
    and at most 1024 entries."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        m, n = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        if m + n < 2:
            continue
        zeros = 0.9 * np.sqrt(rng.random(n)) * np.exp(
            2j * np.pi * rng.random(n))
        support = [(float(t), int(nu)) for t, nu in zip(
            rng.uniform(0.05, 0.95, int(rng.integers(1, 3))),
            rng.integers(1, 3, 2))]
        depth = int(rng.integers(1, 7))
        while (m + n) ** depth > 1024:
            depth -= 1
        cases.append((make_boundary(zeros, m, support), depth))
    return cases


def test_parent_of_slot_i_is_slot_l_i():
    # the entries sit at the slots of z -> z^l, whose squaring-like map
    # sends slot i to slot l*i mod l^depth
    cases = seeded_boundaries(20261021, 24)
    assert {D.interior_part.m for D, _ in cases} == {1, 2, 3}
    assert {D.l for D, _ in cases} == {2, 3, 4}
    assert max(depth for _, depth in cases) == 6
    assert any(D.interior_part.free_zeros.atoms for D, _ in cases)
    assert any(not D.interior_part.free_zeros.atoms for D, _ in cases)
    for D, depth in cases:
        table = lamination_table(D, depth)
        size = D.l ** depth
        assert len(table) == size
        for i, e in enumerate(table.entries):
            parent = table.entries[D.l * i % size]
            assert e.parent is parent
            assert abs(D.interior_part.eval(e.point) - parent.point) <= 1e-9


@pytest.mark.parametrize("m, support, depth", [
    (2, [(0.5, 1)], 6), (3, [(1.0 / 3.0, 1), (2.0 / 3.0, 2)], 5),
    (4, [(0.3, 1)], 4)])
def test_power_map_entry_i_sits_at_turn_i_over_size(m, support, depth):
    table = lamination_table(make_boundary([], m, support), depth)
    size = m ** depth
    for i, e in enumerate(table.entries):
        assert abs(e.point - turn(i / size)) <= 1e-12


def test_entry_near_finds_every_entry():
    table = lamination_table(
        boundary_from_json({"m": 3, "support": ["1/3", "2/3"]}), 6)
    assert len(table) == 729
    for e in table.entries:
        assert table.entry_near(e.point) is e
    assert table.entry_near(turn(0.5 / 729 ** 2)) is None
    assert table.entry_near(0.5 + 0j) is None


# ---------------------------------------------------------------------------
# preconditions


def test_reject_identity_interior():
    D = make_boundary([], 1, [(0.5, 1)])
    with pytest.raises(PreconditionError):
        lamination_table(D, 2)


def test_reject_one_in_support():
    D = make_boundary([], 2, [(0.0, 1)])
    with pytest.raises(PreconditionError):
        lamination_table(D, 2)


def test_reject_negative_depth():
    with pytest.raises(PreconditionError):
        lamination_table(reference_divisor(), -1)
