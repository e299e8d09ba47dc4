"""Tests for Blaschke products: construction, evaluation, derivative
against a finite-difference oracle, the critical-divisor map and its
continuation inverse, the closed form for one free zero, multipliers,
boundary orbits, and the hull certificate."""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from blaschkediv import (BlaschkeProduct, ContinuationError, Divisor,
                         NumericalError, PreconditionError, boundary_orbit,
                         critical_divisor, from_zero_divisor, hull_contains,
                         matching_distance, multiplier_at_zero,
                         phi_1m_closed_form, walsh_check, zeros_from_critical)
from blaschkediv import blaschke
from blaschkediv.blaschke import _inverse_terms, _rows


#: The scalar route's crossover, read before the ``route`` fixture sets
#: it to 0 for the numpy route.
SCALAR_D = blaschke._SCALAR_D


def interior_divisor(points) -> Divisor:
    return Divisor([(complex(z), 1) for z in points], "interior")


def random_zeros(rng: np.random.Generator, e: int, rmax: float) -> Divisor:
    atoms = []
    for _ in range(e):
        r = rmax * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        atoms.append((r * cmath.exp(1j * phi), 1))
    return Divisor(atoms, "interior")


def test_power_map_construction():
    B = from_zero_divisor(Divisor([], "interior"), 2)
    assert B.degree == 2
    assert B.e == 0
    assert B.eval(1j) == pytest.approx(-1.0 + 0j, abs=1e-15)
    assert B.eval(1.0 + 0j) == pytest.approx(1.0 + 0j, abs=1e-15)


def test_real_zero_product_formula():
    B = from_zero_divisor(interior_divisor([0.6]), 1)
    assert B.normalization == pytest.approx(1.0 + 0j, abs=1e-15)
    for z in (0.2 + 0.1j, -0.5j, 0.9 + 0j):
        want = z * (z - 0.6) / (1.0 - 0.6 * z)
        assert B.eval(z) == pytest.approx(want, abs=1e-14)
    assert B.eval(0.6 + 0j) == pytest.approx(0j, abs=1e-15)


def test_normalization_fixes_one():
    B = from_zero_divisor(interior_divisor([0.3j]), 1)
    assert abs(B.eval(1.0 + 0j) - 1.0) <= 1e-14
    assert abs(abs(B.normalization) - 1.0) <= 1e-15


def test_normalization_keeps_digits_at_high_degree():
    # from the factors, prod (1 - a_k), not from the expanded polynomial
    rng = np.random.default_rng(1115)
    for e in range(16, 25):
        for _ in range(10):
            B = from_zero_divisor(random_zeros(rng, e, 0.999), 1)
            assert abs(B.eval(1.0) - 1.0) <= 1e-14
            assert abs(abs(B.normalization) - 1.0) <= 1e-15


def test_construction_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        from_zero_divisor(interior_divisor([0.5]), 0)
    with pytest.raises(PreconditionError):
        Divisor([(1.0 + 0j, 1)], "interior")


def test_eval_maps_circle_to_circle():
    rng = np.random.default_rng(301)
    for _ in range(10):
        B = from_zero_divisor(random_zeros(rng, 3, 0.8),
                              int(rng.integers(1, 4)))
        for k in range(16):
            q = cmath.exp(2j * math.pi * k / 16.0)
            assert abs(abs(B.eval(q)) - 1.0) <= 1e-10


def test_eval_pole_proximity_error():
    B = from_zero_divisor(interior_divisor([0.5]), 1)
    with pytest.raises(NumericalError):
        B.eval(2.0 + 0j)  # the pole 1/conj(0.5)


def test_deriv_power_map():
    B = from_zero_divisor(Divisor([], "interior"), 2)
    assert B.deriv(0.5 + 0j) == pytest.approx(1.0 + 0j, abs=1e-14)


def test_deriv_vanishes_at_critical_point():
    B = from_zero_divisor(interior_divisor([0.6]), 1)
    assert abs(B.deriv(1.0 / 3.0 + 0j)) <= 1e-14


def test_deriv_finite_difference_oracle():
    rng = np.random.default_rng(302)
    h = 1e-6
    for _ in range(25):
        B = from_zero_divisor(random_zeros(rng, int(rng.integers(1, 5)), 0.8),
                              int(rng.integers(1, 4)))
        r = 0.7 * math.sqrt(rng.random())
        z = r * cmath.exp(2j * math.pi * rng.random())
        fd = (B.eval(z + h) - B.eval(z - h)) / (2.0 * h)
        exact = B.deriv(z)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_deriv_on_the_circle_is_the_angular_derivative():
    # |B'(q)| = m + sum_k mu_k (1-|a_k|^2)/|q-a_k|^2 at |q| = 1, with
    # doubled zeros among the draws
    rng = np.random.default_rng(3503)
    for i in range(60):
        e, m = int(rng.integers(1, 13)), int(rng.integers(1, 4))
        a = (0.7, 0.9, 0.999)[i % 3] * np.sqrt(rng.random(e)) * np.exp(
            2j * np.pi * rng.random(e))
        mu = rng.integers(1, 3, e)
        B = from_zero_divisor(
            Divisor(list(zip(a.tolist(), mu.tolist())), "interior"), m)
        for q in np.exp(2j * np.pi * rng.random(8)).tolist():
            rate = m + (mu * (1.0 - abs(a) ** 2) / abs(q - a) ** 2).sum()
            assert abs(abs(B.deriv(q)) - rate) <= 1e-12 * rate


def test_critical_divisor_closed_form_spot_value():
    B = from_zero_divisor(interior_divisor([0.6]), 1)
    result = critical_divisor(B)
    assert result.free_ram.degree == 1
    assert result.free_ram.atoms[0][0] == pytest.approx(
        1.0 / 3.0 + 0j, abs=1e-12)


def test_critical_divisor_free_zero_at_origin():
    # A free zero at 0 makes the product a pure power with its free
    # critical point also at 0.
    B = from_zero_divisor(Divisor([(0j, 1)], "interior"), 2)
    result = critical_divisor(B)
    assert result.free_ram.degree == 1
    assert abs(result.free_ram.atoms[0][0]) <= 1e-12


def test_critical_divisor_symmetric_pair():
    B = from_zero_divisor(interior_divisor([0.5, -0.5]), 1)
    pts = sorted(critical_divisor(B).free_ram.points(), key=lambda z: z.real)
    assert len(pts) == 2
    for c in pts:
        assert abs(c.imag) <= 1e-12
        assert -0.5 <= c.real <= 0.5
    assert pts[0] == pytest.approx(-pts[1], abs=1e-12)


def test_critical_divisor_needs_free_zeros():
    B = from_zero_divisor(Divisor([], "interior"), 3)
    with pytest.raises(PreconditionError):
        critical_divisor(B)


def test_degree_conservation():
    rng = np.random.default_rng(303)
    for _ in range(20):
        e = int(rng.integers(1, 7))
        B = from_zero_divisor(random_zeros(rng, e, 0.9),
                              int(rng.integers(1, 4)))
        assert critical_divisor(B).free_ram.degree == e


def test_closed_form_grid_agreement():
    rng = np.random.default_rng(304)
    for m in (1, 2, 3):
        for _ in range(20):
            r = 0.99 * math.sqrt(rng.random())
            a = r * cmath.exp(2j * math.pi * rng.random())
            B = from_zero_divisor(Divisor([(a, 1)], "interior"), m)
            got = critical_divisor(B).free_ram.atoms[0][0]
            assert abs(got - phi_1m_closed_form(a, m)) <= 1e-10


def test_phi_1m_trivial_values():
    assert phi_1m_closed_form(0.6 + 0j, 1) == pytest.approx(
        1.0 / 3.0 + 0j, abs=1e-15)
    for m in (1, 2, 5):
        assert phi_1m_closed_form(0j, m) == 0j
    q = cmath.exp(0.7j)
    assert phi_1m_closed_form(q, 3) == pytest.approx(q, abs=1e-12)
    with pytest.raises(PreconditionError):
        phi_1m_closed_form(1.5 + 0j, 1)
    with pytest.raises(PreconditionError):
        phi_1m_closed_form(0.5 + 0j, 0)


def test_zeros_from_critical_inverts_spot_value():
    R = Divisor([(1.0 / 3.0 + 0j, 1)], "interior")
    B = zeros_from_critical(R, 1)
    assert B.free_zeros.degree == 1
    assert B.free_zeros.atoms[0][0] == pytest.approx(0.6 + 0j, abs=1e-9)


def test_zeros_from_critical_fixed_point_of_the_map():
    R = Divisor([(0j, 3)], "interior")
    B = zeros_from_critical(R, 1)
    assert B.free_zeros.degree == 3
    assert matching_distance(B.free_zeros, R) <= 1e-8


def test_zeros_from_critical_needs_degree():
    with pytest.raises(PreconditionError):
        zeros_from_critical(Divisor([], "interior"), 1)


def test_round_trip_zeros_to_critical_and_back():
    rng = np.random.default_rng(305)
    for _ in range(10):
        e = int(rng.integers(1, 6))
        Z = random_zeros(rng, e, 0.9)
        m = int(rng.integers(1, 4))
        R = critical_divisor(from_zero_divisor(Z, m)).free_ram
        Z_back = zeros_from_critical(R, m).free_zeros
        assert matching_distance(Z_back, Z) <= 1e-8


def inverse_rows(a, atoms, fixed, m):
    """Residuals ``f^(i)(c)`` of the Hermite conditions of ``atoms`` for
    the free zeros ``a`` and the fixed zero atoms ``fixed``, with their
    Wirtinger derivatives in ``a``, as the inverse's Newton builds them."""
    z, p, fact, order0 = _rows(atoms, m)
    base = order0.astype(complex)
    for c, mu in fixed:
        t1, t2, _, _ = _inverse_terms(np.array([c]), z, p, fact)
        base = base + mu * (t1 + t2)[:, 0]
    t1, t2, da, dac = _inverse_terms(a, z, p, fact)
    return base + (t1 + t2).sum(axis=1), da, dac


def test_inverse_conditions_match_the_critical_numerator():
    # order-0 rows are m + z sum_k mu_k w_k/g_k, the function whose roots
    # _aberth finds; order-i rows are its z-derivatives by central
    # differences
    rng = np.random.default_rng(306)
    h = 1e-4
    for m in (1, 2, 3):
        a = 0.7 * (rng.random(4) - 0.5 + 1j * (rng.random(4) - 0.5))
        fixed = [(complex(0.5 * rng.random() + 0.2j), 2)]
        c = complex(0.3 * rng.random() - 0.4j)
        zeros = [(x, 1) for x in a] + [(fixed[0][0], 2)]

        def f(z):
            return m + z * sum(mu * (1 - abs(x) ** 2)
                               / ((z - x) * (1 - x.conjugate() * z))
                               for x, mu in zeros)

        rows, _, _ = inverse_rows(a, [(c, 3)], fixed, m)
        assert abs(rows[0] - f(c)) <= 1e-13 * abs(f(c)) + 1e-13
        d1 = (f(c + h) - f(c - h)) / (2 * h)
        d2 = (f(c + h) - 2 * f(c) + f(c - h)) / h ** 2
        assert abs(rows[1] - d1) <= 1e-6 * max(1.0, abs(d1))
        assert abs(rows[2] - d2) <= 1e-4 * max(1.0, abs(d2))


@pytest.mark.parametrize("atoms", [
    [(0.2 - 0.3j, 3), (-0.4 + 0.1j, 1)],     # Hermite orders 0-2
    [(0.2 - 0.3j, 1), (-0.4 + 0.1j, 1)],     # all of order 0
])
def test_inverse_wirtinger_blocks_match_central_difference(atoms):
    # with one fixed zero atom of multiplicity 2 that carries no unknowns
    rng = np.random.default_rng(307)
    h = 1e-6
    for m in (1, 2, 3):
        a = 0.8 * (rng.random(4) - 0.5 + 1j * (rng.random(4) - 0.5))
        fixed = [(complex(0.1 + 0.5j), 2)]
        _, da, dac = inverse_rows(a, atoms, fixed, m)
        for k in range(len(a)):
            # real and imaginary directions of a_k
            for u, want in ((1.0, da[:, k] + dac[:, k]),
                            (1j, 1j * (da[:, k] - dac[:, k]))):
                up, down = a.copy(), a.copy()
                up[k] += h * u
                down[k] -= h * u
                fd = (inverse_rows(up, atoms, fixed, m)[0]
                      - inverse_rows(down, atoms, fixed, m)[0]) / (2.0 * h)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(fd - want)) <= 1e-6 * scale


def test_zeros_from_critical_multiple_atom():
    R = Divisor([(0.3 + 0.1j, 2), (-0.5j, 1)], "interior")
    B = zeros_from_critical(R, 1)
    assert B.e == 3
    # the forward map splits the double atom by about sqrt(eps)
    assert matching_distance(critical_divisor(B).free_ram, R) <= 1e-7


@pytest.mark.parametrize("e", [8, 12])
def test_zeros_from_critical_high_degree(e):
    rng = np.random.default_rng(300 + e)
    Z = random_zeros(rng, e, 0.7)
    m = int(rng.integers(1, 4))
    R = critical_divisor(from_zero_divisor(Z, m)).free_ram
    B = zeros_from_critical(R, m)
    assert matching_distance(critical_divisor(B).free_ram, R) <= 1e-8
    assert matching_distance(B.free_zeros, Z) <= 1e-8


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("double, simple", [(0.3 + 0.1j, -0.5j),
                                            (0.2 + 0.1j, -0.3 + 0j)])
def test_zeros_from_critical_returns_a_double_zero_as_one_atom(double, simple,
                                                               m):
    # the double zero's critical atom 1*double stalls the path with two
    # zeros collapsing onto it; the zero atom is then fixed exactly
    Z = Divisor([(double, 2), (simple, 1)], "interior")
    R = critical_divisor(from_zero_divisor(Z, m)).free_ram
    atoms = zeros_from_critical(R, m).free_zeros.atoms
    assert [mu for _, mu in atoms if mu > 1] == [2]
    ((c, _),) = [(c, mu) for c, mu in atoms if mu == 2]
    assert abs(c - double) <= 1e-12
    assert matching_distance(Divisor(atoms, "interior"), Z) <= 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_zeros_from_critical_triple_zero_round_trip(m):
    Z = Divisor([(0.5 + 0j, 3)], "interior")
    R = critical_divisor(from_zero_divisor(Z, m)).free_ram
    B = zeros_from_critical(R, m)
    assert matching_distance(critical_divisor(B).free_ram, R) <= 1e-8
    assert B.free_zeros.atoms == ((0.5 + 0j, 3),)


def rotated(points, angle: float = 0.7) -> list[complex]:
    """``points`` turned by ``exp(i angle)``: their critical points are
    symmetric under ``z -> exp(2i angle) conj(z)``, not under
    conjugation."""
    return [complex(z) * cmath.exp(1j * angle) for z in points]


@pytest.mark.parametrize("zeros, m", [([0.5, 0.75], 1),
                                      ([-0.5, -0.1, 0.6, 0.7], 1),
                                      ([-0.8, -0.6, -0.4, -0.3], 3),
                                      (rotated([0.5, 0.75]), 1),
                                      (rotated([-0.5, -0.1, 0.6, 0.7]), 1),
                                      (rotated([-0.8, -0.6, -0.4, -0.3]), 3)])
def test_zeros_from_critical_real_zeros(zeros, m):
    # real critical points keep the path t*R real, where two tracked
    # zeros meet at a double zero and branch into a conjugate pair
    Z = interior_divisor(zeros)
    R = critical_divisor(from_zero_divisor(Z, m)).free_ram
    assert matching_distance(zeros_from_critical(R, m).free_zeros, Z) <= 1e-8


def test_zeros_from_critical_stall_carries_last_good_t(monkeypatch):
    # Newton fails once an atom's point passes 0.6 of the largest modulus,
    # so the path stalls just below t = 0.6, where no zeros collapse
    R = Divisor([(0.5 + 0.2j, 1), (-0.3j, 1)], "interior")
    newton = blaschke._inverse_newton
    reach = 0.6 * max(abs(c) for c, _ in R.atoms)

    def failing_beyond_reach(a, z, *rest):
        return newton(a, z, *rest) if abs(z).max() <= reach else None

    monkeypatch.setattr(blaschke, "_inverse_newton", failing_beyond_reach)
    with pytest.raises(ContinuationError) as info:
        zeros_from_critical(R, 1)
    t = info.value.last_good_t
    assert 0.5 <= t <= 0.6
    assert str(info.value) == f"continuation stalled at t = {t:.6g}"


def random11_draws():
    """Zero divisors and ``m`` of ``random.Random(11)``: e = randint(8, 16),
    m = randint(1, 3), each zero at radius 0.97 sqrt(U) and angle 2 pi U."""
    rng = random.Random(11)
    while True:
        e, m = rng.randint(8, 16), rng.randint(1, 3)
        yield Divisor([(0.97 * math.sqrt(rng.random())
                        * cmath.exp(2j * math.pi * rng.random()), 1)
                       for _ in range(e)], "interior"), m


#: ``random11_draws`` on which Newton in the coefficients of the zero
#: polynomial stalled at t = 0.89-0.998: the expanded critical numerator
#: had a rounding floor above the absolute stop.
RANDOM11_COEFFICIENT_STALLS = (6, 37, 58, 70, 92, 107, 156, 242, 271, 282,
                               290, 294)


def test_zeros_from_critical_random11_coefficient_stalls():
    draws = random11_draws()
    for i in range(max(RANDOM11_COEFFICIENT_STALLS) + 1):
        Z, m = next(draws)
        if i not in RANDOM11_COEFFICIENT_STALLS:
            continue
        R = critical_divisor(from_zero_divisor(Z, m)).free_ram
        B = zeros_from_critical(R, m)
        assert matching_distance(critical_divisor(B).free_ram, R) <= 1e-8, i


#: Draw 6794 of e = 23 zeros inside radius 0.9 (m = 3): the roots of the
#: expanded critical numerator include points far from any critical point.
DRAW_6794 = [
    complex(-0.790370558389701, 0.19986033116597876),
    complex(-0.7491235193950853, -0.1893988411873782),
    complex(-0.5252948334596039, -0.6737213911082071),
    complex(-0.4497962642536429, 0.6061473709905476),
    complex(-0.3998046819780143, -0.7160370583109992),
    complex(-0.18493500653630054, -0.2196597536311368),
    complex(-0.16670387455825167, -0.5475692132048833),
    complex(-0.15502548034310482, -0.8240597414352446),
    complex(-0.11293574300608189, -0.84217724107976),
    complex(-0.08962740836459206, -0.1653962746463287),
    complex(-0.08546497807404153, -0.35873937958830676),
    complex(-0.02599771969570353, -0.3967594314120894),
    complex(-0.021568000206401906, -0.46323635723017176),
    complex(-0.006763749566029074, -0.6148403026135439),
    complex(0.047725332985497006, -0.7700994112304815),
    complex(0.06734382949553255, -0.8907518823080194),
    complex(0.1515429382080544, -0.6564263965618846),
    complex(0.19902504263555215, -0.7702498535517741),
    complex(0.22296435171658668, -0.44491312752368384),
    complex(0.34002110608199543, -0.319354203939547),
    complex(0.4598828076104585, 0.4464926318381051),
    complex(0.5646977107615982, -0.38544482473322156),
    complex(0.6075876567138315, -0.16233004195598338),
]


def test_critical_divisor_returns_only_critical_points():
    B = from_zero_divisor(interior_divisor(DRAW_6794), 3)
    pts = critical_divisor(B).free_ram.points()
    assert len(pts) == 23
    for c in pts:
        # |B'| = |B| |m/c + sum (1-|a|^2)/((c-a)(1-conj(a)c))| from the
        # product form, independent of the numerator the map solves
        log_deriv = 3 / c + sum((1 - abs(a) ** 2) / ((c - a) * (1 - a.conjugate() * c))
                                for a in DRAW_6794)
        assert abs(B.eval(c) * log_deriv) <= 1e-9
    assert walsh_check(B)


def product_form_deriv(zeros, m: int, pts) -> np.ndarray:
    """``|B'| = |B| |m/c + sum (1-|a|^2)/((c-a)(1-conj(a)c))|`` at each
    ``c`` in ``pts``, from the product form alone."""
    a = np.asarray(zeros, dtype=complex)
    c = np.asarray(pts, dtype=complex)[:, None]
    h = 1.0 - np.conj(a) * c
    modulus = abs(c[:, 0]) ** m * np.prod(abs((c - a) / h), axis=1)
    log_deriv = m / c[:, 0] + ((1.0 - abs(a) ** 2) / ((c - a) * h)).sum(axis=1)
    return modulus * abs(log_deriv)


def test_critical_divisor_multiple_zero_atoms_are_exact():
    # 3*(0.5), m = 1: B'/B = 1/z + 2.25/((z-0.5)(1-0.5z)), so the free
    # critical divisor is 2*(0.5) + 1*((7-3 sqrt 5)/2)
    B = from_zero_divisor(Divisor([(0.5 + 0j, 3)], "interior"), 1)
    (c, one), double = critical_divisor(B).free_ram.atoms
    assert double == (0.5 + 0j, 2) and one == 1
    assert abs(c - (7.0 - 3.0 * math.sqrt(5.0)) / 2.0) <= 1e-15
    B = from_zero_divisor(Divisor([(0j, 2), (0.4 + 0.2j, 2)], "interior"), 1)
    atoms = critical_divisor(B).free_ram.atoms
    assert (0j, 2) in atoms and (0.4 + 0.2j, 1) in atoms
    assert sum(mu for _, mu in atoms) == 4
    (c,) = [z for z, _ in atoms if z not in (0j, 0.4 + 0.2j)]
    zeros = [0, 0, 0.4 + 0.2j, 0.4 + 0.2j]
    assert product_form_deriv(zeros, 1, [c])[0] <= 1e-12


def test_critical_divisor_subnormal_zero_is_a_numerical_error():
    # the factors 1/((z-a)(1-conj(a)z)) overflow next to a subnormal
    # zero; the failure is the package's error, not numpy's
    B = from_zero_divisor(interior_divisor([2.2250738585e-313]), 1)
    with pytest.raises(NumericalError):
        critical_divisor(B)


def factored_verdicts(a, mu, m, norm, z) -> bool:
    """Reference for ``blaschke._checked``: the same three tests on the
    factored numerator ``M = m prod_k g_k + z sum_k mu_k w_k prod_(j!=k)
    g_j`` of ``B'``, with the products over the other zeros by prefix
    and suffix cumulative products, and ``B'/prod_k phi_k^(mu_k-1) =
    norm z^(m-1) M/Q^2``; whether every point passes."""
    zc = z[:, None]
    h = 1.0 - a.conjugate() * zc
    g = (zc - a) * h
    ones = np.ones((len(z), 1))
    others = (np.cumprod(np.concatenate((ones, g), axis=1), axis=1)[:, :-1]
              * np.cumprod(np.concatenate((ones, g[:, ::-1]), axis=1),
                           axis=1)[:, -2::-1])
    w = mu * (1.0 - abs(a) ** 2)
    mpq = m * g.prod(axis=1)
    mv = mpq + z * (others @ w)
    dv = norm * z ** (m - 1) * mv / h.prod(axis=1) ** 2
    terms = abs(mpq) + abs(z) * (abs(others) @ w)
    return bool(((abs(dv) <= blaschke.CRIT_TOL)
                 & (abs(mv) < blaschke._RESIDUAL_TOL * terms)
                 & (abs(z) < 1.0)).all())


def test_partial_fraction_check_matches_the_factored_form(monkeypatch):
    # e = 1..24 at radii up to 1 - 1e-6, every fifth draw with doubled
    # zeros, each at the points Aberth found and moved off them
    rng = np.random.default_rng(27)
    verdicts = []
    for i in range(300):
        e, m = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        r = (0.7, 0.9, 0.999, 0.999999)[i % 4]
        a = r * np.sqrt(rng.random(e)) * np.exp(2j * np.pi * rng.random(e))
        mu = np.full(e, 2 if i % 5 == 0 else 1)
        norm = from_zero_divisor(
            Divisor(list(zip(a, mu.tolist())), "interior"), m).normalization
        z = np.asarray(blaschke._aberth(a, mu, m)[0])
        for move in (0.0, 1e-9, 1e-6, 1e-3):
            moved = z * (1.0 + move * np.exp(2j * np.pi * rng.random(z.shape)))
            with np.errstate(all="ignore"):
                want = factored_verdicts(a, mu, m, norm, moved)
            got = blaschke._checked(a, mu, m, moved, *fresh_evaluation(
                a, mu, m, moved)[:2]) is None
            assert got == want, (e, m, r, move)
            verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)
    # the scalar run of a subnormal zero starts at its exact root, where
    # the check still fails, since its 1/g_k overflows
    a, mu = np.array([2.2250738585e-313 + 0j]), np.ones(1, int)
    z, _, r, f = blaschke._aberth(a, mu, 1)
    assert blaschke._checked(a, mu, 1, z, r, f) is not None
    # and the numpy run's points fail both forms
    monkeypatch.setattr(blaschke, "_SCALAR_D", 0)
    z, _, r, f = blaschke._aberth(a, mu, 1)
    with np.errstate(all="ignore"):
        assert not factored_verdicts(a, mu, 1, 1.0, z)
    assert blaschke._checked(a, mu, 1, z, r, f) is not None


def fresh_evaluation(a, mu, m, z):
    """``1/g_k``, ``f = m + z sum_k mu_k w_k/g_k`` and the sum of the
    moduli of the terms of ``f`` at the ``d`` points ``z``."""
    z = np.asarray(z)
    zc = z[:, None]
    r = 1.0 / ((zc - a) * (1.0 - a.conjugate() * zc))
    w = mu * (1.0 - abs(a) ** 2)
    return (r, m + z * (r * w).sum(axis=1),
            m + abs(z) * (abs(r) * w).sum(axis=1))


def assert_check_reads_the_run(a, mu, m, run) -> None:
    """Assert that the points of an ``_aberth`` run lie inside the disk,
    that its ``r`` and ``f`` belong to them, and that the check given
    them reaches the verdict of the check given a fresh evaluation."""
    z, _, r, f = run
    assert (abs(np.asarray(z)) < 1.0).all()
    want_r, want_f, scale = fresh_evaluation(a, mu, m, z)
    assert np.allclose(r, want_r, rtol=1e-13, atol=0.0)
    assert (abs(np.asarray(f) - want_f) <= 1e-13 * scale).all()
    got = blaschke._checked(a, mu, m, z, r, f)
    want = blaschke._checked(a, mu, m, z, want_r, want_f)
    assert (got is None) == (want is None)


def test_check_reads_aberths_last_evaluation():
    # three products of e = 1..24 zeros, at radii 0.7, 0.9 and 0.999,
    # run from the seeds and again from the mirrors of the roots found:
    # that run ends on roots outside the disk and runs on from their
    # mirrors, back to the roots inside, evaluated there
    rng = np.random.default_rng(2803)
    for e in range(1, 25):
        for m in (1, 2, 3):
            for _ in range(8):
                radius = np.array([0.7, 0.9, 0.999])[:, None]
                rows = radius * np.sqrt(rng.random((3, e))) * np.exp(
                    2j * np.pi * rng.random((3, e)))
                mu = np.ones(e, int)
                for a in rows:
                    run = blaschke._aberth(a, mu, m)
                    assert_check_reads_the_run(a, mu, m, run)
                    z = np.asarray(run[0])
                    mirrored = blaschke._aberth(a, mu, m, 1.0 / z.conjugate())
                    assert_check_reads_the_run(a, mu, m, mirrored)
                    assert mirrored[1]
                    assert abs(np.asarray(mirrored[0]) - z).max() <= 1e-15


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_check_reads_the_evaluation_at_the_step_cap(steps, monkeypatch):
    # a run cut short ends on one more evaluation, at the points it
    # returns, not on the evaluation before its last step
    monkeypatch.setattr(blaschke, "_ABERTH_STEPS", steps)
    rng = np.random.default_rng(2804)
    for e in (1, 2, 5, 12, 24):
        rows = 0.9 * np.sqrt(rng.random((2, e))) * np.exp(
            2j * np.pi * rng.random((2, e)))
        mu = np.ones(e, int)
        for a in rows:
            run = blaschke._aberth(a, mu, 2)
            # one zero's seed is its exact critical point
            assert not run[1] or e == 1
            assert_check_reads_the_run(a, mu, 2, run)


def test_check_reads_the_capped_run_of_a_triple_atom(monkeypatch):
    # the inverse's check of 3*(0.5) starts its copies on a circle and
    # never converges in step size
    runs, aberth = [], blaschke._aberth

    def recorded(a, mu, m, start=None):
        run = aberth(a, mu, m, start)
        runs.append((a, mu, m, run))
        return run

    monkeypatch.setattr(blaschke, "_aberth", recorded)
    with pytest.raises(NumericalError, match="round trip off"):
        zeros_from_critical(Divisor([(0.5 + 0j, 3)], "interior"), 1)
    ((a, mu, m, run),) = runs
    assert not run[1]
    assert_check_reads_the_run(a, mu, m, run)


def test_one_zero_critical_is_the_same_for_numbers_and_arrays():
    # every operation is correctly rounded on equal operands, so the two
    # forms agree bit for bit, out to |a| = 1
    rng = np.random.default_rng(3301)
    radius = np.concatenate((np.sqrt(rng.random(2000)), [0.0, 1.0],
                             1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 1000)))
    a = radius * np.exp(2j * np.pi * rng.random(len(radius)))
    for m in (1, 2, 3, 7):
        got = [blaschke._one_zero_critical(complex(x), m) for x in a]
        assert all(type(c) is complex for c in got)
        assert np.array_equal(np.array(got), blaschke._one_zero_critical(a, m))


@pytest.mark.parametrize("tiny", [2.2250738585e-313, 1e-320])
def test_subnormal_zero_is_a_numerical_error_on_both_routes(tiny, route):
    # no ZeroDivisionError or OverflowError escapes the scalar route
    for zeros in ([tiny], [tiny, 0.5], [tiny, 0.3j, -0.4]):
        with pytest.raises(NumericalError):
            critical_divisor(from_zero_divisor(interior_divisor(zeros), 1))


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_scalar_check_reads_the_evaluation_at_the_step_cap(steps,
                                                           monkeypatch):
    monkeypatch.setattr(blaschke, "_ABERTH_STEPS", steps)
    rng = np.random.default_rng(3302)
    for d in range(1, blaschke._SCALAR_D + 1):
        for doubled in (0, 1):
            a = 0.9 * np.sqrt(rng.random(d)) * np.exp(
                2j * np.pi * rng.random(d))
            mu = np.ones(d, int)
            mu[0] += doubled
            run = blaschke._aberth(a, mu, 2)
            assert isinstance(run[2], list)
            # one simple zero starts at its exact root
            assert run[1] == (steps > 0 and d == 1 and not doubled)
            assert_check_reads_the_run(a, mu, 2, run)


def test_a_lone_run_that_ends_outside_runs_on_from_the_mirrors(route):
    # started at the mirrors of its roots, exterior roots of F, the run of
    # a lone product ends outside the disk and runs on, in the same call,
    # back to the roots inside, where its last evaluation is
    rng = np.random.default_rng(3501)
    for d in range(1, SCALAR_D + 1):
        for radius in (0.7, 0.999):
            for m in (1, 2, 3):
                a = radius * np.sqrt(rng.random(d)) * np.exp(
                    2j * np.pi * rng.random(d))
                mu = np.ones(d, int)
                z = np.asarray(blaschke._aberth(a, mu, m)[0])
                run = blaschke._aberth(a, mu, m, 1.0 / z.conjugate())
                assert isinstance(run[2], list) == (route == "scalar")
                assert run[1] and abs(np.asarray(run[0]) - z).max() <= 1e-15
                assert_check_reads_the_run(a, mu, m, run)
                assert blaschke._checked(a, mu, m, run[0], *run[2:]) is None


def test_aberth_converges_on_real_zeros_on_both_routes(route, monkeypatch):
    runs, aberth = [], blaschke._aberth

    def recorded(*args):
        z, converged, r, f = aberth(*args)
        runs.append((converged, isinstance(r, list)))
        return z, converged, r, f

    monkeypatch.setattr(blaschke, "_aberth", recorded)
    rng = np.random.default_rng(3303)
    for e in range(1, SCALAR_D + 1):
        for _ in range(20):
            zeros = rng.uniform(-0.95, 0.95, e)
            critical_divisor(from_zero_divisor(interior_divisor(zeros),
                                               int(rng.integers(1, 4))))
    assert runs == [(True, route == "scalar")] * (20 * SCALAR_D)


def test_scalar_route_equals_the_numpy_route(monkeypatch):
    # every d up to the crossover, from the seeds and from points near the
    # roots as the inverse's check starts, at radii out to 1 - 1e-6, with
    # m = 1..3 and with a doubled zero.  Near the circle each route stops
    # at its own rounding floor: 2 of 1800 seeded draws there put them
    # more than 4e-15 apart, at most 7.2e-15, where the numpy point lay
    # 5.0e-15 and the scalar one 2.0e-15 from a 40-digit root
    def forward(a, mu, m, start, scalar_d):
        monkeypatch.setattr(blaschke, "_SCALAR_D", scalar_d)
        z, converged, r, f = blaschke._aberth(a, mu, m, start)
        assert isinstance(r, list) == (scalar_d > 0)
        return (np.asarray(z), converged,
                blaschke._checked(a, mu, m, z, r, f) is None)

    rng = np.random.default_rng(3304)
    crossover = blaschke._SCALAR_D
    for d in range(1, crossover + 1):
        for radius in (0.7, 0.9, 0.999, 1.0 - 1e-6):
            for m in (1, 2, 3):
                for doubled in (0, 1):
                    a = radius * np.sqrt(rng.random(d)) * np.exp(
                        2j * np.pi * rng.random(d))
                    mu = np.ones(d, int)
                    mu[0] += doubled
                    roots = forward(a, mu, m, None, 0)[0]
                    near = roots * (1.0 + 1e-9 * np.exp(
                        2j * np.pi * rng.random(d)))
                    for start in (None, near):
                        want = forward(a, mu, m, start, 0)
                        got = forward(a, mu, m, start, crossover)
                        assert got[1:] == want[1:], (d, radius, m, doubled)
                        assert abs(got[0] - want[0]).max() <= (
                            1e-15 if radius < 0.95 else 1e-14)


def test_forward_map_needs_no_factored_derivative(monkeypatch):
    def refuse(*args):
        raise AssertionError("BlaschkeProduct.deriv called")

    monkeypatch.setattr(BlaschkeProduct, "deriv", refuse)
    B = from_zero_divisor(Divisor([(0.3 + 0.2j, 2), (-0.5j, 1)], "interior"), 2)
    assert critical_divisor(B).free_ram.degree == 3
    assert walsh_check(B)


def test_critical_divisor_residual_count():
    for zeros, want in (([0, 0.3 + 0.1j], 1), ([0, 0, 0.5j], 1),
                        ([0.2, 0.4j], 2), ([0.5, 0.5, 0.5], 3)):
        B = from_zero_divisor(Divisor([(complex(z), 1) for z in zeros],
                                      "interior"), 1)
        assert critical_divisor(B).residual_count == want


#: The 25th draw of 24 zeros inside 0.999 from ``default_rng(24)`` (m = 1):
#: refining the roots of the expanded numerator left a point outside the
#: disk.
NEAR_CIRCLE_24 = [
    complex(-0.08409537817203515, -0.6374712341495176),
    complex(0.35331999398864816, -0.8885693440006285),
    complex(-0.24387282227247933, 0.36402048319726),
    complex(-0.26233420221038156, -0.8992748735766114),
    complex(-0.6318530147631408, -0.6836808828326272),
    complex(0.39566654547596786, -0.7823163105840621),
    complex(0.6050941450875866, -0.6545184277976064),
    complex(-0.275594377699692, 0.6858993126638494),
    complex(0.2999232565872538, -0.8424932572825149),
    complex(-0.07020271930948595, 0.3694807295617592),
    complex(0.5260064713431811, 0.3033018636591345),
    complex(0.27371664468408474, -0.8554285786979704),
    complex(0.29579066838487916, 0.11159488459033941),
    complex(-0.0015472896899553059, -0.6747172132935391),
    complex(0.43963793388641786, -0.8703696963703208),
    complex(0.4778806676125721, 0.8317878824102718),
    complex(0.820022811476526, 0.37662254898858893),
    complex(-0.01614786126241031, -0.1105996447003502),
    complex(0.10183164925687563, 0.7530285384394451),
    complex(0.6062502773837339, -0.029588082806042613),
    complex(-0.1904082846322059, 0.04391564853854896),
    complex(0.7754444338061696, 0.594409952272375),
    complex(0.8755111141832121, -0.17953230887884564),
    complex(0.11091321299362684, -0.5643732773360759),
]


def test_critical_divisor_near_circle_draw():
    B = from_zero_divisor(interior_divisor(NEAR_CIRCLE_24), 1)
    ram = critical_divisor(B).free_ram
    assert len(ram.atoms) == 24
    pts = ram.points()
    assert all(abs(c) < 1.0 for c in pts)
    assert np.max(product_form_deriv(NEAR_CIRCLE_24, 1, pts)) <= 1e-12


def test_critical_divisor_seeded_accuracy():
    rng = np.random.default_rng(1111)

    def check(zeros, m):
        B = from_zero_divisor(interior_divisor(zeros), m)
        ram = critical_divisor(B).free_ram
        # simple critical points: none found twice, none missed
        assert len(ram.atoms) == len(zeros)
        pts = ram.points()
        assert np.max(product_form_deriv(zeros, m, pts)) <= 1e-9

    for degrees in ((8, 16, 24), range(1, 7)):
        for radius in (0.9, 0.999):
            for e in degrees:
                for _ in range(40):
                    zeros = radius * np.sqrt(rng.random(e)) * np.exp(
                        2j * np.pi * rng.random(e))
                    check(zeros, int(rng.integers(1, 4)))
    # e = 2 near the circle: one zero 1e-3 from it, the other 1e-4..1e-2
    for _ in range(40):
        gaps = np.array([1e-3, 10.0 ** rng.uniform(-4.0, -2.0)])
        zeros = (1.0 - gaps) * np.exp(2j * np.pi * rng.random(2))
        check(zeros, int(rng.integers(1, 4)))


@pytest.mark.parametrize("tiny", [1e-60, 1e-100, 1e-300])
def test_critical_divisor_keeps_a_tiny_zeros_critical_point(tiny):
    # near 0, |B'| is about tiny at a root and off it alike, while the
    # factored numerator is small only at a root: the point near tiny/2,
    # and, as a zero at 0 would give, the m = 2 point of 0.5
    B = from_zero_divisor(interior_divisor([tiny, 0.5]), 1)
    (small, one), (big, other) = critical_divisor(B).free_ram.atoms
    assert one == other == 1
    assert abs(small - tiny / 2) <= 1e-9 * tiny
    assert abs(big - phi_1m_closed_form(0.5, 2)) <= 1e-12


def test_critical_divisor_reuses_the_inverse_check(aberth_calls):
    B = zeros_from_critical(interior_divisor([0.3, 0.2 + 0.4j]), 2)
    aberth_calls.clear()
    first, second = critical_divisor(B), critical_divisor(B)
    assert walsh_check(B)
    assert aberth_calls == []
    assert first is not second and first.free_ram == second.free_ram
    fresh = critical_divisor(BlaschkeProduct(B.free_zeros, B.m))
    assert len(aberth_calls) == 1
    # the inverse's run starts at R and a cold one at the seeds, so the
    # points agree to rounding, not always bit for bit
    assert matching_distance(first.free_ram, fresh.free_ram) <= 1e-12
    assert first.residual_count == fresh.residual_count == 2


def small_t_reference(points: np.ndarray, m: int):
    """The inverse's small-t start as ``np.poly`` and the companion
    matrix give it: the eigenvalues of the companion matrix of ``z^e +
    sum_k (m+e)c_k/(m+k) z^k``, ``c`` from ``np.poly(points)``, and that
    polynomial's coefficients, highest first."""
    e = len(points)
    k = np.arange(e - 1, -1, -1)
    q = np.concatenate(([1.0], (m + e) / (m + k) * np.poly(points)[1:]))
    comp = np.eye(e, k=-1, dtype=complex)
    comp[0] = -q[1:]
    return np.linalg.eigvals(comp), q


def test_inverse_starts_at_the_companion_start(monkeypatch):
    # the Vieta coefficients round differently from np.poly's, and the
    # companion eigenvalues amplify that with the degree: up to e = 12
    # the starts agree to 1e-12, beyond it they are roots of the same
    # polynomial to the reference's own backward error
    guesses, newton = [], blaschke._inverse_newton

    def recorded(*args):
        guesses.append(args[0])
        return newton(*args)

    monkeypatch.setattr(blaschke, "_inverse_newton", recorded)
    rng = np.random.default_rng(2802)
    for e in range(1, 25):
        for m in (1, 2, 3):
            R = critical_divisor(from_zero_divisor(
                random_zeros(rng, e, 0.9), m)).free_ram
            guesses.clear()
            zeros_from_critical(R, m)
            want, q = small_t_reference(np.array(R.points()), m)
            got = guesses[0]
            # some roots lie outside the disk, where a Divisor cannot go;
            # nearest neighbours that form a matching bound its distance
            near = abs(got[:, None] - want).argmin(axis=1)
            assert sorted(near) == list(range(e))
            assert abs(got - want[near]).max() <= (
                1e-12 if e <= 12 else 1e-8), (e, m)
            backward = abs(np.polyval(q, got)) / np.polyval(abs(q), abs(got))
            assert backward.max() <= 1e-12, (e, m)


def test_inverse_check_starts_at_R(aberth_calls):
    # the inverse's one forward map runs from the points of R, and the
    # divisor it stores agrees with a cold run from the seeds
    rng = np.random.default_rng(2601)
    for radius in (0.7, 0.9):
        for e in range(1, 13):
            for m in (1, 2, 3):
                Z = random_zeros(rng, e, radius)
                R = critical_divisor(from_zero_divisor(Z, m)).free_ram
                aberth_calls.clear()
                B = zeros_from_critical(R, m)
                ((_, _, _, start),) = aberth_calls
                assert matching_distance(Divisor(
                    [(z, 1) for z in start], "interior"), R) == 0.0
                fresh = critical_divisor(BlaschkeProduct(B.free_zeros, m))
                assert matching_distance(critical_divisor(B).free_ram,
                                         fresh.free_ram) <= 1e-12


def moved_zeros(monkeypatch, shift: float) -> None:
    """Make the inverse's continuation return every zero moved by
    ``shift``, as a wrong solve would."""
    track = blaschke._continue_zeros

    def moved(*args):
        a, t, done = track(*args)
        return a + shift, t, done

    monkeypatch.setattr(blaschke, "_continue_zeros", moved)


@pytest.mark.parametrize("double", [False, True])
def test_inverse_check_started_at_R_rejects_moved_zeros(double, monkeypatch):
    # the run leaves R for the roots of the product it checks, so zeros
    # 1e-4 off fail in the matching, not in the critical-point test
    R = (Divisor([(0.3 + 0.1j, 2), (-0.5j, 1)], "interior") if double else
         critical_divisor(from_zero_divisor(interior_divisor(
             [0.3, 0.2 + 0.4j, -0.5 - 0.1j]), 2)).free_ram)
    moved_zeros(monkeypatch, 1e-4)
    with pytest.raises(NumericalError, match="round trip off"):
        zeros_from_critical(R, 1)


def test_inverse_check_spreads_a_repeated_atom(aberth_calls):
    R = Divisor([(0.3 + 0.1j, 2), (-0.5j, 1)], "interior")
    zeros_from_critical(R, 1)
    ((_, _, _, start),) = aberth_calls
    near = sorted(abs(np.asarray(start) - (0.3 + 0.1j)))
    assert near[0] == near[1] == pytest.approx(1e-4, rel=1e-9)
    assert near[2] > 0.5


@pytest.mark.parametrize("atoms, m, verdict", [
    ([(0.3 + 0.1j, 2), (-0.5j, 1)], 1, None),
    ([(0j, 2), (0.4 + 0.2j, 1)], 1, None),
    ([(0j, 2), (0.3 + 0.1j, 2), (-0.5j, 1)], 2, None),
    ([(0.5 + 0j, 3)], 1, NumericalError)])
def test_inverse_verdicts_on_multiple_atoms(atoms, m, verdict):
    # a triple critical atom splits by about eps^(1/3) in the forward
    # map, past the 1e-7 check
    R = Divisor(atoms, "interior")
    if verdict:
        with pytest.raises(verdict, match="round trip off"):
            zeros_from_critical(R, m)
    else:
        B = zeros_from_critical(R, m)
        assert matching_distance(critical_divisor(B).free_ram, R) <= 1e-7


def test_inverse_check_skips_a_fixed_zero_atom(aberth_calls):
    # the double zero's critical atom 1*double is exact, so the run
    # starts at the simple atoms only
    Z = Divisor([(0.3 + 0.1j, 2), (-0.5j, 1)], "interior")
    R = critical_divisor(from_zero_divisor(Z, 1)).free_ram
    aberth_calls.clear()
    B = zeros_from_critical(R, 1)
    ((_, _, _, start),) = aberth_calls
    assert len(start) == 2
    assert matching_distance(Divisor([(z, 1) for z in start], "interior"),
                             Divisor([(c, k) for c, k in R.atoms
                                      if abs(c - (0.3 + 0.1j)) > 1e-12],
                                     "interior")) == 0.0
    assert matching_distance(critical_divisor(B).free_ram, R) <= 1e-8


def test_aberth_converges_on_real_zeros(monkeypatch):
    # a real input's points can land on roots where f is exactly 0; the
    # step f/(f' + f S) is 0 there, so the run stops instead of spending
    # every step; and each product takes one run, with no retry
    runs, aberth = [], blaschke._aberth

    def recorded(*args):
        z, converged, r, f = aberth(*args)
        runs.append(converged)
        return z, converged, r, f

    monkeypatch.setattr(blaschke, "_aberth", recorded)
    rng = np.random.default_rng(1113)
    for e in range(2, 13):
        for _ in range(20):
            zeros = rng.uniform(-0.95, 0.95, e)
            critical_divisor(from_zero_divisor(interior_divisor(zeros),
                                               int(rng.integers(1, 4))))
    assert len(runs) == 11 * 20 and all(runs)


def test_critical_divisor_result_is_a_copy():
    B = from_zero_divisor(interior_divisor([0.6]), 1)
    want = critical_divisor(B).free_ram
    result = critical_divisor(B)
    result.free_ram, result.residual_count = Divisor([], "interior"), 0
    assert critical_divisor(B).free_ram == want
    assert critical_divisor(B).residual_count == 1


def test_critical_divisor_equal_products_each_solve_once(aberth_calls):
    Z = interior_divisor([0.3, -0.5j, 0.1 + 0.6j])
    first, second = from_zero_divisor(Z, 1), from_zero_divisor(Z, 1)
    for B in (first, second, first, second):
        critical_divisor(B)
    assert len(aberth_calls) == 2


def test_critical_divisor_failure_is_not_stored(aberth_calls, monkeypatch):
    B = from_zero_divisor(interior_divisor([2.2250738585e-313]), 1)
    for _ in range(2):
        with pytest.raises(NumericalError):
            critical_divisor(B)
    monkeypatch.setattr(blaschke, "CRIT_TOL", -1.0)
    B = from_zero_divisor(interior_divisor([0.3, 0.5j]), 1)
    aberth_calls.clear()
    with pytest.raises(NumericalError):
        critical_divisor(B)
    solves = len(aberth_calls)    # one run, no retry
    with pytest.raises(NumericalError):
        critical_divisor(B)
    assert solves == 1 and len(aberth_calls) == 2 * solves


@pytest.mark.parametrize("name", ["m", "free_zeros", "normalization"])
def test_product_attributes_are_read_only(name):
    B = from_zero_divisor(interior_divisor([0.6]), 1)
    with pytest.raises(AttributeError):
        setattr(B, name, getattr(B, name))


def _loaded_after_import(statement: str, modules: list[str]) -> list[bool]:
    """Run ``statement`` in a fresh interpreter and report which of
    ``modules`` it left in ``sys.modules``."""
    import blaschkediv
    src = os.path.dirname(os.path.dirname(blaschkediv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys; {statement}; "
         f"print(json.dumps([m in sys.modules for m in {modules!r}]))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_leaves_mpmath_unloaded():
    assert _loaded_after_import("import blaschkediv", ["mpmath"]) == [False]


def test_package_and_cli_import_leave_scipy_unloaded():
    assert _loaded_after_import("import blaschkediv, blaschkediv.cli",
                                ["scipy", "mpmath"]) == [False, False]


def test_multiplier_examples():
    assert multiplier_at_zero(from_zero_divisor(Divisor([], "interior"),
                                                2)) == 0j
    B = from_zero_divisor(interior_divisor([0.5]), 1)
    assert multiplier_at_zero(B) == pytest.approx(-0.5 + 0j, abs=1e-15)
    B = from_zero_divisor(interior_divisor([0.5, -0.3, 0.2]), 1)
    assert multiplier_at_zero(B) == pytest.approx(
        (-0.5) * 0.3 * (-0.2) + 0j, abs=1e-14)


def test_multiplier_schwarz_bound():
    rng = np.random.default_rng(306)
    for _ in range(20):
        Z = random_zeros(rng, int(rng.integers(1, 6)), 0.9)
        B = from_zero_divisor(Z, 1)
        mult = multiplier_at_zero(B)
        product = math.prod(abs(z) for z in Z.points())
        assert abs(mult) == pytest.approx(product, abs=1e-12)
        assert abs(mult) < 1.0


def test_boundary_orbit_angle_doubling():
    B = from_zero_divisor(Divisor([], "interior"), 2)
    q = cmath.exp(2j * math.pi / 3.0)
    orbit = boundary_orbit(B, q, 1)
    assert orbit[0] == pytest.approx(q, abs=1e-15)
    assert orbit[1] == pytest.approx(cmath.exp(4j * math.pi / 3.0), abs=1e-14)


def test_boundary_orbit_fixed_point():
    B = from_zero_divisor(interior_divisor([0.4 + 0.1j]), 1)
    orbit = boundary_orbit(B, 1.0 + 0j, 5)
    assert all(abs(w - 1.0) <= 1e-12 for w in orbit)


def test_boundary_orbit_stays_on_circle():
    rng = np.random.default_rng(307)
    B = from_zero_divisor(random_zeros(rng, 3, 0.8), 1)
    q = cmath.exp(2j * math.pi * rng.random())
    orbit = boundary_orbit(B, q, 20)
    assert len(orbit) == 21
    for prev, cur in zip(orbit, orbit[1:]):
        assert abs(abs(cur) - 1.0) <= 1e-15
        w = B.eval(prev)
        assert abs(cur - w / abs(w)) <= 1e-12


def test_boundary_orbit_rejects_interior_point():
    B = from_zero_divisor(Divisor([], "interior"), 2)
    with pytest.raises(PreconditionError):
        boundary_orbit(B, 0.5 + 0j, 3)


@pytest.mark.parametrize("n", [2.5, math.nan, "3", None, -1, True, np.True_])
def test_boundary_orbit_refuses_a_non_integer_length(n):
    B = from_zero_divisor(Divisor([], "interior"), 2)
    with pytest.raises(PreconditionError,
                       match="orbit length must be a nonnegative integer"):
        boundary_orbit(B, 1j, n)


@pytest.mark.parametrize("m", [np.int64(1), 1.0])
def test_integral_m_of_any_type_is_stored_as_an_int(m):
    Z = interior_divisor([0.5, -0.3j])
    B = from_zero_divisor(Z, m)
    assert type(B.m) is int and B.m == 1
    assert critical_divisor(B).free_ram.atoms == critical_divisor(
        from_zero_divisor(Z, 1)).free_ram.atoms
    R = critical_divisor(from_zero_divisor(Z, 1)).free_ram
    inverse = zeros_from_critical(R, m)
    assert type(inverse.m) is int
    assert inverse.free_zeros.atoms == zeros_from_critical(
        R, 1).free_zeros.atoms
    assert phi_1m_closed_form(0.5, m) == phi_1m_closed_form(0.5, 1)


@pytest.mark.parametrize("n", [np.int64(3), 3.0])
def test_boundary_orbit_takes_an_integral_length_of_any_type(n):
    B = from_zero_divisor(interior_divisor([0.4j]), 2)
    assert boundary_orbit(B, 1j, n) == boundary_orbit(B, 1j, 3)


@pytest.mark.parametrize("m", [1.5, 0, math.nan, "1", np.int64(0), True,
                               np.True_])
def test_m_refusals_keep_their_message(m):
    Z = interior_divisor([0.5])
    R = interior_divisor([0.3])
    for call in (lambda: from_zero_divisor(Z, m),
                 lambda: zeros_from_critical(R, m),
                 lambda: phi_1m_closed_form(0.5, m)):
        with pytest.raises(PreconditionError,
                           match="m must be a positive integer"):
            call()


def test_walsh_spot_and_power_cases():
    assert walsh_check(from_zero_divisor(interior_divisor([0.6]), 1))
    assert walsh_check(from_zero_divisor(Divisor([], "interior"), 4))
    with pytest.raises(PreconditionError):
        walsh_check(from_zero_divisor(Divisor([], "interior"), 1))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
def test_walsh_check_refuses_a_non_finite_tol(tol):
    # NaN used to read as a failed certificate, +inf as a vacuous pass,
    # and a negative tol as a failed one
    B = from_zero_divisor(interior_divisor([0.6, -0.3j]), 1)
    with pytest.raises(PreconditionError):
        walsh_check(B, tol)


def test_walsh_check_equals_per_point_hull_tests():
    rng = np.random.default_rng(309)
    for e in range(1, 25):
        m = int(rng.integers(1, 4))
        B = from_zero_divisor(random_zeros(rng, e, 0.9), m)
        gens = [0j] + B.free_zeros.points()
        targets = ([0j] if m >= 2 else []) + \
            critical_divisor(B).free_ram.points()
        for tol in (1e-9, 0.0):
            assert walsh_check(B, tol) == all(
                hull_contains(gens, c, tol) for c in targets)


def test_walsh_randomized_property():
    rng = np.random.default_rng(308)
    for _ in range(50):
        e = int(rng.integers(0, 9))
        m = int(rng.integers(1, 4))
        if e + m < 2:
            continue
        B = from_zero_divisor(random_zeros(rng, e, 0.95), m)
        assert walsh_check(B, tol=1e-9)
