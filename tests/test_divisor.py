"""Tests for divisors: degree/simplicity, merging, the bottleneck
matching metric against brute-force, plain-Kuhn and scipy oracles,
boundary splitting, limits of sequences, and the JSON schema."""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
import pytest

from blaschkediv import (AmbiguousModulusError, Divisor, PreconditionError,
                         SchemaError, add, degree, divisor_from_json,
                         divisor_to_json, is_simple, matching_distance,
                         sequence_limit, split_boundary)
from blaschkediv.divisor import MERGE_TOL


def brute_force_bottleneck(D1: Divisor, D2: Divisor) -> float:
    """Oracle: min over all permutations of the max pointwise distance."""
    a = D1.points()
    b = D2.points()
    assert len(a) == len(b)
    best = math.inf
    for perm in itertools.permutations(range(len(b))):
        worst = max(abs(a[k] - b[perm[k]]) for k in range(len(a)))
        best = min(best, worst)
    return best


def random_divisor(rng: np.random.Generator, n: int, rmax: float = 0.95
                   ) -> Divisor:
    atoms = []
    while len(atoms) < n:
        r = rmax * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        atoms.append((r * cmath.exp(1j * phi), 1))
    return Divisor(atoms, "interior")


def test_degree_examples():
    assert degree(Divisor([(0.5 + 0j, 1)], "interior")) == 1
    assert degree(Divisor([(0.5j, 2), (-0.3 + 0j, 1)], "interior")) == 3


def test_is_simple():
    assert is_simple(Divisor([(0.1 + 0j, 1), (0.2 + 0j, 1)], "interior"))
    assert not is_simple(Divisor([(0.1 + 0j, 2)], "interior"))


def test_merge_of_nearby_atoms():
    # Two atoms closer than the merge tolerance collapse into one atom
    # with summed multiplicity at the weighted centroid.
    D = Divisor([(0.5 + 0j, 1), (0.5 + 1e-12 + 0j, 1)], "interior")
    assert len(D.atoms) == 1
    assert D.degree == 2
    assert not is_simple(D)
    z, m = D.atoms[0]
    assert m == 2
    assert z == pytest.approx(0.5 + 0.5e-12, abs=1e-15)


def test_lone_atom_keeps_its_point():
    # z*3/3 is not z for about one point in seven; a lone atom is no
    # centroid, so its point passes through as given
    rng = np.random.default_rng(2602)
    points = [complex(x, y) for x, y in rng.uniform(-0.7, 0.7, (2000, 2))]
    assert any(z * 3 / 3 != z for z in points)
    for z in points:
        for m in (1, 2, 3, 7):
            assert Divisor([(z, m)], "interior").atoms[0][0] == z


def test_add_merges_equal_atoms():
    a = Divisor([(0.4 + 0.1j, 1)], "interior")
    total = add(a, a)
    assert total.atoms == ((0.4 + 0.1j, 2),)


def test_add_mixed_regions_gives_closed_disk():
    a = Divisor([(0.5 + 0j, 1)], "interior")
    q = Divisor([(1j, 1)], "circle")
    total = add(a, q)
    assert total.region == "closed"
    assert total.degree == 2


def test_add_degree_additivity():
    rng = np.random.default_rng(201)
    for _ in range(20):
        d1 = random_divisor(rng, int(rng.integers(1, 5)))
        d2 = random_divisor(rng, int(rng.integers(1, 5)))
        assert degree(add(d1, d2)) == degree(d1) + degree(d2)


def test_matching_distance_multiset_equality():
    d1 = Divisor([(0.1 + 0j, 1), (0.2 + 0j, 1)], "interior")
    d2 = Divisor([(0.2 + 0j, 1), (0.1 + 0j, 1)], "interior")
    assert matching_distance(d1, d2) == 0.0


def test_matching_distance_forced_pairing():
    eps = 1e-3
    d1 = Divisor([(0j, 2)], "interior")
    d2 = Divisor([(0j, 1), (eps + 0j, 1)], "interior")
    assert matching_distance(d1, d2) == pytest.approx(eps, abs=1e-15)


def test_matching_distance_brute_force_oracle():
    rng = np.random.default_rng(202)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        d1 = random_divisor(rng, n)
        d2 = random_divisor(rng, n)
        got = matching_distance(d1, d2)
        want = brute_force_bottleneck(d1, d2)
        assert got == pytest.approx(want, abs=1e-14)


def test_matching_distance_with_multiplicities():
    d1 = Divisor([(0.1 + 0j, 2), (0.5j, 1)], "interior")
    d2 = Divisor([(0.1 + 0.05j, 1), (0.12 + 0j, 1), (0.4j, 1)], "interior")
    got = matching_distance(d1, d2)
    want = brute_force_bottleneck(d1, d2)
    assert got == pytest.approx(want, abs=1e-14)


def test_matching_distance_is_a_metric():
    rng = np.random.default_rng(203)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        d1 = random_divisor(rng, n)
        d2 = random_divisor(rng, n)
        d3 = random_divisor(rng, n)
        ab = matching_distance(d1, d2)
        ba = matching_distance(d2, d1)
        assert abs(ab - ba) <= 1e-12
        assert matching_distance(d1, d1) == 0.0
        assert ab <= (matching_distance(d1, d3)
                      + matching_distance(d3, d2) + 1e-12)


def test_matching_distance_degree_mismatch():
    d1 = Divisor([(0.1 + 0j, 1)], "interior")
    d2 = Divisor([(0.1 + 0j, 2)], "interior")
    with pytest.raises(PreconditionError):
        matching_distance(d1, d2)


def distance_matrix(D1: Divisor, D2: Divisor) -> np.ndarray:
    return np.abs(np.subtract.outer(np.asarray(D1.points(), dtype=complex),
                                    np.asarray(D2.points(), dtype=complex)))


def brute_force_on_matrix(D1: Divisor, D2: Divisor) -> float:
    """Oracle on the distances ``matching_distance`` compares: numpy's
    complex modulus, which can differ from Python's ``abs`` in the last
    bit, so an exact comparison needs the same matrix."""
    rows = distance_matrix(D1, D2).tolist()
    n = len(rows)
    return min(max(rows[k][perm[k]] for k in range(n))
               for perm in itertools.permutations(range(n)))


def random_multiset_divisor(rng: np.random.Generator, degree: int,
                            rmax: float = 0.95) -> Divisor:
    """Interior divisor of the given degree with multiplicities 1..3."""
    atoms = []
    left = degree
    while left:
        m = int(rng.integers(1, min(3, left) + 1))
        r = rmax * math.sqrt(rng.random())
        atoms.append((r * cmath.exp(2j * math.pi * rng.random()), m))
        left -= m
    return Divisor(atoms, "interior")


def grid_divisor(rng: np.random.Generator, degree: int) -> Divisor:
    """Points on a quarter grid: many tied distances, repeated points
    merging into multiplicity atoms."""
    steps = rng.integers(-2, 3, size=(degree, 2)) / 4.0
    return Divisor([(complex(x, y), 1) for x, y in steps], "interior")


def test_matching_distance_equals_brute_force_exactly():
    rng = np.random.default_rng(204)
    for n in range(1, 8):
        for _ in range(6):
            pairs = [
                (random_multiset_divisor(rng, n),
                 random_multiset_divisor(rng, n)),
                (grid_divisor(rng, n), grid_divisor(rng, n)),
                (random_divisor(rng, n), random_multiset_divisor(rng, n)),
            ]
            for d1, d2 in pairs:
                assert matching_distance(d1, d2) == \
                    brute_force_on_matrix(d1, d2)


def test_matching_distance_with_ties_and_multiplicities():
    d1 = Divisor([(0j, 2), (0.5 + 0j, 1)], "interior")
    d2 = Divisor([(0.25 + 0j, 2), (-0.25 + 0j, 1)], "interior")
    assert matching_distance(d1, d2) == 0.25
    assert brute_force_on_matrix(d1, d2) == 0.25


def test_matching_distance_past_the_nearest_columns():
    # both rows are nearest to 0.1, so their nearest columns are no
    # matching; the answer 0.9 exceeds the largest row minimum 0.4
    d1 = Divisor([(0j, 1), (0.5 + 0j, 1)], "interior")
    d2 = Divisor([(0.1 + 0j, 1), (0.9j, 1)], "interior")
    dist = distance_matrix(d1, d2)
    assert len(set(dist.argmin(axis=1).tolist())) == 1
    assert dist.min(axis=1).max() == pytest.approx(0.4, abs=1e-15)
    assert matching_distance(d1, d2) == brute_force_on_matrix(d1, d2) == 0.9


def near_and_far_pairs(n: int):
    """Seeded pairs of degree n: each point moved by 1e-3, and an
    independent divisor."""
    rng = np.random.default_rng(205 + n)
    for _ in range(8):
        d1 = random_multiset_divisor(rng, n, 0.9)
        near = [(z + 1e-3 * cmath.exp(2j * math.pi * rng.random()), m)
                for z, m in d1.atoms]
        yield d1, Divisor(near, "interior")
        yield d1, random_multiset_divisor(rng, n, 0.9)


def kuhn_matching_distance(D1: Divisor, D2: Divisor) -> float:
    """The bisection over all distinct distances; each radius is decided
    by a maximum matching built from scratch with Kuhn's augmenting
    paths, with no lower bound or early exit."""
    rows = distance_matrix(D1, D2).tolist()
    n = len(rows)

    def perfect(r: float) -> bool:
        row_of = [-1] * n

        def augment(i: int, seen: set) -> bool:
            for j in range(n):
                if rows[i][j] <= r and j not in seen:
                    seen.add(j)
                    if row_of[j] < 0 or augment(row_of[j], seen):
                        row_of[j] = i
                        return True
            return False

        return sum(augment(i, set()) for i in range(n)) == n

    radii = np.unique(rows)
    lo, hi = -1, len(radii) - 1
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if perfect(radii[mid]):
            hi = mid
        else:
            lo = mid
    return float(radii[hi])


@pytest.mark.parametrize("n", [12, 24])
def test_matching_distance_equals_plain_kuhn_bisection(n):
    for d1, d2 in near_and_far_pairs(n):
        assert matching_distance(d1, d2) == kuhn_matching_distance(d1, d2)


def scipy_matching_distance(D1: Divisor, D2: Divisor) -> float:
    """The bisection over all distinct distances with scipy's maximum
    bipartite matching as the feasibility test."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    dist = distance_matrix(D1, D2)

    def feasible(r: float) -> bool:
        rows, cols = np.nonzero(dist <= r)
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)),
                           shape=dist.shape).tocsr()
        match = maximum_bipartite_matching(graph, perm_type="column")
        return bool(np.all(match >= 0))

    radii = np.unique(dist)
    if feasible(radii[0]):
        return float(radii[0])
    lo, hi = 0, len(radii) - 1
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if feasible(radii[mid]):
            hi = mid
        else:
            lo = mid
    return float(radii[hi])


@pytest.mark.parametrize("n", [12, 24])
def test_matching_distance_equals_scipy_bisection(n):
    pytest.importorskip("scipy")
    for d1, d2 in near_and_far_pairs(n):
        assert matching_distance(d1, d2) == scipy_matching_distance(d1, d2)


def test_merge_chain_is_transitive():
    step = 0.8 * MERGE_TOL
    ends = [(0.5 + 0j, 1), (0.5 + 2 * step + 0j, 1)]
    assert len(Divisor(ends, "interior").atoms) == 2
    D = Divisor([ends[0], (0.5 + step + 0j, 1), ends[1]], "interior")
    assert D.degree == 3
    assert len(D.atoms) == 1
    assert D.atoms[0][1] == 3
    assert D.atoms[0][0] == pytest.approx(0.5 + step, abs=1e-15)


def test_split_boundary_reference():
    D = Divisor([(0.5 + 0j, 1), (1j, 1)], "closed")
    inner, outer = split_boundary(D)
    assert inner.atoms == ((0.5 + 0j, 1),)
    assert outer.atoms == ((1j, 1),)
    assert inner.region == "interior"
    assert outer.region == "circle"


def test_split_boundary_all_interior():
    D = Divisor([(0.5 + 0j, 1), (-0.2j, 2)], "closed")
    inner, outer = split_boundary(D)
    assert inner.degree == 3
    assert outer.degree == 0


def test_split_boundary_ambiguous_band():
    D = Divisor([((1.0 - 1e-10) + 0j, 1)], "closed")
    with pytest.raises(AmbiguousModulusError):
        split_boundary(D)


def test_split_then_add_recovers_divisor():
    D = Divisor([(0.5 + 0j, 1), (1j, 2), (-0.3 - 0.1j, 1)], "closed")
    inner, outer = split_boundary(D)
    assert degree(inner) + degree(outer) == degree(D)
    recombined = add(inner, outer)
    assert matching_distance(recombined, D) == 0.0


def test_sequence_limit_constant_sequence():
    D = Divisor([(0.5 + 0j, 1)], "interior")
    limit = sequence_limit([D, D, D])
    assert limit is not None
    assert limit.region == "closed"
    assert matching_distance(limit, D) == 0.0


def test_sequence_limit_snaps_escaper_to_circle():
    q = cmath.exp(2j * math.pi / 3.0)
    a = 0.4 + 0.1j
    seq = [Divisor([((1.0 - 1.0 / n) * q, 1), (a, 1)], "interior")
           for n in (2_000_000, 4_000_000, 8_000_000)]
    limit = sequence_limit(seq, tol=1e-5)
    assert limit is not None
    expected = Divisor([(q, 1), (a, 1)], "closed")
    assert matching_distance(limit, expected) <= 1e-5
    moduli = sorted(abs(z) for z, _ in limit.atoms)
    assert moduli[1] == pytest.approx(1.0, abs=1e-15)


def test_sequence_limit_alternating_divergence():
    d1 = Divisor([(0.5 + 0j, 1)], "interior")
    d2 = Divisor([(-0.5 + 0j, 1)], "interior")
    assert sequence_limit([d1, d2, d1, d2]) is None


def test_sequence_limit_rejects_mixed_degrees():
    d1 = Divisor([(0.5 + 0j, 1)], "interior")
    d2 = Divisor([(0.5 + 0j, 2)], "interior")
    with pytest.raises(PreconditionError):
        sequence_limit([d1, d2, d1])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_sequence_limit_refuses_a_non_finite_tol(tol):
    # NaN used to declare the alternating sequence converged, and +inf
    # to snap 0.5 onto the circle
    d1 = Divisor([(0.5 + 0j, 1)], "interior")
    d2 = Divisor([(-0.5 + 0j, 1)], "interior")
    with pytest.raises(PreconditionError):
        sequence_limit([d1, d2, d1, d2], tol=tol)
    with pytest.raises(PreconditionError):
        sequence_limit([d1, d1, d1], tol=tol)


def test_sequence_limit_short_sequences_do_not_converge():
    d1 = Divisor([(0.5 + 0j, 1)], "interior")
    assert sequence_limit([d1, d1]) is None


def test_region_invariants_enforced():
    with pytest.raises(PreconditionError):
        Divisor([(1j, 1)], "interior")
    with pytest.raises(PreconditionError):
        Divisor([(0.5 + 0j, 1)], "circle")
    with pytest.raises(PreconditionError):
        Divisor([(1.5 + 0j, 1)], "closed")


NON_FINITE = [complex(math.nan, 0.0), complex(0.0, math.nan),
              complex(math.inf, 0.0), complex(0.0, -math.inf),
              complex(math.inf, math.inf)]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("region, good", [("interior", 0.1 + 0j),
                                          ("circle", 1j),
                                          ("closed", 0.1 + 0j)])
def test_region_invariants_reject_nan_and_inf(region, good, bad):
    # NaN fails every modulus comparison, and the merge centroid turns an
    # infinite atom into NaN, so each region test must reject NaN itself
    with pytest.raises(PreconditionError):
        Divisor([(bad, 1)], region)
    with pytest.raises(PreconditionError):
        Divisor([(bad, 1), (good, 1)], region)
    assert Divisor([(good, 1)], region).degree == 1


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_non_finite_atoms_are_schema_errors(literal):
    # json accepts these literals, so they must fail at the region check
    with pytest.raises(SchemaError):
        divisor_from_json(
            f'{{"region": "interior", "atoms": [[{literal}, 0], [0.1, 0]]}}')
    with pytest.raises(SchemaError):
        divisor_from_json(f"[[0.1, {literal}]]")


def test_json_round_trip():
    D = Divisor([(0.5 + 0j, 1), (1j, 2)], "closed")
    round_tripped = divisor_from_json(divisor_to_json(D))
    assert round_tripped.region == "closed"
    assert matching_distance(round_tripped, D) == 0.0


def test_json_bare_list_of_numbers():
    D = divisor_from_json([0.6], default_region="interior")
    assert D.atoms == ((0.6 + 0j, 1),)
    assert D.region == "interior"


def test_json_angle_fraction_strings():
    D = divisor_from_json(["1/4"])
    assert D.atoms[0][0] == pytest.approx(1j, abs=1e-15)
    D2 = divisor_from_json([{"angle_turns": "1/3", "mult": 2}])
    assert D2.atoms[0][1] == 2
    assert D2.atoms[0][0] == pytest.approx(
        cmath.exp(2j * math.pi / 3.0), abs=1e-15)


def test_json_pair_and_object_atoms():
    D = divisor_from_json({"region": "interior",
                           "atoms": [[0.1, 0.2], {"re": 0.3, "im": 0.0}]})
    assert D.degree == 2
    assert D.atoms[0][0] == 0.1 + 0.2j


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        divisor_from_json({"region": "interior", "atoms": [], "extra": 1})
    with pytest.raises(SchemaError):
        divisor_from_json({"region": "nowhere", "atoms": []})
    with pytest.raises(SchemaError):
        divisor_from_json([{"re": 0.1, "im": 0.0, "mult": 0}])
    with pytest.raises(SchemaError):
        divisor_from_json([{"re": 0.1, "im": 0.0, "size": 1}])
    with pytest.raises(SchemaError):
        divisor_from_json(["3/0"])
    with pytest.raises(SchemaError):
        # region violation surfaces as a schema error at the JSON layer
        divisor_from_json({"region": "interior", "atoms": [[0.0, 1.0]]})


@pytest.mark.parametrize("atoms", [[["a", 0]], [{"re": "x", "im": 0}],
                                   [[None, 0]], [{"re": 0.1, "im": [0]}],
                                   [10 ** 400]])
def test_json_non_numeric_atoms_are_schema_errors(atoms):
    with pytest.raises(SchemaError):
        divisor_from_json(atoms)
