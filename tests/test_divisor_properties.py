"""Property tests of the bottleneck matching distance against a
brute-force minimum over all bijections, and of the atom merge against
a brute-force all-pairs clustering.

Skipped where Hypothesis is not installed.  The draws are derandomized,
so every run checks the same examples.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blaschkediv import (Divisor, PreconditionError,  # noqa: E402
                         matching_distance)
from blaschkediv.divisor import MERGE_TOL, _merge_atoms  # noqa: E402

#: Points of a quarter grid, where distances tie and points repeat (and
#: merge into atoms), so that rows often share a nearest column, or any
#: point of the disk |z| <= 0.7.
_POINT = st.one_of(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda xy: complex(xy[0] / 4.0, xy[1] / 4.0)),
    st.tuples(st.floats(-0.49, 0.49), st.floats(-0.49, 0.49)).map(
        lambda xy: complex(*xy)))
_PAIR = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(_POINT, min_size=n, max_size=n),
    st.lists(_POINT, min_size=n, max_size=n)))


def brute_force(D1: Divisor, D2: Divisor) -> float:
    """Min over all bijections of the max displacement, on the same
    numpy moduli ``matching_distance`` compares."""
    rows = np.abs(np.subtract.outer(np.asarray(D1.points(), dtype=complex),
                                    np.asarray(D2.points(), dtype=complex)))
    n = len(rows)
    return min(max(rows[k, perm[k]] for k in range(n))
               for perm in itertools.permutations(range(n)))


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(_PAIR)
def test_matching_distance_is_the_bottleneck_minimum(pair):
    D1, D2 = (Divisor([(z, 1) for z in points], "interior") for points in pair)
    assert matching_distance(D1, D2) == brute_force(D1, D2)
    assert matching_distance(D2, D1) == brute_force(D2, D1)


def all_pairs_merge(atoms) -> list:
    """Transitive clusters of the atoms at MERGE_TOL from every pair;
    a cluster of several atoms at its centroid summed in input order, a
    lone atom at its own point; sorted by (re, im), ties in the order of
    the clusters' first atoms."""
    n = len(atoms)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if (abs(atoms[i][0] - atoms[j][0]) <= MERGE_TOL
                        and label[j] > label[i]):
                    label[j], changed = label[i], True
    merged = []
    for root in sorted(set(label)):
        members = [atoms[i] for i in range(n) if label[i] == root]
        total = sum(m for _, m in members)
        merged.append((members[0][0] if len(members) == 1 else
                       sum(z * m for z, m in members) / total, total))
    return sorted(merged, key=lambda t: (t[0].real, t[0].imag))


def _bits(atoms) -> list:
    return [(z.real.hex(), z.imag.hex(), m) for z, m in atoms]


@st.composite
def _clustered_atoms(draw) -> list:
    """Atoms in groups: lone points, conjugate pairs, vertical runs
    (one real part, steps of 0.5-1.5 MERGE_TOL), chains spaced just
    under MERGE_TOL and repeats of one point, shuffled together."""
    atoms = []
    for _ in range(draw(st.integers(0, 5))):
        z = draw(_POINT)
        kind = draw(st.sampled_from(
            ["lone", "conjugate", "vertical", "chain", "repeat"]))
        n = draw(st.integers(2, 4))
        if kind == "lone":
            points = [z]
        elif kind == "conjugate":
            points = [z, z.conjugate()]
        elif kind == "vertical":
            steps = draw(st.lists(st.floats(0.5, 1.5), min_size=n,
                                  max_size=n))
            points = [complex(z.real, z.imag + MERGE_TOL * sum(steps[:k]))
                      for k in range(n)]
        elif kind == "chain":
            step = draw(st.floats(0.9, 0.9999)) * MERGE_TOL
            turn = complex(math.cos(draw(st.floats(0.0, 6.3))),
                           math.sin(draw(st.floats(0.0, 6.3))))
            points = [z + k * step * turn / abs(turn) for k in range(n)]
        else:
            points = [z] * n
        atoms += [(p, draw(st.integers(1, 3))) for p in points]
    return draw(st.permutations(atoms))


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(_clustered_atoms())
def test_merge_equals_all_pairs_clustering(atoms):
    assert _bits(_merge_atoms(atoms)) == _bits(all_pairs_merge(atoms))


@hypothesis.settings(max_examples=50, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(_clustered_atoms(),
                  st.sampled_from([complex(math.nan, 0.0),
                                   complex(0.0, math.nan),
                                   complex(math.inf, 0.0),
                                   complex(-math.inf, math.inf)]),
                  st.integers(1, 2), st.sampled_from(
                      ["interior", "circle", "closed"]))
def test_merge_of_non_finite_atoms_is_refused(atoms, bad, copies, region):
    with pytest.raises(PreconditionError):
        Divisor(atoms + [(bad, 1)] * copies, region)
