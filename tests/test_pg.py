"""Row reduction, subspace enumeration, duality."""

from __future__ import annotations

from itertools import combinations

import pytest

from srd3.gf import make_field
from srd3.pg import (BudgetExceeded, canonicalize, coefficient_vectors,
                     gaussian_binomial, incident, matrix_rank, normalize_vec,
                     nullspace, rref, subspace_points)

from oracles import all_subspaces, duals_through, subspaces_within


def test_matrix_rank_basics():
    F = make_field(3, 1)
    assert matrix_rank(F, ((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 3
    assert matrix_rank(F, ((0, 0, 0), (0, 0, 0), (0, 0, 0))) == 0
    assert matrix_rank(F, ((1, 0, 0), (0, 1, 0), (0, 0, 0))) == 2


def test_canonicalize_examples():
    F = make_field(3, 1)
    W = canonicalize(F, [(1, 0, 0), (0, 1, 0)])
    assert W.projdim == 1 and W.rows == ((1, 0, 0), (0, 1, 0))
    P = canonicalize(F, [(1, 1), (2, 2)])
    assert P.projdim == 0 and P.rows == ((1, 1),)
    F2 = make_field(2, 1)
    L = canonicalize(F2, [(0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)])
    assert L.projdim == 1
    with pytest.raises(ValueError):
        canonicalize(F, [(0, 0, 0)])


def test_rref_is_canonical_under_row_scramble():
    F = make_field(5, 1)
    import random
    rng = random.Random(3)
    for _ in range(50):
        rows = [tuple(rng.randrange(5) for _ in range(4)) for _ in range(3)]
        if all(all(x == 0 for x in r) for r in rows):
            continue
        try:
            a = canonicalize(F, rows)
        except ValueError:
            continue
        scr = rows[::-1] + [tuple(F.add(x, y) for x, y in zip(rows[0], rows[-1]))]
        b = canonicalize(F, scr)
        assert a == b


def test_subspace_points_counts():
    F4 = make_field(2, 2)
    line = canonicalize(F4, [(1, 0, 0), (0, 1, 0)])
    assert len(list(subspace_points(line))) == 5
    F3 = make_field(3, 1)
    solid = canonicalize(F3, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                              (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    assert len(list(subspace_points(solid))) == 40
    F2 = make_field(2, 1)
    plane = canonicalize(F2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(list(subspace_points(plane))) == 7


def test_points_roundtrip_canonicalize():
    F = make_field(3, 1)
    W = canonicalize(F, [(1, 2, 0, 1), (0, 1, 1, 2)])
    again = canonicalize(F, list(subspace_points(W)))
    assert again == W


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 1, 5) == 6
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(6, 3, 4) == 376805


def test_gaussian_binomial_against_bruteforce_planes_pg52():
    # independent oracle: spans of all triples of points of PG(5,2)
    F = make_field(2, 1)
    pts = [tuple((m >> (5 - i)) & 1 for i in range(6)) for m in range(1, 64)]
    planes = set()
    for u, v, w in combinations(pts, 3):
        rows, rank = rref(F, (u, v, w))
        if rank == 3:
            planes.add(rows)
    assert len(planes) == gaussian_binomial(6, 3, 2)


def test_all_subspaces_counts_and_uniqueness():
    for (n, q, d), expect in (((5, 2, 3), 651), ((2, 3, 1), 13), ((5, 3, 2), 33880)):
        seen = set()
        for W in all_subspaces(n, q, d):
            assert W.rows not in seen
            seen.add(W.rows)
        assert len(seen) == expect
        assert expect == gaussian_binomial(n + 1, d + 1, q)


def test_all_subspaces_budget():
    with pytest.raises(BudgetExceeded) as e:
        list(all_subspaces(5, 3, 2, budget=100))
    assert e.value.needed == 33880


def test_hyperplane_duals():
    duals = list(coefficient_vectors(2, 6))
    assert len(duals) == 63
    F = make_field(2, 1)
    d = (1, 0, 0, 0, 0, 0)
    assert incident(F, (0, 1, 0, 0, 0, 0), d)
    assert not incident(F, (1, 0, 0, 1, 0, 1), d)


def test_duals_through_counts():
    F = make_field(3, 1)
    plane = canonicalize(F, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    ds = list(duals_through(plane))
    assert len(ds) == 13  # q^2+q+1 hyperplanes through a plane of PG(5,q)
    for d in ds:
        for pt in subspace_points(plane):
            assert incident(F, pt, d)
    solid = canonicalize(F, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                             (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    assert len(list(duals_through(solid))) == 4  # q+1


def test_nullspace():
    F = make_field(5, 1)
    rows = ((1, 2, 3, 4), (0, 1, 1, 1))
    ns = nullspace(F, rows)
    assert len(ns) == 2
    for v in ns:
        for r in rows:
            assert sum(F.mul(a, b) for a, b in zip(r, v)) % 5 == 0 or \
                _dot(F, r, v) == 0


def _dot(F, a, b):
    s = 0
    for x, y in zip(a, b):
        s = F.add(s, F.mul(x, y))
    return s


def test_coefficient_vectors_normalized_lex():
    rows = list(coefficient_vectors(3, 2))
    assert rows == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert len(list(coefficient_vectors(4, 3))) == 21


def test_subspaces_within():
    F = make_field(2, 1)
    solid = canonicalize(F, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                             (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    planes = list(subspaces_within(solid, 2))
    assert len(planes) == gaussian_binomial(4, 3, 2)
    assert len(set(planes)) == len(planes)
    for p in planes:
        assert solid.contains(p)


def test_normalize_vec():
    F = make_field(5, 1)
    assert normalize_vec(F, (0, 2, 1)) == (0, 1, 3)
    assert normalize_vec(F, normalize_vec(F, (3, 1, 4))) == normalize_vec(F, (3, 1, 4))
    with pytest.raises(ValueError):
        normalize_vec(F, (0, 0, 0))
