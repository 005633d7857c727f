"""Veronese map, conic planes, the lifted action, polarity."""

from __future__ import annotations

import random

import pytest

from srd3.gf import FieldError, make_field
from srd3.pg import canonicalize, matrix_rank, subspace_points
from srd3.veronese import (as_matrix, conic_plane_of,
                           coords_of_matrix, delta, double_line_dual, h1_duals,
                           k_action, kernel_point, lift,
                           mat_mul, pg2_points, point_rank,
                           polarity_rho, transpose, veronese)

from oracles import in_nucleus_plane, nucleus_plane, rho_point, veronese_points


def test_veronese_examples():
    F = make_field(3, 1)
    assert veronese(F, (1, 0, 0)) == (1, 0, 0, 0, 0, 0)
    assert veronese(F, (0, 0, 1)) == (0, 0, 0, 0, 0, 1)
    assert veronese(F, (1, 1, 1)) == (1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_veronese_rank_one_and_injective(p, h):
    F = make_field(p, h)
    images = veronese_points(F)
    assert len(set(images)) == F.q ** 2 + F.q + 1
    for y in images:
        assert point_rank(F, y) == 1


def test_rank_one_points_are_exactly_the_surface():
    F = make_field(3, 1)
    from srd3.pg import coefficient_vectors
    surface = set(veronese_points(F))
    count = 0
    for y in coefficient_vectors(F.q, 6):
        if point_rank(F, y) == 1:
            count += 1
            assert y in surface
    assert count == len(surface)


def test_point_rank_examples():
    F = make_field(3, 1)
    assert point_rank(F, (0, 1, 0, 0, 0, 0)) == 2
    assert point_rank(F, (1, 0, 0, 1, 0, 1)) == 3


def test_conic_plane_of_diag110():
    F = make_field(3, 1)
    y = (1, 0, 0, 1, 0, 0)  # diag(1,1,0)
    assert kernel_point(F, y) == (0, 0, 1)
    plane, conic = conic_plane_of(F, y)
    assert len(conic) == F.q + 1
    assert plane.contains_point(y)
    for c in conic:
        assert point_rank(F, c) == 1
        assert plane.contains_point(c)
    # same conic plane for another point with the same kernel
    plane2, _ = conic_plane_of(F, (0, 1, 0, 0, 0, 0))
    assert plane2 == plane


def test_conic_plane_secant_consistency():
    # a point on the secant <nu(a), nu(b)> gets the conic through a and b
    F = make_field(5, 1)
    a, b = (1, 2, 3), (0, 1, 4)
    ya, yb = veronese(F, a), veronese(F, b)
    y = tuple(F.add(x, z) for x, z in zip(ya, yb))
    assert point_rank(F, y) == 2
    _, conic = conic_plane_of(F, y)
    assert ya in conic and yb in conic


def test_conic_plane_rejects_wrong_rank():
    F = make_field(3, 1)
    with pytest.raises(ValueError):
        conic_plane_of(F, (1, 0, 0, 1, 0, 1))


def test_nucleus_plane():
    F2 = make_field(2, 1)
    pn = nucleus_plane(F2)
    pts = list(subspace_points(pn))
    assert len(pts) == 7
    for y in pts:
        assert point_rank(F2, y) == 2 and in_nucleus_plane(y)
    with pytest.raises(FieldError):
        nucleus_plane(make_field(3, 1))


def test_delta_examples_and_incidence():
    F = make_field(3, 1)
    assert delta(F, (1, 0, 0, 0, 0, 0)) == (1, 0, 0, 0, 0, 0)  # X0^2 -> Z(Y0)
    assert delta(F, (0, 1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0)  # X0X1 -> Z(Y1)
    # X1^2 + X0X2 -> Z(Y2 + Y3)
    assert delta(F, (0, 0, 1, 1, 0, 0)) == (0, 0, 1, 1, 0, 0)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)])
def test_delta_incidence_equivalence_exhaustive(p, h):
    # u on Z(C) iff nu(u) on delta(C), for every conic and every point
    F = make_field(p, h)
    from srd3.pg import coefficient_vectors, incident
    pts = pg2_points(F)
    images = [veronese(F, u) for u in pts]
    for conic in coefficient_vectors(F.q, 6):
        d = delta(F, conic)
        for u, y in zip(pts, images):
            on_conic = _eval_conic(F, conic, u) == 0
            assert on_conic == incident(F, y, d)


def _eval_conic(F, c, u):
    u0, u1, u2 = u
    m, a = F.mul, F.add
    s = 0
    for coef, term in zip(c, (m(u0, u0), m(u0, u1), m(u0, u2),
                              m(u1, u1), m(u1, u2), m(u2, u2))):
        if coef and term:
            s = a(s, m(coef, term))
    return s


def test_h1_duals_even_contain_nucleus_plane():
    F = make_field(2, 2)
    pn = nucleus_plane(F)
    from srd3.pg import incident
    duals = h1_duals(F)
    assert len(duals) == 21
    for d in duals:
        for y in subspace_points(pn):
            assert incident(F, y, d)


def test_double_line_dual_odd():
    F = make_field(3, 1)
    d = double_line_dual(F, (1, 1, 0))  # (X0+X1)^2 = X0^2 + 2X0X1 + X1^2
    assert d == (1, 2, 0, 1, 0, 0)


def test_k_action_identity_and_rank():
    F = make_field(4 // 2, 2)
    I = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    y = (1, 2, 3, 0, 1, 2)
    assert k_action(F, I, y) == tuple(y)
    rng = random.Random(5)
    for _ in range(40):
        A = _random_invertible(F, rng)
        u = (1, rng.randrange(4), rng.randrange(4))
        img = k_action(F, A, veronese(F, u))
        assert point_rank(F, img) == 1


def _random_invertible(F, rng):
    while True:
        A = tuple(tuple(rng.randrange(F.q) for _ in range(3)) for _ in range(3))
        if matrix_rank(F, A) == 3:
            return A


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2)])
def test_k_action_is_action_and_intertwines(p, h):
    F = make_field(p, h)
    rng = random.Random(11)
    for _ in range(30):
        A = _random_invertible(F, rng)
        B = _random_invertible(F, rng)
        y = tuple(rng.randrange(F.q) for _ in range(6))
        if not any(y):
            continue
        lhs = k_action(F, mat_mul(F, A, B), y)
        rhs = k_action(F, A, k_action(F, B, y))
        assert lhs == rhs
        assert point_rank(F, lhs) == point_rank(F, y)
        # nu intertwines: A . nu(u) = nu(u A^T)
        u = (1, rng.randrange(F.q), rng.randrange(F.q))
        uat = tuple(sum_mul(F, u, col) for col in zip(*transpose(A)))
        assert k_action(F, A, veronese(F, u)) == veronese(F, uat)


def sum_mul(F, u, col):
    s = 0
    for x, c in zip(u, col):
        s = F.add(s, F.mul(x, c))
    return s


def test_k_action_preserves_surface_and_nucleus():
    F = make_field(2, 2)
    rng = random.Random(23)
    surface = set(veronese_points(F))
    pn = nucleus_plane(F)
    for _ in range(10):
        A = _random_invertible(F, rng)
        assert {k_action(F, A, y) for y in surface} == surface
        assert k_action(F, A, pn) == pn


def test_lift_rejects_singular():
    F = make_field(3, 1)
    with pytest.raises(ValueError):
        lift(F, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_matrix_coords_roundtrip():
    y = (1, 2, 3, 4, 5, 0)
    assert coords_of_matrix(as_matrix(y)) == y


def test_polarity_involution_and_dimension():
    F = make_field(3, 1)
    rng = random.Random(9)
    for _ in range(100):
        k = rng.randrange(1, 6)
        rows = [[rng.randrange(3) for _ in range(6)] for _ in range(k)]
        try:
            W = canonicalize(F, rows)
        except ValueError:
            continue
        img = polarity_rho(F, W)
        assert img.projdim == 4 - W.projdim
        assert polarity_rho(F, img) == W


def test_polarity_reverses_inclusion():
    F = make_field(5, 1)
    line = canonicalize(F, [(1, 0, 0, 2, 0, 1), (0, 1, 0, 0, 3, 0)])
    plane = canonicalize(F, list(line.rows) + [(0, 0, 1, 0, 0, 4)])
    assert plane.contains(line)
    assert polarity_rho(F, line).contains(polarity_rho(F, plane))


def test_polarity_conic_plane_to_tangent_pattern():
    # image of each conic plane meets the surface in exactly one point and
    # carries no rank-3 points (tangent plane pattern), q = 3
    F = make_field(3, 1)
    for u in pg2_points(F):
        y = veronese(F, u)
        # conic plane of the line dual to u... take any rank-2 point with kernel u
        plane, _ = _conic_plane_for_line(F, u)
        img = polarity_rho(F, plane)
        ranks = [point_rank(F, p) for p in subspace_points(img)]
        assert ranks.count(1) == 1
        assert ranks.count(3) == 0


def _conic_plane_for_line(F, k):
    from srd3.veronese import line_points
    pts = [veronese(F, u) for u in line_points(F, k)]
    return canonicalize(F, pts), pts


def test_rho_point_matches_subspace_polarity():
    F = make_field(3, 1)
    y = (1, 0, 2, 1, 0, 1)
    P = canonicalize(F, [y])
    H = polarity_rho(F, P)
    from srd3.pg import incident
    d = rho_point(F, y)
    for pt in subspace_points(H):
        assert incident(F, pt, d)
