"""The degree-2 Veronese embedding of PG(2,q) in PG(5,q).

A point y = (y0,...,y5) of PG(5,q) is identified with the symmetric matrix

        [ y0 y1 y2 ]
        [ y1 y3 y4 ]
        [ y2 y4 y5 ]

and the rank of the point is the rank of that matrix.  The surface of
rank-1 points is the image of nu: u -> (u0^2, u0u1, u0u2, u1^2, u1u2, u2^2).
This module provides nu, ranks, conic planes, the nucleus plane (q even),
the conic<->hyperplane correspondence, the congruence action of PGL(3,q)
lifted to PG(5,q), and the trace-form polarity (q odd).

Action convention, fixed once: the matrix A acts on points by
M -> A M A^T, which on Veronese points satisfies  A . nu(u) = nu(u A^T)
with u a row vector.  A property test pins this down.
"""

from __future__ import annotations

from typing import Iterable

from srd3.gf import FieldCtx, FieldError
from srd3.pg import (Subspace, canonicalize, matrix_rank, normalize_vec,
                     nullspace, rref)

Vec6 = tuple[int, int, int, int, int, int]

# index of coordinate y_k inside the 3x3 matrix, row major
_MAT_IDX = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def as_matrix(y: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    y = tuple(y)
    return tuple(tuple(y[j] for j in row) for row in _MAT_IDX)


def coords_of_matrix(M) -> Vec6:
    return (M[0][0], M[0][1], M[0][2], M[1][1], M[1][2], M[2][2])


def pg2_points(F: FieldCtx) -> list[tuple[int, int, int]]:
    """The q^2+q+1 points of PG(2,q), normalized, in lexicographic order."""
    q = F.q
    pts = [(1, b, c) for b in range(q) for c in range(q)]
    pts += [(0, 1, c) for c in range(q)]
    pts.append((0, 0, 1))
    return sorted(pts)


def veronese(F: FieldCtx, u: Iterable[int]) -> Vec6:
    u0, u1, u2 = u
    m = F.mul
    return normalize_vec(F, (m(u0, u0), m(u0, u1), m(u0, u2),
                             m(u1, u1), m(u1, u2), m(u2, u2)))


def point_rank(F: FieldCtx, y: Iterable[int]) -> int:
    return matrix_rank(F, as_matrix(y))


def kernel_point(F: FieldCtx, y: Iterable[int]) -> tuple[int, int, int]:
    """The radical of a rank-2 symmetric matrix, as a normalized PG(2,q) point."""
    ns = nullspace(F, as_matrix(y))
    if len(ns) != 1:
        raise ValueError(f"point has rank {3 - len(ns)}, expected rank 2")
    return normalize_vec(F, ns[0])


def line_points(F: FieldCtx, k: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Points of the PG(2,q) line {x : k . x = 0}."""
    basis = nullspace(F, (k,))
    (a, b) = basis
    pts = [normalize_vec(F, a)]
    for t in F.elements():
        v = tuple(F.add(F.mul(t, x), y) for x, y in zip(a, b))
        pts.append(normalize_vec(F, v))
    out = sorted(set(pts))
    assert len(out) == F.q + 1
    return out


def conic_plane_of(F: FieldCtx, y: Iterable[int]) -> tuple[Subspace, tuple[Vec6, ...]]:
    """The unique conic plane through a rank-2 point.

    Returns the plane together with the q+1 points of its conic (the nu-image
    of the line of PG(2,q) orthogonal to the matrix kernel).  The input point
    is contained in the returned plane.
    """
    y = tuple(y)
    k = kernel_point(F, y)
    conic = tuple(veronese(F, u) for u in line_points(F, k))
    plane = canonicalize(F, conic)
    if plane.projdim != 2 or not plane.contains_point(y):
        raise RuntimeError("conic plane construction failed")
    return plane, conic


def delta(F: FieldCtx, conic: Iterable[int]) -> Vec6:
    """Dual vector of the hyperplane cut out by a conic.

    A conic sum a_ij X_i X_j with coefficient vector
    (a00, a01, a02, a11, a12, a22) maps to the hyperplane
    Z(a00 Y0 + a01 Y1 + a02 Y2 + a11 Y3 + a12 Y4 + a22 Y5); the defining
    property is that u lies on the conic iff nu(u) lies on the hyperplane.
    """
    return normalize_vec(F, conic)


def conic_eval(F: FieldCtx, conic: Iterable[int], u: Iterable[int]) -> int:
    v = veronese(F, u)
    s = 0
    for a, x in zip(conic, v):
        if a and x:
            s = F.add(s, F.mul(a, x))
    return s


def double_line_dual(F: FieldCtx, k: tuple[int, int, int]) -> Vec6:
    """delta of the double line (k0 X0 + k1 X1 + k2 X2)^2."""
    k0, k1, k2 = k
    two = F.add(1, 1)
    m = F.mul
    return normalize_vec(F, (m(k0, k0), m(two, m(k0, k1)), m(two, m(k0, k2)),
                             m(k1, k1), m(two, m(k1, k2)), m(k2, k2)))


def h1_duals(F: FieldCtx) -> list[Vec6]:
    """Duals of the q^2+q+1 hyperplanes that cut the surface in a conic."""
    return sorted(double_line_dual(F, k) for k in pg2_points(F))


# ---------------------------------------------------------------------------
# The congruence action of PGL(3,q)
# ---------------------------------------------------------------------------

_SYM_BASIS = (
    ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 0)),
    ((0, 0, 1), (0, 0, 0), (1, 0, 0)),
    ((0, 0, 0), (0, 1, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
)


def mat_mul(F: FieldCtx, A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for l in range(k):
            a = A[i][l]
            if a:
                for j in range(m):
                    if B[l][j]:
                        out[i][j] = F.add(out[i][j], F.mul(a, B[l][j]))
    return tuple(tuple(r) for r in out)


def transpose(A):
    return tuple(tuple(A[j][i] for j in range(len(A))) for i in range(len(A[0])))


def mat_det3(F: FieldCtx, A) -> int:
    m, s, a = F.mul, F.sub, F.add
    t1 = m(A[0][0], s(m(A[1][1], A[2][2]), m(A[1][2], A[2][1])))
    t2 = m(A[0][1], s(m(A[1][0], A[2][2]), m(A[1][2], A[2][0])))
    t3 = m(A[0][2], s(m(A[1][0], A[2][1]), m(A[1][1], A[2][0])))
    return a(s(t1, t2), t3)


def lift(F: FieldCtx, A) -> tuple[Vec6, ...]:
    """The 6x6 matrix of M -> A M A^T in the coordinates y0..y5.

    Row convention: a point transforms as y -> y L.  Requires det A != 0.
    """
    if mat_det3(F, A) == 0:
        raise ValueError("singular matrix does not act on PG(5,q)")
    At = transpose(A)
    rows = []
    for S in _SYM_BASIS:
        T = mat_mul(F, mat_mul(F, A, S), At)
        rows.append(coords_of_matrix(T))
    return tuple(rows)


def apply_lift_point(F: FieldCtx, L, y: Iterable[int]) -> Vec6:
    out = [0] * 6
    for c, row in zip(y, L):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] = F.add(out[j], F.mul(c, x))
    return normalize_vec(F, out)


def k_action(F: FieldCtx, A, obj):
    """Apply the congruence action of A to a point (6-tuple) or Subspace."""
    L = lift(F, A)
    if isinstance(obj, Subspace):
        return canonicalize(F, [apply_lift_point(F, L, r) for r in obj.rows])
    return apply_lift_point(F, L, obj)


# ---------------------------------------------------------------------------
# Polarity (q odd): <A, B> = trace(A B) on symmetric matrices
# ---------------------------------------------------------------------------

def _trace_gram(F: FieldCtx) -> Vec6:
    two = F.add(1, 1)
    return (1, two, two, 1, two, 1)


def polarity_rho(F: FieldCtx, W: Subspace) -> Subspace:
    """Polar subspace under the trace form; an inclusion-reversing involution
    with projdim(rho(W)) = 4 - projdim(W).  q must be odd (the form is
    degenerate in characteristic 2)."""
    if F.p == 2:
        raise FieldError("the trace-form polarity requires odd q")
    g = _trace_gram(F)
    scaled = tuple(tuple(F.mul(gj, x) for gj, x in zip(g, row)) for row in W.rows)
    basis = nullspace(F, scaled)
    return Subspace(F, rref(F, basis)[0])
