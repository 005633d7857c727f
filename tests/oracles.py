"""Scalar oracles that only the test suite calls.

Each one recomputes by brute force a fact that the package relies on
without computing it: that k_generators generate PGL(3,q) (orbit_of walks
orbits under those generators), orbits as sets of RREF row tuples, stabilisers
counted over every group element, orbit-stabiliser counts, the polar
hyperplane of a point under the trace form, completeness as the exact
union of the spans <W, v> over the low-rank points v, which the package
decides in the quotient F^6/W instead, and the point and hyperplane
classes one vector at a time, which the package reads from the dense
tables of invariants.GeomTables, and the rank-1 points over GF(q^3) by
walking the scalar extension, which the package counts as common zeros of
the dual conics, and the rank-1-free sweep with od0_batch over every
subspace, which the package runs only on the solids whose pencil of dual
conics has no base point.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from srd3 import bulk
from srd3.codes import SrdCode, min_distance
from srd3.gf import FieldCtx, FieldError, cubic_extension, is_square
from srd3.invariants import (HYPERPLANE_CLASSES, ClassificationError, k_generators,
                             orbit_of, pgl3_order, tables)
from srd3.pg import (BudgetExceeded, Subspace, canonicalize, coefficient_vectors,
                     gaussian_binomial, matrix_rank, normalize_vec, nullspace,
                     subspace_points)
from srd3.veronese import (as_matrix, lift, mat_mul, pg2_points,
                           point_rank, veronese)
from srd3.verify import _block_size, _pmap


def in_nucleus_plane(y: Iterable[int]) -> bool:
    y = tuple(y)
    return y[0] == 0 and y[3] == 0 and y[5] == 0


def veronese_points(F: FieldCtx) -> list[tuple[int, ...]]:
    """The q^2+q+1 points of the Veronese surface, in the order of pg2_points."""
    return [veronese(F, u) for u in pg2_points(F)]


def normalize_rows(kit: bulk.Kit, vecs: np.ndarray) -> np.ndarray:
    """Scale each nonzero row so its first nonzero coordinate is 1."""
    n = len(vecs)
    lead = vecs[np.arange(n), np.argmax(vecs != 0, axis=1)]
    return kit.mul(kit.INV[lead][:, None], vecs)


def _adj_diagonal(F: FieldCtx, y) -> tuple[int, int, int]:
    m, s = F.mul, F.sub
    y0, y1, y2, y3, y4, y5 = y
    return (s(m(y3, y5), m(y4, y4)),
            s(m(y0, y5), m(y2, y2)),
            s(m(y0, y3), m(y1, y1)))


def classify_point(F: FieldCtx, y) -> str:
    """Class of a nonzero point of PG(5,q); scale-invariant.  A rank-2 point
    (q odd) is exterior iff -D is a nonzero square, D the first nonzero
    diagonal entry of adj(M)."""
    r = point_rank(F, y)
    if r == 1:
        return "P1"
    if r == 3:
        return "P3"
    if F.p == 2:
        return "P2n" if in_nucleus_plane(y) else "P2s"
    d = next(v for v in _adj_diagonal(F, y) if v)
    return "P2e" if is_square(F, F.neg(d)) else "P2i"


def classify_hyperplane(F: FieldCtx, dual) -> str:
    """Class of the hyperplane with the given dual vector, from the zero set
    S in PG(2,q) of the conic with the same coefficient vector: size 1
    (imaginary pair), 2q+1 (real pair) or q+1 (double line when collinear,
    nonsingular conic otherwise)."""
    dual = normalize_vec(F, tuple(dual))
    zeros = []
    for u in pg2_points(F):
        s = 0
        for a, x in zip(dual, veronese(F, u)):
            s = F.add(s, F.mul(a, x))
        if s == 0:
            zeros.append(u)
    n = len(zeros)
    if n == 1:
        return "H2i"
    if n == 2 * F.q + 1:
        return "H2r"
    if n == F.q + 1:
        return "H1" if matrix_rank(F, zeros) == 2 else "H3"
    raise ClassificationError(f"conic zero set of size {n} for dual {dual}")


def duals_through(W: Subspace) -> list[tuple[int, ...]]:
    """Normalized dual vectors of all hyperplanes containing W."""
    basis = nullspace(W.F, W.rows)
    return list(subspace_points(Subspace(W.F, basis))) if basis else []


def od4_scalar(W: Subspace) -> tuple[int, int, int, int]:
    """invariants.od4 by classifying each hyperplane through W."""
    counts = dict.fromkeys(HYPERPLANE_CLASSES, 0)
    for dual in duals_through(W):
        counts[classify_hyperplane(W.F, dual)] += 1
    return tuple(counts[c] for c in HYPERPLANE_CLASSES)


def group_order_bfs(F: FieldCtx, budget: int = 10 ** 6) -> int:
    """Order of the projective group generated by k_generators, by closure
    (small q only)."""
    gens = k_generators(F)

    def norm(M):
        flat = [x for row in M for x in row]
        lead = next(x for x in flat if x)
        if lead == 1:
            return tuple(flat)
        inv = F.inv(lead)
        return tuple(F.mul(inv, x) for x in flat)

    def unflat(t):
        return (t[0:3], t[3:6], t[6:9])

    start = norm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                img = norm(mat_mul(F, unflat(el), g))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        if len(seen) > budget:
            raise BudgetExceeded(len(seen), budget)
        frontier = nxt
    return len(seen)


def stabilizer_order(W: Subspace, budget: int = 2 * 10 ** 6) -> int:
    """|PGL(3,q)| / |orbit of W|."""
    orbit = orbit_of(W, budget=budget)
    order = pgl3_order(W.F.q)
    assert order % len(orbit) == 0
    return order // len(orbit)


def orbit_rows(W: Subspace, budget: int = 2 * 10 ** 6) -> list[tuple[tuple[int, ...], ...]]:
    """invariants.orbit_of as a sorted list of canonical RREF row tuples,
    by a BFS that keys each subspace by the bytes of its RREF basis."""
    F = W.F
    t = tables(F)
    kit = t.kit
    lifts = [np.array(lift(F, A), dtype=np.uint8) for A in k_generators(F)]
    k = W.k
    start = np.array([W.rows], dtype=np.uint8)
    visited = {start[0].tobytes()}
    frontier = start
    while len(frontier):
        images = np.concatenate([bulk.transform(kit, frontier, L) for L in lifts])
        red, rk = bulk.rref_batch(kit, images)
        assert int(rk.min()) == k
        fresh = []
        for row in red:
            key = row.tobytes()
            if key not in visited:
                visited.add(key)
                fresh.append(row)
        if len(visited) > budget:
            raise BudgetExceeded(len(visited), budget)
        frontier = np.array(fresh, dtype=np.uint8) if fresh else np.empty((0, k, 6), np.uint8)
    out = [tuple(tuple(int(x) for x in r) for r in np.frombuffer(key, np.uint8).reshape(k, 6))
           for key in visited]
    return sorted(out)


_pgl3: dict[int, np.ndarray] = {}


def pgl3_elements(F: FieldCtx) -> np.ndarray:
    """Every element of PGL(3,q) once, as the 3x3 matrix whose first
    nonzero entry is 1: (|PGL(3,q)|, 3, 3).  Small q only."""
    got = _pgl3.get(id(F))
    if got is not None:
        return got
    kit, q = bulk.kit_for(F), F.q
    flat = bulk.decode(np.arange(q ** 9), q, 9)
    A = flat[flat[np.arange(len(flat)), np.argmax(flat != 0, axis=1)] == 1].reshape(-1, 3, 3)
    m, s = kit.mul, kit.sub

    def minor(r, c, r2, c2):
        return s(m(A[:, r, c], A[:, r2, c2]), m(A[:, r, c2], A[:, r2, c]))

    det = kit.add(s(m(A[:, 0, 0], minor(1, 1, 2, 2)), m(A[:, 0, 1], minor(1, 0, 2, 2))),
                  m(A[:, 0, 2], minor(1, 0, 2, 1)))
    got = _pgl3[id(F)] = A[det != 0]
    return got


def stabilizer_by_group(W: Subspace) -> int:
    """Order of the stabiliser of W, counted over every element A of
    PGL(3,q): A fixes W iff each image A M A^T of a basis row of W is
    orthogonal to every dual vector of W."""
    F = W.F
    kit = bulk.kit_for(F)
    G = pgl3_elements(F)
    duals = np.array(nullspace(F, W.rows), dtype=np.uint8)
    fixed = np.ones(len(G), dtype=bool)
    for y in W.rows:
        M = np.array(as_matrix(y), dtype=np.uint8)
        AM = np.zeros(G.shape, dtype=np.uint8)
        AMAt = np.zeros(G.shape, dtype=np.uint8)
        for j in range(3):
            AM = kit.add(AM, kit.mul(G[:, :, j, None], M[None, None, j, :]))
        for j in range(3):
            AMAt = kit.add(AMAt, kit.mul(AM[:, :, None, j], G[:, None, :, j]))
        image = AMAt[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]]
        dots = np.zeros((len(G), len(duals)), dtype=np.uint8)
        for i in range(6):
            dots = kit.add(dots, kit.mul(image[:, i, None], duals[None, :, i]))
        fixed &= (dots == 0).all(axis=1)
    return int(fixed.sum())


def rho_point(F: FieldCtx, y: Iterable[int]) -> tuple[int, ...]:
    """Dual vector of the polar hyperplane of a point under the trace form
    <A, B> = trace(A B), whose Gram diagonal on the coordinates
    (a00, a01, a02, a11, a12, a22) is (1, 2, 2, 1, 2, 1)."""
    if F.p == 2:
        raise FieldError("the trace-form polarity requires odd q")
    two = F.add(1, 1)
    g = (1, two, two, 1, two, 1)
    return normalize_vec(F, tuple(F.mul(gj, x) for gj, x in zip(g, y)))


def rank1_free_groups_unfiltered(F: FieldCtx, k: int, jobs: int = 1):
    """verify._rank1_free_groups with od0_batch over every k-subspace and no
    pencil filter: ({od0 tuple: sorted ids}, number of k-subspaces)."""
    q = F.q
    t = tables(F)

    def work(chunk):
        lo, hi = chunk
        dist = t.od0_batch(bulk.subspace_bases(q, k, np.arange(lo, hi)))
        keep = np.flatnonzero(dist[:, 0] == 0)
        seld = dist[keep]
        return [(tuple(int(x) for x in sig), lo + keep[(seld == sig).all(axis=1)])
                for sig in np.unique(seld, axis=0)]

    groups: dict[tuple, list] = {}
    for part in _pmap(work, bulk.id_chunks(q, k, _block_size(q, k)), jobs):
        for sig, ids in part:
            groups.setdefault(sig, []).append(ids)
    merged = {sig: np.concatenate(arrs) for sig, arrs in groups.items()}
    return merged, gaussian_binomial(6, k, q)


def line_sweep_union(F: FieldCtx, jobs: int = 1) -> tuple[int, int]:
    """(minimum-rank-2 lines, complete ones), each line's coverage taken as
    the exact union of the (q^2+q+1)^2 points of its spans with the rank-1
    points."""
    q = F.q
    t = tables(F)
    kit = bulk.kit_for(F)
    total_pts = (q ** 6 - 1) // (q - 1)
    v_arr = t.v6
    s = len(v_arr)
    coeff3 = t.coeffs(3)
    chunks = bulk.id_chunks(q, 2, max(256, (1 << 20) // (s * len(coeff3))))

    def work(chunk):
        block = bulk.subspace_bases(q, 2, np.arange(*chunk))
        dist = t.od0_batch(block)
        mask = (dist[:, 0] == 0) & ((dist[:, 1] + dist[:, 2]) > 0)
        if not mask.any():
            return 0, 0
        lines = block[mask]
        n = len(lines)
        stacked = np.empty((n, s, 3, 6), dtype=np.uint8)
        stacked[:, :, :2, :] = lines[:, None, :, :]
        stacked[:, :, 2, :] = v_arr[None, :, :]
        pts = bulk.combine(kit, coeff3, stacked.reshape(n * s, 3, 6))
        pts = normalize_rows(kit, pts.reshape(-1, 6)).reshape(n, -1, 6)
        codes = bulk.encode(pts, q).reshape(n, -1)
        codes.sort(axis=1)
        distinct = 1 + (np.diff(codes, axis=1) != 0).sum(axis=1)
        return n, int((distinct >= total_pts).sum())

    n_lines = n_complete = 0
    for a, b in _pmap(work, chunks, jobs):
        n_lines += a
        n_complete += b
    return n_lines, n_complete


def _low_rank_points(F: FieldCtx, d: int) -> list[tuple[int, ...]]:
    t = tables(F)
    out = []
    for v in coefficient_vectors(F.q, 6):
        code = 0
        for x in v:
            code = code * F.q + x
        if 1 <= t.rank_code[code] < d:
            out.append(v)
    return out


def _covered(C: SrdCode) -> set[tuple[int, ...]]:
    """Points of the code and of every span <W, v> with rank(v) < d."""
    F, W = C.F, C.subspace
    covered = set(subspace_points(W))
    for v in _low_rank_points(F, min_distance(C)):
        covered.update(subspace_points(canonicalize(F, W.rows + (v,))))
    return covered


def is_complete_union(C: SrdCode) -> bool:
    """codes.is_complete by the point-set union."""
    if min_distance(C) == 1:
        return C.dim == 6
    q = C.F.q
    return len(_covered(C)) == (q ** 6 - 1) // (q - 1)


def extension_points_union(C: SrdCode) -> list[tuple[int, ...]]:
    """codes.extension_points by the point-set union."""
    covered = _covered(C)
    return [v for v in coefficient_vectors(C.F.q, 6) if v not in covered]


def rank1_points_over_cubic_extension_scalar(F: FieldCtx, W: Subspace) -> int:
    """atlas.rank1_points_over_cubic_extension by walking every point of
    W (x) GF(q^3) and computing its rank."""
    ext = cubic_extension(F)
    E = ext.ext
    rows = [tuple(ext.embed(x) for x in row) for row in W.rows]
    count = 0
    for coeffs in coefficient_vectors(E.q, len(rows)):
        v = [0] * 6
        for c, row in zip(coeffs, rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = E.add(v[j], E.mul(c, x))
        if point_rank(E, v) == 1:
            count += 1
    return count
