"""Scalar oracles that only the test suite calls.

Each one recomputes by brute force a fact that the package relies on
without computing it: that k_generators generate PGL(3,q) (orbit_of walks
orbits under those generators), orbits as sets of RREF row tuples, stabilisers
counted over every group element, orbit-stabiliser counts, point
stabilisers from the Schreier generators of every point of the class,
which the package forms a block of points at a time, the orbit walks one
class at a time with a stored element per point, a dense seen array and
label propagation, and the orbit walk one point at a time, which the
package runs as one kernel over an index table (orbit_labels), the polar
hyperplane of a point under the trace form, completeness as the exact
union of the spans <W, v> over the low-rank points v, which the package
decides in the quotient F^6/W instead, the invariants of one code by the
path describe took before it read them in one pass (od0, duals by
nullspace_batch, sorted images, a second quotient pass for the extension
points), and the point and hyperplane
classes one vector at a time, which the package reads from the dense
tables of invariants.GeomTables, linear combinations over GF(q) by
MUL/ADD table gathers, which bulk.combine computes as codes by a digit
matmul or XOR, the rank-1 points over GF(q^3) by walking the scalar
extension and by scanning every point of PG(2, q^3) for the common zeros
of the dual conics, which the package finds on one reduced conic of the
net,
quotient images by row elimination, which bulk.quotient_codes reads as
the values of the dual vectors, the rank-1-free sweep with od0_batch over
every subspace, the key rows of planes and solids by the rank-1 filter,
elimination and od0_batch over the points of the rank-1-free ones, which
the package reads off the dual bases of every subspace, r2n = h1 on every
plane of the Grassmannian, which the package reads off the od0 and od4
columns of its counts through one point of each point class, the line-pair flag of
planes named by id, which the package reads from the same counts, the
k-subspaces through a point by elimination, which the package writes in
RREF directly, and the key row of every subspace through x_c, where the
package's pass drops those that show a point of an earlier class, the
probed passes of lines and planes through x_c, which the package counts
through the orbits of a subgroup of Stab(x_c) on the quotient F^6/<x_c>, the
solids through a point of each class, which the package counts through
the pencils through a conic of each class instead, every
subspace of PG(n,q) or of a given subspace by pivot pattern, which the
package names by bulk's subspace ids, the Sigma_18 plane by a line search,
which the atlas writes in closed form, a basis of GF(q^3) by testing
independence over GF(q), which the atlas reads off the first element
outside GF(q), and the scalar RREF, dual basis and polynomial arithmetic
by one FieldCtx method call per entry, which pg and the atlas read from
the field's list tables (FieldCtx.scalar_tables).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from srd3 import bulk
from srd3.atlas import d2_classes, rank1_points_over_cubic_extension
from srd3.codes import SrdCode, dim_bound, min_distance
from srd3.gf import FieldCtx, FieldError, cubic_extension, is_square, parse_field_spec
from srd3.invariants import (CLASS_RANK, HYPERPLANE_CLASSES, ClassificationError,
                             _element_codes, _census, _mat_mul, _merged, _moved,
                             _normalized, k_generators, lift_batch, od0, orbit_of,
                             pgl3_order, point_census, point_class, point_classes, tables)
from srd3.pg import (BudgetExceeded, Subspace, canonicalize, coefficient_vectors,
                     free_positions, gaussian_binomial, matrix_rank, normalize_vec,
                     nullspace, pivot_patterns, subspace_points)
from srd3.veronese import (as_matrix, double_line_dual, kernel_point, lift, mat_mul,
                           pg2_points, point_rank, veronese)
from srd3.verify import (_CLASS_ORDER, _COMPLETE, PROBE_POINTS, _bases_through, _block_size,
                         _earlier, _first_class, _histogram, _keys, _pmap, _through_chunks)


def nucleus_plane(F: FieldCtx) -> Subspace:
    """The plane of zero-diagonal symmetric matrices (q even only): the
    registry's Sigma_N, spelled out."""
    if F.p != 2:
        raise FieldError("the nucleus plane exists only for q even")
    return Subspace(F, ((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)))


def in_nucleus_plane(y: Iterable[int]) -> bool:
    y = tuple(y)
    return y[0] == 0 and y[3] == 0 and y[5] == 0


def veronese_points(F: FieldCtx) -> list[tuple[int, ...]]:
    """The q^2+q+1 points of the Veronese surface, in the order of pg2_points."""
    return [veronese(F, u) for u in pg2_points(F)]


def combine_vectors(kit: bulk.Kit, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """bulk.combine as vectors, by one MUL and one ADD table gather per
    term: the rows of A B, (..., m, k) x (..., k, c) -> (..., m, c).  With
    A the (m, k) coefficient vectors it lists the points of the subspaces
    B; with B a 6x6 lift it is bulk.transform."""
    acc = None
    for j in range(A.shape[-1]):
        term = kit.mul(A[..., :, j, None], B[..., j, None, :])
        acc = term if acc is None else kit.add(acc, term)
    return acc


def quotient_codes_eliminate(kit: bulk.Kit, bases: np.ndarray,
                             points: np.ndarray) -> np.ndarray:
    """bulk.quotient_codes by elimination: the image of v in F^c / W is
    v - sum_i v[piv_i] row_i on the c - k free columns of W, by one MUL
    and one ADD table gather per row of W, then scaled to a leading 1 and
    encoded."""
    N, k, c = bases.shape
    piv = np.argmax(bases != 0, axis=2)
    is_piv = np.zeros((N, c), dtype=bool)
    is_piv[np.arange(N)[:, None], piv] = True
    free = np.nonzero(~is_piv)[1].reshape(N, c - k)
    rows = np.take_along_axis(bases, free[:, None, :], axis=2)  # (N, k, c-k)
    acc = points.T[free].transpose(0, 2, 1)                  # (N, P, c-k)
    at_piv = points.T[piv]                                   # (N, k, P)
    for i in range(k):
        acc = kit.sub(acc, kit.mul(at_piv[:, i, :, None], rows[:, i, None, :]))
    lead = np.take_along_axis(acc, np.argmax(acc != 0, axis=2)[..., None], axis=2)
    return bulk.encode(kit.mul(kit.INV[lead], acc), kit.q)


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


def stabilizer_order_by_orbit(W: Subspace, budget: int = 2 * 10 ** 6) -> int:
    """invariants.stabilizer_order as |PGL(3,q)| / |orbit of W|, walking
    the orbit."""
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


def stabilizer_all_points(pc) -> np.ndarray:
    """invariants.PointClass.stabilizer from the Schreier generators of
    every class-c point at once, 3 N_c products formed up front: the
    elements (g, 3, 3) of Stab(x_c)."""
    kit, gens, lifts = pc._kit, pc._gens, pc._lifts
    q = kit.q
    order = pgl3_order(q) // len(pc.codes)
    img = bulk.encode(_normalized(kit, _moved(kit, bulk.decode(pc.codes, q, 6), lifts)), q)
    h_img = pc.transversal(img)
    g_h = _mat_mul(kit, gens[:, None], pc.transversal(pc.codes)).reshape(-1, 3, 3)
    schreier = _mat_mul(kit, bulk.adjugate(kit, h_img), g_h)
    gen_codes, first = np.unique(_element_codes(kit, schreier), return_index=True)
    schreier = schreier[first]
    elems = np.eye(3, dtype=np.uint8)[None]
    seen = _element_codes(kit, elems)
    used: list[np.ndarray] = []
    while len(seen) < order:
        new = np.flatnonzero(~np.isin(gen_codes, seen, assume_unique=True))
        assert len(new), "the Schreier generators fall short of the stabiliser"
        used.append(schreier[new[0]])
        frontier, step = elems, used[-1:]
        while len(frontier):
            img = np.concatenate([_mat_mul(kit, frontier, g) for g in step])
            img_codes, first = np.unique(_element_codes(kit, img), return_index=True)
            fresh = ~np.isin(img_codes, seen, assume_unique=True)
            seen = _merged(seen, img_codes[fresh])
            frontier = img[first[fresh]]
            elems = np.concatenate([elems, frontier])
            step = used
    return elems


def point_class_walk(t, c: int) -> tuple[np.ndarray, np.ndarray]:
    """invariants.PointClass's codes and transversal as one breadth-first
    walk from x_c alone built them, before GeomTables.point_orbits walked
    every class at once: sorted code sets grown with np.isin and _merged,
    a stored 3x3 element g h per point, the first image of each new point
    in generator-major order, and a compare with point_census.  Returns
    (codes ascending, (N_c, 3, 3) transversal aligned with them)."""
    F, kit, q = t.F, t.kit, t.F.q
    size = point_census(F)[point_classes(F)[c - 1]]
    gens = np.array(k_generators(F), dtype=np.uint8)
    lifts = lift_batch(kit, gens)
    pts = bulk.decode(np.array([np.argmax(t.class_code == c)]), q, 6)
    mats = np.eye(3, dtype=np.uint8)[None]
    seen = bulk.encode(pts, q)
    all_codes, all_mats = [seen], [mats]
    while len(pts):
        img = _moved(kit, pts, lifts)
        codes, first = np.unique(bulk.encode(_normalized(kit, img), q), return_index=True)
        fresh = ~np.isin(codes, seen, assume_unique=True)
        seen = _merged(seen, codes[fresh])
        g, h = np.divmod(first[fresh], len(pts))
        pts, mats = img[first[fresh]], _mat_mul(kit, gens[g], mats[h])
        all_codes.append(codes[fresh])
        all_mats.append(mats)
    codes = np.concatenate(all_codes)
    if len(codes) != size:
        raise ClassificationError(f"the walk from the point of class {c} reaches "
                                  f"{len(codes)} points, not the census {size}")
    order = np.argsort(codes)
    return codes[order], np.concatenate(all_mats)[order]


def conic_walk(t) -> tuple[np.ndarray, list[int]]:
    """GeomTables.conic_orbits as a breadth-first walk over a dense q^6
    seen array computed it: from all four h_c at once under the dual action
    of k_generators, checking that every image keeps its source's class
    and that the walk reaches each class's census."""
    kit, q = t.kit, t.F.q
    hclass = t.hclass_table()
    gens = np.array(k_generators(t.F), dtype=np.uint8)
    lifts = lift_batch(kit, bulk.adjugate(kit, gens)).transpose(0, 2, 1)
    first = np.array([np.argmax(hclass == c) for c in range(1, 5)])
    reps = pts = bulk.decode(first, q, 6)
    seen = np.zeros(q ** 6, dtype=bool)
    seen[first] = True
    while len(pts):
        img = _normalized(kit, _moved(kit, pts, lifts))
        codes = bulk.encode(img, q)
        if (hclass[codes] != np.tile(hclass[bulk.encode(pts, q)], len(gens))).any():
            raise ClassificationError("a generator moves a conic to another class")
        new = np.flatnonzero(~seen[codes])
        codes, first = np.unique(codes[new], return_index=True)
        seen[codes] = True
        pts = img[new[first]]
    census = list(_census(q, hclass, HYPERPLANE_CLASSES).values())
    reached = np.bincount(hclass[seen], minlength=5)[1:].tolist()
    if reached != census:
        raise ClassificationError(f"the walk reaches {reached} conics of the classes, "
                                  f"not the census {census}")
    return reps, census


def quotient_orbits_propagate(kit: bulk.Kit, x: np.ndarray,
                              gens: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """invariants.quotient_orbits by label propagation over the image
    table read through bulk.normal_codes, one walk per orbit from its
    smallest point, the next frontier marked point by point."""
    q, j = kit.q, int(np.argmax(x != 0))
    off = np.delete(np.arange(6), j)
    lifts = lift_batch(kit, gens)
    if (_normalized(kit, _moved(kit, x[None], lifts)) != x).any():
        raise ClassificationError("a generator of the quotient group moves its point")
    rows = lifts[:, off]
    norm = bulk.normal_codes(kit, 5)
    pts = np.flatnonzero(norm == np.arange(q ** 5))[1:]
    act = kit.sub(rows, kit.mul(rows[:, :, j, None], x))[:, :, off]
    img = np.searchsorted(pts, norm[bulk.combine(kit, bulk.decode(pts, q, 5), act)])
    label = np.full(len(pts), -1, dtype=np.int32)
    mark = np.zeros(len(pts), dtype=bool)
    sizes = []
    while (label < 0).any():
        frontier = np.argmax(label < 0)[None]
        label[frontier] = len(sizes)
        sizes.append(1)
        while len(frontier):
            step = img[:, frontier].ravel()
            mark[step[label[step] < 0]] = True
            frontier = np.flatnonzero(mark)
            mark[frontier] = False
            label[frontier] = len(sizes) - 1
            sizes[-1] += len(frontier)
    reps = pts[np.unique(label, return_index=True)[1]]
    return label[np.searchsorted(pts, norm)], np.array(sizes, dtype=np.int64), reps


def orbit_labels_scalar(img: np.ndarray, seeds) -> tuple[list[int], list[int], list[int]]:
    """invariants.orbit_labels one point at a time: for each generator in
    turn and each frontier point in order, an unlabelled image takes the
    point as its parent; the next frontier is sorted."""
    g, n = img.shape
    label, parent, gen = [-1] * n, [-1] * n, [-1] * n

    def walk(frontier):
        while frontier:
            new = []
            for i in range(g):
                for y in frontier:
                    z = int(img[i, y])
                    if label[z] < 0:
                        label[z], parent[z], gen[z] = label[y], y, i
                        new.append(z)
            frontier = sorted(new)

    for i, s in enumerate(seeds):
        label[s] = i
    walk(list(seeds))
    walks = len(seeds)
    for y in range(n):
        if label[y] < 0:
            label[y] = walks
            walks += 1
            walk([y])
    return label, parent, gen


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
    """The rank-1-free groups of verify._sweep by od0_batch over every
    k-subspace: ({od0 tuple: sorted ids}, number of k-subspaces)."""
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


def keys_filtered(t, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """verify._keys of planes or solids as the rank-1 filter computed them:
    the positions in bases (RREF) of the subspaces whose dual net or pencil
    of conics has no base point in PG(2,q), i.e. no rank-1 point, and the
    start of their key rows, the od0_batch row over their points and the
    completeness flag, with the quotient images by elimination.  The images
    are dropped before od0_batch runs."""
    img = quotient_codes_eliminate(t.kit, bases, t.v6)
    keep = np.flatnonzero((img != 0).all(axis=1))
    full = bulk.covers_quotient(t.F.q, 6 - bases.shape[1], img[keep])
    del img
    return keep, np.column_stack([t.od0_batch(bases[keep]), full])


def spans_through_eliminate(kit: bulk.Kit, x: np.ndarray, k: int,
                            chunk: tuple[int, int], cols=None) -> np.ndarray:
    """verify._bases_through by elimination: the U with (k-1)-Grassmannian
    ids in chunk, their columns taken in the order cols, x stacked over
    them, and one rref_batch.  By default cols swaps column 0 with j, the
    leading coordinate of x, which maps the same tail of ids onto the
    (k-1)-subspaces of x_j = 0 in another order."""
    if cols is None:
        j = int(np.argmax(x != 0))
        cols = np.arange(6)
        cols[[0, j]] = cols[[j, 0]]
    U = bulk.subspace_bases(kit.q, k - 1, np.arange(*chunk))[:, :, cols]
    return bulk.rref_batch(kit, np.concatenate(
        [np.broadcast_to(x, (len(U), 1, 6)), U], axis=1))[0]


def through_unfiltered(F: FieldCtx, k: int, c: int, jobs: int = 1) -> dict[tuple, int]:
    """{key row: how many} over every k-subspace through x_c, the class-c
    point of smallest code, in the blocks of verify._through's point
    passes: those passes with no probe, and for solids the point side of
    the double counting that verify._through does through pencils."""
    t = tables(F)
    x = bulk.decode(point_class(F, c).codes[:1], F.q, 6)[0]
    return _histogram(t, k, _through_chunks(F.q, k),
                      lambda chunk: _keys(t, _bases_through(t.kit, x, k, chunk)), jobs)


def through_one_level(F: FieldCtx, k: int, c: int, jobs: int = 1) -> dict[tuple, int]:
    """verify._through(F, k, c) for lines and planes as it counted before
    the quotient orbits: every k-subspace through x_c, the class-c point of
    smallest code, in the blocks of _through_chunks, less those that show a
    class before c among the PROBE_POINTS probed points, each key row whose
    first class is c counted once per subspace."""
    t = tables(F)
    x = bulk.decode(point_class(F, c).codes[:1], F.q, 6)[0]
    earlier, probe = _earlier(c), t.coeffs(k)[-PROBE_POINTS:]

    def keys_of(chunk):
        bases = _bases_through(t.kit, x, k, chunk)
        shown = earlier[t.class_code[bulk.combine(t.kit, probe, bases)]]
        return _keys(t, bases[~shown.any(axis=1)])

    got = _histogram(t, k, _through_chunks(F.q, k), keys_of, jobs)
    return {key: n for key, n in got.items() if _first_class(k, key) == c}


def pencils_unfiltered(F: FieldCtx, c: int, jobs: int = 1) -> dict[tuple, int]:
    """verify._through(F, 4, c) with no probe: {key row: how many} over the
    solids of every pencil through h_c, the class-c conic of smallest code."""
    t = tables(F)
    h = t.conic_orbits[0][c - 1]
    return _histogram(t, 4, _through_chunks(F.q, 2),
                      lambda chunk: _keys(t, duals=_bases_through(t.kit, h, 2, chunk)), jobs)


def solids_through_point(F: FieldCtx, c: int, jobs: int = 1) -> dict[tuple, int]:
    """The solid pass of point class c that verify._counts(F, 4) took before
    it counted solids through their pencils: {key row: how many} over the
    solids through x_c that show no point of a class before c among the
    PROBE_POINTS probed points, in the same blocks."""
    t = tables(F)
    x = bulk.decode(point_class(F, c).codes[:1], F.q, 6)[0]
    earlier = np.zeros(5, dtype=bool)
    earlier[list(_CLASS_ORDER[:_CLASS_ORDER.index(c)])] = True
    probe = t.coeffs(4)[-PROBE_POINTS:]

    def keys_of(chunk):
        bases = _bases_through(t.kit, x, 4, chunk)
        shown = earlier[t.class_code[bulk.combine(t.kit, probe, bases)]]
        return _keys(t, bases[~shown.any(axis=1)])

    return _histogram(t, 4, _through_chunks(F.q, 4), keys_of, jobs)


def solid_counts_through_points(F: FieldCtx, jobs: int = 1) -> dict[tuple, dict[tuple, int]]:
    """verify._counts(F, 4) from the point side, as it counted before the
    pencil passes, reduced to the od0 row and the completeness flag: by
    point class c, how many solids have each (od0, complete) prefix among
    those whose first point class in _CLASS_ORDER is c, each key row of the
    pass of c counted as N_c n / s_c.  The passes stop, as verify's do,
    once every solid is counted."""
    out: dict[tuple, dict[tuple, int]] = {}
    total, everything = 0, gaussian_binomial(6, 4, F.q)
    for c in _CLASS_ORDER:
        if total == everything:
            break
        size = len(point_class(F, c).codes)
        for key, n in solids_through_point(F, c, jobs).items():
            if next(d for d in _CLASS_ORDER if key[d - 1]) != c:
                continue
            assert size * n % key[c - 1] == 0, (c, key)
            solids = size * n // key[c - 1]
            counted, prefix = out.setdefault(c, {}), key[:_COMPLETE + 1]
            counted[prefix] = counted.get(prefix, 0) + solids
            total += solids
    assert total == everything, (total, everything)
    return out


def on_line_pair(F: FieldCtx, ids: np.ndarray, jobs: int = 1) -> np.ndarray:
    """Which of the planes with the given ids lie on a line-pair hyperplane
    (class H2r or H2i): (N,) bool in the order of ids, from od4_batch on
    the planes rebuilt from their ids in _block_size(q, 3) blocks, where
    the package reads the flag from its counts."""
    q = F.q
    t = tables(F)
    t.hclass_table()  # build before forking
    block = _block_size(q, 3)
    items = [(s, min(s + block, len(ids))) for s in range(0, len(ids), block)]

    def work(item):
        d4 = t.od4_batch(bulk.subspace_bases(q, 3, ids[item[0]:item[1]]))
        return (d4[:, 1] + d4[:, 2]) > 0

    parts = _pmap(work, items, jobs)
    return np.concatenate(parts) if parts else np.empty(0, dtype=bool)


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
        pts = combine_vectors(kit, coeff3, stacked.reshape(n * s, 3, 6))
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
    return [v for v in coefficient_vectors(F.q, 6) if point_rank(F, v) < d]


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


def _points_below_reference(F: FieldCtx, d: int) -> np.ndarray:
    """The points of rank < d off the whole class table: every vector of
    rank 1 .. d-1, decoded, then those with a leading 1."""
    below = (CLASS_RANK >= 1) & (CLASS_RANK < d)
    vecs = bulk.decode(np.flatnonzero(below[tables(F).class_code]), F.q, 6)
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    return vecs[lead == 1]


def _images_reference(C: SrdCode, pts: np.ndarray) -> np.ndarray:
    """Quotient images of pts under the duals of nullspace_batch."""
    kit = bulk.kit_for(C.F)
    duals = bulk.nullspace_batch(kit, np.array([C.subspace.rows], dtype=np.uint8))
    return bulk.quotient_codes(kit, duals, pts)[0]


def _ranks_reference(C: SrdCode) -> tuple[int, tuple[int, int, int]]:
    """The minimum distance and [r1, r2, r3] of C, from od0."""
    r1, r2a, r2b, r3 = od0(C.subspace)
    ranks = (r1, r2a + r2b, r3)
    return next(i + 1 for i, c in enumerate(ranks) if c), ranks


def extension_points_reference(C: SrdCode) -> list[tuple[int, ...]]:
    """codes.extension_points with two quotient passes and np.isin."""
    if C.dim == 6:
        return []
    pts = _points_below_reference(C.F, 4)
    img = _images_reference(C, pts)
    low = _images_reference(C, _points_below_reference(C.F, _ranks_reference(C)[0]))
    keep = (img != 0) & ~np.isin(img, low)
    return [tuple(int(x) for x in v) for v in pts[keep]]


def describe_reference(C: SrdCode) -> dict:
    """codes.describe by the path it took before its one-pass form: the
    point ranks from od0, completeness by sorting the images of the points
    of rank < d under the duals of nullspace_batch (bulk.covers_quotient),
    and the label from the od0 formulas or the rank-1 count over GF(q^3)."""
    F, q, k = C.F, C.F.q, C.dim
    d, ranks = _ranks_reference(C)
    if d == 1:
        complete = k == 6
    else:
        img = _images_reference(C, _points_below_reference(F, d))
        complete = bool(bulk.covers_quotient(q, 6 - k, img[None])[0])
    if not complete:
        label = "NotComplete"
    elif d == 1:
        label = "WholeSpace"
    elif d == 2:
        kind = {3: "plane", 4: "solid"}.get(k)
        label = next(spec.rep_id for spec in d2_classes(F)
                     if spec.kind == kind and spec.od0_formula(q)[3] == ranks[2])
    else:
        label = {3: "GF_type", 0: "TF_type"}[rank1_points_over_cubic_extension(F, C.subspace)]
    return {"field": F.spec, "dim": k, "size": q ** k, "min_distance": d,
            "rank_distribution": [1] + [(q - 1) * r for r in ranks],
            "is_msrd": k == dim_bound(3, d), "is_complete": complete, "label": label}


def rank1_points_over_cubic_extension_scalar(F: FieldCtx, W: Subspace) -> int:
    """atlas.rank1_points_over_cubic_extension by walking every point of
    W (x) GF(q^3) and computing its rank."""
    ext = cubic_extension(F)
    E = ext.ext
    rows = [tuple(ext.embed_table[x] for x in row) for row in W.rows]
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


def rank1_points_over_cubic_extension_chart(F: FieldCtx, W: Subspace) -> int:
    """atlas.rank1_points_over_cubic_extension by scanning every point of
    PG(2, q^3) for the common zeros of W's dual conics: the affine chart
    (1, x, y) in blocks of x, then the line (0, 1, y), then the point
    (0, 0, 1)."""
    ext = cubic_extension(F)
    Q = ext.ext.q
    duals = nullspace(F, W.rows)
    if not duals:
        return Q * Q + Q + 1
    # the embedded conics, with a zero coefficient appended at index 6
    C = np.zeros((len(duals), 7), dtype=np.int64)
    C[:, :6] = np.array(ext.embed_table)[np.array(duals)]
    every, zero = np.arange(Q), np.zeros(1, dtype=np.int64)
    return (_chart_zeros(ext.ext, C[:, :6], every, every)
            + _chart_zeros(ext.ext, C[:, [3, 6, 4, 6, 6, 5]], zero, every)
            + _chart_zeros(ext.ext, C[:, [5, 6, 6, 6, 6, 6]], zero, zero))


def _chart_zeros(E: FieldCtx, C: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> int:
    """Number of (x, y) in xs * ys at which every conic
    c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2 of C (m, 6) vanishes.  The
    first conic is evaluated on blocks of 2^16 points, the others only at
    its zeros; products go through E's log/exp tables."""
    LOG, EXP = E.np_table('log'), E.np_table('exp')
    ADD = None if E.p == 2 else E.np_table('add')

    def add(a, b):
        return a ^ b if ADD is None else ADD[a, b]

    def mul(a, b):
        return EXP[LOG[a] + LOG[b]]

    def value(c, x, y):
        const = add(add(c[0], mul(c[1], x)), mul(c[3], mul(x, x)))
        slope = add(c[2], mul(c[4], x))
        return add(add(const, mul(slope, y)), mul(c[5], mul(y, y)))

    rows = max(1, (1 << 16) // len(ys))
    count = 0
    for s in range(0, len(xs), rows):
        x = xs[s:s + rows, None]
        i, j = np.nonzero(value(C[0], x, ys[None, :]) == 0)
        x, y = x[i, 0], ys[j]
        for c in C[1:]:
            keep = value(c, x, y) == 0
            x, y = x[keep], y[keep]
        count += len(x)
    return count


def r2n_h1_sweep(F: FieldCtx, jobs: int = 1) -> tuple[int, list[int]]:
    """T3.7 over every plane of PG(5,q), q even, in id chunks: (planes with
    r2n != h1, histogram of dim(W meet N) over all planes), N the nucleus
    plane, r2n its points in W and h1 the double-line hyperplanes through
    W."""
    q = F.q
    t = tables(F)
    kit = t.kit
    pts_of_dim = np.array([0, 1, q + 1, q * q + q + 1], dtype=np.int64)

    def work(chunk):
        block = bulk.subspace_bases(q, 3, np.arange(*chunk))
        rank = bulk.rref_batch(kit, block[:, :, [0, 3, 5]])[1]
        r2n = pts_of_dim[3 - rank]
        h1count = (bulk.combine(kit, t.h1, block.transpose(0, 2, 1)) == 0).sum(axis=1)
        return int((h1count != r2n).sum()), np.bincount(3 - rank, minlength=4)

    parts = _pmap(work, bulk.id_chunks(q, 3, _block_size(q, 3)), jobs)
    return sum(m for m, _ in parts), [int(x) for x in np.sum([h for _, h in parts], axis=0)]


def all_subspaces(n: int, q: int, projdim: int, budget: int = 10 ** 7,
                  F: FieldCtx | None = None) -> Iterator[Subspace]:
    """Every projective subspace of PG(n,q) of the given dimension, once,
    in the order of bulk's subspace ids.

    Enumerates RREF canonical forms by pivot-column pattern; the count is
    gaussian_binomial(n+1, projdim+1, q).  Raises BudgetExceeded up front
    (with the exact count needed) if the stream would be too long.
    """
    if F is None:
        F = parse_field_spec(str(q))
    k, ncols = projdim + 1, n + 1
    total = gaussian_binomial(ncols, k, q)
    if total > budget:
        raise BudgetExceeded(total, budget)
    for pattern in pivot_patterns(ncols, k):
        free = free_positions(pattern, ncols)
        nf = len(free)
        base = [[0] * ncols for _ in range(k)]
        for i, p in enumerate(pattern):
            base[i][p] = 1
        for m in range(q ** nf):
            rows = [row[:] for row in base]
            mm = m
            for slot in range(nf - 1, -1, -1):
                i, c = free[slot]
                rows[i][c] = mm % q
                mm //= q
            yield Subspace(F, tuple(tuple(r) for r in rows))


def subspaces_within(W: Subspace, projdim: int) -> Iterator[Subspace]:
    """All subspaces of the given projective dimension contained in W."""
    F = W.F
    for inner in all_subspaces(W.k - 1, F.q, projdim, budget=10 ** 8, F=F):
        rows = []
        for coeff_row in inner.rows:
            v = [0] * (W.ambient + 1)
            for c, row in zip(coeff_row, W.rows):
                if c:
                    for j, x in enumerate(row):
                        if x:
                            v[j] = F.add(v[j], F.mul(c, x))
            rows.append(tuple(v))
        yield canonicalize(F, rows)


def sigma18_search(F: FieldCtx) -> Subspace:
    """The Sigma_18 plane (q even >= 4) by a line search: take the first
    rank-2 point P of the nucleus plane, the hyperplane H(P) cut out by the
    double of the line underlying the conic of P, and the first
    constant-rank-3 line inside H(P); the plane is its span with P."""
    P = next(iter(subspace_points(nucleus_plane(F))))
    dual = double_line_dual(F, kernel_point(F, P))
    H = Subspace(F, nullspace(F, (dual,)))
    class_code = tables(F).class_code
    for line in subspaces_within(H, 1):
        pts = np.array(list(subspace_points(line)), dtype=np.uint8)
        if (class_code[bulk.encode(pts, F.q)] == 4).all():
            return canonicalize(F, line.rows + (P,))
    raise AssertionError("no constant-rank-3 line in H(P)")


def ext_basis_by_independence(ext) -> tuple[int, int, int]:
    """The basis 1, z, z^2 of GF(q^3) over GF(q) for the first z outside
    the embedded GF(q) whose powers no nonzero GF(q)-combination sends to
    0, trying every combination."""
    E, emb = ext.ext, ext.embed_table
    for z in range(E.q):
        if z in emb:
            continue
        vecs = (1, z, E.mul(z, z))
        if all(E.add(E.mul(emb[a], vecs[0]),
                     E.add(E.mul(emb[b], vecs[1]), E.mul(emb[c], vecs[2]))) != 0
               for a in range(ext.base.q) for b in range(ext.base.q)
               for c in range(ext.base.q) if (a, b, c) != (0, 0, 0)):
            return vecs
    raise AssertionError("no degree-3 element found")


def rref_calls(F: FieldCtx, rows: Iterable[Iterable[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """pg.rref by F.mul / F.sub / F.inv calls: (nonzero rows, rank)."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F.inv(mat[r][c])
        if inv != 1:
            mat[r] = [F.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), r


def dual_basis_calls(W: Subspace) -> tuple[tuple[int, ...], ...]:
    """pg.dual_basis by F.neg calls: for each free column f, 1 at f and
    -row[f] at each row's pivot."""
    F, rows = W.F, W.rows
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    basis = []
    for f in range(len(rows[0])):
        if f in pivots:
            continue
        v = [0] * len(rows[0])
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = F.neg(row[f])
        basis.append(tuple(v))
    return tuple(basis)


def combination_calls(F: FieldCtx, d: tuple[int, ...], polys: tuple) -> list[int]:
    """atlas._combination by F.add / F.mul calls: the five coefficients of
    sum_j d[j] polys[j]."""
    out = [0] * 5
    for dj, poly in zip(d, polys):
        if dj:
            for t, c in enumerate(poly):
                out[t] = F.add(out[t], F.mul(dj, c))
    return out


def pmul_calls(F: FieldCtx, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """atlas._pmul by F.add / F.mul calls: the product of two polynomials,
    constant terms first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return tuple(out)
