"""Orbit invariants: point and hyperplane classification, distributions.

Points of PG(5,q) fall into six classes under the congruence action of
PGL(3,q): the rank-1 points P1, the rank-3 points P3, and two rank-2
classes that depend on the parity of q.

    q even:  P2n  rank-2 points with zero diagonal (the nucleus plane),
             P2s  all other rank-2 points;
    q odd:   P2e  rank-2 points exterior to their conic,
             P2i  rank-2 points interior to their conic.

The exterior test used everywhere is algebraic: for a rank-2 symmetric M
pick the first nonsingular principal 2x2 block, with determinant D well
defined modulo squares; the point is exterior iff -D is a nonzero square.
The D values are the diagonal entries of adj(M), which for rank-2 M equals
lambda * k k^T with k spanning the kernel, so a nonzero diagonal entry
always exists when q is odd.  The geometric tangent-count oracle lives in
exterior_by_tangents and the test suite checks the two agree.

Hyperplanes fall into four classes H1/H2r/H2i/H3 according to the conic
with the same coefficient vector (double line, real pair, imaginary pair,
nonsingular).  One rule decides the class, from the number of zeros of the
conic in PG(2,q), i.e. the number of Veronese points on the hyperplane:
1 zero is H2i, 2q+1 zeros is H2r, and q+1 zeros is H1 when the dual is a
double-line dual (veronese.h1_duals) and H3 otherwise.  The rule runs once
per field, vectorised, to build GeomTables.hclass_table; the censuses, od4,
od4_batch and the C4 checks all read that table.

A per-field cache (tables) holds dense code-indexed class tables so the
enumeration drivers can classify millions of points via numpy gathers.
The point table is class_code alone: each class has one rank (CLASS_RANK),
so a reader that needs ranks maps the class codes through that constant.

A subspace has a rank-1 point iff some Veronese point is orthogonal to
every vector of its dual, i.e. iff the conics of the dual (a pencil for a
solid, a net for a plane) have a common zero in PG(2,q).  That is a
Veronese point whose quotient image (bulk.quotient_codes, the values of
the dual vectors) is 0; for a solid, evaluating its 2 dual vectors at the
q^2+q+1 Veronese points is far less work than classifying its
q^3+q^2+q+1 points with od0_batch.
"""

from __future__ import annotations

import numpy as np

from srd3 import bulk
from srd3.gf import FieldCtx, FieldError
from srd3.pg import BudgetExceeded, Subspace, normalize_vec, rref
from srd3.veronese import conic_plane_of, h1_duals, lift, pg2_points, veronese

POINT_CLASSES_EVEN = ("P1", "P2n", "P2s", "P3")
POINT_CLASSES_ODD = ("P1", "P2e", "P2i", "P3")
HYPERPLANE_CLASSES = ("H1", "H2r", "H2i", "H3")

# the rank of each point class code of GeomTables.class_code: 0 for the zero
# vector, then P1, the two rank-2 classes, P3
CLASS_RANK = np.array([0, 1, 2, 2, 3], dtype=np.uint8)


class ClassificationError(RuntimeError):
    """A computed signature matches no known class (implementation bug)."""


def point_classes(F: FieldCtx) -> tuple[str, str, str, str]:
    return POINT_CLASSES_EVEN if F.p == 2 else POINT_CLASSES_ODD


# ---------------------------------------------------------------------------
# Geometric oracle
# ---------------------------------------------------------------------------

def exterior_by_tangents(F: FieldCtx, y) -> bool:
    """Geometric oracle: a rank-2 point (q odd) is exterior iff exactly two
    tangent lines of its conic pass through it inside the conic plane."""
    if F.p == 2:
        raise FieldError("exterior/interior split requires odd q")
    y = normalize_vec(F, tuple(y))
    _, conic = conic_plane_of(F, y)
    tangents = 0
    seen = set()
    for t in conic:
        line = rref(F, (y, t))[0]
        if line in seen:
            continue
        seen.add(line)
        sub = Subspace(F, line)
        hits = sum(1 for c in conic if sub.contains_point(c))
        if hits == 1:
            tangents += 1
    if tangents not in (0, 2):
        raise ClassificationError(f"tangent count {tangents} for {y}")
    return tangents == 2


# ---------------------------------------------------------------------------
# Per-field dense tables
# ---------------------------------------------------------------------------

# vector codes decoded and classified at a time while GeomTables is built;
# every q <= 9 fits in one block
TABLE_BLOCK = 1 << 20

# the largest q with point tables: they index all q^6 vectors of F_q^6
TABLE_MAX_Q = 16


def require_tables(q: int) -> None:
    """Raise FieldError if GF(q) is above the point tables' range."""
    if q > TABLE_MAX_Q:
        raise FieldError(f"point tables support q <= {TABLE_MAX_Q}, got q={q}")


class GeomTables:
    """Code-indexed classification tables for one field (q <= TABLE_MAX_Q).

    point codes run over all of F_q^6 (not just normalized vectors); the
    class is scale invariant so no normalization is needed at lookup time.
    class_code is the only point table, filled TABLE_BLOCK codes at a time;
    each block's ranks decide its classes and are then dropped (CLASS_RANK
    gives the rank of a class).
    """

    def __init__(self, F: FieldCtx):
        require_tables(F.q)
        self.F = F
        q = F.q
        self.kit = bulk.kit_for(F)
        self.class_code = np.empty(q ** 6, dtype=np.uint8)
        for lo in range(0, q ** 6, TABLE_BLOCK):
            hi = min(lo + TABLE_BLOCK, q ** 6)
            vecs = bulk.decode(np.arange(lo, hi, dtype=np.int64), q, 6)
            mats = vecs[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
            rank = bulk.rank_batch(self.kit, mats)
            self.class_code[lo:hi] = self._build_classes(vecs, rank)
        self.v6 = np.array([veronese(F, u) for u in pg2_points(F)], dtype=np.uint8)
        self.h1 = np.array(h1_duals(F), dtype=np.uint8)
        self._coeffs: dict[int, np.ndarray] = {}
        # point class -> PointClass, filled by point_class on first use
        self.point_class_data: dict[int, "PointClass"] = {}

    def _build_classes(self, vecs: np.ndarray, rank: np.ndarray) -> np.ndarray:
        kit, F = self.kit, self.F
        cls = np.zeros(len(vecs), dtype=np.uint8)
        cls[rank == 1] = 1
        cls[rank == 3] = 4
        r2 = rank == 2
        if F.p == 2:
            diag0 = (vecs[:, 0] == 0) & (vecs[:, 3] == 0) & (vecs[:, 5] == 0)
            cls[r2 & diag0] = 2
            cls[r2 & ~diag0] = 3
        else:
            y = [vecs[:, i] for i in range(6)]
            adj0 = kit.sub(kit.mul(y[3], y[5]), kit.mul(y[4], y[4]))
            adj1 = kit.sub(kit.mul(y[0], y[5]), kit.mul(y[2], y[2]))
            adj2 = kit.sub(kit.mul(y[0], y[3]), kit.mul(y[1], y[1]))
            d = np.where(adj0 != 0, adj0, np.where(adj1 != 0, adj1, adj2))
            sq = np.zeros(F.q, dtype=bool)
            for a in F.nonzero():
                sq[F.mul(a, a)] = True
            ext = sq[kit.NEG[d]]
            cls[r2 & ext] = 2
            cls[r2 & ~ext] = 3
        return cls

    def coeffs(self, k: int) -> np.ndarray:
        """Normalized coefficient vectors of F_q^k as one (m, k) array."""
        arr = self._coeffs.get(k)
        if arr is None:
            from srd3.pg import coefficient_vectors
            arr = np.array(list(coefficient_vectors(self.F.q, k)), dtype=np.uint8)
            self._coeffs[k] = arr
        return arr

    def od0_batch(self, bases: np.ndarray) -> np.ndarray:
        """Point-orbit distributions of a batch of subspaces: (N,k,6) -> (N,4)."""
        cls = self.class_code[bulk.combine(self.kit, self.coeffs(bases.shape[1]), bases)]
        out = np.empty((len(bases), 4), dtype=np.int64)
        for i in range(4):
            out[:, i] = (cls == i + 1).sum(axis=1)
        return out

    def hclass_table(self) -> np.ndarray:
        """Dense dual-code -> hyperplane class (1..4 as in
        HYPERPLANE_CLASSES, 0 for the zero vector), all scalar multiples
        filled so lookups skip normalization.  Built on first use by the
        zero-count rule of the module docstring."""
        t = getattr(self, "_hclass_arr", None)
        if t is not None:
            return t
        kit, q = self.kit, self.F.q
        t = np.zeros(q ** 6, dtype=np.uint8)
        multiples = np.arange(1, q, dtype=np.uint8)[:, None]
        for lo, hi in bulk.id_chunks(q, 1, 1 << 14):
            duals = bulk.subspace_bases(q, 1, np.arange(lo, hi))
            # the value of each conic at each Veronese point: (M, q^2+q+1)
            zeros = (bulk.combine(kit, self.v6, duals.transpose(0, 2, 1)) == 0).sum(axis=1)
            # q+1 zeros: H3 here, the double lines are overwritten below
            cls = np.select([zeros == 1, zeros == 2 * q + 1, zeros == q + 1],
                            [3, 2, 4], 0).astype(np.uint8)
            if not cls.all():
                raise ClassificationError(f"a conic has {zeros[cls == 0][0]} zeros")
            t[bulk.combine(kit, multiples, duals)] = cls[:, None]
        t[bulk.combine(kit, multiples, self.h1[:, None, :])] = 1
        self._hclass_arr = t
        return t

    def od4_batch(self, bases: np.ndarray) -> np.ndarray:
        """Hyperplane-orbit distributions of a batch of RREF bases:
        (N,k,6) -> (N,4)."""
        duals = bulk.nullspace_batch(self.kit, bases)
        cls = self.hclass_table()[bulk.combine(self.kit, self.coeffs(duals.shape[1]), duals)]
        out = np.empty((len(bases), 4), dtype=np.int64)
        for i in range(4):
            out[:, i] = (cls == i + 1).sum(axis=1)
        return out


_tables: dict[int, GeomTables] = {}


def tables(F: FieldCtx) -> GeomTables:
    t = _tables.get(id(F))
    if t is None:
        t = _tables[id(F)] = GeomTables(F)
    return t


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def od0(W: Subspace) -> tuple[int, int, int, int]:
    """[r1, r2a, r2b, r3] with (a,b) = (n,s) for q even, (e,i) for q odd."""
    t = tables(W.F)
    out = t.od0_batch(np.array([W.rows], dtype=np.uint8))[0]
    return tuple(int(x) for x in out)


def rank_distribution(W: Subspace) -> tuple[int, int, int]:
    """[r1, r2, r3] over the points of W: od0 with its two rank-2 columns
    added."""
    r1, r2a, r2b, r3 = od0(W)
    return (r1, r2a + r2b, r3)


def od4(W: Subspace) -> tuple[int, int, int, int]:
    """[h1, h2r, h2i, h3] over the hyperplanes containing W."""
    out = tables(W.F).od4_batch(np.array([W.rows], dtype=np.uint8))[0]
    return tuple(int(x) for x in out)


def point_census(F: FieldCtx) -> dict[str, int]:
    """Counts of the point classes over all of PG(5,q)."""
    t = tables(F)
    counts = np.bincount(t.class_code, minlength=5)
    names = point_classes(F)
    # table indexes every vector; each projective point has q-1 nonzero codes
    return {names[i]: int(counts[i + 1]) // (F.q - 1) for i in range(4)}


def hyperplane_census(F: FieldCtx) -> dict[str, int]:
    """Counts of the hyperplane classes over all of PG(5,q)."""
    counts = np.bincount(tables(F).hclass_table(), minlength=5)
    # as in point_census, each hyperplane has q-1 nonzero dual codes
    return {HYPERPLANE_CLASSES[i]: int(counts[i + 1]) // (F.q - 1) for i in range(4)}


# ---------------------------------------------------------------------------
# The group and its orbits
#
# G = PGL(3,q) acts on PG(5,q) by M -> A M A^T.  The orbit of a subspace W
# has |G| / |Stab(W)| members (orbit-stabiliser), so a family of subspaces
# that G maps to itself is the orbit of W iff it holds W and has that many
# members.  The families the verify drivers compare are invariant because
# they are cut out by invariants: od0 (each point class is an orbit), the
# absence of rank-1 points, completeness, constant rank.
#
# stabilizer_order counts Stab(W) through one point class at a time: the
# class-c points form one orbit, so every element of G that moves a
# class-c point x of W to a class-c point y of W is h_y s h_x^-1 with s in
# Stab(x_c), and only those s_c |G| / N_c elements need testing.
# orbit_of walks the whole orbit instead; only the tests and the
# benchmark's span recorder use it.
# ---------------------------------------------------------------------------

def pgl3_order(q: int) -> int:
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)


def k_generators(F: FieldCtx) -> list[tuple[tuple[int, ...], ...]]:
    """Three matrices whose projectivities generate PGL(3,q):
    a transvection, the 3-cycle, and a primitive-scalar diagonal."""
    gens = [((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 0, 1), (1, 0, 0))]
    if F.q > 2:
        g = F.generator
        gens.append(((g, 0, 0), (0, 1, 0), (0, 0, 1)))
    return gens


def _normalized(kit: bulk.Kit, rows: np.ndarray) -> np.ndarray:
    """Each row of (N, m) scaled so that its first nonzero entry is 1."""
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    return kit.mul(kit.INV[lead][:, None], rows)


def _element_codes(kit: bulk.Kit, mats: np.ndarray) -> np.ndarray:
    """Codes of the elements of PGL(3,q) given by 3x3 matrices (N, 3, 3),
    one code per projective element."""
    return bulk.encode(_normalized(kit, mats.reshape(-1, 9)), kit.q)


def _mat_mul(kit: bulk.Kit, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B over GF(q) for 3x3 matrices, with np.matmul broadcasting."""
    return bulk.decode(bulk.combine(kit, A, B), kit.q, 3)


# adj(A)[i, j] = A[j+1, i+1] A[j+2, i+2] - A[j+1, i+2] A[j+2, i+1], indices mod 3
_I3, _J3 = np.indices((3, 3))
_I1, _I2, _J1, _J2 = (_I3 + 1) % 3, (_I3 + 2) % 3, (_J3 + 1) % 3, (_J3 + 2) % 3


def _adjugate(kit: bulk.Kit, A: np.ndarray) -> np.ndarray:
    """adj(A) of 3x3 matrices (..., 3, 3): the inverse in PGL(3,q)."""
    return kit.sub(kit.mul(A[..., _J1, _I1], A[..., _J2, _I2]),
                   kit.mul(A[..., _J1, _I2], A[..., _J2, _I1]))


# lift row i is the basis matrix with ones at (a, b) and (b, a), lift
# column t the entry (j, k) of the image, both in the order y0..y5
_SYM = np.array([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
_RA, _RB = _SYM[:, 0, None], _SYM[:, 1, None]
_CJ, _CK = _SYM[None, :, 0], _SYM[None, :, 1]


def _moved(kit: bulk.Kit, pts: np.ndarray, lifts: np.ndarray) -> np.ndarray:
    """The images y L of the points (n, 6) under each lift (g, 6, 6), as
    (g n, 6) vectors, lift-major."""
    return bulk.decode(bulk.combine(kit, pts, lifts), kit.q, 6).reshape(-1, 6)


def lift_batch(kit: bulk.Kit, A: np.ndarray) -> np.ndarray:
    """veronese.lift of each 3x3 matrix in (N, 3, 3): (N, 6, 6).  Entry
    (i, t) is (A S_i A^T)[j, k] = A[j, a] A[k, b] + A[j, b] A[k, a], the
    second term only for a != b."""
    L = kit.mul(A[:, _CJ, _RA], A[:, _CK, _RB])
    cross = kit.mul(A[:, _CJ, _RB], A[:, _CK, _RA])
    cross[:, _SYM[:, 0] == _SYM[:, 1]] = 0
    return kit.add(L, cross)


class PointClass:
    """One point class c, as the group sees it: the class-c point codes
    (normalized, ascending), an element h_y with h_y x_c = y for each point
    y (aligned with the codes), and the lifts (veronese.lift) of every
    element of Stab(x_c), where x_c is the class-c point of smallest code.

    The h_y come from a Schreier tree: a breadth-first walk from x_c under
    k_generators.  It must reach every class-c point of point_census, i.e.
    the class is one orbit.  The stabiliser is generated by the Schreier
    generators h_{g y}^-1 g h_y: each one not yet in the group is added and
    the group closed under right multiplication, until it has
    |PGL(3,q)| / N_c elements."""

    def __init__(self, t: GeomTables, c: int):
        F, kit, q = t.F, t.kit, t.F.q
        size = point_census(F)[point_classes(F)[c - 1]]
        gens = np.array(k_generators(F), dtype=np.uint8)
        lifts = lift_batch(kit, gens)
        pts = bulk.decode(np.array([np.argmax(t.class_code == c)]), q, 6)
        mats = np.eye(3, dtype=np.uint8)[None]
        seen = bulk.encode(pts, q)
        all_codes, all_mats = [seen], [mats]
        while len(pts):
            # images of every frontier point under every generator, and the
            # elements that carry x_c there: g h
            img = _moved(kit, pts, lifts)
            img_mats = _mat_mul(kit, gens[:, None], mats).reshape(-1, 3, 3)
            codes, first = np.unique(bulk.encode(_normalized(kit, img), q),
                                     return_index=True)
            fresh = ~np.isin(codes, seen, assume_unique=True)
            seen = np.union1d(seen, codes[fresh])
            pts, mats = img[first[fresh]], img_mats[first[fresh]]
            all_codes.append(codes[fresh])
            all_mats.append(mats)
        codes = np.concatenate(all_codes)
        assert len(codes) == size, (c, len(codes), size)
        order = np.argsort(codes)
        self.codes = codes[order]
        self.transversal = np.concatenate(all_mats)[order]
        self.stabilizer = self._stabilizer(kit, gens, lifts, pgl3_order(q) // size)

    def _stabilizer(self, kit, gens, lifts, order: int) -> np.ndarray:
        q = kit.q
        img = bulk.encode(_normalized(kit, _moved(kit, bulk.decode(self.codes, q, 6), lifts)), q)
        h_img = self.transversal[np.searchsorted(self.codes, img)]
        g_h = _mat_mul(kit, gens[:, None], self.transversal).reshape(-1, 3, 3)
        schreier = _mat_mul(kit, _adjugate(kit, h_img), g_h)
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
                seen = np.union1d(seen, img_codes[fresh])
                frontier = img[first[fresh]]
                elems = np.concatenate([elems, frontier])
                step = used
        assert len(seen) == order
        return lift_batch(kit, elems)


def point_class(F: FieldCtx, c: int) -> PointClass:
    """The transversal and point stabiliser of class c (1..4, as in
    point_classes), built on first use and cached with the field's
    tables."""
    t = tables(F)
    got = t.point_class_data.get(c)
    if got is None:
        got = t.point_class_data[c] = PointClass(t, c)
    return got


# image rows tested per block in stabilizer_order
STAB_BLOCK = 1 << 18


def stabilizer_order(W: Subspace) -> int:
    """|Stab(W)| in PGL(3,q), without walking the orbit of W.

    Let c be the class of W's points that gives the fewest candidates, s_c
    its number of points in W and x one of them.  An element g fixing W
    sends x to some y of W in class c, so g = h_y s h_x^-1 for exactly one
    y in W and one s in Stab(x_c) (see PointClass).  That is s_c |G| / N_c
    candidates, far fewer than |G|.  g fixes W iff s maps W_x = h_x^-1 W
    onto W_y = h_y^-1 W, i.e. iff the images under s of W_x's basis rows
    are orthogonal to W_y's dual vectors, which are L(h_y) applied to W's:
    one set of images for all y, and one product per y."""
    F = W.F
    t = tables(F)
    kit, q = t.kit, F.q
    basis = np.array([W.rows], dtype=np.uint8)
    # W's basis is in RREF and the coefficients lead with 1, so the point
    # codes are normalized
    pts = bulk.combine(kit, t.coeffs(W.k), basis)[0]
    cls = t.class_code[pts]
    order = pgl3_order(q)
    census = point_census(F)
    count = np.bincount(cls, minlength=5)
    c = min((int(count[c]) * order // census[name], c)
            for c, name in enumerate(point_classes(F), start=1) if count[c])[1]
    pc = point_class(F, c)
    h = pc.transversal[np.searchsorted(pc.codes, pts[cls == c])]
    w_x = bulk.decode(bulk.combine(kit, basis[0], lift_batch(kit, _adjugate(kit, h[:1]))), q, 6)
    img = bulk.decode(bulk.combine(kit, w_x[0], pc.stabilizer), q, 6).reshape(-1, 6)
    duals_t = bulk.nullspace_batch(kit, basis)[0].T
    duals_y = bulk.decode(bulk.combine(kit, lift_batch(kit, h), duals_t), q, duals_t.shape[1])
    step = max(1, STAB_BLOCK // len(img))
    fixed = 0
    for s in range(0, len(h), step):
        vals = bulk.combine(kit, img, duals_y[s:s + step])
        fixed += int((vals.reshape(len(vals), -1, W.k) == 0).all(axis=2).sum())
    return fixed


def orbit_of(W: Subspace, budget: int = 2 * 10 ** 6) -> np.ndarray:
    """The full orbit of W under the congruence group, as the sorted int64
    bulk ids of its members.  BFS with batched transforms, one np.unique
    per level."""
    F = W.F
    q, k = F.q, W.k
    kit = tables(F).kit
    lifts = [np.array(lift(F, A), dtype=np.uint8) for A in k_generators(F)]
    frontier = np.array([W.rows], dtype=np.uint8)
    seen = bulk.subspace_ids(q, frontier)
    while len(frontier):
        images = np.concatenate([bulk.transform(kit, frontier, L) for L in lifts])
        red, rk = bulk.rref_batch(kit, images)
        assert int(rk.min()) == k
        ids, first = np.unique(bulk.subspace_ids(q, red), return_index=True)
        fresh = ~np.isin(ids, seen, assume_unique=True)
        seen = np.union1d(seen, ids[fresh])
        if len(seen) > budget:
            raise BudgetExceeded(len(seen), budget)
        frontier = red[first[fresh]]
    return seen
