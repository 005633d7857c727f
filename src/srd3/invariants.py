"""Orbit invariants: point and hyperplane classification, distributions.

Points of PG(5,q) fall into six classes under the congruence action of
PGL(3,q): the rank-1 points P1, the rank-3 points P3, and two rank-2
classes that depend on the parity of q.

    q even:  P2n  rank-2 points with zero diagonal (the nucleus plane),
             P2s  all other rank-2 points;
    q odd:   P2e  rank-2 points exterior to their conic,
             P2i  rank-2 points interior to their conic.

Ranks from the adjugate: the class of M is read off one adjugate, with no
elimination.  M has rank 3 iff det M != 0, else rank 2 iff adj(M) != 0 (a
nonzero 2x2 minor), else rank 1 iff M != 0 (bulk.rank3).  The exterior test
used everywhere is algebraic and reads the same adjugate: for a rank-2
symmetric M pick the first nonsingular principal 2x2 block, with
determinant D well defined modulo squares; the point is exterior iff -D is
a nonzero square.  The D values are the diagonal entries of adj(M), which
for rank-2 M equals lambda * k k^T with k spanning the kernel, so a nonzero
diagonal entry always exists when q is odd.  The geometric tangent-count
oracle lives in exterior_by_tangents and the test suite checks the two
agree.

Hyperplanes fall into four classes H1/H2r/H2i/H3 according to the conic
with the same coefficient vector (double line, real pair, imaginary pair,
nonsingular).  One rule decides the class, from the number of zeros of the
conic in PG(2,q), i.e. the number of Veronese points on the hyperplane:
1 zero is H2i, 2q+1 zeros is H2r, and q+1 zeros is H1 when the dual is a
double-line dual (veronese.h1_duals) and H3 otherwise.  The rule runs once
per field, vectorised, to build GeomTables.hclass_table; the censuses, od4,
od4_batch, the solid counts and the C4 checks all read that table.

Each point class and each hyperplane class is one orbit of G, which the
counts rely on: one breadth-first walk per class table labels every
normalized vector (orbit_labels) and checks that the labels are the classes
(GeomTables.class_orbits).

A solid's whole od0 row is read off its pencil Q1, Q2 (pencil_od0), never
off its q^3+q^2+q+1 points.  Every rank-2 point lies on exactly one conic
plane P_k = {M : Mk = 0}, the symmetric forms on the line k^perp of
PG(2,q).  With u1, u2 the RREF basis of that line, P_k is spanned by
v(u1), v(u1+u2) - v(u1) - v(u2) and v(u2) (v the Veronese map), so its
point (alpha, beta, gamma) is the form [[alpha, beta], [beta, gamma]] on
span(u1, u2), on the conic iff beta^2 = alpha gamma, and it lies in the
solid iff E_k (alpha, beta, gamma)^T = 0, where E_k has the rows
(Q_t(u1), Q_t(u1+u2) - Q_t(u1) - Q_t(u2), Q_t(u2)), t = 1, 2.  The classes
of the rank-2 points of the solid on P_k depend on the pencil's six
values at u1, u2, u1+u2 alone, so GeomTables.conic_table holds them for
all q^6 value codes: by the rank of E_k the meet is one point, a line
meeting the conic in 0, 1 or 2 points, or all of P_k.  The point (alpha,
beta, gamma) has the class of (alpha, beta, 0, gamma, 0, 0): a basis change
of PG(2,q) taking u1, u2 to the first two unit vectors makes the form on
span(u1, u2) the same form on the line x2 = 0, and congruence keeps the
class.  Summing over the q^2+q+1 lines counts each rank-2 point of the
solid once; its rank-1 points are the Veronese points where both conics
vanish.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

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
# every q <= 8 fits in one block.  The block bounds the transients of the
# 3x3 products and their Kit.mul table indices: building the q = 16 class
# table peaks near 62 MB of RSS with blocks of 2^18, near 110 MB with 2^20
TABLE_BLOCK = 1 << 18

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
    class_code is the only point table, filled TABLE_BLOCK codes at a time
    with ranks from the adjugate (_build_classes); each block's ranks decide
    its classes and are then dropped (CLASS_RANK gives the rank of a class).
    """

    def __init__(self, F: FieldCtx):
        require_tables(F.q)
        self.F = F
        q = F.q
        self.kit = bulk.kit_for(F)
        self.class_code = np.empty(q ** 6, dtype=np.uint8)
        for lo in range(0, q ** 6, TABLE_BLOCK):
            hi = min(lo + TABLE_BLOCK, q ** 6)
            vecs = bulk.decode(np.arange(lo, hi, dtype=np.int32), q, 6)
            self.class_code[lo:hi] = self._build_classes(vecs)
        self.v6 = np.array([veronese(F, u) for u in pg2_points(F)], dtype=np.uint8)
        self.h1 = np.array(h1_duals(F), dtype=np.uint8)
        # point class -> PointClass, filled by point_class on first use
        self.point_class_data: dict[int, "PointClass"] = {}

    def _build_classes(self, vecs: np.ndarray) -> np.ndarray:
        """Class codes of vectors (N, 6): the rank from the adjugate
        (bulk.rank3), and at odd q the rank-2 split from the first nonzero
        diagonal entry of the same adjugate (module docstring)."""
        kit, F = self.kit, self.F
        mats = vecs[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
        adj = bulk.adjugate(kit, mats)
        rank = bulk.rank3(kit, mats, adj)
        # whether a rank-2 point is in the first rank-2 class: P2n (zero
        # diagonal) at even q, P2e (-d a nonzero square) at odd q
        if F.p == 2:
            first = (vecs[:, 0] == 0) & (vecs[:, 3] == 0) & (vecs[:, 5] == 0)
        else:
            diag = adj.reshape(-1, 9)[:, ::4]
            d = diag[np.arange(len(diag)), np.argmax(diag != 0, axis=1)]
            square = np.zeros(F.q, dtype=bool)
            square[kit.mul(np.arange(1, F.q), np.arange(1, F.q))] = True
            first = square[kit.NEG[d]]
        # rank 0, 1, 2, 3 -> class 0, 1 (P1), 2 (first rank-2 class), 4 (P3)
        cls = rank + (rank == 3)
        cls[(rank == 2) & ~first] = 3
        return cls

    def coeffs(self, k: int) -> np.ndarray:
        """The normalized coefficient vectors of F_q^k: normalized_vectors."""
        return normalized_vectors(self.F.q, k)

    def od0_batch(self, bases: np.ndarray) -> np.ndarray:
        """Point-orbit distributions of a batch of subspaces: (N,k,6) -> (N,4)."""
        cls = self.class_code[bulk.combine(self.kit, self.coeffs(bases.shape[1]), bases)]
        return _value_counts(cls, range(1, 5))

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
        # 2^12 duals at a time: combine holds their (2^12, q^2+q+1) int32
        # values twice, 9 MB at q = 16, where 2^14 raised the peak RSS to 120 MB
        for lo, hi in bulk.id_chunks(q, 1, 1 << 12):
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
        return self.dual_od4(bulk.nullspace_batch(self.kit, bases))

    def dual_od4(self, duals: np.ndarray) -> np.ndarray:
        """Hyperplane-orbit distributions of the subspaces with dual bases
        duals (N,m,6), any bases: the classes of the points of each
        span(duals) -> (N,4)."""
        cls = self.hclass_table()[bulk.combine(self.kit, self.coeffs(duals.shape[1]), duals)]
        return _value_counts(cls, range(1, 5))

    def class_orbits(self, table: np.ndarray, lifts: np.ndarray) -> tuple[np.ndarray, ...]:
        """orbit_labels over the normalized vectors of F^6 under lifts (g, 6,
        6), y -> y L, from the vector of smallest code of each class 1..4 of
        the code-indexed table.  Each class is one orbit of the group the
        lifts generate iff every vector has label class - 1, else
        ClassificationError."""
        norm = normalized_codes(self.F.q, 6)
        cls = table[norm]
        walk = orbit_labels(image_table(self.kit, norm, lifts),
                            [int(np.argmax(cls == c)) for c in range(1, 5)])
        if (walk[0] + 1 != cls).any():
            raise ClassificationError("the classes of the table are not the orbits of "
                                      "the generators")
        return walk

    @cached_property
    def point_orbits(self) -> tuple[np.ndarray, ...]:
        """class_orbits of class_code under k_generators, y -> y L(A): the
        Schreier tree of every point class (PointClass)."""
        gens = np.array(k_generators(self.F), dtype=np.uint8)
        return self.class_orbits(self.class_code, lift_batch(self.kit, gens))

    @cached_property
    def conic_orbits(self) -> tuple[np.ndarray, list[int]]:
        """h_c, the dual vector of smallest code of each hyperplane class c
        (row c-1, as in HYPERPLANE_CLASSES), and the size of each class,
        each one orbit (class_orbits) under the dual action d -> d L(adj
        A)^T: L(adj A) is L(A)^-1 up to a scalar."""
        kit, q = self.kit, self.F.q
        gens = bulk.adjugate(kit, np.array(k_generators(self.F), dtype=np.uint8))
        label = self.class_orbits(self.hclass_table(), lift_batch(kit, gens).transpose(0, 2, 1))[0]
        first = [int(np.argmax(label == c)) for c in range(4)]
        return bulk.decode(normalized_codes(q, 6)[first], q, 6), np.bincount(label).tolist()

    def conic_table(self) -> np.ndarray:
        """Pencil-value code -> MEET type of a solid's meet with a conic
        plane P_k (module docstring), built on first use, TABLE_BLOCK codes
        at a time.  The code is (r(u1) q^2 + r(u2)) q^2 + r(u1+u2), with
        r(u) = Q1(u) q + Q2(u); conic_lines names u1, u2 and u1+u2 of each
        line as rows of v6."""
        t = getattr(self, "_conic_arr", None)
        if t is not None:
            return t
        kit, q = self.kit, self.F.q
        # by the code of the meet point e1 x e2 (rank-2 E_k), and by the code
        # of a nonzero row e (rank 1; e = 0 for rank 0).  The point type is
        # the class less one of (alpha, beta, 0, gamma, 0, 0) (module docstring)
        e = bulk.decode(np.arange(q ** 3), q, 3)
        on_x2 = e.astype(np.int32) @ q ** np.array([5, 4, 2], dtype=np.int32)
        point_type = self.class_code[on_x2] - 1
        x = np.arange(q)
        # e0 s^2 + e1 st + e2 t^2 at (s, t) = (1, x), and at (0, 1)
        form = kit.add(kit.add(e[:, :1], kit.mul(e[:, 1:2], x)), kit.mul(e[:, 2:], kit.mul(x, x)))
        line_type = (3 + (form == 0).sum(axis=1) + (e[:, 2] == 0)).astype(np.uint8)
        line_type[0] = 6
        t = np.empty(q ** 6, dtype=np.uint8)
        for lo in range(0, q ** 6, TABLE_BLOCK):
            hi = min(lo + TABLE_BLOCK, q ** 6)
            r = bulk.decode(np.arange(lo, hi, dtype=np.int32), q, 6).T
            # the rows of E_k from the values at u1 (r0, r1), u2 (r2, r3) and
            # u1+u2 (r4, r5), and the codes of e1 x e2 and of a nonzero row
            e1 = (r[0], kit.sub(kit.sub(r[4], r[0]), r[2]), r[2])
            e2 = (r[1], kit.sub(kit.sub(r[5], r[1]), r[3]), r[3])
            cross = bulk.encode(np.stack([kit.sub(kit.mul(e1[i], e2[j]), kit.mul(e1[j], e2[i]))
                                          for i, j in ((1, 2), (2, 0), (0, 1))], axis=1), q)
            c1, c2 = bulk.encode(np.stack(e1, axis=1), q), bulk.encode(np.stack(e2, axis=1), q)
            t[lo:hi] = np.where(cross != 0, point_type[cross],
                                line_type[np.where(c1 != 0, c1, c2)])
        self._conic_arr = t
        return t

    @cached_property
    def conic_lines(self) -> np.ndarray:
        """For each line k^perp of PG(2,q) with RREF basis u1, u2: the rows
        of v6 (pg2_points order) of u1, u2 and u1+u2, (q^2+q+1, 3).  u1+u2
        leads with u1's 1, so all three are normalized points."""
        kit, q = self.kit, self.F.q
        pts = np.array(pg2_points(self.F), dtype=np.uint8)
        u = bulk.rref_batch(kit, bulk.nullspace_batch(kit, pts[:, None, :]))[0]
        u = np.stack([u[:, 0], u[:, 1], kit.add(u[:, 0], u[:, 1])], axis=1)
        return np.searchsorted(bulk.encode(pts, q), bulk.encode(u, q)).astype(np.int32)

    def pencil_od0(self, vals: np.ndarray) -> np.ndarray:
        """Point-orbit distributions (N, 4) of solids from vals, the codes
        r(u) = Q1(u) q + Q2(u) of their pencils at the rows of v6,
        (N, q^2+q+1): bulk.combine(kit, v6, duals^T).  r1 counts the zeros,
        the rank-2 columns are the number of meets of each MEET type over the
        q^2+q+1 conic planes times meet_counts, and r3 is the rest of the
        solid's q^3+q^2+q+1 points."""
        q = self.F.q
        i1, i2, i12 = self.conic_lines.T
        idx = vals[:, i1]
        idx *= q ** 4
        idx += vals[:, i2] * q ** 2
        idx += vals[:, i12]
        types = self.conic_table()[idx]
        del idx
        out = np.empty((len(vals), 4), dtype=np.int64)
        out[:, 0] = (vals == 0).sum(axis=1)
        out[:, 1:3] = _value_counts(types, range(7)) @ meet_counts(self.F)
        out[:, 3] = (q ** 4 - 1) // (q - 1) - out[:, :3].sum(axis=1)
        return out


def _value_counts(a: np.ndarray, values: range) -> np.ndarray:
    """How many entries of each row of a (N, m) equal each of values:
    (N, len(values)) int64."""
    out = np.empty((len(a), len(values)), dtype=np.int64)
    for i, v in enumerate(values):
        out[:, i] = np.count_nonzero(a == v, axis=1)
    return out


# MEET types of a solid's meet with a conic plane (GeomTables.conic_table):
# 0, 1, 2 one point, of rank 1, of the first or of the second rank-2 class;
# 3, 4, 5 a line with 0, 1 or 2 points on the conic; 6 the whole plane
def meet_counts(F: FieldCtx) -> np.ndarray:
    """The rank-2 points of each class (r2a, r2b) on a meet of each MEET
    type: (7, 2).  A line of a conic plane off the conic holds (q+1)/2
    exterior and (q+1)/2 interior points at odd q, and misses the nucleus
    at even q; a tangent holds q exterior points, or the nucleus and q-1
    others; a secant (q-1)/2 of each, or q-1 non-nucleus points; the whole
    plane holds all q^2, q(q+1)/2 of them exterior, or one the nucleus."""
    q = F.q
    if F.p == 2:
        rest = [(0, q + 1), (1, q - 1), (0, q - 1), (1, q * q - 1)]
    else:
        rest = [((q + 1) // 2, (q + 1) // 2), (q, 0), ((q - 1) // 2, (q - 1) // 2),
                (q * (q + 1) // 2, q * (q - 1) // 2)]
    return np.array([(0, 0), (1, 0), (0, 1), *rest], dtype=np.int32)


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
    out = tables(W.F).od0_batch(np.array([W.rows], dtype=np.uint8))[0]
    return tuple(int(x) for x in out)


def rank_distribution(W: Subspace) -> tuple[int, int, int]:
    """[r1, r2, r3] over the points of W: one combine of the cached coefficient
    vectors with W's basis (a batch of one), CLASS_RANK and one bincount."""
    t = tables(W.F)
    pts = bulk.combine(t.kit, t.coeffs(W.k), np.array([W.rows], dtype=np.uint8))[0]
    return tuple(np.bincount(CLASS_RANK[t.class_code[pts]], minlength=4)[1:].tolist())


def od4(W: Subspace) -> tuple[int, int, int, int]:
    """[h1, h2r, h2i, h3] over the hyperplanes containing W."""
    out = tables(W.F).od4_batch(np.array([W.rows], dtype=np.uint8))[0]
    return tuple(int(x) for x in out)


def _census(q: int, table: np.ndarray, names) -> dict[str, int]:
    """How many projective points have each class 1..4 of a code-indexed
    class table, by name: the classes of the normalized vectors."""
    counts = np.bincount(table[normalized_codes(q, 6)], minlength=5)
    return {name: int(counts[i + 1]) for i, name in enumerate(names)}


def point_census(F: FieldCtx) -> dict[str, int]:
    """Counts of the point classes over all of PG(5,q)."""
    return _census(F.q, tables(F).class_code, point_classes(F))


def hyperplane_census(F: FieldCtx) -> dict[str, int]:
    """Counts of the hyperplane classes over all of PG(5,q)."""
    return _census(F.q, tables(F).hclass_table(), HYPERPLANE_CLASSES)


# ---------------------------------------------------------------------------
# The group and its orbits
#
# G = PGL(3,q) acts on PG(5,q) by M -> A M A^T.  The orbit of a subspace W
# has |G| / |Stab(W)| members (orbit-stabiliser), so a family of subspaces
# that G maps to itself is the orbit of W iff it holds W and has that many
# members.  The families the verify drivers compare are invariant because
# they are cut out by invariants: od0 (each point class is an orbit), the
# absence of rank-1 points, completeness, constant rank.  stabilizer_order
# counts Stab(W) through one point class; orbit_of walks the whole orbit
# instead, and only the tests and the benchmark's span recorder use it.
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


# lift row i is the basis matrix with ones at (a, b) and (b, a), lift
# column t the entry (j, k) of the image, both in the order y0..y5
_SYM = np.array([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
_RA, _RB = _SYM[:, 0, None], _SYM[:, 1, None]
_CJ, _CK = _SYM[None, :, 0], _SYM[None, :, 1]


def _moved(kit: bulk.Kit, pts: np.ndarray, lifts: np.ndarray) -> np.ndarray:
    """The images y L of the points (n, m) under each matrix (g, m, m), as
    (g n, m) vectors, lift-major."""
    m = lifts.shape[-1]
    return bulk.decode(bulk.combine(kit, pts, lifts), kit.q, m).reshape(-1, m)


def lift_batch(kit: bulk.Kit, A: np.ndarray) -> np.ndarray:
    """veronese.lift of each 3x3 matrix in (N, 3, 3): (N, 6, 6).  Entry
    (i, t) is (A S_i A^T)[j, k] = A[j, a] A[k, b] + A[j, b] A[k, a], the
    second term only for a != b."""
    L = kit.mul(A[:, _CJ, _RA], A[:, _CK, _RB])
    cross = kit.mul(A[:, _CJ, _RB], A[:, _CK, _RA])
    cross[:, _SYM[:, 0] == _SYM[:, 1]] = 0
    return kit.add(L, cross)


@lru_cache(maxsize=None)
def normalized_codes(q: int, m: int) -> np.ndarray:
    """The codes of the normalized vectors of F_q^m, the points of
    PG(m-1,q), ascending: those with their leading 1 at digit e are the
    range [q^e, 2 q^e).  Cached and shared, so read-only."""
    codes = np.concatenate([np.arange(q ** e, 2 * q ** e, dtype=bulk.code_dtype(q, m))
                            for e in range(m)])
    codes.setflags(write=False)
    return codes


@lru_cache(maxsize=None)
def normalized_vectors(q: int, m: int) -> np.ndarray:
    """normalized_codes(q, m) decoded, (n, m).  Cached and shared, so read-only."""
    vecs = bulk.decode(normalized_codes(q, m), q, m)
    vecs.setflags(write=False)
    return vecs


def image_table(kit: bulk.Kit, codes: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The image y M, normalized, of each point y of codes (normalized,
    ascending) under each matrix M of mats (g, m, m), as an index into
    codes: (g, len(codes)) int32, one matrix at a time."""
    pts = bulk.decode(codes, kit.q, mats.shape[-1])
    img = np.empty((len(mats), len(codes)), dtype=np.int32)
    for i in range(len(mats)):
        moved = _normalized(kit, _moved(kit, pts, mats[i:i + 1]))
        img[i] = np.searchsorted(codes, bulk.encode(moved, kit.q))
    return img


def orbit_labels(img: np.ndarray, seeds) -> tuple[np.ndarray, ...]:
    """Breadth-first walks over an index permutation table img (g, n),
    img[i, y] the image of point y under generator i: one from all the
    seeds at once, then one from each smallest unlabelled point.  Returns
    (label, parent, gen): the walk that reached each point (the seeds' in
    their order, then the later walks'), the point it was reached from and
    the generator that took it there, img[gen[y], parent[y]] == y, both -1
    at a root.  Each step's frontier ascends, and a point hit twice in one
    step keeps its first hit in generator-major order."""
    n = img.shape[1]
    label, parent = np.full((2, n), -1, dtype=np.int32)
    gen = np.full(n, -1, dtype=np.int8)
    frontier = np.asarray(seeds, dtype=np.int32)
    label[frontier] = np.arange(len(frontier))
    walks, start = len(frontier), 0
    while True:
        while len(frontier):
            step = img[:, frontier].ravel()
            hit = np.flatnonzero(label[step] < 0)
            new, first = np.unique(step[hit], return_index=True)
            g, at = np.divmod(hit[first], len(frontier))
            gen[new], parent[new] = g, frontier[at]
            label[new] = label[parent[new]]
            frontier = new
        rest = label[start:] < 0
        if not rest.any():
            return label, parent, gen
        start += int(np.argmax(rest))
        frontier = np.array([start], dtype=np.int32)
        label[start], walks = walks, walks + 1


# points whose Schreier generators PointClass.stabilizer forms at a time: the
# first block is enough for every class at q <= 9 and for P3 at q = 16, where
# all 3 N_P3 generators at once took 6.1 s and raised the peak RSS by 736 MB
SCHREIER_BLOCK = 1 << 10


def _merged(seen: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """np.union1d(seen, fresh) of two ascending arrays with no common
    value, by inserting fresh at its sorted positions: no deduplication,
    and no import of numpy.ma, which np.unique's plain path makes."""
    return np.insert(seen, np.searchsorted(seen, fresh), fresh)


class PointClass:
    """One point class c, as the group sees it: the class-c point codes
    (normalized, ascending), an element h_y with h_y x_c = y for each of
    them (transversal), and every element of Stab(x_c), where x_c is the
    class-c point of smallest code.

    The codes and the h_y come from the Schreier tree of
    GeomTables.point_orbits, kept as a parent and a generator per point.
    The stabiliser, which only stabilizer_order reads, is built on first
    use from the Schreier generators h_{g y}^-1 g h_y of SCHREIER_BLOCK
    points y at a time: each one not yet in the group is added and the
    group closed under right multiplication, until it has |PGL(3,q)| / N_c
    elements, which makes it all of Stab(x_c).  The orbits on the quotient
    F^6/<x_c> that the line and plane counts go through take a few
    Schreier generators and no closure (quotient_orbits)."""

    def __init__(self, t: GeomTables, c: int):
        self._kit = t.kit
        self._gens = np.array(k_generators(t.F), dtype=np.uint8)
        self._lifts = lift_batch(t.kit, self._gens)
        label, self._parent, self._gen = t.point_orbits
        self.codes = normalized_codes(t.F.q, 6)[label == c - 1]
        # the code of r g for every row vector r of F^3 and generator g
        self._times = bulk.combine(t.kit, bulk.decode(np.arange(t.F.q ** 3), t.F.q, 3), self._gens)

    def transversal(self, codes: np.ndarray) -> np.ndarray:
        """h_y for each class-c point code y, (N, 3, 3): g h_p for y's parent
        p and the generator g that took p to y, multiplied out by row codes."""
        q, parent = self._kit.q, self._parent
        at = np.searchsorted(normalized_codes(q, 6), codes)
        rows = np.tile(bulk.encode(np.eye(3, dtype=np.uint8), q), (len(at), 1))
        live = np.flatnonzero(parent[at] >= 0)
        while len(live):
            rows[live] = self._times[self._gen[at[live]][:, None], rows[live]]
            at[live] = parent[at[live]]
            live = live[parent[at[live]] >= 0]
        return bulk.decode(rows, q, 3)

    def schreier_generators(self, lo: int, hi: int) -> np.ndarray:
        """The Schreier generators h_{g y}^-1 g h_y of Stab(x_c) of the
        class-c points y = codes[lo:hi], g in k_generators: (3 (hi - lo), 3,
        3), generator-major."""
        kit, q = self._kit, self._kit.q
        y = self.codes[lo:hi]
        img = bulk.encode(_normalized(kit, _moved(kit, bulk.decode(y, q, 6), self._lifts)), q)
        h = self.transversal(np.concatenate([img, y]))
        return _mat_mul(kit, bulk.adjugate(kit, h[:len(img)]),
                        _mat_mul(kit, self._gens[:, None], h[len(img):]).reshape(-1, 3, 3))

    @cached_property
    def first_block(self) -> np.ndarray:
        """schreier_generators(0, SCHREIER_BLOCK), which both stabilizer and
        quotient_orbits start from."""
        return self.schreier_generators(0, SCHREIER_BLOCK)

    @cached_property
    def stabilizer(self) -> np.ndarray:
        """The elements (g, 3, 3) of Stab(x_c), one matrix each."""
        kit = self._kit
        order = pgl3_order(kit.q) // len(self.codes)
        elems = np.eye(3, dtype=np.uint8)[None]
        seen = _element_codes(kit, elems)
        used: list[np.ndarray] = []
        for lo in range(0, len(self.codes), SCHREIER_BLOCK):
            schreier = (self.first_block if lo == 0
                        else self.schreier_generators(lo, lo + SCHREIER_BLOCK))
            gen_codes, first = np.unique(_element_codes(kit, schreier), return_index=True)
            new = ~np.isin(gen_codes, seen, assume_unique=True)
            while len(seen) < order and new.any():
                used.append(schreier[first[np.argmax(new)]])
                frontier, step = elems, used[-1:]
                while len(frontier):
                    img = np.concatenate([_mat_mul(kit, frontier, g) for g in step])
                    img_codes, at = np.unique(_element_codes(kit, img), return_index=True)
                    fresh = ~np.isin(img_codes, seen, assume_unique=True)
                    seen = _merged(seen, img_codes[fresh])
                    frontier = img[at[fresh]]
                    elems = np.concatenate([elems, frontier])
                    step = used
                new = ~np.isin(gen_codes, seen, assume_unique=True)
            if len(seen) == order:
                return elems
        raise ClassificationError("the Schreier generators fall short of the stabiliser")

    @cached_property
    def quotient_orbits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """quotient_orbits of x_c under QUOTIENT_GENERATORS distinct
        non-identity Schreier generators of the first block, spread across
        it: those of its first points lie in small subgroups."""
        kit = self._kit
        gens = self.first_block
        codes, first = np.unique(_element_codes(kit, gens), return_index=True)
        first = np.sort(first[codes != _element_codes(kit, np.eye(3, dtype=np.uint8))])
        # ascending, so dict.fromkeys drops the repeats that len(first) < 4 makes
        pick = list(dict.fromkeys(np.linspace(0, len(first) - 1,
                                              QUOTIENT_GENERATORS).astype(int).tolist()))
        return quotient_orbits(kit, bulk.decode(self.codes[:1], kit.q, 6)[0],
                               gens[first[pick]] if len(first) else gens[:0])


# Schreier generators behind PointClass.quotient_orbits
QUOTIENT_GENERATORS = 4


def quotient_orbits(kit: bulk.Kit, x: np.ndarray,
                    gens: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbits of the group that gens (g, 3, 3) generate, elements of
    Stab(x), on the quotient PG(4,q) = F^6/<x>, x normalized with its
    leading 1 at column j, by orbit_labels with no seed.  The class of v is
    named by the coordinates off column j of v - v_j x, and g maps it to
    the class of v L(g); ClassificationError if g moves x.  Returns (label,
    sizes, reps): the orbit of every code of F^5, scalar multiples filled,
    numbered as their smallest codes reps ascend, and each orbit's size."""
    q, j = kit.q, int(np.argmax(x != 0))
    off = np.delete(np.arange(6), j)
    lifts = lift_batch(kit, gens)
    if (_normalized(kit, _moved(kit, x[None], lifts)) != x).any():
        raise ClassificationError("a generator of the quotient group moves its point")
    rows = lifts[:, off]
    act = kit.sub(rows, kit.mul(rows[:, :, j, None], x))[:, :, off]
    pts = normalized_codes(q, 5)
    label, parent, _ = orbit_labels(image_table(kit, pts, act), [])
    return label[np.searchsorted(pts, bulk.normal_codes(kit, 5))], np.bincount(label), pts[parent < 0]


def point_class(F: FieldCtx, c: int) -> PointClass:
    """The PointClass of class c (1..4, as in point_classes), cached with
    the field's tables; its point stabiliser is built when first read."""
    t = tables(F)
    if c not in t.point_class_data:
        t.point_class_data[c] = PointClass(t, c)
    return t.point_class_data[c]


# image rows tested per block in stabilizer_order
STAB_BLOCK = 1 << 18


def stabilizer_order(W: Subspace) -> int:
    """|Stab(W)| in PGL(3,q), without walking the orbit of W.

    Let c be the class of W's points with the largest census N_c, so the
    smallest Stab(x_c), s_c its number of points in W and x one of them.
    An element g fixing W sends x to some y of W in class c, so g = h_y s
    h_x^-1 for exactly one y in W and one s in Stab(x_c) (see PointClass).
    That is s_c |G| / N_c candidates, far fewer than |G|.  g fixes W iff s
    maps W_x = h_x^-1 W onto W_y = h_y^-1 W, i.e. iff the images under s of
    W_x's basis rows are orthogonal to W_y's dual vectors, which are L(h_y)
    applied to W's: one set of images for all y, and one product per y.

    First, if every generator of k_generators fixes W, so does G, and no
    point class is built: the nucleus plane at even q, say."""
    F = W.F
    t = tables(F)
    kit, q = t.kit, F.q
    basis = np.array([W.rows], dtype=np.uint8)
    duals_t = bulk.nullspace_batch(kit, basis)[0].T
    gens = lift_batch(kit, np.array(k_generators(F), dtype=np.uint8))
    moved = bulk.decode(bulk.combine(kit, basis[0], gens), q, 6)
    if not bulk.combine(kit, moved, duals_t).any():
        return pgl3_order(q)
    # W's basis is in RREF and the coefficients lead with 1, so the point
    # codes are normalized
    pts = bulk.combine(kit, t.coeffs(W.k), basis)[0]
    cls = t.class_code[pts]
    census = point_census(F)
    count = np.bincount(cls, minlength=5)
    c = max((census[name], c) for c, name in enumerate(point_classes(F), start=1) if count[c])[1]
    pc = point_class(F, c)
    h = pc.transversal(pts[cls == c])
    w_x = bulk.decode(bulk.combine(kit, basis[0], lift_batch(kit, bulk.adjugate(kit, h[:1]))), q, 6)
    img = bulk.decode(bulk.combine(kit, w_x[0], lift_batch(kit, pc.stabilizer)), q, 6).reshape(-1, 6)
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
