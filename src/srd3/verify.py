"""Verification drivers.

Each driver counts a family of subspaces of PG(5,q), computes exact
integer invariants, and compares them against closed-form claims.  Claim
ids (T3.2, T3.4, ..., C4, Y03q) are the stable identifiers used by the
command line and the acceptance suite; every report carries one.

One range rule.  The solid counts behind T3.2/T3.3 are exact at every q
the point tables support (invariants.TABLE_MAX_Q = 16).  The plane checks
T3.7 and C4 read a {key row: how many} table (_table): exact, counted
through one point per class, for q <= EXACT_MAX_Q, and above it the same
histogram over one seeded sample of SAMPLE_SIZE planes, which they report
as "consistent (sampled)".  T3.4/T3.8 check their representatives and a
few of their images there instead, and T3.10, T3.12, T3.14 and T3.21,
which have no sampled form, run only up to the ceiling (DRIVERS).

Counting through one point, or one conic, per class.  Every exhaustive
claim is about a
family of k-subspaces that G = PGL(3,q) maps to itself, cut out by a key
row (_keys) that G preserves:

  od0          each point class is an orbit, so g maps the class-c points
               of W onto those of gW;
  complete     g is linear and preserves rank, so it maps the spans <W, v>
               with v of rank 1 onto those of gW;
  od4          the conic type of a hyperplane is a projective invariant,
               so each hyperplane class is preserved; the line-pair flag
               (H2r or H2i) is read from it.

Each point class c is one orbit of N_c points.  That is the prerequisite:
invariants.PointClass checks it when its Schreier tree reaches every
class-c point.  So every class-c point lies on the same number n_c(k) of
subspaces with key row k, and counting the pairs (x, W), x a class-c
point of W, gives

    #{W with key row k} = N_c n_c(k) / s_c(k),

s_c(k) the od0 column of class c, for every class with s_c(k) > 0.  A pass
(_through) counts the k-subspaces through x_c, the class-c point of
smallest code: they are span(x_c, U) for the (k-1)-subspaces U of a
coordinate hyperplane x_j = 0 that misses x_c, [5 choose k-1]_q of them
instead of the [6 choose k]_q of the whole Grassmannian, each written in
RREF with no elimination (_bases_through).

Solids are counted from the dual side.  The dual of a solid W is a pencil
of conics, the q+1 hyperplanes through W, and each hyperplane class c is
one orbit of N_{H_c} conics under the dual action of G: the walk behind
invariants.GeomTables.conic_orbits checks it.  Counting the pairs (h, W),
h a class-c conic of W's pencil, gives

    #{W with key row k} = N_{H_c} m_c(k) / t_c(k),

t_c(k) the od4 column of class c, and the pass of class c counts the
pencils span(h_c, u) through h_c, the class-c conic of smallest code, u a
point of a coordinate hyperplane that misses it: [5 choose 1]_q pencils
(781 at q = 5), against the [5 choose 3]_q solids through a point (20306).
The pencil's RREF basis is the dual basis its key row is read from, so a
conic pass builds no solid basis and no point class.

_counts adds up each key row in the pass of the first class it meets in
the order P3, the two rank-2 classes, P1, or for solids H3, H2r, H2i, H1
(_CLASS_ORDER), so every subspace is counted once; that N_c n_c(k) is
divisible by s_c(k) is checked, and a remainder is an internal error.
_counts keeps a running total and stops before a pass once it equals
[6 choose k]_q: every k-subspace has then been counted in the pass of its
first class, so no later pass can add a key row.  A final total other
than [6 choose k]_q is an internal error.  The P1 pass is never taken: the
Veronesean is a cap, so a line holds at most two of its q+1 points in P1,
and every line and plane is counted in an earlier pass.  At every q from 2
to 9, the planes are all counted by the P3 and P2a passes and the lines by
P3, P2a and, at even q only, P2b, so the P2b and P1 plane passes and the
odd-q P2b line pass are not taken.  The solids are all counted by the H3
and H2r passes at odd q, and by all four at even q: there the double lines
l^2 span a plane of duals (squaring is additive in characteristic 2), so
the q+1 pencils through h_H1 inside it hold double lines alone.  That is
counted, not assumed.  The passes run in _block_size blocks through
_pmap, so the counts are sums and do not depend on the number of workers.

A pass skips what it cannot count.  Before the key rows, each block of the
pass of class c classifies PROBE_POINTS fixed points of every subspace, or
conics of every pencil (one combine and one class_code or hclass_table
lookup), and drops those that show a class before c.  That is exact: a
survivor still gets its full key row, and a dropped subspace has a point
or a conic of an earlier class, so _counts would skip its key row here and
the earlier pass counts it.  Most subspaces through a rank-2 or rank-1
point have many rank-3 points, and most pencils many nonsingular conics,
so the later passes keep a handful: 3 of the 20306 planes through x_P2e,
and 16 of the 781 pencils through h_H2r, at q = 5.

Orbits are never walked.  A family that G maps to itself holds the orbit
of each of its members, so it is the orbit of W iff W is a member and the
family has |G| / |Stab(W)| members (orbit-stabiliser);
invariants.stabilizer_order counts Stab(W) without the orbit, and _is_orbit
computes W's own key row with the kernel that made the counts (_keys).

Completeness is decided in the quotient, never by collecting point sets.
A subspace W with no rank-1 point is a complete distance-2 code iff the
images of the q^2+q+1 rank-1 points in F^6/W cover PG(5-k, q): the spans
<W, v> pairwise meet only in W, so a point Q outside W has a rank-1 point
in <W, Q> iff its image is one of theirs.  The image of a Veronese point
is the vector of values of W's dual vectors there, scaled to a leading 1,
0 iff the point lies in W, so one array of images decides both whether W
has a rank-1 point and whether it is complete.

One kernel reads every key row off a block's dual bases (_keys).  One
combine gives the values of the dual vectors at the q^2+q+1 Veronese
points, normalized the quotient images, so a rank-1-free subspace's
completeness flag is one covers_quotient.  The od4 row of a plane or a
solid is the classes of the points of its dual span, one hclass_table
lookup each, whether or not it has a rank-1 point.  A line or a plane has
at most q^2+q+1 points, fewer than the (6-k)(q^2+q+1) values of its dual,
so it passes its RREF basis too, takes its od0 row from od0_batch, and
combines the values of its rank-1-free members alone.  A solid passes its
dual basis alone, any basis of its pencil of conics: 2(q^2+q+1) values
against the q^3+q^2+q+1 points od0_batch would combine.  Its rank-1 points
are the Veronese points where both conics vanish, and the conic plane
table (GeomTables.pencil_od0) reads the classes of its rank-2 points off
the values at three points of each line of PG(2,q); the rest are rank 3.

No driver sweeps a whole Grassmannian.  _sweep, and solid_groups,
plane_sweep, line_sweep_completeness, min_rank2_coverage and
planes_covered_by_solids on top of it, list every rank-1-free k-subspace by
id, with the od0 row and completeness flag of its key row: the tests
compare the counts with them at q <= 4, and the benchmark's span recorder
(perfbench/spans.py) wraps them by name.
"""

from __future__ import annotations

import time

import numpy as np

from srd3 import bulk
from srd3.gf import FieldCtx
from srd3.pg import Subspace, gaussian_binomial
from srd3.invariants import (od0, od4, pgl3_order, point_class, require_tables,
                             stabilizer_order, tables)
from srd3.report import CheckReport, make_report

# the largest q whose plane and line counts are exact: the full check set
# takes about 2-2.5 s and 51 MB at q = 8 with one worker.  At q = 9 the plane
# passes alone would take about 25 s, nearly all of it the P3 plane pass.
# The solid counts are exact at every q (verify_solids)
EXACT_MAX_Q = 8
SAMPLE_SIZE = 100_000
_SEED = 0x5D3


class VerifyError(RuntimeError):
    pass


_ACTIVE_WORK = None


def _call_active(item):
    return _ACTIVE_WORK(item)


def _pmap(fn, items, jobs: int):
    """Map fn over chunk descriptors, optionally on forked workers.

    The closure is installed in a module global before forking so children
    inherit it; only the small chunk descriptors and results are pickled.
    Results come back in submission order, so reductions are independent of
    the worker schedule.
    """
    global _ACTIVE_WORK
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import multiprocessing as mp
    ctx = mp.get_context("fork")
    _ACTIVE_WORK = fn
    try:
        with ctx.Pool(min(jobs, len(items))) as pool:
            return pool.map(_call_active, items)
    finally:
        _ACTIVE_WORK = None


def _block_size(q: int, k: int) -> int:
    """Subspaces per sweep block: about 2^21 points, or Veronese images
    for lines, in all.  bulk.combine then holds, at odd q, the accumulator
    of 6h base-p digits per point (12 MB as uint8 at q = 3, 5, 7; 24 MB at
    q = 9, or as uint16 at q = 11, 13) and 8 MB of int32 codes; at even q,
    two int32 code arrays, 16 MB."""
    m = max((q ** k - 1) // (q - 1), q * q + q + 1)
    return max(256, (1 << 21) // m)


# ---------------------------------------------------------------------------
# The counting engine.  Each pass is cached per field and dimension: several
# drivers read the same counts.
# ---------------------------------------------------------------------------

_sweep_cache: dict[tuple, object] = {}


def _cached(key: tuple, build):
    got = _sweep_cache.get(key)
    if got is None:
        got = _sweep_cache[key] = build()
    return got


# columns of a key row: the od0 row, then
_COMPLETE = 4           # complete distance-2 code (0 with a rank-1 point)
_OD4 = slice(5, 9)      # planes and solids: od4


def _keys(t, bases: np.ndarray | None = None, duals: np.ndarray | None = None) -> np.ndarray:
    """Key rows (see the module docstring) of a block of at most _block_size
    subspaces, one per subspace, in order: from their RREF bases (N, k, 6),
    whose od0 rows are od0_batch's and whose nullspaces are the duals, or
    for solids from their dual bases (N, 2, 6) alone, any bases of their
    pencils, whose od0 rows are read off the pencil's values at the
    Veronese points (GeomTables.pencil_od0)."""
    kit, q = t.kit, t.F.q
    if bases is None:
        vals = bulk.combine(kit, t.v6, duals.transpose(0, 2, 1))
        dist = t.pencil_od0(vals)
        free = np.flatnonzero(dist[:, 0] == 0)
        vals = vals[free]
    else:
        dist = t.od0_batch(bases)
        free = np.flatnonzero(dist[:, 0] == 0)
        duals = bulk.nullspace_batch(kit, bases)
        vals = bulk.combine(kit, t.v6, duals[free].transpose(0, 2, 1))
    m = duals.shape[1]
    # the images replace the values before covers_quotient sorts them, and
    # are dropped before od4 is combined: each held would raise the peak
    vals = bulk.normal_codes(kit, m)[vals]
    complete = np.zeros((len(duals), 1), dtype=np.int64)
    complete[free, 0] = bulk.covers_quotient(q, m, vals)
    del vals
    if m == 4:
        return np.concatenate([dist, complete], axis=1)
    return np.concatenate([dist, complete, t.dual_od4(duals)], axis=1)


def _row_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of keys (n, m) in ascending lexicographic order and
    how often each occurs, as np.unique(keys, axis=0, return_counts=True):
    one np.lexsort, then the runs of equal rows are cut where a row differs
    from the one before it.  No rows give no entries."""
    if not len(keys):
        return keys[:0], np.zeros(0, dtype=np.intp)
    rows = keys[np.lexsort(keys.T[::-1])]
    start = np.flatnonzero(np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1)]))
    return rows[start], np.diff(np.append(start, len(rows)))


def _histogram(t, k: int, chunks: list, keys_of, jobs: int) -> dict[tuple, int]:
    """{key row: how many} over the key rows keys_of(chunk) of the
    k-subspaces of every chunk.  Each chunk's histogram is one _row_counts
    of its key rows, and the histograms are added up in chunk order."""
    # build the tables the key rows read before forking
    if k >= 3:
        t.hclass_table()
    if k == 4:
        t.conic_table()

    def work(chunk):
        rows, n = _row_counts(keys_of(chunk))
        return list(zip(map(tuple, rows.tolist()), n.tolist()))

    out: dict[tuple, int] = {}
    for part in _pmap(work, chunks, jobs):
        for key, n in part:
            out[key] = out.get(key, 0) + n
    return dict(sorted(out.items()))


def _bases_through(kit: bulk.Kit, x: np.ndarray, k: int, chunk: tuple[int, int]) -> np.ndarray:
    """RREF bases (N, k, 6) of span(x, U) for the (k-1)-subspaces U of
    x_j = 0 named by chunk, a range of tail ids of the (k-1)-Grassmannian;
    x is a normalized point with its leading 1 at column j.

    A tail id's basis has column 0 zero.  Its columns 1..5 go monotonically
    to the columns other than j (order [1, ..., j, 0, j+1, ..., 5]), which
    keeps it in RREF and makes column j zero.  x is reduced against U once,
    x' = x - sum_i x[piv_i] u_i, so x' is 0 at U's pivots and, as u_i is 0
    left of piv_i and x[piv_i] = 0 for piv_i < j, x' still leads with the 1
    at column j.  x' put among U's rows by pivot is the RREF of span(x, U),
    with no elimination."""
    j = int(np.argmax(x != 0))
    assert x[j] == 1, "x must be normalized"
    cols = [*range(1, j + 1), 0, *range(j + 1, 6)]
    U = bulk.subspace_bases(kit.q, k - 1, np.arange(*chunk))[:, :, cols]
    N = len(U)
    piv = np.argmax(U != 0, axis=2)
    coef = x[piv]
    xr = np.broadcast_to(x, (N, 6))
    for i in range(k - 1):
        xr = kit.sub(xr, kit.mul(coef[:, i, None], U[:, i]))
    at = (piv < j).sum(axis=1)
    out = np.empty((N, k, 6), dtype=U.dtype)
    rows = np.arange(k - 1)
    out[np.arange(N)[:, None], rows + (rows >= at[:, None])] = U
    out[np.arange(N), at] = xr
    return out


def _through_chunks(q: int, k: int) -> list[tuple[int, int]]:
    """The blocks of a pass of k-subspaces: ranges of the tail ids of the
    (k-1)-Grassmannian, the (k-1)-subspaces whose pivots avoid column 0."""
    end = gaussian_binomial(6, k - 1, q)
    # half blocks: the passes run back to back, and at q = 5 the heap that
    # full blocks left behind raised the peak RSS by about 5 MB, for no
    # gain in speed
    block = _block_size(q, k) // 2
    return [(s, min(s + block, end))
            for s in range(end - gaussian_binomial(5, k - 1, q), end, block)]


# point classes (GeomTables.class_code) in the order a line or plane is
# counted in: P3, the two rank-2 classes, P1; read as hyperplane classes
# (HYPERPLANE_CLASSES), the order a solid is counted in: H3, H2r, H2i, H1
_CLASS_ORDER = (4, 2, 3, 1)

# points of each subspace classified before its key row in a pass: the
# combinations of its basis rows with the last PROBE_POINTS normalized
# coefficient vectors, or with all of them where there are fewer (a line
# at q = 2 has 3 points)
PROBE_POINTS = 8


def _class_column(k: int, c: int) -> int:
    """The key-row column that counts class c in a k-subspace: the od0
    column of point class c for lines and planes, the od4 column of conic
    class c for solids."""
    return _OD4.start + c - 1 if k == 4 else c - 1


def _class_size(F: FieldCtx, k: int, c: int) -> int:
    """N_c, the number of points of class c, or for solids of conics."""
    if k == 4:
        return tables(F).conic_orbits[1][c - 1]
    return len(point_class(F, c).codes)


def _through(F: FieldCtx, k: int, c: int, jobs: int = 1) -> dict[tuple, int]:
    """The pass of class c: {key row: how many} over the k-subspaces
    through x_c, the class-c point of smallest code (PointClass's point),
    or for solids over those whose pencil holds h_c, the class-c conic of
    smallest code (GeomTables.conic_orbits), that show no class before c
    in _CLASS_ORDER among PROBE_POINTS fixed points of the subspace or of
    the pencil.

    Lines and planes through x_c are span(x_c, U), U a (k-1)-subspace of
    x_j = 0, j the leading coordinate of x_c; pencils through h_c are
    span(h_c, u) likewise, u a point.  _bases_through writes them in RREF,
    which od0_batch and nullspace_batch need, without an elimination, and a
    pencil's key row is read off it as the solid's dual basis, with no
    solid basis (_keys).  A subspace dropped by the probe has a point or a
    conic of an earlier class, so _counts would skip its key row here
    anyway."""
    t = tables(F)
    if k == 4:
        # the walk behind conic_orbits checks that each conic class is one
        # orbit, the prerequisite of the counting
        x, d, classes = t.conic_orbits[0][c - 1], 2, t.hclass_table()
    else:
        # PointClass checks it for the points
        x = bulk.decode(point_class(F, c).codes[:1], F.q, 6)[0]
        d, classes = k, t.class_code
    earlier = np.zeros(5, dtype=bool)
    earlier[list(_CLASS_ORDER[:_CLASS_ORDER.index(c)])] = True
    probe = t.coeffs(d)[-PROBE_POINTS:]

    def keys_of(chunk):
        bases = _bases_through(t.kit, x, d, chunk)
        if earlier.any():
            shown = earlier[classes[bulk.combine(t.kit, probe, bases)]]
            bases = bases[~shown.any(axis=1)]
        return _keys(t, duals=bases) if k == 4 else _keys(t, bases)

    return _histogram(t, k, _through_chunks(F.q, d), keys_of, jobs)


def _counts(F: FieldCtx, k: int, jobs: int = 1) -> dict[tuple, int]:
    """How many k-subspaces have each key row, counted through one point of
    each point class, or for solids through one conic of each conic class,
    in _CLASS_ORDER (see the module docstring); the passes are cached per
    field.  Once the counts add up to every k-subspace, the later passes
    can count nothing and are not taken; any other final total is an
    internal error."""
    out = {}
    total, everything = 0, gaussian_binomial(6, k, F.q)
    through = "a conic" if k == 4 else "a point"
    for c in _CLASS_ORDER:
        if total == everything:
            break
        got = _cached(("through", k, c, id(F)), lambda: _through(F, k, c, jobs))
        size, col = _class_size(F, k, c), _class_column(k, c)
        for key, n in got.items():
            if next(d for d in _CLASS_ORDER if key[_class_column(k, d)]) != c:
                continue
            if size * n % key[col]:
                raise RuntimeError(f"{size} * {n} {k}-subspaces through {through} of class "
                                   f"{c} with key {key} is not a multiple of {key[col]}")
            counted = size * n // key[col]
            out[key] = out.get(key, 0) + counted
            total += counted
    if total != everything:
        raise RuntimeError(f"{total} {k}-subspaces counted through the classes, "
                           f"{'more' if total > everything else 'fewer'} than the "
                           f"{everything} there are")
    return out


def _sample_counts(F: FieldCtx, k: int, jobs: int = 1) -> dict[tuple, int]:
    """{key row: how many} over one seeded sample of SAMPLE_SIZE
    k-subspaces, cached per field: T3.7 and C4 read the same plane
    sample."""
    def build():
        t = tables(F)
        sample = bulk.sample_subspaces(t.kit, 5, k - 1, SAMPLE_SIZE, seed=_SEED)
        block = _block_size(F.q, k)
        chunks = [(s, s + block) for s in range(0, len(sample), block)]
        return _histogram(t, k, chunks, lambda chunk: _keys(t, sample[slice(*chunk)]), jobs)

    return _cached(("sample", k, id(F)), build)


def _table(F: FieldCtx, k: int, jobs: int = 1) -> tuple[dict[tuple, int], bool]:
    """The {key row: how many} table of the k-subspaces and whether it is
    sampled: exact (_counts) for q <= EXACT_MAX_Q, and over the seeded
    sample (_sample_counts) above it; either way every subspace has a
    row.  The plane checks read it; the solid counts are always exact."""
    if F.q > EXACT_MAX_Q:
        return _sample_counts(F, k, jobs), True
    return _counts(F, k, jobs), False


def _tally(counts: dict[tuple, int], keep) -> dict[tuple, int]:
    """Total count by od0 row of the key rows that pass keep."""
    out: dict[tuple, int] = {}
    for key, n in counts.items():
        if keep(key):
            out[key[:4]] = out.get(key[:4], 0) + n
    return out


def _count(counts: dict[tuple, int], keep) -> int:
    """Total count of the key rows that pass keep."""
    return sum(n for key, n in counts.items() if keep(key))


def _has_rank2(sig: tuple) -> bool:
    return sig[1] + sig[2] > 0


def _rank1_free(key: tuple) -> bool:
    return key[0] == 0


def _min_rank2(key: tuple) -> bool:
    return key[0] == 0 and _has_rank2(key)


def _complete_min_rank2(key: tuple) -> bool:
    return _min_rank2(key) and key[_COMPLETE] == 1


def _min_rank2_lines(F: FieldCtx, jobs: int) -> tuple[int, int]:
    """Minimum-rank-2 lines and how many of them are complete.  A line is
    complete iff the q^2+q+1 images of the rank-1 points cover the
    q^3+q^2+q+1 points of the quotient PG(3,q), which is why none can be."""
    lines = _counts(F, 2, jobs)
    return _count(lines, _min_rank2), _count(lines, _complete_min_rank2)


def _complete_planes_by_sig(F: FieldCtx, jobs: int) -> dict[tuple, int]:
    """How many complete minimum-rank-2 planes have each od0 row; rows with
    none are left out."""
    return _tally(_counts(F, 3, jobs), _complete_min_rank2)


# ---------------------------------------------------------------------------
# Grassmannian-wide sweeps, which no driver calls: the tests' reference for
# the counts, and names the benchmark's span recorder wraps.
# ---------------------------------------------------------------------------

_SWEEP_TAGS = {2: "line_sweep", 3: "plane_sweep", 4: "solid_groups"}


def _sweep(F: FieldCtx, k: int, jobs: int = 1):
    """The one sweep engine, cached per field: a chunked pass over every
    k-dimensional subspace of F^6, keeping those with no rank-1 point, with
    the od0 rows and completeness flags of their key rows (_keys).  Returns
    ({od0 tuple: sorted ids}, {od0 tuple: completeness flags aligned with
    the ids}, number of k-subspaces).  Chunks come back in id order, so
    each group is sorted as it is joined."""
    q = F.q
    t = tables(F)

    def work(chunk):
        lo, hi = chunk
        keys = _keys(t, bulk.subspace_bases(q, k, np.arange(lo, hi)))
        keep = np.flatnonzero(keys[:, 0] == 0)
        dist, full = keys[keep, :4], keys[keep, _COMPLETE] == 1
        # od0 rows as base-(points + 1) numbers, which sort as the rows do
        key = dist @ (gaussian_binomial(k, 1, q) + 1) ** np.arange(3, -1, -1)
        _, first, which = np.unique(key, return_index=True, return_inverse=True)
        return [(tuple(int(x) for x in dist[i]), lo + keep[which == j], full[which == j])
                for j, i in enumerate(first)]

    def build():
        groups: dict[tuple, list] = {}
        flags: dict[tuple, list] = {}
        for part in _pmap(work, bulk.id_chunks(q, k, _block_size(q, k)), jobs):
            for sig, ids, full in part:
                groups.setdefault(sig, []).append(ids)
                flags.setdefault(sig, []).append(full)
        return ({sig: np.concatenate(arrs) for sig, arrs in groups.items()},
                {sig: np.concatenate(arrs) for sig, arrs in flags.items()},
                gaussian_binomial(6, k, q))

    return _cached((_SWEEP_TAGS[k], id(F)), build)


def solid_groups(F: FieldCtx, jobs: int = 1):
    """All solids with no rank-1 point, grouped by point-orbit distribution.

    Returns (groups: {od0 tuple: sorted ids}, total_solids).
    """
    groups, _, total = _sweep(F, 4, jobs)
    return groups, total


def plane_sweep(F: FieldCtx, jobs: int = 1):
    """All planes with no rank-1 point, grouped by point-orbit distribution.

    Returns (groups: {od0 tuple: sorted ids}, total_planes).
    """
    groups, _, total = _sweep(F, 3, jobs)
    return groups, total


def _ids_where(groups: dict, keep) -> np.ndarray:
    """Sorted ids of every group whose od0 signature passes keep."""
    arrs = [ids for sig, ids in groups.items() if keep(sig)]
    return np.sort(np.concatenate(arrs)) if arrs else np.empty(0, np.int64)


def min_rank2_coverage(F: FieldCtx, jobs: int = 1) -> np.ndarray:
    """Sorted ids of the rank-1-free planes that lie inside a rank-1-free
    solid: those the plane sweep flags as not complete."""
    groups, complete, _ = _sweep(F, 3, jobs)
    return _ids_where({sig: ids[~complete[sig]] for sig, ids in groups.items()},
                      lambda sig: True)


def planes_covered_by_solids(F: FieldCtx, solid_ids: np.ndarray,
                             jobs: int = 1) -> np.ndarray:
    """Sorted unique ids of every plane inside any of the given solids.

    The program does not call this: it is the enumerative oracle against
    which the test suite checks min_rank2_coverage at small q.
    """
    q = F.q
    kit = bulk.kit_for(F)
    # for each normalized dual w of F^4, a basis of {x : x.w = 0}: (M, 3, 4)
    nd = bulk.nullspace_batch(kit, tables(F).coeffs(4)[:, None, :])
    m = len(nd)
    block = max(64, (1 << 21) // (m * 18))
    chunks = [solid_ids[i:i + block] for i in range(0, len(solid_ids), block)]

    def work(ids):
        bases = bulk.subspace_bases(q, 4, ids)
        planes = bulk.decode(bulk.combine(kit, nd, bases[:, None]), q, 6)
        red, rk = bulk.rref_batch(kit, planes.reshape(-1, 3, 6))
        assert int(rk.min()) == 3
        return np.unique(bulk.subspace_ids(q, red))

    parts = _pmap(work, chunks, jobs)
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)


def line_sweep_completeness(F: FieldCtx, jobs: int = 1):
    """Minimum-rank-2 lines and how many of them are complete.

    Returns (n_min_rank2, n_complete), read from the line sweep's
    completeness flags.  A line is complete iff the q^2+q+1 images of the
    rank-1 points cover the q^3+q^2+q+1 points of the quotient PG(3,q),
    which is why none can be.
    """
    groups, complete, _ = _sweep(F, 2, jobs)
    rank2 = [sig for sig in groups if _has_rank2(sig)]
    return (sum(len(groups[sig]) for sig in rank2),
            sum(int(complete[sig].sum()) for sig in rank2))


def _orbit_size(W: Subspace) -> int:
    """|PGL(3,q)| / |Stab(W)|, cached: T3.4 and T3.10 share representatives."""
    return _cached(("orbit_size", id(W.F), W.rows),
                   lambda: pgl3_order(W.F.q) // stabilizer_order(W))


def _is_orbit(key: tuple, count: int, W: Subspace) -> bool:
    """Whether the family of subspaces whose key rows start with key, an
    od0 row with or without the completeness flag after it, and which has
    count members, is the orbit of W: W's own key row, computed on W,
    starts with key, and count is the orbit's size (see the module
    docstring).  The family is invariant because its key is."""
    own = _keys(tables(W.F), np.array([W.rows], dtype=np.uint8))[0]
    return tuple(int(v) for v in own[:len(key)]) == tuple(key) and count == _orbit_size(W)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def verify_censuses(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    from srd3.invariants import hyperplane_census, point_census, point_classes
    t0 = time.perf_counter()
    q = F.q
    names = point_classes(F)
    if F.p == 2:
        expected_pts = {names[0]: q * q + q + 1, names[1]: q * q + q + 1,
                        names[2]: (q * q - 1) * (q * q + q + 1), names[3]: q ** 5 - q * q}
    else:
        expected_pts = {names[0]: q * q + q + 1,
                        names[1]: (q * q + q + 1) * q * (q + 1) // 2,
                        names[2]: (q * q + q + 1) * q * (q - 1) // 2,
                        names[3]: q ** 5 - q * q}
    expected_hyps = {"H1": q * q + q + 1, "H2r": (q * q + q + 1) * (q * q + q) // 2,
                     "H2i": (q ** 4 - q) // 2, "H3": q ** 5 - q * q}
    computed = {"points": point_census(F), "hyperplanes": hyperplane_census(F)}
    expected = {"points": expected_pts, "hyperplanes": expected_hyps}
    flags = _q2_flags(F)
    return [make_report(
        "censuses", F.spec,
        "point classes count (q^2+q+1, rank-2 split, q^5-q^2); hyperplane "
        "classes sum to (q^6-1)/(q-1) with q^2+q+1 double-line hyperplanes",
        expected, computed, seconds=time.perf_counter() - t0, flags=flags,
        details={"total_hyperplanes": sum(computed["hyperplanes"].values())})]


def verify_tables(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    from srd3.atlas import emit_atlas
    t0 = time.perf_counter()
    entries = emit_atlas(F)
    mismatches = [e["id"] for e in entries
                  if not (e.get("od0_match", True) and e.get("od4_match", True))]
    n_with_expect = sum(1 for e in entries if "expected_od0" in e)
    flags = _q2_flags(F)
    for e in entries:
        if e.get("ambiguous_with"):
            flags.append(f"{e['id']} shares both distributions with "
                         f"{e['ambiguous_with']}; the printed invariants do not "
                         "separate them")
            break
    return [make_report(
        "tables", F.spec,
        "every orbit representative reproduces its printed point- and "
        "hyperplane-orbit distributions",
        {"mismatches": []}, {"mismatches": mismatches},
        seconds=time.perf_counter() - t0, flags=flags,
        details={"representatives": len(entries), "with_expected": n_with_expect})]


def _min_rank2_solid_sigs(F: FieldCtx) -> dict[tuple, str]:
    from srd3.atlas import d2_classes
    return {tuple(spec.od0_formula(F.q)): spec.rep_id
            for spec in d2_classes(F) if spec.kind == "solid"}


def verify_solids(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    """Solids with no rank-1 point: exactly three signature groups, each one
    a single orbit containing its atlas representative.  Exact at every q:
    the solids are counted through one conic of each class (_counts)."""
    from srd3.atlas import representative
    t0 = time.perf_counter()
    q = F.q
    check_id = "T3.2" if F.p != 2 else "T3.3"
    sig_to_id = _min_rank2_solid_sigs(F)
    groups = _tally(_counts(F, 4, jobs), _rank1_free)
    orbit_match = {}
    sizes = {}
    for sig, n in sorted(groups.items()):
        rid = sig_to_id.get(sig)
        sizes[str(sig)] = n
        if rid is None:
            orbit_match[str(sig)] = "unexpected-signature"
            continue
        orbit_match[rid] = _is_orbit(sig, n, representative(rid, F))
    expected = {"n_groups": 3, "signatures": sorted(sig_to_id),
                "orbit_match": {rid: True for rid in sig_to_id.values()}}
    computed = {"n_groups": len(groups), "signatures": sorted(groups),
                "orbit_match": orbit_match}
    return [make_report(
        check_id, F.spec,
        "solids without rank-1 points fall into exactly 3 rank signatures, "
        "r3 in {q^3-q, q^3-2q, q^3}, each a single orbit", expected, computed,
        seconds=time.perf_counter() - t0, flags=_q2_flags(F),
        details={"total_solids": gaussian_binomial(6, 4, q), "group_sizes": sizes})]


def verify_plane_orbits(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    """Planes with distributions [0,q+1,0,q^2] and [0,1,0,q^2+q] each form a
    single orbit with hyperplane distributions [q+1,0,0,q^2] / [1,0,0,q^2+q].
    Up to EXACT_MAX_Q the check is exhaustive: the planes with each of the
    two od0 rows are counted, and each family must hold its representative
    and have its orbit's size, |PGL(3,q)| / |Stab|; od4 is read on the
    members through x_c, which every member is equivalent to.  Above it the
    representatives and a sample of their images are checked instead."""
    from srd3.atlas import representative
    from srd3.pg import canonicalize
    if F.p != 2 or F.q < 4:
        raise VerifyError("plane-orbit checks need q even, q >= 4")
    q = F.q
    out = []
    for check_id, rid, d0, d4, d0_text, d4_text in (
            ("T3.4", "Sigma_16", (0, q + 1, 0, q * q), (q + 1, 0, 0, q * q),
             "[0,q+1,0,q^2]", "[q+1,0,0,q^2]"),
            ("T3.8", "Sigma_18", (0, 1, 0, q * q + q), (1, 0, 0, q * q + q),
             "[0,1,0,q^2+q]", "[1,0,0,q^2+q]")):
        t0 = time.perf_counter()
        W = representative(rid, F)
        if q > EXACT_MAX_Q:
            got0, got4 = od0(W), od4(W)
            img_ok = _random_images_keep_od0(W, d0, n=25)
            out.append(make_report(
                check_id, F.spec,
                f"planes with point distribution {list(d0)} form one orbit "
                f"with hyperplane distribution {list(d4)}",
                {"od0": d0, "od4": d4, "images_consistent": True},
                {"od0": got0, "od4": got4, "images_consistent": img_ok},
                sampled=True, seconds=time.perf_counter() - t0))
            continue
        members = {key: n for key, n in _counts(F, 3, jobs).items() if key[:4] == d0}
        hits = sum(members.values())
        od4_all = all(key[_OD4] == d4 for key in members)
        details = {"planes_swept": gaussian_binomial(6, 3, q), "matching_planes": hits,
                   "orbit_size": _orbit_size(W)}
        if check_id == "T3.4":
            # pi_{0,1,0} meets the surface, so it is not in the group
            details["pi_010_od0"] = list(od0(canonicalize(
                F, ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0)))))
        out.append(make_report(
            check_id, F.spec,
            f"planes with point distribution {d0_text} form one orbit with "
            f"hyperplane distribution {d4_text}",
            {"one_orbit": True, "od4_constant": True},
            {"one_orbit": _is_orbit(d0, hits, W), "od4_constant": od4_all},
            seconds=time.perf_counter() - t0, details=details))
    return out


def _random_images_keep_od0(W: Subspace, want, n: int = 25) -> bool:
    import random
    from srd3.pg import matrix_rank
    from srd3.veronese import k_action
    F = W.F
    rng = random.Random(_SEED)
    for _ in range(n):
        while True:
            A = tuple(tuple(rng.randrange(F.q) for _ in range(3)) for _ in range(3))
            if matrix_rank(F, A) == 3:
                break
        if od0(k_action(F, A, W)) != tuple(want):
            return False
    return True


def verify_r2n_equals_h1(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    """For every plane, the rank-2 points inside the nucleus plane are as
    many as the double-line hyperplanes through it (q even >= 4)."""
    if F.p != 2 or F.q < 4:
        raise VerifyError("r2n = h1 needs q even, q >= 4")
    t0 = time.perf_counter()
    # every plane; exact counts add up to the Grassmannian
    counts, sampled = _table(F, 3, jobs)
    # r2n, the P2n column, is the number of points of W meet N, N the
    # nucleus plane (every point of N is a P2n point), so it gives dim(W
    # meet N); h1 is the H1 column
    dim = {0: 0, 1: 1, F.q + 1: 2, F.q * F.q + F.q + 1: 3}
    hist = [0] * 4
    mism = 0
    for key, n in counts.items():
        r2n = key[1]
        if r2n in dim:
            hist[dim[r2n]] += n
        if r2n not in dim or r2n != key[_OD4.start]:
            mism += n
    expected, computed = {"mismatches": 0}, {"mismatches": mism}
    details = {"intersection_dim_histogram": hist}
    if sampled:
        details = {"planes_checked": SAMPLE_SIZE, **details}
    else:
        expected["planes"] = gaussian_binomial(6, 3, F.q)
        computed["planes"] = sum(hist)
    return [make_report(
        "T3.7", F.spec, "r2n(plane) = h1(plane) for every plane",
        expected, computed, sampled=sampled, seconds=time.perf_counter() - t0,
        details=details)]


def verify_completeness_dichotomy(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    """Minimum-rank-2 lines never extendless; minimum-rank-2 planes complete
    only for q even and only inside the nucleus-plane family."""
    from srd3.atlas import d2_classes, entry_rows, rep_params, rep_spec, representative
    t0 = time.perf_counter()
    q = F.q
    n_lines, n_complete_lines = _min_rank2_lines(F, jobs)
    by_sig = _complete_planes_by_sig(F, jobs)
    complete_planes = sum(by_sig.values())
    n_min_rank2 = _count(_counts(F, 3, jobs), _min_rank2)

    details = {"min_rank2_lines": n_lines, "min_rank2_planes": n_min_rank2,
               "planes_inside_min_rank2_solids": n_min_rank2 - complete_planes}
    flags = _q2_flags(F)
    if F.p == 2:
        if q >= 4:
            # the only complete planes are the nucleus-plane family: the
            # complete planes of each signature are one orbit, and the
            # signatures are those of the complete-plane classes (the
            # nucleus plane Sigma_N, Sigma_16 and Sigma_18), all distinct
            family = [representative(spec.rep_id, F) for spec in d2_classes(F)
                      if spec.kind == "plane"]
            sigs = [od0(W) for W in family]
            comp_eq = (len(set(sigs)) == 3 and sorted(by_sig) == sorted(sigs)
                       and all(_is_orbit(sig + (1,), by_sig[sig], W)
                               for sig, W in zip(sigs, family)))
            expected = {"complete_lines": 0, "complete_planes_match_family": True}
            computed = {"complete_lines": n_complete_lines,
                        "complete_planes_match_family": comp_eq}
            details["complete_planes"] = complete_planes
            details["family_size"] = sum(_orbit_size(W) for W in family)
            # the standard extension example: the [0,1,0,q] line inside the
            # q^3-q solid representative (it extends by construction)
            from srd3.pg import canonicalize
            raw = entry_rows(F, rep_spec("Omega7", F).entries, rep_params("Omega7", F))
            lsub = canonicalize(F, [raw["y"], raw["t"]])
            details["o16_line_in_solid_od0"] = list(od0(lsub))
            ok_line = od0(lsub) == (0, 1, 0, q) and \
                representative("Omega7", F).contains(lsub)
            expected["line_in_solid_example"] = True
            computed["line_in_solid_example"] = bool(ok_line)
        else:
            # q = 2: below the q >= 4 range of the named plane families;
            # the maximal planes are grouped by signature instead
            expected = {"complete_lines": 0, "n_plane_signatures": 3}
            computed = {"complete_lines": n_complete_lines,
                        "n_plane_signatures": len(by_sig)}
            details["plane_signature_sizes"] = {str(k): v
                                                for k, v in sorted(by_sig.items())}
    else:
        expected = {"complete_lines": 0, "complete_planes": 0}
        computed = {"complete_lines": n_complete_lines,
                    "complete_planes": complete_planes}
    return [make_report(
        "T3.10", F.spec,
        "no minimum-rank-2 line is complete; minimum-rank-2 planes are "
        "complete exactly when q is even and their rank-2 locus lies in "
        "the nucleus plane",
        expected, computed, seconds=time.perf_counter() - t0,
        details=details, flags=flags)]


def verify_class_counts(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    """Number of equivalence classes of complete codes: distance 2 gives 3
    (q odd) or 6 (q even >= 4); distance 3 gives 2 (q odd) or 1 (q even > 2)."""
    from srd3.atlas import (rank1_points_over_cubic_extension, representative,
                            sigma_gf_plane, sigma_tf_plane)
    t0 = time.perf_counter()
    q = F.q
    flags = _q2_flags(F)
    out = []

    # ----- d = 2 ----------------------------------------------------------
    groups = _tally(_counts(F, 4, jobs), _rank1_free)
    sig_to_id = _min_rank2_solid_sigs(F)
    solid_sigs = [sig for sig in groups if sig in sig_to_id]
    stray = [sig for sig in groups if sig not in sig_to_id]
    by_sig = _complete_planes_by_sig(F, jobs)
    n_lines, n_complete_lines = _min_rank2_lines(F, jobs)
    plane_sig_count = len(by_sig)
    d2_classes = len(solid_sigs) + plane_sig_count
    n_msrd = len(solid_sigs)
    if F.p == 2:
        expected_d2 = 6
        check_id = "T3.14"
    else:
        expected_d2 = 3
        check_id = "T3.12"
    out.append(make_report(
        check_id, F.spec,
        "equivalence classes of complete distance-2 codes (by rank "
        "signature): 3 for q odd, 6 for q even with 3 of maximal dimension",
        {"classes": expected_d2, "msrd_classes": 3, "stray_solid_signatures": 0,
         "complete_lines": 0},
        {"classes": d2_classes, "msrd_classes": n_msrd,
         "stray_solid_signatures": len(stray), "complete_lines": n_complete_lines},
        seconds=time.perf_counter() - t0, flags=flags,
        details={"solid_classes": len(solid_sigs),
                 "complete_plane_classes": plane_sig_count,
                 "complete_planes": sum(by_sig.values()),
                 "min_rank2_lines": n_lines}))

    # ----- d = 3 ----------------------------------------------------------
    t1 = time.perf_counter()
    reps = [sigma_gf_plane(F)] if F.p == 2 else [sigma_gf_plane(F), sigma_tf_plane(F)]
    ext_counts = [rank1_points_over_cubic_extension(F, W) for W in reps]
    sizes = [_orbit_size(W) for W in reps]
    # the rank-1 count over GF(q^3) is an invariant, so different counts put
    # the representatives in different orbits; equal counts show nothing
    disjoint = len(set(ext_counts)) == len(reps)
    min_rank3 = _count(_counts(F, 3, jobs), lambda key: _rank1_free(key) and not _has_rank2(key))
    # disjoint orbits inside the constant-rank-3 planes, an invariant family,
    # cover it iff their sizes add up to it
    covered_all = (disjoint and all(od0(W)[:3] == (0, 0, 0) for W in reps)
                   and sum(sizes) == min_rank3)
    expected_d3 = 1 if F.p == 2 else 2
    expected_ext = [3] if F.p == 2 else [3, 0]
    out.append(make_report(
        "T3.21", F.spec,
        "constant-rank-3 planes form one orbit (q even > 2) or two orbits "
        "(q odd) separated by the rank-1 count after cubic scalar extension",
        {"classes": expected_d3, "orbits_cover_all": True, "disjoint": True,
         "extension_rank1_counts": expected_ext},
        {"classes": len(reps), "orbits_cover_all": covered_all,
         "disjoint": bool(disjoint), "extension_rank1_counts": ext_counts},
        seconds=time.perf_counter() - t1, flags=flags,
        details={"min_rank3_planes": min_rank3,
                 "orbit_sizes": sizes}))
    return out


def verify_net_corollaries(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    """Empty-base nets with a line-pair conic contain an empty-base pencil:
    every plane with no rank-1 point and a line-pair hyperplane lies inside
    a minimum-rank-2 solid.  Plus the printed web/net conic distributions."""
    from srd3.atlas import rep_spec, representative, sigma_gf_plane
    t0 = time.perf_counter()
    q = F.q
    counts, sampled = _table(F, 3, jobs)

    def line_pair(key):  # a hyperplane of class H2r or H2i
        return _rank1_free(key) and key[_OD4][1] + key[_OD4][2] > 0

    target = _count(counts, line_pair)
    n_viol = _count(counts, lambda key: line_pair(key) and key[_COMPLETE] == 1)
    if sampled:
        return [make_report(
            "C4", F.spec,
            "planes with no rank-1 point and a line-pair hyperplane lie in a "
            "minimum-rank-2 solid",
            {"violations": 0}, {"violations": n_viol}, sampled=True,
            seconds=time.perf_counter() - t0,
            details={"sampled_planes": SAMPLE_SIZE, "checked": target})]

    spot_expected = {}
    spot_computed = {}
    if F.p != 2:
        # the three empty-base web conic distributions, printed as the
        # hyperplane column of the corresponding lines
        for rid in ("o8_2", "o14_2", "o15_2"):
            spot_expected[rid] = tuple(rep_spec(rid, F).od4_formula(q))
            spot_computed[rid] = tuple(od4(representative(rid, F)))
    else:
        spot_expected["Sigma_16"] = (q + 1, 0, 0, q * q)
        spot_computed["Sigma_16"] = tuple(od4(representative("Sigma_16", F)))
    gf_net = tuple(od4(sigma_gf_plane(F)))
    spot_expected["Sigma_GF"] = (0, 0, 0, q * q + q + 1)
    spot_computed["Sigma_GF"] = gf_net
    return [make_report(
        "C4", F.spec,
        "planes with no rank-1 point and a line-pair hyperplane lie in a "
        "minimum-rank-2 solid; printed web/net conic distributions verified",
        {"violations": 0, "spot": spot_expected},
        {"violations": n_viol, "spot": spot_computed},
        seconds=time.perf_counter() - t0, flags=_q2_flags(F),
        details={"planes_r1zero_with_line_pair": target,
                 "total_planes": gaussian_binomial(6, 3, q)})]


def verify_schmidt(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    """The trace-form plane is the known optimal distance-3 construction:
    dimension 3, distance 3, q^3 codewords, bound-achieving, complete."""
    from srd3.atlas import sigma_gf_plane
    from srd3.codes import SrdCode, describe
    t0 = time.perf_counter()
    C = SrdCode.from_subspace(sigma_gf_plane(F))
    d = describe(C)
    got = {"dim": d["dim"], "min_distance": d["min_distance"], "size": d["size"],
           "is_msrd": d["is_msrd"], "is_complete": d["is_complete"]}
    want = {"dim": 3, "min_distance": 3, "size": F.q ** 3,
            "is_msrd": True, "is_complete": True}
    return [make_report(
        "Y03q", F.spec,
        "the trace-form plane code has dimension 3, distance 3, q^3 words, "
        "achieves the dimension bound and is complete",
        want, got, seconds=time.perf_counter() - t0)]


def verify_rank3_od4(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    """Computed hyperplane distribution of the constant-rank-3 planes is
    [0,0,0,q^2+q+1]; the stated closed form [0,0,0,q+1] disagrees with it
    (a plane lies on q^2+q+1 hyperplanes), reported as a discrepancy."""
    from srd3.atlas import sigma_gf_plane, sigma_tf_plane
    t0 = time.perf_counter()
    q = F.q
    computed = {"Sigma_GF": tuple(od4(sigma_gf_plane(F)))}
    if F.p != 2:
        computed["Sigma_TF"] = tuple(od4(sigma_tf_plane(F)))
    want = (0, 0, 0, q * q + q + 1)
    expected = {k: want for k in computed}
    stated = (0, 0, 0, q + 1)
    return [make_report(
        "CR3-OD4", F.spec,
        "constant-rank-3 planes have hyperplane distribution "
        "[0,0,0,q^2+q+1]; the printed statement says [0,0,0,q+1]",
        expected, computed, discrepancy=True,
        seconds=time.perf_counter() - t0,
        flags=[f"stated value {list(stated)} is inconsistent with the "
               f"q^2+q+1 hyperplanes through a plane; computed "
               f"{list(want)} matches the accompanying derivation"])]


def _q2_flags(F: FieldCtx) -> list[str]:
    if F.q == 2:
        return ["q=2: the stabiliser of the rank-1 surface is larger than "
                "the lifted linear group, so point-orbit distributions are "
                "not invariants of the full stabiliser; results are under "
                "the lifted group only"]
    return []


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# check id -> (driver, (parity, largest q it runs at or None)).  The
# ceilings are the one definition of each driver's range: the counts behind
# T3.10/T3.12/T3.14/T3.21 have no sampled form, so they stop at EXACT_MAX_Q.
DRIVERS = {
    "censuses": (verify_censuses, ("any", None)),
    "tables": (verify_tables, ("any", None)),
    "T3.2": (verify_solids, ("odd", None)),
    "T3.3": (verify_solids, ("even", None)),
    "T3.4": (verify_plane_orbits, ("even4", None)),
    "T3.8": (verify_plane_orbits, ("even4", None)),
    "T3.7": (verify_r2n_equals_h1, ("even4", None)),
    "T3.10": (verify_completeness_dichotomy, ("any", EXACT_MAX_Q)),
    "T3.12": (verify_class_counts, ("odd", EXACT_MAX_Q)),
    "T3.14": (verify_class_counts, ("even", EXACT_MAX_Q)),
    "T3.21": (verify_class_counts, ("any", EXACT_MAX_Q)),
    "C4": (verify_net_corollaries, ("min3", None)),
    "Y03q": (verify_schmidt, ("any", None)),
    "CR3-OD4": (verify_rank3_od4, ("any", None)),
}


def _applies(parity: str, F: FieldCtx) -> bool:
    if parity == "any":
        return True
    if parity == "odd":
        return F.p != 2
    if parity == "even":
        return F.p == 2
    if parity == "even4":
        return F.p == 2 and F.q >= 4
    if parity == "min3":
        return F.q >= 3
    raise ValueError(parity)


def run_checks(F: FieldCtx, ids: list[str] | None = None, jobs: int = 1) -> list[CheckReport]:
    """Run the requested checks (all applicable ones by default).  Every
    check needs the point tables, so a field above their range is refused
    before any check runs."""
    require_tables(F.q)
    wanted = list(DRIVERS) if ids is None else ids
    for i in wanted:
        if i not in DRIVERS:
            raise VerifyError(f"unknown check id {i!r}; known: {sorted(DRIVERS)}")
    seen_drivers = set()
    reports: list[CheckReport] = []
    for cid in wanted:
        fn, (parity, max_q) = DRIVERS[cid]
        if not _applies(parity, F):
            if ids is not None:
                raise VerifyError(f"check {cid} does not apply to q={F.q}")
            continue
        if max_q is not None and F.q > max_q:
            if ids is not None:
                raise VerifyError(f"check {cid} runs only for q <= {max_q}, got q={F.q}")
            continue
        if fn in seen_drivers:
            continue
        seen_drivers.add(fn)
        reports.extend(fn(F, jobs=jobs))
    if ids is not None:
        keep = set(wanted)
        reports = [r for r in reports if r.check_id in keep or r.check_id not in DRIVERS]
    return reports
