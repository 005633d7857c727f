"""Fq-linear symmetric rank-distance codes in M3(Fq).

A code is a subspace of the 6-dimensional space of symmetric 3x3 matrices;
its minimum distance equals the minimum rank over nonzero codewords, which
equals the minimum point rank of the associated subspace of PG(5,q).

Completeness (no extension preserving the minimum distance) is decided in
the quotient.  Let W be the code, k its dimension and d its distance, so W
has no point of rank < d.  A point Q outside W extends W iff <W, Q> has no
point v of rank < d, and such a v lies in <W, Q> iff v and Q have the same
image in F^6/W: the spans <W, v> pairwise meet only in W.  So W is complete
iff the images of the points of rank < d cover PG(5-k, q), and the
extension points are the points whose image is not one of theirs.  The
image of a point is the vector of its values at the 6-k dual vectors of
W (bulk.quotient_codes), one combine over all the points at once.

Classification of complete codes into equivalence classes goes by rank
distribution signatures, which separate all classes; the d = 3 split into
field-type and twisted-type is decided by counting rank-1 points after
scalar extension to GF(q^3) (3 for field type, 0 for twisted type).  That
count is the number of common zeros in PG(2, q^3) of the conics of the
code's dual (atlas.rank1_points_over_cubic_extension), so it needs no
point tables and no walk over the extended code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Iterable

import numpy as np

from srd3 import bulk
from srd3.atlas import d2_classes, rank1_points_over_cubic_extension
from srd3.gf import FieldCtx, parse_field_spec
from srd3.invariants import CLASS_RANK, rank_distribution, tables
from srd3.pg import Subspace, canonicalize, rref
from srd3.veronese import as_matrix, coords_of_matrix


class CodeFormatError(ValueError):
    """Malformed code input (JSON shape, symmetry, independence, range)."""


@dataclass(frozen=True)
class SrdCode:
    """An Fq-linear code of symmetric 3x3 matrices, dim >= 1."""
    F: FieldCtx
    basis: tuple[tuple[tuple[int, ...], ...], ...]   # matrices
    subspace: Subspace = field(compare=False)

    @classmethod
    def from_matrices(cls, F: FieldCtx, mats: Iterable) -> "SrdCode":
        mats = tuple(_int_matrix(i, M) for i, M in enumerate(mats))
        if not mats:
            raise CodeFormatError("empty basis")
        for i, M in enumerate(mats):
            if len(M) != 3 or any(len(r) != 3 for r in M):
                raise CodeFormatError(f"matrix {i} is not 3x3")
            for r in range(3):
                for c in range(3):
                    if not 0 <= M[r][c] < F.q:
                        raise CodeFormatError(
                            f"matrix {i} entry {M[r][c]} outside [0, {F.q})")
            if any(M[r][c] != M[c][r] for r in range(3) for c in range(3)):
                raise CodeFormatError(f"matrix {i} not symmetric")
        rows = [coords_of_matrix(M) for M in mats]
        red, rank = rref(F, rows)
        if rank != len(mats):
            raise CodeFormatError("basis matrices are linearly dependent")
        return cls(F, mats, Subspace(F, red))

    @classmethod
    def from_subspace(cls, W: Subspace) -> "SrdCode":
        mats = tuple(as_matrix(r) for r in W.rows)
        return cls(W.F, mats, W)

    @property
    def dim(self) -> int:
        return self.subspace.k

    @cached_property
    def point_ranks(self) -> tuple[int, int, int]:
        return rank_distribution(self.subspace)

    def __repr__(self):
        return f"SrdCode(dim={self.dim}, q={self.F.q})"


def _int_matrix(i: int, M) -> tuple[tuple[int, ...], ...]:
    """Matrix i of a basis as nested int tuples.  Anything that is not a
    list of lists of integers (a string, a float, a bare number, true/false)
    raises CodeFormatError rather than being coerced."""
    if not isinstance(M, (list, tuple)):
        raise CodeFormatError(f"matrix {i} is not a list of rows")
    out = []
    for r, row in enumerate(M):
        if not isinstance(row, (list, tuple)):
            raise CodeFormatError(f"matrix {i} row {r} is not a list")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, Integral):
                raise CodeFormatError(f"matrix {i} entry {x!r} is not an integer")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def min_distance(C: SrdCode) -> int:
    r = C.point_ranks
    return next(i + 1 for i, c in enumerate(r) if c)


def code_rank_distribution(C: SrdCode) -> tuple[int, int, int, int]:
    """(r0, r1, r2, r3) over all q^k codewords."""
    s = C.point_ranks
    m = C.F.q - 1
    return (1, m * s[0], m * s[1], m * s[2])


def dim_bound(n: int, d: int) -> int:
    """Largest possible Fq-dimension of a symmetric rank-distance code of
    n x n matrices with minimum distance d."""
    if not 1 <= d <= n:
        raise ValueError(f"d={d} out of range [1, {n}]")
    if (n - d) % 2 == 0:
        return n * (n - d + 2) // 2
    return (n + 1) * (n - d + 1) // 2


def is_msrd(C: SrdCode) -> bool:
    return C.dim == dim_bound(3, min_distance(C))


_points_cache: dict[tuple[int, int], np.ndarray] = {}


def points_of_rank_below(F: FieldCtx, d: int) -> np.ndarray:
    """The points of PG(5,q) of rank < d as normalized vectors (P, 6), in
    lexicographic order; d = 4 gives every point."""
    key = (id(F), d)
    pts = _points_cache.get(key)
    if pts is None:
        below = (CLASS_RANK >= 1) & (CLASS_RANK < d)
        vecs = bulk.decode(np.flatnonzero(below[tables(F).class_code]), F.q, 6)
        lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
        pts = _points_cache[key] = vecs[lead == 1]
    return pts


def is_complete(C: SrdCode) -> bool:
    """No point of PG(5,q) extends the code at its minimum distance: the
    images of the points of rank < d cover the quotient PG(5-k, q)."""
    d = min_distance(C)
    if d == 1:
        return C.dim == 6
    W = np.array([C.subspace.rows], dtype=np.uint8)
    img = bulk.quotient_codes(bulk.kit_for(C.F), W, points_of_rank_below(C.F, d))
    return bool(bulk.covers_quotient(C.F.q, 6 - C.dim, img)[0])


def extension_points(C: SrdCode) -> list[tuple[int, ...]]:
    """Points Q whose adjunction preserves the minimum distance, in
    lexicographic order: those outside the code whose image in the
    quotient is no image of a point of rank < d."""
    if C.dim == 6:
        return []
    kit = bulk.kit_for(C.F)
    W = np.array([C.subspace.rows], dtype=np.uint8)
    pts = points_of_rank_below(C.F, 4)
    img = bulk.quotient_codes(kit, W, pts)[0]
    low = bulk.quotient_codes(kit, W, points_of_rank_below(C.F, min_distance(C)))[0]
    keep = (img != 0) & ~np.isin(img, low)
    return [tuple(int(x) for x in v) for v in pts[keep]]


def extend_to_complete(C: SrdCode) -> SrdCode:
    """Greedy completion: repeatedly adjoin the first extension point.

    Monotone (the result contains the input) and idempotent; the scan order
    is the lexicographic point order, so the result is deterministic.
    """
    cur = C
    while True:
        pts = extension_points(cur)
        if not pts:
            return cur
        cur = SrdCode.from_subspace(canonicalize(cur.F, cur.subspace.rows + (pts[0],)))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify(C: SrdCode) -> str:
    """Equivalence class of a complete code; "NotComplete" otherwise.

    d=2 solids and planes are split by their rank-3 point count, which the
    od0 formula of each class in atlas.D2_CLASSES gives (q^3-q, q^3-2q, q^3
    for solids; 0, q^2, q^2+q for planes, q even); d=3 codes by the rank-1
    count of the scalar extension to GF(q^3).
    """
    return _label(C, is_complete(C))


def _label(C: SrdCode, complete: bool) -> str:
    """classify(C), given whether C is complete."""
    F = C.F
    q = F.q
    d = min_distance(C)
    if not complete:
        return "NotComplete"
    if d == 1:
        return "WholeSpace"
    r1, r2, r3 = C.point_ranks
    if d == 2:
        kind = {3: "plane", 4: "solid"}.get(C.dim)
        for spec in d2_classes(F):
            if spec.kind == kind and spec.od0_formula(q)[3] == r3:
                return spec.rep_id
        raise ClassSignatureError(C)
    # d == 3: complete implies a plane (the bound is saturated)
    if C.dim == 3:
        n = rank1_points_over_cubic_extension(F, C.subspace)
        if n == 3:
            return "GF_type"
        if n == 0:
            return "TF_type"
    raise ClassSignatureError(C)


class ClassSignatureError(RuntimeError):
    def __init__(self, C: SrdCode):
        super().__init__(
            f"no class matches: dim={C.dim}, d={min_distance(C)}, "
            f"rank distribution={code_rank_distribution(C)}, q={C.F.q}")


def describe(C: SrdCode) -> dict:
    """All cached invariants of a code, JSON-ready."""
    d = min_distance(C)
    complete = is_complete(C)
    return {
        "field": C.F.spec,
        "dim": C.dim,
        "size": C.F.q ** C.dim,
        "min_distance": d,
        "rank_distribution": list(code_rank_distribution(C)),
        "is_msrd": is_msrd(C),
        "is_complete": complete,
        "label": _label(C, complete),
    }


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def code_to_json(C: SrdCode) -> str:
    return json.dumps({"field": C.F.spec,
                       "basis": [[list(r) for r in M] for M in C.basis]})


def code_from_json(text: str) -> SrdCode:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CodeFormatError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict) or "field" not in obj or "basis" not in obj:
        raise CodeFormatError('expected {"field": ..., "basis": [...]}')
    F = parse_field_spec(str(obj["field"]))
    basis = obj["basis"]
    if not isinstance(basis, list) or not basis:
        raise CodeFormatError("basis must be a nonempty list of 3x3 matrices")
    return SrdCode.from_matrices(F, basis)
