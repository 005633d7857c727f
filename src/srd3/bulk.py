"""Vectorised numpy kernels over GF(q).

Everything here operates on uint8/uint16 arrays of field codes and mirrors
the scalar routines in :mod:`srd3.pg`; the test suite cross-checks the two.
The kernels exist because the verification drivers classify the points of
hundreds of thousands of subspaces (the 304265 planes through one point of
PG(5,8), say), which is not viable point-by-point in Python.

A subspace of F^6 is named everywhere by one int64 id, its index in the
canonical RREF order (see "Subspace ids" below); this module alone knows
the pivot-pattern offsets behind it.  A sweep chunk is an id range from
id_chunks, subspace_bases turns ids into RREF bases and subspace_ids turns
bases back into ids.  encode/decode remain for vector (point) codes.

Linear combinations.  combine(kit, A, B) is the one kernel for sums
a_1 v_1 + ... + a_k v_k over GF(q): with np.matmul broadcasting,
(..., m, k) x (..., k, c), it returns the base-q codes of the rows of A B,
int32 when q^c < 2^31 and int64 otherwise (code_dtype).  The points of
subspaces are combine(coefficients, bases), a transform is
decode(combine(bases, lift)), and the values of dual vectors at points are
combine(points, duals^T).  Two implementations, chosen by characteristic:

  p odd: write each element of A as its h base-p digits and each element
      b of B as the h x h matrix of x -> x b over GF(p); then one integer
      matmul (for prime q plainly A @ B) and one % p give the c*h base-p
      digits of each code.  The accumulator is uint8, uint16 or uint32,
      whichever holds k*h*(p-1)^2.
  p = 2: the code of a sum is the XOR of the codes of its terms, so the
      codes of a * (row t of B) are built for every a (the row codes),
      and a row's code is the XOR of k gathers from them.  The digit
      matmul would need h*h products per field product and measured
      slower than the XOR at q = 8 and 16.

Each has a small path, chosen by the size of the operand the step works
on, never by the caller: a single-code call (rank_distribution, the
quotient images of one code, the GF(q^3) count) builds its codes in a
constant number of numpy calls instead of one or more per digit or per
field element.

  p odd, the product has at most SMALL_ROWS rows: the digits become codes
      by one matmul with the weights p^(ch-1), ..., p, 1; larger products
      take a Horner loop of 2*c*h in-place passes.
  p = 2, B has at most SMALL_B entries: the row codes are one gather from
      a per-(kit, c) table of the codes of a b at each coordinate (the
      shifted products) and one XOR over the coordinates; larger B builds
      them a = x^i by one MUL gather and Horner encode each, and the other
      a by one XOR of two earlier ones.

The limits sit at or below the sizes where the two paths cost the same,
measured over shapes at q = 2 to 16 on a 2-core x86-64 machine (numpy
2.4): the weighted matmul falls behind Horner at 1100-3000 rows for
c*h <= 6, and the table gather behind the loop at 500-1500 entries of B
for q <= 8, as it copies q codes per entry.  Past them the small paths
fall behind fast: at 4096 rows and c*h = 2 the matmul took 1.7 times as
long as Horner, and for B of 4608 entries at q = 2 the gather five times
as long as the loop.

rref_batch eliminates column by column and keeps the MUL/ADD table
gathers of Kit; nullspace_batch eliminates nothing and reads the duals off
the RREF bases, like pg.dual_basis; rank3 reads the rank of a 3x3 matrix
off its adjugate instead.  quotient_codes is one combine of the points
with the dual vectors of each subspace, then one lookup in normal_codes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from srd3.gf import DENSE_MAX_Q, FieldCtx, FieldError
from srd3.pg import free_positions, pivot_patterns


class Kit:
    """Per-field bundle of numpy lookup tables (q <= DENSE_MAX_Q = 256)."""

    def __init__(self, F: FieldCtx):
        if F.q > DENSE_MAX_Q:
            raise ValueError(f"bulk kernels support q <= {DENSE_MAX_Q}, got q={F.q}")
        self.F = F
        self.q = F.q
        self.p = F.p
        self.h = F.h
        self.char2 = F.p == 2
        self.MUL = F.np_table('mul')
        self.NEG = F.np_table('neg')
        self.INV = F.np_table('inv')
        self.ADD = None if self.char2 else F.np_table('add')
        # the q x q tables flattened, entry (a, b) at a q + b, which one 1-D
        # gather reaches: a uint8 index holds it up to q = 16, uint16 up to 256
        self._mul = self.MUL.ravel()
        self._add = None if self.char2 else self.ADD.ravel()
        self._index = np.uint8 if self.q <= 16 else np.uint16
        if not self.char2:
            # DIG[a]: the h base-p digits of a, constant term first;
            # MAT[b][i]: the digits of x^i * b, leading digit first; so the
            # digits of a * b, leading digit first, are DIG[a] @ MAT[b] mod p
            q, p, h = F.q, F.p, F.h
            self.DIG = decode(np.arange(q), p, h)[:, ::-1].copy()
            self.MAT = decode(self.MUL[p ** np.arange(h)].T, p, h)

    def _at(self, a, b) -> np.ndarray:
        """The flat index a q + b of table entry (a, b), broadcast."""
        return np.multiply(a, self.q, dtype=self._index, casting="unsafe") + b

    def add(self, a, b):
        if self.char2:
            return a ^ b
        return self._add[self._at(a, b)]

    def sub(self, a, b):
        if self.char2:
            return a ^ b
        return self._add[self._at(a, self.NEG[b])]

    def mul(self, a, b):
        return self._mul[self._at(a, b)]


_kits: dict[int, Kit] = {}


def kit_for(F: FieldCtx) -> Kit:
    k = _kits.get(id(F))
    if k is None:
        k = _kits[id(F)] = Kit(F)
    return k


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def code_dtype(q: int, c: int):
    """int32 when every base-q code of a c-vector fits (q^c < 2^31), which
    covers every field with point tables; int64 otherwise."""
    return np.int32 if q ** c < 2 ** 31 else np.int64


def encode(vecs: np.ndarray, q: int) -> np.ndarray:
    """Base-q integer code of each vector, first coordinate most significant.

    Horner's rule over the last axis, so the only wide array is the
    result: casting the whole point array first would multiply its memory
    by four or eight."""
    out = np.zeros(vecs.shape[:-1], dtype=code_dtype(q, vecs.shape[-1]))
    for i in range(vecs.shape[-1]):
        out *= q
        out += vecs[..., i]
    return out


def decode(codes: np.ndarray, q: int, c: int) -> np.ndarray:
    """The c base-q digits of each code, first digit most significant.
    Codes are divided in their own width, at least int32."""
    out = np.empty(codes.shape + (c,), dtype=np.uint8)
    rest = codes.astype(np.promote_types(codes.dtype, np.int32))
    for i in range(c - 1, -1, -1):
        out[..., i] = rest % q
        rest //= q
    return out


def _pivots(bases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot columns (N, k), pivot-column mask (N, c) and free columns in
    ascending order (N, c - k) of full-rank RREF bases (N, k, c)."""
    N, k, c = bases.shape
    piv = np.argmax(bases != 0, axis=2)
    is_piv = np.zeros((N, c), dtype=bool)
    is_piv[np.arange(N)[:, None], piv] = True
    return piv, is_piv, np.nonzero(~is_piv)[1].reshape(N, c - k)


def quotient_codes(kit: Kit, duals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Images of points in the quotient F^c / W for each subspace W.

    duals: (N, c-k, c) dual bases of the W, read off their RREF bases
    (nullspace_batch, or pg.dual_basis for one W); points: (P, c).  Returns
    (N, P) codes of the images scaled to a leading 1, and 0 for a point in
    W.  The image of v is its values v.d_t at the dual vectors: v ->
    (v.d_t)_t is linear with kernel W, so it maps F^c / W onto F^(c-k), and
    two points span the same subspace with W iff their images are
    proportional.  With d_t = 1 at the t-th free column and 0 at the others,
    it is v - sum_i v[piv_i] row_i read on the free columns."""
    return normal_codes(kit, duals.shape[1])[combine(kit, points, duals.transpose(0, 2, 1))]


@lru_cache(maxsize=None)
def normal_codes(kit: Kit, m: int) -> np.ndarray:
    """Code of a vector of F^m -> code of its multiple with leading 1
    (0 -> 0).  Its callers need the point tables, so q <= 16 and it holds
    at most 16^5 int32 codes (4 MB)."""
    vecs = decode(np.arange(kit.q ** m), kit.q, m)
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    return encode(kit.mul(kit.INV[lead][:, None], vecs), kit.q)


def covers_quotient(q: int, m: int, images: np.ndarray) -> np.ndarray:
    """For each row of quotient_codes images in F^m, whether the nonzero
    ones cover every point of PG(m-1, q): (N,) bool."""
    img = np.sort(images, axis=1)
    distinct = np.count_nonzero(np.diff(img, axis=1), axis=1) + (img[:, 0] != 0)
    return distinct == (q ** m - 1) // (q - 1)


# ---------------------------------------------------------------------------
# Batched elimination
# ---------------------------------------------------------------------------

def rref_batch(kit: Kit, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of a batch of matrices.

    mats: (N, k, c) array of field codes.  Returns (rref, ranks); rows of
    rank < k matrices are zero below their rank.
    """
    A = mats.copy()
    N, k, c = A.shape
    ar = np.arange(N)
    rowpos = np.zeros(N, dtype=np.int64)
    krange = np.arange(k)
    for col in range(c):
        colvals = A[:, :, col]
        valid = (krange[None, :] >= rowpos[:, None]) & (colvals != 0)
        has = valid.any(axis=1)
        if not has.any():
            continue
        pidx = np.where(has, valid.argmax(axis=1), 0)
        rsel = np.where(has, rowpos, 0)
        idx = ar[has]
        # swap pivot row into place
        tmp = A[idx, pidx[has]].copy()
        A[idx, pidx[has]] = A[idx, rsel[has]]
        A[idx, rsel[has]] = tmp
        # scale pivot row to 1
        pv = A[idx, rsel[has], col]
        inv = kit.INV[pv]
        A[idx, rsel[has]] = kit.mul(inv[:, None], A[idx, rsel[has]])
        # eliminate the column everywhere else
        fac = A[:, :, col].copy()
        fac[ar, rsel] = 0
        fac[~has] = 0
        piv = A[ar, rsel]
        A = kit.sub(A, kit.mul(fac[:, :, None], piv[:, None, :]))
        rowpos = rowpos + has
    return A, rowpos


# adj(A)[i, j] = A[j+1, i+1] A[j+2, i+2] - A[j+1, i+2] A[j+2, i+1], indices mod 3
_I3, _J3 = np.indices((3, 3))
_I1, _I2, _J1, _J2 = (_I3 + 1) % 3, (_I3 + 2) % 3, (_J3 + 1) % 3, (_J3 + 2) % 3


def adjugate(kit: Kit, A: np.ndarray) -> np.ndarray:
    """adj(A) of 3x3 matrices (..., 3, 3): the inverse in PGL(3,q)."""
    return kit.sub(kit.mul(A[..., _J1, _I1], A[..., _J2, _I2]),
                   kit.mul(A[..., _J1, _I2], A[..., _J2, _I1]))


def rank3(kit: Kit, A: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Ranks (N,) uint8 of 3x3 matrices A (N, 3, 3) with adjugates adj: 3
    if det A = sum_j A[0, j] adj[j, 0] != 0, else 2 if some 2x2 minor (an
    entry of adj) is, else 1 if A != 0, else 0; the number that hold."""
    det = kit.add(kit.add(kit.mul(A[:, 0, 0], adj[:, 0, 0]), kit.mul(A[:, 0, 1], adj[:, 1, 0])),
                  kit.mul(A[:, 0, 2], adj[:, 2, 0]))
    rank = (det != 0).view(np.uint8)
    rank += adj.reshape(-1, 9).any(axis=1)
    rank += A.reshape(-1, 9).any(axis=1)
    return rank


# combine's small path runs on operands up to these sizes: at most SMALL_B
# entries of B (p = 2) and at most SMALL_ROWS rows of the digit product (p
# odd).  See "Linear combinations" in the module docstring.
SMALL_B = 512
SMALL_ROWS = 1024


def combine(kit: Kit, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Base-q codes of the rows of A B over GF(q), with np.matmul
    broadcasting: (..., m, k) x (..., k, c) -> (...) + (m,), dtype
    code_dtype(q, c).  See "Linear combinations" in the module docstring."""
    if kit.char2:
        return _combine_xor(kit, A, B)
    return _combine_digits(kit, A, B)


@lru_cache(maxsize=None)
def _digit_weights(kit: Kit, c: int) -> np.ndarray:
    """p^(ch-1), ..., p, 1: the weights of the c h base-p digits of a code
    of F^c, leading digit first."""
    n = c * kit.h
    return (kit.p ** np.arange(n - 1, -1, -1, dtype=np.int64)).astype(code_dtype(kit.q, c))


def _combine_digits(kit: Kit, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    k, c = B.shape[-2:]
    p, h = kit.p, kit.h
    bound = k * h * (p - 1) ** 2
    dt = np.uint8 if bound < 1 << 8 else np.uint16 if bound < 1 << 16 else np.uint32
    if h == 1:
        prod = np.matmul(A.astype(dt, copy=False), B.astype(dt, copy=False))
    else:
        Ad = kit.DIG[A].reshape(A.shape[:-1] + (k * h,)).astype(dt, copy=False)
        Bm = kit.MAT[B].swapaxes(-3, -2).reshape(B.shape[:-2] + (k * h, c * h))
        prod = np.matmul(Ad, Bm.astype(dt, copy=False))
    np.remainder(prod, p, out=prod)
    cd = code_dtype(kit.q, c)
    if prod.size <= SMALL_ROWS * c * h:
        return np.matmul(prod, _digit_weights(kit, c), dtype=cd, casting="unsafe")
    out = np.zeros(prod.shape[:-1], dtype=cd)
    for j in range(c * h):
        out *= p
        out += prod[..., j]
    return out


@lru_cache(maxsize=None)
def _shifted_products(kit: Kit, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(c q, q) codes: row j q + b holds the code of a b at coordinate j of
    F^c for every a, and the row offsets j q of the c coordinates."""
    q = kit.q
    shift = (q ** np.arange(c - 1, -1, -1, dtype=np.int64)).astype(code_dtype(q, c))
    table = kit.MUL.T.astype(shift.dtype)[None] * shift[:, None, None]
    return table.reshape(c * q, q), np.arange(c) * q


def _row_codes(kit: Kit, B: np.ndarray) -> np.ndarray:
    """codes[..., t, a]: the code of a * (row t of B), (..., k, q)."""
    q = kit.q
    if B.size <= SMALL_B:
        # the XOR over the coordinates of their shifted products
        table, offsets = _shifted_products(kit, B.shape[-1])
        return np.bitwise_xor.reduce(table[B + offsets], axis=-2)
    # a -> a * row is additive, so only a = x^i takes a MUL gather; every
    # other a is the XOR of the powers of x in its bits.  Row t's codes
    # are built contiguous, the layout the gathers of combine read fastest
    rows = np.moveaxis(B, -2, 0)
    codes = np.zeros(rows.shape[:-1] + (q,), dtype=code_dtype(q, B.shape[-1]))
    for a in range(1, q):
        low = a & -a
        codes[..., a] = (encode(kit.MUL[a][rows], q) if a == low
                         else codes[..., low] ^ codes[..., a ^ low])
    return np.moveaxis(codes, 0, -2)


def _combine_xor(kit: Kit, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    q, k = kit.q, B.shape[-2]
    codes = _row_codes(kit, B)
    out = None
    for t in range(k):
        table, idx = codes[..., t, :], A[..., t]
        if B.ndim == 2:
            term = table[idx]
        elif A.ndim == 2:
            term = table[..., idx]
        else:
            shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
            table = np.broadcast_to(table[..., None, :], shape + (1, q))
            where = np.broadcast_to(idx[..., None], shape + idx.shape[-1:] + (1,))
            term = np.take_along_axis(table, where, axis=-1)[..., 0]
        if out is None:
            out = term
        else:
            out ^= term
    return out


def transform(kit: Kit, bases: np.ndarray, lift: np.ndarray) -> np.ndarray:
    """Right-multiply each basis row by the 6x6 lift matrix: y -> y L."""
    return decode(combine(kit, bases, lift), kit.q, lift.shape[1])


def nullspace_batch(kit: Kit, mats: np.ndarray) -> np.ndarray:
    """Right-nullspace bases of full-rank RREF matrices (N, k, c), pivot
    patterns may differ.  Returns (N, c-k, c): slice t is the solution of
    M d = 0 with d = 1 at the t-th free column and 0 at the others."""
    N, k, c = mats.shape
    ar = np.arange(N)
    piv, _, free = _pivots(mats)
    out = np.zeros((N, c - k, c), dtype=mats.dtype)
    for t in range(c - k):
        out[ar, t, free[:, t]] = 1
        for i in range(k):
            out[ar, t, piv[:, i]] = kit.NEG[mats[ar, i, free[:, t]]]
    return out


# ---------------------------------------------------------------------------
# Subspace ids
# ---------------------------------------------------------------------------
#
# A k-subspace of F^6 is named by its index in the canonical RREF order:
# pivot patterns in lexicographic order, and within one pattern the free
# slots read as base-q digits, most significant digit in the first
# (row-major) free slot.  The id is the pattern's offset plus that
# digit index.  Ids are int64, and the largest Grassmannian (k = 3, about
# q^9 subspaces) stays below 2^63 exactly for q <= MAX_ID_Q.

MAX_ID_Q = 127


@lru_cache(maxsize=None)
def _layout(q: int, k: int) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Pivot patterns of the k-subspaces of F^6 in canonical order, the id
    offset of each pattern (with the Grassmannian's size appended), and
    the offset by pivot bitmask."""
    if q > MAX_ID_Q:
        raise FieldError(f"subspace ids support q <= {MAX_ID_Q}, got q={q}")
    patterns = list(pivot_patterns(6, k))
    sizes = [q ** len(free_positions(p, 6)) for p in patterns]
    offsets = np.cumsum([0] + sizes, dtype=np.int64)
    by_mask = np.full(1 << 6, -1, dtype=np.int64)
    for p, off in zip(patterns, offsets):
        by_mask[sum(1 << j for j in p)] = off
    return patterns, offsets, by_mask


def id_chunks(q: int, k: int, block: int) -> list[tuple[int, int]]:
    """Every id of the k-Grassmannian once, as ascending id ranges [lo, hi)
    of at most block ids that never cross a pivot pattern."""
    offsets = _layout(q, k)[1]
    return [(s, min(s + block, int(hi)))
            for lo, hi in zip(offsets[:-1], offsets[1:])
            for s in range(int(lo), int(hi), block)]


def pattern_block(q: int, k: int, pattern: tuple[int, ...],
                  index: np.ndarray) -> np.ndarray:
    """RREF matrices with the given pivot pattern whose free-digit indices
    (ids minus the pattern's offset) are index: (N, k, 6)."""
    free = free_positions(pattern, 6)
    nf = len(free)
    A = np.zeros((len(index), k, 6), dtype=np.uint8)
    for i, p in enumerate(pattern):
        A[:, i, p] = 1
    for slot, (i, c) in enumerate(free):
        A[:, i, c] = (index // q ** (nf - 1 - slot)) % q
    return A


def subspace_bases(q: int, k: int, ids: np.ndarray) -> np.ndarray:
    """RREF bases of the subspaces with the given ids: (N, k, 6), one
    pattern_block fill per pivot pattern."""
    patterns, offsets, _ = _layout(q, k)
    which = np.searchsorted(offsets, ids, side="right") - 1
    out = np.empty((len(ids), k, 6), dtype=np.uint8)
    for j in np.flatnonzero(np.bincount(which, minlength=len(patterns))):
        sel = which == j
        out[sel] = pattern_block(q, k, patterns[j], ids[sel] - offsets[j])
    return out


def subspace_ids(q: int, bases: np.ndarray) -> np.ndarray:
    """Ids of full-rank RREF bases (N, k, 6), pivot patterns may differ."""
    N, k, c = bases.shape
    piv, is_piv, _ = _pivots(bases)
    index = np.zeros(N, dtype=np.int64)
    for i in range(k):
        for col in range(c):
            free = (col > piv[:, i]) & ~is_piv[:, col]
            index = np.where(free, index * q + bases[:, i, col], index)
    return _layout(q, k)[2][is_piv @ (1 << np.arange(c))] + index

