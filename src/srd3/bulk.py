"""Vectorised numpy kernels over GF(q).

Everything here operates on uint8/uint16 arrays of field codes and mirrors
the scalar routines in :mod:`srd3.pg`; the test suite cross-checks the two.
The kernels exist because the verification drivers sweep millions of
subspaces (all 376805 planes of PG(5,4), half a million solids of PG(5,5)),
which is not viable point-by-point in Python.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from srd3.gf import FieldCtx
from srd3.pg import free_positions, pivot_patterns


class Kit:
    """Per-field bundle of numpy lookup tables (q <= 256)."""

    def __init__(self, F: FieldCtx):
        if F.q > 256:
            raise ValueError(f"bulk kernels support q <= 256, got q={F.q}")
        self.F = F
        self.q = F.q
        self.char2 = F.p == 2
        self.MUL = F.np_table('mul')
        self.NEG = F.np_table('neg')
        self.INV = F.np_table('inv')
        self.ADD = None if self.char2 else F.np_table('add')

    def add(self, a, b):
        if self.char2:
            return a ^ b
        return self.ADD[a, b]

    def sub(self, a, b):
        if self.char2:
            return a ^ b
        return self.ADD[a, self.NEG[b]]

    def mul(self, a, b):
        return self.MUL[a, b]


_kits: dict[int, Kit] = {}


def kit_for(F: FieldCtx) -> Kit:
    k = _kits.get(id(F))
    if k is None:
        k = _kits[id(F)] = Kit(F)
    return k


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode(vecs: np.ndarray, q: int) -> np.ndarray:
    """Base-q integer code of each vector, first coordinate most significant.

    Horner's rule over the last axis, so the only int64 array is the
    result: casting the whole point array first would multiply its memory
    by eight."""
    out = np.zeros(vecs.shape[:-1], dtype=np.int64)
    for i in range(vecs.shape[-1]):
        out *= q
        out += vecs[..., i]
    return out


def decode(codes: np.ndarray, q: int, c: int) -> np.ndarray:
    out = np.empty(codes.shape + (c,), dtype=np.uint8)
    rest = codes.astype(np.int64)
    for i in range(c - 1, -1, -1):
        out[..., i] = rest % q
        rest //= q
    return out


def quotient_codes(kit: Kit, bases: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Images of points in the quotient F^c / W for each subspace W.

    bases: (N, k, c) full-rank RREF bases, pivot patterns may differ;
    points: (P, c).  Returns (N, P) int64: the base-q code of the image,
    scaled so its first nonzero coordinate is 1, in the c - k free
    coordinates of W, and 0 for a point inside W.  The image is
    v - sum_i v[piv_i] row_i, which vanishes on the pivot columns, so two
    points have the same code iff they span the same subspace with W.
    """
    N, k, c = bases.shape
    piv = np.argmax(bases != 0, axis=2)                       # (N, k)
    is_piv = np.zeros((N, c), dtype=bool)
    is_piv[np.arange(N)[:, None], piv] = True
    free = np.nonzero(~is_piv)[1].reshape(N, c - k)          # ascending
    rows = np.take_along_axis(bases, free[:, None, :], axis=2)  # (N, k, c-k)
    acc = points.T[free].transpose(0, 2, 1)                  # (N, P, c-k)
    at_piv = points.T[piv]                                   # (N, k, P)
    for i in range(k):
        acc = kit.sub(acc, kit.mul(at_piv[:, i, :, None], rows[:, i, None, :]))
    lead = np.take_along_axis(acc, np.argmax(acc != 0, axis=2)[..., None], axis=2)
    return encode(kit.mul(kit.INV[lead], acc), kit.q)


def covers_quotient(kit: Kit, bases: np.ndarray, points: np.ndarray) -> np.ndarray:
    """For each subspace W of bases (as in quotient_codes), whether the
    images of points outside W cover every point of the quotient
    PG(c-k-1, q): (N,) bool."""
    N, k, c = bases.shape
    img = np.sort(quotient_codes(kit, bases, points), axis=1)
    distinct = 1 + np.count_nonzero(np.diff(img, axis=1), axis=1) - (img[:, 0] == 0)
    return distinct == (kit.q ** (c - k) - 1) // (kit.q - 1)


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


def rank_batch(kit: Kit, mats: np.ndarray) -> np.ndarray:
    return rref_batch(kit, mats)[1]


def combine(kit: Kit, coeffs: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """All coefficient combinations of basis rows: (m,k) x (N,k,c) -> (N,m,c)."""
    N, k, c = bases.shape
    m = len(coeffs)
    acc = np.zeros((N, m, c), dtype=bases.dtype)
    for j in range(k):
        term = kit.mul(coeffs[None, :, j, None], bases[:, j, :][:, None, :])
        acc = kit.add(acc, term)
    return acc


def transform(kit: Kit, bases: np.ndarray, lift: np.ndarray) -> np.ndarray:
    """Right-multiply each basis row by the 6x6 lift matrix: y -> y L."""
    N, k, c = bases.shape
    acc = np.zeros((N, k, c), dtype=bases.dtype)
    for i in range(c):
        term = kit.mul(bases[:, :, i][:, :, None], lift[i][None, None, :])
        acc = kit.add(acc, term)
    return acc


def nullspace_fixed(kit: Kit, mats: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    """Right-nullspace bases for RREF matrices sharing one pivot pattern.

    mats: (N, k, c) in RREF with pivots exactly at `pattern`.  Returns
    (N, c-k, c) where each slice is a basis of {d : M d = 0}.
    """
    N, k, c = mats.shape
    free = [j for j in range(c) if j not in set(pattern)]
    out = np.zeros((N, len(free), c), dtype=mats.dtype)
    for t, f in enumerate(free):
        out[:, t, f] = 1
        for i, p in enumerate(pattern):
            out[:, t, p] = kit.NEG[mats[:, i, f]]
    return out


# ---------------------------------------------------------------------------
# Canonical enumeration of subspaces, in blocks
# ---------------------------------------------------------------------------

def pattern_block(q: int, ncols: int, k: int, pattern: tuple[int, ...],
                  start: int, stop: int) -> np.ndarray:
    """RREF matrices number start..stop-1 for one pivot pattern.

    Free slots are filled with the base-q digits of the block index, most
    significant digit in the first (row-major) free slot; this matches the
    order of pg.all_subspaces exactly.
    """
    free = free_positions(pattern, ncols)
    nf = len(free)
    count = stop - start
    A = np.zeros((count, k, ncols), dtype=np.uint8)
    for i, p in enumerate(pattern):
        A[:, i, p] = 1
    if nf == 0 or count == 0:
        return A
    m = np.arange(start, stop, dtype=np.int64)
    for slot, (i, c) in enumerate(free):
        div = q ** (nf - 1 - slot)
        A[:, i, c] = ((m // div) % q).astype(np.uint8)
    return A


def iter_subspace_blocks(n: int, q: int, projdim: int,
                         block: int = 1 << 15) -> Iterator[tuple[tuple[int, ...], int, np.ndarray]]:
    """Yield (pattern, start, mats) blocks covering every subspace once."""
    k, ncols = projdim + 1, n + 1
    for pattern in pivot_patterns(ncols, k):
        total = q ** len(free_positions(pattern, ncols))
        for start in range(0, total, block):
            stop = min(start + block, total)
            yield pattern, start, pattern_block(q, ncols, k, pattern, start, stop)


def sample_subspaces(kit: Kit, n: int, projdim: int, count: int,
                     seed: int) -> np.ndarray:
    """Deterministic random sample of subspaces as RREF bases (N, k, n+1).

    Draws uniform random matrices and keeps the full-rank ones; the
    distribution over subspaces is uniform enough for consistency sweeps
    (not exact uniformity over the Grassmannian, which sampled checks do
    not require).
    """
    q = kit.q
    k, ncols = projdim + 1, n + 1
    rng = np.random.default_rng(seed)
    out = []
    got = 0
    while got < count:
        raw = rng.integers(0, q, size=(count, k, ncols), dtype=np.uint8)
        red, rk = rref_batch(kit, raw)
        keep = red[rk == k]
        out.append(keep)
        got += len(keep)
    return np.concatenate(out)[:count]
