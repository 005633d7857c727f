"""Linear algebra over GF(q) and projective-space combinatorics.

Vectors and matrices are plain tuples of int codes; a projective subspace is
held in reduced row-echelon form, which is the unique representative of its
row space and therefore doubles as hash key during orbit searches.

The routines here are the scalar reference implementations.  The numpy
batch kernels in :mod:`srd3.bulk` mirror them and are cross-checked against
them in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from srd3.gf import FieldCtx


class BudgetExceeded(RuntimeError):
    """An enumeration would emit more objects than the configured budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration needs {needed} objects, budget is {budget}")
        self.needed = needed
        self.budget = budget


def normalize_vec(F: FieldCtx, v: Iterable[int]) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1.  Idempotent."""
    v = tuple(v)
    for c in v:
        if c:
            if c == 1:
                return v
            inv = F.inv(c)
            return tuple(F.mul(inv, x) for x in v)
    raise ValueError("cannot normalize the zero vector")


def rref(F: FieldCtx, rows: Iterable[Iterable[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Reduced row-echelon form over F. Returns (nonzero rows, rank)."""
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


def matrix_rank(F: FieldCtx, M: Iterable[Iterable[int]]) -> int:
    return rref(F, M)[1]


@dataclass(frozen=True)
class Subspace:
    """A projective subspace of PG(n,q) as its canonical RREF basis.

    rows are the k basis vectors (full rank); projective dimension is k-1.
    Equality and hashing go through the canonical rows, so two Subspace
    objects are equal iff they are the same subspace of the same field.
    """
    F: FieldCtx
    rows: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def projdim(self) -> int:
        return len(self.rows) - 1

    @property
    def ambient(self) -> int:
        return len(self.rows[0]) - 1

    def contains_point(self, v: Iterable[int]) -> bool:
        stacked = self.rows + (tuple(v),)
        return rref(self.F, stacked)[1] == self.k

    def contains(self, other: "Subspace") -> bool:
        stacked = self.rows + other.rows
        return rref(self.F, stacked)[1] == self.k

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.F is other.F
                and self.rows == other.rows)

    def __hash__(self):
        return hash((id(self.F), self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.projdim}, rows={self.rows})"


def canonicalize(F: FieldCtx, generators: Iterable[Iterable[int]]) -> Subspace:
    """RREF basis of the span of the generators."""
    rows, rank = rref(F, generators)
    if rank == 0:
        raise ValueError("all generators are zero")
    return Subspace(F, rows)


def coefficient_vectors(q: int, k: int) -> Iterator[tuple[int, ...]]:
    """Normalized coefficient vectors of F_q^k in lexicographic order.

    Exactly one representative per projective point: the first nonzero
    entry is 1.
    """
    for m in range(1, q ** k):
        digits = []
        mm = m
        for i in range(k - 1, -1, -1):
            digits.append((mm // q ** i) % q)
            mm %= q ** i
        lead = next(d for d in digits if d)
        if lead == 1:
            yield tuple(digits)


def subspace_points(W: Subspace) -> Iterator[tuple[int, ...]]:
    """All (q^k - 1)/(q - 1) points of W, each normalized, in the
    lexicographic order of their coefficient vectors."""
    F = W.F
    for coeffs in coefficient_vectors(F.q, W.k):
        v = [0] * (W.ambient + 1)
        for c, row in zip(coeffs, W.rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = F.add(v[j], F.mul(c, x))
        yield normalize_vec(F, v)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of (k-1)-dimensional projective subspaces of PG(n-1,q)."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def pivot_patterns(ncols: int, k: int) -> Iterator[tuple[int, ...]]:
    yield from combinations(range(ncols), k)


def free_positions(pattern: tuple[int, ...], ncols: int) -> list[tuple[int, int]]:
    """Row-major list of free (row, col) slots of an RREF pattern."""
    pset = set(pattern)
    out = []
    for i, p in enumerate(pattern):
        for c in range(p + 1, ncols):
            if c not in pset:
                out.append((i, c))
    return out


def all_subspaces(n: int, q: int, projdim: int, budget: int = 10 ** 7,
                  F: FieldCtx | None = None) -> Iterator[Subspace]:
    """Every projective subspace of PG(n,q) of the given dimension, once.

    Enumerates RREF canonical forms by pivot-column pattern; the count is
    gaussian_binomial(n+1, projdim+1, q).  Raises BudgetExceeded up front
    (with the exact count needed) if the stream would be too long.
    """
    from srd3.gf import make_field
    if F is None:
        F = make_field(*_prime_power(q))
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


def _prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    h = 0
    while q > 1:
        if q % p:
            raise ValueError(f"{q} is not a prime power")
        q //= p
        h += 1
    return p, h


def incident(F: FieldCtx, point: Iterable[int], dual: Iterable[int]) -> bool:
    s = 0
    for y, d in zip(point, dual):
        if y and d:
            s = F.add(s, F.mul(y, d))
    return s == 0


def nullspace(F: FieldCtx, rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Basis (RREF) of {d : M d = 0} for the row matrix M."""
    red, rank = rref(F, rows)
    if not red:
        raise ValueError("empty matrix")
    ncols = len(red[0])
    pivots = []
    for row in red:
        pivots.append(next(j for j, x in enumerate(row) if x))
    pset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pset:
            continue
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = F.neg(red[i][f])
        basis.append(tuple(v))
    if not basis:
        return ()
    return rref(F, basis)[0]


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
