"""Linear algebra over GF(q) and projective-space combinatorics.

Vectors and matrices are plain tuples of int codes; a projective subspace is
held in reduced row-echelon form, which is the unique representative of its
row space and therefore doubles as hash key during orbit searches.

The routines here are the scalar reference implementations.  The numpy
batch kernels in :mod:`srd3.bulk` mirror them and are cross-checked against
them in the test suite.  rref, dual_basis and normalize_vec look each entry
up in the field's list tables (FieldCtx.scalar_tables) instead of calling a
field method per entry.
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
            T = F.scalar_tables
            m = T.mul[T.inv[c]]
            return tuple([m[x] for x in v])
    raise ValueError("cannot normalize the zero vector")


def rref(F: FieldCtx, rows: Iterable[Iterable[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Reduced row-echelon form over F. Returns (nonzero rows, rank)."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), 0
    add, mul, neg, inv = F.scalar_tables
    n, ncols = len(mat), len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, n) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        row = mat[r]
        if row[c] != 1:
            m = mul[inv[row[c]]]
            row = mat[r] = [m[x] for x in row]
        for i in range(n):
            f = mat[i][c]
            if f and i != r:
                # row i - f * row r, as row i + (-f) * row r
                m = mul[neg[f]]
                mat[i] = [add[x][m[y]] for x, y in zip(mat[i], row)]
        r += 1
        if r == n:
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


def incident(F: FieldCtx, point: Iterable[int], dual: Iterable[int]) -> bool:
    s = 0
    for y, d in zip(point, dual):
        if y and d:
            s = F.add(s, F.mul(y, d))
    return s == 0


def dual_basis(W: Subspace) -> tuple[tuple[int, ...], ...]:
    """A basis of {d : w . d = 0 for every w in W}, read off W's RREF rows
    without elimination: for each free column f, the vector with 1 at f,
    -row[f] at each row's pivot and 0 elsewhere.  Not itself reduced."""
    rows, neg = W.rows, W.F.scalar_tables.neg
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    basis = []
    for f in range(len(rows[0])):
        if f in pivots:
            continue
        v = [0] * len(rows[0])
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = neg[row[f]]
        basis.append(tuple(v))
    return tuple(basis)


def nullspace(F: FieldCtx, rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Basis (RREF) of {d : M d = 0} for the row matrix M."""
    red, rank = rref(F, rows)
    if not red:
        raise ValueError("empty matrix")
    basis = dual_basis(Subspace(F, red))
    if not basis:
        return ()
    return rref(F, basis)[0]
