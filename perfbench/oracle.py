"""Independent oracle for the benchmark's correctness checks.

Nothing here imports srd3.  Field arithmetic, ranks and counts are written
from their definitions, and the paper's closed forms are restated from the
paper, so a workload's outputs are checked against values the benchmark
computes itself rather than against a stored copy of the program's output.

Coordinates follow the paper: a point y = (y0..y5) of PG(5,q) is the
symmetric matrix [[y0,y1,y2],[y1,y3,y4],[y2,y4,y5]].
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# GF(p^h) as polynomials over GF(p) modulo an explicit monic irreducible
# ---------------------------------------------------------------------------

class Field:
    """GF(p^h).  An element's code is sum(d_i * p^i) for the polynomial
    sum(d_i * w^i), which is also how the program encodes elements when it
    is given the same modulus in the field spec."""

    def __init__(self, p: int, h: int = 1, modulus: tuple[int, ...] = ()):
        if h > 1 and len(modulus) != h:
            raise ValueError("modulus needs the h low coefficients")
        self.p, self.h, self.q = p, h, p ** h
        self.modulus = tuple(modulus) if h > 1 else ()
        q = self.q
        self._add = [[self._poly_add(a, b) for b in range(q)] for a in range(q)]
        self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self._neg = [next(b for b in range(q) if self._add[a][b] == 0) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            inv = [b for b in range(1, q) if self._mul[a][b] == 1]
            if len(inv) != 1:
                raise ValueError(f"modulus {modulus} is not irreducible over GF({p})")
            self._inv[a] = inv[0]

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p ** i) % self.p for i in range(self.h)]

    def _undigits(self, ds) -> int:
        return sum((d % self.p) * self.p ** i for i, d in enumerate(ds))

    def _poly_add(self, a: int, b: int) -> int:
        return self._undigits([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def _poly_mul(self, a: int, b: int) -> int:
        p, h = self.p, self.h
        prod = [0] * (2 * h - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        # w^h = -(c_0 + c_1 w + ... + c_{h-1} w^{h-1})
        for top in range(2 * h - 2, h - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for i, m in enumerate(self.modulus):
                    prod[top - h + i] = (prod[top - h + i] - c * m) % p
        return self._undigits(prod[:h])

    @property
    def spec(self) -> str:
        """Field spec with the modulus written out, high to low."""
        if self.h == 1:
            return f"{self.p}^1"
        return f"{self.p}^{self.h}/" + ",".join(str(c) for c in reversed(self.modulus))

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def is_square(self, a) -> bool:
        return any(self._mul[x][x] == a for x in range(self.q))


def field(q: int) -> Field:
    """GF(q) for the benchmark's fields, with the first irreducible modulus
    in the order (c_0, ..., c_{h-1}) ascending."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    h = 0
    n = q
    while n % p == 0:
        n //= p
        h += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    if h == 1:
        return Field(p)
    for mod in itertools.product(range(p), repeat=h):
        if mod[0] == 0:
            continue
        try:
            return Field(p, h, mod)
        except ValueError:
            continue
    raise ValueError(f"no irreducible modulus for GF({q})")


class Ext3:
    """GF(q^3) as F[x] modulo the first monic cubic with no root in F.
    Elements are triples (a0, a1, a2) of F codes for a0 + a1 x + a2 x^2."""

    def __init__(self, F: Field):
        self.F = F
        for c0, c1, c2 in itertools.product(range(F.q), repeat=3):
            if not any(self._cubic(c0, c1, c2, x) == 0 for x in range(F.q)):
                self.mod = (c0, c1, c2)
                break
        self.zero, self.one = (0, 0, 0), (1, 0, 0)

    def _cubic(self, c0, c1, c2, x):
        F = self.F
        x2 = F.mul(x, x)
        return F.add(F.add(F.mul(x2, x), F.mul(c2, x2)), F.add(F.mul(c1, x), c0))

    def elements(self):
        return itertools.product(range(self.F.q), repeat=3)

    def add(self, a, b):
        F = self.F
        return tuple(F.add(x, y) for x, y in zip(a, b))

    def scale(self, c, a):
        return tuple(self.F.mul(c, x) for x in a)

    def mul(self, a, b):
        F = self.F
        prod = [0] * 5
        for i in range(3):
            for j in range(3):
                prod[i + j] = F.add(prod[i + j], F.mul(a[i], b[j]))
        for top in (4, 3):
            c = prod[top]
            if c:
                prod[top] = 0
                for i, m in enumerate(self.mod):
                    prod[top - 3 + i] = F.sub(prod[top - 3 + i], F.mul(c, m))
        return tuple(prod[:3])

    def pow(self, a, e: int):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def trace(self, a) -> int:
        """a + a^q + a^(q^2), an element of F."""
        q = self.F.q
        t = self.add(a, self.add(self.pow(a, q), self.pow(a, q * q)))
        if t[1] or t[2]:
            raise ArithmeticError("trace left the base field")
        return t[0]


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def sym_rank(F: Field, y) -> int:
    """Rank of the symmetric matrix of y, from the determinant and the
    2x2 minors."""
    m, s = F.mul, F.sub
    y0, y1, y2, y3, y4, y5 = y
    rows = ((y0, y1, y2), (y1, y3, y4), (y2, y4, y5))
    det = F.add(s(m(y0, s(m(y3, y5), m(y4, y4))), m(y1, s(m(y1, y5), m(y4, y2)))),
                m(y2, s(m(y1, y4), m(y3, y2))))
    if det:
        return 3
    for r1, r2 in ((0, 1), (0, 2), (1, 2)):
        for c1, c2 in ((0, 1), (0, 2), (1, 2)):
            if s(m(rows[r1][c1], rows[r2][c2]), m(rows[r1][c2], rows[r2][c1])):
                return 2
    return 1 if any(y) else 0


def combination(F: Field, coeffs, vecs):
    out = [0] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] = F.add(out[j], F.mul(c, x))
    return tuple(out)


def rank_of(F: Field, rows) -> int:
    """Rank of a list of vectors by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][col])
        rows[rank] = [F.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def nullspace(F: Field, rows, n: int) -> list[tuple[int, ...]]:
    """A basis of {x in F^n : r . x = 0 for every row r} (brute force, small q)."""
    out: list[tuple[int, ...]] = []
    for x in itertools.product(range(F.q), repeat=n):
        if any(x) and all(dot(F, r, x) == 0 for r in rows):
            if rank_of(F, out + [x]) > len(out):
                out.append(x)
                if len(out) == n - rank_of(F, rows):
                    break
    return out


def dot(F: Field, a, b) -> int:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = F.add(acc, F.mul(x, y))
    return acc


def projective_points(q: int, n: int):
    """Normalised nonzero vectors of F_q^n (first nonzero coordinate 1)."""
    for lead in range(n):
        for tail in itertools.product(range(q), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


# ---------------------------------------------------------------------------
# Codes
# ---------------------------------------------------------------------------

def code_rank_distribution(F: Field, basis) -> tuple[int, int, int, int]:
    """(r0, r1, r2, r3) over all q^dim codewords of the code spanned by the
    given 6-vectors, by enumerating every codeword."""
    counts = [0, 0, 0, 0]
    for coeffs in itertools.product(range(F.q), repeat=len(basis)):
        counts[sym_rank(F, combination(F, coeffs, basis))] += 1
    return tuple(counts)


def min_distance(dist) -> int:
    return next(r for r in (1, 2, 3) if dist[r])


def as_vec(M) -> tuple[int, ...]:
    return (M[0][0], M[0][1], M[0][2], M[1][1], M[1][2], M[2][2])


def as_mat(y) -> list[list[int]]:
    return [[y[0], y[1], y[2]], [y[1], y[3], y[4]], [y[2], y[4], y[5]]]


# ---------------------------------------------------------------------------
# Counting identities and the paper's closed forms
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def pgl3_order(q: int) -> int:
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)


def point_census(q: int) -> dict[str, int]:
    """Point classes of PG(5,q) under the congruence action."""
    s = q * q + q + 1
    if q % 2 == 0:
        return {"P1": s, "P2n": s, "P2s": (q * q - 1) * s, "P3": q ** 5 - q * q}
    return {"P1": s, "P2e": s * q * (q + 1) // 2, "P2i": s * q * (q - 1) // 2,
            "P3": q ** 5 - q * q}


def hyperplane_census(q: int) -> dict[str, int]:
    """Hyperplane classes: double line, real pair, imaginary pair, conic."""
    s = q * q + q + 1
    return {"H1": s, "H2r": s * (q * q + q) // 2, "H2i": (q ** 4 - q) // 2,
            "H3": q ** 5 - q * q}


def solid_signatures(q: int) -> dict[str, tuple[int, int, int, int]]:
    """Point-orbit distributions (r1, r2a, r2b, r3) of the three classes of
    solids without rank-1 points; (a, b) = (n, s) for q even, (e, i) odd."""
    if q % 2 == 0:
        return {"Omega7": (0, q + 1, q * q + q, q ** 3 - q),
                "Omega13": (0, 1, q * q + 3 * q, q ** 3 - 2 * q),
                "Omega14": (0, 1, q * q + q, q ** 3)}
    return {"Omega8_2": (0, q * q + (3 * q + 1) // 2, (q + 1) // 2, q ** 3 - q),
            "Omega14_2": (0, (q * q + 1) // 2 + 2 * q, (q * q + 1) // 2 + q, q ** 3 - 2 * q),
            "Omega15_2": (0, (q * q + 1) // 2 + q, (q * q + 1) // 2, q ** 3)}


def class_counts(q: int) -> dict[str, int]:
    """Equivalence classes of complete codes: distance 2 (all, and those of
    maximal dimension) and distance 3."""
    if q % 2 == 0:
        return {"d2": 6, "d2_msrd": 3, "d3": 1}
    return {"d2": 3, "d2_msrd": 3, "d3": 2}


def extension_rank1_counts(q: int) -> list[int]:
    """Rank-1 points after extending the constant-rank-3 class
    representatives to GF(q^3): 3 for field type, 0 for twisted type."""
    return [3] if q % 2 == 0 else [3, 0]


def dim_bound(d: int) -> int:
    """Largest dimension of a symmetric 3x3 rank-distance code of distance d."""
    return {1: 6, 2: 4, 3: 3}[d]


def constant_rank3_od4(q: int) -> tuple[int, int, int, int]:
    """Every hyperplane through a constant-rank-3 plane meets the surface in
    a conic, and a plane lies on q^2+q+1 hyperplanes."""
    return (0, 0, 0, q * q + q + 1)


# ---------------------------------------------------------------------------
# Brute-force classification (used by the oracle's own tests)
# ---------------------------------------------------------------------------

def veronese(F, u):
    m = F.mul
    u0, u1, u2 = u
    return (m(u0, u0), m(u0, u1), m(u0, u2), m(u1, u1), m(u1, u2), m(u2, u2))


def point_class(F: Field, y) -> str:
    """Class of a point: rank, and for rank 2 the conic it lies on the
    inside or outside of (q odd, by the zero count of the quadratic form
    u M u^T: a real line pair has 2q+1 zeros, an imaginary one 1) or
    whether it lies on the nucleus plane (q even, zero diagonal)."""
    r = sym_rank(F, y)
    if r != 2:
        return {1: "P1", 3: "P3"}[r]
    if F.p == 2:
        return "P2n" if y[0] == y[3] == y[5] == 0 else "P2s"
    zeros = sum(1 for u in projective_points(F.q, 3)
                if dot(F, _quad_coeffs(F, y), veronese(F, u)) == 0)
    return "P2e" if zeros == 2 * F.q + 1 else "P2i"


def _quad_coeffs(F: Field, y):
    two = F.add(1, 1)
    return (y[0], F.mul(two, y[1]), F.mul(two, y[2]), y[3], F.mul(two, y[4]), y[5])


def hyperplane_class(F: Field, a) -> str:
    """Class of the hyperplane a.y = 0 from the zero set of its conic."""
    zeros = [u for u in projective_points(F.q, 3) if dot(F, a, veronese(F, u)) == 0]
    n = len(zeros)
    if n == 1:
        return "H2i"
    if n == 2 * F.q + 1:
        return "H2r"
    if n == F.q + 1:
        return "H1" if rank_of(F, zeros) == 2 else "H3"
    raise ArithmeticError(f"conic with {n} points")


def extension_rank1_count(F: Field, basis) -> int:
    """Rank-1 points of the plane spanned by basis after extending scalars
    to GF(q^3): the points u of PG(2,q^3) whose Veronese image lies on every
    hyperplane through the plane, i.e. the common zeros of its dual net."""
    E = Ext3(F)
    duals = nullspace(F, basis, 6)
    count = 0
    for u in _ext_points(E):
        v = veronese(E, u)
        if all(_ext_dot(E, a, v) == E.zero for a in duals):
            count += 1
    return count


def _ext_points(E: Ext3):
    elems = list(E.elements())
    for b, c in itertools.product(elems, repeat=2):
        yield (E.one, b, c)
    for c in elems:
        yield (E.zero, E.one, c)
    yield (E.zero, E.zero, E.one)


def _ext_dot(E: Ext3, a, v):
    acc = E.zero
    for x, y in zip(a, v):
        if x:
            acc = E.add(acc, E.scale(x, y))
    return acc
