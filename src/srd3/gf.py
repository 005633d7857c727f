"""Exact arithmetic in GF(p^h) for small prime powers.

Elements are represented as integers in [0, p^h): the base-p digits of the
integer are the coefficients of the residue polynomial, constant term in the
least significant digit.  For p = 2 this is the usual bit encoding and
addition is XOR.

Each field carries exp/log tables for O(1) multiplication and, lazily, dense
q x q addition/multiplication grids used by the vectorised numpy kernels.
The workloads in this package are enumeration-heavy (millions of point-rank
computations per run), which is why everything is table-driven.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import random

import numpy as np

ORDER_CEILING = 4096


class FieldError(ValueError):
    """Invalid field construction or an operation the field does not support."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are tuples of coefficients,
# constant term first, with no trailing zeros (deg f = len(f) - 1).
# ---------------------------------------------------------------------------

def _ptrim(f: tuple[int, ...]) -> tuple[int, ...]:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _pmul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(tuple(out))


def _pmod(f, m, p):
    # m monic
    f = list(f)
    dm = len(m) - 1
    while len(f) - 1 >= dm and f:
        lead = f[-1]
        if lead:
            shift = len(f) - 1 - dm
            for i, c in enumerate(m):
                f[shift + i] = (f[shift + i] - lead * c) % p
        f.pop()
    return _ptrim(tuple(f))


def _ppowmod(f, e, m, p):
    result = (1,)
    base = _pmod(f, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_gcd(f, g, p):
    f, g = _ptrim(f), _ptrim(g)
    while g:
        # make g monic before reducing
        inv = pow(g[-1], -1, p)
        g = tuple((c * inv) % p for c in g)
        f, g = g, _pmod(f, g, p)
    return f


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p).

    `coeffs` is the full coefficient tuple, constant term first, leading
    coefficient 1.  Uses the x^(p^h) = x criterion with gcd checks at the
    maximal proper sub-exponents.
    """
    f = _ptrim(coeffs)
    h = len(f) - 1
    if h < 1 or f[-1] != 1:
        return False
    if h == 1:
        return True
    x = (0, 1)
    # x^(p^h) == x (mod f)
    if _ppowmod(x, p ** h, f, p) != x:
        return False
    for r in _prime_factors(h):
        t = _ppowmod(x, p ** (h // r), f, p)
        # gcd(x^(p^(h/r)) - x, f) must be 1
        diff = list(t) + [0] * (2 - len(t))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(tuple(diff), f, p)) != 1:
            return False
    return True


def default_modulus(p: int, h: int) -> tuple[int, ...]:
    """The canonical monic irreducible of degree h over GF(p).

    Among all irreducibles x^h + c_{h-1}x^{h-1} + ... + c_0, picks the one
    whose tuple (c_0, ..., c_{h-1}) has minimal value sum(c_i * p^i).
    Deterministic across runs.
    """
    for m in range(p ** h):
        low = tuple((m // p ** i) % p for i in range(h))
        poly = low + (1,)
        if poly_is_irreducible(poly, p):
            return low
    raise FieldError(f"no irreducible polynomial of degree {h} over GF({p})")


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """A concrete finite field GF(p^h) with a chosen irreducible modulus.

    Immutable after construction; safe to share across workers.  Do not call
    directly -- use :func:`make_field` so contexts are cached and element
    ownership checks can rely on object identity.
    """

    def __init__(self, p: int, h: int, modulus: tuple[int, ...]):
        self.p = p
        self.h = h
        self.q = p ** h
        self.modulus = modulus  # low h coefficients; () when h == 1
        if h > 1:
            if len(modulus) != h or not poly_is_irreducible(modulus + (1,), p):
                raise FieldError(
                    f"modulus {modulus} is not irreducible of degree {h} over GF({p})")
        q = self.q
        self._exp, self._log = self._build_exp_log()
        self.generator = self._exp[1] if q > 2 else 1
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = self._exp[(q - 1 - self._log[a]) % (q - 1)]
        self._neg = [self._neg_raw(a) for a in range(q)]
        # spot check on the multiplicative group order
        rng = random.Random(q)
        a = rng.randrange(1, q)
        if self.pow(a, q - 1) != 1:
            raise FieldError("multiplicative group order check failed")
        self._np_cache: dict[str, np.ndarray] = {}

    # -- construction internals ------------------------------------------

    def _digits(self, a: int) -> tuple[int, ...]:
        return tuple((a // self.p ** i) % self.p for i in range(self.h))

    def _undigits(self, ds) -> int:
        return sum(int(d) % self.p * self.p ** i for i, d in enumerate(ds))

    def _mul_raw(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a * b) % self.p
        f = _pmul(self._digits(a), self._digits(b), self.p)
        f = _pmod(f, self.modulus + (1,), self.p)
        return self._undigits(f + (0,) * (self.h - len(f)))

    def _neg_raw(self, a: int) -> int:
        return self._undigits(tuple((-d) % self.p for d in self._digits(a)))

    def _build_exp_log(self):
        q = self.q
        if q == 2:
            return [1], [0, 0]
        factors = _prime_factors(q - 1)
        for g in range(2, q):
            if all(self._pow_raw(g, (q - 1) // r) != 1 for r in factors):
                break
        else:
            raise FieldError("no primitive element found")
        exp = [1] * (q - 1)
        log = [0] * q
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, g)
        return exp, log

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    # -- scalar arithmetic on int codes ----------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.h == 1:
            return (a + b) % self.p
        p = self.p
        s, mult = 0, 1
        for _ in range(self.h):
            s += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return s

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    # -- numpy table access (lazy) ----------------------------------------

    def np_table(self, kind: str) -> np.ndarray:
        """Dense lookup tables for vectorised kernels.

        kind: 'add' and 'mul' are q x q grids; 'neg' and 'inv' are length-q
        vectors (inv[0] is 0 as a sentinel, never valid input).  'log' and
        'exp' multiply without a q x q grid: exp[log[a] + log[b]] = a*b for
        all a, b, because log[0] = 2(q-1) lies beyond every sum of two
        nonzero logs and exp is 0 from there on.
        """
        t = self._np_cache.get(kind)
        if t is not None:
            return t
        q = self.q
        dt = np.uint8 if q <= 255 else np.uint16
        if kind == 'mul':
            log = np.array(self._log, dtype=np.int64)
            exp = np.array(self._exp, dtype=np.int64)
            s = (log[1:, None] + log[None, 1:]) % (q - 1)
            t = np.zeros((q, q), dtype=dt)
            t[1:, 1:] = exp[s].astype(dt)
        elif kind == 'add':
            # digit by digit in uint16, where every intermediate (below 2q)
            # fits, so no int64 grid is built
            idx = np.arange(q, dtype=np.uint16)
            acc = np.zeros((q, q), dtype=np.uint16)
            a, b, mult = idx.copy(), idx.copy(), 1
            for _ in range(self.h):
                acc += ((a[:, None] + b[None, :]) % self.p) * mult
                a //= self.p
                b //= self.p
                mult *= self.p
            t = acc.astype(dt, copy=False)
        elif kind == 'log':
            t = np.array(self._log, dtype=np.int64)
            t[0] = 2 * (q - 1)
        elif kind == 'exp':
            t = np.zeros(4 * (q - 1) + 1, dtype=dt)
            t[:2 * (q - 1)] = np.tile(np.array(self._exp, dtype=dt), 2)
        elif kind == 'neg':
            t = np.array(self._neg, dtype=dt)
        elif kind == 'inv':
            t = np.array(self._inv, dtype=dt)
        else:
            raise ValueError(f"unknown table kind {kind!r}")
        self._np_cache[kind] = t
        return t

    # -- misc --------------------------------------------------------------

    @property
    def spec(self) -> str:
        """Parseable field spec string ("p^h", plus modulus if non-default)."""
        base = f"{self.p}^{self.h}"
        if self.h > 1 and self.modulus != default_modulus(self.p, self.h):
            digits = ",".join(str(c) for c in reversed(self.modulus))
            return f"{base}/{digits}"
        return base

    def __repr__(self):
        return f"GF({self.q})" if self.h == 1 else f"GF({self.p}^{self.h})"

    def __reduce__(self):
        # pickling rebuilds through the cache so identity is preserved
        return (_rebuild_field, (self.p, self.h, self.modulus))


@lru_cache(maxsize=None)
def _field_cached(p: int, h: int, modulus: tuple[int, ...]) -> FieldCtx:
    return FieldCtx(p, h, modulus)


def _rebuild_field(p, h, modulus):
    return _field_cached(p, h, modulus)


def make_field(p: int, h: int, modulus: tuple[int, ...] | None = None) -> FieldCtx:
    """Construct (or fetch from cache) GF(p^h) with the default modulus.

    The default modulus is the lexicographically minimal irreducible in the
    sense of :func:`default_modulus`; pass `modulus` (low h coefficients) to
    override.
    """
    if not is_prime(p):
        raise FieldError(f"p={p} is not prime")
    if not 1 <= h <= 12:
        # base fields use h <= 6; up to 12 admits the cubic extension of
        # any constructible base (e.g. GF(8) -> GF(2^9))
        raise FieldError(f"h={h} out of range [1, 12]")
    if p ** h > ORDER_CEILING:
        raise FieldError(f"field order {p**h} exceeds ceiling {ORDER_CEILING}")
    if h == 1:
        return _field_cached(p, 1, ())
    if modulus is None:
        modulus = default_modulus(p, h)
    return _field_cached(p, h, tuple(c % p for c in modulus))


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse "q", "p^h" or "p^h/c_{h-1}...c_0" into a field.

    A bare integer is factored as a prime power.  Explicit modulus
    coefficients are given high to low, either as one digit string
    ("2^3/011") or comma separated ("2^3/0,1,1").  A spec whose numbers are
    not integers raises FieldError.
    """
    def number(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise FieldError(f"bad field spec {spec!r}: {text!r} is not an integer") from None

    base = spec.strip()
    mod_part = None
    if "/" in base:
        base, mod_part = base.split("/", 1)
    if "^" in base:
        ps, hs = base.split("^", 1)
        p, h = number(ps), number(hs)
    else:
        n = number(base)
        if n < 2:
            raise FieldError(f"bad field order {n}")
        p = min(_prime_factors(n))
        h = 0
        while n % p == 0 and n > 1:
            n //= p
            h += 1
        if n != 1:
            raise FieldError(f"{base} is not a prime power")
    modulus = None
    if mod_part is not None:
        hi_to_lo = [number(c) for c in (mod_part.split(",") if "," in mod_part else mod_part)]
        if len(hi_to_lo) != h:
            raise FieldError(f"modulus needs {h} coefficients, got {len(hi_to_lo)}")
        modulus = tuple(reversed(hi_to_lo))
    return make_field(p, h, modulus)


# ---------------------------------------------------------------------------
# Square classes, trace, cubic extension
# ---------------------------------------------------------------------------

def is_square(F: FieldCtx, a) -> bool:
    """Whether a is a square in F (0 counts as a square).  q must be odd."""
    if F.p == 2:
        raise FieldError("is_square is only defined for odd q (every element "
                         "is a square in characteristic 2)")
    if a == 0:
        return True
    return F._log[a] % 2 == 0


def trace2(F: FieldCtx, a) -> int:
    """Absolute trace GF(2^h) -> GF(2): a + a^2 + ... + a^(2^(h-1))."""
    if F.p != 2:
        raise FieldError("trace2 requires characteristic 2")
    t, x = 0, a
    for _ in range(F.h):
        t ^= x
        x = F.mul(x, x)
    return t


@dataclass(frozen=True)
class CubicExt:
    """GF(q^3) together with the subfield embedding and relative Frobenius."""
    base: FieldCtx
    ext: FieldCtx
    embed_table: tuple[int, ...]   # base code -> ext code
    frob_table: tuple[int, ...]    # ext code -> ext code, x -> x^q

    def embed(self, a) -> int:
        return self.embed_table[a]

    def frob(self, a) -> int:
        return self.frob_table[a]

    def rel_trace(self, a) -> int:
        """Trace from GF(q^3) down to GF(q), returned as a base-field code."""
        t = self.ext.add(a, self.ext.add(self.frob_table[a],
                                         self.frob_table[self.frob_table[a]]))
        return self.embed_table.index(t)


def cubic_extension(F: FieldCtx) -> CubicExt:
    """Build GF(q^3) over F = GF(q) with embedding and Frobenius x -> x^q."""
    E = make_field(F.p, 3 * F.h)
    if F.h == 1:
        emb = tuple(range(F.p))  # prime subfield sits at the constant digits
    else:
        # image of F's generator-of-representation: a root of F's modulus in E
        full = F.modulus + (1,)
        root = None
        for z in range(E.q):
            acc, zp = 0, 1
            for c in full:
                if c:
                    acc = E.add(acc, E.mul(c % E.p, zp))
                zp = E.mul(zp, z)
            if acc == 0 and z >= E.p:  # exclude prime-field roots (impossible anyway)
                root = z
                break
        if root is None:
            raise FieldError("modulus has no root in the cubic extension")
        emb_list = []
        for a in range(F.q):
            acc, zp = 0, 1
            for d in F._digits(a):
                if d:
                    acc = E.add(acc, E.mul(d, zp))
                zp = E.mul(zp, root)
            emb_list.append(acc)
        emb = tuple(emb_list)
    if len(set(emb)) != F.q:
        raise FieldError("embedding is not injective")
    frob = tuple(E.pow(x, F.q) for x in range(E.q))
    ext = CubicExt(F, E, emb, frob)
    # the fixed field of x -> x^q must be exactly the embedded copy of F
    fixed = {x for x in range(E.q) if frob[x] == x}
    if fixed != set(emb):
        raise FieldError("Frobenius fixed field mismatch")
    return ext
