"""Field construction and arithmetic."""

from __future__ import annotations

import random

import pytest

from srd3.gf import (DENSE_MAX_Q, FieldError, cubic_extension, default_modulus, is_square,
                     make_field, parse_field_spec, poly_is_irreducible, trace2)
from srd3.pg import rref

from oracles import rref_calls


def brute_irreducible(coeffs, p):
    """Degree <= 3 check by root search, degree 4+ by trial division."""
    h = len(coeffs) - 1

    def ev(f, x):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        return acc

    if any(ev(coeffs, x) == 0 for x in range(p)):
        return False
    if h <= 3:
        return True
    # divide by monic irreducible quadratics (h <= 6 needs degree <= 3 factors,
    # and a cubic factor implies a cubic cofactor for h=6, caught via quadratics
    # plus the root test except for h=6; good enough for the fields under test)
    for b in range(p):
        for c in range(p):
            g = (c, b, 1)
            if any(ev(g, x) == 0 for x in range(p)):
                continue
            # polynomial division remainder check
            f = list(coeffs)
            while len(f) - 1 >= 2:
                lead = f[-1]
                if lead:
                    shift = len(f) - 1 - 2
                    for i, gc in enumerate(g):
                        f[shift + i] = (f[shift + i] - lead * gc) % p
                f.pop()
            if not any(f):
                return False
    return True


def test_default_modulus_gf4():
    # unique irreducible quadratic over GF(2): x^2 + x + 1
    assert default_modulus(2, 2) == (1, 1)


def test_default_modulus_gf8_beats_alternative():
    # exhaustive search oracle: among x^3+x+1 and x^3+x^2+1 the rule picks x^3+x+1
    cands = [tuple((m // 2 ** i) % 2 for i in range(3)) for m in range(8)]
    irr = [c for c in cands if brute_irreducible(c + (1,), 2)]
    assert set(irr) == {(1, 1, 0), (1, 0, 1)}
    assert default_modulus(2, 3) == (1, 1, 0)  # 1 + x: lower value sum(c_i 2^i)


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)])
def test_default_modulus_is_irreducible(p, h):
    m = default_modulus(p, h)
    assert poly_is_irreducible(m + (1,), p)
    assert brute_irreducible(m + (1,), p)


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (3, 2), (2, 4), (7, 2)])
def test_default_modulus_cache_matches_search(p, h):
    assert default_modulus(p, h) == default_modulus.__wrapped__(p, h)


@pytest.mark.parametrize("spec", ["2", "3", "4", "2^3/101"])
def test_cubic_extension_is_built_once_per_field(spec):
    F = parse_field_spec(spec)
    assert cubic_extension(F) is cubic_extension(F)
    assert cubic_extension(F).base is F


def test_make_field_errors():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(2, 0)
    with pytest.raises(FieldError):
        make_field(2, 13)
    with pytest.raises(FieldError):
        make_field(13, 4)  # 28561 over the ceiling
    with pytest.raises(FieldError):
        make_field(3, 8)   # 6561 over the ceiling


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, h):
    F = make_field(p, h)
    q = F.q
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)


@pytest.mark.parametrize("p,h", [(5, 2), (3, 4), (7, 2)])
def test_field_axioms_random(p, h):
    F = make_field(p, h)
    rng = random.Random(17)
    for _ in range(300):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_is_square_small():
    F3 = make_field(3, 1)
    assert not is_square(F3, 2)
    assert is_square(F3, 0) and is_square(F3, 1)
    F5 = make_field(5, 1)
    assert is_square(F5, 4)
    F7 = make_field(7, 1)
    squares = {F7.mul(a, a) for a in F7.elements()}
    assert is_square(F7, 2) == (2 in squares)
    for a in F7.elements():
        assert is_square(F7, a) == (a in squares)


@pytest.mark.parametrize("q", [(3, 1), (5, 1), (3, 2), (7, 1), (5, 2)])
def test_square_count(q):
    F = make_field(*q)
    n = sum(1 for a in F.elements() if is_square(F, a))
    assert n == (F.q + 1) // 2


def test_is_square_matches_euler_criterion():
    F = make_field(3, 2)
    for a in F.nonzero():
        assert is_square(F, a) == (F.pow(a, (F.q - 1) // 2) == 1)


def test_is_square_rejects_even_q():
    with pytest.raises(FieldError):
        is_square(make_field(2, 2), 1)


def test_trace2():
    F4 = make_field(2, 2)
    assert trace2(F4, 1) == 0
    omega = 2  # the residue class of x
    assert trace2(F4, omega) == 1  # omega + omega^2 with modulus x^2+x+1
    F8 = make_field(2, 3)
    assert trace2(F8, 1) == 1
    for q, h in ((4, 2), (8, 3), (16, 4)):
        F = make_field(2, h)
        assert sum(1 for a in F.elements() if trace2(F, a) == 0) == q // 2
    with pytest.raises(FieldError):
        trace2(make_field(3, 1), 1)


def test_cubic_extension_f2():
    ext = cubic_extension(make_field(2, 1))
    assert ext.ext.q == 8
    # Frobenius x -> x^2 has order 3
    f = ext.frob_table
    assert any(f[x] != x for x in range(8))
    assert all(f[f[f[x]]] == x for x in range(8))


def test_cubic_extension_f3():
    F = make_field(3, 1)
    ext = cubic_extension(F)
    two = ext.embed_table[2]
    assert ext.ext.add(two, 1) == 0


def test_cubic_extension_f4_fixed_field():
    F = make_field(2, 2)
    ext = cubic_extension(F)
    E = ext.ext
    assert E.q == 64
    fixed = {x for x in E.elements() if ext.frob_table[x] == x}
    assert fixed == set(ext.embed_table)
    assert len(fixed) == 4
    # embedding is a ring homomorphism
    emb = ext.embed_table
    for a in F.elements():
        for b in F.elements():
            assert emb[F.add(a, b)] == E.add(emb[a], emb[b])
            assert emb[F.mul(a, b)] == E.mul(emb[a], emb[b])


def test_parse_field_spec():
    assert parse_field_spec("4").q == 4
    assert parse_field_spec("3^1").q == 3
    F = parse_field_spec("2^3/011")
    assert F.q == 8 and F.modulus == (1, 1, 0)
    F2 = parse_field_spec("2^3/0,1,1")
    assert F2 is F
    with pytest.raises(FieldError):
        parse_field_spec("12")
    with pytest.raises(FieldError):
        parse_field_spec("2^3/01")


def test_field_identity_cached():
    assert make_field(2, 2) is make_field(2, 2)
    assert parse_field_spec("4") is make_field(2, 2)


@pytest.mark.parametrize("spec", ["2^8", "3^5", "2^9", "3^6"])
def test_scalar_tables_dense_only_up_to_256(spec):
    # q x q lists up to DENSE_MAX_Q; above it a row is made when first read,
    # and rref over such a field (a code's field above the point tables)
    # still matches the method calls
    F = parse_field_spec(spec)
    T = F.scalar_tables
    if F.q <= DENSE_MAX_Q:
        assert isinstance(T.mul, list) and len(T.mul) == F.q
        assert all(len(row) == F.q for row in T.add)
    else:
        assert len(T.mul) == len(T.add) == 0
    rng = random.Random(F.q)
    rows = [[rng.randrange(F.q) for _ in range(6)] for _ in range(3)]
    rows.append([F.add(x, y) for x, y in zip(rows[0], rows[1])])
    assert rref(F, rows) == rref_calls(F, rows)
    if F.q > DENSE_MAX_Q:
        assert 0 < len(T.mul) <= 12
    for a in (0, 1, F.q - 1):
        assert T.mul[a] == [F.mul(a, b) for b in range(F.q)]
        assert T.add[a] == [F.add(a, b) for b in range(F.q)]
    assert T.neg == [F.neg(a) for a in range(F.q)]
    assert T.inv[1:] == [F.inv(a) for a in range(1, F.q)]
