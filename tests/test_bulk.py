"""Numpy kernels against the scalar reference implementations."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srd3 import bulk
from srd3.gf import FieldError, make_field, parse_field_spec
from srd3.pg import gaussian_binomial, nullspace, rref

from oracles import all_subspaces, combine_vectors, normalize_rows, quotient_codes_eliminate


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)])
def test_rref_batch_matches_scalar(p, h):
    F = make_field(p, h)
    kit = bulk.kit_for(F)
    rng = random.Random(p * 10 + h)
    mats = [[[rng.randrange(F.q) for _ in range(6)] for _ in range(3)] for _ in range(200)]
    arr = np.array(mats, dtype=np.uint8)
    red, ranks = bulk.rref_batch(kit, arr)
    for i, m in enumerate(mats):
        rows, rank = rref(F, m)
        assert ranks[i] == rank
        got = [tuple(int(x) for x in r) for r in red[i]][:rank]
        assert tuple(got) == rows


def test_encode_matches_weighted_sum():
    rng = np.random.default_rng(7)
    vecs = rng.integers(0, 5, size=(4, 9, 18), dtype=np.uint8)
    weights = 5 ** np.arange(17, -1, -1, dtype=np.int64)
    assert np.array_equal(bulk.encode(vecs, 5), vecs.astype(np.int64) @ weights)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_quotient_codes_match_spans(p, h):
    # two points get the same nonzero code iff they span the same subspace
    # with W, and code 0 iff they lie in W
    from srd3.pg import canonicalize, coefficient_vectors
    F = make_field(p, h)
    kit = bulk.kit_for(F)
    pts = np.array(list(coefficient_vectors(F.q, 6)), dtype=np.uint8)
    rng = np.random.default_rng(p * 10 + h)
    for k in (1, 2, 3, 4, 5):
        red, rk = bulk.rref_batch(kit, rng.integers(0, F.q, (3, k, 6), dtype=np.uint8))
        red = red[rk == k]
        codes = bulk.quotient_codes(kit, red, pts)
        for W, row in zip(red, codes):
            rows = tuple(tuple(int(x) for x in r) for r in W)
            span_of = {}
            for v, c in zip(pts, row):
                S = canonicalize(F, rows + (tuple(int(x) for x in v),))
                span_of.setdefault(int(c), set()).add(S.rows if S.k > k else None)
            assert span_of.pop(0, {None}) == {None}
            assert all(len(spans) == 1 and None not in spans for spans in span_of.values())
            assert len(span_of) == (F.q ** (6 - k) - 1) // (F.q - 1)
        # all points cover the quotient (those inside W count for nothing),
        # and one point does not unless the quotient is a single point
        assert bulk.covers_quotient(F.q, 6 - k, codes).all()
        if k < 5:
            assert not bulk.covers_quotient(F.q, 6 - k, codes[:, :1]).any()


@pytest.mark.parametrize("spec", ["2", "3", "4", "7", "8", "9", "2^3/101", "3^2/1,2"])
@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 5), n_in=st.integers(0, 8), n_ver=st.integers(0, 8),
       n_any=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_quotient_codes_match_elimination_oracle(spec, k, n_in, n_ver, n_any, seed):
    # points inside W (code 0, the zero vector among them when the random
    # coefficients vanish), Veronese points, any points, and often none at
    # all, as extension_points passes at d = 1
    from srd3.invariants import tables
    F = parse_field_spec(spec)
    t = tables(F)
    rng = np.random.default_rng(seed)
    red, rk = bulk.rref_batch(t.kit, rng.integers(0, F.q, (6, k, 6), dtype=np.uint8))
    red = red[rk == k]
    inside = combine_vectors(t.kit, rng.integers(0, F.q, (n_in, k), dtype=np.uint8), red[:1])[0] \
        if len(red) else np.empty((0, 6), np.uint8)
    pts = np.concatenate([inside, t.v6[rng.integers(0, len(t.v6), n_ver)],
                          rng.integers(0, F.q, (n_any, 6), dtype=np.uint8)]).astype(np.uint8)
    got = bulk.quotient_codes(t.kit, red, pts)
    want = quotient_codes_eliminate(t.kit, red, pts)
    assert got.shape == want.shape == (len(red), len(pts))
    assert np.array_equal(got, want)
    if len(red):
        assert (got[0, :len(inside)] == 0).all()
    none = pts[:0]
    assert np.array_equal(bulk.quotient_codes(t.kit, red, none),
                          quotient_codes_eliminate(t.kit, red, none))


def test_encode_decode_roundtrip():
    codes = np.arange(3 ** 6)
    vecs = bulk.decode(codes, 3, 6)
    assert (bulk.encode(vecs, 3) == codes).all()


@pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3, 4, 5) for k in (1, 2, 3, 4, 5)])
def test_subspace_ids_round_trip(q, k):
    # ids 0..N-1 decode to oracles.all_subspaces in its order, and back
    n = gaussian_binomial(6, k, q)
    scalar = np.fromiter((x for W in all_subspaces(5, q, k - 1, budget=10 ** 7)
                          for row in W.rows for x in row),
                         dtype=np.uint8, count=n * k * 6).reshape(n, k, 6)
    bases = bulk.subspace_bases(q, k, np.arange(n))
    assert np.array_equal(bases, scalar)
    assert np.array_equal(bulk.subspace_ids(q, bases), np.arange(n))


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (4, 3), (5, 4)])
def test_id_chunks_cover_every_id_once(q, k):
    chunks = bulk.id_chunks(q, k, 997)
    assert chunks[0][0] == 0 and chunks[-1][1] == gaussian_binomial(6, k, q)
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    for lo, hi in chunks:
        piv = np.argmax(bulk.subspace_bases(q, k, np.array([lo, hi - 1])) != 0, axis=2)
        assert 0 < hi - lo <= 997 and (piv[0] == piv[1]).all()


def test_id_range_stated_once():
    # k = 3 is the largest Grassmannian of F^6; q = 128 is the next prime power
    assert gaussian_binomial(6, 3, bulk.MAX_ID_Q) < 2 ** 63 <= gaussian_binomial(6, 3, 128)
    with pytest.raises(FieldError):
        bulk.id_chunks(128, 3, 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["7", "13", "16", "2^3/101"]), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_subspace_ids_round_trip_random(spec, k, seed):
    F = parse_field_spec(spec)
    kit = bulk.kit_for(F)
    raw = np.random.default_rng(seed).integers(0, F.q, (50, k, 6), dtype=np.uint8)
    red, rk = bulk.rref_batch(kit, raw)
    red = red[rk == k]
    ids = bulk.subspace_ids(F.q, red)
    assert ((0 <= ids) & (ids < gaussian_binomial(6, k, F.q))).all()
    assert np.array_equal(bulk.subspace_bases(F.q, k, ids), red)


def test_combine_matches_scalar():
    F = make_field(2, 2)
    kit = bulk.kit_for(F)
    coeffs = np.array([[1, 2], [0, 1], [1, 0]], dtype=np.uint8)
    bases = np.array([[[1, 0, 3], [0, 1, 2]]], dtype=np.uint8)
    out = bulk.decode(bulk.combine(kit, coeffs, bases), F.q, 3)
    for ci, c in enumerate(coeffs):
        for j in range(3):
            want = F.add(F.mul(int(c[0]), int(bases[0, 0, j])),
                         F.mul(int(c[1]), int(bases[0, 1, j])))
            assert out[0, ci, j] == want


# XOR path (p = 2) and digit-matmul path (odd p); between them the odd
# fields reach the uint8, uint16 and uint32 accumulators, and 251 and 256
# the int64 codes
KERNEL_FIELDS = ["2", "4", "8", "16", "2^3/101", "256",
                 "3", "5", "7", "9", "3^2/1,2", "11", "13", "49", "251"]


@pytest.mark.parametrize("spec", KERNEL_FIELDS)
@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 6), c=st.integers(1, 6),
       kind=st.sampled_from(["combine", "transform", "batched"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_combine_matches_gather_oracle(spec, k, c, kind, seed):
    F = parse_field_spec(spec)
    kit = bulk.kit_for(F)
    rng = np.random.default_rng(seed)
    shapes = {"combine": ((9, k), (7, k, c)),     # coefficients x bases
              "transform": ((7, k, 6), (6, 6)),   # bases x lift
              "batched": ((3, 1, 4, k), (5, k, c))}[kind]
    A, B = (rng.integers(0, F.q, s).astype(np.uint8) for s in shapes)
    got = bulk.combine(kit, A, B)
    cols = B.shape[-1]
    assert got.dtype == (np.int32 if F.q ** cols < 2 ** 31 else np.int64)
    want = bulk.encode(combine_vectors(kit, A, B), F.q)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_nullspace_fixed_matches_scalar():
    # nullspace_batch, on planes of every pivot pattern in one batch
    F = make_field(3, 1)
    kit = bulk.kit_for(F)
    arr = bulk.subspace_bases(3, 3, np.array([lo for lo, _ in bulk.id_chunks(3, 3, 97)]))
    assert len({tuple(np.argmax(m != 0, axis=1)) for m in arr}) == 20
    ns = bulk.nullspace_batch(kit, arr)
    for i in range(len(arr)):
        rows = tuple(tuple(int(x) for x in r) for r in arr[i])
        want = set(nullspace(F, rows))
        got_rows = tuple(tuple(int(x) for x in r) for r in ns[i])
        # same span: reduce both
        assert rref(F, got_rows)[0] == rref(F, tuple(sorted(want)))[0]


def test_normalize_rows():
    F = make_field(5, 1)
    kit = bulk.kit_for(F)
    vecs = np.array([[0, 2, 1], [3, 1, 4]], dtype=np.uint8)
    out = normalize_rows(kit, vecs)
    assert list(out[0]) == [0, 1, 3]
    assert out[1][0] == 1


def test_transform_matches_scalar_action():
    from srd3.veronese import apply_lift_point, lift
    F = make_field(3, 1)
    kit = bulk.kit_for(F)
    A = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    L = np.array(lift(F, A), dtype=np.uint8)
    pts = np.array([[1, 0, 0, 1, 0, 1], [0, 1, 0, 0, 0, 0]], dtype=np.uint8)
    out = bulk.transform(kit, pts[:, None, :], L)[:, 0, :]
    for i, y in enumerate(pts):
        want = apply_lift_point(F, lift(F, A), tuple(int(x) for x in y))
        got = normalize_rows(kit, out[i:i + 1])[0]
        assert tuple(int(x) for x in got) == want


def test_sample_subspaces_deterministic():
    F = make_field(2, 2)
    kit = bulk.kit_for(F)
    a = bulk.sample_subspaces(kit, 5, 2, 100, seed=7)
    b = bulk.sample_subspaces(kit, 5, 2, 100, seed=7)
    assert (a == b).all()
    _, rk = bulk.rref_batch(kit, a)
    assert (rk == 3).all()
