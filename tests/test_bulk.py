"""Numpy kernels against the scalar reference implementations."""

from __future__ import annotations

import random

import numpy as np
import pytest

from srd3 import bulk
from srd3.gf import make_field
from srd3.pg import all_subspaces, gaussian_binomial, nullspace, rref

from oracles import normalize_rows


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
        assert bulk.covers_quotient(kit, red, pts).all()
        if k < 5:
            assert not bulk.covers_quotient(kit, red, pts[:1]).any()


def test_encode_decode_roundtrip():
    codes = np.arange(3 ** 6)
    vecs = bulk.decode(codes, 3, 6)
    assert (bulk.encode(vecs, 3) == codes).all()


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (4, 3), (5, 4)])
def test_iter_subspace_blocks_covers_everything(q, k):
    seen = set()
    for pattern, start, block in bulk.iter_subspace_blocks(5, q, k - 1, block=997):
        for row in block:
            seen.add(row.tobytes())
    assert len(seen) == gaussian_binomial(6, k, q)
    scalar = {np.array(W.rows, dtype=np.uint8).tobytes()
              for W in all_subspaces(5, q, k - 1, budget=10 ** 7)}
    assert seen == scalar


def test_combine_matches_scalar():
    F = make_field(2, 2)
    kit = bulk.kit_for(F)
    coeffs = np.array([[1, 2], [0, 1], [1, 0]], dtype=np.uint8)
    bases = np.array([[[1, 0, 3], [0, 1, 2]]], dtype=np.uint8)
    out = bulk.combine(kit, coeffs, bases)
    for ci, c in enumerate(coeffs):
        for j in range(3):
            want = F.add(F.mul(int(c[0]), int(bases[0, 0, j])),
                         F.mul(int(c[1]), int(bases[0, 1, j])))
            assert out[0, ci, j] == want


def test_nullspace_fixed_matches_scalar():
    F = make_field(3, 1)
    kit = bulk.kit_for(F)
    pattern = (0, 2, 3)
    blocks = list(bulk.iter_subspace_blocks(5, 3, 2, block=10 ** 6))
    arr = next(b for pat, _, b in blocks if pat == pattern)
    ns = bulk.nullspace_fixed(kit, arr[:50], pattern)
    for i in range(50):
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
