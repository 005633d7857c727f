"""Tests of the benchmark's oracle at q = 2, 3, by brute force.

    python3 -m pytest perfbench/test_oracle.py

These check the oracle's restated closed forms against exhaustive counts
made with the oracle's own arithmetic; none of it imports srd3.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen_codes  # noqa: E402
import oracle  # noqa: E402

QS = (2, 3)


def test_fields_are_fields():
    for q in (2, 3, 4, 5):
        F = oracle.field(q)
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1
            assert F.add(a, F.neg(a)) == 0
        for a, b, c in itertools.product(range(q), repeat=3):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert oracle.field(4).spec == "2^2/1,1"


@pytest.mark.parametrize("q", QS)
def test_cubic_extension_trace_is_onto(q):
    E = oracle.Ext3(oracle.field(q))
    traces = [E.trace(a) for a in E.elements()]
    assert sorted(set(traces)) == list(range(q))
    assert all(traces.count(t) == q * q for t in range(q))


@pytest.mark.parametrize("q", QS)
def test_gaussian_binomial_counts_subspaces(q):
    F = oracle.field(q)
    n = 4
    for k in (1, 2, 3):
        spans = set()
        for gens in itertools.combinations(oracle.projective_points(q, n), k):
            if oracle.rank_of(F, gens) == k:
                spans.add(frozenset(oracle.combination(F, c, gens)
                                    for c in itertools.product(range(q), repeat=k)))
        assert len(spans) == oracle.gaussian_binomial(n, k, q)
    assert oracle.gaussian_binomial(6, 3, 4) == 376805
    assert oracle.gaussian_binomial(6, 4, 5) == 508431


@pytest.mark.parametrize("q", QS)
def test_pgl3_order(q):
    F = oracle.field(q)
    invertible = sum(1 for A in itertools.product(range(q), repeat=9)
                     if oracle.rank_of(F, [A[0:3], A[3:6], A[6:9]]) == 3)
    assert invertible // (q - 1) == oracle.pgl3_order(q)


@pytest.mark.parametrize("q", QS)
def test_census_closed_forms(q):
    F = oracle.field(q)
    points = {}
    hyperplanes = {}
    for y in oracle.projective_points(q, 6):
        c = oracle.point_class(F, y)
        points[c] = points.get(c, 0) + 1
        h = oracle.hyperplane_class(F, y)
        hyperplanes[h] = hyperplanes.get(h, 0) + 1
    assert points == oracle.point_census(q)
    assert hyperplanes == oracle.hyperplane_census(q)


def _solid_groups(q):
    """Rank-1-free solids of PG(5,q), grouped by point-class signature.
    A solid is the common zero set of two hyperplanes; point sets are
    bit masks over the points of PG(5,q)."""
    F = oracle.field(q)
    pts = list(oracle.projective_points(q, 6))
    names = list(oracle.point_census(q))
    cls = [oracle.point_class(F, y) for y in pts]
    cmask = {n: sum(1 << i for i, c in enumerate(cls) if c == n) for n in names}
    on = [sum(1 << i for i, y in enumerate(pts) if oracle.dot(F, a, y) == 0) for a in pts]
    solids = {on[i] & on[j] for i in range(len(pts)) for j in range(i + 1, len(pts))}
    groups: dict[tuple, int] = {}
    for s in solids:
        sig = tuple((s & cmask[n]).bit_count() for n in names)
        if sig[0] == 0:
            groups[sig] = groups.get(sig, 0) + 1
    return len(solids), groups


@pytest.mark.parametrize("q", QS)
def test_solid_signatures_and_groups(q):
    total, groups = _solid_groups(q)
    assert total == oracle.gaussian_binomial(6, 4, q)
    assert sorted(groups) == sorted(oracle.solid_signatures(q).values())
    for size in groups.values():
        assert oracle.pgl3_order(q) % size == 0
    if q % 2:
        # q odd: the complete distance-2 codes are exactly these solids
        assert len(groups) == oracle.class_counts(q)["d2"] == oracle.class_counts(q)["d2_msrd"]


def test_constant_rank3_classes_q3():
    F, reps = gen_codes.representatives(3)
    by_id = {r.rid: r for r in reps}
    counts = [oracle.extension_rank1_count(F, by_id[rid].basis)
              for rid in ("Sigma_GF", "Sigma_TF")]
    assert counts == oracle.extension_rank1_counts(3)
    assert len(set(counts)) == oracle.class_counts(3)["d3"]


@pytest.mark.parametrize("q", QS)
def test_code_rank_distribution(q):
    F = oracle.field(q)
    whole = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
    dist = oracle.code_rank_distribution(F, whole)
    census = oracle.point_census(q)
    r2 = sum(v for k, v in census.items() if k.startswith("P2"))
    assert dist == (1, (q - 1) * census["P1"], (q - 1) * r2, (q - 1) * census["P3"])
    assert oracle.min_distance(dist) == 1
    gf = gen_codes.sigma_gf(F)
    dist = oracle.code_rank_distribution(F, gf)
    assert dist == (1, 0, 0, q ** 3 - 1)
    assert oracle.min_distance(dist) == 3 and oracle.dim_bound(3) == len(gf)


def test_generator_is_seeded_and_congruence_invariant():
    a = gen_codes.round_codes(11, 0)
    assert a == gen_codes.round_codes(11, 0)
    assert a != gen_codes.round_codes(12, 0)
    assert a != gen_codes.round_codes(11, 1)
    for code in a:
        if code["q"] != 3:
            continue
        F, reps = gen_codes.representatives(3)
        rep = next(r for r in reps if r.rid == code["rep"])
        basis = [oracle.as_vec(M) for M in json.loads(code["json"])["basis"]]
        assert oracle.rank_of(F, basis) == len(rep.basis)
        assert (oracle.code_rank_distribution(F, basis)
                == oracle.code_rank_distribution(F, rep.basis))
