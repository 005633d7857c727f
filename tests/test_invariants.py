"""Point/hyperplane classes, distributions, orbits, censuses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srd3 import bulk, invariants
from srd3.gf import make_field, parse_field_spec
from srd3.pg import Subspace, canonicalize, coefficient_vectors
from srd3.invariants import (HYPERPLANE_CLASSES, exterior_by_tangents,
                             hyperplane_census, od0, od4,
                             orbit_of, pgl3_order, point_census, point_class,
                             point_classes, rank_distribution, stabilizer_order,
                             tables)
from srd3.veronese import point_rank, veronese

from oracles import (classify_hyperplane, classify_point, conic_walk, group_order_bfs,
                     nucleus_plane, od4_scalar, orbit_labels_scalar, orbit_rows,
                     point_class_walk, quotient_orbits_propagate, stabilizer_all_points,
                     stabilizer_by_group, stabilizer_order_by_orbit, veronese_points)


def _members(W, ids):
    return [Subspace(W.F, tuple(map(tuple, b)))
            for b in bulk.subspace_bases(W.F.q, W.k, ids).tolist()]


def test_classify_point_examples():
    F3 = make_field(3, 1)
    assert classify_point(F3, (1, 0, 0, 1, 0, 0)) == "P2i"  # diag(1,1,0)
    assert classify_point(F3, (1, 0, 0, 2, 0, 0)) == "P2e"  # diag(1,2,0)
    F4 = make_field(2, 2)
    assert classify_point(F4, (0, 1, 0, 0, 0, 0)) == "P2n"
    assert classify_point(F4, (1, 1, 0, 0, 0, 0)) == "P2s"
    assert classify_point(F3, veronese(F3, (1, 2, 0))) == "P1"
    assert classify_point(F3, (1, 0, 0, 1, 0, 1)) == "P3"


@pytest.mark.parametrize("p,h", [(3, 1), (5, 1)])
def test_exterior_algebraic_vs_geometric(p, h):
    # every rank-2 point, both routes
    F = make_field(p, h)
    n = 0
    for y in coefficient_vectors(F.q, 6):
        if point_rank(F, y) != 2:
            continue
        n += 1
        alg = classify_point(F, y) == "P2e"
        geo = exterior_by_tangents(F, y)
        assert alg == geo, y
    assert n == (F.q ** 2 + F.q + 1) * F.q ** 2


def _code(y, q):
    c = 0
    for x in y:
        c = c * q + x
    return c


def test_classify_point_table_agrees_with_scalar():
    for p, h in ((2, 1), (3, 1), (2, 2)):
        F = make_field(p, h)
        t = tables(F)
        names = {1: "P1", 4: "P3"}
        names[2] = "P2n" if p == 2 else "P2e"
        names[3] = "P2s" if p == 2 else "P2i"
        for y in coefficient_vectors(F.q, 6):
            assert names[int(t.class_code[_code(y, F.q)])] == classify_point(F, y)


@pytest.mark.parametrize("spec", ["3", "4", "2^3/101"])
def test_tables_built_in_blocks_match_one_block(spec, monkeypatch):
    F = parse_field_spec(spec)
    whole = invariants.GeomTables(F)
    assert invariants.TABLE_BLOCK >= F.q ** 6
    # uneven blocks: the last one is short
    monkeypatch.setattr(invariants, "TABLE_BLOCK", F.q ** 6 // 5 + 1)
    blocked = invariants.GeomTables(F)
    assert np.array_equal(blocked.class_code, whole.class_code)


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "7", "2^3/101", "3^2/1,2"])
def test_class_rank_matches_rank_batch(spec):
    # every vector of F_q^6, the zero vector included, against row
    # elimination; 3^2/1,2 is the odd h > 1 split with a non-default modulus
    F = parse_field_spec(spec)
    t = tables(F)
    vecs = bulk.decode(np.arange(F.q ** 6), F.q, 6)
    mats = vecs[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
    rank = bulk.rref_batch(t.kit, mats)[1]
    assert np.array_equal(invariants.CLASS_RANK[t.class_code], rank)


def test_classify_hyperplane_examples():
    F = make_field(3, 1)
    assert classify_hyperplane(F, (1, 0, 0, 0, 0, 0)) == "H1"   # X0^2
    assert classify_hyperplane(F, (0, 1, 0, 0, 0, 0)) == "H2r"  # X0X1
    # X1^2 - X0X2: nonsingular conic
    assert classify_hyperplane(F, (0, 0, 2, 1, 0, 0)) == "H3"
    F4 = make_field(2, 2)
    assert classify_hyperplane(F4, (1, 0, 0, 0, 0, 0)) == "H1"


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)],
                         ids=["q2", "q3", "q4", "q5"])
def test_hclass_table_matches_oracle(p, h):
    # every normalized dual, and every scalar multiple of it
    F = make_field(p, h)
    table = tables(F).hclass_table()
    assert table[0] == 0
    for dual in coefficient_vectors(F.q, 6):
        want = HYPERPLANE_CLASSES.index(classify_hyperplane(F, dual)) + 1
        for c in F.nonzero():
            assert table[_code([F.mul(c, x) for x in dual], F.q)] == want, dual


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=6, max_size=6).filter(any))
def test_hclass_table_matches_oracle_other_modulus(dual):
    # GF(8) built on x^3+x^2+1 instead of the default modulus
    F = parse_field_spec("2^3/101")
    want = HYPERPLANE_CLASSES.index(classify_hyperplane(F, dual)) + 1
    assert tables(F).hclass_table()[_code(dual, 8)] == want


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "8"])
def test_od4_matches_oracle_on_atlas(spec):
    from srd3.atlas import rep_ids, representative
    F = parse_field_spec(spec)
    for rid in rep_ids(F):
        W = representative(rid, F)
        assert od4(W) == od4_scalar(W), rid


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_censuses(p, h):
    F = make_field(p, h)
    q = F.q
    pc = point_census(F)
    assert pc["P1"] == q * q + q + 1
    assert pc["P3"] == q ** 5 - q ** 2
    if p == 2:
        assert pc["P2n"] == q * q + q + 1
        assert pc["P2s"] == (q * q - 1) * (q * q + q + 1)
    else:
        assert pc["P2e"] == (q * q + q + 1) * q * (q + 1) // 2
        assert pc["P2i"] == (q * q + q + 1) * q * (q - 1) // 2
    hc = hyperplane_census(F)
    assert hc["H1"] == q * q + q + 1
    assert hc["H2r"] == (q * q + q + 1) * (q * q + q) // 2
    assert hc["H2i"] == (q ** 4 - q) // 2
    assert hc["H3"] == q ** 5 - q ** 2
    assert sum(hc.values()) == (q ** 6 - 1) // (q - 1)


def test_od0_nucleus_plane():
    F = make_field(2, 2)
    assert od0(nucleus_plane(F)) == (0, 21, 0, 0)


def test_od4_nucleus_plane_all_h1():
    F = make_field(2, 2)
    assert od4(nucleus_plane(F)) == (21, 0, 0, 0)


def test_rank_distribution_and_min_rank():
    F = make_field(3, 1)
    W = canonicalize(F, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    rd = rank_distribution(W)
    assert sum(rd) == 4
    assert rd[0] == 2  # the two diagonal rank-1 points
    from srd3.codes import SrdCode, min_distance
    assert min_distance(SrdCode.from_subspace(W)) == 1


def test_group_orders():
    assert group_order_bfs(make_field(2, 1)) == 168
    assert group_order_bfs(make_field(3, 1)) == 5616
    assert pgl3_order(2) == 168
    assert pgl3_order(3) == 5616
    assert pgl3_order(4) == 60480


def test_group_order_bfs_q4():
    assert group_order_bfs(make_field(2, 2)) == 60480


def test_orbit_budget_error():
    from srd3.pg import BudgetExceeded
    F = make_field(3, 1)
    P = canonicalize(F, [(1, 0, 0, 1, 0, 1)])  # a rank-3 point, large orbit
    with pytest.raises(BudgetExceeded):
        orbit_of(P, budget=10)


def test_orbit_nucleus_plane_is_fixed():
    F = make_field(2, 2)
    orbit = orbit_of(nucleus_plane(F))
    assert len(orbit) == 1


@pytest.mark.parametrize("spec", ["4", "8", "2^3/101"])
def test_stabilizer_of_a_fixed_plane_is_the_group(spec, monkeypatch):
    # every generator fixes the nucleus plane Sigma_N, so its stabiliser
    # is all of PGL(3,q), found with no point class built
    from srd3.atlas import representative
    monkeypatch.setattr(invariants, "_tables", {})
    F = parse_field_spec(spec)
    W = representative("Sigma_N", F)
    assert stabilizer_order(W) == pgl3_order(F.q)
    assert not tables(F).point_class_data
    if F.q == 4:
        assert len(orbit_of(W)) == 1


_ONE_GENERATOR = """
import sys
sys.path.insert(0, {src!r})
from srd3 import invariants
from srd3.gf import make_field
invariants.k_generators = lambda F: [((0, 1, 0), (0, 0, 1), (1, 0, 0))]
try:
    invariants.point_class(make_field(3, 1), 4)
except invariants.ClassificationError:
    sys.exit(0)
sys.exit(1)
"""


def test_point_class_that_is_not_one_orbit_raises(monkeypatch):
    # with the 3-cycle alone the walk from x_P3 falls short of the census;
    # the check is no assert, so python -O keeps it
    import subprocess
    import sys
    from pathlib import Path
    monkeypatch.setattr(invariants, "_tables", {})
    monkeypatch.setattr(invariants, "k_generators",
                        lambda F: [((0, 1, 0), (0, 0, 1), (1, 0, 0))])
    with pytest.raises(invariants.ClassificationError):
        point_class(make_field(3, 1), 4)
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", _ONE_GENERATOR.format(src=src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_schreier_generators_that_fall_short_raise(monkeypatch):
    # with the identity for every Schreier generator the closure stays at
    # one element, short of |Stab(x_P3)|
    pc = invariants.PointClass(tables(make_field(3, 1)), 4)
    monkeypatch.setattr(pc, "schreier_generators",
                        lambda lo, hi: np.eye(3, dtype=np.uint8)[None])
    with pytest.raises(invariants.ClassificationError, match="fall short"):
        pc.stabilizer


def test_orbit_of_nucleus_point():
    F = make_field(2, 2)
    P = canonicalize(F, [(0, 1, 0, 0, 0, 0)])
    orbit = orbit_of(P)
    assert len(orbit) == 21
    assert stabilizer_order_by_orbit(P) == 2880  # q^2 * |GL(2,q)|
    assert stabilizer_order(P) == 2880


def test_orbit_of_nucleus_point_q2():
    F = make_field(2, 1)
    P = canonicalize(F, [(0, 1, 0, 0, 0, 0)])
    assert stabilizer_order_by_orbit(P) == 24  # 168 / 7
    assert stabilizer_order(P) == 24


def test_orbit_conic_plane_q3():
    from srd3.veronese import conic_plane_of
    F = make_field(3, 1)
    plane, _ = conic_plane_of(F, (1, 0, 0, 1, 0, 0))
    orbit = orbit_of(plane)
    assert len(orbit) == 13  # one conic plane per line of PG(2,3)


def test_od_constant_on_orbit():
    F = make_field(3, 1)
    W = canonicalize(F, [(1, 0, 0, 0, 2, 0), (0, 1, 0, 1, 0, 0)])
    base0, base4 = od0(W), od4(W)
    orbit = orbit_of(W)
    for V in _members(W, orbit[:: max(1, len(orbit) // 25)]):
        assert od0(V) == base0
        assert od4(V) == base4


def test_veronese_image_is_single_orbit():
    F = make_field(2, 1)
    P = canonicalize(F, [veronese(F, (1, 0, 0))])
    orbit = orbit_of(P)
    assert len(orbit) == 7
    members = {V.rows[0] for V in _members(P, orbit)}
    assert members == set(veronese_points(F))


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_orbit_ids_match_row_oracle_on_atlas(p, h):
    # the id BFS against the row-tuple BFS it replaced, and its size and
    # stabilizer_order against the stabiliser counted over every element of
    # PGL(3,q); the representatives include some with rank-1 points
    from srd3.atlas import rep_ids, representative
    F = make_field(p, h)
    with_rank1 = 0
    for rid in rep_ids(F):
        W = representative(rid, F)
        orbit = orbit_of(W)
        assert orbit.dtype == np.int64 and (np.diff(orbit) > 0).all(), rid
        rows = np.array(orbit_rows(W), dtype=np.uint8)
        assert np.array_equal(orbit, np.sort(bulk.subspace_ids(F.q, rows))), rid
        stab = stabilizer_by_group(W)
        assert len(orbit) * stab == pgl3_order(F.q), rid
        assert stabilizer_order(W) == stab, rid
        with_rank1 += od0(W)[0] > 0
    assert with_rank1 > 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["2^3/101", "3^2/1,2", "7", "8"]), st.sampled_from([3, 4]),
       st.integers(0, 2 ** 32 - 1))
def test_rank1_free_batch_matches_od0(spec, k, seed):
    # random solids and planes, half of them forced through a random
    # Veronese point, so both outcomes occur in every batch
    F = parse_field_spec(spec)
    t = tables(F)
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, F.q, size=(200, k, 6), dtype=np.uint8)
    forced = rng.random(200) < 0.5
    raw[forced, 0] = t.v6[rng.integers(0, len(t.v6), size=forced.sum())]
    red, rk = bulk.rref_batch(t.kit, raw)
    bases = red[rk == k]
    want = t.od0_batch(bases)[:, 0] == 0
    # a Veronese point lies in W iff its quotient image is 0
    on = bulk.quotient_codes(t.kit, bulk.nullspace_batch(t.kit, bases), t.v6) == 0
    assert np.array_equal(~on.any(axis=1), want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("2", 5), ("3", 5), ("4", 5), ("5", 2)]), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_stabilizer_order_times_orbit_is_group_order(field, k, seed):
    # random k-subspaces; at q = 5 only k <= 2, where the orbits are small
    # enough to walk
    spec, max_k = field
    F = parse_field_spec(spec)
    k = min(k, max_k)
    kit = tables(F).kit
    rng = np.random.default_rng(seed)
    while True:
        red, rk = bulk.rref_batch(kit, rng.integers(0, F.q, size=(1, k, 6), dtype=np.uint8))
        if rk[0] == k:
            break
    W = Subspace(F, tuple(map(tuple, red[0].tolist())))
    assert stabilizer_order(W) * len(orbit_of(W)) == pgl3_order(F.q)


def test_stabilizer_order_golden_q7():
    # walking the three solid orbits at q = 7 takes about 40 s and 360 MB;
    # the values give the T3.2 group sizes 58653, 703836, 1407672 and
    # T3.21's 2 |G| / 171 constant-rank-3 planes
    from srd3.atlas import representative
    F = make_field(7, 1)
    want = {"Omega8_2": 96, "Omega14_2": 8, "Omega15_2": 4, "Sigma_GF": 171, "Sigma_TF": 171}
    assert {rid: stabilizer_order(representative(rid, F)) for rid in want} == want


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "7", "8"])
def test_point_classes_are_orbits(spec):
    # the Schreier tree of each class reaches every point of the census,
    # and the point stabiliser has the orbit-stabiliser order
    F = parse_field_spec(spec)
    census = point_census(F)
    t = tables(F)
    for c, name in enumerate(point_classes(F), start=1):
        pc = point_class(F, c)
        assert len(pc.codes) == census[name], name
        assert (np.diff(pc.codes) > 0).all() and (t.class_code[pc.codes] == c).all()
        assert len(pc.stabilizer) * census[name] == pgl3_order(F.q), name
    # built on first use, never with the tables
    assert not invariants.GeomTables(F).point_class_data


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "2^3/101", "3^2/1,2"])
def test_stabilizer_blocks_match_all_points(spec):
    # the Schreier generators formed a block of points at a time, stopping
    # at the known order, give the same elements as those of every point
    F = parse_field_spec(spec)
    kit = tables(F).kit
    for c in range(1, 5):
        pc = point_class(F, c)
        got = np.sort(invariants._element_codes(kit, pc.stabilizer))
        want = np.sort(invariants._element_codes(kit, stabilizer_all_points(pc)))
        assert np.array_equal(got, want), c
        assert len(got) * len(pc.codes) == pgl3_order(F.q), c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.data())
def test_orbit_labels_match_the_scalar_walk(g, n, seed, data):
    # random permutation tables, with no generator at all and with seeds
    # that may share an orbit, against the walk one point at a time; every
    # tree edge is a generator step inside one walk
    rng = np.random.default_rng(seed)
    img = np.array([rng.permutation(n) for _ in range(g)], dtype=np.int32).reshape(g, n)
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    label, parent, gen = invariants.orbit_labels(img, seeds)
    assert (label.tolist(), parent.tolist(), gen.tolist()) == orbit_labels_scalar(img, seeds)
    assert label[seeds].tolist() == list(range(len(seeds)))
    y = np.flatnonzero(parent >= 0)
    assert np.array_equal(img[gen[y], parent[y]], y)
    assert np.array_equal(label[parent[y]], label[y])
    if g == 0:
        assert len(y) == 0


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "7", "8", "9", "2^3/101", "3^2/1,2"])
def test_orbit_walks_match_the_oracles(spec, monkeypatch):
    # the one walk over every class against the walks it replaced: the
    # codes and every h_y of each point class, the quotient orbits of
    # each class's Schreier generators, and the conic classes
    F = parse_field_spec(spec)
    t = tables(F)
    walked = invariants.quotient_orbits
    same = []

    def both(kit, x, gens):
        got = walked(kit, x, gens)
        want = quotient_orbits_propagate(kit, x, gens)
        same.append(all(np.array_equal(a, b) for a, b in zip(got, want)))
        return got
    monkeypatch.setattr(invariants, "quotient_orbits", both)
    for c in range(1, 5):
        pc = invariants.PointClass(t, c)
        codes, transversal = point_class_walk(t, c)
        assert np.array_equal(pc.codes, codes), c
        assert np.array_equal(pc.transversal(pc.codes), transversal), c
        pc.quotient_orbits
    assert same == [True] * 4
    # every edge of the point tree is a generator step inside one class
    gens = invariants.lift_batch(t.kit, np.array(invariants.k_generators(F), dtype=np.uint8))
    img = invariants.image_table(t.kit, invariants.normalized_codes(F.q, 6), gens)
    label, parent, gen = t.point_orbits
    y = np.flatnonzero(parent >= 0)
    assert np.array_equal(img[gen[y], parent[y]], y) and np.array_equal(label[parent[y]], label[y])
    reps, sizes = t.conic_orbits
    want_reps, want_sizes = conic_walk(t)
    assert np.array_equal(reps, want_reps) and sizes == want_sizes


def test_point_walk_rejects_a_relabelled_point(monkeypatch):
    # one exterior point and its scalar multiples read as rank 3: the walk
    # from x_P2e then reaches a point the table puts in P3, and raises
    F = make_field(3, 1)
    t = invariants.GeomTables(F)
    bad = t.class_code.copy()
    code = np.flatnonzero(bad == 2)[-1]
    vec = bulk.decode(np.array([code]), 3, 6)
    bad[bulk.encode(t.kit.mul(np.arange(1, 3)[:, None], vec), 3)] = 4
    monkeypatch.setattr(t, "class_code", bad)
    with pytest.raises(invariants.ClassificationError):
        t.point_orbits
    with pytest.raises(invariants.ClassificationError):
        invariants.PointClass(t, 4)


@pytest.mark.parametrize("spec", ["4", "5"])
def test_first_schreier_block_is_formed_once(spec, monkeypatch):
    # stabilizer and quotient_orbits both start from the first block
    F = parse_field_spec(spec)
    calls = []
    form = invariants.PointClass.schreier_generators

    def counted(self, lo, hi):
        calls.append(lo)
        return form(self, lo, hi)
    monkeypatch.setattr(invariants.PointClass, "schreier_generators", counted)
    pc = invariants.PointClass(tables(F), 4)
    pc.quotient_orbits, pc.stabilizer
    assert calls.count(0) == 1


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["2", "3", "4", "5", "2^3/101", "3^2/1,2"]), st.integers(0, 2 ** 32 - 1))
def test_lift_batch_matches_lift(spec, seed):
    from srd3.veronese import lift, mat_det3
    F = parse_field_spec(spec)
    kit = tables(F).kit
    A = np.random.default_rng(seed).integers(0, F.q, size=(30, 3, 3), dtype=np.uint8)
    A = A[[mat_det3(F, a.tolist()) != 0 for a in A]]
    L = invariants.lift_batch(kit, A)
    for a, l in zip(A, L):
        assert l.tolist() == [list(r) for r in lift(F, a.tolist())]
