"""Orbit representatives against their printed distributions (small q)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srd3 import bulk, invariants
from srd3.gf import cubic_extension, ext_basis, make_field, parse_field_spec, trace2
from srd3.atlas import (AtlasError, atlas_entry, emit_atlas, find_params,
                        rep_ids, representative,
                        rank1_points_over_cubic_extension,
                        sigma_gf_plane, sigma_tf_plane)
from srd3.invariants import od0, od4, orbit_of, rank_distribution
from srd3.pg import canonicalize, gaussian_binomial, nullspace
from srd3.veronese import veronese

from oracles import (all_subspaces, ext_basis_by_independence,
                     rank1_points_over_cubic_extension_chart,
                     rank1_points_over_cubic_extension_scalar, sigma18_search)


def test_find_params_delta_q3():
    F = make_field(3, 1)
    assert find_params("delta", F) == {"d": 2}


def test_find_params_gamma_q4():
    F = make_field(2, 2)
    got = find_params("gamma_inv_tr1", F)
    assert trace2(F, F.inv(got["g"])) == 1
    assert got["g"] == 2  # Tr(1) = 0 over GF(4), so 1 is skipped


def test_find_params_cubic_q2():
    F = make_field(2, 1)
    got = find_params("cubic", F)
    # scan order (g, a, bt): first rootless cubic is l^3 + l + 1
    assert (got["a"], got["bt"], got["g"]) == (1, 1, 0)


def test_find_params_uv_square_sides_q3():
    F = make_field(3, 1)
    p0 = find_params("uv0", F)
    p1 = find_params("uv1", F)
    p2 = find_params("uv2", F)
    from srd3.gf import is_square
    assert is_square(F, F.neg(p1["v1"]))
    assert not is_square(F, F.neg(p2["v2"]))
    # the quadratic really is rootless
    for u, v in ((p0["u"], p0["v0"]), (p1["u"], p1["v1"]), (p2["u"], p2["v2"])):
        for lam in F.elements():
            val = F.sub(F.add(F.mul(v, F.mul(lam, lam)), F.mul(F.mul(u, v), lam)), 1)
            assert val != 0


def test_parity_mismatch_rejected():
    with pytest.raises(AtlasError):
        representative("Omega1", make_field(3, 1))  # even-only id
    with pytest.raises(AtlasError):
        representative("Omega8_2", make_field(2, 2))  # odd-only id
    with pytest.raises(AtlasError):
        representative("nope", make_field(3, 1))


@pytest.mark.parametrize("q", [(3, 1), (5, 1)])
def test_all_odd_pairs_reproduce_printed_columns(q):
    F = make_field(*q)
    for rid in rep_ids(F):
        if rid in ("Sigma_GF", "Sigma_TF"):
            continue
        entry = atlas_entry(rid, F)
        assert entry["od0_match"], (rid, entry)
        assert entry["od4_match"], (rid, entry)


def test_even_tables_reproduce_at_q4():
    F = make_field(2, 2)
    for rid in rep_ids(F):
        entry = atlas_entry(rid, F)
        if "expected_od0" in entry:
            assert entry["od0"] == entry["expected_od0"], (rid, entry)
        if "expected_od4" in entry:
            assert entry["od4"] == entry["expected_od4"], (rid, entry)


def test_specific_printed_values():
    F4 = make_field(2, 2)
    assert od0(representative("Omega7", F4)) == (0, 5, 20, 60)
    assert od4(representative("o17", F4)) == (1, 10, 6, 68)
    assert od0(representative("o12_1", F4)) == (0, 5, 0, 0)
    F5 = make_field(5, 1)
    assert od0(representative("o9", F5)) == (1, 0, 0, 5)
    F3 = make_field(3, 1)
    assert od4(representative("Omega15_2", F3)) == (0, 0, 1, 3)
    assert od0(representative("Omega14_2", F3)) == (0, 11, 8, 21)


def test_sigma16_plane():
    F = make_field(2, 2)
    W = representative("Sigma_16", F)
    assert od0(W) == (0, 5, 0, 16)
    assert od4(W) == (5, 0, 0, 16)


def test_sigma18_plane_q4():
    F = make_field(2, 2)
    W = representative("Sigma_18", F)
    assert od0(W) == (0, 1, 0, 20)
    assert od4(W) == (1, 0, 0, 20)
    with pytest.raises(AtlasError):
        representative("Sigma_18", make_field(2, 1))
    with pytest.raises(AtlasError):
        representative("Sigma_18", make_field(3, 1))


@pytest.mark.parametrize("spec", ["4", "2^3", "2^3/101"])
def test_sigma18_entry_equals_line_search(spec):
    # the closed form b*l^3 + c*l + 1 rootless gives the plane the line
    # search finds, basis for basis; every field tried takes b = 1
    F = parse_field_spec(spec)
    entry = atlas_entry("Sigma_18", F)
    assert entry["params"]["b"] == 1
    assert entry["basis"] == [list(r) for r in sigma18_search(F).rows]
    assert entry["od0_match"] and entry["od4_match"]


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "9"])
def test_ext_basis_equals_independence_scan(spec):
    ext = cubic_extension(parse_field_spec(spec))
    assert ext_basis(ext) == ext_basis_by_independence(ext)


@pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2)])
def test_sigma_gf_constant_rank3(q):
    F = make_field(*q)
    W = sigma_gf_plane(F)
    n = F.q * F.q + F.q + 1
    assert od0(W) == (0, 0, 0, n)
    assert od4(W) == (0, 0, 0, n)


def test_sigma_tf_q3():
    F = make_field(3, 1)
    W = sigma_tf_plane(F)
    assert od0(W) == (0, 0, 0, 13)
    assert rank1_points_over_cubic_extension(F, W) == 0
    assert rank1_points_over_cubic_extension(F, sigma_gf_plane(F)) == 3
    with pytest.raises(AtlasError):
        sigma_tf_plane(make_field(2, 2))


def test_sigma_gf_and_tf_disjoint_orbits_q3():
    F = make_field(3, 1)
    gf_orbit = orbit_of(sigma_gf_plane(F))
    tf_orbit = orbit_of(sigma_tf_plane(F))
    tf_id = bulk.subspace_ids(F.q, np.array([sigma_tf_plane(F).rows], dtype=np.uint8))
    assert not np.isin(tf_id, gf_orbit).any()
    assert not np.isin(gf_orbit, tf_orbit).any()
    # both are constant-rank-3 orbits of equal size
    assert len(gf_orbit) == len(tf_orbit)


def test_sigma11_avoids_double_line_hyperplane():
    # the Sigma_11 plane is not inside the double-line hyperplane of its
    # nucleus-plane point
    from srd3.pg import incident, subspace_points
    from srd3.veronese import double_line_dual, kernel_point
    from oracles import classify_point, in_nucleus_plane
    F = make_field(2, 2)
    W = representative("Sigma_11", F)
    assert od0(W) == (1, 1, 3, 16)
    pts = [p for p in subspace_points(W)
           if in_nucleus_plane(p) and W.F is F]
    q2 = [p for p in pts if classify_point(F, p) == "P2n"]
    assert len(q2) == 1
    dual = double_line_dual(F, kernel_point(F, q2[0]))
    assert not all(incident(F, p, dual) for p in subspace_points(W))


def test_ambiguity_flag():
    F = make_field(2, 2)
    e1 = atlas_entry("o15_1", F)
    e2 = atlas_entry("o16_3", F)
    assert e1["ambiguous_with"] == "o16_3"
    assert e2["ambiguous_with"] == "o15_1"
    assert e1["expected_od0"] == e2["expected_od0"]
    assert e1["expected_od4"] == e2["expected_od4"]


def test_distinct_parameter_choices_same_distributions():
    # any valid delta gives a representative with the same invariants
    from srd3.gf import is_square
    F = make_field(5, 1)
    base = atlas_entry("Omega8_2", F)
    from srd3.atlas import _basis_from_entries, rep_spec
    spec = rep_spec("Omega8_2", F)
    alts = [d for d in F.nonzero() if not is_square(F, d)]
    assert len(alts) > 1
    for d in alts:
        W = _basis_from_entries(F, spec.entries, 4, {"d": d})
        assert list(od0(W)) == base["od0"]
        assert list(od4(W)) == base["od4"]


@pytest.mark.parametrize("q", [5, 7])
def test_orbit_membership_independent_of_parameters(q):
    # GF(5) and GF(7) have 2 and 3 non-squares, so reps[1:] is not empty
    from srd3.gf import is_square
    from srd3.atlas import _basis_from_entries, rep_spec
    F = make_field(q, 1)
    spec = rep_spec("Omega8_2", F)
    reps = [_basis_from_entries(F, spec.entries, 4, {"d": d})
            for d in F.nonzero() if not is_square(F, d)]
    assert len(reps) == (q - 1) // 2
    orbit = orbit_of(reps[0])
    for W in reps[1:]:
        assert np.isin(bulk.subspace_ids(F.q, np.array([W.rows], dtype=np.uint8)), orbit).all()


def test_odd_pairs_on_extension_field_q9():
    # GF(9) exercises the h = 2 odd-field paths (squares via log parity,
    # parameter search over a non-prime field); distributions must still
    # match the printed formulas
    F = make_field(3, 2)
    for rid in rep_ids(F):
        if rid in ("Sigma_GF", "Sigma_TF"):
            continue
        entry = atlas_entry(rid, F)
        assert entry["od0"] == entry["expected_od0"], (rid, entry)
        if entry["kind"] == "solid":
            assert entry["od4"] == entry["expected_od4"], (rid, entry)


def test_emit_atlas_counts():
    F3 = make_field(3, 1)
    entries = emit_atlas(F3)
    # 15 solid/line pairs plus the two constant-rank-3 planes
    assert len(entries) == 32
    F4 = make_field(2, 2)
    entries4 = emit_atlas(F4)
    # 15 lines, 15 solids, Sigma_N/11/16/18 and the trace-form plane
    assert len(entries4) == 35


def test_emit_atlas_batches_each_dimension(monkeypatch):
    # one od0_batch and one od4_batch over the lines, planes and solids,
    # and atlas_entry is the same entry from a batch of one
    F = make_field(2, 2)
    want = emit_atlas(F)
    batches = []
    G = invariants.GeomTables
    for name in ("od0_batch", "od4_batch"):
        def counted(self, bases, name=name, orig=getattr(G, name)):
            batches.append((name, bases.shape[1]))
            return orig(self, bases)
        monkeypatch.setattr(G, name, counted)
    assert emit_atlas(F) == want
    assert sorted(batches) == [(name, k) for name in ("od0_batch", "od4_batch")
                               for k in (2, 3, 4)]
    assert [atlas_entry(e["id"], F) for e in want] == want


# ---------------------------------------------------------------------------
# Rank-1 points over GF(q^3)
# ---------------------------------------------------------------------------

@st.composite
def _subspaces(draw, specs, dims):
    """A random subspace of PG(5,q) as (F, W).  Each spanning row is a
    random vector, the Veronese image of a random point or of a point of
    the line u0 = 0, or e5 = nu(0, 0, 1), so rank-1 and rank-2 points turn
    up as well as constant-rank-3 ones, and common zeros of the dual
    conics off the chart u0 = 1."""
    spec, k = draw(st.sampled_from([(s, k) for s in specs for k in dims(s)]))
    F = parse_field_spec(spec)
    elem = st.integers(0, F.q - 1)
    rows = []
    while len(rows) < k:
        kind = draw(st.sampled_from(["vector", "point", "line", "e5"]))
        if kind == "point":
            v = veronese(F, draw(st.tuples(elem, elem, elem).filter(any)))
        elif kind == "line":
            v = veronese(F, (0,) + draw(st.tuples(elem, elem).filter(any)))
        elif kind == "e5":
            v = (0, 0, 0, 0, 0, 1)
        else:
            v = draw(st.tuples(*[elem] * 6).filter(any))
        if canonicalize(F, rows + [v]).k == len(rows) + 1:
            rows.append(v)
    return F, canonicalize(F, rows)


def _walkable(spec):
    # subspace dimensions whose extension to GF(q^3) the scalar walk covers
    # in well under a second: (q^(3k) - 1) / (q^3 - 1) <= 5000 points
    q = parse_field_spec(spec).q
    return [k for k in range(1, 6) if (q ** (3 * k) - 1) // (q ** 3 - 1) <= 5000]


@settings(max_examples=40, deadline=None)
@given(_subspaces(["2", "3", "4"], _walkable))
def test_cubic_extension_count_matches_scalar_walk(case):
    F, W = case
    assert (rank1_points_over_cubic_extension(F, W)
            == rank1_points_over_cubic_extension_scalar(F, W))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_cubic_extension_count_matches_chart_oracle_q2(k):
    # every subspace of PG(5, 2): the reduced-conic pass against the scan
    # of every point of PG(2, 8)
    F = make_field(2, 1)
    for W in all_subspaces(5, 2, k - 1, F=F):
        assert (rank1_points_over_cubic_extension(F, W)
                == rank1_points_over_cubic_extension_chart(F, W)), W


@settings(max_examples=60, deadline=None)
@given(_subspaces(["3", "4", "5", "7", "8", "9", "2^3/101", "3^2/1,2"],
                  lambda spec: range(1, 6)))
def test_cubic_extension_count_matches_chart_oracle(case):
    F, W = case
    assert (rank1_points_over_cubic_extension(F, W)
            == rank1_points_over_cubic_extension_chart(F, W))


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "9", "16"])
def test_cubic_extension_count_off_the_chart(spec):
    # spans of nu(0, 0, 1) = e5 and nu(0, 1, 0) = e3: no dual has a y^2
    # term, and every common zero lies on the line u0 = 0
    F = parse_field_spec(spec)
    Q = F.q ** 3
    e3, e4, e5 = (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)
    assert rank1_points_over_cubic_extension(F, canonicalize(F, [e5])) == 1
    assert rank1_points_over_cubic_extension(F, canonicalize(F, [e3, e5])) == 2
    # the conic plane of the line u0 = 0: its Q + 1 points
    assert rank1_points_over_cubic_extension(F, canonicalize(F, [e3, e4, e5])) == Q + 1


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "7", "8"])
def test_cubic_extension_count_of_hyperplanes(spec):
    # a hyperplane's conic keeps its type over GF(q^3), an odd-degree
    # extension: a double line or a nonsingular conic has Q + 1 points, a
    # real line pair 2Q + 1 and an imaginary pair only its vertex
    F = parse_field_spec(spec)
    Q = F.q ** 3
    want = {1: Q + 1, 2: 2 * Q + 1, 3: 1, 4: Q + 1}
    duals = bulk.subspace_bases(F.q, 1, np.arange(gaussian_binomial(6, 1, F.q)))
    hclass = invariants.tables(F).hclass_table()[bulk.encode(duals[:, 0], F.q)]
    for c in range(1, 5):
        dual = duals[hclass == c][0]
        W = canonicalize(F, nullspace(F, dual.tolist()))
        assert rank1_points_over_cubic_extension(F, W) == want[c]


@settings(max_examples=40, deadline=None)
@given(_subspaces(["7", "8", "9", "2^3/101"], lambda spec: range(1, 6)))
def test_cubic_extension_count_frobenius(case):
    # x -> x^q permutes the common zeros, fixing exactly the GF(q)-rational
    # ones (the rank-1 points of W) and moving the others in 3-cycles
    F, W = case
    r1 = rank_distribution(W)[0]
    n = rank1_points_over_cubic_extension(F, W)
    assert n >= r1 and (n - r1) % 3 == 0


@pytest.mark.parametrize("spec", ["7", "8", "9", "11", "13", "16"])
def test_cubic_extension_splits_constant_rank3_planes(spec, monkeypatch):
    # the count needs no point tables, so none is built, even at q = 16
    def no_tables(F):
        raise AssertionError(f"point tables built for q={F.q}")
    monkeypatch.setattr(invariants, "GeomTables", no_tables)
    monkeypatch.setattr(invariants, "_tables", {})
    F = parse_field_spec(spec)
    assert rank1_points_over_cubic_extension(F, sigma_gf_plane(F)) == 3
    if F.p != 2:
        assert rank1_points_over_cubic_extension(F, sigma_tf_plane(F)) == 0
