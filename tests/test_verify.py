"""Verification drivers at small q (the full matrix runs in the acceptance
module; here the fast paths and the plumbing)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srd3 import bulk
from srd3.gf import make_field, parse_field_spec
from srd3.invariants import (ClassificationError, GeomTables, hyperplane_census, pgl3_order,
                             point_class, stabilizer_order, tables)
from srd3.pg import gaussian_binomial
from srd3.report import DISCREPANCY, PASS, SAMPLED, render
from srd3.verify import (_CLASS_ORDER, _COMPLETE, _OD4, VerifyError, _bases_through,
                         _class_column, _class_size, _counts, _histogram, _ids_where,
                         _is_orbit, _keys, _min_rank2_solid_sigs, _rank1_free,
                         _row_counts, _sweep, _tally, _through,
                         line_sweep_completeness, min_rank2_coverage, plane_sweep,
                         planes_covered_by_solids, run_checks,
                         solid_groups, verify_censuses, verify_class_counts,
                         verify_completeness_dichotomy, verify_net_corollaries,
                         verify_r2n_equals_h1, verify_rank3_od4, verify_schmidt,
                         verify_solids, verify_tables)

from oracles import (keys_filtered, line_sweep_union, on_line_pair, pencils_unfiltered,
                     r2n_h1_sweep, rank1_free_groups_unfiltered,
                     solid_counts_through_points, solids_through_point,
                     spans_through_eliminate, through_unfiltered)


def _ok(reports):
    for r in reports:
        assert r.ok, (r.check_id, r.computed, r.details)
    return reports


def test_censuses_q3():
    _ok(verify_censuses(make_field(3, 1)))


def test_tables_q3():
    r, = _ok(verify_tables(make_field(3, 1)))
    assert r.details["representatives"] == 32


def test_solids_q2_q3():
    r2, = _ok(verify_solids(make_field(2, 1)))
    assert r2.computed["n_groups"] == 3
    r3, = _ok(verify_solids(make_field(3, 1)))
    assert sorted(sig[3] for sig in r3.computed["signatures"]) == [21, 24, 27]
    assert all(v is True for v in r3.computed["orbit_match"].values())


def test_solid_groups_match_orbit_sizes_q3():
    from srd3.atlas import representative
    F = make_field(3, 1)
    groups, total = solid_groups(F)
    assert total == 11011
    sig_to_id = _min_rank2_solid_sigs(F)
    assert sorted(groups) == sorted(sig_to_id)
    for sig, ids in groups.items():
        W = representative(sig_to_id[sig], F)
        assert len(ids) == pgl3_order(3) // stabilizer_order(W), sig


def test_one_orbit_rule_fails_when_it_should_q3():
    # the rule holds on each solid group's key and count, and fails for the
    # count off by one, for another group's key, and for a representative
    # whose own key is not the family's, even at that family's count
    from srd3.atlas import representative
    F = make_field(3, 1)
    groups = _tally(_counts(F, 4), _rank1_free)
    sig_to_id = _min_rank2_solid_sigs(F)
    assert sorted(groups) == sorted(sig_to_id)
    for sig, n in groups.items():
        W = representative(sig_to_id[sig], F)
        other = next(s for s in groups if s != sig)
        assert _is_orbit(sig, n, W)
        assert _is_orbit(sig + (1,), n, W)  # rank-1-free solids are complete
        assert not _is_orbit(sig, n - 1, W)
        assert not _is_orbit(sig, n + 1, W)
        assert not _is_orbit(other, n, W)
        assert not _is_orbit(sig + (0,), n, W)
        assert not _is_orbit(sig, n, representative(sig_to_id[other], F))


def test_t321_disjoint_needs_different_extension_counts(monkeypatch):
    # equal rank-1 counts over GF(q^3) do not separate the two orbits, so
    # neither disjointness nor the cover is claimed
    import srd3.atlas
    monkeypatch.setattr(srd3.atlas, "rank1_points_over_cubic_extension", lambda F, W: 3)
    _, d3 = verify_class_counts(make_field(3, 1))
    assert d3.computed["disjoint"] is False
    assert d3.computed["orbits_cover_all"] is False
    assert not d3.ok


def _sampled_above(monkeypatch, q):
    """Lower verify.EXACT_MAX_Q to q, so that larger fields are sampled."""
    import srd3.verify as V
    monkeypatch.setattr(V, "EXACT_MAX_Q", q)


def test_r2n_h1_full_q4_and_sampled(monkeypatch):
    F = make_field(2, 2)
    r, = _ok(verify_r2n_equals_h1(F))
    assert r.status == PASS
    assert r.computed == {"mismatches": 0, "planes": 376805}
    _sampled_above(monkeypatch, 2)
    s, = _ok(verify_r2n_equals_h1(F))
    assert s.status == SAMPLED
    # the sample runs in two _block_size(4, 3) blocks; the figures are
    # those of the earlier one-batch run
    assert s.computed == {"mismatches": 0}
    assert s.details == {"planes_checked": 100000,
                         "intersection_dim_histogram": [69505, 30016, 478, 1]}


def test_r2n_h1_rejects_odd():
    with pytest.raises(VerifyError):
        verify_r2n_equals_h1(make_field(3, 1))


@pytest.mark.parametrize("spec", ["9", "3^2/1,2"])
def test_solids_exact_golden_q9(spec):
    # counted, not sampled, above EXACT_MAX_Q: |G| / 160, / 8 and / 4
    r, = _ok(verify_solids(parse_field_spec(spec)))
    assert r.status == PASS
    assert sorted(r.details["group_sizes"].values()) == [265356, 5307120, 10614240]
    assert r.details["total_solids"] == gaussian_binomial(6, 4, 9)


def test_solids_read_no_sample(monkeypatch):
    import srd3.verify as V
    sample = V._sample_counts

    def no_solid_sample(F, k, jobs=1):
        assert k != 4, "a solid sample was drawn"
        return sample(F, k, jobs)

    monkeypatch.setattr(V, "_sample_counts", no_solid_sample)
    monkeypatch.setattr(V, "_sweep_cache", {})
    r, = _ok(verify_solids(make_field(3, 2)))
    assert r.status == PASS


def test_dichotomy_q3():
    r, = _ok(verify_completeness_dichotomy(make_field(3, 1)))
    assert r.computed == {"complete_lines": 0, "complete_planes": 0}
    assert r.details["min_rank2_lines"] > 0


def test_line_sweep_counts_q3():
    F = make_field(3, 1)
    n_lines, n_complete = line_sweep_completeness(F)
    assert n_complete == 0
    # minimum-rank-2 lines: all lines minus those with a rank-1 point minus
    # the constant-rank-3 ones; sanity bound only
    assert 0 < n_lines < 11011


def _rebuild(tag, fn, F, jobs):
    """fn(F, jobs) after dropping the sweep it reads, the cache entry
    (tag, id(F)), so that the sweep really runs again with these jobs."""
    import srd3.verify as V
    old = V._sweep_cache.pop((tag, id(F)), None)
    out = fn(F, jobs=jobs)
    assert V._sweep_cache[(tag, id(F))] is not old
    return out


@pytest.mark.parametrize("p,h,want", [(2, 1, 399), (3, 1, 7644), (2, 2, 65982)],
                         ids=["q2", "q3", "q4"])
def test_line_sweep_matches_union_oracle(p, h, want):
    F = make_field(p, h)
    assert line_sweep_union(F) == (want, 0)
    for jobs in (1, 2):
        assert _rebuild("line_sweep", line_sweep_completeness, F, jobs) == (want, 0)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_solid_groups_match_unfiltered_oracle(p, h):
    F = make_field(p, h)
    want, total = rank1_free_groups_unfiltered(F, 4)
    for jobs in (1, 2):
        groups, n = _rebuild("solid_groups", solid_groups, F, jobs)
        assert n == total
        assert groups.keys() == want.keys()
        for sig in want:
            assert np.array_equal(groups[sig], want[sig])


@pytest.mark.parametrize("p,h,complete", [(2, 1, 22), (3, 1, 0), (2, 2, 1324)],
                         ids=["q2", "q3", "q4"])
def test_coverage_matches_solid_oracle(p, h, complete):
    # the oracle covers the planes inside the three minimum-rank-2 solid
    # signatures; the quotient test covers the planes inside any
    # rank-1-free solid.  They agree because no stray signature exists.
    F = make_field(p, h)
    groups, _ = solid_groups(F)
    sigs = _min_rank2_solid_sigs(F)
    assert set(groups) == set(sigs)
    want = planes_covered_by_solids(F, _ids_where(groups, sigs.__contains__))
    planes = _ids_where(plane_sweep(F)[0], lambda sig: sig[1] + sig[2] > 0)
    for jobs in (1, 2):
        cov = _rebuild("plane_sweep", min_rank2_coverage, F, jobs)
        assert np.array_equal(cov, want)
        assert len(planes) - np.isin(planes, cov).sum() == complete


@pytest.mark.parametrize("p,h,complete", [(2, 1, 30), (3, 1, 288), (2, 2, 2284)],
                         ids=["q2", "q3", "q4"])
def test_cached_completeness_flags(p, h, complete):
    # a rank-1-free solid meets the d = 2 dimension bound, so it is an MSRD
    # code and complete; a rank-1-free plane is complete iff it has no
    # point of the secant class, P2e (od0 column 1) for odd q and P2s
    # (column 2) for even q: the q^2+q+1 Veronese images cover the
    # q^2+q+1 quotient points iff no two collide, i.e. iff no secant line
    # of the Veronese surface meets the plane
    F = make_field(p, h)
    groups, flags, _ = _sweep(F, 4)
    assert groups.keys() == flags.keys()
    assert all(flags[sig].all() and len(flags[sig]) == len(groups[sig]) for sig in groups)
    secant = 2 if F.p == 2 else 1
    groups, flags, _ = _sweep(F, 3)
    assert groups.keys() == flags.keys()
    for sig in groups:
        assert len(flags[sig]) == len(groups[sig])
        assert (flags[sig] == (sig[secant] == 0)).all(), sig
    assert sum(int(f.sum()) for f in flags.values()) == complete


def test_class_counts_q3():
    d2, d3 = _ok(verify_class_counts(make_field(3, 1)))
    assert d2.computed["classes"] == 3
    assert d3.computed["classes"] == 2
    assert d3.computed["extension_rank1_counts"] == [3, 0]


def test_class_counts_q2_flagged():
    d2, d3 = _ok(verify_class_counts(make_field(2, 1)))
    assert d2.computed["classes"] == 6
    assert d3.computed["classes"] == 1
    assert d2.flags and "q=2" in d2.flags[0]


def test_nets_q3():
    r, = _ok(verify_net_corollaries(make_field(3, 1)))
    assert r.computed["violations"] == 0
    assert r.computed["spot"]["o8_2"] == (0, 14, 2, 24)


def test_sampled_c4_golden_q5(monkeypatch):
    _sampled_above(monkeypatch, 2)
    r, = _ok(verify_net_corollaries(make_field(5, 1)))
    assert r.status == SAMPLED
    assert r.computed == {"violations": 0}
    assert r.details == {"sampled_planes": 100000, "checked": 77681}


def test_sampled_c4_golden_q8(monkeypatch):
    # 100000 sampled planes are four _block_size(8, 3) blocks
    _sampled_above(monkeypatch, 2)
    r, = _ok(verify_net_corollaries(make_field(2, 3)))
    assert r.status == SAMPLED
    assert r.computed == {"violations": 0}
    assert r.details == {"sampled_planes": 100000, "checked": 86708}


def test_sampled_c4_q13(monkeypatch):
    # 13^18 > 2^63: a plane written as 18 base-q digits does not fit int64,
    # its id does
    import srd3.verify as V
    monkeypatch.setattr(V, "SAMPLE_SIZE", 3000)
    monkeypatch.setattr(V, "_sweep_cache", {})  # no sample of another size
    _sampled_above(monkeypatch, 2)
    r, = _ok(verify_net_corollaries(make_field(13, 1)))
    assert r.status == SAMPLED
    assert r.details["sampled_planes"] == 3000
    assert 0 < r.details["checked"] < 3000


def test_checks_share_one_sample_per_dimension(monkeypatch):
    # T3.7 and C4 read one plane sample; T3.3 is exact and draws none
    import srd3.verify as V
    drawn = []
    draw = bulk.sample_subspaces

    def counting(kit, n, projdim, count, seed):
        drawn.append(projdim + 1)
        return draw(kit, n, projdim, count, seed)

    monkeypatch.setattr(bulk, "sample_subspaces", counting)
    monkeypatch.setattr(V, "_sweep_cache", {})
    _sampled_above(monkeypatch, 2)
    reports = _ok(run_checks(make_field(2, 2), ids=["T3.3", "T3.7", "C4"]))
    assert [r.status for r in reports] == [PASS, SAMPLED, SAMPLED]
    assert drawn == [3]


def test_schmidt_all_small_q():
    for q in ((2, 1), (3, 1), (2, 2)):
        r, = _ok(verify_schmidt(make_field(*q)))
        assert r.status == PASS


def test_rank3_discrepancy_status():
    r, = verify_rank3_od4(make_field(3, 1))
    assert r.status == DISCREPANCY
    assert r.ok
    assert r.computed["Sigma_GF"] == (0, 0, 0, 13)
    assert any("q+1" in f or "stated" in f for f in r.flags)


def test_run_checks_unknown_id():
    with pytest.raises(VerifyError):
        run_checks(make_field(3, 1), ids=["T99"])
    with pytest.raises(VerifyError):
        run_checks(make_field(3, 1), ids=["T3.3"])  # even-only check


def test_jobs_determinism_q3(monkeypatch):
    # each run starts from an empty cache; the session's cache is put back
    import srd3.verify as V
    F = make_field(3, 1)
    monkeypatch.setattr(V, "_sweep_cache", {})
    g1, _ = solid_groups(F, jobs=1)
    monkeypatch.setattr(V, "_sweep_cache", {})
    g2, _ = solid_groups(F, jobs=2)
    assert g1.keys() == g2.keys()
    for sig in g1:
        assert np.array_equal(g1[sig], g2[sig])
    monkeypatch.setattr(V, "_sweep_cache", {})
    r1 = verify_r2n_equals_h1(make_field(2, 2), jobs=1)[0]
    monkeypatch.setattr(V, "_sweep_cache", {})
    r2 = verify_r2n_equals_h1(make_field(2, 2), jobs=2)[0]
    assert r1.computed == r2.computed
    assert r1.details == r2.details


def test_coverage_cache_consistency():
    F = make_field(3, 1)
    cov = min_rank2_coverage(F)
    groups, total = plane_sweep(F)
    assert total == 33880
    min_rank2 = [c for sig, c in groups.items() if sig[1] + sig[2] > 0]
    min_rank3 = [c for sig, c in groups.items() if sig[1] + sig[2] == 0]
    assert min_rank2 and min_rank3
    # at q odd every minimum-rank-2 plane lies inside a minimum-rank-2 solid
    assert all(np.isin(c, cov, assume_unique=True).all() for c in min_rank2)
    # and the coverage contains nothing of minimum rank 3
    assert not any(np.isin(c, cov, assume_unique=True).any() for c in min_rank3)


def test_line_pair_planes_match_chunked_od4_q3():
    # oracle: od4_batch per sweep chunk over every rank-1-free plane, as the
    # plane sweep computed it before od4 moved out of the sweep
    F = make_field(3, 1)
    t = tables(F)
    want = []
    for lo, hi in bulk.id_chunks(3, 3, 4096):
        block = bulk.subspace_bases(3, 3, np.arange(lo, hi))
        keep = np.flatnonzero(t.od0_batch(block)[:, 0] == 0)
        if len(keep):
            d4 = t.od4_batch(block[keep])
            want.append(lo + keep[(d4[:, 1] + d4[:, 2]) > 0])
    want = np.concatenate(want)
    ids = _ids_where(plane_sweep(F)[0], lambda sig: True)
    assert np.array_equal(ids[on_line_pair(F, ids, jobs=1)], want)
    assert np.array_equal(ids[on_line_pair(F, ids, jobs=2)], want)


# the (k, class) passes a full check set takes: those taken before the
# counts reach [6 choose k]_q.  The P2b plane pass and T3.7's P1 plane
# pass are never needed, nor the P2b line pass at odd q.  The solid passes
# are the conic passes: H3 and H2r at odd q, all four at even q, where the
# double lines span a plane of duals and so make pencils of their own
_PASSES = {3: {(2, 4), (2, 2), (3, 4), (3, 2), (4, 4), (4, 2)},
           4: {(2, 4), (2, 2), (2, 3), (3, 4), (3, 2), (4, 4), (4, 2), (4, 3), (4, 1)}}


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2)], ids=["q3", "q4"])
def test_run_checks_builds_each_pass_once(p, h, monkeypatch):
    import srd3.verify as V
    F = make_field(p, h)
    built = []
    through = V._through

    def counting(F, k, c, jobs=1):
        built.append((k, c))
        return through(F, k, c, jobs)

    monkeypatch.setattr(V, "_through", counting)
    monkeypatch.setattr(V, "_sweep_cache", {})
    _ok(run_checks(F))
    assert sorted(built) == sorted(_PASSES[F.q])
    # no cache entry of a Grassmannian-wide sweep
    assert not [key for key in V._sweep_cache if key[0] in V._SWEEP_TAGS.values()]


def _fresh_counts(F, k, jobs):
    """_counts(F, k, jobs) with its passes run again at these jobs."""
    import srd3.verify as V
    for c in _CLASS_ORDER:
        V._sweep_cache.pop(("through", k, c, id(F)), None)
    return _counts(F, k, jobs)


def _by_od0_complete(counts):
    out = {}
    for key, n in counts.items():
        if key[0] == 0:
            out[key[:4], bool(key[_COMPLETE])] = out.get((key[:4], bool(key[_COMPLETE])), 0) + n
    return out


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_counts_match_sweep(p, h):
    # the counts through one point per class against the Grassmannian-wide
    # sweep: every rank-1-free (od0, complete) family, every k and jobs
    F = make_field(p, h)
    for k in (2, 3, 4):
        groups, flags, _ = _sweep(F, k)
        want = {}
        for sig, full in flags.items():
            for c in (True, False):
                if (full == c).any():
                    want[sig, c] = int((full == c).sum())
        for jobs in (1, 2):
            assert _by_od0_complete(_fresh_counts(F, k, jobs)) == want, (k, jobs)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_line_pair_counts_match_sweep(p, h):
    # C4's two counts: rank-1-free planes on a line-pair hyperplane, and
    # those of them that are complete
    F = make_field(p, h)
    groups, flags, _ = _sweep(F, 3)
    ids = np.concatenate(list(groups.values()))
    complete = np.concatenate([flags[sig] for sig in groups])
    target = on_line_pair(F, ids)
    counts = _counts(F, 3)
    pair = {key: n for key, n in counts.items() if key[0] == 0 and key[_OD4][1] + key[_OD4][2]}
    assert sum(pair.values()) == int(target.sum())
    assert sum(n for key, n in pair.items() if key[_COMPLETE]) == int((target & complete).sum())


@pytest.mark.parametrize("p,h", [(2, 1), (2, 2)], ids=["q2", "q4"])
def test_r2n_h1_counts_match_sweep(p, h):
    # r2n, the P2n column of the counts, is the number of points of W meet
    # N, and h1 is the H1 column
    F = make_field(p, h)
    q = F.q
    mism, hist = r2n_h1_sweep(F)
    dim = {0: 0, 1: 1, q + 1: 2, q * q + q + 1: 3}
    for jobs in (1, 2):
        got = [0] * 4
        bad = 0
        for key, n in _fresh_counts(F, 3, jobs).items():
            got[dim[key[1]]] += n
            bad += n * (key[1] != key[_OD4.start])
        assert (bad, got) == (mism, hist)
    if F.q == 4:
        assert hist == [262144, 112896, 1764, 1]


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_counts_agree_through_every_class(p, h):
    # N_c n_c(key) / s_c(key) is the same number for every class c that a
    # key's subspaces meet, not only the first one, which _counts uses; the
    # unfiltered passes hold every key row through x_c.  For solids that is
    # the point side of the count that _counts takes through pencils
    F = make_field(p, h)
    for k in (2, 3, 4):
        counts = _counts(F, k)
        assert sum(counts.values()) == gaussian_binomial(6, k, F.q)
        seen = 0
        for c in _CLASS_ORDER:
            size = len(point_class(F, c).codes)
            for key, n in through_unfiltered(F, k, c).items():
                assert size * n % key[c - 1] == 0
                assert size * n // key[c - 1] == counts[key], (k, c, key)
                seen += 1
        assert seen > len(counts)


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["q2", "q3", "q4", "q5"])
def test_solid_counts_agree_through_every_conic_class(p, h):
    # the dual form: N_{H_c} m_c(key) / t_c(key) is the same number for
    # every conic class c that a key's pencils contain, t_c its od4 column
    F = make_field(p, h)
    counts = _counts(F, 4)
    seen = 0
    for c in _CLASS_ORDER:
        size = _class_size(F, 4, c)
        for key, n in pencils_unfiltered(F, c).items():
            t_c = key[_OD4][c - 1]
            assert size * n % t_c == 0
            assert size * n // t_c == counts[key], (c, key)
            seen += 1
    assert seen > len(counts)


def _counted(F, c, rows, conics=False):
    """_counts' rule on the key rows of one pass of class c, a point class
    or with conics a conic class: the rows whose first class is c, each as
    N_c n / s_c."""
    k = 4 if conics else 3
    size, col = _class_size(F, k, c), _class_column(k, c)
    return {key: size * n // key[col] for key, n in rows.items()
            if next(d for d in _CLASS_ORDER if key[_class_column(k, d)]) == c}


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["q2", "q3", "q4", "q5"])
def test_probed_passes_count_as_unfiltered(p, h, monkeypatch):
    # the probe drops only subspaces that an earlier pass counts: each
    # class's counts equal those read from every key row through x_c, or
    # for solids from every pencil through h_c; the same holds for the
    # point-side solid passes of the oracle.  Small blocks make jobs=2 fork
    # and leave some blocks with no survivor
    import srd3.verify as V
    F = make_field(p, h)
    monkeypatch.setattr(V, "_block_size", lambda q, k: 512)
    for k in (2, 3, 4):
        for c in _CLASS_ORDER:
            for jobs in (1, 2):
                want = _counted(F, c, pencils_unfiltered(F, c, jobs) if k == 4
                                else through_unfiltered(F, k, c, jobs), conics=k == 4)
                assert _counted(F, c, _through(F, k, c, jobs), conics=k == 4) == want, (k, c, jobs)
    for c in _CLASS_ORDER:
        want = _counted(F, c, through_unfiltered(F, 4, c))
        assert _counted(F, c, solids_through_point(F, c)) == want, c


@pytest.mark.parametrize("p,h", [(2, 2), (5, 1)], ids=["q4", "q5"])
def test_probe_drops_what_a_pass_cannot_count(p, h):
    # every solid through a rank-2 point has a rank-3 point, and the
    # oracle's probe finds one in each at q = 5; of the planes through
    # x_P2a only a few dozen show no rank-3 point, against thousands through
    # x_c; of the pencils through h_H2r, a few show no nonsingular conic
    F = make_field(p, h)
    if F.q == 5:
        assert solids_through_point(F, 2) == {} and solids_through_point(F, 3) == {}
    assert 0 < sum(_through(F, 3, 2).values()) <= 40
    assert sum(through_unfiltered(F, 3, 2).values()) == gaussian_binomial(5, 2, F.q)
    assert 0 < sum(_through(F, 4, 2).values()) < gaussian_binomial(5, 1, F.q) // 10


def test_count_not_a_multiple_is_an_internal_error(monkeypatch):
    # a pass whose counts do not divide is a bug, never a rounded count: a
    # point pass of planes, and a conic pass of solids, where N_H3 = 234
    # and the key row picked has t_H3 not dividing 234 (n + 1)
    import srd3.verify as V
    F = make_field(3, 1)
    for k, col, size in ((3, 3, 234), (4, _OD4.start + 3, 234)):
        good = V._through(F, k, 4)
        key = next(key for key, n in good.items() if size * (n + 1) % key[col])
        monkeypatch.setattr(V, "_sweep_cache", {("through", k, 4, id(F)): {key: good[key] + 1}})
        with pytest.raises(RuntimeError, match="not a multiple"):
            _counts(F, k)


def test_count_above_the_grassmannian_is_an_internal_error(monkeypatch):
    # a pass that counts more k-subspaces than there are is a bug: s_P3 more
    # planes with one key row through x_P3 add N_P3 = 234 planes to its
    # count, and t_H3 more pencils through h_H3 add N_H3 = 234 solids
    import srd3.verify as V
    F = make_field(3, 1)
    for k, col, total in ((3, 3, 33880), (4, _OD4.start + 3, 11011)):
        good = V._through(F, k, 4)
        key = next(iter(good))
        bad = {**good, key: good[key] + key[col]}
        monkeypatch.setattr(V, "_sweep_cache", {("through", k, 4, id(F)): bad})
        with pytest.raises(RuntimeError, match=f"more than the {total} there are"):
            _counts(F, k)


def test_count_below_the_grassmannian_is_an_internal_error(monkeypatch):
    # a pass that loses a key row leaves its subspaces to no later pass, so
    # after every pass the total falls short of the planes, or the solids,
    # there are
    import srd3.verify as V
    F = make_field(3, 1)
    for k, total in ((3, 33880), (4, 11011)):
        good = V._through(F, k, 4)
        key = next(iter(good))
        bad = {k: n for k, n in good.items() if k != key}
        monkeypatch.setattr(V, "_sweep_cache", {("through", k, 4, id(F)): bad})
        with pytest.raises(RuntimeError, match=f"fewer than the {total} there are"):
            _counts(F, k)


@pytest.mark.parametrize("k", [2, 3, 4], ids=["k2", "k3", "k4"])
@pytest.mark.parametrize("p,h", [(3, 1), (2, 2), (5, 1)], ids=["q3", "q4", "q5"])
def test_counts_stop_at_the_grassmannian_total(p, h, k, monkeypatch):
    # every line and plane is counted before the P1 pass, so the counts
    # build no P1 class, and a pass needs only the Schreier tree of its
    # class, so no class holds a stabiliser yet; the solids are counted
    # through conics and build no point class at all
    import srd3.verify as V
    F = make_field(p, h)
    monkeypatch.setattr(V, "_sweep_cache", {})
    monkeypatch.setattr(tables(F), "point_class_data", {})
    counts = _counts(F, k)
    assert sum(counts.values()) == gaussian_binomial(6, k, F.q)
    built = tables(F).point_class_data
    if k == 4:
        assert not built
        return
    assert 1 not in built and 4 in built
    assert not [c for c, pc in built.items() if "stabilizer" in vars(pc)]


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["q2", "q3", "q4", "q5"])
def test_solid_counts_end_after_the_conic_passes(p, h, monkeypatch):
    # the stop rule takes the H3 and H2r passes at odd q and all four at
    # even q, where pencils of double lines need the H1 pass
    import srd3.verify as V
    F = make_field(p, h)
    monkeypatch.setattr(V, "_sweep_cache", {})
    assert sum(_counts(F, 4).values()) == gaussian_binomial(6, 4, F.q)
    want = [4, 2, 3, 1] if F.p == 2 else [4, 2]
    assert list(V._sweep_cache) == [("through", 4, c, id(F)) for c in want]


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["q2", "q3", "q4", "q5"])
def test_solid_counts_match_the_point_side_oracle(p, h):
    # the od0 rows and completeness flags of the counts through conics
    # against the old counts through points, by the first point class of
    # each key row; the solids all have a rank-3 point
    F = make_field(p, h)
    by_class = {}
    for key, n in _counts(F, 4).items():
        c = next(d for d in _CLASS_ORDER if key[d - 1])
        prefix = key[:_COMPLETE + 1]
        by_class.setdefault(c, {})[prefix] = by_class.get(c, {}).get(prefix, 0) + n
    assert solid_counts_through_points(F) == by_class
    assert list(by_class) == [4]


def _assert_pencil_keys_match_the_point_side(t, duals):
    """_keys on RREF dual bases alone against its rows on the solids they
    cut out, reduced to RREF, and those against the oracles (_assert_keys)."""
    solids = bulk.rref_batch(t.kit, bulk.nullspace_batch(t.kit, duals))[0]
    assert np.array_equal(_keys(t, duals=duals), _keys(t, solids))
    _assert_keys(t, solids)


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(["2^3/101", "3^2/1,2", "2^4/1001"]),
       c=st.sampled_from(_CLASS_ORDER), seed=st.integers(0, 2 ** 32 - 1))
def test_pencil_keys_match_the_point_side_other_moduli(spec, c, seed):
    # the key rows of the pencils through h_c, the conic of smallest code
    # of class c, on seeded runs of tail ids, over GF(8), GF(9) and GF(16)
    # each with a modulus other than the default one
    F = parse_field_spec(spec)
    t = tables(F)
    h = bulk.decode(np.array([np.argmax(t.hclass_table() == c)]), F.q, 6)[0]
    lo, end = _tail(F.q, 2)
    s = int(np.random.default_rng(seed).integers(lo, end - 48))
    _assert_pencil_keys_match_the_point_side(t, _bases_through(t.kit, h, 2, (s, s + 48)))


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "7", "8", "9", "2^3/101", "3^2/1,2",
                                  "2^4/1001"])
def test_conic_walk_reaches_every_class(spec):
    # each conic class is one orbit: the walk keeps every class and reaches
    # its census, from the conic of smallest code of each class
    F = parse_field_spec(spec)
    t = tables(F)
    reps, sizes = t.conic_orbits
    assert sizes == list(hyperplane_census(F).values())
    codes = bulk.encode(reps, F.q)
    assert t.hclass_table()[codes].tolist() == [1, 2, 3, 4]
    assert codes.tolist() == [int(np.argmax(t.hclass_table() == c)) for c in (1, 2, 3, 4)]


def test_conic_walk_rejects_a_relabelled_conic(monkeypatch):
    # one real line pair and its scalar multiples read as nonsingular: a
    # generator then moves a conic to another class, and the walk raises
    F = make_field(3, 1)
    t = GeomTables(F)
    bad = t.hclass_table().copy()
    code = np.flatnonzero(bad == 2)[-1]
    vec = bulk.decode(np.array([code]), 3, 6)
    bad[bulk.encode(t.kit.mul(np.arange(1, 3)[:, None], vec), 3)] = 4
    monkeypatch.setattr(t, "hclass_table", lambda: bad)
    with pytest.raises(ClassificationError):
        t.conic_orbits


def _assert_keys(t, bases):
    """The key rows of a block of planes or solids (RREF bases) against
    od0_batch over their points, od4_batch over their hyperplanes, those
    with a rank-1 point included, and, on the rank-1-free ones, the rank-1
    filter's rows; a subspace with a rank-1 point is not complete.  A
    solid's rows from its dual basis alone, od0 read off the conic planes,
    equal those from its RREF basis, od0 over its points."""
    rows = _keys(t, bases)
    if bases.shape[1] == 4:
        assert np.array_equal(_keys(t, duals=bulk.nullspace_batch(t.kit, bases)), rows)
    keep, want = keys_filtered(t, bases)
    assert rows.shape == (len(bases), _OD4.stop)
    assert np.array_equal(rows[:, :4], t.od0_batch(bases))
    assert np.array_equal(rows[:, _OD4], t.od4_batch(bases))
    assert np.array_equal(rows[keep, :_COMPLETE + 1], want)
    rank1 = np.ones(len(bases), dtype=bool)
    rank1[keep] = False
    assert (rows[rank1, 0] > 0).all() and (rows[rank1, _COMPLETE] == 0).all()


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_solid_keys_match_oracles_on_every_solid(p, h):
    F = make_field(p, h)
    t = tables(F)
    for lo, hi in bulk.id_chunks(F.q, 4, 4096):
        _assert_keys(t, bulk.subspace_bases(F.q, 4, np.arange(lo, hi)))


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_plane_keys_match_oracles_on_every_plane(p, h):
    # od4 is filled on the planes with a rank-1 point too, and the
    # completeness flags are the sweep's, read by plane id
    F = make_field(p, h)
    t = tables(F)
    groups, flags, _ = _sweep(F, 3)
    ids = np.concatenate(list(groups.values()))
    complete = np.zeros(gaussian_binomial(6, 3, F.q), dtype=bool)
    complete[ids] = np.concatenate([flags[sig] for sig in groups])
    for lo, hi in bulk.id_chunks(F.q, 3, 4096):
        bases = bulk.subspace_bases(F.q, 3, np.arange(lo, hi))
        _assert_keys(t, bases)
        assert np.array_equal(_keys(t, bases)[:, _COMPLETE], complete[lo:hi])


def _solids_through(F, c, seed, chunks, size):
    """Solids through the class-c point of smallest code (PointClass's x_c,
    read off class_code): chunks seeded runs of size tail ids each."""
    t = tables(F)
    x = bulk.decode(np.array([np.argmax(t.class_code == c)]), F.q, 6)[0]
    lo, end = _tail(F.q, 4)
    starts = np.random.default_rng(seed).integers(lo, end - size, chunks)
    return np.concatenate([_bases_through(t.kit, x, 4, (s, s + size)) for s in starts])


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13, 16])
def test_solid_keys_match_oracles_through_each_class(q):
    F = parse_field_spec(str(q))
    for c in _CLASS_ORDER:
        _assert_keys(tables(F), _solids_through(F, c, q * 10 + c, chunks=4, size=64))


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(["2^3/101", "3^2/1,2", "2^4/1001"]),
       c=st.sampled_from(_CLASS_ORDER), seed=st.integers(0, 2 ** 32 - 1))
def test_solid_keys_match_oracles_other_moduli(spec, c, seed):
    # GF(8), GF(9) and GF(16) each with a modulus other than the default one
    F = parse_field_spec(spec)
    _assert_keys(tables(F), _solids_through(F, c, seed, chunks=2, size=32))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_meet_point_rule_matches_class_code(q):
    # the nonzero points alpha v(u1) + beta (v(u1+u2) - v(u1) - v(u2)) +
    # gamma v(u2) of the conic plane of every line <u1, u2> have the class
    # of (alpha, beta, 0, gamma, 0, 0), the same form on the line x2 = 0,
    # which conic_table reads as the MEET type plus one
    F = parse_field_spec(str(q))
    t = tables(F)
    v1, v2, v12 = (t.v6[t.conic_lines[:, i]] for i in range(3))
    planes = np.stack([v1, t.kit.sub(t.kit.sub(v12, v1), v2), v2], axis=1)
    abc = bulk.decode(np.arange(1, q ** 3), q, 3)
    cls = t.class_code[bulk.combine(t.kit, abc, planes)]
    on_x2 = np.zeros((len(abc), 6), dtype=np.uint8)
    on_x2[:, [0, 1, 3]] = abc
    want = t.class_code[bulk.encode(on_x2, q)]
    assert np.array_equal(cls, np.broadcast_to(want, cls.shape))
    assert (want > 0).all() and (want < 4).all()


# every field with point tables up to q = 9, GF(8) and GF(9) each with a
# modulus other than the default one (x^3+x^2+1 and x^2+x+2)
THROUGH_FIELDS = ["2", "3", "4", "5", "7", "2^3/101", "3^2/1,2"]


def _point(F, c):
    return bulk.decode(point_class(F, c).codes[:1], F.q, 6)[0]


def _tail(q, k):
    """The ids of the (k-1)-subspaces whose pivots avoid column 0, [lo, end)."""
    end = gaussian_binomial(6, k - 1, q)
    return end - gaussian_binomial(5, k - 1, q), end


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(THROUGH_FIELDS), c=st.sampled_from(_CLASS_ORDER),
       k=st.integers(2, 4), data=st.data())
def test_bases_through_match_elimination(spec, c, k, data):
    # the RREF written directly against x stacked over the same U and
    # eliminated, row for row, on slices that cross U's pivot patterns
    F = parse_field_spec(spec)
    kit = bulk.kit_for(F)
    x = _point(F, c)
    j = int(np.argmax(x != 0))
    lo, end = _tail(F.q, k)
    # pattern boundaries inside the tail (id_chunks never crosses one)
    cuts = [hi for _, hi in bulk.id_chunks(F.q, k - 1, end) if lo < hi < end]
    cut = data.draw(st.sampled_from(cuts))
    chunk = (max(lo, cut - data.draw(st.integers(1, 60))),
             min(end, cut + data.draw(st.integers(1, 60))))
    got = _bases_through(kit, x, k, chunk)
    want = spans_through_eliminate(kit, x, k, chunk, [*range(1, j + 1), 0, *range(j + 1, 6)])
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(bulk.subspace_ids(F.q, got), bulk.subspace_ids(F.q, want))


@pytest.mark.parametrize("spec,k", [(s, k) for s in ("2", "3", "4") for k in (2, 3, 4)]
                         + [("5", 3), ("7", 2), ("2^3/101", 2), ("3^2/1,2", 2)])
def test_bases_through_cover_the_same_subspaces(spec, k):
    # over the whole tail, the same k-subspaces as the old construction
    # (columns 0 and j swapped, then elimination): every one through x once
    F = parse_field_spec(spec)
    kit = bulk.kit_for(F)
    tail = _tail(F.q, k)
    for c in _CLASS_ORDER:
        x = _point(F, c)
        got = bulk.subspace_ids(F.q, _bases_through(kit, x, k, tail))
        want = bulk.subspace_ids(F.q, spans_through_eliminate(kit, x, k, tail))
        assert len(np.unique(got)) == len(got) == gaussian_binomial(5, k - 1, F.q)
        assert np.array_equal(np.sort(got), np.sort(want)), (c, k)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([0, 1, 2, 3, 40, 500]), m=st.integers(1, 11),
       hi=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_row_counts_match_unique(n, m, hi, seed):
    keys = np.random.default_rng(seed).integers(0, hi, (n, m), dtype=np.int64)
    rows, counts = _row_counts(keys)
    want_rows, want_counts = np.unique(keys, axis=0, return_counts=True)
    assert rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(counts, want_counts)


def test_empty_block_contributes_nothing():
    # at odd q two double lines span a pencil with line pairs in it, so the
    # probe shows a conic of an earlier class in every pencil through h_H1
    # and each block of the H1 pass has no key row
    F = make_field(3, 1)
    assert _through(F, 4, 1) == {}
    t = tables(F)
    empty = np.zeros((0, 2, 6), dtype=np.uint8)
    chunks = [(0, 0), _tail(3, 2)]
    h = t.conic_orbits[0][3]
    got = _histogram(t, 4, chunks, lambda ch: _keys(
        t, duals=empty if ch == (0, 0) else _bases_through(t.kit, h, 2, ch)), 1)
    assert got == _through(F, 4, 4)


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2)], ids=["q3", "q4"])
def test_small_blocks_fork_and_count_the_same(p, h, monkeypatch):
    # default blocks hold a whole pass at q <= 4, so _pmap never forks; with
    # small blocks the chunks cross the pivot patterns of U, or of the
    # points u of the pencils, and jobs=2 forks.  Every pencil of a block
    # gets one key row
    import srd3.verify as V
    F = make_field(p, h)
    want = {k: _counts(F, k) for k in (2, 3, 4)}
    monkeypatch.setattr(V, "_block_size", lambda q, k: 24)
    chunks, pencil_blocks = [], []
    histogram, keys = V._histogram, V._keys

    def recording_histogram(t, k, cs, keys_of, jobs):
        chunks.extend((k, ch) for ch in cs)
        return histogram(t, k, cs, keys_of, jobs)

    def recording_keys(t, bases=None, duals=None):
        rows = keys(t, bases, duals)
        if bases is None:
            pencil_blocks.append((len(duals), len(rows)))
        return rows

    monkeypatch.setattr(V, "_histogram", recording_histogram)
    monkeypatch.setattr(V, "_keys", recording_keys)
    for jobs in (1, 2):
        monkeypatch.setattr(V, "_sweep_cache", {})
        for k in (2, 3, 4):
            assert _counts(F, k, jobs) == want[k], (k, jobs)
        if jobs == 1:
            assert pencil_blocks and all(n == rows for n, rows in pencil_blocks)
    # the blocks of lines and planes are ranges of U's ids, those of the
    # pencils ranges of u's
    cuts = {k: [hi for _, hi in bulk.id_chunks(F.q, d, gaussian_binomial(6, d, F.q))]
            for k, d in ((2, 1), (3, 2), (4, 1))}
    for k in (2, 3, 4):
        crossing = [(lo, hi) for kk, (lo, hi) in chunks if kk == k
                    and any(lo < cut < hi for cut in cuts[k])]
        assert crossing, k


def test_golden_counts_q5():
    F = make_field(5, 1)
    solids = _tally(_counts(F, 4), _rank1_free)
    assert sorted(solids.values()) == [7750, 46500, 93000]
    # the Grassmannian-wide plane sweep's rank-1-free (od0, complete) groups
    assert _by_od0_complete(_counts(F, 3)) == {
        ((0, 0, 0, 31), True): 8000, ((0, 1, 1, 29), False): 93000,
        ((0, 2, 2, 27), False): 465000, ((0, 3, 3, 25), False): 372000,
        ((0, 4, 4, 23), False): 465000, ((0, 5, 0, 26), False): 186000,
        ((0, 5, 5, 21), False): 93000, ((0, 6, 1, 24), False): 193750,
        ((0, 6, 6, 19), False): 62000, ((0, 8, 3, 20), False): 9300,
        ((0, 10, 0, 21), False): 46500, ((0, 15, 0, 16), False): 3875}


def _exact_run(F):
    """run_checks(F) by check id; every row passes, and every row but the
    discrepancy row is exact."""
    reports = {r.check_id: r for r in _ok(run_checks(F))}
    statuses = {cid: r.status for cid, r in reports.items()}
    assert statuses.pop("CR3-OD4") == DISCREPANCY
    assert set(statuses.values()) == {PASS}
    return reports


def test_exact_goldens_q7():
    r = _exact_run(make_field(7, 1))
    assert set(r) == {"censuses", "tables", "T3.2", "T3.10", "T3.12", "T3.21",
                      "C4", "Y03q", "CR3-OD4"}
    assert sorted(r["T3.2"].details["group_sizes"].values()) == [58653, 703836, 1407672]
    assert r["T3.21"].details["min_rank3_planes"] == 65856


def test_exact_goldens_q8():
    r = _exact_run(make_field(2, 3))
    assert set(r) == {"censuses", "tables", "T3.3", "T3.4", "T3.8", "T3.7", "T3.10",
                      "T3.14", "T3.21", "C4", "Y03q", "CR3-OD4"}
    assert sorted(r["T3.3"].details["group_sizes"].values()) == [130816, 2060352, 4120704]
    for cid, n in (("T3.4", 511), ("T3.8", 85848)):
        assert r[cid].details["matching_planes"] == r[cid].details["orbit_size"] == n
    assert r["T3.7"].details["intersection_dim_histogram"] == [134217728, 21827584, 42632, 1]
    assert r["T3.10"].details["complete_planes"] == r["T3.10"].details["family_size"] == 86360
    assert r["T3.21"].details["min_rank3_planes"] == 75264


def test_render_formats():
    reports = verify_censuses(make_field(3, 1))
    assert "censuses" in render(reports, "json")
    assert "| censuses |" in render(reports, "md")
    assert render(reports, "csv").startswith("id,field,expected")
    with pytest.raises(ValueError):
        render(reports, "xml")
