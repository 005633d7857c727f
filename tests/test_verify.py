"""Verification drivers at small q (the full matrix runs in the acceptance
module; here the fast paths and the plumbing)."""

from __future__ import annotations

import numpy as np
import pytest

from srd3 import bulk
from srd3.gf import make_field
from srd3.invariants import pgl3_order, stabilizer_order, tables
from srd3.report import DISCREPANCY, PASS, SAMPLED, render
from srd3.verify import (VerifyError, _ids_where, _is_orbit, _min_rank2_solid_sigs,
                         _on_line_pair, _sweep, line_sweep_completeness,
                         min_rank2_coverage, plane_sweep,
                         planes_covered_by_solids, run_checks,
                         solid_groups, verify_censuses, verify_class_counts,
                         verify_completeness_dichotomy, verify_net_corollaries,
                         verify_r2n_equals_h1, verify_rank3_od4, verify_schmidt,
                         verify_solids, verify_tables)

from oracles import line_sweep_union, rank1_free_groups_unfiltered


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
    # the rule holds on each solid group and fails on the group with one
    # id dropped, with one id of another group added, or without the
    # representative
    from srd3.atlas import representative
    F = make_field(3, 1)
    groups, _ = solid_groups(F)
    sig_to_id = _min_rank2_solid_sigs(F)
    for sig, ids in groups.items():
        W = representative(sig_to_id[sig], F)
        own = bulk.subspace_ids(3, np.array([W.rows], dtype=np.uint8))[0]
        other = next(o for s, o in groups.items() if s != sig)[0]
        dropped = ids[-1] if ids[-1] != own else ids[0]
        assert _is_orbit(ids, W)
        assert not _is_orbit(ids[ids != dropped], W)
        assert not _is_orbit(np.sort(np.append(ids, other)), W)
        assert not _is_orbit(ids[ids != own], W)


def test_t321_disjoint_needs_different_extension_counts(monkeypatch):
    # equal rank-1 counts over GF(q^3) do not separate the two orbits, so
    # neither disjointness nor the cover is claimed
    import srd3.atlas
    monkeypatch.setattr(srd3.atlas, "rank1_points_over_cubic_extension", lambda F, W: 3)
    _, d3 = verify_class_counts(make_field(3, 1))
    assert d3.computed["disjoint"] is False
    assert d3.computed["orbits_cover_all"] is False
    assert not d3.ok


def test_r2n_h1_full_q4_and_sampled():
    F = make_field(2, 2)
    r, = _ok(verify_r2n_equals_h1(F))
    assert r.status == PASS
    assert r.computed == {"mismatches": 0, "planes": 376805}
    s, = _ok(verify_r2n_equals_h1(F, budget=376804))
    assert s.status == SAMPLED
    # the sample runs in two _block_size(4, 3) blocks; the figures are
    # those of the earlier one-batch run
    assert s.computed == {"mismatches": 0}
    assert s.details == {"planes_checked": 100000,
                         "intersection_dim_histogram": [69505, 30016, 478, 1]}


def test_r2n_h1_rejects_odd():
    with pytest.raises(VerifyError):
        verify_r2n_equals_h1(make_field(3, 1))


def test_solids_sampled_q7():
    # the sample runs in blocks of _block_size(7, 4) = 5242 solids, the last
    # one partial; the figures are those of one od0_batch over all of it
    r, = _ok(verify_solids(make_field(7, 1)))
    assert r.status == SAMPLED
    assert r.computed == {"unexpected_signatures": [], "reps_in_signatures": True}
    assert r.details == {"sampled_solids": 100000, "r1_zero_in_sample": 31655}


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


def test_sampled_c4_golden_q5():
    r, = _ok(verify_net_corollaries(make_field(5, 1)))
    assert r.status == SAMPLED
    assert r.computed == {"violations": 0}
    assert r.details == {"sampled_planes": 100000, "checked": 77681}


def test_sampled_c4_golden_q8():
    # 100000 sampled planes are four _block_size(8, 3) blocks
    r, = _ok(verify_net_corollaries(make_field(2, 3)))
    assert r.status == SAMPLED
    assert r.computed == {"violations": 0}
    assert r.details == {"sampled_planes": 100000, "checked": 86708}


def test_sampled_c4_q13(monkeypatch):
    # 13^18 > 2^63: a plane written as 18 base-q digits does not fit int64,
    # its id does
    import srd3.verify as V
    monkeypatch.setattr(V, "SAMPLE_SIZE", 3000)
    r, = _ok(verify_net_corollaries(make_field(13, 1)))
    assert r.status == SAMPLED
    assert r.details["sampled_planes"] == 3000
    assert 0 < r.details["checked"] < 3000


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


def test_jobs_determinism_q3():
    import srd3.verify as V
    F = make_field(3, 1)
    V._sweep_cache.clear()
    g1, _ = solid_groups(F, jobs=1)
    V._sweep_cache.clear()
    g2, _ = solid_groups(F, jobs=2)
    assert g1.keys() == g2.keys()
    for sig in g1:
        assert np.array_equal(g1[sig], g2[sig])
    V._sweep_cache.clear()
    r1 = verify_r2n_equals_h1(make_field(2, 2), jobs=1)[0]
    r2 = verify_r2n_equals_h1(make_field(2, 2), jobs=2)[0]
    assert r1.computed == r2.computed


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
    assert np.array_equal(ids[_on_line_pair(F, ids, jobs=1)], want)
    assert np.array_equal(ids[_on_line_pair(F, ids, jobs=2)], want)


def test_each_grassmannian_swept_once_q3():
    import srd3.verify as V
    V._sweep_cache.clear()
    _ok(run_checks(make_field(3, 1)))
    tags = [key[0] for key in V._sweep_cache]
    assert tags.count("plane_sweep") == 1
    assert tags.count("solid_groups") == 1


def test_render_formats():
    reports = verify_censuses(make_field(3, 1))
    assert "censuses" in render(reports, "json")
    assert "| censuses |" in render(reports, "md")
    assert render(reports, "csv").startswith("id,field,expected")
    with pytest.raises(ValueError):
        render(reports, "xml")
