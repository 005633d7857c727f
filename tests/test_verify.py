"""Verification drivers at small q (the full matrix runs in the acceptance
module; here the fast paths and the plumbing)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srd3 import bulk
from srd3.gf import make_field, parse_field_spec
from srd3.invariants import pgl3_order, point_class, stabilizer_order, tables
from srd3.pg import gaussian_binomial
from srd3.report import DISCREPANCY, PASS, SAMPLED, render
from srd3.verify import (_CLASS_ORDER, _COMPLETE, _NUCLEUS_DIM, _OD4, _R2N_IS_H1,
                         VerifyError, _bases_through, _counts, _histogram,
                         _ids_where, _is_orbit, _min_rank2_solid_sigs,
                         _row_counts, _sweep, _tally, _through,
                         line_sweep_completeness, min_rank2_coverage, plane_sweep,
                         planes_covered_by_solids, run_checks,
                         solid_groups, verify_censuses, verify_class_counts,
                         verify_completeness_dichotomy, verify_net_corollaries,
                         verify_r2n_equals_h1, verify_rank3_od4, verify_schmidt,
                         verify_solids, verify_tables)

from oracles import (line_sweep_union, on_line_pair, r2n_h1_sweep,
                     rank1_free_groups_unfiltered, spans_through_eliminate,
                     through_unfiltered)


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
    groups = _tally(_counts(F, 4), lambda key: True)
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


def test_solids_sampled_q7(monkeypatch):
    # the sample runs in blocks of _block_size(7, 4) = 5242 solids, the last
    # one partial; the figures are those of one od0_batch over all of it
    _sampled_above(monkeypatch, 2)
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
    # T3.7 and C4 read one plane sample, T3.3 one solid sample
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
    assert [r.status for r in reports] == [SAMPLED] * 3
    assert sorted(drawn) == [3, 4]


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


# the (k, class) passes a full check set takes: lines, planes and solids
# through P3 and both rank-2 classes, and T3.7's planes through P1 as well
_PASSES = {3: {(2, 4), (2, 2), (2, 3), (3, 4), (3, 2), (3, 3), (4, 4), (4, 2), (4, 3)},
           4: {(2, 4), (2, 2), (2, 3), (3, 4), (3, 2), (3, 3), (3, 1),
               (4, 4), (4, 2), (4, 3)}}


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


def _fresh_counts(F, k, jobs, classes=_CLASS_ORDER[:3]):
    """_counts(F, k, jobs, classes) with its passes run again at these jobs."""
    import srd3.verify as V
    for c in classes:
        V._sweep_cache.pop(("through", k, c, id(F)), None)
    return _counts(F, k, jobs, classes)


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
    F = make_field(p, h)
    mism, hist = r2n_h1_sweep(F)
    for jobs in (1, 2):
        got = [0] * 4
        bad = 0
        for key, n in _fresh_counts(F, 3, jobs, _CLASS_ORDER).items():
            got[key[_NUCLEUS_DIM]] += n
            bad += n * (1 - key[_R2N_IS_H1])
        assert (bad, got) == (mism, hist)
    if F.q == 4:
        assert hist == [262144, 112896, 1764, 1]


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_counts_agree_through_every_class(p, h):
    # N_c n_c(key) / s_c(key) is the same number for every class c that a
    # key's subspaces meet, not only the first one, which _counts uses; the
    # unfiltered passes hold every key row through x_c
    F = make_field(p, h)
    for k in (2, 3, 4):
        counts = _counts(F, k, classes=_CLASS_ORDER)
        if k < 4:  # every line and every plane
            assert sum(counts.values()) == gaussian_binomial(6, k, F.q)
        seen = 0
        for c in _CLASS_ORDER:
            size = len(point_class(F, c).codes)
            for key, n in through_unfiltered(F, k, c).items():
                assert size * n % key[c - 1] == 0
                assert size * n // key[c - 1] == counts[key], (k, c, key)
                seen += 1
        assert seen > len(counts)


def _counted(F, c, rows):
    """_counts' rule on the key rows of one pass of class c: the rows whose
    first class is c, each as N_c n / s_c."""
    size = len(point_class(F, c).codes)
    return {key: size * n // key[c - 1] for key, n in rows.items()
            if next(d for d in _CLASS_ORDER if key[d - 1]) == c}


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["q2", "q3", "q4", "q5"])
def test_probed_passes_count_as_unfiltered(p, h, monkeypatch):
    # the probe drops only subspaces that an earlier pass counts: each
    # class's counts equal those read from every key row through x_c; small
    # blocks make jobs=2 fork and leave some blocks with no survivor
    import srd3.verify as V
    F = make_field(p, h)
    monkeypatch.setattr(V, "_block_size", lambda q, k: 512)
    for k in (2, 3, 4):
        for c in _CLASS_ORDER:
            for jobs in (1, 2):
                want = _counted(F, c, through_unfiltered(F, k, c, jobs))
                assert _fresh_counts(F, k, jobs, (c,)) == want, (k, c, jobs)


@pytest.mark.parametrize("p,h", [(2, 2), (5, 1)], ids=["q4", "q5"])
def test_probe_drops_what_a_pass_cannot_count(p, h):
    # every rank-1-free solid through a rank-2 point has a rank-3 point, and
    # the probe finds one in each at q = 5; of the planes through x_P2a only
    # a few dozen show no rank-3 point, against thousands through x_c
    F = make_field(p, h)
    if F.q == 5:
        assert _through(F, 4, 2) == {} and _through(F, 4, 3) == {}
    assert 0 < sum(_through(F, 3, 2).values()) <= 40
    assert sum(through_unfiltered(F, 3, 2).values()) == gaussian_binomial(5, 2, F.q)


def test_count_not_a_multiple_is_an_internal_error(monkeypatch):
    # a pass whose counts do not divide is a bug, never a rounded count
    import srd3.verify as V
    F = make_field(3, 1)
    good = V._through(F, 4, 4)
    key = next(iter(good))
    monkeypatch.setattr(V, "_sweep_cache", {("through", 4, 4, id(F)): {key: good[key] + 1}})
    with pytest.raises(RuntimeError, match="not a multiple"):
        _counts(F, 4)


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
    # every solid through a rank-1 point has one, so each block of the P1
    # solid pass has no key row
    F = make_field(3, 1)
    assert _through(F, 4, 1) == {}
    t = tables(F)
    empty = np.zeros((0, 4, 6), dtype=np.uint8)
    chunks = [(0, 0), _tail(3, 4)]
    x = _point(F, 4)
    got = _histogram(t, 4, chunks,
                     lambda ch: empty if ch == (0, 0) else _bases_through(t.kit, x, 4, ch), 1)
    assert got == _through(F, 4, 4)


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2)], ids=["q3", "q4"])
def test_small_blocks_fork_and_count_the_same(p, h, monkeypatch):
    # default blocks hold a whole pass at q <= 4, so _pmap never forks; with
    # small blocks the chunks cross U's pivot patterns, the pencil filter
    # empties some solid blocks, and jobs=2 forks
    import srd3.verify as V
    F = make_field(p, h)
    want = {k: _counts(F, k) for k in (2, 3, 4)}
    monkeypatch.setattr(V, "_block_size", lambda q, k: 24)
    chunks, solid_keys = [], []
    histogram, keys = V._histogram, V._keys

    def recording_histogram(t, k, cs, bases_of, jobs):
        chunks.extend((k, ch) for ch in cs)
        return histogram(t, k, cs, bases_of, jobs)

    def recording_keys(t, bases):
        keep, rows = keys(t, bases)
        if bases.shape[1] == 4:
            solid_keys.append(len(rows))
        return keep, rows

    monkeypatch.setattr(V, "_histogram", recording_histogram)
    monkeypatch.setattr(V, "_keys", recording_keys)
    for jobs in (1, 2):
        monkeypatch.setattr(V, "_sweep_cache", {})
        for k in (2, 3, 4):
            assert _counts(F, k, jobs) == want[k], (k, jobs)
        if jobs == 1:
            assert 0 in solid_keys and max(solid_keys) > 0
    cuts = {k: [hi for _, hi in bulk.id_chunks(F.q, k - 1, gaussian_binomial(6, k - 1, F.q))]
            for k in (2, 3, 4)}
    for k in (2, 3, 4):
        crossing = [(lo, hi) for kk, (lo, hi) in chunks if kk == k
                    and any(lo < cut < hi for cut in cuts[k])]
        assert crossing, k


def test_golden_counts_q5():
    F = make_field(5, 1)
    solids = _tally(_counts(F, 4), lambda key: True)
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
