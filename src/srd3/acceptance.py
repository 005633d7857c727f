"""The acceptance matrix: every exit criterion as an executable check.

Criteria (all exact integer comparisons, no tolerances):

     1  table reproduction, q even (q = 4 and 8)
     2  table reproduction, q odd (q = 3 and 5)
     3  point and hyperplane censuses (q = 2, 3, 4, 5)
     4  uniqueness of the two special plane orbits (q = 4 and 8)
     5  r2n = h1 for every plane of PG(5,4) and of PG(5,8)
     6  three signature groups of rank-1-free solids, each one orbit
        (q = 2, 3, 4, 5)
     7  completeness dichotomy for lines and planes (q = 3, 4)
     8  equivalence class counts for d = 2 and d = 3 (q = 3, 4, 5)
     9  the trace-form plane matches the optimal distance-3 construction
        (q = 2, 3, 4, 5, 8)
    10  constant-rank-3 hyperplane distribution discrepancy is flagged
        (q = 3, 4)
    11  property suites: action functoriality, conic/hyperplane incidence,
        polarity behaviour, exterior/interior agreement, orbit invariance,
        extension monotonicity, classification invariance
"""

from __future__ import annotations

import random
import time

from srd3 import bulk
from srd3.codes import points_of_rank_below
from srd3.gf import FieldCtx, parse_field_spec
from srd3.invariants import require_tables, tables
from srd3.report import CheckReport, make_report
from srd3.verify import run_checks

# criterion -> list of (field spec, check ids)
PLAN: list[tuple[int, str, list[str]]] = [
    (1, "4", ["tables"]), (1, "8", ["tables"]),
    (2, "3", ["tables"]), (2, "5", ["tables"]),
    (3, "2", ["censuses"]), (3, "3", ["censuses"]),
    (3, "4", ["censuses"]), (3, "5", ["censuses"]),
    (4, "4", ["T3.4", "T3.8"]), (4, "8", ["T3.4", "T3.8"]),
    (5, "4", ["T3.7"]),
    (6, "2", ["T3.3"]), (6, "3", ["T3.2"]),
    (6, "4", ["T3.3"]), (6, "5", ["T3.2"]),
    (7, "3", ["T3.10"]), (7, "4", ["T3.10"]),
    (8, "3", ["T3.12", "T3.21"]), (8, "4", ["T3.14", "T3.21"]),
    (8, "5", ["T3.12", "T3.21"]),
    (9, "2", ["Y03q"]), (9, "3", ["Y03q"]), (9, "4", ["Y03q"]), (9, "5", ["Y03q"]),
    (9, "8", ["Y03q"]),
    (10, "3", ["CR3-OD4"]), (10, "4", ["CR3-OD4"]),
    (11, "3", ["properties"]), (11, "4", ["properties"]), (11, "5", ["properties"]),
    (5, "8", ["T3.7"]),
]


def run_acceptance(fields: list[str] | None = None, jobs: int = 1,
                   echo=None) -> list[CheckReport]:
    """Run the acceptance plan restricted to the given field specs.

    Plan rows are matched by field, not by spelling, so "4" and "2^2" select
    the same rows, and a field asked for twice runs once.  A requested
    field with no row in the plan (e.g. q = 7) runs every check that
    applies to it via run_checks, as criterion 0, in order of q.  A field
    above the point tables' range is refused before any check runs.
    """
    wanted = None if fields is None else {parse_field_spec(f) for f in fields}
    for F in wanted or ():
        require_tables(F.q)
    reports: list[CheckReport] = []
    seen = set()
    for crit, fspec, ids in PLAN:
        F = parse_field_spec(fspec)
        if wanted is not None and F not in wanted:
            continue
        seen.add(F)
        for r in _run_ids(F, ids, jobs):
            r.details["criterion"] = crit
            reports.append(r)
            if echo:
                echo(_line(crit, r))
    for F in sorted((wanted or set()) - seen, key=lambda F: (F.q, F.spec)):
        for r in run_checks(F, jobs=jobs):
            r.details["criterion"] = 0
            reports.append(r)
            if echo:
                echo(_line(0, r))
    return reports


def _line(crit: int, r: CheckReport) -> str:
    mark = "PASS" if r.ok else "FAIL"
    return (f"[criterion {crit:>2}] {mark}  {r.check_id:<9} q={r.field:<5} "
            f"status={r.status:<22} {r.seconds:8.2f}s")


def _run_ids(F: FieldCtx, ids: list[str], jobs: int) -> list[CheckReport]:
    out = []
    driver_ids = [cid for cid in ids if cid != "properties"]
    if driver_ids:
        # one call so ids sharing a driver (T3.4/T3.8, T3.12/T3.21) run once
        out.extend(run_checks(F, ids=driver_ids, jobs=jobs))
    if "properties" in ids:
        out.extend(verify_properties(F))
    return out


# ---------------------------------------------------------------------------
# Criterion 11: property suites
# ---------------------------------------------------------------------------

def verify_properties(F: FieldCtx, jobs: int = 1) -> list[CheckReport]:
    from srd3.atlas import representative
    from srd3.codes import SrdCode, classify
    from srd3.invariants import exterior_by_tangents, od0, od4
    from srd3.pg import subspace_points
    from srd3.veronese import (conic_eval, delta, k_action, mat_mul, pg2_points,
                               point_rank, polarity_rho, transpose, veronese)
    t0 = time.perf_counter()
    q = F.q
    rng = random.Random(q * 1009)
    results: dict[str, bool] = {}

    def rand_gl(gen=rng):
        from srd3.pg import matrix_rank
        while True:
            A = tuple(tuple(gen.randrange(q) for _ in range(3)) for _ in range(3))
            if matrix_rank(F, A) == 3:
                return A

    # group action: (AB).P = A.(B.P); nu intertwining; rank preservation
    ok = True
    for _ in range(25):
        A, B = rand_gl(), rand_gl()
        y = tuple(rng.randrange(q) for _ in range(6))
        if not any(y):
            continue
        lhs = k_action(F, mat_mul(F, A, B), y)
        rhs = k_action(F, A, k_action(F, B, y))
        u = (1, rng.randrange(q), rng.randrange(q))
        uat = mat_mul(F, (u,), transpose(A))[0]
        ok &= lhs == rhs
        ok &= point_rank(F, lhs) == point_rank(F, y)
        ok &= k_action(F, A, veronese(F, u)) == veronese(F, uat)
    results["action_functorial"] = ok

    # conic <-> hyperplane incidence (exhaustive for q <= 4, sampled above)
    from srd3.pg import coefficient_vectors, incident
    ok = True
    pts = pg2_points(F)
    conics = list(coefficient_vectors(q, 6)) if q <= 4 else \
        [tuple(rng.randrange(q) for _ in range(6)) for _ in range(300)]
    for conic in conics:
        if not any(conic):
            continue
        d = delta(F, conic)
        for u in pts:
            on_conic = conic_eval(F, conic, u) == 0
            if on_conic != incident(F, veronese(F, u), d):
                ok = False
    results["delta_incidence"] = ok

    if F.p != 2:
        # polarity: involution, and conic planes map to tangent-type planes
        from srd3.pg import canonicalize
        ok = True
        for _ in range(100):
            k = rng.randrange(1, 6)
            rows = [[rng.randrange(q) for _ in range(6)] for _ in range(k)]
            try:
                W = canonicalize(F, rows)
            except ValueError:
                continue
            img = polarity_rho(F, W)
            ok &= polarity_rho(F, img) == W
            ok &= img.projdim == 4 - W.projdim
        if q == 3:
            # every conic plane maps to a tangent-type plane: one rank-1
            # point, no rank-3 points
            for u in pg2_points(F):
                from srd3.veronese import line_points
                conic_pts = [veronese(F, v) for v in line_points(F, u)]
                plane = canonicalize(F, conic_pts)
                img = polarity_rho(F, plane)
                ranks = [point_rank(F, p) for p in subspace_points(img)]
                ok &= ranks.count(1) == 1 and ranks.count(3) == 0
        results["polarity"] = ok

        # exterior/interior: the class table's algebraic test vs tangent
        # counting, on every rank-2 point (the first 400 above q = 5)
        t = tables(F)
        pts = points_of_rank_below(F, 3)
        cls = t.class_code[bulk.encode(pts, q)]
        rank2 = (cls == 2) | (cls == 3)
        pts, ext = pts[rank2], cls[rank2] == 2               # P2e
        if q > 5:
            pts, ext = pts[:400], ext[:400]
        results["exterior_interior_agree"] = all(
            bool(e) == exterior_by_tangents(F, tuple(int(x) for x in y))
            for e, y in zip(ext, pts))

    # distributions constant along an orbit, on 40 random images; the
    # images draw from their own generator, so the later sections keep
    # their draws
    rid = "o13_1" if F.p != 2 else "o12_3"
    W = representative(rid, F)
    base0, base4 = od0(W), od4(W)
    img_rng = random.Random(q * 1013)
    members = [k_action(F, rand_gl(img_rng), W) for _ in range(40)]
    results["od_invariant_on_orbit"] = all(od0(V) == base0 and od4(V) == base4
                                           for V in members)

    # extension is monotone and idempotent
    from srd3.codes import SrdCode, extend_to_complete, is_complete
    E12 = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    C = SrdCode.from_matrices(F, [E12])
    once = extend_to_complete(C)
    results["extension_monotone_idempotent"] = (
        once.subspace.contains(C.subspace)
        and extend_to_complete(once).subspace == once.subspace
        and is_complete(once))

    # classification is invariant under the group
    labels_ok = True
    reps = ["Sigma_GF"] + (["Omega7", "Sigma_16"] if F.p == 2 else
                           ["Omega8_2", "Omega15_2"])
    if F.p == 2 and q < 4:
        reps = ["Sigma_GF", "Omega7"]
    for rid in reps:
        W = representative(rid, F)
        want = classify(SrdCode.from_subspace(W))
        for _ in range(3):
            A = rand_gl()
            got = classify(SrdCode.from_subspace(k_action(F, A, W)))
            labels_ok &= got == want
    results["classify_invariant"] = labels_ok

    expected = {k: True for k in results}
    return [make_report(
        "properties", F.spec,
        "action functoriality, incidence equivalence, polarity behaviour, "
        "exterior/interior agreement, orbit invariance of distributions, "
        "extension monotonicity, classification invariance",
        expected, results, seconds=time.perf_counter() - t0)]

