"""Output checks: the program's results against the oracle's own values."""

from __future__ import annotations

import json

import gen_codes
import oracle


def _plain(x):
    """The value as it reads after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(x))


def expected_rows(q: int, ids: list[str]) -> dict[str, dict]:
    """The paper's values, as restated by the oracle, for each check id."""
    even = q % 2 == 0
    sigs = oracle.solid_signatures(q)
    classes = oracle.class_counts(q)
    cr3 = oracle.constant_rank3_od4(q)
    rows = {
        "censuses": {"points": oracle.point_census(q),
                     "hyperplanes": oracle.hyperplane_census(q)},
        "tables": {"mismatches": []},
        ("T3.3" if even else "T3.2"): {
            "n_groups": 3, "signatures": sorted(sigs.values()),
            "orbit_match": {rid: True for rid in sigs}},
        "T3.4": {"one_orbit": True, "od4_constant": True},
        "T3.8": {"one_orbit": True, "od4_constant": True},
        "T3.7": {"mismatches": 0, "planes": oracle.gaussian_binomial(6, 3, q)},
        "T3.10": ({"complete_lines": 0, "complete_planes_match_family": True,
                   "line_in_solid_example": True} if even else
                  {"complete_lines": 0, "complete_planes": 0}),
        ("T3.14" if even else "T3.12"): {
            "classes": classes["d2"], "msrd_classes": classes["d2_msrd"],
            "stray_solid_signatures": 0, "complete_lines": 0},
        "T3.21": {"classes": classes["d3"], "orbits_cover_all": True, "disjoint": True,
                  "extension_rank1_counts": oracle.extension_rank1_counts(q)},
        "C4": {"violations": 0,
               "spot": {"Sigma_16": (q + 1, 0, 0, q * q), "Sigma_GF": cr3}},
        "Y03q": {"dim": 3, "min_distance": 3, "size": q ** 3,
                 "is_msrd": True, "is_complete": True},
        "CR3-OD4": {"Sigma_GF": cr3} if even else {"Sigma_GF": cr3, "Sigma_TF": cr3},
    }
    return {cid: _plain(rows[cid]) for cid in ids}


def check_verify(q: int, ids: list[str], exit_code: int,
                 report: list[dict]) -> tuple[int, list[str]]:
    """(rows missing, problems) for one verify report."""
    want = expected_rows(q, ids)
    got = {r["check_id"]: r for r in report}
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if set(got) - set(want):
        problems.append(f"unexpected rows {sorted(set(got) - set(want))}")
    order = oracle.pgl3_order(q)
    for cid, expected in want.items():
        row = got.get(cid)
        if row is None:
            continue
        status = "paper-discrepancy" if cid == "CR3-OD4" else "pass"
        if row["status"] != status:
            problems.append(f"{cid}: status {row['status']!r}, want {status!r}")
        if row["expected"] != expected:
            problems.append(f"{cid}: expected {row['expected']} != oracle {expected}")
        det = row.get("details", {})
        sizes = list(det.get("group_sizes", {}).values()) + det.get("orbit_sizes", [])
        if "orbit_size" in det:
            sizes.append(det["orbit_size"])
        for n in sizes:
            if order % n:
                problems.append(f"{cid}: orbit of size {n} does not divide |PGL(3,{q})|")
        solids = oracle.gaussian_binomial(6, 4, q)
        if cid in ("T3.2", "T3.3") and det.get("total_solids") != solids:
            problems.append(f"{cid}: total_solids {det.get('total_solids')} != {solids}")
        if cid == "T3.10" and q % 2 == 0 and det.get("complete_planes") != det.get("family_size"):
            problems.append("T3.10: complete_planes != family_size")
    return len(set(want) - set(got)), problems


def check_codes(codes: list[dict], outputs: list[dict]) -> tuple[int, list[str]]:
    """(failed operations, problems) for one round of classify-codes."""
    failed, problems = 0, []
    for code, out in zip(codes, outputs):
        if "error" in out:
            failed += 1
            continue
        want = gen_codes.expected(code)
        got = {k: out.get(k) for k in want}
        if got != want:
            problems.append(f"{code['rep']} at q={code['q']}: got {got}, want {want}")
    return failed, problems
