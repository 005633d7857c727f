"""Acceptance gate: the full exit-criteria matrix, one test per criterion.

Every comparison is an exact integer equality.  The matrix runs once per
session (criteria share cached passes); expect about 20 s of wall time,
dominated by the q = 8 plane passes.  One pass/fail line per
criterion row is printed as the matrix executes (visible with pytest -s, and
in the captured output otherwise).
"""

from __future__ import annotations

import pytest

from srd3.acceptance import PLAN, run_acceptance, _line

CRITERIA = {
    1: "table reproduction, q even (4 and 8)",
    2: "table reproduction, q odd (3 and 5)",
    3: "point/hyperplane censuses (q = 2,3,4,5)",
    4: "unique special plane orbits at q = 4 and 8",
    5: "r2n = h1 for every plane of PG(5,4) and PG(5,8)",
    6: "three rank-1-free solid signature groups, single orbits (q = 2,3,4,5)",
    7: "completeness dichotomy for lines and planes (q = 3,4)",
    8: "equivalence class counts, d = 2 and d = 3 (q = 3,4,5)",
    9: "trace-form plane matches the optimal distance-3 construction",
    10: "constant-rank-3 hyperplane-distribution discrepancy flagged",
    11: "property suites",
}

_lines_printed = []


@pytest.fixture(scope="module")
def matrix():
    reports = run_acceptance(["2", "3", "4", "5", "8"],
                             echo=lambda s: (_lines_printed.append(s), print(s)))
    by_criterion: dict[int, list] = {}
    for r in reports:
        by_criterion.setdefault(r.details["criterion"], []).append(r)
    return by_criterion


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(matrix, criterion):
    rows = matrix.get(criterion, [])
    assert rows, f"criterion {criterion} produced no reports"
    for r in rows:
        print(_line(criterion, r))
        assert r.ok, (
            f"criterion {criterion} ({CRITERIA[criterion]}): "
            f"{r.check_id} at q={r.field} -> {r.status}\n"
            f"expected: {r.expected}\ncomputed: {r.computed}\n"
            f"details: {r.details}")


def test_every_planned_row_ran(matrix):
    planned = {}
    for crit, fspec, ids in PLAN:
        for cid in ids:
            planned.setdefault(crit, set()).add((fspec, cid))
    for crit, rows in matrix.items():
        got = {(r.field.replace("2^2", "4").replace("2^3", "8").replace("^1", ""),
                r.check_id) for r in rows}
        for fspec, cid in planned.get(crit, set()):
            assert any(g[1] == cid and g[0] == fspec for g in got), \
                (crit, fspec, cid, got)


def test_exact_statuses(matrix):
    # every row of the matrix is exact, q = 8 included; the discrepancy row
    # carries its status
    all_rows = [r for rows in matrix.values() for r in rows]
    assert not [r.check_id for r in all_rows if r.status == "consistent (sampled)"]
    assert any(r.status == "paper-discrepancy" and r.check_id == "CR3-OD4"
               for r in all_rows)
    assert {r.check_id: r.status for r in all_rows if r.field == "2^3"} == \
        dict.fromkeys(["tables", "T3.4", "T3.8", "T3.7", "Y03q"], "pass")


def test_fields_match_plan_rows_by_field_not_spelling():
    # "2^2" is GF(4): it selects q = 4's rows, not criterion 0, and a field
    # asked for under two spellings runs once
    def rows(fields):
        return [(r.check_id, r.details["criterion"]) for r in run_acceptance(fields)]
    want = rows(["4"])
    assert want and all(crit != 0 for _, crit in want)
    assert rows(["2^2"]) == want
    assert rows(["4", "2^2"]) == want
