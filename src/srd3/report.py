"""Report records for verification runs and their renderers.

Every check produces a CheckReport with exact expected/computed values
(everything in this package is an integer or a tuple of integers; there are
no tolerances anywhere).  Status semantics:

    pass                  computed == expected on a full enumeration
    fail                  computed != expected
    paper-discrepancy     the computation is internally verified but
                          disagrees with a printed closed form; counted as
                          non-failing

Each report carries the claim id it checks (e.g. "T3.8") plus a plain
description, enumeration sizes, and wall time.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field as dc_field

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"


@dataclass
class CheckReport:
    check_id: str
    field: str
    claim: str
    expected: object
    computed: object
    status: str
    seconds: float = 0.0
    details: dict = dc_field(default_factory=dict)
    flags: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in (PASS, DISCREPANCY)

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "field": self.field,
            "claim": self.claim,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "details": self.details,
            "flags": self.flags,
        }


def make_report(check_id: str, field: str, claim: str, expected, computed,
                *, discrepancy: bool = False,
                seconds: float = 0.0, details: dict | None = None,
                flags: list | None = None) -> CheckReport:
    if computed != expected:
        status = FAIL
    elif discrepancy:
        status = DISCREPANCY
    else:
        status = PASS
    return CheckReport(check_id, field, claim, expected, computed, status,
                       seconds, details or {}, flags or [])


def render_json(reports: list[CheckReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2, default=str)


def render_md(reports: list[CheckReport]) -> str:
    out = io.StringIO()
    out.write("| check | field | status | expected | computed | seconds |\n")
    out.write("|---|---|---|---|---|---|\n")
    for r in reports:
        out.write(f"| {r.check_id} | {r.field} | {r.status} | "
                  f"{_short(r.expected)} | {_short(r.computed)} | {r.seconds:.2f} |\n")
    for r in reports:
        if r.flags:
            out.write(f"\n- **{r.check_id}**: " + "; ".join(r.flags) + "\n")
    return out.getvalue()


def render_csv(reports: list[CheckReport]) -> str:
    import csv
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["id", "field", "expected", "computed", "status", "seconds"])
    for r in reports:
        w.writerow([r.check_id, r.field, _short(r.expected), _short(r.computed),
                    r.status, f"{r.seconds:.3f}"])
    return out.getvalue()


def _short(v) -> str:
    s = str(v)
    return s if len(s) <= 120 else s[:117] + "..."


def render(reports: list[CheckReport], fmt: str) -> str:
    if fmt == "json":
        return render_json(reports)
    if fmt == "md":
        return render_md(reports)
    if fmt == "csv":
        return render_csv(reports)
    raise ValueError(f"unknown format {fmt!r}")
