"""Command line front end.

Verbs:
    atlas [emit]   --field Q [--format json|md|csv] [--out PATH]
    classify [code] --input FILE [--format ...]
    verify         --field Q [--theorem ID]... [--jobs N]
    acceptance     --fields 3,4[,...] [--jobs N]
    enumerate      --field Q --dim D [--limit N | --count-only] [--budget M]

verify counts every family exactly at every q up to 16, the range of the
point tables (invariants.TABLE_MAX_Q); a check asked for by --theorem on a
field it does not apply to (T3.4 at odd q, say) exits 2.

Exit codes: 0 all checks pass (discrepancy rows count as passing),
1 at least one failed check, 2 usage or input errors (including a field
above the supported range), reported on one line, 3 an internal error,
reported on one line (--debug shows the traceback instead).
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from srd3.gf import FieldError, parse_field_spec
from srd3.pg import BudgetExceeded
from srd3.report import render


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _atlas(args) -> int:
    from srd3.atlas import emit_atlas
    F = parse_field_spec(args.field)
    entries = emit_atlas(F)
    if args.format == "json":
        _write(json.dumps(entries, indent=2), args.out)
    elif args.format == "md":
        buf = io.StringIO()
        buf.write("| id | kind | basis | distributions |\n|---|---|---|---|\n")
        for e in entries:
            ods = f"points {e['od0']}, hyperplanes {e['od4']}"
            buf.write(f"| {e['id']} | {e['kind']} | {e['basis']} | {ods} |\n")
        _write(buf.getvalue(), args.out)
    else:
        import csv as _csv
        buf = io.StringIO()
        w = _csv.writer(buf)
        w.writerow(["id", "kind", "basis", "od0", "od4", "params"])
        for e in entries:
            params = json.dumps(e["params"]) if "params" in e else ""
            w.writerow([e["id"], e["kind"], e["basis"], e["od0"], e["od4"], params])
        _write(buf.getvalue(), args.out)
    bad = [e["id"] for e in entries
           if not (e.get("od0_match", True) and e.get("od4_match", True))]
    return 1 if bad else 0


def _classify(args) -> int:
    from srd3.codes import CodeFormatError, code_from_json, describe
    try:
        with open(args.input, "r", encoding="utf-8") as f:
            C = code_from_json(f.read())
    except OSError as e:
        print(f"error: cannot read {args.input}: {e}", file=sys.stderr)
        return 2
    except (CodeFormatError, FieldError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    d = describe(C)
    if args.format == "json":
        _write(json.dumps(d, indent=2), args.out)
    else:
        rows = [("field", d["field"]), ("dim", d["dim"]), ("size", d["size"]),
                ("min distance", d["min_distance"]),
                ("rank distribution", d["rank_distribution"]),
                ("is msrd", d["is_msrd"]), ("is complete", d["is_complete"]),
                ("label", d["label"])]
        width = max(len(k) for k, _ in rows)
        text = "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
        _write(json.dumps(d) + "\n" + text, args.out)
    return 0


def _verify(args) -> int:
    from srd3.verify import VerifyError, run_checks
    F = parse_field_spec(args.field)
    ids = args.theorem if args.theorem else None
    try:
        reports = run_checks(F, ids=ids, jobs=args.jobs)
    except VerifyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _write(render(reports, args.format), args.out)
    return 0 if all(r.ok for r in reports) else 1


def _acceptance(args) -> int:
    from srd3.acceptance import run_acceptance
    from srd3.verify import VerifyError
    qs = [s.strip() for s in args.fields.split(",") if s.strip()]
    try:
        reports = run_acceptance(qs, jobs=args.jobs)
    except VerifyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _write(render(reports, args.format), args.out)
    n_bad = sum(not r.ok for r in reports)
    print(f"{len(reports) - n_bad}/{len(reports)} checks passed", file=sys.stderr)
    return 0 if n_bad == 0 else 1


def _enumerate(args) -> int:
    import numpy as np
    from srd3 import bulk
    from srd3.pg import gaussian_binomial
    F = parse_field_spec(args.field)
    k = args.dim + 1
    n = gaussian_binomial(6, k, F.q)
    if args.count_only:
        _write(json.dumps({"field": F.spec, "projdim": args.dim, "count": n}), args.out)
        return 0
    emit = min(args.limit, n) if args.limit else n
    budget = args.budget or 10 ** 7
    if emit > budget:
        raise BudgetExceeded(emit, budget)
    bases = bulk.subspace_bases(F.q, k, np.arange(emit))
    _write(json.dumps({"field": F.spec, "projdim": args.dim, "count": n,
                       "emitted": emit, "subspaces": bases.tolist()}), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="srd3", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--debug", action="store_true",
                        help="raise internal errors with their traceback")
    sub = p.add_subparsers(dest="verb", required=True)

    pa = sub.add_parser("atlas", help="emit orbit representatives", parents=[common])
    pa.add_argument("action", nargs="?", default="emit", choices=["emit"])
    pa.add_argument("--field", required=True)
    pa.add_argument("--format", default="json", choices=["json", "md", "csv"])
    pa.add_argument("--out")
    pa.set_defaults(fn=_atlas)

    pc = sub.add_parser("classify", help="classify a code from a JSON file",
                        parents=[common])
    pc.add_argument("what", nargs="?", default="code", choices=["code"])
    pc.add_argument("--input", required=True)
    pc.add_argument("--format", default="text", choices=["json", "text"])
    pc.add_argument("--out")
    pc.set_defaults(fn=_classify)

    pv = sub.add_parser("verify", help="run verification drivers", parents=[common])
    pv.add_argument("--field", required=True)
    pv.add_argument("--theorem", action="append",
                    help="check id (repeatable); default: all applicable")
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--format", default="json", choices=["json", "md", "csv"])
    pv.add_argument("--out")
    pv.set_defaults(fn=_verify)

    pt = sub.add_parser("acceptance", help="run the acceptance matrix", parents=[common])
    pt.add_argument("--fields", default="2,3,4,5")
    pt.add_argument("--jobs", type=int, default=1)
    pt.add_argument("--format", default="md", choices=["json", "md", "csv"])
    pt.add_argument("--out")
    pt.set_defaults(fn=_acceptance)

    pe = sub.add_parser("enumerate", help="enumerate subspaces of PG(5,q)",
                        parents=[common])
    pe.add_argument("--field", required=True)
    pe.add_argument("--dim", type=int, required=True,
                    help="projective dimension (0..4)")
    pe.add_argument("--limit", type=int, default=0)
    pe.add_argument("--count-only", action="store_true")
    pe.add_argument("--budget", type=int, default=None)
    pe.add_argument("--out")
    pe.set_defaults(fn=_enumerate)
    return p


def _range_error(args) -> str | None:
    if getattr(args, "jobs", 1) < 1:
        return f"--jobs must be at least 1, got {args.jobs}"
    if getattr(args, "budget", None) is not None and args.budget < 1:
        return f"--budget must be at least 1, got {args.budget}"
    if args.verb == "enumerate" and not 0 <= args.dim <= 4:
        return f"--dim must be a projective dimension in 0..4, got {args.dim}"
    if args.verb == "acceptance" and not args.fields.replace(",", "").strip():
        return f"--fields must name at least one field, got {args.fields!r}"
    if args.verb == "enumerate" and args.limit < 0:
        return f"--limit must be at least 0, got {args.limit}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    msg = _range_error(args)
    if msg:
        print(f"error: {msg}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (FieldError, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        if args.debug:
            raise
        print(f"internal error: {type(e).__name__}: {e} "
              "(rerun with --debug for the traceback)", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
