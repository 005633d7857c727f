"""Benchmark for srd3: the verify sweeps and single-code classification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition runs in a fresh
interpreter (perfbench/child.py), one process, jobs=1.  Repetitions repeat
until S seconds of timed phase have passed (at least one).  Every output is
checked against the oracle (perfbench/oracle.py).  The last line of stdout
is one JSON object: correct, attempted, failed and metrics; end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  Details, the
machine and the span file go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen_codes  # noqa: E402
import oracle  # noqa: E402

SOLIDS_Q5 = ["censuses", "tables", "T3.2"]
VERIFY_Q4 = ["censuses", "tables", "T3.3", "T3.4", "T3.8", "T3.7", "T3.10",
             "T3.14", "T3.21", "C4", "Y03q", "CR3-OD4"]
WORKLOADS = {
    "verify-q4": {"kind": "verify", "q": 4, "fields": ["4"], "ids": VERIFY_Q4,
                  "argv": ["verify", "--field", "4"]},
    "solids-q5": {"kind": "verify", "q": 5, "fields": ["5"], "ids": SOLIDS_Q5,
                  "argv": ["verify", "--field", "5", "--theorem", "censuses",
                           "--theorem", "tables", "--theorem", "T3.2"]},
    "classify-codes": {"kind": "classify",
                       "fields": [oracle.field(q).spec for q in gen_codes.FIELDS]},
}
# setup_s is the median of SETUP_SAMPLES fresh-interpreter setups: each
# repetition's own, and set-up-only processes taken half before and half
# after the repetitions, so the samples span the run.
SETUP_SAMPLES = 5
# A run ends within 180 s: no repetition starts that would end past
# RUN_LIMIT_S at the pace of the slowest so far, and every child is killed
# at DEADLINE_S.
RUN_LIMIT_S = 150
DEADLINE_S = 175
_STARTED = time.perf_counter()


def _child(root: Path, out: Path, spec: dict) -> dict:
    path = out / "child-spec.json"
    spec = dict(spec, root=str(root), result_path=str(out / "child-result.json"))
    path.write_text(json.dumps(spec), encoding="utf-8")
    Path(spec["result_path"]).unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(path)],
                          cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, DEADLINE_S - (time.perf_counter() - _STARTED)))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))


def _machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def _layer_metrics(layers: dict, names: list[str]) -> dict[str, float]:
    out = {}
    for name in names:
        if name == "verify.solid_groups.kept_ratio":
            g = layers.get("verify.solid_groups", {})
            out[name] = g.get("kept", 0) / g["swept"] if g.get("swept") else 0.0
            continue
        layer, stat = name.rsplit(".", 1)
        out[name] = layers.get(layer, {}).get(stat, 0)
    return out


def _repetition(args, root: Path, out: Path, base: dict, index: int, trace: bool):
    """One repetition in a fresh interpreter, with its outputs checked.
    Returns (child result, attempted, failed, problems, latencies)."""
    w = WORKLOADS[args.workload]
    spec = dict(base, mode="run", rep=index, trace=trace)
    if w["kind"] == "verify":
        report_path = out / "verify-report.json"
        report_path.unlink(missing_ok=True)
        spec["argv"] = w["argv"] + ["--jobs", "1", "--format", "json",
                                    "--out", str(report_path)]
        rep = _child(root, out, spec)
        report = (json.loads(report_path.read_text(encoding="utf-8"))
                  if report_path.exists() else [])
        missing, problems = checks.check_verify(w["q"], w["ids"], rep["exit_code"], report)
        return rep, len(w["ids"]), missing, problems, [rep["wall_s"]]
    codes = gen_codes.round_codes(args.seed, index)
    spec["codes"] = [c["json"] for c in codes]
    rep = _child(root, out, spec)
    failed, problems = checks.check_codes(codes, rep["outputs"])
    return rep, len(codes), failed, problems, rep["latencies_s"]


def run(args, root: Path) -> dict:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out / f"{tag}.spans.jsonl"
    spans_path.unlink(missing_ok=True)
    base = {"kind": w["kind"], "fields": w["fields"], "spans_path": str(spans_path)}

    setup = dict(base, mode="setup", trace=False)
    setups = [] if args.trace else [_child(root, out, setup)["setup_s"]
                                    for _ in range(SETUP_SAMPLES // 2)]
    reps, latencies, problems = [], [], []
    attempted = failed = 0
    while True:
        rep, a, f, bad, lat = _repetition(args, root, out, base, len(reps), bool(args.trace))
        reps.append(rep)
        attempted += a
        failed += f
        problems += bad
        latencies += lat
        timed = sum(r["wall_s"] for r in reps)
        elapsed = time.perf_counter() - _STARTED
        if timed >= args.seconds or elapsed + max(r["wall_s"] for r in reps) > RUN_LIMIT_S:
            break
    wall = statistics.median(r["wall_s"] for r in reps)

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        per_rep = [_layer_metrics(r["layers"], names) for r in reps]
        values = {n: statistics.median(m[n] for m in per_rep) for n in names
                  if not n.startswith("trace.")}
        values["trace.wall_s"] = wall
        values["trace.spans"] = statistics.median(r["spans"] for r in reps)
        values["trace.overhead_s"] = wall - _untraced_wall(args, root, out, base)
        wanted = bench["per_layer"]
    else:
        setups += [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_child(root, out, setup)["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "op_p90_ms": 1000 * _percentile(latencies, 0.9),
            "setup_samples_s": setups,
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(), "repetitions": len(reps),
        "latencies_s": latencies, "values": values, "problems": problems,
        "result": result}, indent=1), encoding="utf-8")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def _untraced_wall(args, root: Path, out: Path, base: dict) -> float:
    """Median untraced wall_s of this workload from earlier runs in this
    checkout; one untraced repetition is made if there is none."""
    walls = [json.loads(p.read_text(encoding="utf-8"))["values"]["wall_s"]
             for p in out.glob(f"{args.workload}-seed*-trace0.json")]
    if walls:
        return statistics.median(walls)
    return _repetition(args, root, out, base, 0, False)[0]["wall_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "srd3" / "__init__.py").is_file():
        print("error: run from the root of an srd3 source checkout (no src/srd3 here)",
              file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
