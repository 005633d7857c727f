"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the workload, the field specs to set up, the timed phase's
inputs, whether to trace, and where to write the result.  The process
starts with srd3's per-field caches empty, as a command-line user's does.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    tracer = None
    t0 = time.perf_counter()
    import srd3.cli  # noqa: F401  (the command-line import chain)
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    from srd3.gf import parse_field_spec
    from srd3.invariants import tables
    for field in spec["fields"]:
        tables(parse_field_spec(field)).hclass_table()
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s}
    if spec["mode"] == "run":
        t1 = time.perf_counter()
        if spec["kind"] == "verify":
            from srd3 import cli
            result["exit_code"] = cli.main(spec["argv"])
        else:
            result.update(_classify(spec))
        result["wall_s"] = time.perf_counter() - t1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.spans)
        tracer.write(spec["spans_path"], spec["rep"])
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _classify(spec) -> dict:
    from srd3 import codes
    outputs, latencies = [], []
    for text in spec["codes"]:
        t = time.perf_counter()
        try:
            out = codes.describe(codes.code_from_json(text))
        except Exception as e:  # counted as a failed operation by the runner
            out = {"error": f"{type(e).__name__}: {e}"}
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
    return {"outputs": outputs, "latencies_s": latencies}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
