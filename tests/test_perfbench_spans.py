"""The benchmark's span recorder (perfbench/spans.py) wraps srd3 functions
by name, so renaming or removing any of them breaks traced benchmark runs.
Installing it in a fresh interpreter checks that every name still exists."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
tracer = spans.Tracer()
spans.install(tracer)
from srd3 import codes
codes.describe(codes.code_from_json(
    '{{"field": "3^1", "basis": [[[1,0,0],[0,1,0],[0,0,1]]]}}'))
summary = tracer.summary()
print(json.dumps({{name: summary[name]["calls"]
                  for name in ("codes.describe", "codes.is_complete")}}))
"""


def test_spans_install_finds_every_traced_name():
    script = _SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    # describe decides completeness once
    assert calls == {"codes.describe": 1, "codes.is_complete": 1}


_DESCRIBE_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
tracer = spans.Tracer()
spans.install(tracer)
from srd3 import codes
from srd3.atlas import rep_ids, representative
from srd3.gf import parse_field_spec
from srd3.pg import Subspace
labels = []
for spec in ("3", "4", "5", "2^3/101"):
    F = parse_field_spec(spec)
    units = [Subspace(F, tuple(tuple(int(i == j) for j in range(6)) for i in range(k)))
             for k in range(1, 7)]
    for W in units + [representative(rid, F) for rid in rep_ids(F)]:
        labels.append(codes.describe(codes.SrdCode.from_subspace(W))["label"])
summary = tracer.summary()
print(json.dumps({{"describe": summary["codes.describe"]["calls"], "labels": sorted(set(labels))}}))
"""


def test_traced_describe_every_dimension():
    # every dimension 1-6 and every atlas representative at q = 3, 4, 5 and
    # on GF(8) with a non-default modulus: each combine of the one-pass
    # path (the points of the code, the images under its duals, the count
    # over GF(q^3)) is at least 2-D, as the combine wrapper needs
    script = _DESCRIBE_SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["describe"] == 4 * 6 + 32 + 35 + 32 + 35
    assert {"GF_type", "TF_type", "WholeSpace", "NotComplete"} <= set(out["labels"])


_VERIFY_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
tracer = spans.Tracer()
spans.install(tracer)
from srd3 import cli
codes = [cli.main(["verify", "--field", "3", "--theorem", "T3.2", "--theorem", "T3.21",
                   "--format", "json", "--debug"]),
         cli.main(["verify", "--field", "4", "--theorem", "T3.4", "--format", "json",
                   "--debug"])]
summary = tracer.summary()
print(json.dumps({{"exit": codes,
                  "orbit_of": summary.get("invariants.orbit_of", {{}}).get("calls", 0)}}))
"""


def test_traced_orbit_checks_run_without_orbit_search():
    # the traced wrappers read the shapes of what they wrap (bulk.combine's
    # result must be 2-D), so the one-orbit checks run under them too
    script = _VERIFY_SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"exit": [0, 0], "orbit_of": 0}


_FULL_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
tracer = spans.Tracer()
spans.install(tracer)
from srd3 import cli
codes = [cli.main(["verify", "--field", "4", "--format", "json", "--out", {out!r}, "--debug"]),
         cli.main(["verify", "--field", "5", "--theorem", "T3.2", "--format", "json",
                   "--out", {out!r}, "--debug"])]
summary = tracer.summary()
print(json.dumps({{"exit": codes,
                  "sweeps": sum(summary.get("verify." + name, {{}}).get("calls", 0)
                                for name in ("solid_groups", "plane_sweep",
                                             "line_sweep_completeness",
                                             "min_rank2_coverage"))}}))
"""


def test_traced_full_runs(tmp_path):
    # every q=4 check and the q=5 solids run under the span recorder's
    # wrappers, and none of them asks for a Grassmannian-wide sweep
    script = _FULL_SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"),
                                 out=str(tmp_path / "report.json"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"exit": [0, 0], "sweeps": 0}
