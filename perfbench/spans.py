"""Span recorder that wraps srd3's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent, counts) in
memory; spans are written as JSON lines when the run ends.  Self time is a
span's duration minus the time its child spans cover.  Nothing in srd3 is
edited: the wrapper replaces the function on its defining module, on every
srd3 module that imported the name, in the verify driver registry, and on
GeomTables for methods.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.t0 = _now()
        # [name, start, end, parent index, counts, time covered by children]
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None, before=None):
        """Wrap fn in a span.  count(args, result, state) returns a dict of
        counts for the span; state is before(args) taken ahead of the call."""
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = len(spans)
            spans.append([name, _now(), 0.0, stack[-1] if stack else -1, None, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[idx]
                span[2] = _now()
                if span[3] >= 0:
                    spans[span[3]][5] += span[2] - span[1]
            if count:
                spans[idx][4] = count(args, result, state)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, s (inclusive), self_s and summed counts."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _, counts, child in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child
            for k, v in (counts or {}).items():
                agg[k] = agg.get(k, 0) + v
        return out

    def write(self, path: str, rep: int) -> None:
        """Append the spans as JSON lines: [rep, id, name, start_s, end_s,
        parent id (-1 for a root), counts], times from the tracer's start."""
        t0 = self.t0
        with open(path, "a", encoding="utf-8") as f:
            for i, (name, start, end, parent, counts, _) in enumerate(self.spans):
                f.write(json.dumps([rep, i, name, round(start - t0, 7),
                                    round(end - t0, 7), parent, counts or {}],
                                   separators=(",", ":")) + "\n")


def _cache_tag(tag: str):
    """Build/hit counting for a cached sweep: a build is a call during which
    verify._sweep_cache gained a key of the sweep's own kind."""
    def keys(_args):
        return set(getattr(sys.modules["srd3.verify"], "_sweep_cache", {}))

    def built(state) -> bool:
        new = set(getattr(sys.modules["srd3.verify"], "_sweep_cache", {})) - state
        return any(k[0] == tag for k in new)

    return keys, built


def install(tracer: Tracer) -> None:
    """Patch every traced srd3 function; srd3 must be fully imported."""
    import importlib
    for name in ("acceptance", "atlas", "cli", "codes", "report", "verify"):
        importlib.import_module(f"srd3.{name}")
    from srd3 import invariants, verify

    targets: list[tuple[str, str, object, object]] = []

    def add(module, attr, count=None, before=None):
        targets.append((module, attr, count, before))

    add("gf", "parse_field_spec")
    add("invariants", "tables")
    add("invariants", "od4")
    add("invariants", "orbit_of", lambda a, r, s: {"elements": len(r)})
    add("invariants", "rank_distribution")
    add("bulk", "combine", lambda a, r, s: {"points": r.shape[0] * r.shape[1]})
    add("bulk", "rref_batch", lambda a, r, s: {"matrices": len(a[1])})
    add("bulk", "transform")
    add("bulk", "pattern_block")
    for tag, attr, extra in (
            ("solid_groups", "solid_groups",
             lambda r: {"swept": r[1], "kept": sum(len(c) for c in r[0].values())}),
            ("plane_sweep", "plane_sweep", lambda r: {}),
            ("line_sweep", "line_sweep_completeness", lambda r: {"lines": r[0]}),
            ("mr2_coverage", "min_rank2_coverage", lambda r: {})):
        keys, built = _cache_tag(tag)

        def count(a, r, s, built=built, extra=extra):
            if built(s):
                return dict(extra(r), builds=1, hits=0)
            return {"builds": 0, "hits": 1}
        add("verify", attr, count, keys)
    add("verify", "planes_covered_by_solids", lambda a, r, s: {"planes": len(r)})
    for name in dict.fromkeys(fn.__name__ for fn, _ in verify.DRIVERS.values()):
        add("verify", name)
    add("verify", "run_checks")
    add("codes", "code_from_json")
    add("codes", "describe")
    add("codes", "is_complete")
    add("codes", "classify")
    add("atlas", "rank1_points_over_cubic_extension")
    add("atlas", "emit_atlas")
    add("report", "render")

    modules = [m for n, m in sys.modules.items() if n == "srd3" or n.startswith("srd3.")]
    for module, attr, count, before in targets:
        orig = getattr(sys.modules[f"srd3.{module}"], attr)
        wrapped = tracer.wrap(f"{module}.{attr}", orig, count, before)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)
        for cid, (fn, parity) in verify.DRIVERS.items():
            if fn is orig:
                verify.DRIVERS[cid] = (wrapped, parity)

    G = invariants.GeomTables
    G.hclass_table = tracer.wrap("invariants.hclass_table", G.hclass_table)
    for meth in ("od0_batch", "od4_batch"):
        setattr(G, meth, tracer.wrap(f"invariants.{meth}", getattr(G, meth),
                                     lambda a, r, s: {"subspaces": len(a[1])}))
