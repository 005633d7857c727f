"""Seeded input generator for the classify-codes workload.

Each generated code is a random congruence image A M A^T, in a random
basis, of a catalogued representative of minimum distance >= 2 at
q = 3, 4 or 5.  The congruence action and the basis change are done in the
oracle's own GF(q) arithmetic, and the field is written with its modulus
spelled out, so element codes mean the same to the program.  The program
receives only the JSON text.

    python3 perfbench/gen_codes.py --seed 7 [--round 0]

prints one JSON object per line: the code's "json" text and the invariants
the benchmark expects ("expect"), which follow from the representative's
class because every invariant checked is congruence invariant.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

FIELDS = (3, 4, 5)
# Images of each representative in one round, by q: 12 representatives at
# q=3, 15 at q=4 and 12 at q=5 give 126 codes, so the 90th percentile of a
# round's latencies has twelve codes beyond it.
IMAGES = {3: 7, 4: 2, 5: 1}

# Entries (y0..y5) as linear forms in x, y, z, t, as printed in the paper's
# tables.  "d" is a nonsquare; any other parameter is resolved by the first
# assignment, in field order, whose rank signature matches the class.
_LINES_EVEN = {
    "o12_1": (".", "x", ".", ".", "y", "."),
    "o12_3": (".", "x", ".", "x+y", "y", "."),
    "o13_1": (".", "x", ".", "y", ".", "-y"),
    "o13_3": (".", "x", ".", "x+y", ".", "y"),
    "o14_1": ("x", ".", ".", "-x-y", ".", "y"),
    "o16_1": (".", ".", "x", "x", "y", "."),
    "o16_3": (".", ".", "x", "x", "y", "y"),
}
_LINES_ODD = {
    "o12_1": (".", "x", ".", ".", "y", "."),
    "o13_1": (".", "x", ".", "y", ".", "-y"),
    "o13_2": (".", "x", ".", "y", ".", "-d*y"),
    "o14_1": ("x", ".", ".", "-x-y", ".", "y"),
    "o14_2": ("x", ".", ".", "-d*x-d*y", ".", "y"),
    "o16_1": (".", ".", "x", "x", "y", "."),
}
_SOLIDS_EVEN = {
    "Omega7": ("x", "y", "z", "x+g*y", "t", "y"),
    "Omega13": ("x", "y", "z", "g*x+y", "t", "g*x+z"),
    "Omega14": ("x", "y", "g*x+y+g*t", "g*x+y", "z", "t"),
}
_SOLIDS_ODD = {
    "Omega8_2": (".", "x", "y", "d*z", "t", "z"),
    "Omega14_2": ("d*x", "y", "z", "x", "t", "d*x"),
    "Omega15_2": ("x", "y", "z", "-v*x", "t", "-y+u*v*x"),
}
_PLANES_EVEN = {
    "Sigma_N": (".", "x", "y", ".", "z", "."),
    "Sigma_16": (".", "x", "z", "z", "y", "."),
}
_VARS = "xyzt"


class Rep:
    """A representative: its basis as 6-vectors and the class it is in."""

    def __init__(self, rid: str, basis, label: str, complete: bool):
        self.rid, self.basis = rid, [tuple(b) for b in basis]
        self.label, self.complete = label, complete


def _eval(F: oracle.Field, expr: str, params: dict[str, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    if expr == ".":
        return out
    for term in expr.replace("-", "+-").split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        *factors, var = term.lstrip("-").split("*")
        coef = 1
        for name in factors:
            coef = F.mul(coef, params[name])
        out[var] = F.add(out.get(var, 0), F.neg(coef) if neg else coef)
    return out


def _basis(F: oracle.Field, entries, params) -> list[tuple[int, ...]]:
    table = [_eval(F, e, params) for e in entries]
    nvars = len({v for t in table for v in t})
    return [tuple(t.get(v, 0) for t in table) for v in _VARS[:nvars]]


def _point_ranks(F: oracle.Field, basis) -> tuple[int, int, int]:
    """(r1, r2, r3) over the projective points of the span."""
    counts = [0, 0, 0, 0]
    for c in oracle.projective_points(F.q, len(basis)):
        counts[oracle.sym_rank(F, oracle.combination(F, c, basis))] += 1
    return tuple(counts[1:])


def _resolve(F: oracle.Field, entries, want_r3: int | None) -> list[tuple[int, ...]]:
    names = sorted({f for e in entries for t in e.replace("-", "+").split("+")
                    for f in t.split("*")[:-1]})
    fixed = {}
    if "d" in names:
        fixed["d"] = next(a for a in range(1, F.q) if not F.is_square(a))
    free = [n for n in names if n not in fixed]
    for values in itertools.product(range(1, F.q), repeat=len(free)):
        params = dict(fixed, **dict(zip(free, values)))
        basis = _basis(F, entries, params)
        if oracle.rank_of(F, basis) != len(basis):
            continue
        r1, _, r3 = _point_ranks(F, basis)
        if r1 == 0 and (want_r3 is None or r3 == want_r3):
            return basis
    raise ValueError(f"no parameters give the class of {entries}")


def sigma_gf(F: oracle.Field) -> list[tuple[int, ...]]:
    """Gram matrices of (a, b) -> Tr(c a b) on GF(q^3), c over a basis."""
    E = oracle.Ext3(F)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rows = []
    for c in basis:
        rows.append(tuple(E.trace(E.mul(c, E.mul(basis[i], basis[j])))
                          for i in range(3) for j in range(i, 3)))
    return rows


def _sigma_tf(F: oracle.Field, gf) -> list[tuple[int, ...]]:
    """The polar of the trace-form plane under <A, B> = tr(AB) (q odd)."""
    two = F.add(1, 1)
    gram = (1, two, two, 1, two, 1)
    scaled = [tuple(F.mul(g, x) for g, x in zip(gram, row)) for row in gf]
    return oracle.nullspace(F, scaled, 6)


def _sigma_18(F: oracle.Field) -> list[tuple[int, ...]]:
    """A plane through one nucleus-plane point whose other points all have
    rank 3: point-orbit distribution [0, 1, 0, q^2+q] (q even)."""
    q = F.q
    P = (0, 1, 0, 0, 0, 0)
    rank3 = [y for y in oracle.projective_points(q, 6) if oracle.sym_rank(F, y) == 3]
    rng = random.Random(18)
    while True:
        basis = [P] + rng.sample(rank3, 2)
        if oracle.rank_of(F, basis) == 3 and _point_ranks(F, basis) == (0, 1, q * q + q):
            return basis


@lru_cache(maxsize=None)
def representatives(q: int) -> tuple[oracle.Field, tuple[Rep, ...]]:
    """The catalogued representatives of minimum distance >= 2 at q."""
    F = oracle.field(q)
    even = q % 2 == 0
    sigs = oracle.solid_signatures(q)
    reps = []
    for rid, entries in (_LINES_EVEN if even else _LINES_ODD).items():
        reps.append(Rep(rid, _resolve(F, entries, None), "NotComplete", False))
    for rid, entries in (_SOLIDS_EVEN if even else _SOLIDS_ODD).items():
        reps.append(Rep(rid, _resolve(F, entries, sigs[rid][3]), rid, True))
    if even:
        for rid, entries in _PLANES_EVEN.items():
            reps.append(Rep(rid, _basis(F, entries, {}), rid, True))
        reps.append(Rep("Sigma_18", _sigma_18(F), "Sigma_18", True))
    gf = sigma_gf(F)
    reps.append(Rep("o17", gf[:2], "NotComplete", False))
    reps.append(Rep("Sigma_GF", gf, "GF_type", True))
    if not even:
        reps.append(Rep("Sigma_TF", _sigma_tf(F, gf), "TF_type", True))
    return F, tuple(reps)


def _random_invertible(F: oracle.Field, n: int, rng: random.Random):
    while True:
        A = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        if oracle.rank_of(F, A) == n:
            return A


def _congruence(F: oracle.Field, A, y) -> tuple[int, ...]:
    """A M A^T for the symmetric matrix M of y."""
    M = oracle.as_mat(y)
    AM = [[oracle.dot(F, A[i], [M[k][j] for k in range(3)]) for j in range(3)]
          for i in range(3)]
    return oracle.as_vec([[oracle.dot(F, AM[i], A[j]) for j in range(3)] for i in range(3)])


def image(F: oracle.Field, basis, rng: random.Random) -> list[tuple[int, ...]]:
    """A random congruence image of the span of basis, in a random basis."""
    A = _random_invertible(F, 3, rng)
    moved = [_congruence(F, A, y) for y in basis]
    B = _random_invertible(F, len(basis), rng)
    return [oracle.combination(F, row, moved) for row in B]


def round_codes(seed: int, index: int) -> list[dict]:
    """Round `index` of the stream for `seed`: IMAGES[q] random images of
    every representative at q, in a seeded order."""
    rng = random.Random(seed * 1_000_003 + index)
    out = []
    for q in FIELDS:
        F, reps = representatives(q)
        for rep in reps:
            for _ in range(IMAGES[q]):
                basis = image(F, rep.basis, rng)
                text = json.dumps({"field": F.spec,
                                   "basis": [oracle.as_mat(y) for y in basis]})
                out.append({"q": q, "rep": rep.rid, "json": text,
                            "label": rep.label, "is_complete": rep.complete})
    rng.shuffle(out)
    return out


def expected(code: dict) -> dict:
    """The invariants describe() must report for a generated code: the
    rank distribution and distance by enumerating every codeword, the rest
    from the representative's class and the paper's dimension bound."""
    q = code["q"]
    F = oracle.field(q)
    basis = [oracle.as_vec(M) for M in json.loads(code["json"])["basis"]]
    dist = oracle.code_rank_distribution(F, basis)
    d = oracle.min_distance(dist)
    return {"dim": len(basis), "size": q ** len(basis), "min_distance": d,
            "rank_distribution": list(dist), "is_msrd": len(basis) == oracle.dim_bound(d),
            "is_complete": code["is_complete"], "label": code["label"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    args = ap.parse_args(argv)
    for code in round_codes(args.seed, args.round):
        print(json.dumps(dict(code, expect=expected(code))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
