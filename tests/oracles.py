"""Scalar oracles that only the test suite calls.

Each one recomputes by brute force a fact that the package relies on
without computing it: that k_generators generate PGL(3,q) (orbit_of walks
orbits under those generators), orbit-stabiliser counts, and the polar
hyperplane of a point under the trace form.
"""

from __future__ import annotations

from typing import Iterable

from srd3.gf import FieldCtx, FieldError
from srd3.invariants import k_generators, orbit_of, pgl3_order
from srd3.pg import BudgetExceeded, Subspace, normalize_vec
from srd3.veronese import mat_mul


def group_order_bfs(F: FieldCtx, budget: int = 10 ** 6) -> int:
    """Order of the projective group generated by k_generators, by closure
    (small q only)."""
    gens = k_generators(F)

    def norm(M):
        flat = [x for row in M for x in row]
        lead = next(x for x in flat if x)
        if lead == 1:
            return tuple(flat)
        inv = F.inv(lead)
        return tuple(F.mul(inv, x) for x in flat)

    def unflat(t):
        return (t[0:3], t[3:6], t[6:9])

    start = norm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                img = norm(mat_mul(F, unflat(el), g))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        if len(seen) > budget:
            raise BudgetExceeded(len(seen), budget)
        frontier = nxt
    return len(seen)


def stabilizer_order(W: Subspace, budget: int = 2 * 10 ** 6) -> int:
    """|PGL(3,q)| / |orbit of W|."""
    orbit = orbit_of(W, budget=budget)
    order = pgl3_order(W.F.q)
    assert order % len(orbit) == 0
    return order // len(orbit)


def rho_point(F: FieldCtx, y: Iterable[int]) -> tuple[int, ...]:
    """Dual vector of the polar hyperplane of a point under the trace form
    <A, B> = trace(A B), whose Gram diagonal on the coordinates
    (a00, a01, a02, a11, a12, a22) is (1, 2, 2, 1, 2, 1)."""
    if F.p == 2:
        raise FieldError("the trace-form polarity requires odd q")
    two = F.add(1, 1)
    g = (1, two, two, 1, two, 1)
    return normalize_vec(F, tuple(F.mul(gj, x) for gj, x in zip(g, y)))
