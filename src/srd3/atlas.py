"""Canonical representatives of the line/plane/solid orbits.

Each representative is written as a symmetric 3x3 matrix whose entries are
linear forms in the indeterminates x, y, z, t; the subspace of PG(5,q) is
spanned by the coordinate vectors obtained by setting one indeterminate to 1
and the rest to 0, in the order (x, y, z, t).  Entries are stored as the six
upper-triangle slots (e00, e01, e02, e11, e12, e22), i.e. directly as the
coordinates y0..y5.

Some orbits need side parameters (field elements subject to conditions such
as "delta is a nonsquare" or "the cubic has no roots").  Parameters are
resolved by a deterministic first-fit scan so every emitted representative
is reproducible bit for bit; see find_params.

Expected point- and hyperplane-orbit distributions are stored as closed
formulas in q next to each representative and are what the verification
drivers check the computed distributions against.

The two constant-rank-3 planes (q odd) are told apart by the rank-1 points
of their scalar extension to GF(q^3): 3 for the trace-form plane Sigma_GF,
0 for its polar image Sigma_TF.  rank1_points_over_cubic_extension counts
them as the common zeros in PG(2, q^3) of the dual net of conics, one
numpy block of points at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from srd3.gf import FieldCtx, cubic_extension, is_square, trace2
from srd3.invariants import od0, od4, tables
from srd3.pg import (Subspace, canonicalize, nullspace, rref, subspace_points,
                     subspaces_within)
from srd3.veronese import (double_line_dual, kernel_point, nucleus_plane,
                           polarity_rho)


class AtlasError(ValueError):
    """Representative not available for this field (parity/options)."""


# ---------------------------------------------------------------------------
# Parameter search
# ---------------------------------------------------------------------------

def _quadratic_ok(F: FieldCtx, u: int, v: int, solid: bool = False) -> bool:
    """v*l^2 + u*v*l - 1 has no root l in F; v = 0 is excluded because the
    degenerate representative acquires rank-1 points.

    For the odd-q solid representatives the working condition is the same
    quadratic with u replaced by -2u: the printed solid is the trace-form
    polar of the printed line, and the polarity shifts the parameter.  The
    two conditions coincide for q = 3 (-2 = 1) and whenever u = 0, which is
    why the discrepancy only surfaces at q = 5 with u != 0.  Checked
    exhaustively; see the verification driver for the orbit cross-check.
    """
    if v == 0:
        return False
    if solid:
        u = F.neg(F.add(u, u))
    for lam in F.elements():
        l2 = F.mul(lam, lam)
        val = F.sub(F.add(F.mul(v, l2), F.mul(F.mul(u, v), lam)), 1)
        if val == 0:
            return False
    return True


def _cubic_ok(F: FieldCtx, a: int, bt: int, g: int) -> bool:
    """l^3 + g*l^2 - bt*l + a has no root l in F."""
    for lam in F.elements():
        l2 = F.mul(lam, lam)
        l3 = F.mul(l2, lam)
        val = F.add(F.sub(F.add(l3, F.mul(g, l2)), F.mul(bt, lam)), a)
        if val == 0:
            return False
    return True


def _bc_cubic_ok(F: FieldCtx, b: int, c: int) -> bool:
    """b*l^3 + c*l + 1 irreducible over F: cubic (b != 0) with no roots."""
    if b == 0:
        return False
    for lam in F.elements():
        l3 = F.mul(F.mul(lam, lam), lam)
        if F.add(F.add(F.mul(b, l3), F.mul(c, lam)), 1) == 0:
            return False
    return True


def find_params(condition: str, F: FieldCtx) -> dict[str, int]:
    """First parameter assignment satisfying a side condition.

    Scans in the fixed slot order (u, v, d, g, a, bt, b, c), each coordinate
    ascending through the field codes, so results are deterministic.

    conditions:
        delta          d not a square (q odd)
        uv0            v*l^2+u*v*l-1 rootless
        uv1            same, and -v a square (q odd adds the square side)
        uv2            same, and -v a nonsquare (q odd only)
        gamma_inv_tr1  Tr(g^-1) = 1 (q even)
        gamma_tr1      Tr(g) = 1 (q even)
        cubic          l^3 + g*l^2 - bt*l + a rootless (slots g, a, bt)
        bc_cubic       b*l^3 + c*l + 1 irreducible (q even)

    The *_solid variants (uv0_solid, ..., cubic_solid) are the same
    conditions after the parameter shift the trace polarity induces on the
    odd-q solid representatives; see _quadratic_ok.
    """
    q = F.q
    if condition == "delta":
        if F.p == 2:
            raise AtlasError("delta parameter is for odd q")
        for d in F.nonzero():
            if not is_square(F, d):
                return {"d": d}
    elif condition.startswith("uv"):
        # the square-class side conditions on -v apply only for odd q; for
        # even q the v's share the plain rootless condition
        solid = condition.endswith("_solid")
        base = condition.removesuffix("_solid")
        want_sq = {"uv0": None, "uv1": True, "uv2": False}[base]
        if F.p == 2:
            if base == "uv2":
                raise AtlasError("uv2 is an odd-q parameter")
            want_sq = None
        for u in F.elements():
            for v in F.nonzero():
                if not _quadratic_ok(F, u, v, solid=solid):
                    continue
                if want_sq is None or is_square(F, F.neg(v)) == want_sq:
                    key = base[2]
                    return {"u": u, f"v{key}": v}
        raise AtlasError(f"no (u, v) satisfies {condition} over GF({q})")
    elif condition == "gamma_inv_tr1":
        if F.p != 2:
            raise AtlasError("trace condition needs q even")
        for g in F.nonzero():
            if trace2(F, F.inv(g)) == 1:
                return {"g": g}
    elif condition == "gamma_tr1":
        if F.p != 2:
            raise AtlasError("trace condition needs q even")
        for g in F.nonzero():
            if trace2(F, g) == 1:
                return {"g": g}
    elif condition in ("cubic", "cubic_solid"):
        # cubic_solid (odd-q solids only): same rootless cubic after
        # (beta, gamma) -> (4*beta, 4*gamma); coincides with the plain
        # condition at q = 3 where 4 = 1, diverges first at q = 5
        four = F.add(F.add(1, 1), F.add(1, 1))
        tw = (lambda x: F.mul(four, x)) if condition == "cubic_solid" else (lambda x: x)
        for g in F.elements():
            for a in F.elements():
                for bt in F.elements():
                    if _cubic_ok(F, a, tw(bt), tw(g)):
                        return {"a": a, "bt": bt, "g": g, "ai": F.inv(a)}
        raise AtlasError(f"no rootless cubic over GF({q})")
    elif condition == "bc_cubic":
        for b in F.nonzero():
            for c in F.elements():
                if _bc_cubic_ok(F, b, c):
                    return {"b": b, "c": c}
        raise AtlasError(f"no irreducible b*l^3+c*l+1 over GF({q})")
    else:
        raise AtlasError(f"unknown condition {condition!r}")
    raise AtlasError(f"no assignment found for {condition} over GF({q})")


# ---------------------------------------------------------------------------
# The symbolic entry language
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z", "t")


def _eval_entry(F: FieldCtx, expr: str, params: dict[str, int]) -> dict[str, int]:
    """Parse one matrix entry into {var: coefficient}.

    Grammar: terms joined by +/-; each term is '*'-separated factors, the
    last being an indeterminate and the rest parameter names ('.' = zero).
    """
    out: dict[str, int] = {}
    if expr == ".":
        return out
    s = expr.replace("-", "+-")
    for term in s.split("+"):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        factors = term.split("*")
        var = factors[-1]
        if var not in _VARS:
            raise AtlasError(f"bad entry term {term!r} in {expr!r}")
        coef = 1
        for f in factors[:-1]:
            if f not in params:
                raise AtlasError(f"unresolved parameter {f!r} in {expr!r}")
            coef = F.mul(coef, params[f])
        if sign < 0:
            coef = F.neg(coef)
        out[var] = F.add(out.get(var, 0), coef)
    return out


def entry_rows(F: FieldCtx, entries: tuple[str, ...],
               params: dict[str, int]) -> dict[str, tuple[int, ...]]:
    """The six entries evaluated: for each indeterminate, the row of its
    coefficients."""
    table = [_eval_entry(F, e, params) for e in entries]
    return {var: tuple(t.get(var, 0) for t in table) for var in _VARS}


def _basis_from_entries(F: FieldCtx, entries: tuple[str, ...], nvars: int,
                        params: dict[str, int]) -> Subspace:
    rows = entry_rows(F, entries, params)
    W = canonicalize(F, [rows[var] for var in _VARS[:nvars]])
    if W.k != nvars:
        raise AtlasError(f"degenerate representative: rank {W.k} < {nvars}")
    return W


# ---------------------------------------------------------------------------
# Representative registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepSpec:
    """One orbit representative: entries, arity, parity, side conditions and
    the printed distribution formulas (None when the source prints none)."""
    rep_id: str
    kind: str                    # "line" | "plane" | "solid"
    parity: str                  # "even" | "odd" | "any"
    entries: tuple[str, ...]
    conditions: tuple[str, ...] = ()
    od0_formula: object = None   # callable q -> tuple
    od4_formula: object = None
    min_q: int = 2
    ambiguous_with: str | None = None


_REGISTRY: dict[tuple[str, str], RepSpec] = {}


def _add(spec: RepSpec):
    _REGISTRY[(spec.rep_id, spec.parity)] = spec


# ---- lines, q even --------------------------------------------------------

_add(RepSpec("o5", "line", "even", ("x", ".", ".", "y", ".", "."),
             od0_formula=lambda q: (2, 0, q - 1, 0),
             od4_formula=lambda q: (1, 2 * q * q + q, 0, q ** 3 - q * q)))
_add(RepSpec("o6", "line", "even", ("x", "y", ".", ".", ".", "."),
             od0_formula=lambda q: (1, 1, q - 1, 0),
             od4_formula=lambda q: (q + 1, (3 * q * q + q) // 2, (q * q - q) // 2, q ** 3 - q * q)))
_add(RepSpec("o8_1", "line", "even", ("x", ".", ".", "y", ".", "-y"),
             od0_formula=lambda q: (1, 0, 1, q - 1),
             od4_formula=lambda q: (1, q * q + 3 * q // 2, q // 2, q ** 3 - q)))
_add(RepSpec("o8_3", "line", "even", ("x", ".", ".", ".", "y", "."),
             od0_formula=lambda q: (1, 1, 0, q - 1),
             od4_formula=lambda q: (q + 1, q * q + q, 0, q ** 3 - q)))
_add(RepSpec("o9", "line", "even", ("x", ".", "y", "y", ".", "."),
             od0_formula=lambda q: (1, 0, 0, q),
             od4_formula=lambda q: (1, q * q + q, 0, q ** 3)))
_add(RepSpec("o10", "line", "even", ("v0*x", "y", ".", "x+u*y", ".", "."),
             conditions=("uv0",),
             od0_formula=lambda q: (0, 0, q + 1, 0),
             od4_formula=lambda q: (1, q * q + q, q * q, q ** 3 - q * q)))
_add(RepSpec("o12_1", "line", "even", (".", "x", ".", ".", "y", "."),
             od0_formula=lambda q: (0, q + 1, 0, 0),
             od4_formula=lambda q: (q * q + q + 1, (q * q + q) // 2, (q * q - q) // 2, q ** 3 - q * q)))
_add(RepSpec("o12_3", "line", "even", (".", "x", ".", "x+y", "y", "."),
             od0_formula=lambda q: (0, 1, q, 0),
             od4_formula=lambda q: (q + 1, q * q + q // 2, q * q - q // 2, q ** 3 - q * q)))
_add(RepSpec("o13_1", "line", "even", (".", "x", ".", "y", ".", "-y"),
             od0_formula=lambda q: (0, 1, 1, q - 1),
             od4_formula=lambda q: (q + 1, q * q // 2 + q, q * q // 2, q ** 3 - q)))
_add(RepSpec("o13_3", "line", "even", (".", "x", ".", "x+y", ".", "y"),
             od0_formula=lambda q: (0, 0, 2, q - 1),
             od4_formula=lambda q: (1, (q * q + 3 * q) // 2, (q * q + q) // 2, q ** 3 - q)))
_add(RepSpec("o14_1", "line", "even", ("x", ".", ".", "-x-y", ".", "y"),
             od0_formula=lambda q: (0, 0, 3, q - 2),
             od4_formula=lambda q: (1, q * q // 2 + 2 * q, q * q // 2 + q, q ** 3 - 2 * q)))
_add(RepSpec("o15_1", "line", "even", ("v1*y", "x", ".", "u*x+y", ".", "x"),
             conditions=("uv1",),
             od0_formula=lambda q: (0, 0, 1, q),
             od4_formula=lambda q: (1, q * q // 2 + q, q * q // 2, q ** 3),
             ambiguous_with="o16_3"))
_add(RepSpec("o16_1", "line", "even", (".", ".", "x", "x", "y", "."),
             od0_formula=lambda q: (0, 1, 0, q),
             od4_formula=lambda q: (q + 1, (q * q + q) // 2, (q * q - q) // 2, q ** 3)))
_add(RepSpec("o16_3", "line", "even", (".", ".", "x", "x", "y", "y"),
             od0_formula=lambda q: (0, 0, 1, q),
             od4_formula=lambda q: (1, q * q // 2 + q, q * q // 2, q ** 3),
             ambiguous_with="o15_1"))
_add(RepSpec("o17", "line", "even", ("ai*x", "y", ".", "bt*y-g*x", "x", "y"),
             conditions=("cubic",),
             od0_formula=lambda q: (0, 0, 0, q + 1),
             od4_formula=lambda q: (1, (q * q + q) // 2, (q * q - q) // 2, q ** 3 + q)))

# ---- solids, q even -------------------------------------------------------

_add(RepSpec("Omega1", "solid", "even", ("x", "y", "z", "t", ".", "t"),
             od0_formula=lambda q: (1, q + 1, 2 * q * q - 1, q ** 3 - q * q),
             od4_formula=lambda q: (1, q // 2, q // 2, 0)))
_add(RepSpec("Omega2", "solid", "even", ("x", "y", "z", "t", ".", "."),
             od0_formula=lambda q: (q + 1, q + 1, 2 * q * q - q - 1, q ** 3 - q * q),
             od4_formula=lambda q: (1, q, 0, 0)))
_add(RepSpec("Omega3", "solid", "even", ("x", "y", "z", ".", "t", "."),
             od0_formula=lambda q: (1, q * q + q + 1, q * q - 1, q ** 3 - q * q),
             od4_formula=lambda q: (q + 1, 0, 0, 0)))
_add(RepSpec("Omega4", "solid", "even", ("x", ".", "y", "z", ".", "t"),
             od0_formula=lambda q: (q + 2, 1, 2 * q * q - 2, q ** 3 - q * q),
             od4_formula=lambda q: (0, q + 1, 0, 0)))
_add(RepSpec("Omega5", "solid", "even", (".", "x", "y", "z", "t", "x"),
             od0_formula=lambda q: (1, q + 1, q * q - 1, q ** 3),
             od4_formula=lambda q: (1, 0, 0, q)))
_add(RepSpec("Omega6", "solid", "even", ("x", ".", "y", "z", "t", "."),
             od0_formula=lambda q: (2, q + 1, q * q + q - 2, q ** 3 - q),
             od4_formula=lambda q: (1, 1, 0, q - 1)))
_add(RepSpec("Omega7", "solid", "even", ("x", "y", "z", "x+g*y", "t", "y"),
             conditions=("gamma_inv_tr1",),
             od0_formula=lambda q: (0, q + 1, q * q + q, q ** 3 - q),
             od4_formula=lambda q: (1, 0, 1, q - 1)))
_add(RepSpec("Omega8", "solid", "even", ("x", "y", "z", "t", "z", "y"),
             od0_formula=lambda q: (3, 1, q * q + 2 * q - 3, q ** 3 - q),
             od4_formula=lambda q: (0, 2, 0, q - 1)))
_add(RepSpec("Omega9", "solid", "even", ("x", "x", "y", "z", "t", "t"),
             od0_formula=lambda q: (4, 1, q * q + 3 * q - 4, q ** 3 - 2 * q),
             od4_formula=lambda q: (0, 3, 0, q - 2)))
_add(RepSpec("Omega10", "solid", "even", ("x", "y", "z", "y+g*t", "t", "y"),
             conditions=("gamma_inv_tr1",),
             od0_formula=lambda q: (1, 1, q * q + 2 * q - 1, q ** 3 - q),
             od4_formula=lambda q: (0, 1, 1, q - 1)))
_add(RepSpec("Omega11", "solid", "even", ("x", "y", "z", "t", ".", "y"),
             od0_formula=lambda q: (2, 1, q * q + q - 2, q ** 3),
             od4_formula=lambda q: (0, 1, 0, q),
             ambiguous_with="Omega12"))
_add(RepSpec("Omega12", "solid", "even", ("x", "y", "z", "t", "g*y+z", "y"),
             conditions=("gamma_inv_tr1",),
             od0_formula=lambda q: (2, 1, q * q + q - 2, q ** 3),
             od4_formula=lambda q: (0, 1, 0, q),
             ambiguous_with="Omega11"))
_add(RepSpec("Omega13", "solid", "even", ("x", "y", "z", "g*x+y", "t", "g*x+z"),
             conditions=("gamma_tr1",),
             od0_formula=lambda q: (0, 1, q * q + 3 * q, q ** 3 - 2 * q),
             od4_formula=lambda q: (0, 1, 2, q - 2)))
_add(RepSpec("Omega14", "solid", "even", ("x", "y", "g*x+y+g*t", "g*x+y", "z", "t"),
             conditions=("gamma_tr1",),
             od0_formula=lambda q: (0, 1, q * q + q, q ** 3),
             od4_formula=lambda q: (0, 0, 1, q)))
_add(RepSpec("Omega15", "solid", "even", ("x", "y", "b*z+c*y", "z", "t", "y"),
             conditions=("bc_cubic",),
             od0_formula=lambda q: (1, 1, q * q - 1, q ** 3 + q),
             od4_formula=lambda q: (0, 0, 0, q + 1)))

# ---- solid/line pairs, q odd ---------------------------------------------
# The two printed columns are od0(solid) = od4(line) and od4(solid) = od0(line).

_ODD_PAIRS = [
    ("5", (".", "x", "y", ".", "z", "t"), ("x", ".", ".", "y", ".", "."), (),
     lambda q: (1, 2 * q * q + q, 0, q ** 3 - q * q),
     lambda q: (2, (q - 1) // 2, (q - 1) // 2, 0)),
    ("6", (".", ".", "x", "y", "z", "t"), ("x", "y", ".", ".", ".", "."), (),
     lambda q: (q + 1, (3 * q * q + q) // 2, (q * q - q) // 2, q ** 3 - q * q),
     lambda q: (1, q, 0, 0)),
    ("8_1", (".", "x", "y", "z", "t", "z"), ("x", ".", ".", "y", ".", "-y"), (),
     lambda q: (2, q * q + (3 * q - 1) // 2, (q - 1) // 2, q ** 3 - q),
     lambda q: (1, 1, 0, q - 1)),
    ("8_2", (".", "x", "y", "d*z", "t", "z"), ("x", ".", ".", "y", ".", "-d*y"), ("delta",),
     lambda q: (0, q * q + (3 * q + 1) // 2, (q + 1) // 2, q ** 3 - q),
     lambda q: (1, 0, 1, q - 1)),
    ("9", (".", "x", "y", "-y", "z", "t"), ("x", ".", "y", "y", ".", "."), (),
     lambda q: (1, q * q + q, 0, q ** 3),
     lambda q: (1, 0, 0, q)),
    ("10", ("x", "u*v0*x", "y", "-v0*x", "z", "t"), ("v0*x", "y", ".", "x+u*y", ".", "."), ("uv0",),
     lambda q: (1, q * q + q, q * q, q ** 3 - q * q),
     lambda q: (0, (q + 1) // 2, (q + 1) // 2, 0)),
    ("12_1", ("x", ".", "y", "z", ".", "t"), (".", "x", ".", ".", "y", "."), (),
     lambda q: (q + 2, q * q + (q - 1) // 2, q * q - (q + 1) // 2, q ** 3 - q * q),
     lambda q: (0, q + 1, 0, 0)),
    ("13_1", ("x", ".", "y", "z", "t", "z"), (".", "x", ".", "y", ".", "-y"), (),
     lambda q: (3, (q * q + 3 * q - 2) // 2, (q * q + q - 2) // 2, q ** 3 - q),
     lambda q: (0, 2, 0, q - 1)),
    ("13_2", ("x", ".", "y", "d*z", "t", "z"), (".", "x", ".", "y", ".", "-d*y"), ("delta",),
     lambda q: (1, (q * q + 3 * q) // 2, (q * q + q) // 2, q ** 3 - q),
     lambda q: (0, 1, 1, q - 1)),
    ("14_1", ("x", "y", "z", "x", "t", "x"), ("x", ".", ".", "-x-y", ".", "y"), (),
     lambda q: (4, (q * q - 1) // 2 + 2 * q - 1, (q * q - 1) // 2 + q - 1, q ** 3 - 2 * q),
     lambda q: (0, 3, 0, q - 2)),
    ("14_2", ("d*x", "y", "z", "x", "t", "d*x"), ("x", ".", ".", "-d*x-d*y", ".", "y"), ("delta",),
     lambda q: (0, (q * q + 1) // 2 + 2 * q, (q * q + 1) // 2 + q, q ** 3 - 2 * q),
     lambda q: (0, 1, 2, q - 2)),
    ("15_1", ("x", "y", "z", "-v1*x", "t", "-y+u*v1*x"), ("v1*y", "x", ".", "u*x+y", ".", "x"), ("uv1",),
     lambda q: (2, (q * q - 1) // 2 + q, (q * q - 1) // 2, q ** 3),
     lambda q: (0, 1, 0, q)),
    ("15_2", ("x", "y", "z", "-v2*x", "t", "-y+u*v2*x"), ("v2*y", "x", ".", "u*x+y", ".", "x"), ("uv2",),
     lambda q: (0, (q * q + 1) // 2 + q, (q * q + 1) // 2, q ** 3),
     lambda q: (0, 0, 1, q)),
    ("16_1", ("x", "y", "z", "-z", ".", "t"), (".", ".", "x", "x", "y", "."), (),
     lambda q: (2, (q * q - 1) // 2 + q, (q * q - 1) // 2, q ** 3),
     lambda q: (0, 1, 0, q)),
    ("17", ("a*g*z-a*t", "x", "y", "z", "t", "-x-bt*z"), ("ai*x", "y", ".", "bt*y-g*x", "x", "y"), ("cubic",),
     lambda q: (1, (q * q + q) // 2, (q * q - q) // 2, q ** 3 + q),
     lambda q: (0, 0, 0, q + 1)),
]

_ODD_AMBIG = {"Omega15_1": "Omega16_1", "Omega16_1": "Omega15_1",
              "o15_1": "o16_1", "o16_1": "o15_1"}

for _sub, _sent, _lent, _conds, _col4, _col5 in _ODD_PAIRS:
    _sid, _lid = f"Omega{_sub}", f"o{_sub}"
    _sconds = tuple(c + "_solid" if c.startswith("uv") or c == "cubic" else c
                    for c in _conds)
    _add(RepSpec(_sid, "solid", "odd", _sent, _sconds,
                 od0_formula=_col4, od4_formula=_col5,
                 ambiguous_with=_ODD_AMBIG.get(_sid)))
    _add(RepSpec(_lid, "line", "odd", _lent, _conds,
                 od0_formula=_col5, od4_formula=_col4,
                 ambiguous_with=_ODD_AMBIG.get(_lid)))

# ---- planes ---------------------------------------------------------------

_add(RepSpec("Sigma_N", "plane", "even", (".", "x", "y", ".", "z", "."),
             od0_formula=lambda q: (0, q * q + q + 1, 0, 0),
             od4_formula=lambda q: (q * q + q + 1, 0, 0, 0)))
_add(RepSpec("Sigma_16", "plane", "even", (".", "x", "z", "z", "y", "."),
             od0_formula=lambda q: (0, q + 1, 0, q * q),
             od4_formula=lambda q: (q + 1, 0, 0, q * q)))
_add(RepSpec("Sigma_11", "plane", "even", ("x", "y", ".", "z", "z", "x+z"),
             od0_formula=lambda q: (1, 1, q - 1, q * q),
             min_q=4))


def rep_ids(F: FieldCtx) -> list[str]:
    parity = "even" if F.p == 2 else "odd"
    out = [rid for (rid, par), spec in _REGISTRY.items()
           if par == parity and F.q >= spec.min_q]
    out += ["Sigma_GF"]
    if F.p == 2:
        if F.q >= 4:
            out.append("Sigma_18")
    else:
        out.append("Sigma_TF")
    return sorted(out)


def rep_spec(rep_id: str, F: FieldCtx) -> RepSpec:
    parity = "even" if F.p == 2 else "odd"
    spec = _REGISTRY.get((rep_id, parity)) or _REGISTRY.get((rep_id, "any"))
    if spec is None:
        if (rep_id, "even" if parity == "odd" else "odd") in _REGISTRY:
            raise AtlasError(f"{rep_id} requires q {'even' if parity == 'odd' else 'odd'}")
        raise AtlasError(f"unknown representative {rep_id!r}")
    if F.q < spec.min_q:
        raise AtlasError(f"{rep_id} requires q >= {spec.min_q}")
    return spec


def rep_params(rep_id: str, F: FieldCtx) -> dict[str, int]:
    spec = rep_spec(rep_id, F)
    params: dict[str, int] = {}
    for cond in spec.conditions:
        params.update(find_params(cond, F))
    return params


def representative(rep_id: str, F: FieldCtx) -> Subspace:
    """The canonical subspace for an orbit id; special planes included."""
    if rep_id == "Sigma_GF":
        return sigma_gf_plane(F)
    if rep_id == "Sigma_TF":
        return sigma_tf_plane(F)
    if rep_id == "Sigma_18":
        return sigma18_plane(F)
    spec = rep_spec(rep_id, F)
    nvars = {"line": 2, "plane": 3, "solid": 4}[spec.kind]
    return _basis_from_entries(F, spec.entries, nvars, rep_params(rep_id, F))


# ---------------------------------------------------------------------------
# Special planes
# ---------------------------------------------------------------------------

def sigma18_plane(F: FieldCtx) -> Subspace:
    """The maximal plane meeting the nucleus plane in one point (q even >= 4).

    Built by search: take the first rank-2 point P of the nucleus plane, the
    hyperplane H(P) cut out by the double of the line underlying the conic
    of P, and the first constant-rank-3 line inside H(P); the span has
    point-orbit distribution [0, 1, 0, q^2+q].
    """
    if F.p != 2 or F.q < 4:
        raise AtlasError("Sigma_18 requires q even, q >= 4")
    pn = nucleus_plane(F)
    P = next(iter(subspace_points(pn)))
    k = kernel_point(F, P)
    dual = double_line_dual(F, k)
    H = Subspace(F, rref(F, nullspace(F, (dual,)))[0])
    t = tables(F)
    q = F.q
    for line in subspaces_within(H, 1):
        pts = list(subspace_points(line))
        if all(t.class_code[_enc(p, q)] == 4 for p in pts):
            plane = canonicalize(F, line.rows + (P,))
            got = od0(plane)
            want = (0, 1, 0, q * q + q)
            if got != want:
                raise AtlasError(f"Sigma_18 search postcondition failed: {got}")
            return plane
    raise AtlasError("no constant-rank-3 line found in H(P)")


def _enc(vec, q: int) -> int:
    c = 0
    for x in vec:
        c = c * q + x
    return c


def sigma_gf_plane(F: FieldCtx) -> Subspace:
    """The constant-rank-3 plane of Gram matrices of the bilinear forms
    (x, y) -> Tr(c x y) on GF(q^3) over GF(q), c running over a basis.

    Every nonzero c gives a nondegenerate form, so every point of the plane
    has rank 3.
    """
    ext = cubic_extension(F)
    E = ext.ext
    basis = _ext_basis(ext)
    rows = []
    for c in basis:
        gram = []
        for i in range(3):
            for j in range(i, 3):
                prod = E.mul(c, E.mul(basis[i], basis[j]))
                gram.append(ext.rel_trace(prod))
        rows.append(tuple(gram))
    W = canonicalize(F, rows)
    if W.projdim != 2:
        raise AtlasError("trace-form plane is degenerate")
    return W


def _ext_basis(ext) -> tuple[int, int, int]:
    """A GF(q)-basis of GF(q^3): powers of a deterministic primitive pick."""
    E, F = ext.ext, ext.base
    emb = set(ext.embed_table)
    for z in range(E.q):
        if z in emb:
            continue
        z2 = E.mul(z, z)
        # 1, z, z^2 independent over the embedded subfield iff z has degree 3
        if _independent_over_subfield(ext, (1, z, z2)):
            return (1, z, z2)
    raise AtlasError("no degree-3 element found")


def _independent_over_subfield(ext, vecs) -> bool:
    E, F = ext.ext, ext.base
    emb = ext.embed_table
    seen = set()
    for a in range(F.q):
        for b in range(F.q):
            for c in range(F.q):
                s = E.add(E.mul(emb[a], vecs[0]),
                          E.add(E.mul(emb[b], vecs[1]), E.mul(emb[c], vecs[2])))
                if s == 0 and (a, b, c) != (0, 0, 0):
                    return False
    return True


def sigma_tf_plane(F: FieldCtx) -> Subspace:
    """The polar image of the trace-form plane (q odd): the second
    constant-rank-3 orbit."""
    if F.p == 2:
        raise AtlasError("Sigma_TF requires q odd")
    return polarity_rho(F, sigma_gf_plane(F))


def rank1_points_over_cubic_extension(F: FieldCtx, W: Subspace) -> int:
    """Number of rank-1 points of the scalar extension of W to GF(q^3).

    The rank-1 points of PG(5, q^3) are the Veronese images nu(u) of the
    points u of PG(2, q^3), and nu(u) lies in W (x) GF(q^3) iff it lies on
    every hyperplane through W.  So the count is the number of common
    zeros in PG(2, q^3) of the conics c . nu(u), c running over a basis of
    W's dual: the affine chart (1, x, y) in blocks of x, then the line
    (0, 1, y), then the point (0, 0, 1).
    """
    ext = cubic_extension(F)
    Q = ext.ext.q
    duals = nullspace(F, W.rows)
    if not duals:
        return Q * Q + Q + 1
    # the embedded conics, with a zero coefficient appended at index 6
    C = np.zeros((len(duals), 7), dtype=np.int64)
    C[:, :6] = np.array(ext.embed_table)[np.array(duals)]
    every, zero = np.arange(Q), np.zeros(1, dtype=np.int64)
    return (_chart_zeros(ext.ext, C[:, :6], every, every)
            + _chart_zeros(ext.ext, C[:, [3, 6, 4, 6, 6, 5]], zero, every)
            + _chart_zeros(ext.ext, C[:, [5, 6, 6, 6, 6, 6]], zero, zero))


# points of one (x-chunk, y) block of _chart_zeros
CHART_BLOCK = 1 << 16


def _chart_zeros(E: FieldCtx, C: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> int:
    """Number of (x, y) in xs * ys at which every conic
    c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2 of C (m, 6) vanishes.  The
    first conic is evaluated on blocks of CHART_BLOCK points, the others
    only at its zeros; products go through E's log/exp tables."""
    LOG, EXP = E.np_table('log'), E.np_table('exp')
    ADD = None if E.p == 2 else E.np_table('add')

    def add(a, b):
        return a ^ b if ADD is None else ADD[a, b]

    def mul(a, b):
        return EXP[LOG[a] + LOG[b]]

    def value(c, x, y):
        const = add(add(c[0], mul(c[1], x)), mul(c[3], mul(x, x)))
        slope = add(c[2], mul(c[4], x))
        return add(add(const, mul(slope, y)), mul(c[5], mul(y, y)))

    rows = max(1, CHART_BLOCK // len(ys))
    count = 0
    for s in range(0, len(xs), rows):
        x = xs[s:s + rows, None]
        i, j = np.nonzero(value(C[0], x, ys[None, :]) == 0)
        x, y = x[i, 0], ys[j]
        for c in C[1:]:
            keep = value(c, x, y) == 0
            x, y = x[keep], y[keep]
        count += len(x)
    return count


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def atlas_entry(rep_id: str, F: FieldCtx) -> dict:
    """Representative with parameters, basis and computed distributions."""
    W = representative(rep_id, F)
    q = F.q
    entry = {
        "id": rep_id,
        "field": F.spec,
        "kind": {1: "line", 2: "plane", 3: "solid"}[W.projdim],
        "basis": [list(r) for r in W.rows],
        "od0": list(od0(W)),
        "od4": list(od4(W)),
    }
    if rep_id in ("Sigma_GF", "Sigma_TF", "Sigma_18"):
        if rep_id == "Sigma_18":
            entry["expected_od0"] = [0, 1, 0, q * q + q]
            entry["expected_od4"] = [1, 0, 0, q * q + q]
        else:
            entry["expected_od0"] = [0, 0, 0, q * q + q + 1]
            entry["expected_od4"] = [0, 0, 0, q * q + q + 1]
    else:
        spec = rep_spec(rep_id, F)
        params = rep_params(rep_id, F)
        if params:
            entry["params"] = params
        if spec.od0_formula is not None:
            entry["expected_od0"] = list(spec.od0_formula(q))
        if spec.od4_formula is not None:
            entry["expected_od4"] = list(spec.od4_formula(q))
        if spec.ambiguous_with:
            entry["ambiguous_with"] = spec.ambiguous_with
    if "expected_od0" in entry:
        entry["od0_match"] = entry["od0"] == entry["expected_od0"]
    if "expected_od4" in entry:
        entry["od4_match"] = entry["od4"] == entry["expected_od4"]
    return entry


def emit_atlas(F: FieldCtx) -> list[dict]:
    return [atlas_entry(rid, F) for rid in rep_ids(F)]
