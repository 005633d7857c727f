"""Canonical representatives of the line/plane/solid orbits.

Every representative is one RepSpec entry of a single registry.  Most are
written as a symmetric 3x3 matrix whose entries are linear forms in the
indeterminates x, y, z, t; the subspace of PG(5,q) is spanned by the
coordinate vectors obtained by setting one indeterminate to 1 and the rest
to 0, in the order (x, y, z, t).  Entries are stored as the six
upper-triangle slots (e00, e01, e02, e11, e12, e22), i.e. directly as the
coordinates y0..y5.  The two constant-rank-3 planes, the trace-form plane
Sigma_GF and its polar image Sigma_TF (q odd), have no entries: their
RepSpec names the builder that makes them from GF(q^3).

Some orbits need side parameters (field elements subject to conditions such
as "delta is a nonsquare" or "the cubic has no roots").  Parameters are
resolved by a deterministic first-fit scan so every emitted representative
is reproducible bit for bit; see find_params.

Expected point- and hyperplane-orbit distributions are stored as closed
formulas in q next to each representative and are what the verification
drivers check the computed distributions against.  D2_CLASSES names the
representatives of the complete distance-2 classes; a complete code's
label is the one whose formula gives its number of rank-3 points.

The two constant-rank-3 planes (q odd) are told apart by the rank-1 points
of their scalar extension to GF(q^3): 3 for the trace-form plane Sigma_GF,
0 for its polar image Sigma_TF.  rank1_points_over_cubic_extension counts
them as the common zeros in PG(2, q^3) of the dual net of conics, found on
one conic of the net with no y^2 term: O(q^3) candidates, tested by one
combine over GF(q), where PG(2, q^3) has O(q^6) points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from srd3 import bulk
from srd3.gf import (FieldCtx, cubic_extension, ext_basis, is_square, power_coordinates,
                     trace2)
from srd3.invariants import require_tables, tables
from srd3.pg import Subspace, canonicalize, dual_basis
from srd3.veronese import conic_eval, pg2_points, polarity_rho


class AtlasError(ValueError):
    """Representative not available for this field (parity/options)."""


# ---------------------------------------------------------------------------
# Parameter search
# ---------------------------------------------------------------------------

def _rootless(F: FieldCtx, coeffs: tuple[int, ...]) -> bool:
    """The polynomial sum_i coeffs[i] * l^i, constant term first, has no
    root l in F."""
    return all(_peval(F, coeffs, lam) for lam in F.elements())


def find_params(condition: str, F: FieldCtx) -> dict[str, int]:
    """First parameter assignment satisfying a side condition.

    Scans in the fixed slot order (u, v, d, g, a, bt, b, c), each coordinate
    ascending through the field codes, so results are deterministic.

    conditions:
        delta          d not a square (q odd)
        uv0            v*l^2+u*v*l-1 rootless, v != 0
        uv1            same, and -v a square (q odd adds the square side)
        uv2            same, and -v a nonsquare (q odd only)
        gamma_inv_tr1  Tr(g^-1) = 1 (q even)
        gamma_tr1      Tr(g) = 1 (q even)
        cubic          l^3 + g*l^2 - bt*l + a rootless (slots g, a, bt)
        bc_cubic       b*l^3 + c*l + 1 rootless, b != 0, so irreducible

    v = 0 is excluded because the degenerate representative acquires
    rank-1 points.  The *_solid variants (uv0_solid, ..., cubic_solid) are
    the same conditions after the parameter shift the trace polarity
    induces on the odd-q solid representatives: the printed solid is the
    trace-form polar of the printed line, which replaces u by -2u in the
    quadratic and (bt, g) by (4*bt, 4*g) in the cubic.  The shifted and
    plain conditions coincide at q = 3, where -2 = 4 = 1, which is why the
    discrepancy only surfaces at q = 5; the tables check reproduces every
    representative's printed distributions.
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
            us = F.neg(F.add(u, u)) if solid else u
            for v in F.nonzero():
                if not _rootless(F, (F.neg(1), F.mul(us, v), v)):
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
        shift = F.add(F.add(1, 1), F.add(1, 1)) if condition == "cubic_solid" else 1
        for g in F.elements():
            for a in F.elements():
                for bt in F.elements():
                    if _rootless(F, (a, F.neg(F.mul(shift, bt)), F.mul(shift, g), 1)):
                        return {"a": a, "bt": bt, "g": g, "ai": F.inv(a)}
        raise AtlasError(f"no rootless cubic over GF({q})")
    elif condition == "bc_cubic":
        for b in F.nonzero():
            for c in F.elements():
                if _rootless(F, (1, c, 0, b)):
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
# Special planes
# ---------------------------------------------------------------------------

def sigma_gf_plane(F: FieldCtx) -> Subspace:
    """The constant-rank-3 plane of Gram matrices of the bilinear forms
    (x, y) -> Tr(c x y) on GF(q^3) over GF(q), c running over a basis.

    Every nonzero c gives a nondegenerate form, so every point of the plane
    has rank 3.
    """
    ext = cubic_extension(F)
    E = ext.ext
    basis = ext_basis(ext)
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


def sigma_tf_plane(F: FieldCtx) -> Subspace:
    """The polar image of the trace-form plane (q odd): the second
    constant-rank-3 orbit."""
    if F.p == 2:
        raise AtlasError("Sigma_TF requires q odd")
    return polarity_rho(F, sigma_gf_plane(F))


# ---------------------------------------------------------------------------
# Representative registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepSpec:
    """One orbit representative: entries, arity, parity, side conditions and
    the printed distribution formulas (None when the source prints none).
    A representative with no entries is made by its builder instead."""
    rep_id: str
    kind: str                    # "line" | "plane" | "solid"
    parity: str                  # "even" | "odd" | "any"
    entries: tuple[str, ...]
    conditions: tuple[str, ...] = ()
    od0_formula: object = None   # callable q -> tuple
    od4_formula: object = None
    min_q: int = 2
    ambiguous_with: str | None = None
    builder: object = None       # callable F -> Subspace


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
# In characteristic 2 the determinant of Sigma_18's matrix is
# x^3 + c*x^2*y + b*y^3, free of z, so the plane has rank 3 away from its
# nucleus point z exactly when b*l^3 + c*l + 1 is rootless (bc_cubic).

_add(RepSpec("Sigma_N", "plane", "even", (".", "x", "y", ".", "z", "."),
             od0_formula=lambda q: (0, q * q + q + 1, 0, 0),
             od4_formula=lambda q: (q * q + q + 1, 0, 0, 0)))
_add(RepSpec("Sigma_16", "plane", "even", (".", "x", "z", "z", "y", "."),
             od0_formula=lambda q: (0, q + 1, 0, q * q),
             od4_formula=lambda q: (q + 1, 0, 0, q * q)))
_add(RepSpec("Sigma_11", "plane", "even", ("x", "y", ".", "z", "z", "x+z"),
             od0_formula=lambda q: (1, 1, q - 1, q * q),
             min_q=4))
_add(RepSpec("Sigma_18", "plane", "even", (".", "x", "y", "b*y", "z", "x+c*y"),
             conditions=("bc_cubic",),
             od0_formula=lambda q: (0, 1, 0, q * q + q),
             od4_formula=lambda q: (1, 0, 0, q * q + q),
             min_q=4))
_add(RepSpec("Sigma_GF", "plane", "any", (),
             od0_formula=lambda q: (0, 0, 0, q * q + q + 1),
             od4_formula=lambda q: (0, 0, 0, q * q + q + 1),
             builder=sigma_gf_plane))
_add(RepSpec("Sigma_TF", "plane", "odd", (),
             od0_formula=lambda q: (0, 0, 0, q * q + q + 1),
             od4_formula=lambda q: (0, 0, 0, q * q + q + 1),
             builder=sigma_tf_plane))

# The complete distance-2 codes, one class per representative: the
# minimum-rank-2 solids (rank-3 point counts q^3-q, q^3-2q, q^3) and, for q
# even, the complete planes (rank-3 point counts 0, q^2, q^2+q).
D2_CLASSES = {"odd": ("Omega8_2", "Omega14_2", "Omega15_2"),
              "even": ("Omega7", "Omega13", "Omega14",
                       "Sigma_N", "Sigma_16", "Sigma_18")}


def _parity(F: FieldCtx) -> str:
    return "even" if F.p == 2 else "odd"


def d2_classes(F: FieldCtx) -> list[RepSpec]:
    """The entries of the complete distance-2 classes over F, in the order
    of D2_CLASSES.  Their formulas hold at every q, so no q >= min_q check
    is made."""
    parity = _parity(F)
    return [_REGISTRY[(rid, parity)] for rid in D2_CLASSES[parity]]


def rep_ids(F: FieldCtx) -> list[str]:
    parity = _parity(F)
    return sorted(rid for (rid, par), spec in _REGISTRY.items()
                  if par in (parity, "any") and F.q >= spec.min_q)


def rep_spec(rep_id: str, F: FieldCtx) -> RepSpec:
    parity = _parity(F)
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
    """The canonical subspace for an orbit id."""
    spec = rep_spec(rep_id, F)
    if spec.builder is not None:
        return spec.builder(F)
    nvars = {"line": 2, "plane": 3, "solid": 4}[spec.kind]
    return _basis_from_entries(F, spec.entries, nvars, rep_params(rep_id, F))


def rank1_points_over_cubic_extension(F: FieldCtx, W: Subspace) -> int:
    """Number of rank-1 points of the scalar extension of W to GF(q^3).

    The rank-1 points of PG(5, Q), Q = q^3, are the Veronese images nu(u)
    of the points u of PG(2, Q), and nu(u) lies in W (x) GF(Q) iff every
    dual vector d of W vanishes there.  So the count is the number of
    common zeros in PG(2, Q) of the dual net of conics d . nu(u), and they
    all lie on any one conic R of the net.  Take R with no y^2 term (a
    combination of two duals cancels it), and the other duals so that with
    R they span the net.  On the chart u = (1, x, y), R reads B(x) y + A(x),
    with B and A over GF(q) of degree at most 1 and 2.  The candidates are
    its zeros, and a candidate counts iff every other dual vanishes there:

      (1, x, -A/B) for each x with B(x) != 0: there d . B^2 nu is a
          polynomial in x over GF(q) of degree <= 4;
      (1, x0, y) for every y, at each x0 with B(x0) = A(x0) = 0: at most
          two, all in GF(q), since a root in GF(Q) of a polynomial over
          GF(q) of degree <= 2 has degree 1 or 2 over GF(q), and 2 does not
          divide 3; there d . nu is a quadratic in y;
      on the line u0 = 0, where R reads r3 + r4 y: (0, 0, 1), one more
          point (0, 1, -r3/r4) of PG(2, q) if r4 != 0, and every (0, 1, y)
          if r3 = r4 = 0, where d . nu is a quadratic in y.

    The points of PG(2, q) are tested one by one.  Everywhere else the x or
    y in GF(Q) that count are those at which every other dual's polynomial
    vanishes: one combine of their coefficients with the coordinates over
    GF(q) of the powers of every element of GF(Q) (gf.power_coordinates).
    A hyperplane (one dual) whose conic keeps its y^2 term keeps its type
    over GF(Q), an odd-degree extension, so its count follows from its
    number of GF(q)-points: 1, q + 1 or 2q + 1 give 1, Q + 1 or 2Q + 1.
    """
    q = F.q
    Q = q ** 3
    duals = dual_basis(W)
    if not duals:
        return Q * Q + Q + 1
    i = next((i for i, d in enumerate(duals) if d[5] == 0), None)
    if i is None and len(duals) == 1:
        zeros = sum(conic_eval(F, duals[0], u) == 0 for u in pg2_points(F))
        return {1: 1, q + 1: Q + 1, 2 * q + 1: 2 * Q + 1}[zeros]
    if i is None:
        d, e = duals[:2]
        s = F.mul(d[5], F.inv(e[5]))
        red, others = tuple(F.sub(a, F.mul(s, b)) for a, b in zip(d, e)), duals[1:]
    else:
        # a hyperplane keeps R as its own other dual, zero wherever R is
        red, others = duals[i], duals[:i] + duals[i + 1:] or duals
    r0, r1, r2, r3, r4, _ = red
    A, B = (r0, r1, r3), (r2, r4)
    count = all(d[5] == 0 for d in others)
    if r4:
        y = F.neg(F.mul(r3, F.inv(r4)))
        count += all(_peval(F, d[3:], y) == 0 for d in others)
        root = F.neg(F.mul(r2, F.inv(r4)))
        special = [root] if _peval(F, A, root) == 0 else []
    else:
        special = [] if r2 else [x for x in F.elements() if _peval(F, A, x) == 0]
    # each block: the six entries of (a multiple of) nu as polynomials in x or y
    blocks = []
    if r2 or r4:
        BB, AB = _pmul(F, B, B), tuple(F.neg(c) for c in _pmul(F, A, B))
        blocks.append((BB, (0,) + BB, AB, (0, 0) + BB, (0,) + AB, _pmul(F, A, A)))
    for x in special:
        blocks.append(((1,), (x,), (0, 1), (F.mul(x, x),), (0, x), (0, 0, 1)))
    if not (r3 or r4):
        blocks.append(((), (), (), (1,), (0, 1), (0, 0, 1)))
    if not blocks:
        return count
    nb, m = len(blocks), len(others)
    # column b m + k: the polynomial of the k-th other dual in block b
    coef = np.array([_combination(F, d, block) for block in blocks for d in others],
                    dtype=np.uint8).T
    # its values' coordinates c at every element of GF(Q): (Q, 3) codes of
    # nb m digits, block by block
    vals = bulk.combine(bulk.kit_for(F), power_coordinates(F), coef)
    shift = q ** (m * np.arange(nb - 1, -1, -1))
    hits = ~(vals[:, :, None] // shift % q ** m).any(axis=1)
    count += int(hits.sum())
    if r4:
        # the root of B is no chart point of the first block
        count -= int(hits[cubic_extension(F).embed_table[root], 0])
    return count


def _combination(F: FieldCtx, d: tuple[int, ...], polys: tuple) -> list[int]:
    """sum_j d[j] polys[j] for polynomials of degree <= 4, constant terms
    first: its five coefficients."""
    add, mul = F.scalar_tables[:2]
    out = [0] * 5
    for dj, poly in zip(d, polys):
        if dj:
            m = mul[dj]
            for t, c in enumerate(poly):
                out[t] = add[out[t]][m[c]]
    return out


def _peval(F: FieldCtx, poly: tuple[int, ...], x: int) -> int:
    """poly (constant term first) at x."""
    add, times_x = F.scalar_tables.add, F.scalar_tables.mul[x]
    acc = 0
    for c in reversed(poly):
        acc = add[times_x[acc]][c]
    return acc


def _pmul(F: FieldCtx, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two polynomials, constant terms first."""
    add, mul = F.scalar_tables[:2]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        m = mul[x]
        for j, y in enumerate(b):
            out[i + j] = add[out[i + j]][m[y]]
    return tuple(out)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def atlas_entry(rep_id: str, F: FieldCtx) -> dict:
    """Representative with parameters, basis and computed distributions."""
    return _entries(F, [rep_id])[0]


def emit_atlas(F: FieldCtx) -> list[dict]:
    """The atlas entry of every representative of GF(q), once q is checked
    against the point tables' range: the planes over GF(q^3) would
    otherwise fail first, on the field arithmetic's ceiling."""
    require_tables(F.q)
    return _entries(F, rep_ids(F))


def _entries(F: FieldCtx, ids: list[str]) -> list[dict]:
    """atlas_entry of each id, with one od0_batch and one od4_batch over
    the representatives of each dimension."""
    reps = [representative(rid, F) for rid in ids]
    t = tables(F)
    dists = {}
    for k in sorted({W.k for W in reps}):
        at = [i for i, W in enumerate(reps) if W.k == k]
        bases = np.array([reps[i].rows for i in at], dtype=np.uint8)
        dists.update(zip(at, zip(t.od0_batch(bases).tolist(), t.od4_batch(bases).tolist())))
    out = []
    for i, (rep_id, W) in enumerate(zip(ids, reps)):
        spec = rep_spec(rep_id, F)
        entry = {
            "id": rep_id,
            "field": F.spec,
            "kind": {1: "line", 2: "plane", 3: "solid"}[W.projdim],
            "basis": [list(r) for r in W.rows],
            "od0": dists[i][0],
            "od4": dists[i][1],
        }
        params = rep_params(rep_id, F)
        if params:
            entry["params"] = params
        if spec.od0_formula is not None:
            entry["expected_od0"] = list(spec.od0_formula(F.q))
        if spec.od4_formula is not None:
            entry["expected_od4"] = list(spec.od4_formula(F.q))
        if spec.ambiguous_with:
            entry["ambiguous_with"] = spec.ambiguous_with
        if "expected_od0" in entry:
            entry["od0_match"] = entry["od0"] == entry["expected_od0"]
        if "expected_od4" in entry:
            entry["od4_match"] = entry["od4"] == entry["expected_od4"]
        out.append(entry)
    return out
