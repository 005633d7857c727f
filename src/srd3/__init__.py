"""Symmetric rank-distance codes in M3(Fq) and the geometry behind them.

Subpackages:
    gf          exact GF(p^h) arithmetic with exp/log tables
    pg          linear algebra and subspace enumeration over GF(q)
    bulk        vectorised numpy kernels for the big sweeps
    veronese    the degree-2 Veronese embedding PG(2,q) -> PG(5,q)
    invariants  point/hyperplane orbit classification and distributions
    atlas       canonical orbit representatives and special planes
    codes       SRD codes: distance, bounds, completeness, classification
    verify      verification drivers: exact counts up to q = 8, seeded
                samples above
    cli         command line front end
"""

from srd3.gf import make_field, parse_field_spec

__all__ = ["make_field", "parse_field_spec"]
__version__ = "0.1.0"
