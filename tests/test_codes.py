"""Codes: distance, bound, completeness, classification, JSON."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from srd3.gf import make_field
from srd3.atlas import d2_classes, representative, sigma_gf_plane, sigma_tf_plane
from srd3.codes import (CodeFormatError, SrdCode, classify, code_from_json,
                        code_rank_distribution, code_to_json, describe,
                        dim_bound, extend_to_complete, extension_points,
                        is_complete, is_msrd, min_distance)
from srd3.pg import rref, Subspace
from srd3.veronese import nucleus_plane

from oracles import extension_points_union, is_complete_union


def _code(F, *mats):
    return SrdCode.from_matrices(F, mats)


E11 = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
E22 = ((0, 0, 0), (0, 1, 0), (0, 0, 0))
E12 = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_min_distance_examples():
    F = make_field(3, 1)
    assert min_distance(_code(F, E11, E22)) == 1
    assert min_distance(_code(F, I3)) == 3
    for q in ((2, 1), (3, 1), (2, 2), (5, 1)):
        Fq = make_field(*q)
        assert min_distance(SrdCode.from_subspace(sigma_gf_plane(Fq))) == 3


def test_dim_bound():
    assert dim_bound(3, 2) == 4
    assert dim_bound(3, 3) == 3
    assert dim_bound(3, 1) == 6
    with pytest.raises(ValueError):
        dim_bound(3, 4)


def test_is_msrd():
    F = make_field(2, 2)
    omega14 = SrdCode.from_subspace(representative("Omega14", F))
    assert min_distance(omega14) == 2 and is_msrd(omega14)
    gf = SrdCode.from_subspace(sigma_gf_plane(F))
    assert is_msrd(gf)
    assert not is_msrd(_code(make_field(3, 1), I3))


def test_code_rank_distribution_scaling():
    F = make_field(3, 1)
    C = SrdCode.from_subspace(sigma_gf_plane(F))
    rd = code_rank_distribution(C)
    assert rd == (1, 0, 0, 26)
    assert sum(rd) == F.q ** C.dim


def test_is_complete_nucleus_plane():
    F = make_field(2, 2)
    C = SrdCode.from_subspace(nucleus_plane(F))
    assert min_distance(C) == 2
    assert is_complete(C)


def test_plane_inside_omega7_not_complete():
    F = make_field(2, 2)
    S = representative("Omega7", F)
    plane = SrdCode.from_subspace(type(S)(F, S.rows[:3]))
    # a 3-dim subcode of a minimum-distance-2 solid cannot be complete
    if min_distance(plane) == 2:
        assert not is_complete(plane)


def test_sigma_gf_complete_and_msrd():
    for q in ((2, 1), (3, 1), (2, 2), (5, 1)):
        F = make_field(*q)
        C = SrdCode.from_subspace(sigma_gf_plane(F))
        assert is_msrd(C)
        assert is_complete(C)
        assert C.F.q ** C.dim == F.q ** 3  # the size-q^3 construction
        assert min_distance(C) == 3


def test_line_codes_never_complete_d2():
    F = make_field(3, 1)
    C = _code(F, E12)  # rank-2 single matrix
    assert min_distance(C) == 2
    assert not is_complete(C)


def test_extend_to_complete_q5():
    F = make_field(5, 1)
    C = _code(F, E12)
    done = extend_to_complete(C)
    assert is_complete(done)
    assert done.dim == 4 and min_distance(done) == 2
    assert is_msrd(done)
    assert done.subspace.contains(C.subspace)


def test_extend_to_complete_q4_dichotomy():
    F = make_field(2, 2)
    C = _code(F, E12)
    done = extend_to_complete(C)
    assert is_complete(done) and min_distance(done) == 2
    assert done.dim in (3, 4)
    assert done.subspace.contains(C.subspace)


def test_extend_idempotent():
    for q in ((3, 1), (2, 2)):
        F = make_field(*q)
        C = _code(F, E12)
        once = extend_to_complete(C)
        twice = extend_to_complete(once)
        assert once.subspace == twice.subspace


def test_classify_labels():
    F3 = make_field(3, 1)
    assert classify(SrdCode.from_subspace(representative("Omega15_2", F3))) == "Omega15_2"
    assert classify(SrdCode.from_subspace(sigma_tf_plane(F3))) == "TF_type"
    assert classify(SrdCode.from_subspace(sigma_gf_plane(F3))) == "GF_type"
    F4 = make_field(2, 2)
    assert classify(SrdCode.from_subspace(representative("Sigma_18", F4))) == "Sigma_18"
    assert classify(SrdCode.from_subspace(nucleus_plane(F4))) == "Sigma_N"
    assert classify(SrdCode.from_subspace(representative("Omega7", F4))) == "Omega7"
    assert classify(SrdCode.from_subspace(representative("Omega13", F4))) == "Omega13"
    assert classify(_code(F3, I3)) == "NotComplete"
    assert classify(SrdCode.from_subspace(sigma_gf_plane(F4))) == "GF_type"


@pytest.mark.parametrize("spec", ["3", "4", "5", "8"])
def test_complete_d2_representatives_label_themselves(spec):
    # the labels are read from the od0 formulas of the class list, so each
    # listed representative must get its own id back
    from srd3.gf import parse_field_spec
    F = parse_field_spec(spec)
    for cls in d2_classes(F):
        assert classify(SrdCode.from_subspace(representative(cls.rep_id, F))) == cls.rep_id


def test_classify_whole_space():
    F = make_field(2, 1)
    mats = []
    for i in range(3):
        M = [[0] * 3 for _ in range(3)]
        M[i][i] = 1
        mats.append(tuple(tuple(r) for r in M))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        M = [[0] * 3 for _ in range(3)]
        M[i][j] = M[j][i] = 1
        mats.append(tuple(tuple(r) for r in M))
    C = SrdCode.from_matrices(F, mats)
    assert min_distance(C) == 1
    assert classify(C) == "WholeSpace"


def test_classify_invariant_under_action():
    from srd3.pg import matrix_rank
    from srd3.veronese import k_action
    rng = random.Random(42)
    for q in ((3, 1), (2, 2)):
        F = make_field(*q)
        reps = ["Sigma_GF"]
        reps += ["Omega7", "Sigma_16"] if F.p == 2 else ["Omega8_2", "Omega14_2"]
        for rid in reps:
            W = representative(rid, F)
            base = classify(SrdCode.from_subspace(W))
            for _ in range(3):
                while True:
                    A = tuple(tuple(rng.randrange(F.q) for _ in range(3)) for _ in range(3))
                    if matrix_rank(F, A) == 3:
                        break
                img = k_action(F, A, W)
                assert classify(SrdCode.from_subspace(img)) == base


def test_msrd_implies_complete_on_atlas_codes():
    from srd3.atlas import rep_ids
    for q in ((3, 1), (2, 2)):
        F = make_field(*q)
        for rid in rep_ids(F):
            W = representative(rid, F)
            C = SrdCode.from_subspace(W)
            if is_msrd(C):
                assert is_complete(C), rid


def test_json_roundtrip():
    F = make_field(3, 1)
    C = _code(F, I3)
    s = code_to_json(C)
    assert json.loads(s) == {"field": "3^1",
                             "basis": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}
    D = code_from_json(s)
    assert D.subspace == C.subspace


def test_json_roundtrip_atlas_q4():
    from srd3.atlas import rep_ids
    F = make_field(2, 2)
    for rid in rep_ids(F):
        C = SrdCode.from_subspace(representative(rid, F))
        D = code_from_json(code_to_json(C))
        assert D.subspace == C.subspace


def test_parse_errors():
    with pytest.raises(CodeFormatError, match="not symmetric"):
        code_from_json('{"field": "3^1", "basis": [[[0,1,0],[0,0,0],[0,0,0]]]}')
    with pytest.raises(CodeFormatError, match="dependent"):
        code_from_json('{"field": "2^1", "basis": [[[1,0,0],[0,0,0],[0,0,0]],'
                       '[[1,0,0],[0,0,0],[0,0,0]]]}')
    with pytest.raises(CodeFormatError, match="outside"):
        code_from_json('{"field": "2^1", "basis": [[[7,0,0],[0,0,0],[0,0,0]]]}')
    with pytest.raises(CodeFormatError):
        code_from_json("not json")
    with pytest.raises(CodeFormatError):
        code_from_json('{"field": "3^1"}')
    with pytest.raises(CodeFormatError, match="3x3"):
        code_from_json('{"field": "3^1", "basis": [[[1,0],[0,1]]]}')


def test_describe_identity_span_f3():
    C = code_from_json('{"field": "3^1", "basis": [[[1,0,0],[0,1,0],[0,0,1]]]}')
    d = describe(C)
    assert d["dim"] == 1 and d["min_distance"] == 3
    assert d["is_msrd"] is False and d["is_complete"] is False
    assert d["label"] == "NotComplete"


@st.composite
def _random_codes(draw):
    p, h = draw(st.sampled_from([(2, 1), (3, 1)]))
    F = make_field(p, h)
    k = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(st.integers(0, F.q - 1), min_size=6, max_size=6),
                         min_size=k, max_size=k))
    rows, rank = rref(F, gens)
    if rank == 0:
        rows, rank = ((0, 0, 0, 0, 0, 1),), 1
    return SrdCode.from_subspace(Subspace(F, rows))


@settings(max_examples=60, deadline=None)
@given(_random_codes())
def test_completeness_matches_union_oracle(C):
    assert is_complete(C) == is_complete_union(C)
    assert extension_points(C) == extension_points_union(C)


@pytest.mark.parametrize("q", [(3, 1), (2, 2)], ids=["q3", "q4"])
def test_is_complete_matches_union_oracle_on_atlas(q):
    from srd3.atlas import rep_ids
    F = make_field(*q)
    for rid in rep_ids(F):
        C = SrdCode.from_subspace(representative(rid, F))
        assert is_complete(C) == is_complete_union(C), rid
