"""Command line surface."""

from __future__ import annotations

import json

import pytest

from srd3.cli import main


def test_verify_single_check_id(capsys, tmp_path):
    code = main(["verify", "--field", "3", "--theorem", "censuses",
                 "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["check_id"] == "censuses"
    assert out[0]["status"] == "pass"


def test_verify_writes_file(tmp_path):
    path = tmp_path / "report.csv"
    code = main(["verify", "--field", "3", "--theorem", "Y03q",
                 "--format", "csv", "--out", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.startswith("id,field,")
    assert "Y03q" in text


def test_verify_bad_field():
    assert main(["verify", "--field", "12"]) == 2


def test_verify_inapplicable_check():
    assert main(["verify", "--field", "3", "--theorem", "T3.7"]) == 2


def test_classify_identity_code(tmp_path, capsys):
    f = tmp_path / "id.json"
    f.write_text('{"field": "3^1", "basis": [[[1,0,0],[0,1,0],[0,0,1]]]}')
    assert main(["classify", "code", "--input", str(f), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 1 and out["min_distance"] == 3
    assert out["is_msrd"] is False and out["is_complete"] is False
    assert out["label"] == "NotComplete"


def test_classify_rejects_bad_input(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"field": "3^1", "basis": [[[0,1,0],[0,0,0],[0,0,0]]]}')
    assert main(["classify", "--input", str(f)]) == 2
    assert main(["classify", "--input", str(tmp_path / "missing.json")]) == 2


def test_atlas_emit_json(capsys):
    assert main(["atlas", "emit", "--field", "3", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 32
    ids = {e["id"] for e in entries}
    assert {"Omega17", "o17", "Sigma_GF", "Sigma_TF"} <= ids
    for e in entries:
        if "od0_match" in e:
            assert e["od0_match"] and e["od4_match"]


def test_atlas_parity_validation(capsys):
    # odd-only representatives never show up for an even field
    assert main(["atlas", "--field", "4", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    ids = {e["id"] for e in entries}
    assert "Sigma_18" in ids and "Sigma_TF" not in ids and "Omega8_2" not in ids


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--field", "4", "--dim", "2", "--count-only"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 376805


def test_enumerate_limit(capsys):
    assert main(["enumerate", "--field", "2", "--dim", "1", "--limit", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 651 and out["emitted"] == 7


def test_enumerate_budget_exceeded(capsys):
    assert main(["enumerate", "--field", "5", "--dim", "2",
                 "--budget", "1000"]) == 2


def test_enumerate_limit_bounds_the_budget(capsys):
    # PG(5,7) has 48 177 200 planes, but two are asked for
    assert main(["enumerate", "--field", "7", "--dim", "2", "--limit", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 48177200 and out["emitted"] == 2
    assert out["subspaces"] == [[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
                                [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1]]]
    assert main(["enumerate", "--field", "5", "--dim", "2", "--limit", "1001",
                 "--budget", "1000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: enumeration needs 1001 objects, budget is 1000\n"


def test_enumerate_above_id_range_exit_2(capsys):
    assert main(["enumerate", "--field", "128", "--dim", "2", "--limit", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: subspace ids support q <= 127")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_byte_identical_reports_across_jobs(capsys, monkeypatch):
    import srd3.verify as V
    monkeypatch.setattr(V, "_sweep_cache", {})
    assert main(["verify", "--field", "3", "--theorem", "T3.2",
                 "--jobs", "1", "--format", "json"]) == 0
    one = capsys.readouterr().out
    monkeypatch.setattr(V, "_sweep_cache", {})
    assert main(["verify", "--field", "3", "--theorem", "T3.2",
                 "--jobs", "2", "--format", "json"]) == 0
    two = capsys.readouterr().out
    strip = lambda s: [l for l in s.splitlines() if '"seconds"' not in l]
    assert strip(one) == strip(two)


def _one_line_error(capsys) -> str:
    """The captured stderr, checked to be a single error line with nothing
    on stdout."""
    cap = capsys.readouterr()
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1, cap.err
    assert cap.out == ""
    return cap.err


@pytest.mark.parametrize("field, basis, what", [
    ('"3"', '[[[1,0,0],[0,"a",0],[0,0,1]]]', "'a' is not an integer"),
    ('"3"', '[1]', "matrix 0 is not a list"),
    ('"3"', '[[[1,0,0],[0,1.5,0],[0,0,1]]]', "1.5 is not an integer"),
    ('"x"', '[[[1,0,0],[0,1,0],[0,0,1]]]', "'x' is not an integer"),
    ('3.5', '[[[1,0,0],[0,1,0],[0,0,1]]]', "'3.5' is not an integer"),
], ids=["string_entry", "bare_number_matrix", "float_entry", "string_field", "float_field"])
def test_classify_rejects_non_integer_json(tmp_path, capsys, field, basis, what):
    f = tmp_path / "bad.json"
    f.write_text('{"field": %s, "basis": %s}' % (field, basis))
    assert main(["classify", "--input", str(f)]) == 2
    assert what in _one_line_error(capsys)


def test_field_above_table_range_exit_2(tmp_path, capsys):
    want = "point tables support q <= 16, got q=32"
    assert main(["verify", "--field", "32", "--theorem", "censuses"]) == 2
    assert want in _one_line_error(capsys)
    f = tmp_path / "q32.json"
    f.write_text('{"field": "32", "basis": [[[1,0,0],[0,1,0],[0,0,1]]]}')
    assert main(["classify", "code", "--input", str(f)]) == 2
    assert want in _one_line_error(capsys)


@pytest.mark.parametrize("q", [27, 32])
@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "Y03q"], ["verify", "--theorem", "CR3-OD4"], ["verify"],
    ["acceptance", "--fields", "3,{q}"]], ids=["Y03q", "CR3-OD4", "all", "acceptance"])
def test_checks_above_table_range_name_q(capsys, monkeypatch, q, argv):
    # refused before any check runs, naming the user's q rather than the
    # cubic extension GF(q^3) that Y03q and CR3-OD4 would build first
    calls = []
    _stub_drivers(monkeypatch, calls)
    argv = [a.format(q=q) for a in argv]
    if argv[0] == "verify":
        argv += ["--field", str(q)]
    assert main(argv) == 2
    assert f"point tables support q <= 16, got q={q}" in _one_line_error(capsys)
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["verify", "--field", "3", "--theorem", "censuses", "--jobs", "0"],
    ["acceptance", "--fields", "3", "--jobs", "-1"],
    ["enumerate", "--field", "3", "--dim", "7", "--count-only"],
    ["enumerate", "--field", "3", "--dim", "-1", "--count-only"],
    ["enumerate", "--field", "3", "--dim", "2", "--limit", "-1"],
    ["enumerate", "--field", "3", "--dim", "2", "--budget", "0"],
    ["enumerate", "--field", "3", "--dim", "2", "--limit", "2", "--budget", "-5"],
    ["verify", "--field", "abc"],
    ["verify", "--field", "3.0"],
    ["verify", "--field", "2^x"],
    ["verify", "--field", ""],
    ["acceptance", "--fields", "3,abc"],
], ids=["verify_jobs_0", "acceptance_jobs_negative", "enumerate_dim_7",
        "enumerate_dim_negative", "enumerate_limit_negative", "enumerate_budget_0",
        "enumerate_budget_negative", "verify_field_abc", "verify_field_float",
        "verify_field_exponent_x", "verify_field_empty", "acceptance_field_abc"])
def test_out_of_range_options_exit_2(capsys, argv):
    assert main(argv) == 2
    _one_line_error(capsys)


def _stub_drivers(monkeypatch, calls, fail=None):
    """Replace every verify driver by a stub that records its name and
    returns one passing report, or raises VerifyError if its name is fail."""
    import srd3.verify as V
    from srd3.report import make_report
    stubs = {}
    for cid, (fn, scope) in list(V.DRIVERS.items()):
        if fn not in stubs:
            def stub(F, jobs=1, name=fn.__name__):
                calls.append(name)
                if name == fail:
                    raise V.VerifyError(f"{name} refused q={F.q}")
                return [make_report(name, F.spec, "stub", 0, 0)]
            stubs[fn] = stub
        monkeypatch.setitem(V.DRIVERS, cid, (stubs[fn], scope))


def test_default_checks_skip_drivers_above_their_ceiling(monkeypatch, capsys):
    calls = []
    _stub_drivers(monkeypatch, calls)
    assert main(["verify", "--field", "9", "--format", "json"]) == 0
    ran = {r["check_id"] for r in json.loads(capsys.readouterr().out)}
    assert ran == {"verify_censuses", "verify_tables", "verify_solids",
                   "verify_net_corollaries", "verify_schmidt", "verify_rank3_od4"}
    calls.clear()
    assert main(["acceptance", "--fields", "9", "--format", "json"]) == 0
    # no verify_completeness_dichotomy, no verify_class_counts
    assert set(calls) == ran


def test_explicit_check_above_its_ceiling_exit_2(monkeypatch, capsys):
    calls = []
    _stub_drivers(monkeypatch, calls)
    assert main(["verify", "--field", "9", "--theorem", "T3.10"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "q <= 8" in err
    assert calls == []


def test_acceptance_verify_error_exit_2(monkeypatch, capsys):
    _stub_drivers(monkeypatch, [], fail="verify_tables")
    assert main(["acceptance", "--fields", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exit_3(monkeypatch, capsys):
    import srd3.verify as V

    def broken(F, jobs=1):
        raise RuntimeError("kernel fault")
    monkeypatch.setitem(V.DRIVERS, "censuses", (broken, ("any", None)))
    assert main(["verify", "--field", "3", "--theorem", "censuses"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "RuntimeError: kernel fault" in err and "--debug" in err
    with pytest.raises(RuntimeError, match="kernel fault"):
        main(["verify", "--field", "3", "--theorem", "censuses", "--debug"])
