"""CLI surface: subcommands, JSON stability, exit codes, corpus run."""
import json
import random

import pytest

from knotoids import cli
from knotoids.codes import serialize
from knotoids.vassiliev import random_singular_code

from conftest import SING1, STRING_G5, STRING_G6, VK4


@pytest.fixture
def run(capsys):
    def go(*argv):
        rc = cli.main(list(argv))
        out = capsys.readouterr().out
        return rc, json.loads(out)
    return go


@pytest.fixture
def codefile(tmp_path):
    def write(text, name="code.gauss"):
        p = tmp_path / name
        p.write_text(text + "\n")
        return str(p)
    return write


def test_validate(run, codefile):
    rc, out = run("validate", codefile(VK4))
    assert rc == 0
    assert out["ok"] and out["kind"] == "Classical" and out["chords"] == 4


def test_validate_error_exit_code(run, codefile):
    rc, out = run("validate", codefile("O1+ U2+ / O2+"))
    assert rc == 1
    assert out["error"] == "ValidityError"


def test_usage_error_exit_code(codefile, capsys):
    two = (codefile(VK4), codefile(VK4, "other.gauss"))
    for argv, message in ((["invariant", "bogus", "nofile"], "invalid choice: 'bogus'"),
                          (["sbm", "compare", two[0]], "sbm compare needs two files"),
                          (["sbm", "build", *two], "sbm build takes one file"),
                          (["sbm", "primitive", *two], "sbm primitive takes one file")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err


def test_invariant_flat_affine(run, codefile):
    rc, out = run("invariant", "flat-affine", codefile("B1 B3 A2 A3 A1 B2"))
    assert rc == 0
    assert out == {"Q": {"1": -2, "2": 1}}


def test_invariant_report(run, codefile):
    rc, out = run("invariant", "report", codefile(VK4))
    assert rc == 0
    assert out["writhe"] == -2
    assert {c["id"]: c["sign"] for c in out["crossings"]} == {1: -1, 2: -1, 3: -1, 4: 1}
    assert "P" in out and "decomposition" in out


def test_smooth_commands(run, codefile):
    rc, out = run("smooth", "zero", "--at", "1", codefile(VK4))
    assert rc == 0 and out["code"] == "B2 B3 A4 A3 A2 B4"
    rc, out = run("smooth", "one", "--at", "1", codefile("O2+ O1+ U2+ U1+"))
    assert rc == 0 and out["intersection_index"] == 1


def test_glue_command(run, codefile):
    rc, out = run("glue", "--at", "1", codefile("O1+ U1+"))
    assert rc == 0 and out["code"] == "SA1* SB1*"


def test_vassiliev_commands(run, codefile):
    rc, out = run("vassiliev", "f", codefile(VK4))
    assert rc == 0
    assert sorted(t["coef"] for t in out["terms"]) == [-2, 2]
    rc, out = run("vassiliev", "derivative", "--inv", "f", codefile(SING1))
    assert rc == 0
    assert sorted(t["coef"] for t in out["terms"]) == [-2, 2]


def test_derivative_over_many_singular_chords_is_zero(run, codefile):
    # past one singular chord a derivative is zero, whatever the chord count
    for k in (25, 1100):
        path = codefile(serialize(random_singular_code(0, k, random.Random(1))))
        for handle in ("f", "l", "g", "p"):
            rc, out = run("vassiliev", "derivative", "--inv", handle, path)
            assert rc == 0, (handle, k, out)
            assert out == ({"P": {}} if handle == "p" else {"terms": []}), (handle, k)


def test_sbm_commands(run, codefile, tmp_path):
    rc, built = run("sbm", "build", codefile(STRING_G5))
    assert rc == 0
    assert built["elements"] == ["s", "1", "2", "3", "4", "6", "5"]
    a = tmp_path / "a.json"
    a.write_text(json.dumps(built))
    rc, out = run("sbm", "primitive", str(a))
    assert rc == 0 and out["primitive"] is True
    assert out["d_annihilating_like"] is False and out["d_core_like"] is False
    b = tmp_path / "b.json"
    rc, built6 = run("sbm", "build", codefile(STRING_G6, "g6.gauss"))
    b.write_text(json.dumps(built6))
    rc, out = run("sbm", "compare", str(a), str(b))
    assert rc == 0
    assert out == {"certificate": "none", "homologous": False}


@pytest.mark.parametrize("text, kind", [
    ('{"elements":["s","a","d"],"matrix":[[0,1,0],[-1,0,0],[0,0,0]],"s":5}', "ValidityError"),
    ('{"elements":["s","d"]}', "ValidityError"),
    ("{not json", "SyntaxError"),
    ('{"elements":["s","a","d"],"matrix":[[0,1,0],[-1,0,0],[0,1,0]]}', "ValidityError"),
], ids=("s-out-of-range", "missing-matrix", "invalid-json", "not-skew"))
def test_sbm_malformed_json(run, tmp_path, text, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (("primitive", str(bad)), ("compare", str(bad), str(bad))):
        rc, out = run("sbm", *argv)
        assert rc == 1
        assert out["error"] == kind and out["detail"]


def test_walk_deterministic(run, codefile):
    f = codefile(VK4)
    rc1, out1 = run("walk", "--steps", "5", "--seed", "9", f)
    rc2, out2 = run("walk", "--steps", "5", "--seed", "9", f)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_walk_family_mismatch(run, codefile):
    f = codefile(VK4)
    rc, out = run("walk", "--steps", "3", "--seed", "1", "--family", "flat", f)
    assert rc == 1
    assert out["error"] == "ValidityError"
    rc, out = run("walk", "--steps", "3", "--seed", "1", "--family", "classical",
                  codefile("A1 B2 A2 B1", "flat.gauss"))
    assert rc == 1
    assert out["error"] == "ValidityError"
    rc, out = run("walk", "--steps", "0", "--seed", "1", "--family", "flat", f)
    assert rc == 0
    assert out == {"code": VK4}


def test_walk_negative_steps_is_validity_error(run, codefile):
    rc, out = run("walk", "--steps", "-3", "--seed", "1", codefile(VK4))
    assert rc == 1
    assert out == {"error": "ValidityError", "detail": "steps must be >= 0, got -3"}


def test_output_byte_stable(codefile, capsys):
    f = codefile(VK4)
    cli.main(["invariant", "report", f])
    first = capsys.readouterr().out
    cli.main(["invariant", "report", f])
    second = capsys.readouterr().out
    assert first == second


def test_corpus_shipped(run):
    rc, out = run("corpus")
    assert rc == 0
    assert out["ok"] and out["cases"] >= 50 and not out["failures"]


def test_corpus_detects_mismatch(run, tmp_path):
    bad = [{"name": "broken", "check": "writhe_signs", "source": "trivial",
            "input": "O1+ U1+", "w": -7, "signs": {"1": 1}}]
    # an unknown invariant handle
    bad += [{"name": f"handle-{check}", "check": check, "source": "trivial", "invariant": "x",
             "input": "O1+ U1+", "a": "O1+ U1+", "b": "O1+ U1+", "terms": [],
             "equal": True, "coefficients": []}
            for check in ("combination", "invariant_equal", "difference_coefficients")]
    # an unknown derivative handle, and an order check that samples nothing
    bad += [{"name": "handle-dx", "check": "combination", "source": "trivial",
             "invariant": "dx", "input": "O1+ U1+", "terms": []},
            {"name": "no-samples", "check": "order_check", "source": "trivial",
             "invariant": "f", "order": 1, "samples": 0, "seed": 1}]
    # a check nobody registered, and an invalid case whose input parses
    bad += [{"name": "no-check", "check": "bogus", "source": "trivial", "input": "O1+ U1+"},
            {"name": "parses", "check": "invalid", "source": "trivial", "input": "O1+ U1+",
             "error": "ValidityError"}]
    d = tmp_path / "fixtures"
    d.mkdir()
    (d / "bad.json").write_text(json.dumps(bad))
    rc, out = run("corpus", str(d))
    assert rc == 1
    assert not out["ok"] and len(out["failures"]) == 8
    assert [f["detail"].get("error") for f in out["failures"][1:6]] == \
        ["ValidityError"] * 5
    assert [f["detail"] for f in out["failures"][6:]] == [{"error": "unknown check"},
                                                          {"kind": "none"}]
    assert {f["detail"]["message"] for f in out["failures"][1:4]} == \
        {"unknown invariant handle 'x'"}


@pytest.mark.parametrize("make, kind", [
    (lambda d: d / "missing", "FileNotFound"),
    (lambda d: d / "x.json", "Unreadable"),
], ids=("missing", "file"))
def test_corpus_refuses_a_path_that_is_not_a_directory(run, tmp_path, make, kind):
    (tmp_path / "x.json").write_text("[]")
    target = make(tmp_path)
    rc, out = run("corpus", str(target))
    assert rc == 1
    assert out == {"error": kind, "detail": str(target) + (
        ": no such fixture directory" if kind == "FileNotFound" else ": not a fixture directory")}


@pytest.mark.parametrize("cmd, content, kind", [
    (("validate",), None, "Unreadable"),
    (("sbm", "primitive"), None, "Unreadable"),
    (("validate",), b"O1+ \xff U1+", "SyntaxError"),
    (("sbm", "primitive"), b'{"elements": "\xff"}', "SyntaxError"),
    (("corpus",), b"[{not json", "SyntaxError"),
    (("corpus",), b"\xff[]", "SyntaxError"),
    (("corpus",), b'{"name": "x", "check": "roundtrip"}', "SyntaxError"),
], ids=("validate-directory", "sbm-directory", "validate-not-utf8", "sbm-not-utf8",
        "corpus-not-json", "corpus-not-utf8", "corpus-object"))
def test_unreadable_inputs_are_domain_errors(run, tmp_path, cmd, content, kind):
    target = tmp_path / "in"
    target.mkdir()
    if content is not None:
        (target / "x.json").write_bytes(content)
        target = target if cmd == ("corpus",) else target / "x.json"
    rc, out = run(*cmd, str(target))
    assert rc == 1
    assert set(out) == {"error", "detail"} and out["error"] == kind and out["detail"]


@pytest.mark.parametrize("case", [5, "x", [1], {"check": []}, {"check": "roundtrip", "input": 5}],
                         ids=("number", "string", "list", "unhashable-check", "number-input"))
def test_corpus_malformed_case_is_bad_fixture(run, tmp_path, case):
    good = {"name": "kink", "check": "roundtrip", "source": "trivial", "input": "O1+ U1+"}
    (tmp_path / "x.json").write_text(json.dumps([case, good]))
    rc, out = run("corpus", str(tmp_path))
    assert rc == 1 and out["cases"] == 2 and out["passed"] == 1
    assert [f["detail"]["error"] for f in out["failures"]] == ["BadFixture"]


def test_missing_file_output_unchanged(tmp_path, capsys):
    missing = tmp_path / "missing.gauss"
    assert cli.main(["validate", str(missing)]) == 1
    assert capsys.readouterr().out == (
        '{"detail":"[Errno 2] No such file or directory: \'%s\'","error":"FileNotFound"}\n'
        % missing)
