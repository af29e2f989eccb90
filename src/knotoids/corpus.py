"""Fixture corpus runner.

A fixture file is a JSON list of cases. Every case carries `name`, a `check`
tag, a `source` tag (published-value / derived / trivial), and check-specific
fields; published values cite their origin in a free-form `note`. The runner
executes each case and reports mismatches; it never mutates fixtures. A path
that is not a directory raises FileNotFoundError (missing) or NotADirectoryError;
a file that is not a JSON list raises ParseError; a malformed case fails as
BadFixture.
"""
from __future__ import annotations

import json
from pathlib import Path

from . import codes, invariants, moves, sbm, surgery, vassiliev
from .codes import OrderedTwoComponent, parse, serialize
from .errors import KnotoidError, ParseError, ValidityError

__all__ = ["run_case", "run_directory"]


def _fp(text: str):
    return vassiliev.fingerprint(parse(text))


def _invariant(handle):
    """The invariant a fixture names; an unknown handle raises ValidityError, as
    an unknown derivative handle does."""
    fn = vassiliev.INVARIANTS.get(handle)
    if fn is None:
        raise ValidityError(f"unknown invariant handle {handle!r}")
    return fn


_CHECKS = {}


def _check(name):
    def deco(fn):
        _CHECKS[name] = fn
        return fn
    return deco


@_check("combination")
def _combination(case):
    handle = case["invariant"]
    code = parse(case["input"])
    if handle.startswith("d"):
        value = vassiliev.derivative(handle[1:], code)
    else:
        value = _invariant(handle)(code)
    fps = [_fp(term["code"]) for term in case["terms"]]
    expected = vassiliev.FormalSum.zero()
    for fp, term in zip(fps, case["terms"]):
        expected = expected + vassiliev.FormalSum.term(fp, term["coef"])
    ok = value == expected
    if case.get("nonzero"):
        ok = ok and not value.is_zero()
    if case.get("distinct"):
        ok = ok and len(set(fps)) == len(fps)
    return ok, {"value": value.to_json(), "expected": expected.to_json()}


@_check("roundtrip")
def _c_roundtrip(case):
    text = case["input"]
    code = parse(text)
    again = parse(serialize(code))
    ok = again == code
    if "canonical" in case:
        ok = ok and serialize(code) == case["canonical"]
    return ok, {"serialized": serialize(code)}


@_check("invalid")
def _c_invalid(case):
    try:
        parse(case["input"])
    except KnotoidError as exc:
        return exc.kind == case["error"], {"kind": exc.kind}
    return False, {"kind": "none"}


@_check("writhe_signs")
def _c_writhe(case):
    code = parse(case["input"])
    signs = {str(c): code.sign_of(c) for c in code.classical_chords()}
    got = {"w": invariants.writhe(code), "signs": signs}
    want = {"w": case["w"], "signs": {str(k): v for k, v in case["signs"].items()}}
    return got == want, got


@_check("flat_weights")
def _c_flat_weights(case):
    code = parse(case["input"])
    got = {str(k): v for k, v in invariants.flat_weights(code).items()}
    return got == {str(k): v for k, v in case["weights"].items()}, got


# `flat_affine_polynomial` reads a classical code through its flattening
@_check("flatten_flat_affine")
@_check("flat_affine")
def _c_flat_affine(case):
    got = invariants.flat_affine_polynomial(parse(case["input"])).to_json()
    return got == case["q"], got


@_check("affine")
def _c_affine(case):
    code = parse(case["input"])
    p, pp, pm, w0p = invariants.affine_index_decomposition(code)
    got = {"P": p.to_json(), "Pplus": pp.to_json(), "Pminus": pm.to_json(),
           "w0prime": w0p}
    want = {"P": case["p"], "Pplus": case.get("pplus", got["Pplus"]),
            "Pminus": case.get("pminus", got["Pminus"]),
            "w0prime": case.get("w0prime", got["w0prime"])}
    return got == want, got


@_check("zero_smooth_q")
def _c_zero_smooth_q(case):
    out = surgery.zero_smooth(parse(case["input"]), case["at"])
    got = invariants.flat_affine_polynomial(out).to_json()
    return got == case["q"], {"code": serialize(out), "q": got}


@_check("resolve")
def _c_resolve(case):
    out = surgery.resolve(parse(case["input"]), case["at"], case["sign"])
    return serialize(out) == case["expect"], {"code": serialize(out)}


@_check("glue_expect")
def _c_glue(case):
    out = surgery.glue(parse(case["input"]), case["at"])
    return serialize(out) == case["expect"], {"code": serialize(out)}


@_check("one_smooth_index")
def _c_one_smooth_index(case):
    _, view = surgery.one_smooth(parse(case["input"]), case["at"])
    got = invariants.intersection_index(view)
    return got == case["i"], {"i": got, "code": serialize(view.code)}


@_check("two_component_index")
def _c_two_index(case):
    code = parse(case["input"])
    view = OrderedTwoComponent(code, case.get("ell1", 0), 1 - case.get("ell1", 0))
    got = invariants.intersection_index(view)
    return got == case["i"], {"i": got}


@_check("simplify")
def _c_simplify(case):
    code = parse(case["input"])
    if case.get("flatten"):
        code = codes.flatten(code)
    out = moves.simplify(code)
    return serialize(out) == case["expect"], {"code": serialize(out)}


@_check("sbm_matrix")
def _c_sbm_matrix(case):
    m = sbm.build_sbm(parse(case["input"]))
    got = {"elements": list(m.elements), "matrix": [list(r) for r in m.matrix]}
    want = {"elements": case["elements"], "matrix": case["matrix"]}
    return got == want, got


@_check("sbm_flags")
def _c_sbm_flags(case):
    m = sbm.build_sbm(parse(case["input"]))
    cls = sbm.classify(m)
    got = {
        "primitive": sbm.is_primitive(m),
        "d_annihilating_like": cls["d_annihilating_like"],
        "d_core_like": cls["d_core_like"],
        "annihilating": sorted(cls["annihilating"]),
        "core": sorted(cls["core"]),
        "complementary_pairs": sorted(map(list, cls["complementary_pairs"])),
    }
    want = {
        "primitive": case["primitive"],
        "d_annihilating_like": case["d_annihilating_like"],
        "d_core_like": case["d_core_like"],
        "annihilating": case.get("annihilating", []),
        "core": case.get("core", []),
        "complementary_pairs": case.get("complementary_pairs", []),
    }
    return got == want, got


@_check("sbm_homologous")
def _c_sbm_hom(case):
    m1 = sbm.build_sbm(parse(case["a"]))
    m2 = sbm.build_sbm(parse(case["b"]))
    hom, cert = sbm.homologous(m1, m2)
    return hom == case["homologous"], {"homologous": hom, "certificate": cert}


@_check("invariant_equal")
def _c_inv_equal(case):
    fn = _invariant(case["invariant"])
    va, vb = fn(parse(case["a"])), fn(parse(case["b"]))
    got = va == vb
    return got == case["equal"], {"equal": got, "a": va.to_json(), "b": vb.to_json()}


@_check("difference_coefficients")
def _c_diff_coeffs(case):
    fn = _invariant(case["invariant"])
    diff = fn(parse(case["a"])) - fn(parse(case["b"]))
    got = diff.coefficients()
    return got == case["coefficients"], {"coefficients": got}


@_check("order_check")
def _c_order(case):
    report = vassiliev.order_check(case["invariant"], case["order"],
                                   case["samples"], case["seed"])
    return report["all_zero"], report


def run_case(case: dict) -> dict:
    base = {"name": "?", "check": None}
    try:  # a case that is not an object fails at `case.get`, as a BadFixture
        base = {"name": case.get("name", "?"), "check": case.get("check")}
        fn = _CHECKS.get(base["check"])
        if fn is None:
            return {**base, "ok": False, "detail": {"error": "unknown check"}}
        ok, detail = fn(case)
    except KnotoidError as exc:
        return {**base, "ok": False, "detail": {"error": exc.kind, "message": str(exc)}}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return {**base, "ok": False,
                "detail": {"error": "BadFixture", "message": repr(exc)}}
    return {**base, "ok": bool(ok), "detail": detail}


def run_directory(directory: Path) -> list[dict]:
    directory = Path(directory)
    if not directory.is_dir():  # a missing path or a file: no cases to run
        if directory.exists():
            raise NotADirectoryError(f"{directory}: not a fixture directory")
        raise FileNotFoundError(f"{directory}: no such fixture directory")
    results = []
    for path in sorted(directory.glob("*.json")):
        try:
            cases = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise ParseError(f"{path.name}: invalid fixture JSON: {exc}") from None
        if not isinstance(cases, list):
            raise ParseError(f"{path.name}: a fixture file must hold a JSON list of cases")
        for case in cases:
            res = run_case(case)
            res["file"] = path.name
            results.append(res)
    return results
