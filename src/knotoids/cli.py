"""Command-line front end: every operation over Gauss-code files, JSON out.

Exit codes: 0 success, 1 domain error or unreadable input (JSON {"error": kind,
"detail": ...} on stdout), 2 usage error. Output is byte-stable for fixed inputs
and seeds; pass --human for indented JSON.
"""
from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import codes, invariants, moves, sbm, surgery, vassiliev
from .errors import KnotoidError, ParseError

__all__ = ["main"]


def _emit(obj, human: bool) -> None:
    if human:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8") if path != "-" else sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _read_code(path: str) -> codes.KnotoidCode:
    return codes.parse(" ".join(_read_text(path).split()))


def _read_sbm(path: str) -> sbm.SBM:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid SBM JSON: {exc}") from None
        return sbm.SBM.from_json(data)
    return sbm.build_sbm(codes.parse(" ".join(text.split())))


def _cmd_validate(args):
    code = _read_code(args.file)
    return {
        "ok": True,
        "kind": code.kind,
        "chords": code.chord_count(),
        "components": len(code.components),
        "canonical": codes.serialize(code),
    }


def _cmd_invariant(args):
    code = _read_code(args.file)
    if args.which == "affine":
        return {"P": invariants.affine_index_polynomial(code).to_json()}
    if args.which == "flat-affine":
        return {"Q": invariants.flat_affine_polynomial(code).to_json()}
    report = {
        "writhe": invariants.writhe(code),
        "crossings": [
            {"id": r.chord, "sign": r.sign, "weight": r.weight, "flat_weight": r.flat_weight}
            for r in invariants.crossing_reports(code)
        ] if code.classical_chords() else [],
    }
    if code.classical_chords():
        p, pp, pm, w0p = invariants.affine_index_decomposition(code)
        report["P"] = p.to_json()
        report["decomposition"] = {
            "Pplus": pp.to_json(), "Pminus": pm.to_json(), "w0prime": w0p,
        }
    if len(code.components) == 1 and not code.singular_chords():
        report["Q"] = invariants.flat_affine_polynomial(
            codes.flatten(code)).to_json()
    return report


def _cmd_smooth(args):
    code = _read_code(args.file)
    if args.which == "zero":
        return {"code": codes.serialize(surgery.zero_smooth(code, args.at))}
    smoothed, view = surgery.one_smooth(code, args.at)
    return {
        "code": codes.serialize(smoothed),
        "ell1": view.ell1,
        "intersection_index": invariants.intersection_index(view),
    }


def _cmd_glue(args):
    code = _read_code(args.file)
    return {"code": codes.serialize(surgery.glue(code, args.at))}


def _cmd_vassiliev(args):
    code = _read_code(args.file)
    if args.which == "derivative":
        value = vassiliev.derivative(args.inv, code)
        if isinstance(value, invariants.LaurentPoly):
            return {"P": value.to_json()}
        return value.to_json()
    return vassiliev.INVARIANTS[args.which](code).to_json()


def _cmd_sbm(args):
    if args.which == "build":
        return sbm.build_sbm(_read_code(args.a)).to_json()
    if args.which == "primitive":
        m = _read_sbm(args.a)
        cls = sbm.classify(m)
        return {
            "primitive": sbm.is_primitive(m),
            "d_annihilating_like": cls["d_annihilating_like"],
            "d_core_like": cls["d_core_like"],
        }
    m1, m2 = _read_sbm(args.a), _read_sbm(args.b)
    hom, cert = sbm.homologous(m1, m2)
    return {"homologous": hom, "certificate": cert}


def _cmd_walk(args):
    code = _read_code(args.file)
    out = moves.random_walk(code, args.steps, args.seed, args.family)
    return {"code": codes.serialize(out)}


def _corpus_dir_default() -> Path:
    return Path(str(resources.files("knotoids").joinpath("data/corpus")))


def _cmd_corpus(args):
    from . import corpus

    directory = Path(args.dir) if args.dir else _corpus_dir_default()
    results = corpus.run_directory(directory)
    failures = [r for r in results if not r["ok"]]
    return {
        "cases": len(results),
        "passed": len(results) - len(failures),
        "failures": failures,
        "ok": not failures,
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="knotoids",
                                 description="Gauss-code invariants of virtual knotoids")
    ap.add_argument("--human", action="store_true", help="indent JSON output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="parse and validate a Gauss-code file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("invariant", help="polynomial invariants")
    p.add_argument("which", choices=("affine", "flat-affine", "report"))
    p.add_argument("file")
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("smooth", help="smooth a crossing")
    p.add_argument("which", choices=("zero", "one"))
    p.add_argument("--at", type=int, required=True, metavar="ID")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_smooth)

    p = sub.add_parser("glue", help="glue a crossing into a singular one")
    p.add_argument("--at", type=int, required=True, metavar="ID")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_glue)

    p = sub.add_parser("vassiliev", help="smoothing/gluing invariants and derivatives")
    p.add_argument("which", choices=("f", "l", "g", "derivative"))
    p.add_argument("--inv", default="f", choices=("f", "l", "g", "p"),
                   help="invariant to differentiate (derivative only)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_vassiliev)

    p = sub.add_parser("sbm", help="singular based matrices")
    p.add_argument("which", choices=("build", "primitive", "compare"))
    p.add_argument("a", help="Gauss-code file (build) or code/SBM-JSON file")
    p.add_argument("b", nargs="?", help="second file (compare)")
    p.set_defaults(fn=_cmd_sbm)

    p = sub.add_parser("walk", help="random move walk")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--family", choices=("classical", "flat"), default=None)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("corpus", help="run a fixture directory")
    p.add_argument("dir", nargs="?", help="defaults to the shipped corpus")
    p.set_defaults(fn=_cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "sbm" and args.which == "compare" and not args.b:
        ap.error("sbm compare needs two files")
    try:
        result = args.fn(args)
    except KnotoidError as exc:
        _emit({"error": exc.kind, "detail": str(exc)}, args.human)
        return 1
    except OSError as exc:
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) else "Unreadable"
        _emit({"error": kind, "detail": str(exc)}, args.human)
        return 1
    _emit(result, args.human)
    if args.cmd == "corpus" and not result["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
