"""Golden CLI check: a fixed sweep of `cli.main` calls keeps its exit codes and
stdout byte for byte.

`data/cli_golden.json` records each call as its argv, the files it reads (by
name, relative to the working directory) and the exit code and stdout it gave.
The sweep covers `validate`, `invariant *`, `smooth`, `glue`, `vassiliev`,
`sbm build|primitive|compare` and `walk` over the shipped corpus codes plus
seeded 3-8-crossing codes and their glues. The file is recorded from a commit
whose output is known good, by

    PYTHONPATH=src python tests/test_cli_golden.py

and is never re-recorded to make a change pass.
"""
import contextlib
import io
import json
import os
import random
from importlib import resources
from pathlib import Path

from knotoids import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _run(call) -> tuple[int, str]:
    for name, text in call["files"].items():
        Path(name).write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(call["argv"]))
    return rc, out.getvalue()


def test_cli_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # building the argument parser is most of a small call's cost; it is the
    # same parser on every call, so build it once
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    calls = json.loads(GOLDEN.read_text())
    assert len(calls) > 400
    diffs = []
    for call in calls:
        rc, out = _run(call)
        if (rc, out) != (call["rc"], call["stdout"]):
            diffs.append((call["argv"], call["files"], call["rc"], call["stdout"], rc, out))
    assert not diffs, f"{len(diffs)} calls changed; first: {diffs[0]}"


# -- recording the sweep ------------------------------------------------------

def _corpus_codes() -> list[str]:
    texts = []
    corpus = resources.files("knotoids").joinpath("data/corpus")
    for name in sorted(p.name for p in corpus.iterdir() if p.name.endswith(".json")):
        for case in json.loads(corpus.joinpath(name).read_text()):
            texts += [case[k] for k in ("input", "a", "b", "expect", "canonical") if k in case]
            texts += [t["code"] for t in case.get("terms", [])]
    return list(dict.fromkeys(texts))


def _seeded_codes() -> list[str]:
    from knotoids import codes, surgery, vassiliev

    rng = random.Random(2024)
    texts = []
    for n in range(3, 9):
        code = vassiliev.random_classical_code(n, rng)
        ends = sorted({code.classical_chords()[0], code.classical_chords()[-1]})
        texts.append(codes.serialize(code))
        texts += [codes.serialize(surgery.glue(code, c)) for c in ends]
        texts.append(codes.serialize(vassiliev.random_singular_code(n - 2, rng.randrange(1, 3),
                                                                     rng)))
        texts.append(codes.serialize(vassiliev.random_flat_code(n, rng)))
        texts.append(codes.serialize(vassiliev.random_two_component_flat(n, rng)))
    return list(dict.fromkeys(texts))


def _code_calls(text: str) -> list[dict]:
    from knotoids import codes
    from knotoids.errors import KnotoidError

    try:
        ids = codes.parse(text).chord_ids() or [1]
    except KnotoidError:
        ids = [1]
    chords = sorted({ids[0], ids[-1]})
    argvs = [["validate"], ["sbm", "build"], ["sbm", "primitive"], ["glue", "--at", "1"],
             ["walk", "--steps", "6", "--seed", "3"]]
    argvs += [["invariant", w] for w in ("affine", "flat-affine", "report")]
    argvs += [["smooth", w, "--at", str(c)] for w in ("zero", "one") for c in chords]
    argvs += [["glue", "--at", str(c)] for c in chords[1:]]
    argvs += [["walk", "--steps", "4", "--seed", "5", "--family", f]
              for f in ("classical", "flat")]
    if len(ids) <= 6:
        argvs += [["vassiliev", w] for w in ("f", "l", "g")]
        argvs += [["vassiliev", "derivative", "--inv", w] for w in ("f", "l", "g", "p")]
    else:  # the sweep was recorded with G on codes of at most 6 chords only; F, L and P on all
        argvs += [["vassiliev", w] for w in ("f", "l")]
        argvs += [["vassiliev", "derivative", "--inv", w] for w in ("f", "l", "p")]
    return [{"argv": argv + ["a.gauss"], "files": {"a.gauss": text}} for argv in argvs]


def _sbm_calls(texts: list[str]) -> list[dict]:
    """`sbm primitive` and `compare` on built matrices, on extensions of them and
    on the reference matrices, as JSON files."""
    from knotoids import codes, sbm
    from knotoids.errors import KnotoidError

    rng = random.Random(7)
    built = []
    for text in texts:
        try:
            built.append(sbm.build_sbm(codes.parse(text)))
        except KnotoidError:
            pass
    calls = []
    for m in built[::3]:
        srow = dict(zip(m.elements, m.row(m.s)))
        row_i = {e: rng.randrange(-2, 3) for e in m.elements}
        row_j = {e: srow[e] - row_i[e] for e in m.elements}
        for move in (("M1",), ("M2",), ("M3", row_i, row_j)):
            ext = sbm.apply_ext(m, move)
            files = {"a.json": json.dumps(m.to_json()), "b.json": json.dumps(ext.to_json())}
            calls.append({"argv": ["sbm", "primitive", "b.json"], "files": files})
            calls.append({"argv": ["sbm", "compare", "a.json", "b.json"], "files": files})
    for m1, m2 in zip(built, built[1:]):
        files = {"a.json": json.dumps(m1.to_json()), "b.json": json.dumps(m2.to_json())}
        calls.append({"argv": ["sbm", "compare", "a.json", "b.json"], "files": files})
    return calls


def _record() -> list[dict]:
    texts = _corpus_codes() + _seeded_codes()
    calls = [c for text in texts for c in _code_calls(text)]
    calls += _sbm_calls(texts)
    calls += [{"argv": ["--human"] + c["argv"], "files": c["files"]} for c in calls[:40:4]]
    for call in calls:
        call["rc"], call["stdout"] = _run(call)
    return calls


if __name__ == "__main__":
    import tempfile

    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        recorded = _record()
        os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"{len(recorded)} calls -> {GOLDEN}")
