"""Golden digests of `G` at 7-20 crossings, where the golden CLI sweep (up to 8
crossings) does not reach, and at 30, 40 and 60 crossings.

`data/g_digests.json` holds, for three seeded classical codes per size from 7
to 20, the code's text and the sha256 of `json.dumps(invariant_G(code).to_json(),
sort_keys=True)`; `data/g_digests_large.json` holds the same for two seeded
codes at each of 30, 40 and 60 crossings. The files are recorded from a commit
whose output is known good, by

    PYTHONPATH=src python tests/test_g_digests.py

and are never re-recorded to make a change pass.
"""
import hashlib
import json
import random
from pathlib import Path

from knotoids.codes import parse, serialize
from knotoids.vassiliev import invariant_G, random_classical_code

GOLDEN = Path(__file__).parent / "data" / "g_digests.json"
GOLDEN_LARGE = Path(__file__).parent / "data" / "g_digests_large.json"


def _digest(code) -> str:
    text = json.dumps(invariant_G(code).to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _record(sizes, per_size: int) -> list[dict]:
    cases = []
    for n in sizes:
        for seed in range(100 * n, 100 * n + per_size):
            code = random_classical_code(n, random.Random(seed))
            cases.append({"crossings": n, "seed": seed, "code": serialize(code),
                          "sha256": _digest(code)})
    return cases


def _check(path: Path, count: int):
    cases = json.loads(path.read_text())
    assert len(cases) == count
    for case in cases:
        code = parse(case["code"])
        assert code.chord_count() == case["crossings"]
        assert _digest(code) == case["sha256"], case["code"]


def test_g_digests():
    _check(GOLDEN, 42)


def test_g_digests_large():
    _check(GOLDEN_LARGE, 6)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, sizes, per_size in ((GOLDEN, range(7, 21), 3), (GOLDEN_LARGE, (30, 40, 60), 2)):
        recorded = _record(sizes, per_size)
        path.write_text(json.dumps(recorded, indent=1) + "\n")
        print(f"{len(recorded)} cases -> {path}")
