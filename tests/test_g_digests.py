"""Golden digests of `G` at 7-20 crossings, where the golden CLI sweep (up to 8
crossings) does not reach.

`data/g_digests.json` holds, for three seeded classical codes per size, the
code's text and the sha256 of `json.dumps(invariant_G(code).to_json(),
sort_keys=True)`. The file is recorded from a commit whose output is known
good, by

    PYTHONPATH=src python tests/test_g_digests.py

and is never re-recorded to make a change pass.
"""
import hashlib
import json
import random
from pathlib import Path

from knotoids.codes import parse, serialize
from knotoids.vassiliev import invariant_G, random_classical_code

GOLDEN = Path(__file__).parent / "data" / "g_digests.json"


def _digest(code) -> str:
    text = json.dumps(invariant_G(code).to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _record() -> list[dict]:
    cases = []
    for n in range(7, 21):
        for seed in range(100 * n, 100 * n + 3):
            code = random_classical_code(n, random.Random(seed))
            cases.append({"crossings": n, "seed": seed, "code": serialize(code),
                          "sha256": _digest(code)})
    return cases


def test_g_digests():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 42
    for case in cases:
        code = parse(case["code"])
        assert code.chord_count() == case["crossings"]
        assert _digest(code) == case["sha256"], case["code"]


if __name__ == "__main__":
    recorded = _record()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"{len(recorded)} cases -> {GOLDEN}")
