"""Golden digests of seeded random walks.

`data/walk_digests.json` holds, for 60 seeded start codes of 0-20 chords
(classical, classical-singular, flat, two-component flat and flat-singular with
a preferred chord, twelve of each), one walk under the start's own move family
and one under `None`, each of 0-15 steps: the start's text, the family, the
steps, the seed and the sha256 of the walked code's text. The file is recorded
from a commit whose output is known good, by

    PYTHONPATH=src python tests/test_walk_digests.py

and is never re-recorded to make a change pass.
"""
import hashlib
import json
import random
from pathlib import Path

from knotoids.codes import parse, serialize
from knotoids.moves import random_walk
from knotoids.vassiliev import (random_classical_code, random_flat_code, random_singular_code,
                                random_two_component_flat)

from conftest import with_preferred

GOLDEN = Path(__file__).parent / "data" / "walk_digests.json"


def _digest(code) -> str:
    return hashlib.sha256(serialize(code).encode()).hexdigest()


def _start(kind: int, n: int, rng: random.Random):
    """A start code of n chords of the kind-th sort, with its move family."""
    if kind == 0:
        return random_classical_code(n, rng), "classical"
    if kind == 1:
        s = rng.randrange(0, min(n, 3) + 1)
        return random_singular_code(n - s, s, rng), "classical"
    if kind == 2:
        return random_flat_code(n, rng), "flat"
    if kind == 3:
        return random_two_component_flat(n, rng), "flat"
    return with_preferred(random_flat_code(max(n, 1), rng), rng), "flat"


def _record() -> list[dict]:
    rng = random.Random(2501)
    cases = []
    for t in range(60):
        code, fam = _start(t % 5, rng.randrange(0, 21), rng)
        for family in (fam, None):
            steps, seed = rng.randrange(0, 16), rng.randrange(10**6)
            cases.append({"start": serialize(code), "family": family, "steps": steps,
                          "seed": seed, "sha256": _digest(random_walk(code, steps, seed, family))})
    return cases


def test_walk_digests():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 120
    for case in cases:
        walked = random_walk(parse(case["start"]), case["steps"], case["seed"], case["family"])
        assert _digest(walked) == case["sha256"], case


if __name__ == "__main__":
    recorded = _record()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"{len(recorded)} cases -> {GOLDEN}")
