"""Seeded Gauss-code text generator for the benchmark's inputs.

The benchmark makes every input here, as text, so that no change to the
measured program can change what it is fed. The program only ever sees the
strings returned by these functions, parsed during set-up.

Token grammar (the program's README): `O3+`/`U3+` classical passages with the
crossing sign, `A2`/`B2` flat arrow tail/head, `SA1`/`SB1` singular tail/head
with an optional `*` preferred mark; components are joined by ` / `.
"""
from __future__ import annotations

import random
import re

_TOKEN = re.compile(r"^(SA|SB|O|U|A|B)(\d+)([+-]?\*?)$")


def _insert_pair(seq: list, first: str, second: str, rng: random.Random) -> None:
    seq.insert(rng.randrange(len(seq) + 1), first)
    seq.insert(rng.randrange(len(seq) + 1), second)


def _classical_chords(seq: list, ids: range, rng: random.Random) -> None:
    for cid in ids:
        sign = rng.choice("+-")
        a, b = ("O", "U") if rng.random() < 0.5 else ("U", "O")
        _insert_pair(seq, f"{a}{cid}{sign}", f"{b}{cid}{sign}", rng)


def classical(n: int, rng: random.Random) -> str:
    """Open classical code with `n` crossings: each crossing's Over and Under
    passages land at uniformly random places in the traversal."""
    seq: list[str] = []
    _classical_chords(seq, range(1, n + 1), rng)
    return " ".join(seq)


def flat(n: int, rng: random.Random) -> str:
    """Open flat code with `n` arrows, tail and head placed at random."""
    seq: list[str] = []
    for cid in range(1, n + 1):
        a, b = ("A", "B") if rng.random() < 0.5 else ("B", "A")
        _insert_pair(seq, f"{a}{cid}", f"{b}{cid}", rng)
    return " ".join(seq)


def singular(n_classical: int, n_singular: int, rng: random.Random) -> str:
    """Open code with classical crossings plus unmarked singular crossings."""
    seq: list[str] = []
    _classical_chords(seq, range(1, n_classical + 1), rng)
    for cid in range(n_classical + 1, n_classical + n_singular + 1):
        a, b = ("SA", "SB") if rng.random() < 0.5 else ("SB", "SA")
        _insert_pair(seq, f"{a}{cid}", f"{b}{cid}", rng)
    return " ".join(seq)


def two_component_flat(n: int, rng: random.Random) -> str:
    """Open component plus one closed component; each arrow end picks its
    component at random, so some arrows join the two."""
    comps: list[list[str]] = [[], []]
    for cid in range(1, n + 1):
        a, b = ("A", "B") if rng.random() < 0.5 else ("B", "A")
        for tok in (f"{a}{cid}", f"{b}{cid}"):
            comp = comps[rng.randrange(2)]
            comp.insert(rng.randrange(len(comp) + 1), tok)
    return " / ".join(" ".join(c) if c else "E" for c in comps)


def glued(text: str, cid: int) -> str:
    """Classical or flat code with crossing `cid` turned into the preferred
    singular crossing and every other crossing flattened.

    Flattening follows the crossing-sign convention: a positive crossing sends
    its Over passage to the arrow tail, a negative one its Under passage."""
    out = []
    for tok in text.split():
        role, c, rest = _TOKEN.match(tok).groups()
        if role in "OU":
            tail = (rest == "+") == (role == "O")
            role = "A" if tail else "B"
        if int(c) == cid:
            out.append(("SA" if role == "A" else "SB") + c + "*")
        else:
            out.append(role + c)
    return " ".join(out)


def mirror(text: str) -> str:
    """Switch over and under at every classical crossing; signs negate."""
    def m(tok: str) -> str:
        role, c, rest = _TOKEN.match(tok).groups()
        if role not in "OU":
            return tok
        return ("U" if role == "O" else "O") + c + ("-" if rest == "+" else "+")
    return " / ".join(" ".join(m(t) for t in comp.split()) for comp in text.split(" / "))


def reverse(text: str) -> str:
    """Reverse the orientation: traversal order reverses, every passage keeps
    its role and sign."""
    return " / ".join(" ".join(reversed(comp.split())) for comp in text.split(" / "))


def relabel(text: str, rng: random.Random) -> str:
    """Rename the crossings by a random permutation of their ids; the diagram
    is unchanged, the text is not."""
    ids = sorted({int(_TOKEN.match(t).group(2)) for t in text.split() if t not in ("/", "E")})
    new = ids[:]
    rng.shuffle(new)
    ren = dict(zip(ids, new))

    def r(tok: str) -> str:
        if tok in ("/", "E"):
            return tok
        role, c, rest = _TOKEN.match(tok).groups()
        return f"{role}{ren[int(c)]}{rest}"
    return " ".join(r(t) for t in text.split())
