"""Exhaustive invariance census: every one-component classical code of a few
crossings, and every kink deletion, poke deletion and triangle slide listed on
it, must keep `F`, `L`, `G` and `P`.

The codes are chord diagrams on a line (chords numbered in order of first
appearance) times the choice of each chord's Over passage times its sign. A
deletion lands on a smaller code; a slide stays at the same size. The census
catches a move rule that lists a move which is not a knotoid move, when that
move changes one of the four invariants on so small a code: dropping the sign
test of the poke rule makes 124 of 1508 listed moves change an invariant at
3 crossings. It does not catch every fault. Dropping the triangle rule's Over
clause changes nothing at 3 crossings; `tests/test_moves.py` pins that clause
against the table of oriented slides.
"""
import itertools

import pytest

import knotoids as K
from knotoids.codes import Passage, Role

_CHECKED = ("R1_delete", "R2_delete", "R3")


def _diagrams(n: int):
    """Every word of 2n chord ids, each id twice, numbered by first appearance."""
    def grow(word, fresh, open_chords):
        if len(word) == 2 * n:
            yield word
            return
        if fresh <= n:
            yield from grow(word + (fresh,), fresh + 1, open_chords | {fresh})
        for c in sorted(open_chords):
            yield from grow(word + (c,), fresh, open_chords - {c})
    yield from grow((), 1, frozenset())


def _census(max_crossings: int):
    """Every one-component classical code of at most `max_crossings` crossings."""
    for n in range(max_crossings + 1):
        for word in _diagrams(n):
            for overs in itertools.product((Role.OVER, Role.UNDER), repeat=n):
                for signs in itertools.product((1, -1), repeat=n):
                    seen = set()
                    passages = []
                    for c in word:
                        role = overs[c - 1].flipped() if c in seen else overs[c - 1]
                        passages.append(Passage(c, role, signs[c - 1]))
                        seen.add(c)
                    yield K.KnotoidCode((tuple(passages),))


def _census_changes(max_crossings: int):
    """(codes, listed moves, the moves that change F, L, G or P)."""
    values = {}

    def invariants(code):
        key = K.serialize(code)
        if key not in values:
            values[key] = (K.invariant_F(code), K.invariant_L(code), K.invariant_G(code),
                           K.affine_index_polynomial(code))
        return values[key]

    codes = moves = 0
    changed = []
    for code in _census(max_crossings):
        codes += 1
        for mv in K.enumerate_moves(code, rules=_CHECKED):
            moves += 1
            if invariants(K.apply_move(code, mv)) != invariants(code):
                changed.append((K.serialize(code), mv))
    return codes, moves, changed


def test_census_generates_every_small_code_once():
    # (2n - 1)!! chord diagrams times 4^n choices of Over ends and signs
    for n, diagrams in enumerate((1, 1, 3, 15, 105)):
        assert sum(1 for _ in _diagrams(n)) == diagrams
    codes = [K.serialize(code) for code in _census(3)]
    assert len(codes) == len(set(codes)) == 1 + 4 + 3 * 16 + 15 * 64


def test_moves_keep_invariants_on_the_three_crossing_census():
    assert _census_changes(3) == (1013, 1308, [])


@pytest.mark.slow
def test_moves_keep_invariants_on_the_four_crossing_census():
    assert _census_changes(4) == (27893, 37788, [])
