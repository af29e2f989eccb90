"""Move enumeration, application, walks, and the greedy normalizer."""
import itertools
import random

import pytest

import knotoids as K
from knotoids import moves as M
from knotoids.errors import StaleMoveError, ValidityError
from knotoids.moves import MoveInstance, enumerate_moves
from knotoids.vassiliev import random_classical_code, random_flat_code, random_two_component_flat

from conftest import VK4, oracle_codes


def test_trivial_code_has_only_insertions():
    moves = enumerate_moves(K.parse("E"))
    assert moves
    assert all(m.rule.endswith("insert") for m in moves)


def test_kink_has_delete():
    moves = enumerate_moves(K.parse("O1+ U1+"))
    dels = [m for m in moves if m.rule == "R1_delete"]
    assert len(dels) == 1
    assert K.serialize(K.apply_move(K.parse("O1+ U1+"), dels[0])) == "E"


def test_insert_then_delete_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        fam = rng.choice(("classical", "flat"))
        base = (random_classical_code if fam == "classical" else random_flat_code)(
            rng.randrange(0, 5), rng)
        inserts = [m for m in enumerate_moves(base, fam) if m.rule.endswith("insert")]
        mv = rng.choice(inserts)
        grown = K.apply_move(base, mv)
        # some deletion must restore the original
        restored = False
        for dm in enumerate_moves(grown, fam):
            if not dm.rule.endswith("delete"):
                continue
            try:
                if K.apply_move(grown, dm) == base:
                    restored = True
                    break
            except StaleMoveError:
                continue
        assert restored, f"{K.serialize(base)} --{mv}--> {K.serialize(grown)}"


def test_moves_preserve_validity_and_affine():
    rng = random.Random(9)
    for _ in range(150):
        code = random_classical_code(rng.randrange(0, 5), rng)
        p = K.affine_index_polynomial(code)
        walked = K.random_walk(code, 5, rng.randrange(10**6))
        assert K.affine_index_polynomial(walked) == p


def test_r3_instances_preserve_affine():
    # every enumerated triangle slide preserves the affine polynomial
    rng = random.Random(15)
    tested = 0
    while tested < 60:
        code = K.random_walk(random_classical_code(rng.randrange(2, 5), rng),
                             3, rng.randrange(10**6))
        for mv in enumerate_moves(code, rules=("R3",)):
            moved = K.apply_move(code, mv)
            assert K.affine_index_polynomial(moved) == K.affine_index_polynomial(code)
            assert {c: moved.sign_of(c) for c in moved.classical_chords()} == \
                   {c: code.sign_of(c) for c in code.classical_chords()}
            tested += 1


def test_r3_instances_preserve_flat_affine():
    rng = random.Random(19)
    tested = 0
    while tested < 60:
        code = K.random_walk(random_flat_code(rng.randrange(2, 5), rng),
                             3, rng.randrange(10**6), "flat")
        for mv in enumerate_moves(code, "flat", rules=("R3",)):
            moved = K.apply_move(code, mv)
            assert K.flat_affine_polynomial(moved) == K.flat_affine_polynomial(code)
            tested += 1


def test_r3_roundtrip():
    # applying the same triangle slide twice restores the code
    rng = random.Random(21)
    seen = 0
    while seen < 40:
        code = K.random_walk(random_flat_code(3, rng), 3, rng.randrange(10**6), "flat")
        for mv in enumerate_moves(code, "flat", rules=("R3",)):
            once = K.apply_move(code, mv)
            again = [m for m in enumerate_moves(once, "flat", rules=("R3",))
                     if m.sites == mv.sites]
            assert any(K.apply_move(once, m) == code for m in again)
            seen += 1


def test_stale_move_raises():
    code = K.parse("O1+ U1+")
    mv = [m for m in enumerate_moves(code) if m.rule == "R1_delete"][0]
    shrunk = K.apply_move(code, mv)
    with pytest.raises(StaleMoveError):
        K.apply_move(shrunk, mv)


def test_random_walk_deterministic(vk4):
    a = K.random_walk(vk4, 8, 12345)
    b = K.random_walk(vk4, 8, 12345)
    assert a == b
    assert K.random_walk(vk4, 0, 1) == vk4


def test_simplify_examples(vk4):
    assert K.serialize(K.simplify(K.parse("O1+ U1+"))) == "E"
    assert K.serialize(K.simplify(K.flatten(vk4))) == "E"
    out = K.simplify(vk4)
    assert K.simplify(out) == out


def test_simplify_reduces_inflated_trivial():
    rng = random.Random(25)
    for _ in range(50):
        walked = K.random_walk(K.parse("E"), 6, rng.randrange(10**6))
        assert K.serialize(K.simplify(walked)) == "E"
    for _ in range(50):
        walked = K.random_walk(K.parse("E"), 6, rng.randrange(10**6), "flat")
        assert K.serialize(K.simplify(walked)) == "E"


def test_walks_stay_within_family(vk4):
    walked = K.random_walk(vk4, 10, 77)
    assert walked.is_classical_kind
    flat_walked = K.random_walk(K.flatten(vk4), 10, 77, "flat")
    assert flat_walked.is_flat_kind


def test_preferred_switch():
    # the singular designation slides across a nested arrow: the arcs
    # tail(1)..head(2) and tail(2)..head(1) are both empty
    code = K.parse("SA1* B2 A2 SB1*")
    switches = [m for m in enumerate_moves(code, "flat") if m.rule == "PreferredSwitch"]
    assert len(switches) == 1
    out = K.apply_move(code, switches[0])
    assert K.serialize(out) == "A1 SB2* SA2* B1"
    # switching back restores the original
    back = [m for m in enumerate_moves(out, "flat") if m.rule == "PreferredSwitch"]
    assert len(back) == 1
    assert K.apply_move(out, back[0]) == code


def test_preferred_switch_blocked_by_obstruction():
    # interleaved arrows do not satisfy the arc-emptiness condition
    assert not [m for m in enumerate_moves(K.parse("SA1* A2 SB1* B2"), "flat")
                if m.rule == "PreferredSwitch"]
    # a passage inside one connecting arc blocks the slide as well
    code = K.parse("SA1* A3 B2 B3 A2 SB1*")
    switches = [m for m in enumerate_moves(code, "flat")
                if m.rule == "PreferredSwitch" and m.variant == "1->2"]
    assert not switches


def test_move_instance_fields():
    mv = MoveInstance("R1_insert", ((0, 0),), "AB")
    assert mv.rule == "R1_insert"
    assert mv.sites == ((0, 0),)
    assert mv.variant == "AB"


def test_family_mismatch_raises(vk4):
    flat = K.flatten(vk4)
    with pytest.raises(ValidityError):
        enumerate_moves(vk4, "flat")
    with pytest.raises(ValidityError):
        enumerate_moves(flat, "classical")
    with pytest.raises(ValidityError):
        K.random_walk(vk4, 3, 1, "flat")
    with pytest.raises(ValidityError):
        K.random_walk(flat, 3, 1, "classical")
    assert K.random_walk(vk4, 0, 1, "flat") == vk4
    # singular chords go with either family
    sing = K.parse("O2+ SA1 U2+ SB1")
    assert enumerate_moves(sing, "classical")
    assert enumerate_moves(K.parse("SA1 SB1"), "flat")


# -- oracle: the brute-force scans the pair index and the insert decoders replace

def _ref_r2_deletes(code, fam):
    pairs = list(M._adjacent_pairs(code))
    out = []
    for (ka, ia, ja), (kb, ib, jb) in itertools.combinations(pairs, 2):
        if ka == kb and {ia, ja} & {ib, jb}:
            continue
        a1, a2 = code.components[ka][ia], code.components[ka][ja]
        b1, b2 = code.components[kb][ib], code.components[kb][jb]
        if M._r2_pair_ok(a1, a2, b1, b2, fam):
            out.append(MoveInstance("R2_delete", ((ka, ia), (kb, ib))))
    return out


def _ref_r3(code, fam):
    pairs = [(k, i, j) for k, i, j in M._adjacent_pairs(code)
             if code.components[k][i].chord != code.components[k][j].chord
             and M._movable(code.components[k][i], fam)
             and M._movable(code.components[k][j], fam)]
    out = []
    for trip in itertools.combinations(pairs, 3):
        positions = [(k, p) for (k, i, j) in trip for p in (i, j)]
        if len(set(positions)) != 6:
            continue
        chords = {}
        for (k, p) in positions:
            c = code.components[k][p].chord
            chords[c] = chords.get(c, 0) + 1
        if len(chords) != 3 or set(chords.values()) != {2}:
            continue
        sig = M.r3_signature(tuple(M._site_tuple(code, k, i, j) for (k, i, j) in trip))
        if sig in M._r3_table()[fam]:
            out.append(MoveInstance("R3", tuple((k, i) for (k, i, j) in trip), sig))
    return out


def _ref_inserts(code, fam):
    gaps = [(k, g) for k, comp in enumerate(code.components) for g in range(len(comp) + 1)]
    out = [MoveInstance("R1_insert", (gap,), v) for gap in gaps for v in M._R1_VARIANTS[fam]]
    table = M._R2_CLASSICAL if fam == "classical" else M._R2_FLAT
    out += [MoveInstance("R2_insert", pair, v)
            for pair in itertools.combinations_with_replacement(gaps, 2) for v in table]
    return out


def _ref_enumerate(code, fam):
    out = M._r1_deletes(code, fam) + _ref_r2_deletes(code, fam) + _ref_r3(code, fam)
    out += _ref_inserts(code, fam)
    if fam == "flat" and code.preferred_chord() is not None:
        out += M._preferred_switches(code)
    return sorted(out, key=MoveInstance.sort_key)


def test_enumerate_matches_brute_force():
    seen = set()
    for code, fam in oracle_codes(300, 41):
        assert enumerate_moves(code, fam) == _ref_enumerate(code, fam), K.serialize(code)
        listed = enumerate_moves(code, fam, ("R2_delete", "R3", "PreferredSwitch"))
        seen.update(m.rule for m in listed)
    assert seen == {"R2_delete", "R3", "PreferredSwitch"}


def test_insert_counts_closed_form():
    for code, fam in oracle_codes(60, 43):
        for code in (code, K.add_unknot(code)):
            assert M._r1_insert_count(code, fam) == \
                len(enumerate_moves(code, fam, ("R1_insert",)))
            assert M._r2_insert_count(code, fam) == \
                len(enumerate_moves(code, fam, ("R2_insert",)))


def test_random_walk_matches_choice_over_enumeration():
    starts = [(c, f) for c, f in oracle_codes(60, 47) if c.chord_count() <= 4]
    for seed in range(1000):
        code, fam = starts[seed % len(starts)]
        family = None if seed % 7 == 0 else fam
        steps = 1 + seed % 2
        rng = random.Random(seed)
        ref = code
        for _ in range(steps):
            ref = K.apply_move(ref, rng.choice(enumerate_moves(ref, family)))
        assert K.random_walk(code, steps, seed, family) == ref, (K.serialize(code), seed)


def test_long_walks_keep_p_q_and_index():
    # 25-step walks from 10-20-chord codes
    rng = random.Random(53)
    for _ in range(4):
        code = random_classical_code(rng.randrange(10, 21), rng)
        walked = K.random_walk(code, 25, rng.randrange(10**6))
        assert K.affine_index_polynomial(walked) == K.affine_index_polynomial(code)
        flat = random_flat_code(rng.randrange(10, 21), rng)
        fwalked = K.random_walk(flat, 25, rng.randrange(10**6), "flat")
        assert K.flat_affine_polynomial(fwalked) == K.flat_affine_polynomial(flat)
        two = random_two_component_flat(rng.randrange(10, 21), rng)
        twalked = K.random_walk(two, 25, rng.randrange(10**6), "flat")
        assert abs(K.intersection_index(K.OrderedTwoComponent(twalked, 0, 1))) == \
            abs(K.intersection_index(K.OrderedTwoComponent(two, 0, 1)))
