"""Move enumeration, application, walks, and the greedy normalizer."""
import itertools
import random

import pytest

import knotoids as K
from knotoids import moves as M
from knotoids.codes import Passage, Role, _rotate_canonical
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
    # every listed move also applies as the old apply layer (below) did
    seen, applied = set(), set()
    for code, fam in oracle_codes(300, 41):
        moves = enumerate_moves(code, fam)
        assert moves == _ref_enumerate(code, fam), K.serialize(code)
        listed = enumerate_moves(code, fam, ("R2_delete", "R3", "PreferredSwitch"))
        seen.update(m.rule for m in listed)
        if fam == "flat":
            assert M._preferred_switches(code) == _ref_preferred_switches(code)
        for mv in moves:
            assert K.apply_move(code, mv).components == _ref_apply_move(code, mv, _rotated), \
                (K.serialize(code), mv)
            applied.add(mv.rule)
    assert seen == {"R2_delete", "R3", "PreferredSwitch"}
    assert applied == set(M._APPLIERS)


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


# -- oracle: the apply layer as it was, one applier per rule and checks inside each;
# the appliers return the new components, which `build` turns into the result

def _ref_apply_move(code, move, build=K.KnotoidCode):
    appliers = {"R1_delete": _ref_r1_delete, "R1_insert": _ref_r1_insert,
                "R2_delete": _ref_r2_delete, "R2_insert": _ref_r2_insert,
                "R3": _ref_r3_apply, "PreferredSwitch": _ref_switch}
    try:
        if move.rule in appliers:
            return build(appliers[move.rule](code, move))
    except (IndexError, ValidityError) as exc:
        raise StaleMoveError(str(exc)) from exc
    raise StaleMoveError(f"unknown rule {move.rule!r}")


def _ref_pair_positions(code, comp, i):
    n = len(code.components[comp])
    j = i + 1 if comp == 0 else (i + 1) % n
    if not (0 <= i < n) or not (0 <= j < n) or (comp == 0 and j >= n):
        raise StaleMoveError("site out of range")
    return i, j


def _ref_delete_positions(code, doomed):
    comps = []
    for k, comp in enumerate(code.components):
        dead = doomed.get(k, set())
        comps.append(tuple(p for i, p in enumerate(comp) if i not in dead))
    return tuple(comps)


def _ref_r1_delete(code, move):
    (k, i), = move.sites
    i, j = _ref_pair_positions(code, k, i)
    a, b = code.components[k][i], code.components[k][j]
    if a.chord != b.chord or a.role.is_singular:
        raise StaleMoveError("no kink at site")
    return _ref_delete_positions(code, {k: {i, j}})


def _ref_r1_insert(code, move):
    (k, gap), = move.sites
    comp = code.components[k]
    if not 0 <= gap <= len(comp):
        raise StaleMoveError("gap out of range")
    cid = code.fresh_chord_id()
    v = move.variant
    if v in ("AB", "BA"):
        roles = (Role.TAIL, Role.HEAD) if v == "AB" else (Role.HEAD, Role.TAIL)
        ins = (Passage(cid, roles[0]), Passage(cid, roles[1]))
    elif v and v[0] in "OU" and v[1] in "+-":
        sign = 1 if v[1] == "+" else -1
        first = Role.OVER if v[0] == "O" else Role.UNDER
        ins = (Passage(cid, first, sign), Passage(cid, first.flipped(), sign))
    else:
        raise StaleMoveError(f"bad kink variant {v!r}")
    comps = list(code.components)
    comps[k] = comp[:gap] + ins + comp[gap:]
    return tuple(comps)


def _ref_r2_delete(code, move):
    (ka, ia), (kb, ib) = move.sites
    ia, ja = _ref_pair_positions(code, ka, ia)
    ib, jb = _ref_pair_positions(code, kb, ib)
    if ka == kb and {ia, ja} & {ib, jb}:
        raise StaleMoveError("overlapping sites")
    a1, a2 = code.components[ka][ia], code.components[ka][ja]
    b1, b2 = code.components[kb][ib], code.components[kb][jb]
    fam = "classical" if a1.role.is_classical else "flat"
    if not M._r2_pair_ok(a1, a2, b1, b2, fam):
        raise StaleMoveError("no poke pair at sites")
    doomed = {}
    doomed.setdefault(ka, set()).update((ia, ja))
    doomed.setdefault(kb, set()).update((ib, jb))
    return _ref_delete_positions(code, doomed)


def _ref_r2_insert(code, move):
    (k1, g1), (k2, g2) = move.sites
    table = M._R2_CLASSICAL if move.variant in M._R2_CLASSICAL else M._R2_FLAT
    if move.variant not in table:
        raise StaleMoveError(f"bad poke variant {move.variant!r}")
    site1, site2 = table[move.variant]
    cid = code.fresh_chord_id()
    ids = (cid, cid + 1)

    def build(site):
        return tuple(Passage(ids[w], role, sgn) for (w, role, sgn) in site)

    comps = list(code.components)
    if not (0 <= g1 <= len(comps[k1])) or not (0 <= g2 <= len(comps[k2])):
        raise StaleMoveError("gap out of range")
    if k1 == k2:
        comp = comps[k1]
        if g1 > g2:
            raise StaleMoveError("gaps must be ordered")
        comps[k1] = comp[:g1] + build(site1) + comp[g1:g2] + build(site2) + comp[g2:]
    else:
        comps[k1] = comps[k1][:g1] + build(site1) + comps[k1][g1:]
        comps[k2] = comps[k2][:g2] + build(site2) + comps[k2][g2:]
    return tuple(comps)


def _ref_r3_apply(code, move):
    fam = M._family(code, None)
    sites = []
    for (k, i) in move.sites:
        i, j = _ref_pair_positions(code, k, i)
        sites.append((k, i, j))
    sig = M.r3_signature(tuple(M._site_tuple(code, k, i, j) for (k, i, j) in sites))
    if sig not in M._r3_table()[fam] or sig != move.variant:
        raise StaleMoveError("triangle pattern no longer matches")
    comps = [list(c) for c in code.components]
    for (k, i, j) in sites:
        comps[k][i], comps[k][j] = comps[k][j], comps[k][i]
    return tuple(tuple(c) for c in comps)


def _ref_preferred_switches(code):
    comp = code.open_component
    pref = code.preferred_chord()
    if pref is None:
        return []
    (ptk, pt), (phk, ph) = code.ends(pref)
    if ptk or phk:
        return []
    moves = []
    for cid in code.chord_ids():
        (tk, t), (hk, h) = code.ends(cid)
        if cid == pref or tk or hk or comp[t].role.is_singular:
            continue
        if abs(pt - h) <= 1 and abs(t - ph) <= 1:
            moves.append(MoveInstance("PreferredSwitch", ((0, pt), (0, t)), f"{pref}->{cid}"))
    return moves


def _ref_switch(code, move):
    (k0, pi), (k1, qi) = move.sites
    if k0 != 0 or k1 != 0:
        raise StaleMoveError("preferred switch lives on the open component")
    comp = code.open_component
    try:
        p_chord = comp[pi].chord
        q_chord = comp[qi].chord
    except IndexError:
        raise StaleMoveError("site out of range")
    if not comp[pi].role.is_singular or not comp[qi].role.is_flat:
        raise StaleMoveError("sites are not a singular chord and a flat chord")
    if move not in _ref_preferred_switches(code):
        raise StaleMoveError("switch condition no longer holds")

    def sw(p):
        if p.chord == p_chord:
            return Passage(p.chord, Role.TAIL if p.role.is_tail else Role.HEAD)
        if p.chord == q_chord:
            return Passage(p.chord, Role.STAIL if p.role.is_tail else Role.SHEAD, None, True)
        return p

    return tuple(tuple(sw(p) for p in c) for c in code.components)


def _apply_outcome(apply, code, move):
    """The resulting code, or the name of the error raised."""
    try:
        return apply(code, move)
    except Exception as exc:  # the reference's untyped errors are outcomes too
        return type(exc).__name__


def _rotated(comps):
    """The components a KnotoidCode keeps, without validating them again: every
    listed move's result is valid, as apply_move's own construction checks."""
    return (comps[0],) + tuple(map(_rotate_canonical, comps[1:]))


def _fuzz_code(rng):
    code, _fam = rng.choice(list(oracle_codes(5, rng.randrange(10**6))))
    if code.chord_count() > 6:
        code = K.simplify(code)
    return K.add_unknot(code) if rng.random() < 0.3 else code


def _fuzz_move(code, rng):
    """A random rule with 0-3 random sites (half the time as many as the rule
    takes) and a variant of that rule from either family; the switch variants
    name random chords."""
    rule = rng.choice(tuple(M._APPLIERS) + ("R4",))
    chords = code.chord_ids() or [1]
    variants = {"R1_insert": M._R1_VARIANTS["classical"] + M._R1_VARIANTS["flat"],
                "R2_insert": M._R2_VARIANTS["classical"] + M._R2_VARIANTS["flat"],
                "R3": tuple(sorted(M._r3_table()["classical"] | M._r3_table()["flat"])),
                "PreferredSwitch": tuple(f"{rng.choice(chords)}->{rng.choice(chords)}"
                                         for _ in range(3))}.get(rule, ())
    count = rng.randrange(4)
    if rule in M._APPLIERS and rng.random() < 0.5:
        count = M._APPLIERS[rule][0]
    sites = tuple((rng.randrange(-1, 3), rng.randrange(-2, 8)) for _ in range(count))
    return MoveInstance(rule, sites, rng.choice(variants + ("",)))


def test_apply_fuzz_is_typed_and_matches_reference():
    rng = random.Random(61)
    counts = {"code": 0, "compared": 0, "ref_untyped": 0, "negative": 0}
    for t in range(5000):
        if t % 25 == 0:
            code = _fuzz_code(rng)
        mv = _fuzz_move(code, rng)
        got = _apply_outcome(K.apply_move, code, mv)
        assert isinstance(got, K.KnotoidCode) or got == "StaleMoveError", (K.serialize(code), mv)
        counts["code"] += isinstance(got, K.KnotoidCode)
        ref = _apply_outcome(_ref_apply_move, code, mv)
        if any(k < 0 for k, _ in mv.sites):
            counts["negative"] += 1
        elif isinstance(ref, K.KnotoidCode) or ref == "StaleMoveError":
            assert got == ref, (K.serialize(code), mv)
            counts["compared"] += 1
        else:
            counts["ref_untyped"] += 1
    assert min(counts.values()) >= 20, counts


def test_apply_gate_pins_old_defects():
    # a negative component indexed from the end: the kink was found on the last
    # component, and the code came back unchanged
    two = K.parse("A1 B1 / A2 B2")
    assert _ref_apply_move(two, MoveInstance("R1_delete", ((-1, 0),))) == two
    with pytest.raises(StaleMoveError):
        K.apply_move(two, MoveInstance("R1_delete", ((-1, 0),)))
    with pytest.raises(StaleMoveError):
        K.apply_move(two, MoveInstance("R1_insert", ((-1, 0),), "AB"))
    # a site on an empty closed component divided by its length
    empty = K.parse("A1 B1 / E")
    with pytest.raises(ZeroDivisionError):
        _ref_apply_move(empty, MoveInstance("R1_delete", ((1, 0),)))
    with pytest.raises(StaleMoveError):
        K.apply_move(empty, MoveInstance("R1_delete", ((1, 0),)))
    assert K.serialize(K.apply_move(empty, MoveInstance("R1_insert", ((1, 0),), "AB"))) == \
        "A1 B1 / A2 B2"
    # a wrong site count failed to unpack
    kink = MoveInstance("R1_delete", ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        _ref_apply_move(two, kink)
    with pytest.raises(StaleMoveError, match="takes 1"):
        K.apply_move(two, kink)
    for sites in ([(0, 0)], ((0, 0, 0),), ((0, "0"),), ((0, True),), ((3, 0),)):
        with pytest.raises(StaleMoveError):
            K.apply_move(two, MoveInstance("R1_delete", sites))
    with pytest.raises(StaleMoveError, match="unknown rule"):
        K.apply_move(two, MoveInstance("R4", ((0, 0),)))
    # the old kink parser read two characters, so a poke variant made a kink
    poke_variant = MoveInstance("R1_insert", ((0, 0),), "O+f")
    assert K.serialize(_ref_apply_move(K.parse("E"), poke_variant)) == "O1+ U1+"
    with pytest.raises(StaleMoveError, match="bad R1_insert variant"):
        K.apply_move(K.parse("E"), poke_variant)
    with pytest.raises(StaleMoveError, match="gaps must be ordered"):
        K.apply_move(two, MoveInstance("R2_insert", ((0, 2), (0, 1)), "ABf"))
