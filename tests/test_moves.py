"""Move enumeration, application, walks, and the greedy normalizer."""
import collections.abc
import functools
import itertools
import json
import pathlib
import random

import pytest

import knotoids as K
from knotoids import moves as M
from knotoids.codes import Passage, Role, _rotate_canonical
from knotoids.errors import StaleMoveError, ValidityError
from knotoids.moves import MoveInstance, enumerate_moves
from knotoids.vassiliev import (random_classical_code, random_flat_code, random_singular_code,
                                random_two_component_flat)

from conftest import VK4, oracle_codes, with_preferred


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
    with pytest.raises(ValidityError, match=r"steps must be >= 0, got -1"):
        K.random_walk(vk4, -1, 1)


@pytest.mark.parametrize("steps, seed", [(2.0, 1), ("3", 1), (None, 1), (True, 1), (False, 1),
                                         (3, None), (3, 1.0), (3, "1"), (3, True)])
def test_random_walk_refuses_steps_and_seed_that_are_not_ints(vk4, steps, seed):
    # a float or string was an untyped TypeError, True walked one step, and a
    # None seed walked differently on every call
    with pytest.raises(ValidityError, match="must be an int"):
        K.random_walk(vk4, steps, seed)


def test_random_walk_builds_one_code(monkeypatch):
    # the walk runs on component tuples: one checked code per walk, none at zero steps
    starts = list(oracle_codes(20, 83))
    built = []
    validate = K.KnotoidCode._validate

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(K.KnotoidCode, "_validate", counted)
    for seed, (code, fam) in enumerate(starts):
        for steps, family in ((0, fam), (1, fam), (6, fam), (6, None)):
            built.clear()
            walked = K.random_walk(code, steps, seed, family)
            assert len(built) == (steps > 0) and (walked is code) == (steps == 0)


def test_random_walk_follows_family_flips():
    # under family None a walk re-infers the family every step: A1 B1 turns
    # classical when its kink deletes to E, SA1 SB1 O2+ U2+ turns flat when
    # its classical kink deletes; some seeds take steps on both sides of a flip
    for text in ("A1 B1", "SA1 SB1 O2+ U2+"):
        start = K.parse(text)
        crossed = 0
        for seed in range(150):
            steps = 2 + seed % 3
            rng = random.Random(seed)
            ref, fams = start, set()
            for _ in range(steps):
                fams.add(M._family(ref.components, None))
                ref = K.apply_move(ref, rng.choice(enumerate_moves(ref, None)))
            assert K.random_walk(start, steps, seed) == ref, (text, seed)
            crossed += len(fams) == 2
        assert crossed, text


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
    # the preferred chord on a closed component has no open arc to slide along
    assert not [m for m in enumerate_moves(K.parse("A1 B1 / SA2* SB2*"), "flat")
                if m.rule == "PreferredSwitch"]


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
    with pytest.raises(ValidityError, match="unknown move family 'spiral'"):
        enumerate_moves(flat, "spiral")
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

def _ref_r2_deletes(code):
    pairs = list(M._adjacent_pairs(code.components))
    out = []
    for (ka, ia, ja), (kb, ib, jb) in itertools.combinations(pairs, 2):
        if ka == kb and {ia, ja} & {ib, jb}:
            continue
        a1, a2 = code.components[ka][ia], code.components[ka][ja]
        b1, b2 = code.components[kb][ib], code.components[kb][jb]
        if M._r2_pair_ok(a1, a2, b1, b2):
            out.append(MoveInstance("R2_delete", ((ka, ia), (kb, ib))))
    return out


# -- reference: the triangle-slide table the closed-form rule replaced. The
# variants were enumerated from three oriented lines in the plane (all
# orientations, all consistent sheet orders, both sides of the slide); a
# candidate is accepted when its signature is in its family's list.

@functools.cache
def _r3_table():
    data = json.loads((pathlib.Path(__file__).parent / "data" / "r3_variants.json").read_text())
    return {"classical": set(data["classical"]), "flat": set(data["flat"])}


def _r3_signature(sites):
    """Canonical signature of three ordered passage pairs.

    Each passage is (chord_key, role_char, sign_int); chords are renamed by the
    sorted indices of the two sites they touch, and the signature is minimized
    over site orderings."""
    best = None
    for perm in itertools.permutations(range(3)):
        appearances = {}
        for new_idx, old_idx in enumerate(perm):
            for (chord, _role, _sgn) in sites[old_idx]:
                appearances.setdefault(chord, []).append(new_idx)
        rename = {ch: "".join(str(i) for i in sorted(v)) for ch, v in appearances.items()}
        parts = []
        for old_idx in perm:
            parts.append(",".join(
                f"{rename[ch]}{role}{'+' if sg > 0 else '-' if sg < 0 else ''}"
                for (ch, role, sg) in sites[old_idx]))
        s = ";".join(parts)
        if best is None or s < best:
            best = s
    return best


def _site_tuple(code, k, i, j):
    def pt(p):
        role = p.role.value[-1]  # SA -> A, SB -> B
        return (p.chord, role, p.sign if p.sign is not None else 0)
    return (pt(code.components[k][i]), pt(code.components[k][j]))


def _table_accepts(code, trip, fam):
    return _r3_signature(tuple(_site_tuple(code, *pair) for pair in trip)) in _r3_table()[fam]


def _ref_movable(p, fam):
    """Whether a passage may take part in a triangle, read off its role."""
    if fam == "classical":
        return p.role.is_classical
    return p.role.is_flat or p.role.is_singular


def _ref_r3(code, fam):
    pairs = [(k, i, j) for k, i, j in M._adjacent_pairs(code.components)
             if code.components[k][i].chord != code.components[k][j].chord
             and _ref_movable(code.components[k][i], fam)
             and _ref_movable(code.components[k][j], fam)]
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
        if _table_accepts(code, trip, fam):
            out.append(MoveInstance("R3", tuple((k, i) for (k, i, j) in trip)))
    return out


def _ref_inserts(code, fam):
    gaps = [(k, g) for k, comp in enumerate(code.components) for g in range(len(comp) + 1)]
    out = [MoveInstance("R1_insert", (gap,), v) for gap in gaps for v in M._R1_VARIANTS[fam]]
    table = M._R2_CLASSICAL if fam == "classical" else M._R2_FLAT
    out += [MoveInstance("R2_insert", pair, v)
            for pair in itertools.combinations_with_replacement(gaps, 2) for v in table]
    return out


def _ref_enumerate(code, fam):
    out = list(M._r1_deletes(code.components)) + _ref_r2_deletes(code) + _ref_r3(code, fam)
    out += _ref_inserts(code, fam)
    if fam == "flat" and code.preferred_chord() is not None:
        out += M._preferred_switches(code.components)
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
            assert M._preferred_switches(code.components) == _ref_preferred_switches(code)
        for mv in moves:
            assert K.apply_move(code, mv).components == _ref_apply_move(code, mv, _rotated), \
                (K.serialize(code), mv)
            applied.add(mv.rule)
    assert seen == {"R2_delete", "R3", "PreferredSwitch"}
    assert applied == set(M._APPLIERS)


def test_insert_counts_closed_form():
    for code, fam in oracle_codes(60, 43):
        for code in (code, K.add_unknot(code)):
            assert M._r1_insert_count(code.components, fam) == \
                len(enumerate_moves(code, fam, ("R1_insert",)))
            assert M._r2_insert_count(code.components, fam) == \
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


def test_rules_filter_keeps_table_order():
    # the family table is in rule-name order and names exactly the rules that
    # have an applier, so a rule added to one table but not the other fails
    rules = [rule for rule, _, _ in M._FAMILIES]
    assert rules == sorted(rules)
    assert len(rules) == len(M._APPLIERS) and set(rules) == set(M._APPLIERS)
    rng = random.Random(67)
    seen = set()
    for code, fam in oracle_codes(40, 67):
        full = enumerate_moves(code, fam)
        seen.update(m.rule for m in full)
        for rule in rules:
            part = [m for m in full if m.rule == rule]
            assert part == sorted(part, key=MoveInstance.sort_key), (K.serialize(code), rule)
        if code.chord_count() > 4:
            continue
        for n in range(len(rules) + 1):
            for subset in itertools.combinations(rules, n):
                # the output follows the table, whatever order `rules` names them in
                subset = tuple(rng.sample(subset, n))
                assert enumerate_moves(code, fam, subset) == \
                    [m for m in full if m.rule in subset], (K.serialize(code), subset)
    assert seen == set(rules)


def _sized_codes(seed, count):
    """(code, move family) pairs of 10-20 chords, cycling through classical,
    flat and two-component flat codes."""
    rng = random.Random(seed)
    gens = ((random_classical_code, "classical"), (random_flat_code, "flat"),
            (random_two_component_flat, "flat"))
    for t in range(count):
        gen, fam = gens[t % 3]
        yield gen(rng.randrange(10, 21), rng), fam


def test_random_walk_matches_choice_at_size():
    for t, (code, fam) in enumerate(_sized_codes(71, 3)):
        for seed, family in ((2 * t, None), (2 * t + 1, fam)):
            steps = 2 + t % 2
            rng = random.Random(seed)
            ref = code
            for _ in range(steps):
                ref = K.apply_move(ref, rng.choice(enumerate_moves(ref, family)))
            assert K.random_walk(code, steps, seed, family) == ref, (K.serialize(code), seed)


class _Drawn:
    """A stand-in for `random.Random(seed)` whose one draw is the seed itself."""

    def __init__(self, seed):
        self.seed = seed

    def randrange(self, n):
        assert 0 <= self.seed < n
        return self.seed


def test_random_walk_decodes_every_scanned_index_at_size(monkeypatch):
    # one step whose draw is index t applies the t-th enumerated move: every
    # scanned instance, and the first and last instance of each insert family,
    # on codes of 10-24 chords and on the oracle codes
    cases = [(K.random_walk(code, 2, seed, fam), fam)
             for seed, (code, fam) in enumerate(_sized_codes(73, 6))]
    cases += oracle_codes(25, 73)
    expected = []
    for code, fam in cases:
        full = enumerate_moves(code, fam)
        rules = [m.rule for m in full]
        picks = {t for t, rule in enumerate(rules) if not rule.endswith("insert")}
        picks |= {rules.index(r) for r in ("R1_insert", "R2_insert")}
        picks |= {len(rules) - 1 - rules[::-1].index(r) for r in ("R1_insert", "R2_insert")}
        expected += [(code, fam, t, full[t]) for t in sorted(picks)]
    assert {mv.rule for *_, mv in expected} == set(M._APPLIERS) and len(expected) > 100
    expected = [(code, fam, t, K.apply_move(code, mv)) for code, fam, t, mv in expected]
    monkeypatch.setattr(M.random, "Random", _Drawn)
    for code, fam, t, moved in expected:
        assert K.random_walk(code, 1, t, fam) == moved, (K.serialize(code), t)


class _Pokes:
    """The poke inserts at `gaps`: gap pairs g1 <= g2 in order, then `variants`,
    each built only when read."""

    def __init__(self, gaps, variants):
        self.gaps, self.variants = gaps, variants

    def __len__(self):
        return len(self.gaps) * (len(self.gaps) + 1) // 2 * len(self.variants)

    def __getitem__(self, i):
        pair, v = divmod(i, len(self.variants))
        pairs = itertools.combinations_with_replacement(self.gaps, 2)
        return MoveInstance("R2_insert", next(itertools.islice(pairs, pair, None)),
                            self.variants[v])


class _Choices(collections.abc.Sequence):
    """`enumerate_moves(code, family)` as a sequence for `rng.choice`: the
    scanned families as `enumerate_moves` lists them, the kink inserts built
    from the code's gaps and the O(n^2) poke inserts built only when read,
    joined in rule-name order. On codes of fewer than 600 moves it checks
    itself against `enumerate_moves`."""

    def __init__(self, code, family):
        comps = code.components
        fam = M._family(comps, family)
        gaps = [(k, g) for k, comp in enumerate(comps) for g in range(len(comp) + 1)]
        listed = enumerate_moves(code, family, ("PreferredSwitch", "R1_delete", "R2_delete", "R3"))
        rule = {r: [m for m in listed if m.rule == r] for r in M._APPLIERS}
        rule["R1_insert"] = [MoveInstance("R1_insert", (gap,), v)
                             for gap in gaps for v in M._R1_VARIANTS[fam]]
        rule["R2_insert"] = _Pokes(gaps, M._R2_VARIANTS[fam])
        self.rules = sorted(rule)
        self.parts = [rule[r] for r in self.rules]
        if len(self) < 600:
            assert list(self) == enumerate_moves(code, family), K.serialize(code)

    def __len__(self):
        return sum(map(len, self.parts))

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        for part in self.parts:
            if i < len(part):
                return part[i]
            i -= len(part)

    def scanned(self) -> list[range]:
        """The index ranges of the nonempty families the walk lists by scanning
        the code."""
        out, start = [], 0
        for rule, part in zip(self.rules, self.parts):
            if part and not rule.endswith("insert"):
                out.append(range(start, start + len(part)))
            start += len(part)
        return out


def _choice_walk(code, steps, seed, family):
    """The codes and moves of `steps` rounds of
    apply_move(c, rng.choice(enumerate_moves(c, family)))."""
    rng = random.Random(seed)
    out = []
    for _ in range(steps):
        move = rng.choice(_Choices(code, family))
        code = K.apply_move(code, move)
        out.append((code, move))
    return out


# closed components that are empty, of one passage, of two passages of one
# chord (closed kinks); a switch, a preferred chord with an end off the open
# component, and fixed chords
_SMALL_STARTS = (("A1 B1 / A2 B2", "flat"), ("A1 / B1", "flat"), ("E / E", "flat"),
                 ("O1+ U2- / U1+ / O2-", "classical"), ("E / O1+ U1+", "classical"),
                 ("SA1* B2 A2 SB1*", "flat"), ("SA1* B2 / A2 SB1*", "flat"),
                 ("SA1 O2+ SB1 U2+", "classical"))


def _walk_starts(seed):
    """The small starts, then oracle codes of at most 12 chords."""
    starts = [(K.parse(t), f) for t, f in _SMALL_STARTS]
    return starts + [(c, f) for c, f in oracle_codes(40, seed) if c.chord_count() <= 12][:15]


def test_random_walk_matches_choice_step_by_step():
    # 20-30-step walks against the rng.choice(enumerate_moves(...)) loop,
    # compared after every step: the walk carries its scanned counts across
    # insert steps, so a count that drifts fails at the first step that draws
    # past it. Half the walks infer the family. The flat walk of seed 419765
    # from A1 B1 / A2 B2 cuts its closed kink at step 1 and goes wrong at step
    # 2 when the counts are moved there instead of rebuilt
    starts = [(code, fam, 100 + t) for t, (code, fam) in enumerate(_walk_starts(89))]
    starts += [(K.parse(t), f, seed) for t, f in _SMALL_STARTS for seed in range(4)]
    starts.append((K.parse("A1 B1 / A2 B2"), "flat", 419765))
    for code, fam, seed in starts:
        family = None if seed % 2 else fam
        for step, (ref, _) in enumerate(_choice_walk(code, 20 + seed % 11, seed, family), 1):
            assert K.random_walk(code, step, seed, family) == ref, (K.serialize(code), seed, step)


class _Scripted:
    """A stand-in for `random.Random(seed)` that draws the indices of a script."""

    def __init__(self, script):
        self.draws = iter(script)

    def randrange(self, n):
        i = next(self.draws)
        assert 0 <= i < n
        return i


def test_random_walk_takes_scanned_draws_after_inserts(monkeypatch):
    # uniform draws are nearly all inserts, so here every third step draws a
    # move of a scanned family, the family drawn first, when there is one, and
    # the other steps draw any move: scanned draws follow runs of inserts.
    # Compared after every step, with the draws scripted from the enumerated
    # moves
    rng = random.Random(107)
    cases, follows, drawn = [], 0, set()
    for t, (code, fam) in enumerate(_walk_starts(107)):
        family = None if t % 2 else fam
        script, walked, ref, last = [], [], code, ""
        for step in range(20 + t % 11):
            choices = _Choices(ref, family)
            scanned = choices.scanned()
            if step % 3 == 2 and scanned:
                i = rng.choice(rng.choice(scanned))
            else:
                i = rng.randrange(len(choices))
            move = choices[i]
            ref = K.apply_move(ref, move)
            script.append(i)
            walked.append(ref)
            drawn.add(move.rule)
            follows += last.endswith("insert") and not move.rule.endswith("insert")
            last = move.rule
        cases.append((code, family, script, walked))
    assert drawn == set(M._APPLIERS) and follows >= 20, (drawn, follows)
    # the walk's seed t draws script t
    monkeypatch.setattr(M.random, "Random", lambda t: _Scripted(cases[t][2]))
    for t, (code, family, _, walked) in enumerate(cases):
        for step, ref in enumerate(walked, 1):
            assert K.random_walk(code, step, t, family) == ref, (K.serialize(code), step)


def test_random_walk_of_inserts_builds_the_pair_index_once(monkeypatch):
    # the scanned counts are built on the first step and then moved by each
    # insert, so a walk whose steps are all inserts lists no scanned family
    # after its first step; a walk with another step rebuilds after it. An
    # insert on an empty closed component or a closed kink rebuilds too, so
    # no start has one
    starts = [(code, fam, seed) for seed, (code, fam) in enumerate(_sized_codes(101, 12))]
    starts += [(c, f, seed) for seed, (c, f) in enumerate(oracle_codes(20, 101))]
    plans = [(code, fam, seed, [m.rule for _, m in _choice_walk(code, 15, seed, fam)])
             for code, fam, seed in starts
             if not any(not c or len(c) == 2 and c[0].chord == c[1].chord
                        for c in code.components[1:])]
    built = []
    pair_index = M._pair_index
    monkeypatch.setattr(M, "_pair_index", lambda *a: built.append(a) or pair_index(*a))
    inserts_only = 0
    for code, fam, seed, rules in plans:
        built.clear()
        K.random_walk(code, 15, seed, fam)
        if all(rule.endswith("insert") for rule in rules):
            assert len(built) == 1, (K.serialize(code), seed)
            inserts_only += 1
        else:
            assert len(built) > 1, (K.serialize(code), seed)
    assert 10 <= inserts_only < len(plans)


@pytest.mark.slow
def test_long_walks_match_choice_over_enumeration():
    # 300 walks of 60 steps from 10-40 chords of every kind, half under family
    # None, against the rng.choice(enumerate_moves(...)) loop
    kinds = ((random_classical_code, "classical"),
             (lambda n, rng: random_singular_code(n - 2, 2, rng), "classical"),
             (random_flat_code, "flat"), (random_two_component_flat, "flat"),
             (lambda n, rng: with_preferred(random_flat_code(n, rng), rng), "flat"))
    rng = random.Random(109)
    for t in range(300):
        gen, fam = kinds[t % 5]
        code = gen(rng.randrange(10, 41), rng)
        family = None if t % 2 else fam
        seed = rng.randrange(10**6)
        ref = _choice_walk(code, 60, seed, family)[-1][0]
        assert K.random_walk(code, 60, seed, family) == ref, (K.serialize(code), seed)


def _ref_simplify(code):
    """The greedy loop as first written: the first of all listed deletions."""
    while True:
        dels = enumerate_moves(code, rules=("R1_delete", "R2_delete"))
        if not dels:
            return code
        code = K.apply_move(code, dels[0])


def test_simplify_matches_reference_at_size():
    rng = random.Random(79)
    for code, fam in _sized_codes(79, 30):
        walked = K.random_walk(code, 8, rng.randrange(10**6), fam)
        assert K.simplify(walked) == _ref_simplify(walked), K.serialize(walked)
    # deleting the poke pairs before the kinks would keep chord 3, not chord 10
    code = K.parse("A3 A6 B7 B4 A5 B9 A10 A2 A7 B6 B2 / A1 B1 B3 B10 A9 A8 B8 B5 A4")
    assert K.serialize(K.simplify(code)) == K.serialize(_ref_simplify(code)) == "A10 / B10"
    # kinks and pokes on a singular string: every classical chord deletes, and
    # deleting the last one turns the inferred family from classical to flat
    code = K.parse("SA1 SB1 SA2 SB2 SA3 SB3")
    while code.chord_count() < 15:
        inserts = enumerate_moves(code, "classical", ("R1_insert", "R2_insert"))
        code = K.apply_move(code, rng.choice(inserts))
    out = K.simplify(code)
    assert out == _ref_simplify(code)
    assert M._family(code.components, None) == "classical"
    assert M._family(out.components, None) == "flat"
    assert not out.classical_chords() and len(out.singular_chords()) == 3


def _first_kink_loop(code):
    """Kink deletion as `simplify` once ran it: the first listed kink until none is left."""
    while True:
        kinks = enumerate_moves(code, rules=("R1_delete",))
        if not kinks:
            return code
        code = K.apply_move(code, kinks[0])


def _kinked_codes(seed, count):
    """Seeded codes with kinks inserted at random gaps, so nested and adjacent
    ones: classical, flat, two-component flat, and classical or flat singular
    codes that also get singular kinks, beside and inside the others. Chord
    ids are shuffled at the end, so a closed component's canonical start can
    fall inside a kink, which then wraps around its ends."""
    rng = random.Random(seed)
    kinds = {"classical": (Role.OVER, Role.UNDER), "flat": (Role.TAIL, Role.HEAD),
             "singular": (Role.STAIL, Role.SHEAD)}
    for t in range(count):
        n = rng.randrange(0, 9)
        if t % 4 == 0:
            code = random_classical_code(n, rng)
        elif t % 4 == 1:
            code = random_flat_code(n, rng)
        elif t % 4 == 2:
            code = random_two_component_flat(n, rng)
        else:
            code = random_singular_code(rng.randrange(0, 4), rng.randrange(1, 4), rng)
            if rng.random() < 0.5:
                code = K.flatten(code)
        native = "flat" if code.flat_chords() or t % 4 in (1, 2) else "classical"
        comps = [list(c) for c in code.components]
        cid = code.fresh_chord_id()
        for _ in range(rng.randrange(1, 10)):
            kind = "singular" if t % 4 == 3 and rng.random() < 0.4 else native
            sign = rng.choice((1, -1)) if kind == "classical" else None
            roles = kinds[kind] if rng.random() < 0.5 else kinds[kind][::-1]
            comp = comps[rng.randrange(len(comps))]
            gap = rng.randrange(len(comp) + 1)
            comp[gap:gap] = [Passage(cid, role, sign) for role in roles]
            cid += 1
        ids = list(range(1, cid))
        rng.shuffle(ids)
        yield K.KnotoidCode(tuple(tuple(Passage(ids[p.chord - 1], p.role, p.sign) for p in comp)
                                  for comp in comps))


def test_one_pass_kink_deletion_matches_first_kink_loop():
    cases = list(_kinked_codes(83, 600))
    wrapped = 0
    for code in cases:
        ref = _first_kink_loop(code)
        assert M._unkinked(code.components) == ref.components, K.serialize(code)
        wrapped += any(len(c) > 1 and c[0].chord == c[-1].chord and not c[0].role.is_singular
                       for c in code.closed_components)
    assert {code.kind for code in cases} == {"Classical", "Flat", "ClassicalSingular",
                                             "FlatSingular"}
    assert sum(len(code.components) == 2 for code in cases) >= 100 and wrapped >= 20
    # a closed kink reduces to a crossing-free circle; a kink wrapping a closed
    # component's ends deletes, and singular kinks stay, with flat ones around them
    for text, out in (("E / A1 B1", "E / E"), ("A3 B3 / A1 B2 A2 B1", "E / E"),
                      ("E / A1 A2 A3 B2 B3 B1", "E / A2 A3 B2 B3"),
                      ("A2 SA1 SB1 B2 A3 B3 SB4 SA4", "A2 SA1 SB1 B2 SB4 SA4"),
                      ("O2+ SB1 SA1 O3- U3- U2+", "O2+ SB1 SA1 U2+")):
        code = K.parse(text)
        assert K.serialize(K.KnotoidCode(M._unkinked(code.components))) == out
        assert _first_kink_loop(code) == K.parse(out)


def test_simplify_builds_at_most_one_code(monkeypatch):
    rng = random.Random(89)
    cases = list(_kinked_codes(89, 150))
    cases += [gen(rng.randrange(4, 13), rng) for _ in range(40)
              for gen in (random_classical_code, random_flat_code, random_two_component_flat)]
    refs = [_ref_simplify(code) for code in cases]
    built = []

    def build(comps):
        built.append(comps)
        return K.KnotoidCode(comps)

    def refuse(*args):
        raise AssertionError("simplify reads no family and fixes no chord")

    monkeypatch.setattr(M, "KnotoidCode", build)
    monkeypatch.setattr(M, "_family", refuse)
    monkeypatch.setattr(M, "_fixed_chords", refuse)
    unchanged = 0
    for code, ref in zip(cases, refs):
        built.clear()
        out = K.simplify(code)
        assert out == ref, K.serialize(code)
        if ref.chord_count() == code.chord_count():
            assert out is code and not built, K.serialize(code)
            unchanged += 1
        else:
            assert len(built) == 1, K.serialize(code)
    assert 20 <= unchanged <= len(cases) - 150


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
    if not M._r2_pair_ok(a1, a2, b1, b2):
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
    fam = M._family(code.components, None)
    sites = []
    for (k, i) in move.sites:
        i, j = _ref_pair_positions(code, k, i)
        sites.append((k, i, j))
    if not _table_accepts(code, sites, fam):
        raise StaleMoveError("triangle pattern no longer matches")
    comps = [list(c) for c in code.components]
    for (k, i, j) in sites:
        comps[k][i], comps[k][j] = comps[k][j], comps[k][i]
    return tuple(tuple(c) for c in comps)


def test_slid_matches_reference_swap():
    # the one swap rule of a triangle slide, on every listed slide of walked
    # codes; the key the flat orbit search reads rotates the closed components
    # of the unrotated swap, as KnotoidCode does
    rng = random.Random(71)
    gens = ((random_flat_code, "flat"), (random_two_component_flat, "flat"),
            (random_classical_code, "classical"))
    slides = rotations = 0
    for t in range(1200):
        gen, fam = gens[t % 3]
        code = K.random_walk(gen(rng.randrange(0, 13), rng), rng.randrange(0, 4),
                             rng.randrange(10**6), fam)
        for mv in enumerate_moves(code, fam, ("R3",)):
            slid = M._slid(code.components, mv.sites)
            assert slid == _ref_r3_apply(code, mv), (K.serialize(code), mv)
            moved = K.apply_move(code, mv)
            assert K.KnotoidCode(slid) == moved
            assert (slid[0], *map(_rotate_canonical, slid[1:])) == moved.components
            rotations += slid[1:] != moved.components[1:]
            slides += 1
    assert slides >= 200 and rotations >= 10, (slides, rotations)


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
                "R3": tuple(sorted(_r3_table()["classical"] | _r3_table()["flat"])),
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
    # a site on a closed component of one passage read the pair (0, 0) as a
    # kink and failed only when the result was validated
    with pytest.raises(StaleMoveError, match="site out of range"):
        K.apply_move(K.parse("A1 / B1"), MoveInstance("R1_delete", ((1, 0),)))
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
    # a rule or an insert variant that is not a str failed to hash; a variant
    # the rule does not read is still ignored
    arrow = K.parse("A1 B1")
    with pytest.raises(TypeError):
        _ref_apply_move(arrow, MoveInstance(["R1_insert"], ((0, 0),), "AB"))
    for rule in (["R1_insert"], ("R1_insert",), None):
        with pytest.raises(StaleMoveError, match="unknown rule"):
            K.apply_move(arrow, MoveInstance(rule, ((0, 0),), "AB"))
    for variant in (["AB"], {"AB": 0}, 1):
        with pytest.raises(StaleMoveError, match="bad R1_insert variant"):
            K.apply_move(arrow, MoveInstance("R1_insert", ((0, 0),), variant))
        with pytest.raises(StaleMoveError, match="bad R2_insert variant"):
            K.apply_move(arrow, MoveInstance("R2_insert", ((0, 0), (0, 1)), variant))
    assert K.serialize(K.apply_move(K.parse("O1+ U1+"),
                                    MoveInstance("R1_delete", ((0, 0),), ["AB"]))) == "E"
    # the old kink parser read two characters, so a poke variant made a kink
    poke_variant = MoveInstance("R1_insert", ((0, 0),), "O+f")
    assert K.serialize(_ref_apply_move(K.parse("E"), poke_variant)) == "O1+ U1+"
    with pytest.raises(StaleMoveError, match="bad R1_insert variant"):
        K.apply_move(K.parse("E"), poke_variant)
    with pytest.raises(StaleMoveError, match="gaps must be ordered"):
        K.apply_move(two, MoveInstance("R2_insert", ((0, 2), (0, 1)), "ABf"))


def _six_passage_codes(fam, order):
    """The open codes with chords `order` on six passages: each chord's tail at
    either passage and, on classical codes, its Over passage at either one and
    either sign."""
    per_chord = ([(Role.TAIL, Role.HEAD, None), (Role.HEAD, Role.TAIL, None)] if fam == "flat"
                 else [(first, first.flipped(), sign) for first in (Role.OVER, Role.UNDER)
                       for sign in (1, -1)])
    for kinds in itertools.product(per_chord, repeat=3):
        seen = set()
        passages = []
        for c in order:
            first, second, sign = kinds[c - 1]
            passages.append(Passage(c, second if c in seen else first, sign))
            seen.add(c)
        yield K.KnotoidCode((tuple(passages),))


def test_triangle_rule_matches_table_on_every_configuration():
    # the pairs (0,1), (2,3), (4,5) under every placement of three chords on six
    # passages; the 8 placements keyed {1,2}, {1,3}, {2,3} give the 64 flat and
    # 512 classical triangle configurations
    trip = ((0, 0, 1), (0, 2, 3), (0, 4, 5))
    triangles = {sum(pairs, ()) for pairs in
                 itertools.product(((1, 2), (2, 1)), ((1, 3), (3, 1)), ((2, 3), (3, 2)))}
    for fam, per_order, accepted in (("flat", 8, 16), ("classical", 64, 96)):
        count = 0
        for order in sorted(set(itertools.permutations((1, 1, 2, 2, 3, 3)))):
            codes = list(_six_passage_codes(fam, order))
            assert len(set(codes)) == per_order
            got = [M._is_triangle(tuple(code.components[k][n] for k, i, j in trip for n in (i, j)))
                   for code in codes]
            assert got == [_table_accepts(code, trip, fam) for code in codes], (fam, order)
            count += sum(got) if order in triangles else 0
        assert count == accepted


def test_rules_refuse_sites_that_share_a_passage():
    # the closed component's pairs (0, 1) and (1, 0) hold the same two passages
    code = K.parse("B1 A2 / A1 B2")
    closed = code.components[1]
    assert not M._r2_pair_ok(closed[0], closed[1], closed[1], closed[0])
    assert [mv.sites for mv in enumerate_moves(code, rules=("R2_delete",))] == \
        [((0, 0), (1, 0)), ((0, 0), (1, 1))]
    for sites in (((1, 0), (1, 1)), ((1, 1), (1, 0)), ((1, 0), (1, 0))):
        with pytest.raises(StaleMoveError):
            K.apply_move(code, MoveInstance("R2_delete", sites))
    # a triangle's lower passage of chord 1 stands in for its upper one: the
    # tail bits read only the lower passages, so only distinctness refuses it
    spots = K.parse("A1 A2 B1 A3 B2 B3").components[0]
    assert M._is_triangle(spots)
    assert not M._is_triangle(spots[:2] + spots[:1] + spots[3:])


def test_r3_refuses_sites_the_table_refused():
    # overlapping pairs, and a singular chord in a classical code: the table
    # accepted neither, and apply_move refuses both whatever the variant
    cases = ((K.parse("O1+ U4- U1+ U3- O2+ O3- O4- U2+"), ((0, 4), (0, 5), (0, 6))),
             (K.parse("SB2 U1+ SA3 SA2 SB3 O1+"), ((0, 0), (0, 2), (0, 4))))
    for code, sites in cases:
        trip = [(k, *M._pair_positions(code.components, k, i)) for k, i in sites]
        assert not _table_accepts(code, trip, "classical")
        for variant in ("", *sorted(_r3_table()["classical"] | _r3_table()["flat"])):
            with pytest.raises(StaleMoveError, match="triangle pattern"):
                K.apply_move(code, MoveInstance("R3", sites, variant))
