"""Data model: parsing, serialization, validation, structural transforms."""
import dataclasses
import random
import re

import pytest

import knotoids as K
from knotoids.codes import Passage, Role
from knotoids.errors import KnotoidError, NotFoundError, ParseError, ValidityError
from knotoids.vassiliev import (random_classical_code, random_flat_code, random_singular_code,
                                random_two_component_flat)

from conftest import VK4, oracle_codes, with_preferred


def test_parse_trivial():
    code = K.parse("E")
    assert code.chord_count() == 0
    assert len(code.components) == 1
    assert K.serialize(code) == "E"
    with pytest.raises(ValidityError, match="at least the open component"):
        K.KnotoidCode(())


def test_parse_kink():
    code = K.parse("O1+ U1+")
    assert code.kind == "Classical"
    assert len(code.open_component) == 2
    assert code.sign_of(1) == 1
    assert str(code) == K.serialize(code)


def test_parse_rejects_bad_tokens():
    for text in ("O1 U1", "X1 X1", "A1+ B1+", "O1+", "SA1* SB1", "A0 B0",
                 "A1 B1* SA2* SB2"):
        with pytest.raises((ParseError, ValidityError)):
            K.parse(text)


def test_parse_rejects_structural_errors():
    with pytest.raises(ValidityError):
        K.parse("O1+ U2+ / O2+")          # chord 1 unpaired
    with pytest.raises(ValidityError):
        K.parse("O1+ O1+")                # two overpasses
    with pytest.raises(ValidityError):
        K.parse("O1+ U1-")                # sign mismatch
    with pytest.raises(ValidityError):
        K.parse("O1+ A2 U1+ B2")          # classical and flat mixed
    with pytest.raises(ValidityError):
        K.parse("SA1* SB1* SA2* SB2*")    # two preferred chords


def test_closed_component_canonical_rotation():
    a = K.parse("E / B2 A1 B1 A2")
    b = K.parse("E / B1 A2 B2 A1")
    assert a == b
    # rotation starts at the least (chord, role) pair: chord 1's tail
    assert K.serialize(a) == "E / A1 B1 A2 B2"
    assert K.serialize(a) == K.serialize(b)


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        code = random_classical_code(rng.randrange(0, 6), rng)
        assert K.parse(K.serialize(code)) == code
        flat = random_flat_code(rng.randrange(0, 6), rng)
        assert K.parse(K.serialize(flat)) == flat


def test_flatten_kink():
    assert K.serialize(K.flatten(K.parse("O1+ U1+"))) == "A1 B1"
    assert K.serialize(K.flatten(K.parse("O1- U1-"))) == "B1 A1"


def test_flatten_is_identity_on_flat():
    code = K.parse("A1 B2 B1 A2")
    assert K.flatten(code) == code
    assert K.flatten(K.parse("E")) == K.parse("E")


def test_mirror_kink():
    assert K.serialize(K.mirror(K.parse("O1+ U1+"))) == "U1- O1-"
    # singular passages are kept; flat input has no over/under to switch
    assert K.serialize(K.mirror(K.parse("O1+ SA2 U1+ SB2"))) == "U1- SA2 O1- SB2"
    with pytest.raises(ValidityError, match="mirror expects a classical"):
        K.mirror(K.parse("A1 B1"))


def test_mirror_reverse_involutions():
    rng = random.Random(11)
    for _ in range(100):
        code = random_classical_code(rng.randrange(1, 6), rng)
        assert K.mirror(K.mirror(code)) == code
        assert K.reverse(K.reverse(code)) == code
        assert K.mirror(K.reverse(code)) == K.reverse(K.mirror(code))


def test_flatten_mirror_equals_flatten():
    rng = random.Random(13)
    for _ in range(100):
        code = random_classical_code(rng.randrange(1, 6), rng)
        assert K.flatten(K.mirror(code)) == K.flatten(code)


def test_flatten_mirror_on_reference(vk4):
    assert K.flatten(K.mirror(vk4)) == K.flatten(vk4)


def test_reverse_preserves_flat_roles():
    code = K.parse("A1 B2 B1 A2")
    rev = K.reverse(code)
    assert K.serialize(rev) == "A2 B1 B2 A1"


def test_add_unknot():
    assert K.serialize(K.add_unknot(K.parse("E"))) == "E / E"
    assert K.serialize(K.add_unknot(K.parse("A1 B1"))) == "A1 B1 / E"
    code = K.parse(VK4)
    assert len(K.add_unknot(code).components) == len(code.components) + 1


def test_chord_ids_preserved_by_transforms(vk4):
    for out in (K.mirror(vk4), K.reverse(vk4), K.flatten(vk4)):
        assert out.chord_ids() == vk4.chord_ids()


def test_kind_detection():
    assert K.parse("O1+ U1+").kind == "Classical"
    assert K.parse("O1+ SA2 U1+ SB2").kind == "ClassicalSingular"
    assert K.parse("A1 B1").kind == "Flat"
    assert K.parse("SA1* SB1*").kind == "FlatSingular"
    assert K.parse("A1 SA2 B1 SB2").kind == "FlatSingular"


def test_ordered_view_requires_two_components():
    from knotoids.errors import ComponentCountError

    with pytest.raises(ComponentCountError):
        K.OrderedTwoComponent(K.parse("A1 B1"), 0, 1)
    with pytest.raises(ValidityError, match="the two component indices"):
        K.OrderedTwoComponent(K.parse("A1 B2 / B1 A2"), 0, 0)


# -- oracle: the passage scans the chord table replaces ---------------------------

def _ref_chords(code, keep=lambda p: True):
    return sorted({p.chord for comp in code.components for p in comp if keep(p)})


def _ref_sign_of(code, cid):
    for comp in code.components:
        for p in comp:
            if p.chord == cid and p.sign is not None:
                return p.sign
    return None


def _ref_preferred(code):
    for comp in code.components:
        for p in comp:
            if p.preferred:
                return p.chord
    return None


def _ref_ends(code, cid):
    sites = {}
    for k, comp in enumerate(K.flatten(code).components):
        for i, p in enumerate(comp):
            if p.chord == cid:
                sites["tail" if p.role.is_tail else "head"] = (k, i)
    return sites["tail"], sites["head"]


def test_chord_table_matches_passage_scans():
    seen = set()
    for code, _ in oracle_codes(300, 61):
        ids = _ref_chords(code)
        assert code.chord_ids() == ids
        assert code.chord_count() == len(ids)
        assert code.classical_chords() == _ref_chords(code, lambda p: p.role.is_classical)
        assert code.flat_chords() == _ref_chords(code, lambda p: p.role.is_flat)
        assert code.singular_chords() == _ref_chords(code, lambda p: p.role.is_singular)
        assert code.preferred_chord() == _ref_preferred(code)
        assert code.fresh_chord_id() == (ids[-1] + 1 if ids else 1)
        for cid in ids:
            assert code.ends(cid) == _ref_ends(code, cid), (K.serialize(code), cid)
            sign = _ref_sign_of(code, cid)
            if sign is None:
                with pytest.raises(ValidityError, match=f"chord {cid} has no sign"):
                    code.sign_of(cid)
            else:
                assert code.sign_of(cid) == sign
        with pytest.raises(NotFoundError):
            code.ends(code.fresh_chord_id())
        seen.add((code.kind, len(code.components), code.preferred_chord() is not None))
    assert {k for k, _, _ in seen} == {"Classical", "ClassicalSingular", "Flat", "FlatSingular"}
    assert (("Flat", 2, False) in seen) and (("FlatSingular", 1, True) in seen)


def _ref_step(p):
    """A passage's label step as it was computed from its role: +1 at a head,
    -1 at a tail, classical passages through their flattened role."""
    if p.role.is_classical:
        return 1 if (p.sign > 0) != (p.role == Role.OVER) else -1
    return 1 if p.role.is_head else -1


def _ref_label_arcs(code):
    """The open component's labels as they were computed: a walk that steps
    off each passage's role."""
    out, lab = [], 0
    for p in code.open_component:
        out.append(lab)
        lab += _ref_step(p)
    return tuple(out)


def _classical_of(code, rng):
    """A classical code whose flattening is the flat code `code`."""
    signs = {cid: rng.choice((1, -1)) for cid in code.chord_ids()}

    def conv(p):
        s = signs[p.chord]
        return Passage(p.chord, Role.OVER if p.role.is_tail == (s > 0) else Role.UNDER, s)
    return K.KnotoidCode(tuple(tuple(conv(p) for p in c) for c in code.components))


def test_label_arcs_matches_per_pass_chord_scan():
    rng = random.Random(67)
    for _ in range(300):
        two = random_two_component_flat(rng.randrange(0, 12), rng)
        sing = random_singular_code(rng.randrange(0, 6), rng.randrange(0, 4), rng)
        for code in (two, K.add_unknot(two), _classical_of(two, rng), sing):
            assert K.label_arcs(code) == _ref_label_arcs(code), K.serialize(code)
    # single open components at the sizes P sees: classical, flat, and flat
    # singular with a preferred chord, 10-30 chords
    rng = random.Random(68)
    for _ in range(60):
        n = rng.randrange(10, 31)
        for code in (random_classical_code(n, rng), random_flat_code(n, rng),
                     with_preferred(random_flat_code(n, rng), rng)):
            assert K.label_arcs(code) == _ref_label_arcs(code), K.serialize(code)


def test_flat_queries_match_flattened_scans():
    # flat weights and intersection indices read classical tails off the table
    # instead of flattening first
    rng = random.Random(71)
    for _ in range(200):
        code = random_classical_code(rng.randrange(0, 9), rng)
        flat = K.flatten(code)
        inc = K.label_arcs(flat)
        pos = {}
        for i, p in enumerate(flat.open_component):
            pos.setdefault(p.chord, {})["tail" if p.role.is_tail else "head"] = i
        assert K.flat_weights(code) == {c: inc[d["tail"]] - (inc[d["head"]] + 1)
                                        for c, d in pos.items()}
        two = _classical_of(random_two_component_flat(rng.randrange(0, 9), rng), rng)
        comp_of = {}
        for k, comp in enumerate(K.flatten(two).components):
            for p in comp:
                comp_of.setdefault(p.chord, {})["tail" if p.role.is_tail else "head"] = k
        for ell1 in (0, 1):
            ref = sum(1 if d["tail"] == ell1 else -1
                      for d in comp_of.values() if d["tail"] != d["head"])
            assert K.intersection_index(K.OrderedTwoComponent(two, ell1, 1 - ell1)) == ref


def test_chord_table_outside_equality_hash_repr():
    a = K.parse("E / B2 A1 B1 A2")
    b = K.parse("E / B1 A2 B2 A1")
    object.__setattr__(b, "_chords", {})
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == f"KnotoidCode(components={a.components!r})"
    assert [f.name for f in dataclasses.fields(K.KnotoidCode)] == ["components"]
    assert not hasattr(Passage(1, Role.TAIL), "__dict__")


# -- the constructor is the trust boundary ------------------------------------------

@pytest.mark.parametrize("components", [
    (("x",),),
    ((Passage(1, "A"), Passage(1, "B")),),
    ((Passage("1", Role.TAIL), Passage("1", Role.HEAD)),),
    ((Passage(True, Role.TAIL), Passage(1, Role.HEAD)),),
    ((Passage(1.0, Role.TAIL), Passage(1.0, Role.HEAD)),),
    ((Passage(1, Role.OVER, 1.0), Passage(1, Role.UNDER, 1.0)),),
    ((Passage(1, Role.OVER, True), Passage(1, Role.UNDER, True)),),
    ((Passage(1, Role.OVER, "+"), Passage(1, Role.UNDER, "+")),),
    ((Passage(1, Role.TAIL, 1.0), Passage(1, Role.HEAD, 1.0)),),
    ((Passage(1, Role.STAIL, None, 1), Passage(1, Role.SHEAD, None, 1)),),
    (5,),
    5,
], ids=("entry-not-passage", "role-not-role", "str-chord", "bool-chord", "float-chord",
        "float-sign", "bool-sign", "str-sign", "float-sign-on-arrow", "int-preferred",
        "int-component", "int-components"))
def test_constructor_refuses_malformed_passages(components):
    with pytest.raises(ValidityError):
        K.KnotoidCode(components)


def test_passage_is_a_plain_record():
    bad = Passage(0, Role.OVER)  # refused only when a code is built from it
    assert (bad.chord, bad.role, bad.sign, bad.preferred) == (0, Role.OVER, None, False)
    with pytest.raises(ValidityError, match="chord id must be >= 1, got 0"):
        K.KnotoidCode(((bad,),))


def test_sign_of_unknown_chord_is_not_found():
    code = K.parse("O1+ SA2 U1+ SB2")
    assert code.sign_of(1) == 1
    with pytest.raises(NotFoundError):
        code.sign_of(99)
    with pytest.raises(ValidityError, match="chord 2 has no sign"):
        code.sign_of(2)


# -- reference: the per-passage checks and `_validate` as they were -----------------

def _ref_passage(chord, role, sign=None, preferred=False):
    """A passage checked as `Passage.__post_init__` checked it."""
    p = Passage(chord, role, sign, preferred)
    if p.chord < 1:
        raise ValidityError(f"chord id must be >= 1, got {p.chord}")
    if p.role.is_classical:
        if p.sign not in (1, -1):
            raise ValidityError(f"classical passage {p.token()} needs a sign")
    elif p.sign is not None:
        raise ValidityError(f"non-classical passage {p.token()} cannot carry a sign")
    if p.preferred and not p.role.is_singular:
        raise ValidityError("preferred mark is only valid on singular passages")
    return p


_REF_ORDER = {r: i for i, r in enumerate(
    (Role.OVER, Role.UNDER, Role.TAIL, Role.HEAD, Role.STAIL, Role.SHEAD))}


def _ref_rotate(comp):
    if len(comp) < 2:
        return comp
    k = min(range(len(comp)), key=lambda i: (comp[i].chord, _REF_ORDER[comp[i].role]))
    return comp[k:] + comp[:k]


def _ref_code(components):
    """`KnotoidCode` construction as it was, on checked passages: the serialized
    code, its chord table in order, its kind lists and its preferred chord."""
    if not components:
        raise ValidityError("a code needs at least the open component")
    comps = tuple(tuple(c) for c in components)
    comps = (comps[0],) + tuple(_ref_rotate(c) for c in comps[1:])
    seen = {}
    for k, comp in enumerate(comps):
        for i, p in enumerate(comp):
            seen.setdefault(p.chord, []).append((p, k, i))
    table = {}
    classical, flat, singular, preferred = [], [], [], []
    for cid, ps in seen.items():
        if len(ps) != 2:
            raise ValidityError(f"chord {cid} appears {len(ps)} times, expected 2")
        (a, ka, ia), (b, kb, ib) = ps
        if a.role.is_classical:
            if not b.role.is_classical or a.role == b.role:
                raise ValidityError(f"chord {cid} must pair Over with Under")
            if a.sign != b.sign:
                raise ValidityError(f"chord {cid} has mismatched signs")
            classical.append(cid)
            a_is_tail = (a.sign > 0) == (a.role == Role.OVER)
        elif a.role.is_flat:
            if not b.role.is_flat or a.role == b.role:
                raise ValidityError(f"chord {cid} must pair ArrowTail with ArrowHead")
            flat.append(cid)
            a_is_tail = a.role == Role.TAIL
        else:
            if not b.role.is_singular or a.role == b.role:
                raise ValidityError(f"chord {cid} must pair SingTail with SingHead")
            if a.preferred != b.preferred:
                raise ValidityError(f"chord {cid} must be starred on both passages or neither")
            if a.preferred:
                preferred.append(cid)
            singular.append(cid)
            a_is_tail = a.role == Role.STAIL
        sign = a.sign or 0
        table[cid] = (sign, ka, ia, kb, ib) if a_is_tail else (sign, kb, ib, ka, ia)
    if classical and flat:
        raise ValidityError("classical and flat chords cannot coexist")
    if len(preferred) > 1:
        raise ValidityError("at most one singular chord may be preferred")
    text = " / ".join(" ".join(p.token() for p in c) if c else "E" for c in comps)
    return (text, sorted(table.items()), tuple(sorted(classical)), tuple(sorted(flat)),
            tuple(sorted(singular)), preferred[0] if preferred else None)


def _ref_parse(text):
    """`parse` as it was: the token grammar, each passage checked as it is made."""
    comps = []
    for part in text.split("/"):
        toks = part.split()
        if not toks:
            raise ParseError("empty component (use E for a crossing-free component)")
        if toks == ["E"]:
            comps.append(())
            continue
        comp = []
        for tok in toks:
            m = re.match(r"^(SA|SB|O|U|A|B)(\d+)([+-])?(\*)?$", tok)
            if not m:
                raise ParseError(f"bad token {tok!r}")
            role_s, cid_s, sign_s, star = m.groups()
            role = Role(role_s)
            if role.is_classical and sign_s is None:
                raise ParseError(f"token {tok!r} needs a sign")
            if not role.is_classical and sign_s is not None:
                raise ParseError(f"token {tok!r} cannot carry a sign")
            if star and not role.is_singular:
                raise ParseError(f"token {tok!r}: only singular passages can be starred")
            sign = None if sign_s is None else (1 if sign_s == "+" else -1)
            comp.append(_ref_passage(int(cid_s), role, sign, bool(star)))
        comps.append(tuple(comp))
    return _ref_code(tuple(comps))


def _summary(code):
    return (K.serialize(code), list(code._chords.items()), code._classical, code._flat,
            code._singular, code._preferred)


def _outcome(fn, arg):
    try:
        return "ok", fn(arg)
    except KnotoidError as exc:
        return type(exc).__name__, str(exc)


_ROLE_TOKENS = ("O", "U", "A", "B", "SA", "SB")


def _corrupt(text, rng):
    """One seeded corruption of a code's text."""
    toks = text.replace("/", " / ").split()
    i = rng.randrange(len(toks))
    what = rng.randrange(9)
    m = re.match(r"^(SA|SB|O|U|A|B)(\d+)([+-]?)(\*?)$", toks[i])
    if what == 0:
        del toks[i]
    elif what == 1:
        toks.insert(rng.randrange(len(toks) + 1), toks[i])
    elif what == 2:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(_ROLE_TOKENS) + str(
            rng.randrange(0, 5)) + rng.choice(("", "+", "-")) + rng.choice(("", "*")))
    elif what == 7:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(("/", "/ E", "X")))
    elif what == 8:  # a whole chord: a flat one among classical ones, a second star
        pair = rng.choice((("O9+", "U9+"), ("A9", "B9"), ("SA9*", "SB9*"), ("SA9", "SB9*")))
        for tok in pair:
            toks.insert(rng.randrange(len(toks) + 1), tok)
    elif m:
        role, cid, sign, star = m.groups()
        if what == 3:
            sign = {"+": "-", "-": "+", "": rng.choice(("+", "-"))}[sign]
            sign = "" if rng.random() < 0.2 else sign
        elif what == 4:
            role = rng.choice(_ROLE_TOKENS)
        elif what == 5:
            star = "*"
        else:
            cid = rng.choice(("0", "00"))
        toks[i] = role + cid + sign + star
    return " ".join(toks)


def test_parse_outcomes_match_passage_checks_on_corrupted_texts():
    rng = random.Random(83)
    texts = ["A0 B0 X", "A0 B0", "O1+ U1+ / A0 B0", "SA1* SB1 / SA0", "U1+ O1+ / / E"]
    for code, _ in oracle_codes(400, 89):
        for _ in range(6):
            text = K.serialize(code)
            for _ in range(rng.randrange(1, 4)):
                text = _corrupt(text, rng) if text.strip() else "E"
            texts.append(text)
    assert len(texts) >= 2000
    messages = set()
    for text in texts:
        want = _outcome(_ref_parse, text)
        got = _outcome(lambda t: _summary(K.parse(t)), text)
        assert got == want, text
        messages.add("ok" if want[0] == "ok" else re.sub(r"\d+|'.*'", "#", want[1]))
    assert _outcome(K.parse, "A0 B0 X") == ("ValidityError", "chord id must be >= 1, got 0")
    assert len(messages) == 15, sorted(messages)  # every outcome text can reach


_DEFECTS = ("chord", "sign", "stray-sign", "star", "role", "drop", "duplicate", "flip",
            "mix", "prefer", "rechord")


def _defect(comps, rng, what):
    """Damage seeded, mutable components (lists of passage fields) in one way."""
    spots = [(k, i) for k, c in enumerate(comps) for i in range(len(c))]
    if what == "mix":
        comps.append([[90, Role.TAIL, None, False], [90, Role.HEAD, None, False]])
        return
    if what == "prefer":
        comps.append([[91, Role.STAIL, None, True], [91, Role.SHEAD, None, True]])
        return
    if not spots:
        return
    k, i = rng.choice(spots)
    f = comps[k][i]
    if what == "chord":
        f[0] = rng.choice((0, -1))
    elif what == "sign":
        f[2] = rng.choice((None, 0, 2))
    elif what == "stray-sign":
        f[2] = rng.choice((1, -1)) if f[2] is None else f[2]
    elif what == "star":
        f[3] = True
    elif what == "role":
        f[1] = rng.choice(list(Role))
    elif what == "drop":
        del comps[k][i]
    elif what == "duplicate":
        comps[k].insert(rng.randrange(len(comps[k]) + 1), list(f))
    elif what == "flip":
        f[2] = -f[2] if f[2] else f[2]
    else:
        a, b = rng.choice(spots)
        f[0] = comps[a][b][0]


def _ref_construct(comps):
    return _ref_code(tuple(tuple(_ref_passage(*f) for f in c) for c in comps))


def _construct(comps):
    return _summary(K.KnotoidCode(tuple(tuple(Passage(*f) for f in c) for c in comps)))


def test_constructed_codes_match_passage_checks():
    rng = random.Random(97)
    single = multi = 0
    for code, _ in oracle_codes(1200, 101):
        comps = [[[p.chord, p.role, p.sign, p.preferred] for p in c] for c in code.components]
        n = 1 if rng.random() < 0.6 else rng.randrange(2, 4)
        for _ in range(n):
            _defect(comps, rng, rng.choice(_DEFECTS))
        want = _outcome(_ref_construct, comps)
        got = _outcome(_construct, comps)
        if n == 1 or want[0] != "ValidityError":
            assert got == want, (comps, want, got)
            single += want[0] == "ValidityError"
        else:
            assert got[0] == "ValidityError", (comps, want, got)
            multi += 1
    assert single >= 400 and multi >= 200, (single, multi)
