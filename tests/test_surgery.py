"""Crossing surgeries: smoothings, gluing, singular kinks, resolution."""
import random

import pytest

import knotoids as K
from knotoids.codes import KnotoidCode, OrderedTwoComponent, Passage, Role
from knotoids.errors import NotClassicalError, NotFoundError, NotSingularError, ValidityError
from knotoids.sbm import build_sbm, canonical_form, reduce_to_primitive
from knotoids.vassiliev import (random_classical_code, random_flat_code, random_singular_code,
                                random_two_component_flat)

from conftest import HEX1, SING1, SING1_MINUS, SING1_PLUS, STRING_G5, STRING_G6, VK4


def test_zero_smooth_kink():
    assert K.serialize(K.zero_smooth(K.parse("O1+ U1+"), 1)) == "E"


def test_zero_smooth_reference(vk4):
    out = K.zero_smooth(vk4, 1)
    assert K.serialize(out) == "B2 B3 A4 A3 A2 B4"
    assert len(out.components) == 1
    assert out.chord_count() == vk4.chord_count() - 1


def test_zero_smooth_errors(vk4):
    with pytest.raises(NotFoundError):
        K.zero_smooth(vk4, 99)
    with pytest.raises(NotClassicalError):
        K.zero_smooth(K.parse("O1+ SA2 U1+ SB2"), 2)


def test_one_smooth_kink():
    out, view = K.one_smooth(K.parse("O1+ U1+"), 1)
    assert K.serialize(out) == "E / E"
    assert K.intersection_index(view) == 0


def test_one_smooth_two_kinks():
    out, _ = K.one_smooth(K.parse("O1+ O2+ U1+ U2+"), 1)
    assert K.serialize(out) == "B2 / A2"


def test_one_smooth_component_count():
    rng = random.Random(51)
    for _ in range(100):
        code = random_classical_code(rng.randrange(1, 6), rng)
        cid = rng.choice(code.classical_chords())
        out, view = K.one_smooth(code, cid)
        assert len(out.components) == 2
        assert out.chord_count() == code.chord_count() - 1
        single = K.zero_smooth(code, cid)
        assert len(single.components) == 1


def test_glue_examples():
    assert K.serialize(K.glue(K.parse("O1+ U1+"), 1)) == "SA1* SB1*"
    hex1 = K.parse(HEX1)
    assert K.serialize(K.glue(hex1, 5)) == STRING_G5
    assert K.serialize(K.glue(hex1, 6)) == STRING_G6


def test_glue_single_star():
    rng = random.Random(53)
    for _ in range(100):
        code = random_classical_code(rng.randrange(1, 6), rng)
        cid = rng.choice(code.classical_chords())
        glued = K.glue(code, cid)
        assert glued.preferred_chord() == cid
        assert glued.singular_chords() == [cid]
        assert glued.chord_count() == code.chord_count()


def test_singular_kink():
    assert K.serialize(K.singular_kink(K.parse("E"))) == "SA1* SB1*"
    code = K.parse(VK4)
    out = K.singular_kink(code, 2)
    assert out.chord_count() == code.chord_count() + 1
    assert out.preferred_chord() == 5


def test_singular_kink_placement_independent(vk4):
    flat_len = len(K.flatten(vk4).open_component)
    certs = set()
    for gap in range(flat_len + 1):
        m = reduce_to_primitive(build_sbm(K.singular_kink(vk4, gap)))
        certs.add(canonical_form(m))
    assert len(certs) == 1


def test_resolve_example_and_errors():
    assert K.serialize(K.resolve(K.parse("SA1 SB1"), 1, 1)) == "O1+ U1+"
    assert K.serialize(K.resolve(K.parse("SA1 SB1"), 1, -1)) == "U1- O1-"
    with pytest.raises(NotSingularError):
        K.resolve(K.parse("O1+ U1+"), 1, 1)


def test_resolve_reference(sing1):
    assert K.serialize(K.resolve(sing1, 1, 1)) == SING1_PLUS
    assert K.serialize(K.resolve(sing1, 1, -1)) == SING1_MINUS


def test_resolve_glue_roundtrip():
    rng = random.Random(59)
    for _ in range(100):
        code = random_classical_code(rng.randrange(1, 6), rng)
        cid = rng.choice(code.classical_chords())
        glued = K.glue(code, cid)
        back = K.resolve(glued, cid, code.sign_of(cid))
        assert K.flatten(back) == K.flatten(code)
        # the resolved crossing reproduces the original over/under placement
        assert K.glue(back, cid) == glued


def test_switch_then_smooth_cancels():
    # switching one crossing, then smoothing at any other, flattens identically
    rng = random.Random(61)
    for _ in range(150):
        code = random_classical_code(rng.randrange(2, 6), rng)
        chords = code.classical_chords()
        c_switch = rng.choice(chords)
        others = [c for c in chords if c != c_switch]
        c_smooth = rng.choice(others)
        switched = K.parse(K.serialize(code))  # copy
        # crossing change at c_switch = mirror restricted to one chord
        def flip(p):
            if p.chord == c_switch:
                return Passage(p.chord, p.role.flipped(), -p.sign)
            return p

        switched = KnotoidCode(tuple(tuple(flip(p) for p in comp)
                                     for comp in code.components))
        assert K.zero_smooth(switched, c_smooth) == K.zero_smooth(code, c_smooth)
        a, _ = K.one_smooth(switched, c_smooth)
        b, _ = K.one_smooth(code, c_smooth)
        assert a == b


# -- the error contract of each surgery -----------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    (lambda: K.zero_smooth(K.parse("E / E"), 1), ValidityError,
     "0-smoothing expects a single open component"),
    (lambda: K.zero_smooth(K.parse(VK4), 99), NotFoundError, "chord 99 not found"),
    (lambda: K.zero_smooth(K.parse("O1+ SA2 U1+ SB2"), 2), NotClassicalError,
     "chord 2 is not classical"),
    (lambda: K.zero_smooth(K.parse("A1 B1"), 1), NotClassicalError, "chord 1 is not classical"),
    (lambda: K.one_smooth(K.parse("A1 / B1"), 1), ValidityError,
     "1-smoothing expects a single open component"),
    (lambda: K.one_smooth(K.parse(VK4), 0), NotFoundError,
     "chord 0 not found in the open component"),
    (lambda: K.glue(K.parse(VK4), 5), NotFoundError, "chord 5 not found"),
    (lambda: K.glue(K.parse("O1+ SA2 U1+ SB2"), 2), NotClassicalError,
     "chord 2 is not a crossing that can be glued"),
    (lambda: K.glue(K.parse("O1+ SA2 U1+ SB2"), 1), ValidityError,
     "glue expects a code without singular chords"),
    (lambda: K.singular_kink(K.parse("O1+ U1+"), 3), NotFoundError, "gap 3 out of range"),
    (lambda: K.singular_kink(K.parse("O1+ U1+"), -1), NotFoundError, "gap -1 out of range"),
    (lambda: K.singular_kink(K.parse("SA1* SB1*")), ValidityError,
     "at most one singular chord may be preferred"),
    (lambda: K.resolve(K.parse(SING1), 1, 0), ValidityError, "sign must be +1 or -1"),
    (lambda: K.resolve(K.parse(SING1), 2, 1), NotSingularError, "chord 2 is not singular"),
    (lambda: K.resolve(K.parse(SING1), 3, -1), NotSingularError, "chord 3 is not singular"),
], ids=("zero-components", "zero-missing", "zero-singular", "zero-flat", "one-components",
        "one-missing", "glue-missing", "glue-singular-chord", "glue-singular-code",
        "kink-gap-high", "kink-gap-low", "kink-second-preferred", "resolve-sign",
        "resolve-classical", "resolve-missing"))
def test_surgery_error_contract(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# -- each surgery builds one code --------------------------------------------------

@pytest.mark.parametrize("text, call", [
    (VK4, lambda c: K.zero_smooth(c, 1)),
    (VK4, lambda c: K.one_smooth(c, 2)),
    (HEX1, lambda c: K.glue(c, 5)),
    ("O1+ U1+ / O2- U2-", lambda c: K.glue(c, 1)),
    (VK4, lambda c: K.singular_kink(c, 3)),
    ("O1+ U1+ / E", lambda c: K.singular_kink(c, 1)),
    (SING1, lambda c: K.resolve(c, 1, -1)),
    ("A2 SA1 B2 SB1", lambda c: K.resolve(c, 1, 1)),
], ids=("zero", "one", "glue", "glue-two-components", "kink", "kink-two-components",
        "resolve", "resolve-flat"))
def test_each_surgery_builds_one_code(monkeypatch, text, call):
    code = K.parse(text)
    built = []
    post_init = K.KnotoidCode.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(K.KnotoidCode, "__post_init__", counting)
    call(code)
    assert len(built) == 1


# -- reference: the surgeries as they were, each on a flattened copy ---------------

def _ref_flatten(code):
    def fp(p):
        if not p.role.is_classical:
            return p
        # positive crossing: Over passage is the arrow tail; negative: the head
        return Passage(p.chord, Role.TAIL if (p.sign > 0) == (p.role == Role.OVER) else Role.HEAD)
    if not code.classical_chords():
        return code
    return KnotoidCode(tuple(tuple(fp(p) for p in comp) for comp in code.components))


def _ref_open_positions(code, cid):
    try:
        pos = sorted(i for k, i in code.ends(cid) if k == 0)
    except NotFoundError:
        pos = []
    if not pos:
        raise NotFoundError(f"chord {cid} not found in the open component")
    if len(pos) != 2:
        raise NotFoundError(f"chord {cid} does not have both passages on the open component")
    return pos[0], pos[1]


def _ref_flip(p):
    return Passage(p.chord, p.role.flipped(), p.sign, p.preferred)


def _ref_zero_smooth(code, cid):
    if len(code.components) != 1:
        raise ValidityError("0-smoothing expects a single open component")
    if cid not in code.chord_ids():
        raise NotFoundError(f"chord {cid} not found")
    if cid not in code.classical_chords():
        raise NotClassicalError(f"chord {cid} is not classical")
    flat = _ref_flatten(code)
    i, j = _ref_open_positions(flat, cid)
    comp = flat.open_component
    middle = comp[i + 1:j]
    inside_counts = {}
    for p in middle:
        inside_counts[p.chord] = inside_counts.get(p.chord, 0) + 1
    half = {c for c, n in inside_counts.items() if n == 1}

    def fix(p):
        return _ref_flip(p) if p.chord in half else p

    return KnotoidCode((tuple(fix(p) for p in comp[:i]) + tuple(fix(p) for p in reversed(middle))
                        + tuple(fix(p) for p in comp[j + 1:]),))


def _ref_one_smooth(code, cid):
    if len(code.components) != 1:
        raise ValidityError("1-smoothing expects a single open component")
    flat = _ref_flatten(code) if code.classical_chords() else code
    i, j = _ref_open_positions(flat, cid)
    comp = flat.open_component
    tail_first = comp[i].role.is_tail
    out = KnotoidCode((comp[:i] + comp[j + 1:], comp[i + 1:j]))
    ell1 = 0 if tail_first else 1
    return out, OrderedTwoComponent(out, ell1, 1 - ell1)


def _ref_glue(code, cid):
    if cid not in code.chord_ids():
        raise NotFoundError(f"chord {cid} not found")
    if cid not in code.classical_chords() and cid not in code.flat_chords():
        raise NotClassicalError(f"chord {cid} is not a crossing that can be glued")
    if code.singular_chords():
        raise ValidityError("glue expects a code without singular chords")
    flat = _ref_flatten(code)

    def g(p):
        if p.chord != cid:
            return p
        return Passage(p.chord, Role.STAIL if p.role.is_tail else Role.SHEAD, None, True)

    return KnotoidCode(tuple(tuple(g(p) for p in comp) for comp in flat.components))


def _ref_singular_kink(code, gap=0):
    flat = _ref_flatten(code) if code.classical_chords() else code
    if not 0 <= gap <= len(flat.open_component):
        raise NotFoundError(f"gap {gap} out of range")
    k = flat.fresh_chord_id()
    kink = (Passage(k, Role.STAIL, None, True), Passage(k, Role.SHEAD, None, True))
    comp = flat.open_component
    return KnotoidCode((comp[:gap] + kink + comp[gap:],) + flat.closed_components)


def _ref_resolve(code, cid, sign):
    if sign not in (1, -1):
        raise ValidityError("sign must be +1 or -1")
    if cid not in code.singular_chords():
        raise NotSingularError(f"chord {cid} is not singular")
    flat_world = bool(code.flat_chords())

    def r(p):
        if p.chord != cid:
            return p
        if flat_world:
            return Passage(p.chord, Role.TAIL if p.role.is_tail else Role.HEAD)
        if sign > 0:
            role = Role.OVER if p.role.is_tail else Role.UNDER
        else:
            role = Role.UNDER if p.role.is_tail else Role.OVER
        return Passage(p.chord, role, sign)

    return KnotoidCode(tuple(tuple(r(p) for p in comp) for comp in code.components))


def _outcome(fn, *args):
    """What a call returns, or the kind and message of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # compared, kind and message, with the reference's
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):  # one_smooth: the code and its ordered view
        return out[0].components, out[1].ell1, out[1].ell2
    return out.components


def _surgery_codes(count, seed):
    """Seeded codes of 0-7 chords, cycling through classical, flat,
    classical-singular, two-component flat, two-component classical and glued
    flat codes."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randrange(0, 8)
        kind = t % 6
        if kind == 0:
            yield random_classical_code(n, rng)
        elif kind == 1:
            yield random_flat_code(n, rng)
        elif kind == 2:
            yield random_singular_code(max(n - 2, 0), rng.randrange(1, 3), rng)
        elif kind == 3:
            yield random_two_component_flat(n, rng)
        elif kind == 4:
            signs = [rng.choice((1, -1)) for _ in range(n + 1)]
            yield KnotoidCode(tuple(
                tuple(Passage(p.chord, Role.OVER if p.role is Role.TAIL else Role.UNDER,
                              signs[p.chord]) for p in comp)
                for comp in random_two_component_flat(n, rng).components))
        else:
            code = random_classical_code(max(n, 1), rng)
            yield _ref_glue(code, rng.choice(code.chord_ids()))


def test_surgeries_match_reference_on_seeded_codes():
    seen = set()
    for code in _surgery_codes(1000, 67):
        seen.add(code.kind + str(len(code.components)))
        n = code.chord_count()
        for cid in range(n + 2):
            for new, ref in ((K.zero_smooth, _ref_zero_smooth), (K.one_smooth, _ref_one_smooth),
                             (K.glue, _ref_glue)):
                assert _outcome(new, code, cid) == _outcome(ref, code, cid), \
                    (K.serialize(code), cid)
            for sign in (1, -1, 0):
                assert _outcome(K.resolve, code, cid, sign) == \
                    _outcome(_ref_resolve, code, cid, sign), (K.serialize(code), cid, sign)
        for gap in (-1, 0, len(code.open_component) // 2, len(code.open_component),
                    len(code.open_component) + 1):
            assert _outcome(K.singular_kink, code, gap) == _outcome(_ref_singular_kink, code, gap)
    assert seen >= {"Classical1", "Flat1", "ClassicalSingular1", "Flat2", "Classical2",
                    "FlatSingular1"}
