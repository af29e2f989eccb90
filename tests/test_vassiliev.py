"""Fingerprints, formal sums, the three invariants, derivatives."""
import functools
import json
import random

import pytest

import knotoids as K
from knotoids import corpus, moves, sbm
from knotoids import vassiliev as V
from knotoids.codes import Passage, Role
from knotoids.errors import KnotoidError, SizeLimitError, UnsupportedError, ValidityError
from knotoids.moves import apply_move, enumerate_moves
from knotoids.vassiliev import (FormalSum, fingerprint, random_classical_code, random_flat_code,
                                random_singular_code, random_two_component_flat)

from conftest import (FLAT3, HEX1, HEX2, QUAD3, QUAD4, SING1, SING1_MINUS, SING1_PLUS, VK4,
                      ZERO_S, _ref_derivative, glue_codes, ref_glued, ref_special_closure,
                      reverse_sbm, view_sbm, with_preferred)


def test_formal_sum_arithmetic(flat3):
    a = fingerprint(K.parse("E"))
    b = fingerprint(flat3)
    s = FormalSum.term(a, 2) - FormalSum.term(b, 2)
    assert s.coeff(a) == 2 and s.coeff(b) == -2
    assert (s - s).is_zero()
    assert s.scaled(3).coefficients() == [-6, 6]
    assert s.to_json()["terms"][0]["coef"] in (2, -2)


def test_fingerprint_basics(flat3):
    fp_e = fingerprint(K.parse("E"))
    assert fp_e.components == 1
    assert fingerprint(K.parse("A1 B1")) == fp_e
    assert fingerprint(flat3) != fp_e
    # orientation canonicalization
    assert fingerprint(K.reverse(flat3)) == fingerprint(flat3)
    with pytest.raises(UnsupportedError):
        fingerprint(K.parse("A1 B1 / E / E"))
    with pytest.raises(UnsupportedError):
        fingerprint(K.parse(VK4))
    with pytest.raises(UnsupportedError):  # a singular string with a closed component
        fingerprint(K.parse("SA1* SB1* / A2 B2"))


def test_fingerprint_detects_interleaved_pair():
    # the polynomial alone misses this class; the minimized size must not
    assert fingerprint(K.parse("A2 A1 B2 B1")) != fingerprint(K.parse("E"))


def test_fingerprint_walk_invariance_flat():
    rng = random.Random(101)
    for _ in range(60):
        base = K.flatten(random_classical_code(rng.randrange(0, 4), rng))
        fp = fingerprint(base)
        walked = K.random_walk(base, 5, rng.randrange(10**6), "flat")
        assert fingerprint(walked) == fp, K.serialize(walked)


def test_fingerprint_walk_invariance_two_component():
    rng = random.Random(103)
    for _ in range(50):
        base = random_two_component_flat(rng.randrange(0, 4), rng)
        fp = fingerprint(base)
        walked = K.random_walk(base, 4, rng.randrange(10**6), "flat")
        assert fingerprint(walked) == fp, K.serialize(walked)


def test_fingerprint_walk_invariance_singular():
    rng = random.Random(107)
    base = K.glue(K.parse(SING1_PLUS), 1)
    fp = fingerprint(base)
    for _ in range(30):
        walked = K.random_walk(base, 4, rng.randrange(10**6), "flat")
        assert fingerprint(walked) == fp, K.serialize(walked)


def test_invariant_f_trivial_and_reference(vk4, flat3):
    assert K.invariant_F(K.parse("E")).is_zero()
    assert K.invariant_F(K.parse("O1+ U1+")).is_zero()
    value = K.invariant_F(vk4)
    expected = FormalSum.term(fingerprint(K.parse("E")), 2) - \
        FormalSum.term(fingerprint(flat3), 2)
    assert value == expected
    assert not value.is_zero()


def test_invariant_f_walk_invariance(vk4):
    rng = random.Random(109)
    reference = K.invariant_F(vk4)
    for _ in range(25):
        walked = K.random_walk(vk4, 3, rng.randrange(10**6))
        assert K.invariant_F(walked) == reference


def test_invariant_f_vanishes_on_classical_family():
    # codes reachable from the trivial knotoid by classical moves
    rng = random.Random(113)
    for _ in range(40):
        code = K.random_walk(K.parse("E"), 5, rng.randrange(10**6))
        assert K.invariant_F(code).is_zero(), K.serialize(code)


def test_invariant_f_mirror_reverse():
    rng = random.Random(127)
    for _ in range(40):
        code = random_classical_code(rng.randrange(1, 5), rng)
        f = K.invariant_F(code)
        assert K.invariant_F(K.mirror(code)) == -f
        assert K.invariant_F(K.reverse(code)) == f


def test_invariant_l_mirror_reverse():
    rng = random.Random(131)
    for _ in range(30):
        code = random_classical_code(rng.randrange(1, 5), rng)
        lv = K.invariant_L(code)
        assert K.invariant_L(K.mirror(code)) == -lv
        assert K.invariant_L(K.reverse(code)) == lv


def test_invariant_f_positive_resolution_value():
    plus = K.parse(SING1_PLUS)
    expected = FormalSum.term(fingerprint(K.parse("E")), 2) - \
        FormalSum.term(fingerprint(K.flatten(plus)), 2)
    assert K.invariant_F(plus) == expected
    assert K.invariant_F(K.parse(SING1_MINUS)).is_zero()


def test_invariant_l_reference_cancellation():
    assert K.invariant_L(K.parse(SING1_MINUS)).is_zero()
    plus = K.parse(SING1_PLUS)
    smooth1, _ = K.one_smooth(plus, 1)
    link = K.add_unknot(K.flatten(plus))
    expected = FormalSum.term(fingerprint(smooth1), 2) - \
        FormalSum.term(fingerprint(link), 2)
    lp = K.invariant_L(plus)
    lm = K.invariant_L(K.parse(SING1_MINUS))
    assert lp - lm == expected


def test_invariant_l_walk_invariance():
    rng = random.Random(137)
    base = K.parse(QUAD3)
    reference = K.invariant_L(base)
    for _ in range(15):
        walked = K.random_walk(base, 3, rng.randrange(10**6))
        assert K.invariant_L(walked) == reference


def test_invariant_g_walk_invariance():
    rng = random.Random(139)
    base = K.parse(SING1_PLUS)
    reference = K.invariant_G(base)
    for _ in range(12):
        walked = K.random_walk(base, 3, rng.randrange(10**6))
        assert K.invariant_G(walked) == reference


def test_g_separates_where_f_fails():
    f1, f2 = K.invariant_F(K.parse(HEX1)), K.invariant_F(K.parse(HEX2))
    assert f1 == f2 == FormalSum.zero()
    g1, g2 = K.invariant_G(K.parse(HEX1)), K.invariant_G(K.parse(HEX2))
    assert g1 != g2
    assert (g1 - g2).coefficients() == [-2, 2]


def test_g_separates_where_l_fails():
    l3, l4 = K.invariant_L(K.parse(QUAD3)), K.invariant_L(K.parse(QUAD4))
    assert l3 == l4 == FormalSum.zero()
    g3, g4 = K.invariant_G(K.parse(QUAD3)), K.invariant_G(K.parse(QUAD4))
    assert g3 != g4
    assert (g3 - g4).coefficients() == [-2, 2]


def test_derivative_on_classical_is_value(vk4):
    assert K.derivative("f", vk4) == K.invariant_F(vk4)


def test_derivative_equal_resolutions_cancel():
    # a singular kink's two resolutions are move-equivalent, so F' vanishes
    code = K.parse("SA1 SB1")
    for handle in ("f", "l", "g"):
        assert K.derivative(handle, code).is_zero()
        assert _ref_derivative(handle, code).is_zero()


def test_derivative_reference(sing1):
    val = K.derivative("f", sing1)
    expected = FormalSum.term(fingerprint(K.parse("E")), 2) - \
        FormalSum.term(fingerprint(K.parse("A2 A1 B2 B1")), 2)
    assert val == expected
    assert not val.is_zero()


def test_l_derivative_reference(sing1):
    val = K.derivative("l", sing1)
    expected = FormalSum.term(fingerprint(K.parse("A2 / B2")), 2) - \
        FormalSum.term(fingerprint(K.parse("A2 A1 B2 B1 / E")), 2)
    assert val == expected
    assert not val.is_zero()


def test_p_derivative_handle(sing1):
    from knotoids.invariants import LaurentPoly

    val = K.derivative("p", sing1)
    assert isinstance(val, LaurentPoly)
    for handle in ("x", "F", "", "dx"):
        with pytest.raises(ValidityError, match="unknown invariant handle"):
            K.derivative(handle, sing1)


def test_derivative_over_many_singular_chords_is_zero():
    # past one singular chord the checks read the code itself and no chord is
    # resolved, so 25 and 1100 chords (2^25 and 2^1100 resolutions) take
    # milliseconds; each handle gives its own type's zero
    from knotoids.invariants import LaurentPoly

    for k in (25, 1100):
        code = random_singular_code(0, k, random.Random(1))
        for handle in ("f", "l", "g"):
            assert K.derivative(handle, code) == FormalSum.zero(), (handle, k)
        assert K.derivative("p", code) == LaurentPoly.zero(), k


def test_g_refuses_past_the_payload_budget(monkeypatch):
    # the bound (n + 1)(n + 2)^2 on the payload admits 254 crossings, and a
    # refusal comes before any based matrix is built
    bound = [(n + 1) * (n + 2) ** 2 for n in (254, 255)]
    assert bound[0] <= V._PAYLOAD_BUDGET < bound[1]
    built = []
    monkeypatch.setattr(sbm.SBM, "__post_init__", built.append)
    for n in (255, 500):
        code = random_classical_code(n, random.Random(n))
        with pytest.raises(SizeLimitError, match=f"G on {n} crossings may hold"):
            K.invariant_G(code)
    assert built == []


def test_second_derivatives_vanish():
    # `derivative` vanishes here by the resolution lemma alone; the reference
    # sums the four resolutions, so it checks that F, L and G have order one
    rng = random.Random(149)
    for _ in range(30):
        code = random_singular_code(rng.randrange(0, 3), 2, rng)
        for handle in ("f", "l"):
            assert K.derivative(handle, code).is_zero(), K.serialize(code)
            assert _ref_derivative(handle, code).is_zero(), K.serialize(code)
    for _ in range(10):
        code = random_singular_code(rng.randrange(0, 3), 2, rng)
        assert K.derivative("g", code).is_zero(), K.serialize(code)
        assert _ref_derivative("g", code).is_zero(), K.serialize(code)


@pytest.mark.parametrize("handle", ["f", "l", "g"])
def test_second_derivatives_vanish_at_size(handle):
    rng = random.Random(167)
    for _ in range(24):
        code = random_singular_code(rng.randrange(8, 17), 2, rng)
        assert K.derivative(handle, code).is_zero(), K.serialize(code)
        assert _ref_derivative(handle, code).is_zero(), K.serialize(code)


def test_g_is_reversal_invariant():
    rng = random.Random(173)
    for _ in range(40):
        code = random_classical_code(rng.randrange(1, 13), rng)
        assert K.invariant_G(K.reverse(code)) == K.invariant_G(code), K.serialize(code)


def _ref_singular_payload(code):
    """The singular fingerprint as first written: a based matrix, primitive and
    walked closure for each orientation."""
    return b"S:" + min(min(sbm.canonical_form(x) for x, _ in ref_special_closure(
        sbm.reduce_to_primitive(sbm.build_sbm(orient)))) for orient in (code, K.reverse(code)))


def test_singular_fingerprint_of_both_orientations_at_size():
    rng = random.Random(179)
    for _ in range(30):
        base = random_classical_code(rng.randrange(16, 31), rng)
        glued = K.glue(base, rng.choice(base.chord_ids()))
        fp = fingerprint(glued)
        assert fingerprint(K.reverse(glued)) == fp, K.serialize(glued)
        assert fp.payload == _ref_singular_payload(glued), K.serialize(glued)


def test_singular_fingerprint_of_each_kind_of_string():
    # the singular branch reaches its primitive by plain steps, then
    # `reduce_to_primitive`; the reference reduces by `reduce_to_primitive`
    # alone. Flat strings with a preferred chord, with or without a second
    # singular chord, and glued strings moved by a flat walk; the two paths
    # reach different primitives on some of them
    rng = random.Random(263)
    kinds = {1: 0, 2: 0, "walked": 0, "other_primitive": 0}
    codes = []
    for _ in range(48):
        code = with_preferred(random_flat_code(rng.randrange(1, 13), rng), rng)
        kinds[len(code.singular_chords())] += 1
        codes.append(code)
    for _ in range(24):
        base = random_classical_code(rng.randrange(1, 13), rng)
        glued = K.glue(base, rng.choice(base.chord_ids()))
        codes.append(K.random_walk(glued, rng.randrange(1, 5), rng.randrange(10**6), "flat"))
        kinds["walked"] += codes[-1] != glued
    for code in codes:
        assert fingerprint(code).payload == _ref_singular_payload(code), K.serialize(code)
        m = sbm.build_sbm(code)
        kinds["other_primitive"] += \
            sbm.reduce_to_primitive(sbm._plain_reduction(m)[0]) != sbm.reduce_to_primitive(m)
    assert min(kinds.values()) >= 3 and kinds["walked"] >= 12, kinds


def _ref_closure_payload(prim):
    """The singular fingerprint of a primitive as first written: the least
    canonical form over the walked closure and the reversal of each member."""
    return b"S:" + min(min(sbm.canonical_form(x), sbm.canonical_form(reverse_sbm(x)))
                       for x, _ in ref_special_closure(prim))


def _fingerprint_primitives(count, seed):
    """Primitive views of seeded strings of 0-16 chords, each with its kind:
    the kink term and every glue of a classical code that the shared
    reduction keeps (as `_glued` reads them), or a flat string with a
    preferred chord and maybe another singular one."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randrange(0, 17)
        if t % 3:
            kinked = sbm.build_sbm(K.singular_kink(random_classical_code(n, rng)))
            shared = sbm._plain_reduction(kinked)[0]
            yield "kink", sbm._whole(shared)
            for g in shared.unmarked():
                yield "glue", (shared, g, [i for i in shared.unmarked() if i != g])
        else:
            code = with_preferred(random_flat_code(max(n, 1), rng), rng)
            yield "flat", sbm._whole(sbm.reduce_to_primitive(sbm.build_sbm(code)))


def test_pruned_fingerprint_is_the_full_min():
    # only the candidates with the least leading-row key are searched; the
    # result is still the least form over the whole closure and its reversals
    counts = dict.fromkeys(("kink", "glue", "flat", "s_zero", "d_zero", "d_copy", "pruned",
                            "glue_tie"), 0)
    prims = list(_fingerprint_primitives(90, 241))
    assert len(prims) >= 300, len(prims)
    for kind, view in prims:
        p = view_sbm(view)
        assert b"S:" + sbm._class_form(view) == _ref_closure_payload(p), p
        counts[kind] += 1
        srow, drow = p.row(p.s), p.row(p.d)
        # the closure walks an extension
        counts["s_zero"] += not any(srow)
        counts["d_zero"] += not any(drow)
        counts["d_copy"] += drow == srow
        # each member's key, then its reversal's
        keys = [sbm._leading_key(x, flip)
                for x, _ in sbm._special_closure(view) for flip in (False, True)]
        least = min(keys)
        counts["pruned"] += keys.count(least) < len(keys)
        counts["glue_tie"] += kind == "glue" and any(
            keys[i] == keys[i + 1] == least for i in range(0, len(keys), 2))
    assert all(counts.values()), counts


def test_glues_are_reorderings_of_the_kink_matrix():
    # every glue's based matrix is the singular kink's with the glued chord as d
    # and the kink left out; the kink's row is zero and its gap changes nothing
    rng = random.Random(181)
    codes = [K.parse("E")] + [random_classical_code(n, rng) for n in range(31) for _ in range(2)]
    for code in codes:
        text = K.serialize(code)
        kinked = sbm.build_sbm(K.singular_kink(code))
        d = kinked.d
        assert kinked.elements == ("s", *map(str, code.chord_ids()), str(code.fresh_chord_id()))
        assert kinked.matrix[d] == (0,) * kinked.size, text
        for k, c in enumerate(code.chord_ids(), 1):
            order = [0, *range(1, k), *range(k + 1, d), k]
            assert sbm.build_sbm(K.glue(code, c)) == sbm._take(kinked, order), (text, c)
        length = len(code.open_component)
        for gap in {length // 3, length // 2, length}:
            assert sbm.build_sbm(K.singular_kink(code, gap)) == kinked, (text, gap)


def _ref_invariant_G(code):
    """G as first written: one glued code and one based matrix per crossing."""
    acc = FormalSum.zero()
    for c in code.classical_chords():
        acc = acc + FormalSum.term(fingerprint(K.glue(code, c)), code.sign_of(c))
    return acc - FormalSum.term(fingerprint(K.singular_kink(code)), K.writhe(code))


def _ref_surgered(code, surgery, correction):
    """The fingerprints of surgery(code, c) at every chord c, then of correction(code)."""
    for c in code.classical_chords():
        yield V.fingerprint(surgery(code, c))
    yield V.fingerprint(correction(code))


def _ref_invariant_F(code):
    """F as it was: every 0-smoothing through the public `zero_smooth`."""
    return V._signed_sum(code, _ref_surgered(code, K.zero_smooth, K.flatten))


def _ref_invariant_L(code):
    """L as it was: every 1-smoothing through `one_smooth` on the classical code."""
    return V._signed_sum(code, _ref_surgered(code, lambda d, c: K.one_smooth(d, c)[0],
                                             lambda d: K.add_unknot(K.flatten(d))))


def test_f_and_l_match_the_per_surgery_reference(monkeypatch):
    # a code is fingerprinted once: both sides meet equal codes when their
    # surgeries agree, and a surgery that differs misses the cache
    monkeypatch.setattr(V, "fingerprint", functools.cache(V.fingerprint))
    rng = random.Random(193)
    codes = [random_classical_code(rng.randrange(0, 25), rng) for _ in range(300)]
    twins = [twin for code in codes[:50] for twin in (K.reverse(code), K.mirror(code))]
    for code in codes + twins:
        assert K.invariant_F(code).to_json() == _ref_invariant_F(code).to_json(), \
            K.serialize(code)
        assert K.invariant_L(code).to_json() == _ref_invariant_L(code).to_json(), \
            K.serialize(code)


def test_f_and_l_terms_match_the_checked_surgeries(monkeypatch):
    # term by term, since terms of the summed F and L can cancel: each term
    # fingerprinted from its components tuple equals the fingerprint of the
    # checked surgery, and each correction that of the checked correction
    monkeypatch.setattr(V, "_signed_sum", lambda code, terms: list(terms))
    rng = random.Random(197)
    codes = [random_classical_code(4 + t * 36 // 59, rng) for t in range(60)]
    twins = [twin for code in codes[::10] for twin in (K.reverse(code), K.mirror(code))]
    for code in codes + twins:
        flat = K.flatten(code)
        chords = code.classical_chords()
        assert V.invariant_F(code) == [fingerprint(K.zero_smooth(code, c)) for c in chords] + [
            fingerprint(flat)], K.serialize(code)
        assert V.invariant_L(code) == [fingerprint(K.one_smooth(flat, c)[0]) for c in chords] + [
            fingerprint(K.add_unknot(flat))], K.serialize(code)


def test_invariant_g_matches_the_glue_reference():
    rng = random.Random(191)
    codes = [K.parse("E")] + [random_classical_code(rng.randrange(1, 13), rng) for _ in range(150)]
    for code in codes:
        assert K.invariant_G(code) == _ref_invariant_G(code), K.serialize(code)


def test_glues_match_the_per_glue_reduction():
    # term by term, since terms of the summed G can cancel; both the glues
    # whose chord the shared reduction keeps and those whose chord it deletes
    # are met
    left = 0
    for code in [*glue_codes(), K.parse(ZERO_S)]:
        assert list(V._glued(code)) == ref_glued(code), K.serialize(code)
        kinked = sbm.build_sbm(K.singular_kink(code))
        left += kinked.size - sbm._plain_reduction(kinked)[0].size
    assert left > 0


def _plain_deletions(kinked):
    """How each chord the plain reduction of the kinked matrix deletes leaves,
    replayed pass by pass as `_plain_reduction` runs them: by label, "zero"
    for a zero row, "copy" for a copy of row s, or the partner's label for a
    complementary pair, the pairs taken greedily in index order."""
    m, left = kinked, {}
    while True:
        srow, rows = m.row(m.s), {g: m.row(g) for g in m.unmarked()}
        dead = {g: "zero" if not any(r) else "copy" for g, r in rows.items()
                if not any(r) or r == srow}
        for g in rows:
            for h in rows:
                if g < h and g not in dead and h not in dead and \
                        all(a + b == c for a, b, c in zip(rows[g], rows[h], srow)):
                    dead[g], dead[h] = m.elements[h], m.elements[g]
        if not dead:
            return left
        left.update((m.elements[g], how) for g, how in dead.items())
        m = sbm._take(m, [i for i in range(m.size) if i not in dead])


def test_deleted_glues_take_the_kink_or_pair_term():
    # the deleted-glue lemma, on the per-glue reference: a glue whose chord
    # left the shared reduction as a zero row or a copy of row s has the
    # kink's term, and the two glues of a deleted pair have one term, which
    # is mostly not the kink's
    counts = dict.fromkeys(("zero", "copy", "pair", "pair_not_kink"), 0)
    for code in [*glue_codes(), K.parse(ZERO_S)]:
        kinked = sbm.build_sbm(K.singular_kink(code))
        left = _plain_deletions(kinked)
        terms = dict(zip(kinked.elements[1:], ref_glued(code)))  # the kink's term last
        kink = terms[kinked.elements[-1]]
        text = K.serialize(code)
        assert {c: p for c, p in left.items() if p not in ("zero", "copy")} == \
            sbm._plain_reduction(kinked)[1], text
        for c, how in left.items():
            if how in ("zero", "copy"):
                counts[how] += 1
                assert terms[c] == kink, (text, c)
            else:
                counts["pair"] += 1
                counts["pair_not_kink"] += terms[c] != kink
                assert terms[c] == terms[how], (text, c, how)
    assert all(counts.values()), counts


def test_g_reduces_each_deleted_pair_once(monkeypatch):
    # `_string_form` runs on one glue of each pair the shared reduction
    # deleted, and on no other term
    calls = []
    string_form = sbm._string_form

    def counting(m):
        calls.append(m.elements[-1])
        return string_form(m)

    monkeypatch.setattr(sbm, "_string_form", counting)
    pairs = 0
    for code in glue_codes():
        kinked = sbm.build_sbm(K.singular_kink(code))
        left = _plain_deletions(kinked)
        expected = {frozenset((c, p)) for c, p in left.items() if p not in ("zero", "copy")}
        del calls[:]
        K.invariant_G(code)
        assert len(calls) == len(expected), K.serialize(code)
        assert {frozenset((c, left[c])) for c in calls} == expected, K.serialize(code)
        pairs += len(expected)
    assert pairs > 0


def test_g_builds_few_based_matrices(monkeypatch):
    # every glue, closure member and reversal is a view of a matrix already
    # built. On this 30-crossing code G builds 6 (86 when each was built):
    # the kinked matrix, its plain reduction, the kink term's two
    # extensions, and for the one pair of chords the reduction deleted, one
    # glue's matrix and its plain reduction. The third chord it deleted, a
    # zero row or a copy of row s, takes the kink's term (the deleted-glue
    # lemma in CONVENTIONS.md)
    built = []
    post_init = sbm.SBM.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(sbm.SBM, "__post_init__", counting)
    K.invariant_G(random_classical_code(30, random.Random(0)))
    assert len(built) <= 6


@pytest.mark.parametrize("text, left", [("E", 0), ("O1+ U1+", 1), ("U1- O1-", 1)])
def test_glues_of_the_smallest_codes(text, left):
    # no crossing: the kinked matrix is s and the kink alone, and there is no
    # glue; one crossing: the only chord's row is zero, so the shared
    # reduction deletes it, and its glue has the kink's term
    code = K.parse(text)
    kinked = sbm.build_sbm(K.singular_kink(code))
    assert kinked.size - sbm._plain_reduction(kinked)[0].size == left
    terms = ref_glued(code)
    assert list(V._glued(code)) == terms
    if left:
        assert terms[0] == terms[-1]
    assert K.invariant_G(code) == _ref_invariant_G(code)


def test_order_check_reports():
    rep = K.order_check("f", 1, 25, 4242)
    assert rep["all_zero"] and rep["singular_crossings"] == 2
    rep = K.order_check("l", 1, 15, 4243)
    assert rep["all_zero"]
    rep = K.order_check("g", 1, 8, 4244)
    assert rep["all_zero"]
    # F has order one, so its first derivative need not vanish
    rep = K.order_check("f", 0, 6, 1)
    assert not rep["all_zero"] and rep["singular_crossings"] == 1
    assert rep["counterexamples"] == ["U1- SA2 O1- SB2"]
    # no samples, or a negative order, would test nothing
    for n, samples in ((0, -3), (1, 0), (-1, 5)):
        with pytest.raises(ValidityError):
            K.order_check("f", n, samples, 1)


def test_order_check_evaluates_the_definition(monkeypatch):
    # the order check sums the invariant over every resolution, so an order-two
    # correction (-w^2 in place of -w) shows in every handle's second derivative
    with pytest.raises(ValidityError, match="unknown invariant handle"):
        K.order_check("x", 1, 3, 1)
    with pytest.raises(SizeLimitError, match="at most 6 singular chords"):
        K.order_check("f", 6, 1, 1)
    assert K.order_check("p", 5, 1, 1)["singular_crossings"] == 6
    monkeypatch.setattr(V, "writhe", lambda code: K.writhe(code) ** 2)
    for handle, samples, seed in (("f", 20, 11), ("l", 20, 12), ("g", 12, 13)):
        assert not K.order_check(handle, 1, samples, seed)["all_zero"], handle


def test_formal_sum_and_polynomial_stay_apart():
    fs = FormalSum.term(fingerprint(K.parse("E")), 1)
    poly = K.LaurentPoly({1: 1})
    assert fs != FormalSum.zero() and FormalSum.zero() != K.LaurentPoly.zero()
    with pytest.raises(TypeError):
        fs + poly
    for bad in (1.0, 0.5, "1", True):
        with pytest.raises(ValidityError):
            FormalSum.term(fingerprint(K.parse("E")), bad)
    for value, name in ((fs, "FormalSum"), (poly, "LaurentPoly")):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            value._c = {}
        assert repr(value) == f"{name}({value._c!r})"
        assert hash(value) == hash(tuple(sorted(value._c.items())))
        assert (value - value).is_zero() and -(-value) == value


# -- long walks ---------------------------------------------------------------

def test_long_flat_walks_keep_fingerprints():
    rng = random.Random(151)
    for t in range(30):
        n = rng.randrange(10, 21)
        base = random_flat_code(n, rng) if t % 2 else random_two_component_flat(n, rng)
        walked = K.random_walk(base, rng.randrange(20, 51), rng.randrange(10**6), "flat")
        assert fingerprint(walked) == fingerprint(base), K.serialize(walked)


def test_long_walks_keep_f_and_l():
    rng = random.Random(157)
    for t in range(6):
        base = random_classical_code(rng.randrange(10, 21), rng)
        walked = K.random_walk(base, 20, rng.randrange(10**6), "classical")
        inv = K.invariant_F if t % 2 == 0 else K.invariant_L
        assert inv(walked) == inv(base), K.serialize(walked)


def test_f_and_l_at_every_step_of_walks_at_size():
    # both invariants after each step of 6-step walks from 10-16 crossings,
    # where the flat minimization searches larger triangle orbits
    rng = random.Random(167)
    for n in (10, 11, 12, 14, 15, 16):
        walked = base = random_classical_code(n, rng)
        f_base, l_base = K.invariant_F(base), K.invariant_L(base)
        for _ in range(6):
            walked = K.random_walk(walked, 1, rng.randrange(10**6), "classical")
            assert K.invariant_F(walked) == f_base, K.serialize(walked)
            assert K.invariant_L(walked) == l_base, K.serialize(walked)


def test_long_walks_keep_g():
    # G at sizes the canonical form once refused (above 9 unmarked elements); a
    # step adds up to two crossings, and G's cost grows steeply past 30
    rng = random.Random(163)
    for n in (10, 12, 14):
        walked = base = random_classical_code(n, rng)
        g = K.invariant_G(base)
        for _ in range(2):
            walked = K.random_walk(walked, 3, rng.randrange(10**6), "classical")
            assert K.invariant_G(walked) == g, K.serialize(walked)


# -- the invariant layer as it was, kept as references -------------------------

def _ref_minimized(code, orbit_cap=400, log=None):
    """Greedy first deletion, then a capped breadth-first triangle-orbit search
    for a member that unlocks a deletion. `log`, when given, receives
    ("root", components) for each root and ("member", components) for each
    orbit member when the search first meets it."""
    def greedy(c):
        while True:
            dels = enumerate_moves(c, "flat", rules=("R1_delete", "R2_delete"))
            if not dels:
                return c
            c = apply_move(c, dels[0])

    code = greedy(code)
    while True:
        if log is not None:
            log.append(("root", code.components))
        seen = {K.serialize(code)}
        frontier = [code]
        jumped = None
        while frontier and len(seen) <= orbit_cap and jumped is None:
            cur = frontier.pop(0)
            for mv in enumerate_moves(cur, "flat", rules=("R3",)):
                nxt = apply_move(cur, mv)
                s = K.serialize(nxt)
                if s in seen:
                    continue
                seen.add(s)
                if log is not None:
                    log.append(("member", nxt.components))
                if enumerate_moves(nxt, "flat", rules=("R1_delete", "R2_delete")):
                    jumped = nxt
                    break
                frontier.append(nxt)
        if jumped is None:
            return code
        code = greedy(jumped)


def _ref_insert_pair(seq, first, second, rng):
    i = rng.randrange(len(seq) + 1)
    j = rng.randrange(len(seq) + 2)
    seq.insert(i, first)
    seq.insert(j, second)


def _ref_classical_passages(seq, cids, rng):
    for cid in cids:
        sign = rng.choice((1, -1))
        roles = (Role.OVER, Role.UNDER) if rng.random() < 0.5 else (Role.UNDER, Role.OVER)
        _ref_insert_pair(seq, Passage(cid, roles[0], sign), Passage(cid, roles[1], sign), rng)


def _ref_random_classical_code(chords, rng):
    seq = []
    _ref_classical_passages(seq, range(1, chords + 1), rng)
    return K.KnotoidCode((tuple(seq),))


def _ref_random_flat_code(chords, rng):
    seq = []
    for cid in range(1, chords + 1):
        roles = (Role.TAIL, Role.HEAD) if rng.random() < 0.5 else (Role.HEAD, Role.TAIL)
        _ref_insert_pair(seq, Passage(cid, roles[0]), Passage(cid, roles[1]), rng)
    return K.KnotoidCode((tuple(seq),))


def _ref_random_singular_code(classical, singular, rng):
    seq = []
    _ref_classical_passages(seq, range(1, classical + 1), rng)
    for cid in range(classical + 1, classical + singular + 1):
        roles = (Role.STAIL, Role.SHEAD) if rng.random() < 0.5 else (Role.SHEAD, Role.STAIL)
        _ref_insert_pair(seq, Passage(cid, roles[0]), Passage(cid, roles[1]), rng)
    return K.KnotoidCode((tuple(seq),))


def _ref_random_two_component_flat(chords, rng):
    comps = [[], []]
    for cid in range(1, chords + 1):
        roles = (Role.TAIL, Role.HEAD) if rng.random() < 0.5 else (Role.HEAD, Role.TAIL)
        k1, k2 = rng.randrange(2), rng.randrange(2)
        comps[k1].insert(rng.randrange(len(comps[k1]) + 1), Passage(cid, roles[0]))
        comps[k2].insert(rng.randrange(len(comps[k2]) + 1), Passage(cid, roles[1]))
    return K.KnotoidCode((tuple(comps[0]), tuple(comps[1])))


def test_generators_match_reference():
    pairs = ((random_classical_code, _ref_random_classical_code),
             (random_flat_code, _ref_random_flat_code),
             (random_singular_code, _ref_random_singular_code),
             (random_two_component_flat, _ref_random_two_component_flat))
    for seed in range(300):
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        for gen, ref in pairs:
            args = (seed % 7, seed % 3) if gen is random_singular_code else (seed % 13,)
            assert gen(*args, got_rng) == ref(*args, ref_rng), (gen.__name__, seed)
        assert got_rng.getstate() == ref_rng.getstate()


def _minimized_cases():
    rng = random.Random(163)
    codes = []
    for t in range(200):
        n = rng.randrange(0, 11)
        base = random_two_component_flat(n, rng) if t % 3 == 0 else random_flat_code(n, rng)
        codes.append(K.random_walk(base, rng.randrange(0, 4), rng.randrange(10**6), "flat"))
    # no code above reaches the default orbit cap, and only cap 0 cuts their
    # searches short. Two walked codes: the first needs three orbit members to
    # shrink; the second shrinks at cap 1 only if every slide of the member
    # that passes the cap is still checked
    codes.append(K.parse("B15 A16 B3 B6 B9 A7 A2 B10 A13 B14 B2 B19 A20 A19 B20 B4 A5 A6 A10 "
                         "B5 A9 A3 B8 B7 B11 B17 A18 A12 B12 A11 B1 B16 A15 A17 B18 A14 B13 A1 "
                         "A4 A8"))
    codes.append(K.parse("B2 B5 B4 B1 B3 A1 A6 A2 / A3 A4 B6 A5"))
    return codes


def test_minimized_matches_reference(monkeypatch):
    codes = _minimized_cases()
    for code in codes:
        assert V._minimized(code.components) == _ref_minimized(code).components, \
            K.serialize(code)
    for cap in (0, 1, 2, 3):
        monkeypatch.setattr(V, "_ORBIT_CAP", cap)
        for code in codes:
            got = V._minimized(code.components)
            assert got == _ref_minimized(code, orbit_cap=cap).components, (cap, K.serialize(code))


@pytest.mark.slow
def test_minimized_matches_reference_on_smoothings():
    # the 0- and 1-smoothings of 100 codes of 20-40 crossings, where a root's
    # triangle orbit may hold 5 or 7 members besides the root (independent
    # triangles slide in any order); the small cases above meet at most 3
    rng = random.Random(211)
    wide = []
    for _ in range(100):
        code = random_classical_code(rng.randrange(20, 41), rng)
        flat = K.flatten(code)
        for c in code.classical_chords():
            for term in (K.zero_smooth(code, c), K.one_smooth(flat, c)[0]):
                log = []
                assert V._minimized(term.components) == \
                    _ref_minimized(term, log=log).components, (K.serialize(code), c)
                roots = [i for i, (kind, _) in enumerate(log) if kind == "root"] + [len(log)]
                wide += [b - a - 1 for a, b in zip(roots, roots[1:]) if b - a - 1 >= 5]
    assert len(wide) >= 20, wide


def test_minimized_builds_no_code(monkeypatch):
    # the search runs on component tuples and builds no KnotoidCode; each orbit
    # member gets exactly one pair index, in the order the reference meets
    # them, and each root only the one `moves._simplified` built to find that
    # nothing deletes, which it hands on
    codes = _minimized_cases()
    members_indexed, simplified_indexed = [], []

    def build(comps):
        raise AssertionError("_minimized built a KnotoidCode")

    def logger(log, pair_index=moves._pair_index):
        def index(comps, *fixed):
            log.append(comps)
            return pair_index(comps, *fixed)
        return index

    monkeypatch.setattr(V, "_pair_index", logger(members_indexed))
    members = restarts = 0
    for cap in (0, 1, 2, 3, 400):
        monkeypatch.setattr(V, "_ORBIT_CAP", cap)
        for code in codes:
            log = []
            _ref_minimized(code, orbit_cap=cap, log=log)
            members_indexed.clear()
            simplified_indexed.clear()
            with monkeypatch.context() as patched:
                patched.setattr(V, "KnotoidCode", build)
                patched.setattr(moves, "KnotoidCode", build)
                patched.setattr(moves, "_pair_index", logger(simplified_indexed))
                V._minimized(code.components)
            met = [comps for kind, comps in log if kind == "member"]
            roots = [comps for kind, comps in log if kind == "root"]
            assert members_indexed == met, (cap, K.serialize(code))
            assert [c for c in simplified_indexed if c in roots] == roots, (cap, K.serialize(code))
            members += len(met)
            restarts += len(roots) - 1
    assert members >= 80 and restarts >= 10, (members, restarts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KnotoidError as exc:
        return type(exc).__name__, str(exc)


def test_derivative_matches_reference():
    # 200 seeded codes of 0-5 classical and 1-4 singular chords; every fourth
    # is flattened (it resolves to a flat code) or given a closed component,
    # and both fail the checks. G runs on at most 4 chords
    rng = random.Random(167)
    errors = 0
    for t in range(200):
        code = random_singular_code(rng.randrange(0, 6), rng.randrange(1, 5), rng)
        if t % 4 == 3:
            code = K.flatten(code) if code.classical_chords() else K.add_unknot(code)
        handles = ("f", "l", "p") + (("g",) if code.chord_count() <= 4 else ())
        for inv in handles:
            got = _outcome(K.derivative, inv, code)
            assert got == _outcome(_ref_derivative, inv, code), (inv, K.serialize(code))
            errors += isinstance(got, tuple)
    assert errors >= 120, errors


def test_derivative_takes_only_handles(sing1):
    for inv in (5, lambda code: K.affine_index_polynomial(code), None, K.invariant_F):
        with pytest.raises(ValidityError, match="unknown invariant handle"):
            K.derivative(inv, sing1)


def test_derivative_work(monkeypatch):
    # past order one no surgery is made: no fingerprint, no based matrix
    def refuse(*args):
        raise AssertionError("a derivative past order one did surgery")

    big = random_singular_code(4, 20, random.Random(20))
    rng = random.Random(181)
    codes = [random_singular_code(rng.randrange(0, 6), rng.randrange(2, 5), rng)
             for _ in range(20)]
    with monkeypatch.context() as patched:
        patched.setattr(V, "fingerprint", refuse)
        patched.setattr(sbm.SBM, "__post_init__", refuse)
        for handle in ("f", "l", "g", "p"):
            assert K.derivative(handle, big).is_zero()
            for code in codes:
                assert K.derivative(handle, code).is_zero(), (handle, K.serialize(code))
    # at order one, exactly two fingerprints: the surgery at s and the correction
    calls = []

    def counted(code):
        calls.append(code)
        return fingerprint(code)

    monkeypatch.setattr(V, "fingerprint", counted)
    for _ in range(5):
        one = random_singular_code(rng.randrange(0, 7), 1, rng)
        for handle in ("f", "l", "g"):
            calls.clear()
            K.derivative(handle, one)
            assert len(calls) == 2, (handle, K.serialize(one))


def test_order_check_refuses_arguments_that_are_not_ints(tmp_path):
    for n, samples, seed in ((True, 3, 1), ("1", 3, 1), (1.0, 3, 1), (1, 3.0, 1),
                             (1, "3", 1), (1, False, 1), (1, 3, "1"), (1, 3, 1.5), (1, 3, None)):
        with pytest.raises(ValidityError, match="must be an int"):
            K.order_check("f", n, samples, seed)
    cases = [{"name": f"bad-{field}", "check": "order_check", "invariant": "f",
              **{"order": 1, "samples": 2, "seed": 1, field: value}}
             for field, value in (("order", True), ("order", "1"), ("samples", 2.0),
                                  ("seed", "x"))]
    (tmp_path / "order.json").write_text(json.dumps(cases))
    results = corpus.run_directory(tmp_path)
    assert [r["ok"] for r in results] == [False] * 4
    assert [r["detail"]["error"] for r in results] == ["ValidityError"] * 4
    assert [r["detail"]["message"] for r in results] == [
        "n must be an int, got True", "n must be an int, got '1'",
        "samples must be an int, got 2.0", "seed must be an int, got 'x'"]
