"""Acceptance suite: the reference values and property suites, one per criterion.

Each criterion prints a PASS line when its assertions complete; run with
`pytest -v tests/test_acceptance.py` (add -s to see the lines live).
"""
import random

import knotoids as K
from knotoids.invariants import LaurentPoly
from knotoids.sbm import build_sbm, classify, homologous, is_primitive
from knotoids.vassiliev import (FormalSum, fingerprint, random_classical_code,
                                random_singular_code, random_two_component_flat)

from conftest import (B3, B4, B5, B6, FLAT3, HEX1, HEX2, QUAD3, QUAD4, SING1,
                      SING1_PLUS, STRING_G3, STRING_G4, STRING_G5, STRING_G6, VK4,
                      _ref_derivative)

CASES = 200


def _ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_example_chain():
    flat3 = K.parse(FLAT3)
    assert K.flat_weights(flat3) == {1: -1, 2: 2, 3: -1}
    assert K.flat_nth_writhe(flat3, 1) == -2
    assert K.flat_nth_writhe(flat3, 2) == 1
    q = K.flat_affine_polynomial(flat3)
    assert q == LaurentPoly({2: 1, 1: -2})

    vk4 = K.parse(VK4)
    smoothed = K.zero_smooth(vk4, 1)
    assert K.flat_affine_polynomial(smoothed) == q
    fp_triv = fingerprint(K.parse("E"))
    fp_flat3 = fingerprint(flat3)
    assert fp_triv != fp_flat3
    assert fingerprint(smoothed) == fp_flat3
    value = K.invariant_F(vk4)
    assert value == FormalSum.term(fp_triv, 2) - FormalSum.term(fp_flat3, 2)
    assert value.coeff(fp_triv) == 2 and value.coeff(fp_flat3) == -2
    _ok(1, "labeling weights (-1,2,-1); f1=-2 f2=1; Q = t^2-2t; "
           "F = 2[trivial] - 2[smoothed class]")


def test_criterion_2_writhe_fixtures():
    vk4 = K.parse(VK4)
    assert {c: vk4.sign_of(c) for c in vk4.classical_chords()} == \
        {1: -1, 2: -1, 3: -1, 4: 1}
    assert K.writhe(vk4) == -2
    for text in (HEX1, HEX2, QUAD3, QUAD4):
        assert K.writhe(K.parse(text)) == 0
    _ok(2, "signs (-1,-1,-1,+1) with w=-2; both six-crossing and both "
           "four-crossing pair diagrams have w=0")


def test_criterion_3_sbm_construction():
    checks = [(STRING_G5, B5), (STRING_G6, B6), (STRING_G3, B3), (STRING_G4, B4)]
    hex1 = K.parse(HEX1)
    assert K.serialize(K.glue(hex1, 5)) == STRING_G5
    assert K.serialize(K.glue(hex1, 6)) == STRING_G6
    quad3 = K.parse(QUAD3)
    assert K.serialize(K.glue(quad3, 3)) == STRING_G3
    assert K.serialize(K.glue(quad3, 4)) == STRING_G4
    for text, expect in checks:
        m = build_sbm(K.parse(text))
        assert [list(r) for r in m.matrix] == expect, text
    _ok(3, "all four reference based matrices reproduced entry-for-entry")


def test_criterion_4_sbm_decisions():
    ms = {t: build_sbm(K.parse(t)) for t in
          (STRING_G5, STRING_G6, STRING_G3, STRING_G4)}
    for t, m in ms.items():
        assert is_primitive(m), t
        cls = classify(m)
        assert not cls["d_annihilating_like"] and not cls["d_core_like"], t
    hom56, _ = homologous(ms[STRING_G5], ms[STRING_G6])
    hom34, _ = homologous(ms[STRING_G3], ms[STRING_G4])
    assert not hom56 and not hom34
    _ok(4, "all four matrices primitive with unmarked-like d; neither pair homologous")


def test_criterion_5_intersection_index():
    plus = K.parse(SING1_PLUS)
    _, view = K.one_smooth(plus, 1)
    assert K.intersection_index(view) == 1
    link = K.add_unknot(K.flatten(plus))
    assert K.intersection_index(K.OrderedTwoComponent(link, 0, 1)) == 0
    _ok(5, "ordered 1-smoothing index 1; split-unknot union index 0")


def test_criterion_6_separation():
    f1 = K.invariant_F(K.parse(HEX1))
    f2 = K.invariant_F(K.parse(HEX2))
    g1 = K.invariant_G(K.parse(HEX1))
    g2 = K.invariant_G(K.parse(HEX2))
    assert f1 == f2 and g1 != g2
    l3 = K.invariant_L(K.parse(QUAD3))
    l4 = K.invariant_L(K.parse(QUAD4))
    g3 = K.invariant_G(K.parse(QUAD3))
    g4 = K.invariant_G(K.parse(QUAD4))
    assert l3 == l4 and g3 != g4
    assert (g1 - g2).coefficients() == [-2, 2]
    assert (g3 - g4).coefficients() == [-2, 2]
    _ok(6, "F equal but G distinct on the six-crossing pair; "
           "L equal but G distinct on the four-crossing pair")


def test_criterion_7_derivative_fixtures():
    sing1 = K.parse(SING1)
    df = K.derivative("f", sing1)
    expected_f = FormalSum.term(fingerprint(K.parse("E")), 2) - \
        FormalSum.term(fingerprint(K.flatten(K.parse(SING1_PLUS))), 2)
    assert df == expected_f and not df.is_zero()

    plus = K.parse(SING1_PLUS)
    smoothed, _ = K.one_smooth(plus, 1)
    link = K.add_unknot(K.flatten(plus))
    dl = K.derivative("l", sing1)
    expected_l = (FormalSum.term(fingerprint(smoothed), 1) -
                  FormalSum.term(fingerprint(link), 1)).scaled(2)
    assert dl == expected_l and not dl.is_zero()
    _ok(7, "first derivatives of F and L equal their two-term reference sums "
           "and are nonzero")


# -- criterion 8: property suites (seeded, >= CASES cases each) ---------------


def test_criterion_8a_flat_writhe_relation():
    rng = random.Random(8001)
    for _ in range(CASES):
        code = random_classical_code(rng.randrange(0, 7), rng)
        flat = K.flatten(code)
        for n in range(1, 8):
            assert K.flat_nth_writhe(flat, n) == \
                K.nth_writhe(code, n) - K.nth_writhe(code, -n)
    _ok("8a", f"f_n = w_n - w_-n on {CASES} random classical codes")


def test_criterion_8b_affine_reconstruction():
    rng = random.Random(8002)
    for _ in range(CASES):
        code = random_classical_code(rng.randrange(0, 7), rng)
        weights = {r.weight for r in K.crossing_reports(code)}
        recon = LaurentPoly({n: K.nth_writhe(code, n) for n in weights if n != 0})
        recon = recon + LaurentPoly({0: K.nth_writhe(code, 0) - K.writhe(code)})
        assert recon == K.affine_index_polynomial(code)
        p, pp, pm, w0p = K.affine_index_decomposition(code)
        assert p == pp + pm + LaurentPoly({0: w0p})
    _ok("8b", f"affine polynomial reconstructions hold on {CASES} random codes")


def test_criterion_8c_walk_invariance_p_q():
    rng = random.Random(8003)
    for _ in range(CASES):
        code = random_classical_code(rng.randrange(0, 4), rng)
        walked = K.random_walk(code, 4, rng.randrange(10**6))
        assert K.affine_index_polynomial(walked) == K.affine_index_polynomial(code)
        flat = K.flatten(code)
        fwalked = K.random_walk(flat, 4, rng.randrange(10**6), "flat")
        assert K.flat_affine_polynomial(fwalked) == K.flat_affine_polynomial(flat)
    _ok("8c", f"P and Q unchanged under random walks, {CASES} trials each")


def test_criterion_8d_walk_invariance_index_fingerprints():
    rng = random.Random(8004)
    for _ in range(CASES):
        two = random_two_component_flat(rng.randrange(0, 4), rng)
        i0 = abs(K.intersection_index(K.OrderedTwoComponent(two, 0, 1)))
        fp0 = fingerprint(two)
        walked = K.random_walk(two, 3, rng.randrange(10**6), "flat")
        assert abs(K.intersection_index(K.OrderedTwoComponent(walked, 0, 1))) == i0
        assert fingerprint(walked) == fp0
        one = K.flatten(random_classical_code(rng.randrange(0, 4), rng))
        fp1 = fingerprint(one)
        walked1 = K.random_walk(one, 3, rng.randrange(10**6), "flat")
        assert fingerprint(walked1) == fp1
    _ok("8d", f"|i| and fingerprints unchanged under flat walks, {CASES} trials")


def test_criterion_8e_walk_invariance_f_l_g():
    rng = random.Random(8005)
    for _ in range(CASES):
        code = random_classical_code(rng.randrange(0, 3), rng)
        f0 = K.invariant_F(code)
        walked = K.random_walk(code, 3, rng.randrange(10**6))
        assert K.invariant_F(walked) == f0, K.serialize(walked)
        assert K.invariant_L(K.random_walk(code, 3, rng.randrange(10**6))) \
            == K.invariant_L(code)
        assert K.invariant_G(K.random_walk(code, 2, rng.randrange(10**6))) \
            == K.invariant_G(code)
    _ok("8e", f"F, L, and G each unchanged under {CASES} random walks")


def test_criterion_8f_mirror_reverse_formulas():
    rng = random.Random(8006)
    for _ in range(CASES):
        code = random_classical_code(rng.randrange(0, 5), rng)
        f = K.invariant_F(code)
        assert K.invariant_F(K.mirror(code)) == -f
        assert K.invariant_F(K.reverse(code)) == f
        lv = K.invariant_L(code)
        assert K.invariant_L(K.mirror(code)) == -lv
        assert K.invariant_L(K.reverse(code)) == lv
    _ok("8f", f"F(mirror) = -F and F(reverse) = F over {CASES} codes; likewise L")


def test_criterion_8g_second_derivatives_vanish():
    rng = random.Random(8007)
    for _ in range(CASES):
        code = random_singular_code(rng.randrange(0, 3), 2, rng)
        for handle in ("f", "l", "g"):
            # `derivative` vanishes by the resolution lemma alone; the
            # reference sums the four resolutions
            assert K.derivative(handle, code).is_zero(), K.serialize(code)
            assert _ref_derivative(handle, code).is_zero(), K.serialize(code)
    _ok("8g", f"second derivatives of F, L, and G vanish on {CASES} "
        "random two-singular codes")


def test_criterion_8h_sbm_walk_homology():
    rng = random.Random(8008)
    base = K.parse(STRING_G3)
    ref = build_sbm(base)
    for _ in range(CASES):
        walked = K.random_walk(base, 3, rng.randrange(10**6), "flat")
        hom, _ = homologous(ref, build_sbm(walked))
        assert hom, K.serialize(walked)
    _ok("8h", f"based-matrix homology preserved along {CASES} singular-string walks")


def test_criterion_8i_move_roundtrips():
    rng = random.Random(8009)
    from knotoids.moves import enumerate_moves

    for _ in range(CASES):
        fam = rng.choice(("classical", "flat"))
        gen = random_classical_code if fam == "classical" else \
            (lambda n, r: K.flatten(random_classical_code(n, r)))
        base = gen(rng.randrange(0, 5), rng)
        inserts = [m for m in enumerate_moves(base, fam) if m.rule.endswith("insert")]
        mv = rng.choice(inserts)
        grown = K.apply_move(base, mv)
        assert any(
            K.apply_move(grown, dm) == base
            for dm in enumerate_moves(grown, fam)
            if dm.rule.endswith("delete")
        )
    _ok("8i", f"insert moves undone by matching deletions, {CASES} trials")


def test_criterion_8j_parse_roundtrips():
    rng = random.Random(8010)
    for _ in range(CASES):
        code = random_classical_code(rng.randrange(0, 8), rng)
        assert K.parse(K.serialize(code)) == code
        sing = random_singular_code(rng.randrange(0, 4), rng.randrange(0, 3), rng)
        assert K.parse(K.serialize(sing)) == sing
        two = random_two_component_flat(rng.randrange(0, 6), rng)
        assert K.parse(K.serialize(two)) == two
    _ok("8j", f"parse/serialize round trips on {3 * CASES} random codes")
