"""Labeling, writhes, affine index polynomials, intersection index."""
import random

import pytest

import knotoids as K
from knotoids.errors import ValidityError
from knotoids.invariants import LaurentPoly
from knotoids.vassiliev import (random_classical_code, random_flat_code, random_singular_code,
                                random_two_component_flat)

from conftest import FLAT3, SING1_PLUS, VK4


def test_laurent_arithmetic():
    t = LaurentPoly({1: 1})
    p = t * t - LaurentPoly({1: 2})
    assert p == LaurentPoly({2: 1, 1: -2})
    assert str(p) == "t^2-2t"
    assert (p - p).is_zero()
    assert p.substituted_reciprocal() == LaurentPoly({-2: 1, -1: -2})
    assert LaurentPoly({0: 1, 2: 0}) == LaurentPoly({0: 1})
    assert str(LaurentPoly({0: 3, 1: -1})) == "-t+3"
    assert str(LaurentPoly({0: -5})) == "-5"
    assert str(LaurentPoly({-2: 1, -1: -2, 0: 1})) == "1-2t^-1+t^-2"
    assert str(LaurentPoly({-1: -1, 3: 4})) == "4t^3-t^-1"
    assert str(LaurentPoly.zero()) == "0"
    # a coefficient must be an int: no silent truncation, no zero kept as "0t"
    for bad in (0.5, 2.7, 1.0, "1", True, None):
        with pytest.raises(ValidityError):
            LaurentPoly({1: bad})


def test_label_arcs_empty():
    assert K.label_arcs(K.parse("E")) == ()


def test_label_arcs_flat3(flat3):
    # incoming labels along the traversal, starting at zero
    assert K.label_arcs(flat3) == (0, 1, 2, 1, 0, -1)


def test_label_telescoping_random():
    rng = random.Random(5)
    for _ in range(200):
        code = random_classical_code(rng.randrange(1, 7), rng)
        flat = K.flatten(code)
        inc = K.label_arcs(flat)
        total = 0
        for p, label in zip(flat.open_component, inc):
            assert label == total
            total += 1 if p.role.is_head else -1
        assert total == inc[-1] + (1 if flat.open_component[-1].role.is_head else -1)


def test_label_arcs_independent_of_resolution():
    # singular passages step the label like arrow ends, so resolving a singular
    # chord either way leaves every label in place
    assert K.label_arcs(K.parse("SA1* SB1*")) == (0, -1)
    rng = random.Random(29)
    for _ in range(150):
        code = random_singular_code(rng.randrange(0, 6), rng.randrange(1, 3), rng)
        for cid in code.singular_chords():
            for sign in (1, -1):
                assert K.label_arcs(K.resolve(code, cid, sign)) == K.label_arcs(code), \
                    K.serialize(code)


def test_label_closed_drift_raises():
    # a closed component meeting the open one through a single chord cannot close
    # up; closed components carry no labels, so this no longer raises and only
    # the open component is labelled
    assert K.label_arcs(K.parse("A1 / B1 A2 B2")) == (0,)


def test_label_closed_propagation():
    # balanced and disconnected closed components carry no labels either; the
    # open component's steps still count its ends of shared chords
    assert K.label_arcs(K.parse("A1 B2 / B1 A2 / A3 B3")) == (0, -1)


def test_writhe_and_reports(vk4):
    assert K.writhe(vk4) == -2
    reports = {r.chord: r for r in K.crossing_reports(vk4)}
    assert {c: r.sign for c, r in reports.items()} == {1: -1, 2: -1, 3: -1, 4: 1}
    for r in reports.values():
        assert r.weight == r.sign * r.flat_weight


def test_writhe_reverse_invariant():
    rng = random.Random(17)
    for _ in range(100):
        code = random_classical_code(rng.randrange(1, 7), rng)
        assert K.writhe(K.reverse(code)) == K.writhe(code)


def test_affine_trivial_and_kink():
    assert K.affine_index_polynomial(K.parse("E")).is_zero()
    assert K.affine_index_polynomial(K.parse("O1+ U1+")).is_zero()
    assert K.affine_index_polynomial(K.parse("U1- O1-")).is_zero()


def _ref_affine_index_polynomial(code):
    p = LaurentPoly.zero()
    for rep in K.crossing_reports(code):
        p = p + LaurentPoly({rep.weight: rep.sign}) - LaurentPoly({0: rep.sign})
    return p


def _ref_flat_nth_writhe(code, n):
    return sum(1 if wp > 0 else -1 for wp in K.flat_weights(code).values() if abs(wp) == n)


def test_affine_decomposition_identity():
    rng = random.Random(23)
    for t in range(200):
        code = random_classical_code(rng.randrange(0, 7), rng)
        if t % 2:  # singular chords carry no weight of their own
            code = random_singular_code(rng.randrange(0, 7), rng.randrange(1, 3), rng)
        p, p_plus, p_minus, w0p = K.affine_index_decomposition(code)
        assert p == p_plus + p_minus + LaurentPoly({0: w0p})
        assert K.affine_index_polynomial(code) == p == _ref_affine_index_polynomial(code)


def test_nth_writhe_reconstruction():
    # P = sum over nonzero n of w_n t^n + (w_0 - w), and the writhes partition w
    rng = random.Random(29)
    for _ in range(200):
        code = random_classical_code(rng.randrange(0, 7), rng)
        weights = {r.weight for r in K.crossing_reports(code)}
        recon = LaurentPoly({n: K.nth_writhe(code, n) for n in weights if n != 0})
        recon = recon + LaurentPoly({0: K.nth_writhe(code, 0) - K.writhe(code)})
        assert recon == K.affine_index_polynomial(code)
        assert sum(K.nth_writhe(code, n) for n in weights) == K.writhe(code)


def test_flat_weights_flat3(flat3):
    assert K.flat_weights(flat3) == {1: -1, 2: 2, 3: -1}
    assert K.flat_nth_writhe(flat3, 1) == -2
    assert K.flat_nth_writhe(flat3, 2) == 1
    with pytest.raises(ValidityError, match="n > 0"):
        K.flat_nth_writhe(flat3, 0)
    assert K.flat_affine_polynomial(flat3) == LaurentPoly({2: 1, 1: -2})


def test_flat_affine_trivial():
    assert K.flat_affine_polynomial(K.parse("E")).is_zero()
    assert K.flat_affine_polynomial(K.parse("A1 B1")).is_zero()


def test_flat_writhe_vs_nth_writhes():
    # f_n of the flattening equals w_n - w_{-n} of any overlying classical code
    rng = random.Random(31)
    for _ in range(250):
        code = random_classical_code(rng.randrange(0, 7), rng)
        flat = K.flatten(code)
        weights = {abs(r.weight) for r in K.crossing_reports(code)} | {1}
        for n in weights:
            if n == 0:
                continue
            assert K.flat_nth_writhe(flat, n) == _ref_flat_nth_writhe(flat, n) == \
                K.nth_writhe(code, n) - K.nth_writhe(code, -n)
        for n in range(1, 8):
            assert K.flat_nth_writhe(code, n) == _ref_flat_nth_writhe(code, n)


def test_q_only_positive_exponents():
    rng = random.Random(37)
    for _ in range(100):
        code = random_classical_code(rng.randrange(0, 7), rng)
        q = K.flat_affine_polynomial(K.flatten(code))
        assert all(e > 0 for e in q.coeffs())


def test_q_negates_under_reversal():
    # the reversal lemma of CONVENTIONS.md, which the flat fingerprint relies on:
    # flattened, random, walked and zero-smoothed one-component flat codes
    rng = random.Random(41)
    for t in range(400):
        n = rng.randrange(0, 13)
        if t % 4 == 0:
            flat = K.flatten(random_classical_code(n, rng))
        elif t % 4 == 1:
            flat = random_flat_code(n, rng)
        elif t % 4 == 2:
            flat = K.random_walk(random_flat_code(n, rng), rng.randrange(1, 8),
                                 rng.randrange(10**6), "flat")
        else:
            code = random_classical_code(n + 1, rng)
            flat = K.zero_smooth(code, rng.choice(code.classical_chords()))
        assert len(flat.components) == 1 and not flat.classical_chords()
        q = K.flat_affine_polynomial(flat)
        assert K.flat_affine_polynomial(K.reverse(flat)) == -q, K.serialize(flat)
        assert K.flat_weights(K.reverse(flat)) == {c: -w for c, w in K.flat_weights(flat).items()}


def test_intersection_index_swap_antisymmetry():
    rng = random.Random(43)
    for _ in range(200):
        code = random_two_component_flat(rng.randrange(0, 6), rng)
        view = K.OrderedTwoComponent(code, 0, 1)
        assert K.intersection_index(view) == -K.intersection_index(view.swapped())


def test_intersection_index_no_linking_chords():
    code = K.parse("A1 B1 / A2 B2")
    assert K.intersection_index(K.OrderedTwoComponent(code, 0, 1)) == 0


def test_intersection_index_reference_values():
    plus = K.parse(SING1_PLUS)
    _, view = K.one_smooth(plus, 1)
    assert K.intersection_index(view) == 1
    link = K.add_unknot(K.flatten(plus))
    assert K.intersection_index(K.OrderedTwoComponent(link, 0, 1)) == 0
