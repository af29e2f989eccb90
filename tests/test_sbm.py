"""Singular based matrices: construction, classification, moves, homology."""
import itertools
import random

import pytest

import knotoids as K
from knotoids import sbm
from knotoids.errors import KnotoidError, NotApplicableError, SizeLimitError, ValidityError
from knotoids.sbm import (SBM, apply_ext, apply_ext_inverse, build_sbm, canonical_form,
                          classify, homologous, is_primitive, isomorphic,
                          reduce_to_primitive)
from knotoids.vassiliev import random_classical_code, random_flat_code

from conftest import B3, B4, B5, B6, STRING_G3, STRING_G4, STRING_G5, STRING_G6, with_preferred


def _matrix(m):
    return [list(r) for r in m.matrix]


def test_kink_sbm():
    m = build_sbm(K.parse("SA1* SB1*"))
    assert m.elements == ("s", "1")
    assert _matrix(m) == [[0, 0], [0, 0]]
    cls = classify(m)
    assert cls["d_annihilating_like"]


def test_reference_matrices():
    assert _matrix(build_sbm(K.parse(STRING_G5))) == B5
    assert _matrix(build_sbm(K.parse(STRING_G6))) == B6
    assert _matrix(build_sbm(K.parse(STRING_G3))) == B3
    assert _matrix(build_sbm(K.parse(STRING_G4))) == B4


def test_reference_element_orders():
    assert build_sbm(K.parse(STRING_G5)).elements == ("s", "1", "2", "3", "4", "6", "5")
    assert build_sbm(K.parse(STRING_G6)).elements == ("s", "1", "2", "3", "4", "5", "6")
    assert build_sbm(K.parse(STRING_G3)).elements == ("s", "1", "2", "4", "3")
    assert build_sbm(K.parse(STRING_G4)).elements == ("s", "1", "2", "3", "4")


def test_skew_symmetry_everywhere():
    rng = random.Random(67)
    from knotoids.vassiliev import random_classical_code

    for _ in range(50):
        code = random_classical_code(rng.randrange(1, 6), rng)
        cid = rng.choice(code.classical_chords())
        m = build_sbm(K.glue(code, cid))
        for i in range(m.size):
            for j in range(m.size):
                assert m.matrix[i][j] == -m.matrix[j][i]


def test_classification_flags():
    m5 = build_sbm(K.parse(STRING_G5))
    cls = classify(m5)
    assert not cls["annihilating"]
    assert not cls["core"]
    assert not cls["complementary_pairs"]
    assert not cls["d_annihilating_like"]
    assert not cls["d_core_like"]


def test_primitivity_of_references():
    for text in (STRING_G5, STRING_G6, STRING_G3, STRING_G4):
        assert is_primitive(build_sbm(K.parse(text)))


def test_extensions_and_inverses():
    m = build_sbm(K.parse(STRING_G3))
    bigger = apply_ext(m, ("M1",))
    assert bigger.size == m.size + 1
    assert not is_primitive(bigger)
    label = bigger.elements[-2]
    assert apply_ext_inverse(bigger, ("M1", label)) == m

    copie = apply_ext(m, ("M2",))
    lab = copie.elements[-2]
    assert apply_ext_inverse(copie, ("M2", lab)) == m
    with pytest.raises(NotApplicableError):
        apply_ext_inverse(copie, ("M1", lab))


def test_m3_extension_roundtrip():
    m = build_sbm(K.parse(STRING_G3))
    srow = {e: m.matrix[0][j] for j, e in enumerate(m.elements)}
    row_i = {e: 1 for e in m.elements}
    row_j = {e: srow[e] - row_i[e] for e in m.elements}
    grown = apply_ext(m, ("M3", row_i, row_j))
    assert grown.size == m.size + 2
    li, lj = grown.elements[-3], grown.elements[-2]
    assert apply_ext_inverse(grown, ("M3", li, lj)) == m
    assert reduce_to_primitive(grown) == m


def test_m3_rejects_row_maps_lacking_a_label():
    m = build_sbm(K.parse(STRING_G3))
    row = {e: 0 for e in m.elements[1:]}
    with pytest.raises(NotApplicableError, match="lack element 's'"):
        apply_ext(m, ("M3", row, dict(row, s=0)))
    with pytest.raises(NotApplicableError, match=f"lack element '{m.elements[1]}'"):
        apply_ext(m, ("M3", dict(row, s=0), {"s": 0}))


def test_m3_rejects_non_integer_values():
    # halves whose sum is row s pass the row-sum check, so the values themselves
    # must be checked
    m = SBM(("s", "a", "d"), ((0, 1, 0), (-1, 0, 0), (0, 0, 0)))
    half = {"s": 0, "a": 0.5, "d": 0}
    with pytest.raises(ValidityError, match="0.5"):
        apply_ext(m, ("M3", half, half))
    text = {"s": "0", "a": "1", "d": "0"}
    with pytest.raises(ValidityError, match="'0'"):
        apply_ext(m, ("M3", text, {"s": 0, "a": 0, "d": 0}))
    with pytest.raises(ValidityError, match="True"):
        apply_ext(m, ("M3", {"s": 0, "a": True, "d": 0}, {"s": 0, "a": 0, "d": 0}))


def test_malformed_moves_are_not_applicable():
    # each used to fail as an IndexError, ValueError or TypeError, or to pass
    m = SBM(("s", "a", "d"), ((0, 1, 0), (-1, 0, 0), (0, 0, 0)))
    for move in ((), ("N",), ("M3",), ("M3", [0, 0, 0], [0, 0, 0]), ("M1", "x"),
                 ("M3", {"s": 0, "a": 0, "d": 0}), "M1", ["M1"], (("M1",),), (1,)):
        with pytest.raises(NotApplicableError):
            apply_ext(m, move)
    for move in ((), ("N",), ("M1",), ("M2", "a", "d"), ("M3", "a"), ("M1", "a", "x")):
        with pytest.raises(NotApplicableError):
            apply_ext_inverse(m, move)
    with pytest.raises(NotApplicableError, match="unknown move 'X'"):
        apply_ext(m, ("X",))
    with pytest.raises(NotApplicableError, match="unknown move 'X'"):
        apply_ext_inverse(m, ("X", "a"))


def test_ext_fuzz_raises_only_typed_errors():
    rng = random.Random(91)
    m = build_sbm(K.parse(STRING_G3))
    items = ("M1", "M2", "M3", "N", "X", "s", m.elements[1], 0, None, [0], {"s": 0},
             {e: 0 for e in m.elements}, dict.fromkeys(m.elements, 0.5))
    for _ in range(2000):
        move = tuple(rng.choice(items) for _ in range(rng.randrange(5)))
        for fn in (apply_ext, apply_ext_inverse):
            try:
                fn(m, move)
            except KnotoidError:
                pass


def test_n_switch_involution():
    elements = ("s", "g", "d")
    # no complementarity here: row g + row d = 0 != row s
    m = SBM(elements, ((0, 1, -1), (-1, 0, 0), (1, 0, 0)))
    with pytest.raises(NotApplicableError):
        apply_ext(m, ("N", "g"))
    # rows g and d sum to row s, so the switch applies and is reversible
    m = SBM(elements, ((0, 1, -1), (-1, 0, -1), (1, 1, 0)))
    out = apply_ext(m, ("N", "g"))
    assert out.elements[-1] == "g"
    back = apply_ext(out, ("N", "d"))
    assert back.elements[-1] == "d"
    assert canonical_form(back) == canonical_form(m)


def test_reduce_recovers_after_extension():
    for text in (STRING_G5, STRING_G3):
        m = build_sbm(K.parse(text))
        grown = apply_ext(apply_ext(m, ("M2",)), ("M1",))
        red = reduce_to_primitive(grown)
        assert isomorphic(red, m)
        hom, cert = homologous(grown, m)
        assert hom


def test_isomorphic_under_permutation():
    m = build_sbm(K.parse(STRING_G5))
    # permute two unmarked elements by relabeling through a matrix shuffle
    order = [0, 2, 1, 3, 4, 5, 6]
    shuffled = SBM(tuple(m.elements[i] for i in order),
                   tuple(tuple(m.matrix[i][j] for j in order) for i in order))
    assert isomorphic(m, shuffled)


def test_not_homologous_pairs():
    m5 = build_sbm(K.parse(STRING_G5))
    m6 = build_sbm(K.parse(STRING_G6))
    hom, cert = homologous(m5, m6)
    assert not hom and cert == "none"
    m3 = build_sbm(K.parse(STRING_G3))
    m4 = build_sbm(K.parse(STRING_G4))
    assert not isomorphic(m3, m4)
    hom, cert = homologous(m3, m4)
    assert not hom and cert == "none"


def test_homologous_reflexive_symmetric():
    for text in (STRING_G5, STRING_G6, STRING_G3, STRING_G4):
        m = build_sbm(K.parse(text))
        hom, cert = homologous(m, m)
        assert hom and cert == "isomorphism"
    m5 = build_sbm(K.parse(STRING_G5))
    grown = apply_ext(m5, ("M2",))
    assert homologous(m5, grown)[0]
    assert homologous(grown, m5)[0]


def test_size_limit():
    n = 13
    elements = tuple(["s"] + [f"g{i}" for i in range(n - 2)] + ["d"])
    mat = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    with pytest.raises(SizeLimitError):
        canonical_form(SBM(elements, mat))


def test_size_limit_constant(monkeypatch):
    m = build_sbm(K.parse(STRING_G3))
    assert len(m.unmarked()) == 3 and canonical_form(m)
    monkeypatch.setattr(sbm, "_PERM_LIMIT", 2)
    with pytest.raises(SizeLimitError, match="3 unmarked elements exceed the bound 2"):
        canonical_form(m)


def test_homology_invariance_under_string_walks():
    # walking a singular string by flat moves keeps the based matrix homologous
    rng = random.Random(71)
    base = K.parse(STRING_G3)
    reference = build_sbm(base)
    for trial in range(40):
        walked = K.random_walk(base, 4, rng.randrange(10**6), "flat")
        hom, _ = homologous(reference, build_sbm(walked))
        assert hom, K.serialize(walked)


def test_preferred_switch_keeps_homology():
    code = K.parse("SA1* B2 A2 SB1*")
    switches = [m for m in K.enumerate_moves(code, "flat")
                if m.rule == "PreferredSwitch"]
    switched = K.apply_move(code, switches[0])
    hom, _ = homologous(build_sbm(code), build_sbm(switched))
    assert hom


def test_json_roundtrip():
    m = build_sbm(K.parse(STRING_G4))
    again = SBM.from_json(m.to_json())
    assert again == m


def test_overlapping_classes():
    # with row s zero, a zero row is also a copy of row s and any two zero rows
    # sum to row s: each unmarked element sits in all three classes at once
    m = SBM(("s", "a", "b", "d"), ((0,) * 4,) * 4)
    cls = classify(m)
    assert cls["annihilating"] == ["a", "b"]
    assert cls["core"] == ["a", "b"]
    assert cls["complementary_pairs"] == [("a", "b")]
    assert cls["d_annihilating_like"] and cls["d_core_like"]
    assert not is_primitive(m)
    assert reduce_to_primitive(m) == SBM(("s", "d"), ((0, 0), (0, 0)))


# -- test-local references: the based-matrix layer as first written -----------
# Rule 1 through the 1-smoothing's intersection index, Rule 2 by set scans, the
# label-level classification, and the best-first reduction queue.

def _ref_build_sbm(code):
    chords = code.chord_ids()
    pref = code.preferred_chord()
    pos = {c: (code.ends(c)[0][1], code.ends(c)[1][1]) for c in chords}
    n = len(code.open_component)

    def arc_interior(a, b):
        return set(range(a + 1, b)) if a < b else set(range(a + 1, n)) | set(range(0, b))

    def rule2(e, f):
        (te, he), (tf, hf) = pos[e], pos[f]
        arc_e, arc_f = arc_interior(te, he), arc_interior(tf, hf)
        c1 = sum(1 for g in chords if g not in (e, f)
                 and pos[g][0] in arc_e and pos[g][1] in arc_f)
        c2 = sum(1 for g in chords if g not in (e, f)
                 and pos[g][0] in arc_f and pos[g][1] in arc_e)
        seq = [tag for _, tag in sorted([(te, "te"), (he, "he"), (tf, "tf"), (hf, "hf")])]
        eps = 0
        if [t[1] for t in seq] in (["e", "f", "e", "f"], ["f", "e", "f", "e"]):
            rot = seq[seq.index("te"):] + seq[:seq.index("te")]
            if rot == ["te", "tf", "he", "hf"]:
                eps = 1
            elif rot == ["te", "hf", "he", "tf"]:
                eps = -1
        return c1 - c2 + eps

    def rule1(e):
        _, view = K.one_smooth(code, e)
        return K.intersection_index(view.swapped())

    order = [None] + [c for c in chords if c != pref] + [pref]
    size = len(order)
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            if i == 0:
                mat[i][j] = -rule1(order[j])
            elif j == 0:
                mat[i][j] = rule1(order[i])
            else:
                mat[i][j] = rule2(order[i], order[j])
    return SBM(("s",) + tuple(str(c) for c in order[1:]), tuple(tuple(r) for r in mat))


def _ref_classify(m):
    zero = tuple(0 for _ in m.elements)
    srow = m.row(m.s)
    out = {"annihilating": [], "core": [], "complementary_pairs": [],
           "d_annihilating_like": m.row(m.d) == zero, "d_core_like": m.row(m.d) == srow}
    for g in m.unmarked():
        if m.row(g) == zero:
            out["annihilating"].append(m.elements[g])
        if m.row(g) == srow:
            out["core"].append(m.elements[g])
    for g1, g2 in itertools.combinations(m.unmarked(), 2):
        if tuple(a + b for a, b in zip(m.row(g1), m.row(g2))) == srow:
            out["complementary_pairs"].append((m.elements[g1], m.elements[g2]))
    return out


def _ref_complementary_to_d(m):
    return [g for g in m.unmarked()
            if tuple(a + b for a, b in zip(m.row(g), m.row(m.d))) == m.row(m.s)]


def _ref_drop(m, dead):
    keep = [i for i in range(m.size) if i not in dead]
    return SBM(tuple(m.elements[i] for i in keep),
               tuple(tuple(m.matrix[i][j] for j in keep) for i in keep))


def _ref_remark(m, g):
    order = [m.s] + [i for i in range(1, m.size - 1) if i != g] + [m.d, g]
    return SBM(tuple(m.elements[i] for i in order),
               tuple(tuple(m.matrix[i][j] for j in order) for i in order))


def _ref_fresh_label(taken):
    k = 0
    while f"g{k}" in taken:
        k += 1
    return f"g{k}"


def _ref_apply_ext(m, move):
    kind = move[0]
    if kind in ("M1", "M2", "M3"):
        if kind == "M3":
            _, row_i, row_j = move
            cross = row_i[m.elements[0]]
            li = _ref_fresh_label(set(m.elements))
            new = (li, _ref_fresh_label(set(m.elements) | {li}))
        else:
            new = (_ref_fresh_label(set(m.elements)),)
        elems = m.elements[:-1] + new + (m.elements[-1],)
        n = len(elems)
        added = list(range(n - 1 - len(new), n - 1))
        mat = [[0] * n for _ in range(n)]
        old_idx = [i for i in range(n) if i not in added]
        for a, i in enumerate(old_idx):
            for b, j in enumerate(old_idx):
                mat[i][j] = m.matrix[a][b]
        for a, i in enumerate(old_idx):
            if kind == "M3":
                e = m.elements[a]
                mat[added[0]][i], mat[i][added[0]] = row_i[e], -row_i[e]
                mat[added[1]][i], mat[i][added[1]] = row_j[e], -row_j[e]
            else:
                v = m.matrix[m.s][a] if kind == "M2" else 0
                mat[added[0]][i], mat[i][added[0]] = v, -v
        if kind == "M3":
            mat[added[0]][added[1]], mat[added[1]][added[0]] = cross, -cross
        out = SBM(elems, tuple(tuple(r) for r in mat))
        if kind == "M3" and tuple(a + b for a, b in zip(out.row(added[0]), out.row(added[1]))) \
                != out.row(out.s):
            raise NotApplicableError("the two new rows must sum to row s")
        return out
    if kind == "N":
        label = str(move[1])
        if label not in m.elements:
            raise NotApplicableError(f"no element {label!r}")
        g = m.elements.index(label)
        if g in (m.s, m.d) or g not in _ref_complementary_to_d(m):
            raise NotApplicableError(f"element {label!r} is not complementary to d")
        return _ref_remark(m, g)
    raise NotApplicableError(f"unknown move {kind!r}")


def _ref_apply_ext_inverse(m, move):
    kind = move[0]
    if kind == "N":
        return _ref_apply_ext(m, move)
    cls = _ref_classify(m)
    labels = [str(x) for x in move[1:]]
    if kind == "M1" and labels[0] not in cls["annihilating"]:
        raise NotApplicableError(f"{labels[0]!r} is not annihilating")
    if kind == "M2" and labels[0] not in cls["core"]:
        raise NotApplicableError(f"{labels[0]!r} is not a core element")
    if kind == "M3" and tuple(labels) not in cls["complementary_pairs"] \
            and tuple(labels[::-1]) not in cls["complementary_pairs"]:
        raise NotApplicableError(f"({labels[0]!r}, {labels[1]!r}) is not a complementary pair")
    if kind not in ("M1", "M2", "M3"):
        raise NotApplicableError(f"unknown move {kind!r}")
    return _ref_drop(m, {m.elements.index(label) for label in labels})


def _ref_markings(m):
    seen = {m.matrix: m}
    frontier = [m]
    while frontier:
        cur = frontier.pop()
        for g in _ref_complementary_to_d(cur):
            nxt = _ref_remark(cur, g)
            if nxt.matrix not in seen:
                seen[nxt.matrix] = nxt
                frontier.append(nxt)
    return list(seen.values())


def _ref_reductions(v):
    cls = _ref_classify(v)
    return ([_ref_drop(v, {v.elements.index(lab)}) for lab in cls["annihilating"] + cls["core"]]
            + [_ref_drop(v, {v.elements.index(a), v.elements.index(b)})
               for a, b in cls["complementary_pairs"]])


def _ref_is_primitive(m):
    return not any(_ref_reductions(v) for v in _ref_markings(m))


def _ref_reduce_to_primitive(m):
    seen = {m.matrix}
    queue = [m]
    while queue:
        queue.sort(key=lambda x: (x.size, x.matrix, x.elements))
        cur = queue.pop(0)
        nxt = [x for v in _ref_markings(cur) for x in _ref_reductions(v)]
        if not nxt:
            return cur
        for x in nxt:
            if x.matrix not in seen:
                seen.add(x.matrix)
                queue.append(x)
    raise AssertionError("a shrinking chain always ends at a primitive state")


def _ref_homologous(m1, m2):
    p1, p2 = _ref_reduce_to_primitive(m1), _ref_reduce_to_primitive(m2)
    closure = {canonical_form(p1): "identity"}
    for g in _ref_complementary_to_d(p1):
        closure.setdefault(canonical_form(_ref_remark(p1, g)), f"N({p1.elements[g]})")
    for ext, cls, name in (("M2", "annihilating", "M2;N;M1_inverse"),
                           ("M1", "core", "M1;N;M2_inverse")):
        for v in _ref_markings(_ref_apply_ext(p1, (ext,))):
            for lab in _ref_classify(v)[cls]:
                closure.setdefault(canonical_form(_ref_drop(v, {v.elements.index(lab)})), name)
    via = closure.get(canonical_form(p2))
    if via is None:
        return False, "none"
    return True, "isomorphism" if via == "identity" else via


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotApplicableError as exc:
        return type(exc).__name__, str(exc)


def _ref_outcome(fn, *args):
    """The reference's outcome; a row map lacking a label escaped from the old
    apply_ext as a bare KeyError, which is now a NotApplicableError."""
    try:
        return _outcome(fn, *args)
    except KeyError as exc:
        return "NotApplicableError", f"the row maps lack element {exc.args[0]!r}"


def _reference_strings(count, seed):
    """Glued classical and flat strings of 1-12 chords, flat walks of glued strings,
    and flat strings with a preferred chord and maybe another singular one."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randrange(1, 13)
        kind = t % 4
        if kind == 3:
            code = with_preferred(random_flat_code(n, rng), rng)
        else:
            base = random_classical_code(n, rng) if kind == 0 else random_flat_code(n, rng)
            code = K.glue(base, rng.choice(base.chord_ids()))
            if kind == 2:
                code = K.random_walk(code, rng.randrange(1, 7), rng.randrange(10**6), "flat")
        yield code


def test_build_and_reduce_match_reference():
    extra_singular = 0
    for code in _reference_strings(320, 83):
        extra_singular += len(code.singular_chords()) > 1
        for orient in (code, K.reverse(code)):
            m = build_sbm(orient)
            assert m == _ref_build_sbm(orient), K.serialize(orient)
            if m.size <= 9:
                assert reduce_to_primitive(m) == _ref_reduce_to_primitive(m), K.serialize(orient)
    assert extra_singular >= 20


def _random_move(m, rng):
    kind = rng.choice(("M1", "M2", "M3", "M3", "N", "N", "X"))
    if kind == "M3":
        row_i = {e: rng.randrange(-2, 3) for e in m.elements}
        row_j = {e: v - row_i[e] for e, v in zip(m.elements, m.row(m.s))}
        if rng.random() < 0.2:
            row_j[rng.choice(m.elements)] += 1
        if rng.random() < 0.05:
            del row_i[rng.choice(m.elements)]
        return (kind, row_i, row_j)
    if kind == "N":
        return (kind, rng.choice(m.elements + ("zz",)))
    return (kind,)


def _random_inverse(m, rng):
    kind = rng.choice(("M1", "M2", "M3", "N", "X"))
    pairs = _ref_classify(m)["complementary_pairs"]
    if kind == "M3" and pairs and rng.random() < 0.5:
        return (kind,) + rng.choice(pairs)
    labels = m.elements + ("zz",)
    return (kind,) + tuple(rng.choice(labels) for _ in range(2 if kind == "M3" else 1))


def test_grown_matrices_match_reference():
    rng = random.Random(89)
    seeds = [m for m in map(build_sbm, _reference_strings(120, 97)) if m.size <= 6]
    for n in range(2, 6):
        for _ in range(15):
            mat = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                mat[i][j] = rng.choice((0, 0, 1, -1, 2))
                mat[j][i] = -mat[i][j]
            seeds.append(SBM(("s",) + tuple(f"e{i}" for i in range(n - 2)) + ("d",),
                             tuple(tuple(r) for r in mat)))
    for _ in range(320):
        m = start = rng.choice(seeds)
        for _ in range(rng.randrange(1, 5)):
            move = _random_move(m, rng)
            got = _outcome(apply_ext, m, move)
            assert got == _ref_outcome(_ref_apply_ext, m, move), (m, move)
            if isinstance(got, SBM) and got.size <= 9:
                m = got
            move = _random_inverse(m, rng)
            assert _outcome(apply_ext_inverse, m, move) == \
                _ref_outcome(_ref_apply_ext_inverse, m, move), (m, move)
        assert classify(m) == _ref_classify(m)
        assert is_primitive(m) == _ref_is_primitive(m)
        assert reduce_to_primitive(m) == _ref_reduce_to_primitive(m)
        for other in (start, rng.choice(seeds)):
            assert homologous(m, other) == _ref_homologous(m, other)
            assert homologous(other, m) == _ref_homologous(other, m)
